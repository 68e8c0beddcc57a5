"""Benchmark for the smsc federation simulator and enforcement point.

Run from the root of a checkout:

    python3 bench/run.py --workload mesh-gossip --seed 1 --seconds 30 --trace 0

Workloads: ``mesh-gossip`` and ``update-flood`` (scenarios driven through
``parse_scenario`` and ``Simulator.run``) and ``enforce`` (a closed-loop
client calling ``Cell.handle_operation`` and ``Cell.handle_management``).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[1:1] = [os.path.join(ROOT, "src"), ROOT]

try:
    import smsc  # noqa: F401
    from tests import oracles  # noqa: F401
except ImportError as exc:
    sys.stderr.write(f"bench: cannot import the program or its oracles ({exc}); "
                     "run from the root of an smsc checkout\n")
    sys.exit(2)

import measure
import workloads
from spans import Tracer, installed

SIM_WORKLOADS = {
    "mesh-gossip": workloads.mesh_gossip_scenario,
    "update-flood": workloads.update_flood_scenario,
}
WORKLOADS = (*SIM_WORKLOADS, "enforce")

# Boundaries that must fire on each workload in the traced run.
REQUIRED_LAYERS = {
    "mesh-gossip": (
        "sim", "eventlog.record", "cell.handle_envelope", "cell.on_tick",
        "discovery.handle_advertisement", "catalogue.query", "catalogue.expire_stale",
        "catalogue.upsert", "governance.apply_update", "policy.sign_payload",
        "bus.publish", "bus.drain",
    ),
    "update-flood": (
        "sim", "eventlog.record", "cell.handle_envelope", "cell.on_tick",
        "catalogue.query", "governance.apply_update", "governance.assess_update_impact",
        "policy.evaluate_request", "policy.sign_payload", "bus.publish", "bus.drain",
    ),
    "enforce": (
        "cell.handle_operation", "cell.handle_management", "cell.on_tick",
        "governance.apply_update", "governance.assess_update_impact",
        "policy.evaluate_request", "policy.verify_token", "policy.expand_delegations",
        "policy.sign_payload", "bus.publish", "bus.drain",
    ),
}

TIMED_LAYERS = (
    "sim", "eventlog.record", "cell.handle_envelope", "cell.on_tick",
    "cell.handle_operation", "cell.handle_management", "discovery.handle_advertisement",
    "catalogue.query", "catalogue.expire_stale", "governance.apply_update",
    "governance.assess_update_impact", "policy.evaluate_request", "policy.verify_token",
    "policy.expand_delegations", "policy.sign_payload", "bus.publish", "bus.drain",
)
COUNTED_LAYERS = (
    "eventlog.record", "cell.handle_envelope", "discovery.handle_advertisement",
    "catalogue.query", "catalogue.upsert", "governance.apply_update",
    "governance.assess_update_impact", "policy.evaluate_request", "policy.sign_payload",
    "bus.publish",
)


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine() -> dict[str, str]:
    return {"python": platform.python_version(), "nproc": str(os.cpu_count()),
            "platform": platform.platform()}


def say(text: str) -> None:
    print(text, flush=True)


# --- untraced runs: end-to-end metrics ---------------------------------------


def sim_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    scenario = SIM_WORKLOADS[name](seed)
    runs = measure.repeat_for(seconds, lambda i: measure.run_sim_once(scenario, keep_log=i == 0))
    rss = measure.peak_rss_mb()
    counters = measure.sim_counters(runs[0].log_text)
    problems = measure.sim_failures(runs)
    pairs = counters["update_outcomes"].get("applied", 0)
    run_us = [r.run_s * 1e6 for r in runs]
    named = {
        "setup_s": (statistics.median(r.setup_s for r in runs), "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_share": (len(problems) / len(runs), "share"),
        "cell_ticks_per_s": (statistics.median(r.cell_ticks / r.run_s for r in runs), "1/s"),
        "propagation_ticks_p50": (counters["propagation_ticks_p50"], "ticks"),
        "propagation_ticks_p99": (counters["propagation_ticks_p99"], "ticks"),
        "envelopes_per_update": (counters["envelopes_per_update"], "count"),
    }
    show(named, runs)
    say(f"  raw cell_ticks_per_s     "
        f"{statistics.median(r.cell_ticks / r.clock.raw_s for r in runs):.6g}")
    say(f"  event-log sha256         {counters['log_sha256']}")
    del counters["log_sha256"]
    say(f"  counters                 {json.dumps(counters, sort_keys=True)}")
    metrics = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "throughput_per_s": named["cell_ticks_per_s"],
        "call_p50_us": (statistics.median(run_us), "us"),
        "call_p90_us": (p90(run_us), "us"),
        "write_p50_us": (statistics.median(us / pairs for us in run_us) if pairs else 0.0, "us"),
    }
    return metrics, len(runs), len(problems), problems


def show(named: dict, reps: list) -> None:
    """Print the design's metrics, then the scale factors behind the times."""
    for key, (value, unit) in named.items():
        say(f"  {key:24s} {value:.6g} {unit}")
    scales = [scale for rep in reps for scale in rep.clock.scales]
    say(f"  repetitions              {len(reps)}; host speed scale median "
        f"{statistics.median(scales):.4f}, min {min(scales):.4f}, max {max(scales):.4f} "
        f"over {len(scales)} blocks")


def enforce_end_to_end(seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    policy = workloads.enforce_policy(seed)
    requests = workloads.enforce_requests(seed, policy)
    expected = measure.expected_outcomes(policy, requests)
    passes = measure.repeat_for(
        seconds, lambda i: measure.run_enforce_once(policy, requests, expected))
    rss = measure.peak_rss_mb()
    failed, problems = measure.enforce_failures(passes, expected)
    attempted = len(requests) * len(passes)
    op_us = [us for p in passes for us in p.op_us]
    mgmt_us = [us for p in passes for us in p.mgmt_us]
    rate = statistics.median(len(requests) / p.clock.scaled_s for p in passes)
    named = {
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_share": (failed / attempted, "share"),
        "op_p50_us": (statistics.median(op_us), "us"),
        "op_p90_us": (p90(op_us), "us"),
        "mgmt_p50_us": (statistics.median(mgmt_us), "us"),
        "ops_per_s": (rate, "1/s"),
    }
    show(named, passes)
    reasons: dict[str, int] = {}
    for outcome in expected:
        reasons[outcome[1]] = reasons.get(outcome[1], 0) + 1
    say(f"  samples                  {len(op_us)} operations, {len(mgmt_us)} management")
    say(f"  raw ops_per_s            "
        f"{statistics.median(len(requests) / p.clock.raw_s for p in passes):.6g}")
    say(f"  expected reasons         {json.dumps(reasons, sort_keys=True)}")
    metrics = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "throughput_per_s": named["ops_per_s"],
        "call_p50_us": named["op_p50_us"],
        "call_p90_us": named["op_p90_us"],
        "write_p50_us": named["mgmt_p50_us"],
    }
    return metrics, attempted, failed, problems


# --- traced runs: per-layer metrics ------------------------------------------


def layer_metrics(summaries: list[dict], counts: dict, sim: dict, overhead: float) -> dict:
    def calls(layer: str) -> int:
        return summaries[0].get(layer, (0, 0.0))[0]

    def self_s(layer: str) -> float:
        return statistics.median(s.get(layer, (0, 0.0))[1] for s in summaries)

    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = (calls(layer), "count")
    applied = counts["apply.applied"]
    out.update({
        "sim.envelopes_delivered": (sim.get("envelopes_delivered", 0), "count"),
        "sim.envelopes_dropped": (sim.get("envelopes_dropped", 0), "count"),
        "sim.advert_share": (sim.get("advert_share", 0.0), "ratio"),
        "sim.propagation_ticks_p50": (sim.get("propagation_ticks_p50", 0), "ticks"),
        "sim.propagation_ticks_p99": (sim.get("propagation_ticks_p99", 0), "ticks"),
        "sim.envelopes_per_update": (sim.get("envelopes_per_update", 0.0), "count"),
        "eventlog.bytes": (sim.get("log_bytes", 0), "bytes"),
        "cell.digest_reply.packages": (counts["digest_reply.packages"], "count"),
        "cell.anti_entropy.useful_ratio": (
            ratio(counts["digest_reply.applied"], counts["digest_reply.packages"]), "ratio"),
        "discovery.advert_accept_ratio": (
            ratio(counts["advert.accepted"], calls("discovery.handle_advertisement")), "ratio"),
        "governance.applied": (applied, "count"),
        "governance.duplicate": (counts["apply.duplicate"], "count"),
        "governance.buffered": (counts["apply.buffered"], "count"),
        "governance.rejected": (counts["apply.rejected"], "count"),
        "governance.untrusted": (sim.get("update_outcomes", {}).get("untrusted-source", 0), "count"),
        "governance.useful_ratio": (ratio(applied, calls("governance.apply_update")), "ratio"),
        "policy.rules_per_eval": (
            ratio(counts["evaluate.rules"], calls("policy.evaluate_request")), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Alternate untraced and traced repetitions; both must agree exactly."""
    if name == "enforce":
        policy = workloads.enforce_policy(seed)
        requests = workloads.enforce_requests(seed, policy)
        expected = measure.expected_outcomes(policy, requests)
        once = lambda keep: measure.run_enforce_once(policy, requests, expected)  # noqa: E731
        wall = lambda p: p.clock.scaled_s  # noqa: E731
        output = lambda p: p.wrong  # noqa: E731
    else:
        scenario = SIM_WORKLOADS[name](seed)
        once = lambda keep: measure.run_sim_once(scenario, keep_log=keep)  # noqa: E731
        wall = lambda r: r.run_s  # noqa: E731
        output = lambda r: (r.passed, r.log_sha256)  # noqa: E731

    def pair(index):
        plain = once(index == 0)
        tracer = Tracer()
        with installed(tracer):
            traced = once(False)
        return plain, traced, tracer

    pairs = measure.repeat_for(seconds, pair)
    problems = []
    for index, (plain, traced, _) in enumerate(pairs):
        if output(plain) != output(traced):
            problems.append(f"pair {index}: traced output differs from untraced")
    summaries = [tracer.summary() for _, _, tracer in pairs]
    counts = pairs[0][2].counts
    for index, (_, _, tracer) in enumerate(pairs):
        if tracer.counts != counts or {k: v[0] for k, v in summaries[index].items()} != {
            k: v[0] for k, v in summaries[0].items()
        }:
            problems.append(f"pair {index}: span or outcome counts differ from pair 0")
    for layer in REQUIRED_LAYERS[name]:
        if summaries[0].get(layer, (0, 0.0))[0] == 0:
            problems.append(f"boundary {layer} never fired")
    sim = {}
    if name == "enforce":
        problems += measure.enforce_failures([p for p, _, _ in pairs], expected)[1]
    else:
        sim = measure.sim_counters(pairs[0][0].log_text)
        problems += measure.sim_failures([p for p, _, _ in pairs])
        if name == "update-flood" and not counts["digest_reply.packages"]:
            problems.append("no digest-reply carried a package")
    overhead = statistics.median(wall(t) / wall(p) for p, t, _ in pairs)
    bindings = sorted(pairs[0][2].bindings.items())
    say(f"  bindings fired           {json.dumps(dict(bindings), sort_keys=True)}")
    say(f"  repetitions              {len(pairs)} untraced/traced pairs")
    metrics = layer_metrics(summaries, counts, sim, overhead)
    for key, (value, unit) in sorted(metrics.items()):
        say(f"  {key:40s} {value:.6g} {unit}")
    return metrics, len(pairs), len(problems), problems


# --- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    say(f"  machine                  {json.dumps(machine(), sort_keys=True)}")
    if args.trace:
        values, attempted, failed, problems = traced_run(args.workload, args.seed, args.seconds)
    elif args.workload == "enforce":
        values, attempted, failed, problems = enforce_end_to_end(args.seed, args.seconds)
    else:
        values, attempted, failed, problems = sim_end_to_end(args.workload, args.seed, args.seconds)
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in sorted(values.items())}
    for problem in problems:
        say(f"  FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

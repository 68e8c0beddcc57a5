"""The benchmark's deterministic counters repeat exactly for a fixed seed.

Run from the root of a checkout:

    python3 -m pytest bench/tests -q

Each test runs one seed twice and compares what must not depend on the
machine: inputs, envelopes by kind, ingest and apply outcomes,
propagation ticks, envelopes per update, log hashes and decisions.
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), ROOT]

import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, installed  # noqa: E402

SEED = 7
SIMS = {
    "mesh-gossip": workloads.mesh_gossip_scenario,
    "update-flood": workloads.update_flood_scenario,
}


@pytest.mark.parametrize("name", sorted(SIMS))
def test_sim_counters_repeat(name):
    scenario = SIMS[name](SEED)
    assert SIMS[name](SEED) == scenario
    assert SIMS[name](SEED + 1) != scenario
    first = measure.run_sim_once(scenario, keep_log=True)
    second = measure.run_sim_once(scenario, keep_log=True)
    assert first.passed and second.passed
    counters = measure.sim_counters(first.log_text)
    assert counters == measure.sim_counters(second.log_text)
    assert counters["log_sha256"] == first.log_sha256 == second.log_sha256
    assert counters["propagation_pairs"] > 0
    assert counters["envelopes_per_update"] > 0


def test_update_flood_traced_outcomes_repeat():
    scenario = workloads.update_flood_scenario(SEED)
    plain = measure.run_sim_once(scenario)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with installed(tracer):
            run = measure.run_sim_once(scenario)
        runs.append((run.log_sha256, dict(tracer.counts),
                     {k: v[0] for k, v in tracer.summary().items()}))
    assert runs[0] == runs[1]
    assert runs[0][0] == plain.log_sha256
    counts = runs[0][1]
    assert counts["apply.applied"] > 0 and counts["apply.duplicate"] > 0
    assert counts["digest_reply.packages"] > 0


def test_enforce_outcomes_repeat_and_match_oracle():
    policy = workloads.enforce_policy(SEED)
    requests = workloads.enforce_requests(SEED, policy)
    assert workloads.enforce_requests(SEED, workloads.enforce_policy(SEED)) == requests
    expected = measure.expected_outcomes(policy, requests)
    assert expected == measure.expected_outcomes(policy, requests)
    reasons = {outcome[1] for outcome in expected}
    assert {"permit", "deny", "blocklisted", "indeterminate: expired",
            "indeterminate: untrusted-issuer", "indeterminate: bad-signature"} <= reasons
    first = measure.run_enforce_once(policy, requests, expected)
    tracer = Tracer()
    with installed(tracer):
        second = measure.run_enforce_once(policy, requests, expected)
    assert first.wrong == second.wrong == []
    assert len(first.op_us) + len(first.mgmt_us) == len(requests)
    fired = tracer.bindings
    for binding in ("smsc.cell.evaluate_request", "smsc.governance.evaluate_request",
                    "smsc.governance.sign_payload", "smsc.policy.sign_payload"):
        assert fired[binding] > 0, binding

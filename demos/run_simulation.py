#!/usr/bin/env python3
"""Run federation scenarios under the deterministic simulator.

First the shipped partition-heal scenario: a blocklist update emitted
while the two cells cannot talk, back-filled by anti-entropy after the
partition heals.  Then the same 16-cell lossy mesh twice with one seed
and once with another, to show the event log is a pure function of
(scenario, seed).

Run: python3 demos/run_simulation.py
"""

import os
from dataclasses import replace

from smsc.sim import EventLog, Simulator, load_scenario

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")

print("== partition-heal, tick by tick ==")
log = EventLog()
report = Simulator(load_scenario(os.path.join(SCENARIOS, "partition-heal.json")), log).run()
interesting = ("fault", "drop", "update", "assert")
for record in log.records:
    if record["kind"] not in interesting:
        continue
    detail = record["detail"]
    if record["kind"] == "fault":
        print(f"  t{record['tick']:>2} FAULT  {detail}")
    elif record["kind"] == "drop":
        print(f"  t{record['tick']:>2} drop   {detail['kind']} -> "
              f"{record['cell']} ({detail['reason']})")
    elif record["kind"] == "update":
        print(f"  t{record['tick']:>2} update {record['cell']}: "
              f"{detail['origin']}/{detail['seq']} {detail['status']}")
    else:
        marker = "ok " if detail["ok"] else "FAIL"
        print(f"  t{record['tick']:>2} [{marker}] {detail['id']}: {detail['detail']}")
print(f"  => passed={report['passed']} after {report['finalTick']} ticks")

print("\n== determinism on the lossy mesh ==")


def run_lines(seed):
    log = EventLog()
    spec = load_scenario(os.path.join(SCENARIOS, "lossy-convergence.json"))
    Simulator(replace(spec, seed=seed), log).run()
    return log.lines


first = run_lines(1)
second = run_lines(1)
other = run_lines(2)
print(f"  seed 1, run A: {len(first)} log lines")
print(f"  seed 1, run B: identical: {first == second}")
drops_1 = sum(1 for line in first if '"drop"' in line)
drops_2 = sum(1 for line in other if '"drop"' in line)
print(f"  seed 1 dropped {drops_1} envelopes; seed 2 dropped {drops_2} "
      f"(different faults, same code)")

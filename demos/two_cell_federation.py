#!/usr/bin/env python3
"""Two cells, no simulator: an email filter and a call filter that share
the "personal" context.

The owner flags a spammer on the email cell.  That one management call
produces a signed blocklist update which the email cell pushes to every
trusted peer; afterwards the same sender's phone call is denied on the
call cell even though nobody ever touched the call cell directly.

Messages are shuttled by hand here so every hop is visible.  The
simulator in smsc.sim does the same thing with latency, loss, and
partitions added.  Each cell's observer writes to one event log, the
same records a simulator run writes, and the demo ends by printing them.

Run: python3 demos/two_cell_federation.py
"""

import os

from smsc import AttributePair, Cell, issue_token, load_policy_document
from smsc.sim import EventLog

POLICIES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios", "policies")


log = EventLog()
clock = {"tick": 0}


def observer(cell_id):
    return lambda kind, detail: log.record(clock["tick"], cell_id, kind, detail)


def end_tick():
    """The cells' periodic work, which records the tick's bus envelopes.
    Its adverts and digests are not shuttled in this demo."""
    for cell in cells:
        cell.on_tick(clock["tick"])
        cell.take_outbox()


def shuttle(sender, cells, tick):
    """Deliver everything in sender's outbox, printing each envelope."""
    for message in sender.take_outbox():
        targets = [c for c in cells if c.cell_id == message.dst]
        for target in targets:
            print(f"    {sender.cell_id} -> {target.cell_id}: {message.kind}")
            target.handle_envelope(message.kind, sender.cell_id, message.body, tick)


email = Cell(
    "email-cell",
    contexts=("personal",),
    resource_kind="email-filter",
    policy=load_policy_document(os.path.join(POLICIES, "email-personal.json")),
    trust_policy={"personal": []},
    observer=observer("email-cell"),
)
call = Cell(
    "call-cell",
    contexts=("personal",),
    resource_kind="call-filter",
    policy=load_policy_document(os.path.join(POLICIES, "call-personal.json")),
    trust_policy={"personal": []},
    observer=observer("call-cell"),
)
cells = [email, call]

print("== tick 0: the cells find each other ==")
for cell in cells:
    cell.advertise_now()
for cell in cells:
    # broadcast adverts: hand a copy to the other cell
    for message in cell.take_outbox():
        other = call if cell is email else email
        other.handle_envelope(message.kind, cell.cell_id, message.body, 0)
        print(f"    {cell.cell_id} advert -> {other.cell_id}")
print(f"  email-cell trusts: {email.catalogue.trusted_partners()}")
print(f"  call-cell trusts:  {call.catalogue.trusted_partners()}")
end_tick()

print("\n== tick 1: mallory's call still rings ==")
clock["tick"] = 1
decision, response = call.handle_operation(
    {"tokens": [], "action": "ring", "args": {"from": "mallory"},
     "context": "personal"},
    "pstn", 1,
)
print(f"  ring from mallory: {decision.verdict.value}")
end_tick()

print("\n== tick 2: the owner flags mallory on the EMAIL cell ==")
clock["tick"] = 2
owner = issue_token("alice", [AttributePair("role", "owner")], "home-idp", 100)
decision, response = email.handle_management(
    {"tokens": [owner.to_wire()], "command": "flag-spam",
     "payload": {"entry": "mallory"}, "context": "personal"},
    "owner-ui", 2,
)
print(f"  flag-spam: {decision.verdict.value}, {response['status']}")
print(f"  email-cell blocklist: {sorted(email.store.blocklist)}")

print("\n== tick 2: the update travels ==")
shuttle(email, cells, 2)
print(f"  call-cell blocklist:  {sorted(call.store.blocklist)}")
print(f"  call-cell store version: {call.store.version}")
end_tick()

print("\n== tick 3: the same call is now denied ==")
clock["tick"] = 3
decision, response = call.handle_operation(
    {"tokens": [], "action": "ring", "args": {"from": "mallory"},
     "context": "personal"},
    "pstn", 3,
)
print(f"  ring from mallory: {decision.verdict.value} ({decision.reason})")
decision, _ = call.handle_operation(
    {"tokens": [], "action": "ring", "args": {"from": "carol"},
     "context": "personal"},
    "pstn", 3,
)
print(f"  ring from carol:   {decision.verdict.value}")

end_tick()

print("\n== the event log ==")
for record in log.records:
    print(f"  t{record['tick']} {record['cell']} {record['kind']}: {record['detail']}")

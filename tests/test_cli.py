import json
import os

import pytest

from smsc.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = os.path.join(REPO_ROOT, "scenarios")


def shipped(name):
    return os.path.join(SHIPPED, name)


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def test_run_passing_scenario(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    report = tmp_path / "report.json"
    code = main([
        "run", "--scenario", shipped("spamfilter-reuse.json"),
        "--log", str(log), "--report", str(report),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("passed after 10 ticks")
    assert all(line.startswith("[ok]") for line in out.splitlines()[:-1])
    assert json.loads(report.read_text())["passed"] is True
    assert log.read_text().count("\n") > 10


def test_run_seed_override(capsys):
    code = main([
        "run", "--scenario", shipped("lossy-convergence.json"), "--seed", "3",
    ])
    assert code == 0
    assert "passed" in capsys.readouterr().out


def test_run_failing_scenario(tmp_path, capsys):
    wire = {
        "name": "doomed",
        "cells": [{"cellId": "a", "profile": {"contexts": ["work"]},
                   "resourceKind": "echo"}],
        "maxTicks": 2,
        "assertions": [{"id": "nope", "check": "store-version", "cell": "a",
                        "expected": 7, "atEnd": True}],
    }
    path = write_json(tmp_path / "doomed.json", wire)
    code = main(["run", "--scenario", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] nope:" in out
    assert out.strip().endswith("failed after 2 ticks")


def test_run_unreadable_scenario(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_scenario(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"cells": []})
    assert main(["run", "--scenario", path]) == 2
    assert "error:" in capsys.readouterr().err


def request_file(tmp_path, attrs=None):
    return write_json(tmp_path / "request.json", {
        "subjectAttrs": attrs or {"role": ["owner"]},
        "action": "mgmt:flag-spam",
        "resourceId": "email-filter",
        "context": "personal",
        "tick": 0,
    })


def test_check_policy_permit(tmp_path, capsys):
    code = main([
        "check-policy",
        "--policies", shipped(os.path.join("policies", "email-personal.json")),
        "--request", request_file(tmp_path),
    ])
    assert code == 0
    decision = json.loads(capsys.readouterr().out)
    assert decision["verdict"] == "Permit"
    assert decision["matchedRuleIds"] == ["owner-mgmt"]


def test_check_policy_not_applicable(tmp_path, capsys):
    code = main([
        "check-policy",
        "--policies", shipped(os.path.join("policies", "email-personal.json")),
        "--request", request_file(tmp_path, attrs={"role": ["guest"]}),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "NotApplicable"


def test_check_policy_missing_file(tmp_path, capsys):
    code = main([
        "check-policy", "--policies", str(tmp_path / "none.json"),
        "--request", request_file(tmp_path),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


DOMAINS = {
    "domains": {"role": ["owner", "guest"]},
    "actions": ["deliver", "flag", "mgmt:flag-spam"],
    "resources": ["email-filter"],
    "contexts": ["personal"],
}


def test_conflicts_clean_policy(tmp_path, capsys):
    domains = write_json(tmp_path / "domains.json", DOMAINS)
    code = main([
        "conflicts",
        "--policies", shipped(os.path.join("policies", "email-personal.json")),
        "--domains", domains,
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_conflicts_found(tmp_path, capsys):
    policy = write_json(tmp_path / "policy.json", {
        "rules": [
            {"id": "allow", "effect": "Permit", "subject": {},
             "action": "deliver", "resource": "email-filter",
             "contexts": ["personal"]},
            {"id": "block", "effect": "Deny", "subject": {"role": ["guest"]},
             "action": "deliver", "resource": "email-filter",
             "contexts": ["personal"]},
        ],
    })
    domains = write_json(tmp_path / "domains.json", DOMAINS)
    code = main(["conflicts", "--policies", policy, "--domains", domains])
    assert code == 1
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    assert reports[0]["permitRuleId"] == "allow"
    assert reports[0]["denyRuleId"] == "block"
    assert reports[0]["witness"] == {"subjectAttrs": {"role": ["guest"]}, "action": "deliver",
                                     "resourceId": "email-filter", "context": "personal",
                                     "tick": 0}


def test_conflicts_unknown_attribute_domain(tmp_path, capsys):
    policy = write_json(tmp_path / "policy.json", {
        "rules": [
            {"id": "r", "effect": "Permit", "subject": {"clearance": ["x"]},
             "action": "deliver", "resource": "email-filter",
             "contexts": ["personal"]},
        ],
    })
    domains = write_json(tmp_path / "domains.json", DOMAINS)
    assert main(["conflicts", "--policies", policy, "--domains", domains]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_policy_refuses_a_misspelled_request_field(tmp_path, capsys):
    """A request whose ``subjectAttrs`` is misspelled would be decided
    with no attributes at all; it is unusable input instead."""
    with open(request_file(tmp_path), encoding="utf-8") as fh:
        request = json.load(fh)
    request["subjectAtrs"] = request.pop("subjectAttrs")
    code = main([
        "check-policy",
        "--policies", shipped(os.path.join("policies", "email-personal.json")),
        "--request", write_json(tmp_path / "request.json", request),
    ])
    assert code == 2
    assert "subjectAtrs" in capsys.readouterr().err


def test_conflicts_refuses_a_misspelled_domains_field(tmp_path, capsys):
    """A domains file whose ``contexts`` is misspelled would search no
    context and report no conflict; it is unusable input instead."""
    policy = write_json(tmp_path / "policy.json", {
        "rules": [
            {"id": "allow", "effect": "Permit", "subject": {},
             "action": "deliver", "resource": "email-filter",
             "contexts": ["personal"]},
            {"id": "block", "effect": "Deny", "subject": {},
             "action": "deliver", "resource": "email-filter",
             "contexts": ["personal"]},
        ],
    })
    domains = {k: v for k, v in DOMAINS.items() if k != "contexts"}
    domains = write_json(tmp_path / "domains.json", {**domains, "context": ["personal"]})
    assert main(["conflicts", "--policies", policy, "--domains", domains]) == 2
    assert "context" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2

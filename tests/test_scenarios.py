import json

import pytest

from smsc.sim import Simulator, run_scenario

from .corpus import CORPUS, build_scenario


def test_corpus_is_shipped():
    assert len(CORPUS) == 8


@pytest.mark.parametrize("name", CORPUS)
def test_shipped_files_load_and_pass(name):
    report = Simulator(build_scenario(name)).run()
    failures = [r for r in report["assertions"] if not r["ok"]]
    assert report["passed"], failures


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_scenario_passes(name, tmp_path):
    """The `smsc run` path: the written report is the returned one, and it passes."""
    report_path = tmp_path / "report.json"
    report = run_scenario(build_scenario(name), log_path=str(tmp_path / "log.jsonl"),
                          report_path=str(report_path))
    failures = [r for r in report["assertions"] if not r["ok"]]
    assert report["passed"], failures
    assert json.loads(report_path.read_text(encoding="utf-8")) == report
    assert (tmp_path / "log.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_has_assertions(name):
    spec = build_scenario(name)
    assert spec.assertions, f"{name} asserts nothing"
    assert spec.name == name


def test_seed_override():
    assert build_scenario("lossy-convergence", seed=42).seed == 42
    assert build_scenario("lossy-convergence").seed != 42

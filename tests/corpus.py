"""The shipped scenario corpus, read from the JSON files under ``scenarios/``."""

import dataclasses
import glob
import json
import os

from smsc.sim import ScenarioSpec, load_scenario

SHIPPED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")

CORPUS = tuple(sorted(
    os.path.basename(path)[:-len(".json")] for path in glob.glob(os.path.join(SHIPPED, "*.json"))
))


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


POLICY_FILES = {
    os.path.relpath(path, SHIPPED): _load_json(path)
    for path in sorted(glob.glob(os.path.join(SHIPPED, "policies", "*.json")))
}


def build_scenario(name: str, seed=None) -> ScenarioSpec:
    """Load a shipped scenario; ``seed`` overrides its seed, as ``smsc run --seed`` does."""
    spec = load_scenario(os.path.join(SHIPPED, f"{name}.json"))
    return spec if seed is None else dataclasses.replace(spec, seed=seed)

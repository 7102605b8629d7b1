"""Byte-identical artifacts for the benchmark's workloads at full size.

The benchmark (`perfbench/run.py`) prints these digests for seed 1. The
workloads are long and contended (200 clients sharing four blocks; 1,000
chained split iterations; a 512-device placement grid), so they reach
orderings that the bundled scenarios do not. Scenario documents come from
`perfbench/workloads.py`, which is only imported here.
"""

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from music_sim import placement
from music_sim.cli import EXIT_OK, main
from music_sim.errors import ScenarioSchemaError
from music_sim.scenario import parse_config, task_of

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

DIGESTS = {
    "fl_wide": {
        "trace.csv": "0e7f72d8e277dca208ec866e5155ff3556c8c8c3efaf98e03c99497522eaab24",
        "summary.json": "b50c7162ea0c254a97f7df3a47405bb64b7ad19c7e940f006069f42e6543f53a",
        "events.jsonl": "de5ad5212bbdcfada2acd941971da5bb4a48f6bd16c13ce7b7f60917b4d5c817",
    },
    "split_long": {
        "trace.csv": "127bd1eb28a375d4bb4048f73589ffb146729b68441ef477fd7fc44ecb20264c",
        "summary.json": "650d119e71628811f7970ab85d99acdf21a07b59e6029e6185aaee6673ae2efd",
        "events.jsonl": "aa516e62643efa82164534b480c52d3dc85532526e42605b02290b1f65a5e48b",
    },
}
PLAN_WIDE_DIGEST = "dba884a43f936f4d5408300d612956436c4c5a9ebf8ce9ae94964f7ea63288eb"
# the chosen plans' per-node, per-phase energy
PLAN_WIDE_BREAKDOWN_DIGEST = "7ee9eb37f3fc3ccc53312dcb3736a1b1c0576ee448e94f90f6a505abdb90845b"
# every candidate's plan document and breakdown: at seed 1 all 24 chosen
# plans train alone on one server, so only this digest sees the device-layer
# estimates (FL, SL and FedSplit over each cell's pool)
PLAN_WIDE_CANDIDATES_DIGEST = "d91c4c069aabf7e6aa263d47816fe5ccfe21cf7c5d4e834d6cba259218624184"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_workload_artifacts_are_byte_identical(name, tmp_path):
    w = _workloads()
    make_doc = {"fl_wide": w.fl_wide_doc, "split_long": w.split_long_doc}[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make_doc(1, w.FULL[name])))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--event-log"]) == EXIT_OK
    got = {artifact: _sha256((out / artifact).read_bytes()) for artifact in DIGESTS[name]}
    assert got == DIGESTS[name]


@functools.cache
def _plan_wide_configs():
    w = _workloads()
    return [parse_config(doc) for doc in w.plan_wide_docs(1, w.FULL["plan_wide"])]


@functools.cache
def _plan_wide_choices():
    return [placement.choose_placement(task_of(cfg), cfg.topo, cfg.radio_env, cfg.policy,
                                       cfg.radio_env.scheme(cfg.protocol.scheme))
            for cfg in _plan_wide_configs()]


def test_plan_wide_plans_are_byte_identical():
    docs = [plan.to_doc(cfg.topo, estimate)
            for cfg, (plan, estimate) in zip(_plan_wide_configs(), _plan_wide_choices())]
    assert _sha256(json.dumps(docs, sort_keys=True).encode()) == PLAN_WIDE_DIGEST


def test_plan_wide_breakdowns_are_byte_identical():
    """Energy cannot move between the nodes or phases of a chosen plan while
    its total stays put."""
    breakdowns = [estimate.breakdown for _, estimate in _plan_wide_choices()]
    text = json.dumps(breakdowns, sort_keys=True)
    assert _sha256(text.encode()) == PLAN_WIDE_BREAKDOWN_DIGEST


def test_plan_wide_candidate_estimates_are_byte_identical():
    """The estimate of every candidate, chosen or not, with its breakdown."""
    out = []
    for cfg in _plan_wide_configs():
        scheme = cfg.radio_env.scheme(cfg.protocol.scheme)
        for plan in placement.enumerate_candidate_plans(task_of(cfg), cfg.topo, cfg.radio_env,
                                                        cfg.policy, scheme):
            try:
                estimate = placement.estimate_cost(plan, cfg.topo, cfg.radio_env)
            except ScenarioSchemaError as exc:
                out.append(type(exc).__name__)
                continue
            out.append([plan.to_doc(cfg.topo, estimate), estimate.breakdown])
    assert len(out) == 1008
    assert _sha256(json.dumps(out, sort_keys=True).encode()) == PLAN_WIDE_CANDIDATES_DIGEST

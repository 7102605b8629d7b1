"""Placement prunes only the candidates that cannot win.

`choose_placement` estimates candidates in ascending `_energy_floor` order
and skips any whose floor is above the best feasible energy. That is only
sound if no floor exceeds its candidate's estimate, and it is only an
optimisation if the choice is still the exhaustive argmin's. Both are
checked here on criterion 06's generator draws, every `plan_wide` task at
seeds 1-3, and the bundled scenarios, the last also with the servers'
compute made dear enough that a device-layer or server-FL plan wins.
"""

import json

import numpy as np
import pytest

from music_sim import placement
from music_sim.errors import NoFeasiblePlan, ScenarioSchemaError, ZeroRate
from music_sim.placement import (
    SelectionPolicy,
    _energy_floor,
    _plan_sort_key,
    choose_placement,
    enumerate_candidate_plans,
    estimate_cost,
)
from music_sim.radio import RadioEnv, ResourceBlock
from music_sim.scenario import parse_config, task_of
from music_sim.topology import build_topology, validate_layer_span

from test_acceptance import SCENARIO_DIR, SCHEME, _fuzz_task, _fuzz_topology
from test_workload_digests import _workloads

BUNDLED = ("fl_edge", "fedsplit_nested", "sl_homogeneous", "sl_heterogeneous_d2d")
SERVER_TIERS = ("cloud", "fog", "edge")


def _criterion_06_draws():
    """The 1,000 (task, topology, radio, policy, scheme) draws of criterion
    06, drawn from its seed in its order."""
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        doc, aps = _fuzz_topology(rng)
        topo = build_topology(doc)
        cells = {ap: tuple(ResourceBlock(i, 180e3) for i in range(int(rng.integers(3, 7))))
                 for ap in aps}
        radio = RadioEnv(noise_density=4e-21, cells=cells, downlink_rate=2e7,
                         signalling_delay=0.01, rx_energy_per_bit=5e-11,
                         downlink_energy_per_bit=1e-10)
        task = _fuzz_task(rng)
        policy = SelectionPolicy(min_battery=float(rng.choice([0.0, 5.0])),
                                 pool_size=int(rng.integers(2, 7)))
        yield task, topo, radio, policy, SCHEME


def _choice_args(doc: dict) -> tuple:
    cfg = parse_config(doc)
    return (task_of(cfg), cfg.topo, cfg.radio_env, cfg.policy,
            cfg.radio_env.scheme(cfg.protocol.scheme))


def _plan_wide_tasks():
    w = _workloads()
    for seed in (1, 2, 3):
        for doc in w.plan_wide_docs(seed, w.FULL["plan_wide"]):
            yield _choice_args(doc)


def _bundled_doc(name: str, server_price_scale: float = 1.0) -> dict:
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for tier in SERVER_TIERS:
        for server in doc["nodes"][tier]:
            server["energy_per_cycle"] *= server_price_scale
    return doc


def _bundled_tasks():
    for name in BUNDLED:
        for scale in (1.0, 30.0, 1000.0):
            yield _choice_args(_bundled_doc(name, scale))


SWEEPS = {"criterion_06_draws": _criterion_06_draws, "plan_wide_seeds_1_to_3": _plan_wide_tasks,
          "bundled_and_dear_servers": _bundled_tasks}


def _floors_and_argmin(task, topo, radio, policy, scheme):
    """Every candidate's (floor, estimate or None), and the exhaustive
    feasible argmin as (key, plan, estimate), or None."""
    priced, best = [], None
    for plan in enumerate_candidate_plans(task, topo, radio, policy, scheme):
        try:
            est = estimate_cost(plan, topo, radio)
        except (ScenarioSchemaError, ZeroRate):
            est = None
        priced.append((_energy_floor(plan, topo), est))
        if est is None or validate_layer_span(plan, topo) is not None:
            continue
        if est.wall_latency > task.latency_deadline:
            continue
        key = _plan_sort_key(plan, est)
        if best is None or key < best[0]:
            best = (key, plan, est)
    return priced, best


def _counted_estimates(monkeypatch) -> list:
    """The plans `choose_placement` estimates from now on, in order."""
    calls = []
    monkeypatch.setattr(placement, "estimate_cost",
                        lambda plan, *a, **k: calls.append(plan) or estimate_cost(plan, *a, **k))
    return calls


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_floors_are_sound_and_pruning_keeps_the_argmin(sweep):
    candidates = 0
    for args in SWEEPS[sweep]():
        priced, expected = _floors_and_argmin(*args)
        for floor, est in priced:
            assert floor >= 0.0
            if est is not None:
                assert floor <= est.total_energy
        candidates += len(priced)
        try:
            plan, est = choose_placement(*args)
        except NoFeasiblePlan:
            assert expected is None
            continue
        assert expected is not None
        assert (plan, est) == (expected[1], expected[2])
    assert candidates > 0


def test_most_plan_wide_candidates_are_never_estimated(monkeypatch):
    """Every device-layer and server-FL candidate of `plan_wide` is pruned:
    only the 21 servers training alone are estimated."""
    calls = _counted_estimates(monkeypatch)
    w = _workloads()
    for doc in w.plan_wide_docs(1, w.FULL["plan_wide"]):
        choose_placement(*_choice_args(doc))
    assert len(calls) == 24 * 21
    assert {plan.task.protocol for plan in calls} == {"centralized"}


# (scenario, servers' price scale) -> the winner's protocol and roles, and
# how many of the candidates are estimated. At scale 1 every bundled
# scenario's winner trains on servers alone. In `fedsplit_nested` at x30 the
# floor of FL from fog0 over ap0 and ap1 ties the winner's energy, so that
# near tie, and every candidate, is estimated.
FEDSPLIT_AP0 = {"ap0": "server", "ue0": "master", "ue1": "slave", "ue2": "slave",
                "ue3": "client", "ue4": "client"}
FL_CLOUD_OVER_FOG = ("fl", {"cloud0": "server", "fog0": "client"})
DEAR_SERVER_WINNERS = {
    ("fl_edge", 30.0): ("fl", {"ap1": "server", "ue5": "client"}, "7 of 8"),
    ("fl_edge", 1000.0): ("fl", {"ap1": "server", "ue5": "client"}, "6 of 8"),
    ("fedsplit_nested", 30.0): ("centralized", {"ap0": "server"}, "7 of 7"),
    ("fedsplit_nested", 1000.0): ("fedsplit_nested", FEDSPLIT_AP0, "5 of 7"),
    ("sl_homogeneous", 30.0): (*FL_CLOUD_OVER_FOG, "7 of 8"),
    ("sl_homogeneous", 1000.0): ("sl_homogeneous", {"ap1": "server", "ue5": "client"},
                                 "6 of 8"),
    ("sl_heterogeneous_d2d", 30.0): (*FL_CLOUD_OVER_FOG, "6 of 7"),
    ("sl_heterogeneous_d2d", 1000.0): (*FL_CLOUD_OVER_FOG, "6 of 7"),
}


@pytest.mark.parametrize("name, scale", sorted(DEAR_SERVER_WINNERS))
def test_dear_server_winners_survive_pruning(name, scale, monkeypatch):
    args = _choice_args(_bundled_doc(name, scale))
    _, expected = _floors_and_argmin(*args)
    calls = _counted_estimates(monkeypatch)
    plan, est = choose_placement(*args)
    assert (plan, est) == (expected[1], expected[2])
    estimated = f"{len(calls)} of {len(enumerate_candidate_plans(*args))}"
    assert (plan.task.protocol, plan.roles, estimated) == DEAR_SERVER_WINNERS[name, scale]


def test_a_winner_that_cannot_be_priced_is_skipped():
    """With dear servers, FL at ap1 over ue5 wins `fl_edge`; once ue5 cannot
    transmit, its estimate raises `ZeroRate` and the next best wins."""
    doc = _bundled_doc("fl_edge", 30.0)
    next(u for u in doc["nodes"]["ue"] if u["id"] == "ue5")["tx_power"] = 0.0
    args = _choice_args(doc)
    _, expected = _floors_and_argmin(*args)
    plan, est = choose_placement(*args)
    assert (plan, est) == (expected[1], expected[2])
    assert plan.server() != "ap1"

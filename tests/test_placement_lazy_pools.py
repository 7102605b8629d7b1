"""Placement selects a device pool only for a candidate that can still win.

`choose_placement` keys each access point's device-layer candidate by
`_pool_floor` before its pool is selected, and builds the plan only when
the walk reaches that key. That is only sound if no such bound exceeds the
floor of the plan the candidate becomes, and the two consumers of the
candidate source (`enumerate_candidate_plans`, which builds every plan, and
`choose_placement`, which builds lazily) must build the same plans. Both
are checked on the sweeps of `test_placement_floor.py`.
"""

import pytest

from music_sim import placement
from music_sim.errors import NoFeasiblePlan
from music_sim.placement import _energy_floor, choose_placement, enumerate_candidate_plans

from test_placement_floor import BUNDLED, SWEEPS, _bundled_doc, _choice_args, _counted_estimates
from test_workload_digests import _workloads


def _device_layer_plans(task, topo, radio, policy, scheme) -> dict:
    """Each edge server's enumerated device-layer plan, by server: the
    candidates with a device among their nodes."""
    return {plan.server(): plan
            for plan in enumerate_candidate_plans(task, topo, radio, policy, scheme)
            if any(n in topo.ues for n in plan.roles)}


def _recorded(monkeypatch, name: str) -> list:
    """(edge server, result) of every call `choose_placement` makes from now
    on to the placement function `name`, whose third argument is the server."""
    calls, inner = [], getattr(placement, name)

    def record(*args):
        result = inner(*args)
        calls.append((args[2], result))
        return result
    monkeypatch.setattr(placement, name, record)
    return calls


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_pool_bounds_are_sound_and_lazy_plans_are_the_enumerated_ones(sweep, monkeypatch):
    bounded = built = 0
    for args in SWEEPS[sweep]():
        topo = args[1]
        expected = _device_layer_plans(*args)
        with monkeypatch.context() as m:
            bounds = _recorded(m, "_pool_floor")
            plans = _recorded(m, "_device_layer_plan")
            try:
                choose_placement(*args)
            except NoFeasiblePlan:
                pass
        for ap_id, bound in bounds:
            assert bound >= 0.0
            if ap_id in expected:
                assert bound <= _energy_floor(expected[ap_id], topo)
        for ap_id, plan in plans:
            if plan is None:
                assert ap_id not in expected
            else:
                assert plan == expected[ap_id]
                assert list(plan.roles.items()) == list(expected[ap_id].roles.items())
        bounded += len(bounds)
        built += len(plans)
    assert bounded > 0
    if sweep != "plan_wide_seeds_1_to_3":  # there every pool is pruned
        assert built > 0


def _counted_pools(monkeypatch) -> list:
    """The pools `choose_placement` selects from now on."""
    calls, inner = [], placement.select_ue_pool
    monkeypatch.setattr(placement, "select_ue_pool",
                        lambda *a, **k: calls.append(a[0]) or inner(*a, **k))
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plan_wide_selects_no_pool(seed, monkeypatch):
    """Every `plan_wide` task's 16 device-layer candidates are pruned
    before their pools are selected (384 pools a seed when built eagerly),
    and the estimates made are unchanged: the 21 servers training alone."""
    estimates = _counted_estimates(monkeypatch)
    pools = _counted_pools(monkeypatch)
    w = _workloads()
    for doc in w.plan_wide_docs(seed, w.FULL["plan_wide"]):
        choose_placement(*_choice_args(doc))
    assert len(pools) == 0
    assert len(estimates) == 24 * 21


# servers' price scale -> pools selected on each bundled scenario: none
# while servers are cheap, and both access points' once a device-layer or
# server-FL plan can win
POOLS_BY_SCALE = {1.0: 0, 30.0: 2, 1000.0: 2}


@pytest.mark.parametrize("scale", sorted(POOLS_BY_SCALE))
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_pools_are_selected_only_when_they_can_win(name, scale, monkeypatch):
    pools = _counted_pools(monkeypatch)
    choose_placement(*_choice_args(_bundled_doc(name, scale)))
    assert len(pools) == POOLS_BY_SCALE[scale]

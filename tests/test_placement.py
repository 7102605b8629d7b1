"""Device selection, closed-form cost estimation, and plan choice.

The estimator tests run the real protocol runners on static channels and
check that the a-priori estimate reproduces the executed wall latency and
energy, since both are built from the same cost primitives.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import music_sim
from music_sim import costs, mlp, protocols
from music_sim.engine import BlockLedger, Engine
from music_sim.errors import EmptyPool, MissingBackhaulLink, NoFeasiblePlan
from music_sim.placement import (
    CostEstimate,
    SelectionPolicy,
    TrainingPlan,
    TrainingTask,
    _edge_restriction_ok,
    _plan_sort_key,
    choose_placement,
    enumerate_candidate_plans,
    estimate_cost,
    select_ue_pool,
)
from music_sim.protocols import (
    FlLegs,
    FlSession,
    LegCosts,
    SlHomoLegs,
    SlSession,
    TrainingConfig,
    eval_legs,
    run_fedsplit_nested,
    run_fl,
    run_sl_heterogeneous,
    run_sl_homogeneous,
    sl_hetero_legs,
)
from music_sim.radio import AccessScheme, NomaCluster, SchemeKind
from music_sim.scenario import parse_config, plan_of, task_of
from music_sim.topology import UeProfile, build_topology, validate_layer_span

from conftest import blob_data, simple_radio, star_doc, star_topology

WIDTHS = (8, 16, 12, 4)
SCHEME = AccessScheme(kind=SchemeKind.OMA_GRANT_BASED, signalling_delay=0.01)
SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"


def _ue(i, *, battery=50.0, compute=2e7, gain=2e-7, variance=0.0, mobile=False):
    return UeProfile(id=f"ue{i}", battery=battery, compute_rate=compute,
                     energy_per_cycle=2e-9, tx_power=0.2, channel_gain=gain,
                     channel_variance=variance, mobile=mobile,
                     attached_ap="ap0", dataset_size=48)


# ------------------------------------------------------ pool selection ---- #

def test_pool_filters_on_thresholds():
    policy = SelectionPolicy(min_battery=10, min_compute_rate=1e7,
                             min_channel_gain=1e-7)
    ues = [_ue(0), _ue(1, battery=5), _ue(2, compute=5e6), _ue(3, gain=1e-8)]
    assert select_ue_pool(ues, policy, for_sl=False) == ["ue0"]


def test_pool_ranking_compute_battery_id():
    policy = SelectionPolicy()
    ues = [_ue(0, compute=1e7, battery=10), _ue(1, compute=3e7, battery=5),
           _ue(2, compute=1e7, battery=20), _ue(3, compute=1e7, battery=10)]
    assert select_ue_pool(ues, policy, for_sl=False) == ["ue1", "ue2", "ue0", "ue3"]


def test_pool_size_caps_the_result():
    policy = SelectionPolicy(pool_size=2)
    ues = [_ue(i, compute=(5 - i) * 1e7) for i in range(4)]
    assert select_ue_pool(ues, policy, for_sl=False) == ["ue0", "ue1"]


def test_pool_empty_raises():
    with pytest.raises(EmptyPool):
        select_ue_pool([_ue(0, battery=1)], SelectionPolicy(min_battery=10),
                       for_sl=False)


def test_pool_sl_filters_channel_steadiness():
    """Jittery mobile devices are unfit to hold split-model state; the same
    devices are acceptable as plain federated clients."""
    policy = SelectionPolicy(max_channel_variance=0.5)
    jittery = _ue(0, variance=0.9, mobile=True)
    steady_mobile = _ue(1, variance=0.1, mobile=True)
    parked_jittery = _ue(2, variance=0.9, mobile=False)
    ues = [jittery, steady_mobile, parked_jittery]
    assert select_ue_pool(ues, policy, for_sl=True) == ["ue1", "ue2"]
    assert select_ue_pool(ues, policy, for_sl=False) == ["ue0", "ue1", "ue2"]


def test_pool_require_immobile():
    policy = SelectionPolicy(max_channel_variance=0.5, require_immobile=True)
    ues = [_ue(0, variance=0.1, mobile=True), _ue(1, variance=0.1, mobile=False)]
    assert select_ue_pool(ues, policy, for_sl=True) == ["ue1"]


def test_policy_validation():
    with pytest.raises(Exception):
        SelectionPolicy(min_battery=-1)
    with pytest.raises(Exception):
        SelectionPolicy(pool_size=0)


# ------------------------------------------------- estimator parity ---- #

def _config(eval_every=0, test_size=32):
    return TrainingConfig(lr=0.05, batch_size=16, cycles_per_mac=1.0,
                          eval_every=eval_every)


def _task(protocol, *, rounds=1, local_iters=1, eval_every=0, test_size=32,
          cut=None, boundaries=(), deadline=math.inf):
    return TrainingTask(protocol=protocol, widths=WIDTHS, rounds=rounds,
                        local_iterations=local_iters, batch_size=16,
                        latency_deadline=deadline, cycles_per_mac=1.0,
                        eval_every=eval_every, test_size=test_size,
                        cut_index=cut, boundaries=tuple(boundaries))


def _run_totals(trace_eng):
    eng = trace_eng
    total = sum(sum(c.values()) for c in eng.energy_ledger.values())
    return total, eng.clock


def _assert_parity(est: CostEstimate, eng: Engine, rel=1e-9):
    energy, latency = _run_totals(eng)
    assert est.wall_latency == pytest.approx(latency, rel=rel)
    assert est.total_energy == pytest.approx(energy, rel=rel)


@pytest.mark.parametrize("kind", ["oma_grant_based", "noma_grant_based",
                                  "noma_grant_free"])
def test_estimate_matches_executed_fl(kind):
    """ue0 and ue1 form a NOMA cluster on blocks 0-1 (used by the NOMA
    schemes only); ue2 keeps block 2 to itself either way."""
    topo = star_topology(3)
    blocks = simple_radio().cells["ap0"]
    radio = simple_radio(clusters=[NomaCluster(members=(("ue0", 0.2), ("ue1", 0.1)),
                                               blocks=blocks[:2])])
    kind = SchemeKind(kind)
    scheme = AccessScheme(kind=kind, signalling_delay=0.0 if kind.grant_free else 0.01)
    data = blob_data(3, test_size=32)
    model = mlp.init_model(list(WIDTHS), "ce", seed=3)
    sess = FlSession(server="ap0", clients=["ue0", "ue1", "ue2"],
                     local_iterations=2, global_rounds=3, model=model,
                     scheme=scheme, config=_config(eval_every=2), data=data)
    eng = Engine(seed=0)
    run_fl(sess, topo, radio, eng)

    plan = TrainingPlan(task=_task("fl", rounds=3, local_iters=2, eval_every=2),
                        roles={"ap0": "server", "ue0": "client", "ue1": "client",
                               "ue2": "client"}, ma_scheme=scheme)
    _assert_parity(estimate_cost(plan, topo, radio), eng)


def test_estimate_matches_executed_homogeneous_sl():
    topo = star_topology(3)
    radio = simple_radio()
    data = blob_data(3, test_size=32)
    model = mlp.init_model(list(WIDTHS), "ce", seed=3)
    sess = SlSession(server="ap0", clients=["ue0", "ue1", "ue2"],
                     variant="homogeneous", iterations=5, model=model,
                     scheme=SCHEME, config=_config(eval_every=2), data=data,
                     cut_index=2)
    eng = Engine(seed=0)
    run_sl_homogeneous(sess, topo, radio, eng)

    plan = TrainingPlan(task=_task("sl_homogeneous", rounds=1, local_iters=5,
                                   eval_every=2, cut=2),
                        roles={"ap0": "server", "ue0": "client", "ue1": "client",
                               "ue2": "client"}, ma_scheme=SCHEME)
    _assert_parity(estimate_cost(plan, topo, radio), eng)


@pytest.mark.parametrize("relay", ["via_server", "d2d"])
def test_estimate_matches_executed_heterogeneous_sl(relay):
    topo = star_topology(3, d2d=True)
    radio = simple_radio()
    data = blob_data(3)
    model = mlp.init_model(list(WIDTHS), "ce", seed=3)
    order = ["ue1", "ue0"]  # master is the second segment so d2d links exist
    sess = SlSession(server="ap0", clients=order, variant="heterogeneous",
                     iterations=4, model=model, scheme=SCHEME,
                     config=_config(), data=data, boundaries=(1, 2), relay=relay)
    eng = Engine(seed=0)
    run_sl_heterogeneous(sess, topo, radio, eng)

    plan = TrainingPlan(task=_task("sl_heterogeneous", local_iters=4,
                                   boundaries=(1, 2)),
                        roles={"ap0": "server", "ue0": "client", "ue1": "client"},
                        ma_scheme=SCHEME, relay=relay)
    _assert_parity(estimate_cost(plan, topo, radio, client_order=order), eng)


def test_estimate_matches_executed_fedsplit():
    topo = star_topology(5, d2d=True)
    radio = simple_radio()
    data = blob_data(5, test_size=32)
    model = mlp.init_model(list(WIDTHS), "ce", seed=3)
    fl = FlSession(server="ap0", clients=["ue0", "ue3", "ue4"],
                   local_iterations=2, global_rounds=2, model=model,
                   scheme=SCHEME, config=_config(eval_every=1), data=data)
    nested = {"ue0": SlSession(server="ue0", clients=["ue1", "ue2"],
                               variant="homogeneous", iterations=1, model=model,
                               scheme=SCHEME, config=_config(), data=data,
                               cut_index=2)}
    eng = Engine(seed=0)
    run_fedsplit_nested(fl, nested, topo, radio, eng)

    plan = TrainingPlan(task=_task("fedsplit_nested", rounds=2, local_iters=2,
                                   eval_every=1, cut=2),
                        roles={"ap0": "server", "ue0": "master", "ue1": "slave",
                               "ue2": "slave", "ue3": "client", "ue4": "client"},
                        ma_scheme=SCHEME)
    _assert_parity(estimate_cost(plan, topo, radio), eng)


DEEP = (8, 16, 12, 10, 4)


def _parity_case(protocol, clients, blocks, rounds, local_iters, server, kind, relay,
                 eval_every, pair, rotate):
    """(estimate, engine after the executed run) of one static-channel plan.

    `clients` counts the session's uplinking clients (FedSplit's FL
    participants; its master ue0 always has slaves ue1 and ue2). Session
    order is sorted ids rotated by `rotate`, except heterogeneous SL's chain
    ue1-ue0-ue2, which is what its D2D links allow. `relay` is the
    heterogeneous relay; under the other protocols "d2d" gives ue0 a D2D
    group (SL handoffs then ride it). The first two session clients by id
    form a NOMA pair on the blocks `pair` names (modulo the cell's block
    count; none when empty), used by the NOMA schemes only.
    """
    hetero = protocol == "sl_heterogeneous"
    fedsplit = protocol == "fedsplit_nested"
    n_ue = 3 if hetero else clients + 2 * fedsplit
    doc = star_doc(n_ue, d2d=fedsplit or (relay == "d2d" and n_ue > 1))
    if fedsplit:
        doc["d2d_groups"][0]["slaves"] = ["ue1", "ue2"]
    topo = build_topology(doc)
    if hetero:
        session = ["ue1", "ue0", "ue2"][:clients]
    else:
        ids = [f"ue{i}" for i in range(n_ue) if not (fedsplit and i in (1, 2))]
        k = rotate % len(ids)
        session = ids[k:] + ids[:k]
    members = sorted(session)[:2]
    indices = sorted({i % blocks for i in pair})
    cells = simple_radio(blocks).cells["ap0"]
    clusters = [NomaCluster(members=((members[0], 0.2), (members[1], 0.1)),
                            blocks=tuple(cells[i] for i in indices))] \
        if indices and len(members) == 2 else []
    radio = simple_radio(blocks, clusters=clusters)
    kind = SchemeKind(kind)
    scheme = AccessScheme(kind=kind, signalling_delay=0.0 if kind.grant_free else 0.01)

    data = blob_data(n_ue, test_size=32)
    model = mlp.init_model(list(DEEP), "ce", seed=3)
    config = _config(eval_every=eval_every)
    eng = Engine(seed=0)
    roles = {server: "server"}
    roles.update({c: "client" for c in session})
    if protocol in ("fl", "fedsplit_nested"):
        task = TrainingTask(protocol=protocol, widths=DEEP, rounds=rounds,
                            local_iterations=local_iters, batch_size=16,
                            eval_every=eval_every, test_size=32, cut_index=2)
        fl = FlSession(server=server, clients=session, local_iterations=local_iters,
                       global_rounds=rounds, model=model, scheme=scheme, config=config,
                       data=data)
        if fedsplit:
            roles.update({"ue0": "master", "ue1": "slave", "ue2": "slave"})
            nested = {"ue0": SlSession(server="ue0", clients=["ue1", "ue2"],
                                       variant="homogeneous", iterations=1, model=model,
                                       scheme=scheme, config=config, data=data,
                                       cut_index=2)}
            run_fedsplit_nested(fl, nested, topo, radio, eng)
        else:
            run_fl(fl, topo, radio, eng)
    else:
        iterations = rounds * local_iters
        bounds = tuple(range(1, clients + 1)) if hetero else ()
        task = TrainingTask(protocol=protocol, widths=DEEP, rounds=1,
                            local_iterations=iterations, batch_size=16,
                            eval_every=eval_every, test_size=32,
                            cut_index=None if hetero else 2, boundaries=bounds)
        sl = SlSession(server=server, clients=session,
                       variant="heterogeneous" if hetero else "homogeneous",
                       iterations=iterations, model=model, scheme=scheme, config=config,
                       data=data, cut_index=None if hetero else 2, boundaries=bounds,
                       relay=relay if hetero else "via_server")
        (run_sl_heterogeneous if hetero else run_sl_homogeneous)(sl, topo, radio, eng)
    plan = TrainingPlan(task=task, roles=roles, ma_scheme=scheme,
                        relay=relay if hetero else "via_server")
    return estimate_cost(plan, topo, radio, client_order=session), eng


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(["fl", "sl_homogeneous", "sl_heterogeneous",
                                 "fedsplit_nested"]),
       clients=st.integers(1, 9), blocks=st.integers(1, 4), rounds=st.integers(1, 2),
       local_iters=st.integers(1, 2), server=st.sampled_from(["ap0", "fog0"]),
       kind=st.sampled_from([k.value for k in SchemeKind]),
       relay=st.sampled_from(["via_server", "d2d"]), eval_every=st.integers(0, 2),
       pair=st.lists(st.integers(0, 3), max_size=2, unique=True),
       rotate=st.integers(0, 8))
# the worst latency errors of the estimate before it booked blocks on a ledger:
# +17.8% (upload walked in list order), -47.4% and -33.9% (a NOMA pair ignored
# the orthogonal client sharing its block)
@example("fl", 5, 4, 1, 2, "ap0", "oma_grant_free", "via_server", 0, [], 0)
@example("fl", 9, 1, 2, 1, "ap0", "noma_grant_based", "via_server", 0, [0], 0)
@example("sl_heterogeneous", 3, 1, 2, 2, "ap0", "noma_grant_based", "d2d", 0, [0], 0)
def test_estimate_equals_the_run_under_block_contention(
        protocol, clients, blocks, rounds, local_iters, server, kind, relay,
        eval_every, pair, rotate):
    """Parity holds with more uplinking clients than blocks, with a NOMA pair
    whose blocks orthogonal clients may share, and in any session order."""
    if protocol == "sl_heterogeneous":
        clients = min(clients, 3)
    est, eng = _parity_case(protocol, clients, blocks, rounds, local_iters, server,
                            kind, relay, eval_every, pair, rotate)
    _assert_parity(est, eng)


@pytest.mark.parametrize("kind", ["oma_grant_based", "noma_grant_free"])
@pytest.mark.parametrize("rounds", [1, 3, 8])
def test_fl_estimate_prices_each_distinct_uplink_once(kind, rounds, monkeypatch):
    """At mean gain an uplink's price depends only on its device and bits, so
    an estimate prices each distinct uplink once, however many rounds repeat
    it: three clients upload one model size, so three `tx_cost` calls."""
    calls = []
    tx_cost = protocols.tx_cost
    monkeypatch.setattr(protocols, "tx_cost",
                        lambda *args: calls.append(args[0]) or tx_cost(*args))
    topo = star_topology(3)
    radio = simple_radio(clusters=[NomaCluster(members=(("ue0", 0.2), ("ue1", 0.1)),
                                               blocks=simple_radio().cells["ap0"][:2])])
    kind = SchemeKind(kind)
    scheme = AccessScheme(kind=kind, signalling_delay=0.0 if kind.grant_free else 0.01)
    plan = TrainingPlan(task=_task("fl", rounds=rounds, local_iters=2),
                        roles={"fog0": "server", "ue0": "client", "ue1": "client",
                               "ue2": "client"}, ma_scheme=scheme)
    estimate_cost(plan, topo, radio)
    assert calls == [costs.model_bits(WIDTHS)] * 3


def test_centralized_estimate_closed_form():
    topo = star_topology(1)
    radio = simple_radio()
    task = _task("centralized", rounds=4, local_iters=3)
    plan = TrainingPlan(task=task, roles={"fog0": "server"}, ma_scheme=SCHEME)
    est = estimate_cost(plan, topo, radio)
    macs = 12 * costs.training_macs(WIDTHS, 16)
    fog = topo.servers["fog0"]
    assert est.wall_latency == pytest.approx(macs / fog.compute_rate, rel=1e-12)
    assert est.total_energy == pytest.approx(macs * fog.energy_per_cycle, rel=1e-12)
    assert est.breakdown == {"fog0": {"compute": pytest.approx(est.total_energy)}}


# ---------------------------------------------------- plan enumeration ---- #

def test_candidate_space_composition():
    topo = star_topology(3, second_cell=True, d2d=True)
    radio = simple_radio(aps=("ap0", "ap1"))
    plans = enumerate_candidate_plans(_task("fl", rounds=2, local_iters=1),
                                      topo, radio, SelectionPolicy(), SCHEME)
    kinds = [(p.task.protocol, p.server()) for p in plans]
    # one solo plan per server
    assert kinds.count(("centralized", "cloud0")) == 1
    assert kinds.count(("centralized", "fog0")) == 1
    assert kinds.count(("centralized", "ap0")) == 1
    assert kinds.count(("centralized", "ap1")) == 1
    # federation one tier down wherever links exist
    assert ("fl", "cloud0") in kinds and ("fl", "fog0") in kinds
    # the device-layer plan forms only where the cell has devices
    device_plans = [p for p in plans if any(n in topo.ues for n in p.roles)]
    assert [p.server() for p in device_plans] == ["ap0"]


def test_centralized_task_skips_device_layer():
    topo = star_topology(3)
    plans = enumerate_candidate_plans(_task("centralized"), topo, simple_radio(),
                                      SelectionPolicy(), SCHEME)
    assert all(not any(n in topo.ues for n in p.roles) for p in plans)


def test_hetero_candidate_orders_pool_by_segment():
    topo = star_topology(3)
    plans = enumerate_candidate_plans(_task("sl_heterogeneous", boundaries=(1, 2)),
                                      topo, simple_radio(), SelectionPolicy(), SCHEME)
    device_plans = [p for p in plans if p.task.protocol == "sl_heterogeneous"]
    assert len(device_plans) == 1
    # two boundaries -> exactly two device clients drawn from the pool head
    assert sorted(device_plans[0].nodes_with("client")) == ["ue1", "ue2"]


def test_fedsplit_candidate_needs_a_master():
    topo_plain = star_topology(3)  # no D2D groups anywhere
    plans = enumerate_candidate_plans(_task("fedsplit_nested", cut=2), topo_plain,
                                      simple_radio(), SelectionPolicy(), SCHEME)
    assert all(p.task.protocol != "fedsplit_nested" for p in plans)

    topo_d2d = star_topology(3, d2d=True)
    plans = enumerate_candidate_plans(_task("fedsplit_nested", cut=2), topo_d2d,
                                      simple_radio(), SelectionPolicy(), SCHEME)
    nested = [p for p in plans if p.task.protocol == "fedsplit_nested"]
    assert len(nested) == 1
    assert nested[0].nodes_with("master") == ["ue0"]
    assert sorted(nested[0].nodes_with("slave")) == ["ue1", "ue2"]



@pytest.mark.parametrize("clients", [["ue0", "ue1", "ue3"], ["ue1", "ue0", "ue3"]])
def test_a_slave_listed_as_a_fedsplit_client_is_a_slave_in_any_order(clients):
    """`validate`'s plan gives FedSplit roles by placement's rule: a listed
    client that a listed master's group holds is a slave, whichever comes
    first. It was a client when listed after its master."""
    doc = json.loads((SCENARIO_DIR / "fedsplit_nested.json").read_text())
    doc["protocol"]["clients"] = clients
    plan = plan_of(parse_config(doc))
    assert plan.roles == {"ap0": "server", "ue0": "master", "ue1": "slave", "ue2": "slave",
                          "ue3": "client"}

# ------------------------------------------------------- plan choice ---- #

def _brute_force(task, topo, radio, policy, scheme):
    best = None
    for plan in enumerate_candidate_plans(task, topo, radio, policy, scheme):
        if validate_layer_span(plan, topo) is not None:
            continue
        if not _edge_restriction_ok(plan, topo):
            continue
        est = estimate_cost(plan, topo, radio)
        if est.wall_latency > task.latency_deadline:
            continue
        key = _plan_sort_key(plan, est)
        if best is None or key < best[0]:
            best = (key, plan, est)
    return best


def test_choose_placement_is_the_feasible_argmin():
    topo = star_topology(4, second_cell=True, d2d=True)
    radio = simple_radio(aps=("ap0", "ap1"))
    task = _task("fl", rounds=2, local_iters=2)
    plan, est = choose_placement(task, topo, radio, SelectionPolicy(), SCHEME)
    expected = _brute_force(task, topo, radio, SelectionPolicy(), SCHEME)
    assert expected is not None
    assert plan.roles == expected[1].roles
    assert est.total_energy == expected[2].total_energy


def test_choose_placement_deterministic():
    topo = star_topology(3)
    radio = simple_radio()
    task = _task("sl_homogeneous", local_iters=4, cut=2)
    a = choose_placement(task, topo, radio, SelectionPolicy(), SCHEME)
    b = choose_placement(task, topo, radio, SelectionPolicy(), SCHEME)
    assert a[0].roles == b[0].roles
    assert a[1].total_energy == b[1].total_energy


def test_deadline_can_rule_out_every_plan():
    topo = star_topology(2)
    task = _task("fl", rounds=3, local_iters=3, deadline=1e-9)
    with pytest.raises(NoFeasiblePlan):
        choose_placement(task, topo, simple_radio(), SelectionPolicy(), SCHEME)


def test_deadline_steers_toward_faster_plans():
    topo = star_topology(2)
    radio = simple_radio()
    task_free = _task("fl", rounds=2, local_iters=2)
    plan_free, est_free = choose_placement(task_free, topo, radio,
                                           SelectionPolicy(), SCHEME)
    tight = _task("fl", rounds=2, local_iters=2,
                  deadline=est_free.wall_latency * 0.5)
    plan_tight, est_tight = choose_placement(tight, topo, radio,
                                             SelectionPolicy(), SCHEME)
    assert est_tight.wall_latency <= tight.latency_deadline
    assert plan_tight.roles != plan_free.roles or est_tight.wall_latency <= est_free.wall_latency


def test_edge_restriction_blocks_cloud_served_devices(topo3):
    bad = TrainingPlan(task=_task("fl"), roles={"cloud0": "server", "ue0": "client"},
                       ma_scheme=SCHEME)
    good = TrainingPlan(task=_task("fl"), roles={"ap0": "server", "ue0": "client"},
                        ma_scheme=SCHEME)
    assert not _edge_restriction_ok(bad, topo3)
    assert _edge_restriction_ok(good, topo3)
    # even at the edge, a solo protocol may not conscript devices
    solo = TrainingPlan(task=_task("centralized"),
                        roles={"ap0": "server", "ue0": "client"}, ma_scheme=SCHEME)
    assert not _edge_restriction_ok(solo, topo3)


def test_layer_span_filter_applies_to_plans(topo3):
    sprawling = TrainingPlan(task=_task("fl"),
                             roles={"cloud0": "server", "ue0": "client"},
                             ma_scheme=SCHEME)
    assert validate_layer_span(sprawling, topo3) is not None
    contained = TrainingPlan(task=_task("fl"),
                             roles={"fog0": "server", "ue0": "client"},
                             ma_scheme=SCHEME)
    assert validate_layer_span(contained, topo3) is None


def test_plan_doc_round_trips_through_json(topo3):
    radio = simple_radio()
    plan, est = choose_placement(_task("fl", rounds=1, local_iters=1), topo3,
                                 radio, SelectionPolicy(), SCHEME)
    doc = json.loads(json.dumps(plan.to_doc(topo3, est)))
    assert doc["protocol"] in ("fl", "centralized")
    assert doc["roles"][plan.server()] == "server"
    assert doc["estimate"]["total_energy_J"] == est.total_energy


# ------------------------------------------------ estimator programs ---- #
# The walked estimator: each period walks its leg tuples, looks every leg's
# price up and adds every charge as it goes. `estimate_cost` prices each leg
# tuple once into a program instead, and must give the walked estimate bit
# for bit, key order included, and raise the walk's first error.

class _Walker:
    def __init__(self, plan, topo, radio, clients):
        self.legs = LegCosts(topo, radio, plan.ma_scheme, plan.task.cycles_per_mac)
        self.legs.assign_slots(clients)
        self.blocks = BlockLedger()
        self.energy: dict[str, dict[str, float]] = {}

    def add(self, node: str, phase: str, joules: float) -> None:
        if joules > 0:
            bucket = self.energy.get(node)
            if bucket is None:
                bucket = self.energy[node] = {}
            bucket[phase] = bucket.get(phase, 0.0) + joules

    def compute(self, node: str, macs: float) -> float:
        latency, energy = self.legs.compute(node, macs)
        self.add(node, "compute", energy)
        return latency

    def walk(self, legs: tuple, t: float) -> float:
        for leg in legs:
            if leg[0] == "compute":
                t += self.compute(leg[1], leg[2])
                continue
            sender, receiver, latency, tx, rx, blocks, tag = self.legs.hop(leg)
            self.add(sender, "tx", tx)
            self.add(receiver, "rx", rx)
            if blocks:
                t = self.blocks.book(receiver, blocks, t, latency, sender, tag)
            t += latency
        return t


def _walked_centralized(est, plan, topo, clients):
    task, server = plan.task, plan.server()
    macs = costs.training_macs(task.widths, task.batch_size)
    return task.total_iterations, lambda i, t: t + est.compute(server, macs)


def _walked_federated(est, plan, topo, clients):
    task = plan.task
    fl = FlLegs(topo, plan.server(), task.widths, task.batch_size, task.local_iterations)
    chains = [fl.chain(c) for c in clients]
    aggregate = (fl.aggregate(len(clients)),)
    nested = {c: _walked_sl_homo_period(est, topo, c, task,
                                        [s for s in topo.mastered_group(c).slaves
                                         if s in plan.roles])
              for c in clients if plan.roles[c] == "master"}
    before = [down if c in nested else (*down, local)
              for c, (down, local, _) in zip(clients, chains)]

    def period(rnd, t):
        ready = []
        for c, legs in zip(clients, before):
            got = est.walk(legs, t)
            if c in nested:
                sl = nested[c]
                for i in range(task.local_iterations):
                    got = sl(i, got)
            ready.append(got)
        slowest = t
        for i in sorted(range(len(clients)), key=ready.__getitem__):
            slowest = max(slowest, est.walk(chains[i][2], ready[i]))
        return est.walk(aggregate, slowest)
    return task.rounds, period


def _walked_sl_homo_period(est, topo, server, task, clients):
    legs = SlHomoLegs(topo, server, task.widths, task.cut_index, task.batch_size)
    n = len(clients)

    def period(i, t):
        active = clients[i % n]
        t = est.walk(legs.handoff(clients[(i - 1) % n] if i else None, active), t)
        return est.walk(legs.body(active), t)
    return period


def _walked_sl_homogeneous(est, plan, topo, clients):
    period = _walked_sl_homo_period(est, topo, plan.server(), plan.task, clients)
    return plan.task.total_iterations, period


def _walked_sl_heterogeneous(est, plan, topo, clients):
    task = plan.task
    labels, forward, back = sl_hetero_legs(topo, plan.server(), clients, task.widths,
                                           task.boundaries, task.batch_size, plan.relay)

    def period(i, t):
        labels_done = est.walk(labels, t)
        return est.walk(back, max(labels_done, est.walk(forward, t)))
    return task.total_iterations, period


_WALKED = {
    "centralized": _walked_centralized,
    "fl": _walked_federated,
    "sl_homogeneous": _walked_sl_homogeneous,
    "sl_heterogeneous": _walked_sl_heterogeneous,
    "fedsplit_nested": _walked_federated,
}


def _walked_estimate(plan, topo, radio, client_order=None):
    task = plan.task
    if client_order is None:
        client_order = sorted(plan.nodes_with("master")) + sorted(plan.nodes_with("client"))
    est = _Walker(plan, topo, radio, client_order)
    count, period = _WALKED[task.protocol](est, plan, topo, client_order)
    server, t = plan.server(), 0.0
    for i in range(count):
        t = period(i, t)
        evals = eval_legs(server, task.widths, task.test_size, task.eval_every, i)
        if evals:
            t = est.walk(evals, t)
    total = sum(sum(b.values()) for b in est.energy.values())
    return CostEstimate(total_energy=total, wall_latency=t, breakdown=est.energy)


def _outcome(estimator, *args):
    """An estimate as exact text (`repr` keeps every bit of a float and a
    dict's key order), or the error it raised, as type and message."""
    try:
        est = estimator(*args)
    except Exception as exc:  # the walk's first error must be raised alike
        return type(exc), str(exc)
    return repr((est.total_energy, est.wall_latency, est.breakdown))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(protocol=st.sampled_from(["centralized", "fl", "sl_homogeneous", "sl_heterogeneous",
                                 "fedsplit_nested"]),
       n_ue=st.integers(1, 6), blocks=st.integers(1, 4), periods=st.integers(1, 32),
       local_iters=st.integers(1, 3), eval_every=st.integers(0, 5),
       kind=st.sampled_from([k.value for k in SchemeKind]), d2d=st.booleans(),
       test_size=st.sampled_from([0, 32]),
       pair=st.lists(st.integers(0, 3), max_size=2, unique=True), rotate=st.integers(0, 5))
def test_estimate_is_the_walked_estimate_bit_for_bit(protocol, n_ue, blocks, periods,
                                                     local_iters, eval_every, kind, d2d,
                                                     test_size, pair, rotate):
    """Every candidate of a drawn task, server-only and server-federation
    plans included, and its device-layer plan in a rotated client order too:
    energy, latency and breakdown equal the walked estimate's, bit for bit
    and in key order, or both raise the same error."""
    doc = star_doc(n_ue, d2d=d2d and n_ue > 1)
    if d2d and n_ue > 1:
        doc["d2d_groups"][0]["slaves"] = [f"ue{i}" for i in range(1, min(n_ue, 3))]
    topo = build_topology(doc)
    cells = simple_radio(blocks).cells["ap0"]
    indices = sorted({i % blocks for i in pair})
    clusters = [NomaCluster(members=(("ue0", 0.2), ("ue1", 0.1)),
                            blocks=tuple(cells[i] for i in indices))] \
        if indices and n_ue > 1 else []
    radio = simple_radio(blocks, clusters=clusters)
    kind = SchemeKind(kind)
    scheme = AccessScheme(kind=kind, signalling_delay=0.0 if kind.grant_free else 0.01)
    sl = protocol.startswith("sl_")
    task = TrainingTask(protocol=protocol, widths=DEEP, rounds=1 if sl else periods,
                        local_iterations=periods if sl else local_iters, batch_size=16,
                        eval_every=eval_every, test_size=test_size, cut_index=2,
                        boundaries=(1, 2, 3)[:min(n_ue, 3)])
    plans = enumerate_candidate_plans(task, topo, radio, SelectionPolicy(), scheme)
    assert {p.task.protocol for p in plans} >= {"centralized", "fl"}
    cases = [(plan, None) for plan in plans]
    for plan in plans:
        if plan.task.protocol == "sl_heterogeneous":
            cases.append((replace(plan, relay="via_server"), None))
        elif plan.task.protocol == protocol != "centralized":
            order = sorted(plan.nodes_with("master")) + sorted(plan.nodes_with("client"))
            k = rotate % len(order)
            cases.append((plan, order[k:] + order[:k]))
    for plan, order in cases:
        assert (_outcome(estimate_cost, plan, topo, radio, order)
                == _outcome(_walked_estimate, plan, topo, radio, order))


@pytest.mark.parametrize("name", ["fl_edge", "fedsplit_nested"])
def test_an_estimate_prices_no_more_legs_for_more_rounds(name, monkeypatch):
    """Pricing left the period loop: the `LegCosts.hop` and `compute` calls
    of a scenario's estimate do not grow with its rounds. The evaluation,
    due every 2 rounds in both scenarios, is priced only once the walk
    reaches it, so one round prices one leg fewer."""
    calls = []
    for method in ("hop", "compute"):
        priced = getattr(LegCosts, method)
        monkeypatch.setattr(LegCosts, method, lambda self, *args, _priced=priced:
                            calls.append(args) or _priced(self, *args))
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    assert doc["ml"]["eval_every"] == 2
    counts = {}
    for rounds in (1, 2, 16):
        doc["protocol"]["rounds"] = rounds
        cfg = parse_config(doc)
        calls.clear()
        estimate_cost(plan_of(cfg), cfg.topo, cfg.radio_env)
        counts[rounds] = len(calls)
    assert counts[2] == counts[16] > 0
    assert counts[1] == counts[16] - 1


def test_an_sl_handoff_without_a_link_raises_when_the_walk_reaches_it():
    """Homogeneous SL at fog0 over ue0 (on ap0) and ue1 (on ap1, which has no
    backhaul link): iteration 0 hands the client part to ue0 and trains
    there, and iteration 1 hands it on to ue1 through fog0, which cannot
    reach ap1. So one iteration estimates, and two or more raise the walk's
    error for that handoff."""
    doc = star_doc(2, second_cell=True)
    doc["nodes"]["ue"][1]["attached_ap"] = "ap1"
    doc["links"] = [link for link in doc["links"] if link["dst"] != "ap1"]
    topo = build_topology(doc)
    radio = simple_radio(aps=("ap0", "ap1"))
    for iterations in (1, 2, 5):
        plan = TrainingPlan(task=_task("sl_homogeneous", local_iters=iterations, cut=2),
                            roles={"fog0": "server", "ue0": "client", "ue1": "client"},
                            ma_scheme=SCHEME)
        outcome = _outcome(estimate_cost, plan, topo, radio)
        assert outcome == _outcome(_walked_estimate, plan, topo, radio)
        if iterations == 1:
            assert isinstance(outcome, str)
        else:
            assert outcome == (MissingBackhaulLink,
                               "no backhaul link between 'fog0' and 'ap1'")


def _bundled_with_variance(name, variance):
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for ue in doc["nodes"]["ue"]:
        ue["channel_variance"] = variance
    return parse_config(doc)


@pytest.mark.parametrize("name, count", [("fl_edge", 9), ("sl_homogeneous", 9),
                                         ("sl_heterogeneous_d2d", 8), ("fedsplit_nested", 8)])
def test_an_estimate_prices_every_uplink_at_mean_gain(name, count):
    """An estimate assumes mean gains, so a device's fading never reaches it:
    the scenario's own plan and each candidate placement get the same
    energy, latency and breakdown, or raise the same error, whether every
    channel is static or fades with variance 0.3."""
    static, fading = (_bundled_with_variance(name, v) for v in (0.0, 0.3))
    plans = [plan_of(static)] + enumerate_candidate_plans(
        task_of(static), static.topo, static.radio_env, static.policy,
        static.radio_env.scheme(static.protocol.scheme))
    assert len(plans) == count
    for plan in plans:
        assert (_outcome(estimate_cost, plan, static.topo, static.radio_env)
                == _outcome(estimate_cost, plan, fading.topo, fading.radio_env))

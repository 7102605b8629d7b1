"""Device selection, closed-form cost estimation, and plan choice.

The estimator tests run the real protocol runners on static channels and
check that the a-priori estimate reproduces the executed wall latency and
energy, since both are built from the same cost primitives.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import music_sim
from music_sim import costs, mlp, protocols
from music_sim.engine import Engine
from music_sim.errors import EmptyPool, NoFeasiblePlan
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
    FlSession,
    SlSession,
    TrainingConfig,
    run_fedsplit_nested,
    run_fl,
    run_sl_heterogeneous,
    run_sl_homogeneous,
)
from music_sim.radio import AccessScheme, NomaCluster, SchemeKind
from music_sim.scenario import parse_config, plan_of
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

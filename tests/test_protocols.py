"""End-to-end protocol behavior on small star networks: latency composition,
failure handling, transport selection, and the metrics trace."""

import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import music_sim
from music_sim import costs, mlp, protocols
from music_sim.data import make_blobs
from music_sim.engine import Engine, EventKind
from music_sim.errors import (
    AllClientsDropped,
    MissingBackhaulLink,
    MissingD2dLink,
    NestedServerMismatch,
    ScenarioSchemaError,
    SessionAborted,
    SessionStalled,
)
from music_sim.protocols import (
    FlSession,
    LegCosts,
    SlHomoLegs,
    SlSession,
    TrainingConfig,
    _FlRunner,
    _Round,
    _SlHomoRunner,
    route,
    run_fedsplit_nested,
    run_fl,
    run_sl_heterogeneous,
    run_sl_homogeneous,
)
from music_sim.radio import AccessScheme, NomaCluster, RadioEnv, SchemeKind, draw_channel_gain
from music_sim.scenario import assemble, parse_config
from music_sim.topology import build_topology

from conftest import blob_data, model_rel_err, simple_radio, star_doc, star_topology

WIDTHS = [8, 16, 12, 4]
SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"


def _config(**kw):
    base = dict(lr=0.05, batch_size=16, cycles_per_mac=1.0, eval_every=0)
    base.update(kw)
    return TrainingConfig(**base)


def _scheme(kind=SchemeKind.OMA_GRANT_BASED, delay=0.01):
    if kind.grant_free:
        return AccessScheme(kind=kind, signalling_delay=0.0)
    return AccessScheme(kind=kind, signalling_delay=delay)


def _fl_session(topo_clients, data, *, rounds=2, local_iters=2, server="ap0",
                scheme=None, config=None, seed=3, **kw):
    model = mlp.init_model(WIDTHS, "ce", seed=seed)
    return FlSession(server=server, clients=list(topo_clients),
                     local_iterations=local_iters, global_rounds=rounds,
                     model=model, scheme=scheme or _scheme(),
                     config=config or _config(), data=data, **kw)


def _details(eng, prefix):
    return [(r["node"], r["detail"]) for r in eng.event_log
            if r.get("detail", "").startswith(prefix)]


# ---------------------------------------------------------------- FL ---- #

def test_fl_single_client_matches_centralized_sgd():
    topo = star_topology(1)
    data = blob_data(1)
    sess = _fl_session(["ue0"], data, rounds=3, local_iters=2)
    reference = mlp.clone(sess.model)
    trace = run_fl(sess, topo, simple_radio(), Engine(seed=0))

    # with one client, fed_avg of one delta reproduces its local run exactly
    shard = data.shard_of("ue0")
    expected_losses = []
    for rnd in range(3):
        per_round = []
        for it in range(2):
            x, labels = shard.batch(rnd * 2 + it, 16)
            _, cache = mlp.forward(reference, x)
            per_round.append(mlp.batch_loss(reference, cache, labels))
            reference = mlp.sgd_step(reference, mlp.backward(reference, cache, labels), 0.05)
        expected_losses.append(float(np.mean(per_round)))

    assert [r.loss for r in trace.records] == pytest.approx(expected_losses, rel=1e-14)
    # the delta round-trip (old + (local - old)) may cost one ulp
    assert model_rel_err(trace.final_model, reference) < 1e-15


def test_fl_round_latency_composition_single_client():
    """One client, no contention: round latency is exactly
    downlink + local compute + uplink + aggregation."""
    topo = star_topology(1)
    radio = simple_radio()
    eng = Engine(seed=0)
    sess = _fl_session(["ue0"], blob_data(1), rounds=1, local_iters=2)
    run_fl(sess, topo, radio, eng)

    bits = sess.model.payload_bits
    ue = topo.ues["ue0"]
    gain = draw_channel_gain(ue, eng.rng.stream("gain:ue0:fl0"))
    rate = radio.oma_uplink_rate(radio.block_for("ap0", 0), ue.tx_power, gain)
    dl = bits / radio.downlink_rate
    comp = 2 * costs.training_macs(WIDTHS, 16) / ue.compute_rate
    ul = 0.01 + bits / rate
    agg = costs.aggregation_macs(1, sess.model.param_count) / topo.servers["ap0"].compute_rate
    assert eng.clock == pytest.approx(dl + comp + ul + agg, rel=1e-12)


def test_fl_round_deadline_discards_stragglers():
    # ue0 is orders of magnitude slower than its peers; the deadline
    # closes the round before its delta can arrive
    doc = star_doc(3)
    doc["nodes"]["ue"][0]["compute_rate"] = 1e5
    topo = build_topology(doc)
    data = blob_data(3)

    late = _fl_session(["ue0", "ue1", "ue2"], data, rounds=1, local_iters=1,
                       round_deadline=0.05)
    trace = run_fl(late, topo, simple_radio(), Engine(seed=0))

    only_fast = _fl_session(["ue1", "ue2"], data, rounds=1, local_iters=1)
    fast_trace = run_fl(only_fast, star_topology(3), simple_radio(), Engine(seed=0))

    # the straggler's delta never entered aggregation
    assert model_rel_err(trace.final_model, fast_trace.final_model) == 0.0
    assert trace.records[0].wall_latency < 0.06  # closed at the deadline
    # but it was not dropped: it may participate in later rounds
    assert trace.records[0].dropouts == []


def test_fl_aggregation_is_sized_by_the_deltas_that_arrived():
    """The deadline leaves 2 of 3 deltas, so the server averages 2, not the
    3 clients the placement estimate sizes its aggregation by."""
    doc = star_doc(3)
    doc["nodes"]["ue"][0]["compute_rate"] = 1e5
    topo = build_topology(doc)
    sess = _fl_session(["ue0", "ue1", "ue2"], blob_data(3), rounds=1, local_iters=1,
                       round_deadline=0.05)
    trace = run_fl(sess, topo, simple_radio(), Engine(seed=0))
    ap0 = topo.servers["ap0"]
    _, energy = costs.compute_cost(costs.aggregation_macs(2, sess.model.param_count), 1.0,
                                   ap0.compute_rate, ap0.energy_per_cycle)
    assert trace.records[0].compute_energy["ap0"] == energy == pytest.approx(3.2e-07)


def test_fl_all_clients_dead_aborts_with_partial_trace():
    topo = star_topology(2, battery=1e-12)  # cannot afford even the downlink
    sess = _fl_session(["ue0", "ue1"], blob_data(2), rounds=2)
    eng = Engine(seed=0)
    eng.batteries.update({"ue0": 1e-12, "ue1": 1e-12})
    with pytest.raises(AllClientsDropped) as exc_info:
        run_fl(sess, topo, simple_radio(), eng)
    trace = exc_info.value.trace
    assert trace.status.startswith("aborted:")
    assert trace.records == []


def test_fl_battery_refusal_keeps_residual_charge():
    """A node that cannot afford a leg refuses up front: it is dropped with
    its remaining battery intact rather than burning to zero mid-transmission."""
    topo = star_topology(2)
    data = blob_data(2)
    radio = simple_radio()
    bits = mlp.init_model(WIDTHS, "ce", seed=3).payload_bits
    dl_rx = radio.rx_energy_per_bit * bits
    budget = dl_rx + 1e-9  # enough to receive the model, not enough to train

    eng = Engine(seed=0)
    eng.batteries.update({"ue0": budget, "ue1": 1e9})
    sess = _fl_session(["ue0", "ue1"], data, rounds=1, local_iters=1)
    trace = run_fl(sess, topo, radio, eng)

    assert "ue0" in eng.dropped
    assert eng.batteries["ue0"] == pytest.approx(budget - dl_rx)
    assert trace.records[0].dropouts == ["ue0"]
    reasons = [r["detail"] for r in eng.event_log
               if r["kind"] == "DROPOUT" and r["node"] == "ue0"]
    assert reasons == ["insufficient battery"]


def test_fl_loss_is_shard_weighted_mean_of_prestep_losses():
    data = make_blobs(8, 4, {"ue0": 40, "ue1": 24}, test_size=16, seed=5)
    topo = star_topology(2)
    sess = _fl_session(["ue0", "ue1"], data, rounds=1, local_iters=1)
    model = mlp.clone(sess.model)
    trace = run_fl(sess, topo, simple_radio(), Engine(seed=0))

    losses = {}
    for c in ("ue0", "ue1"):
        x, labels = data.shard_of(c).batch(0, 16)
        _, cache = mlp.forward(model, x)
        losses[c] = mlp.batch_loss(model, cache, labels)
    expected = (40 * losses["ue0"] + 24 * losses["ue1"]) / 64
    assert trace.records[0].loss == pytest.approx(expected, rel=1e-12)


def test_fl_bytes_count_radio_payloads_only():
    topo = star_topology(2)
    sess = _fl_session(["ue0", "ue1"], blob_data(2), rounds=1, local_iters=1)
    trace = run_fl(sess, topo, simple_radio(), Engine(seed=0))
    per_client = sess.model.payload_bits // 8
    assert trace.records[0].bytes_up == 2 * per_client
    assert trace.records[0].bytes_down == 2 * per_client


def test_fl_eval_gating_and_latency():
    topo = star_topology(1)
    sess = _fl_session(["ue0"], blob_data(1), rounds=4, local_iters=1,
                       config=_config(eval_every=2))
    trace = run_fl(sess, topo, simple_radio(), Engine(seed=0))
    evald = [r.accuracy is not None for r in trace.records]
    assert evald == [False, True, False, True]
    # the evaluation forward pass runs at the server and extends the round
    assert trace.records[1].wall_latency > trace.records[0].wall_latency


def test_a_fade_that_carries_no_bits_is_a_channel_outage():
    """A log-gain variance of 400 makes ue0's first uplink gain underflow to a
    zero rate; with no dropout slope no outage is drawn, so the leg's own
    price refuses it: ue0 drops at that instant, spends no transmit joule,
    and the round goes on without it."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    assert "dropout_slope" not in doc["protocol"]
    next(ue for ue in doc["nodes"]["ue"] if ue["id"] == "ue0")["channel_variance"] = 400
    runtime = assemble(parse_config(doc))
    trace = runtime.execute()
    eng = runtime.engine
    assert trace.status == "completed" and len(trace.records) == 10
    assert [r.dropouts for r in trace.records] == [["ue0"]] + [[]] * 9
    assert [(r["time"], r["kind"], r["detail"]) for r in eng.event_log
            if r["node"] == "ue0"] == [
        (0.0, "ROUND_BOUNDARY", "round 0 start"),
        (0.0007808, "TX_DONE", "dl:model"),
        (0.0029311999999999997, "COMPUTE_DONE", "local:r0"),
        (0.0029311999999999997, "DROPOUT", "channel outage"),
    ]
    assert "tx" not in eng.energy_ledger["ue0"]


def _late_fl_run(doc: dict, server: str, deadline: float, ue0_battery=None):
    """(trace, engine) of two FL rounds of ue0-ue2 with no receive charge,
    so a device pays only for its compute and its uplink."""
    topo = build_topology(doc)
    radio = simple_radio()
    radio.rx_energy_per_bit = 0.0
    sess = _fl_session(["ue0", "ue1", "ue2"], blob_data(3), rounds=2, local_iters=1,
                       server=server, round_deadline=deadline)
    eng = Engine(seed=0)
    eng.batteries.update({ue: 1e9 for ue in topo.ues})
    if ue0_battery is not None:
        eng.batteries["ue0"] = ue0_battery
    return run_fl(sess, topo, radio, eng), eng


def _first_charge(eng, node: str, category: str) -> float:
    return next(c[2] for r in eng.event_log for c in r["charges"] if c[:2] == [node, category])


def _events_of(eng, node: str) -> list[tuple]:
    return [(r["kind"], r["detail"]) for r in eng.event_log if r["node"] == node]


def test_a_straggler_that_drops_in_the_next_round_is_swept_from_it():
    """ue0 straggles past round 0's deadline and is still training when
    round 1 begins, so it is pending in round 1 without a chain of its own
    there. Its battery holds exactly its compute, so the compute's charge
    drops it; its chain stops at the closed round 0, and the rejoin sweeps
    it out of round 1, which closes at once instead of at its deadline."""
    doc = star_doc(3)
    doc["nodes"]["ue"][0]["compute_rate"] = 1e5
    _, eng = _late_fl_run(doc, "ap0", deadline=10.0)
    compute = _first_charge(eng, "ue0", "compute")
    trace, eng = _late_fl_run(doc, "ap0", deadline=0.12, ue0_battery=compute)
    assert trace.status == "completed"
    assert [r.dropouts for r in trace.records] == [[], ["ue0"]]
    assert trace.records[0].wall_latency == pytest.approx(0.12, abs=1e-5)
    assert trace.records[1].wall_latency == pytest.approx(0.17728 - 0.12, abs=1e-5)
    assert eng.batteries["ue0"] == 0.0
    # swept, never started in round 1
    assert _events_of(eng, "ue0") == [
        ("ROUND_BOUNDARY", "round 0 start"), ("TX_DONE", "dl:model"),
        ("COMPUTE_DONE", "local:r0"), ("DROPOUT", "battery exhausted")]


def test_a_straggler_dropped_before_the_next_round_is_not_in_it():
    """With fog0 as the server, a delta crosses a 1 s backhaul after its
    uplink. ue0's battery holds exactly its uplink (its compute is free), so
    it drops when the uplink ends, at 1.022 s; its delta reaches fog0 at
    2.022 s. ue1's and ue2's reach it by 2.014 s, and the deadline closes
    round 0 at 2.018 s. So round 1 begins without ue0, and when ue0's chain
    stops at the closed round 0 it joins nothing."""
    doc = star_doc(3)
    doc["links"][1]["latency"] = 1.0
    doc["nodes"]["ue"][0]["energy_per_cycle"] = 0.0
    doc["nodes"]["ue"][0]["compute_rate"] = 2e6
    _, eng = _late_fl_run(doc, "fog0", deadline=100.0)
    uplink = _first_charge(eng, "ue0", "tx")
    trace, eng = _late_fl_run(doc, "fog0", deadline=2.018, ue0_battery=uplink)
    assert trace.status == "completed"
    assert [r.wall_latency for r in trace.records] == pytest.approx([2.018, 2.01398], abs=1e-5)
    drop = next(r for r in eng.event_log if r["kind"] == "DROPOUT")
    assert (drop["node"], drop["detail"]) == ("ue0", "battery exhausted")
    assert drop["time"] == pytest.approx(1.02226, abs=1e-5)
    assert eng.batteries["ue0"] == 0.0
    assert _events_of(eng, "ue0") == [
        ("ROUND_BOUNDARY", "round 0 start"), ("TX_DONE", "dl:model"),
        ("COMPUTE_DONE", "local:r0"), ("TX_DONE", "ul:delta"),
        ("DROPOUT", "battery exhausted")]
    # round 1 aggregates the two deltas that arrived
    fog0 = build_topology(doc).servers["fog0"]
    _, energy = costs.compute_cost(costs.aggregation_macs(2, trace.final_model.param_count),
                                   1.0, fog0.compute_rate, fog0.energy_per_cycle)
    assert trace.records[1].compute_energy["fog0"] == energy


def _deadline_dropouts(slow: tuple[str, ...]) -> list[list[str]]:
    """Each round's dropouts in the scenario above, with every device in
    `slow` set up as ue0 is there: it drops when its uplink ends, and its
    delta would reach fog0 only after round 0's 2.018 s deadline."""
    doc = star_doc(3)
    doc["links"][1]["latency"] = 1.0
    for ue in doc["nodes"]["ue"]:
        if ue["id"] in slow:
            ue["energy_per_cycle"] = 0.0
            ue["compute_rate"] = 2e6
    _, eng = _late_fl_run(doc, "fog0", deadline=100.0)
    batteries = {ue: _first_charge(eng, ue, "tx") for ue in slow}
    topo = build_topology(doc)
    radio = simple_radio()
    radio.rx_energy_per_bit = 0.0
    sess = _fl_session(["ue0", "ue1", "ue2"], blob_data(3), rounds=2, local_iters=1,
                       server="fog0", round_deadline=2.018)
    eng = Engine(seed=0)
    eng.batteries.update({ue: 1e9 for ue in topo.ues})
    eng.batteries.update(batteries)
    trace = run_fl(sess, topo, radio, eng)
    assert trace.status == "completed"
    return [r.dropouts for r in trace.records]


def test_a_straggler_dropped_in_a_round_its_deadline_closes_is_its_dropout():
    """ue0 drops at 1.022 s while pending in round 0, and round 0's deadline
    closes it at 2.018 s. The deadline sweeps ue0 out of round 0, so that
    round lists it; round 1 never had it."""
    assert _deadline_dropouts(("ue0",)) == [["ue0"], []]


def test_devices_one_deadline_sweeps_are_listed_by_id_under_any_hash_seed():
    """ue1 drops just before ue0, and one deadline sweeps both. The round
    lists them by id: in the pending set's order, the list would follow
    the process's string-hash seed (it did for seeds 1 to 8)."""
    src = str(Path(music_sim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import test_protocols as t; print(t._deadline_dropouts(('ue0', 'ue1')))"
    seen = {subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                           env={**env, "PYTHONHASHSEED": str(seed)}, capture_output=True,
                           text=True, timeout=60, check=True).stdout
            for seed in range(1, 5)}
    assert seen == {"[['ue0', 'ue1'], []]\n"}


# ------------------------------------------------- round aggregation ---- #

class _RoundBook(_FlRunner):
    """An FL runner that keeps, per round, the model it started from, its
    state, and the clients whose chain from the last round was still
    running when it began."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.book = []

    def _begin(self, rnd: int) -> None:
        model = self.model
        running = set(self._current.pending) if self._current is not None else set()
        super()._begin(rnd)
        if rnd < self.rounds:
            self.book.append((model, self._current, running))


def _own_delta(model, sess: FlSession, client: str, rnd: int) -> mlp.ParamDelta:
    """`client`'s round-`rnd` update trained alone, step by step on one model."""
    shard = sess.data.shard_of(client)
    local = model
    for it in range(rnd * sess.local_iterations, (rnd + 1) * sess.local_iterations):
        x, labels = shard.batch(it, sess.config.batch_size)
        _, cache = mlp.forward(local, x)
        local = mlp.sgd_step(local, mlp.backward(local, cache, labels), sess.config.lr)
    return mlp.model_delta(local, model, sample_count=shard.size)


def _run_book(sess: FlSession, topo, radio=None, eng=None) -> tuple[_RoundBook, list]:
    """Run `sess` and check every round: its model is the model it started
    from plus `fed_avg` of its arrivals' own deltas in arrival order, bit
    for bit. Returns the runner and each round's arrivals."""
    eng = eng or Engine(seed=0)
    runner = _RoundBook(sess, topo, radio or simple_radio(), eng)
    trace = runner.run()
    assert trace.status == "completed" and len(runner.book) == sess.global_rounds
    ends = [model for model, _, _ in runner.book[1:]] + [trace.final_model]
    arrivals = []
    for (model, state, _), end in zip(runner.book, ends):
        client_of = {row: client for client, row in state.rows.items()}
        arrived = [client_of[row] for row in state.arrivals]
        want = mlp.apply_delta(model, mlp.fed_avg(
            [_own_delta(model, sess, c, state.index) for c in arrived]))
        for got, expected in zip(end.weights + end.biases, want.weights + want.biases):
            assert np.array_equal(got, expected)
        arrivals.append(arrived)
    return runner, arrivals


def test_a_round_of_two_training_groups_folds_its_rows_in_arrival_order():
    """Faster devices upload first, so the arrival order of more clients
    than one stacked pass trains is not their training order (their rows)."""
    n = protocols._TRAIN_GROUP + 1
    clients = [f"ue{i}" for i in range(n)]
    eng = Engine(seed=0)
    _, (arrived,) = _run_book(_fl_session(clients, blob_data(n), rounds=1),
                              star_topology(n), eng=eng)
    assert arrived == [r["node"] for r in eng.event_log if r["detail"] == "ul:delta"]
    assert sorted(arrived) == sorted(clients) and arrived != clients


def test_a_round_closed_by_its_deadline_folds_only_its_arrivals():
    doc = star_doc(3)
    doc["nodes"]["ue"][0]["compute_rate"] = 1e5
    sess = _fl_session(["ue0", "ue1", "ue2"], blob_data(3), rounds=1, local_iters=1,
                       round_deadline=0.05)
    _, arrivals = _run_book(sess, build_topology(doc))
    assert arrivals == [["ue2", "ue1"]]


def test_a_round_with_a_battery_dropout_folds_the_others():
    """ue1 affords its download but not its local compute: its row is
    trained with the round's others, but it drops and is never gathered."""
    eng = Engine(seed=0)
    eng.batteries["ue1"] = 1e-6
    runner, arrivals = _run_book(_fl_session(["ue0", "ue1", "ue2"], blob_data(3)),
                                 star_topology(3), eng=eng)
    assert arrivals == [["ue2", "ue0"], ["ue2", "ue0"]]
    assert runner.book[0][1].dropouts == ["ue1"] and "ue1" in eng.dropped


def test_a_rejoining_straggler_folds_the_row_its_next_round_trained():
    """Faded uploads miss round 0's deadline; ue0 and ue1 are still running
    when round 1 begins, rejoin it when their stale chains stop, and their
    round-1 deltas, trained from round 1's model, arrive in time."""
    doc = star_doc(3, variance=1.0, gain_step=1e-11)
    sess = _fl_session(["ue0", "ue1", "ue2"], blob_data(3), rounds=2, local_iters=1,
                       round_deadline=0.0185)
    runner, arrivals = _run_book(sess, build_topology(doc), eng=Engine(seed=2))
    assert arrivals == [["ue2"], ["ue2", "ue1", "ue0"]]
    assert runner.book[1][2] == {"ue0", "ue1"}


# ----------------------------------------------------- homogeneous SL ---- #

def _homo_session(clients, data, *, iterations=3, cut=2, server="ap0",
                  config=None, scheme=None, seed=3, **kw):
    model = mlp.init_model(WIDTHS, "ce", seed=seed)
    return SlSession(server=server, clients=list(clients), variant="homogeneous",
                     iterations=iterations, model=model, scheme=scheme or _scheme(),
                     config=config or _config(), data=data, cut_index=cut, **kw)


def test_round_snapshot_is_not_the_live_ledger():
    """A round's `before` books stay as they were when it opened, however
    the live ledger is charged afterwards."""
    topo = star_topology(2)
    eng = Engine(seed=0)
    runner = _SlHomoRunner(_homo_session(["ue0", "ue1"], blob_data(2)), topo,
                           simple_radio(), eng)
    eng.charge("ue0", "compute", 1.0)
    state = runner._open(_Round, 0)
    eng.charge("ue0", "compute", 2.0)
    eng.charge("ue0", "tx", 0.5)
    eng.charge("ue1", "rx", 0.25)
    assert state.before == {"ue0": {"compute": 1.0}}
    assert runner._spent(state.before)["compute"] == {"ue0": 2.0}
    assert runner._spent(state.before)["rx"] == {"ue1": 0.25}


def test_homo_rotates_one_active_client_per_iteration():
    topo = star_topology(3)
    eng = Engine(seed=0)
    sess = _homo_session(["ue0", "ue1", "ue2"], blob_data(3), iterations=4)
    run_sl_homogeneous(sess, topo, simple_radio(), eng)
    by_iter = {d: n for n, d in _details(eng, "fwd:")}
    assert by_iter == {"fwd:i0": "ue0", "fwd:i1": "ue1",
                       "fwd:i2": "ue2", "fwd:i3": "ue0"}


def test_homo_holder_skips_handoff_when_client_repeats():
    topo = star_topology(1)
    eng = Engine(seed=0)
    sess = _homo_session(["ue0"], blob_data(1), iterations=3)
    run_sl_homogeneous(sess, topo, simple_radio(), eng)
    # the client part is seeded once from the server, then stays in place
    assert len(_details(eng, "dl:client_part")) == 1
    assert _details(eng, "ul:client_part") == []
    assert _details(eng, "d2d:client_part") == []


def test_homo_handoff_via_server_without_d2d():
    topo = star_topology(2)
    eng = Engine(seed=0)
    sess = _homo_session(["ue0", "ue1"], blob_data(2), iterations=2)
    run_sl_homogeneous(sess, topo, simple_radio(), eng)
    ups = _details(eng, "ul:client_part")
    assert ups == [("ue0", "ul:client_part")]
    # seed to ue0, then relay down to ue1
    downs = _details(eng, "dl:client_part")
    assert [n for n, _ in downs] == ["ue0", "ue1"]


def test_homo_handoff_rides_d2d_link_when_present():
    topo = star_topology(3, d2d=True)  # ue0 is master of ue1, ue2
    eng = Engine(seed=0)
    sess = _homo_session(["ue0", "ue1"], blob_data(3), iterations=2)
    run_sl_homogeneous(sess, topo, simple_radio(), eng)
    assert _details(eng, "d2d:client_part") == [("ue0", "d2d:client_part")]
    assert _details(eng, "ul:client_part") == []


def test_homo_transport_choice_does_not_change_the_math():
    data = blob_data(3)
    def final_losses(d2d):
        topo = star_topology(3, d2d=d2d)
        sess = _homo_session(["ue0", "ue1", "ue2"], data, iterations=6)
        trace = run_sl_homogeneous(sess, topo, simple_radio(), Engine(seed=0))
        return [r.loss for r in trace.records]
    assert final_losses(True) == final_losses(False)


def test_homo_legs_reach_a_device_server_over_d2d_only():
    """A FedSplit master serves its slaves over D2D: every leg of its
    homogeneous iterations is a compute or a D2D leg; an access point
    serves the same clients (no D2D link joins ue1 and ue2) by uplink and
    downlink."""
    topo = star_topology(3, d2d=True)  # ue0 is master of ue1, ue2

    def kinds(server):
        legs = SlHomoLegs(topo, server, WIDTHS, 2, 16)
        walked = (legs.handoff(None, "ue1") + legs.handoff("ue1", "ue2")
                  + legs.handoff("ue1", "ue2", reseed=True) + legs.body("ue1"))
        return {leg[0] for leg in walked}

    assert kinds("ue0") == {"compute", "d2d"}
    assert kinds("ap0") == {"compute", "up", "down"}


def _two_cell_topology():
    """ue0..ue2 on ap0, ue3 on ap1; ue0 masters a D2D group of ue1 and ue2."""
    doc = star_doc(4, second_cell=True)
    doc["nodes"]["ue"][3]["attached_ap"] = "ap1"
    doc["d2d_groups"] = [{"master": "ue0", "slaves": ["ue1", "ue2"], "link_rate": 8e6}]
    return build_topology(doc)


_TWO_CELL = _two_cell_topology()


def _hop_ends(topo, leg):
    """(sender, receiver) of one transfer leg; a radio hop's other end is
    the device's access point."""
    if leg[0] == "up":
        return leg[1], topo.ues[leg[1]].attached_ap
    if leg[0] == "down":
        return topo.ues[leg[1]].attached_ap, leg[1]
    return leg[1], leg[2]


@settings(max_examples=200, deadline=None)
@given(src=st.sampled_from(sorted(_TWO_CELL.servers) + sorted(_TWO_CELL.ues)),
       dst=st.sampled_from(sorted(_TWO_CELL.servers) + sorted(_TWO_CELL.ues)),
       bits=st.integers(min_value=0, max_value=10**9))
def test_route_hops_chain_from_source_to_destination(src, dst, bits):
    """Any transfer's hops join end to end from `src` to `dst`, each
    carrying the whole payload; backhaul joins only servers and D2D only
    devices; a route between a device and a server takes exactly one radio
    hop, and a route between two servers or two devices takes none."""
    assume(src != dst)
    topo = _TWO_CELL
    legs = route(topo, src, dst, bits, "model", ":ctx")
    at = src
    for leg in legs:
        sender, receiver = _hop_ends(topo, leg)
        assert sender == at
        at = receiver
        if leg[0] == "backhaul":
            assert sender in topo.servers and receiver in topo.servers
        if leg[0] == "d2d":
            assert sender in topo.ues and receiver in topo.ues
        bits_at = 2 if leg[0] in ("up", "down") else 3
        assert leg[bits_at:bits_at + 2] == (bits, "model")
    assert at == dst
    radio = [leg for leg in legs if leg[0] in ("up", "down")]
    assert len(radio) == ((src in topo.ues) != (dst in topo.ues))
    assert all(leg[4] == ":ctx" for leg in legs if leg[0] == "up")


def _two_cell_costs(kind: SchemeKind) -> LegCosts:
    """Mean-gain prices over `_TWO_CELL`, with a NOMA pair ue1+ue2 on ap0's
    blocks 1-2."""
    cells = simple_radio(aps=("ap0", "ap1")).cells
    radio = simple_radio(aps=("ap0", "ap1"), clusters=[
        NomaCluster(members=(("ue1", 0.2), ("ue2", 0.1)), blocks=cells["ap0"][1:3])])
    legs = LegCosts(_TWO_CELL, radio, _scheme(kind), 1.5)
    legs.assign_slots(sorted(_TWO_CELL.ues))
    return legs


_TWO_CELL_NODES = sorted(_TWO_CELL.servers) + sorted(_TWO_CELL.ues)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)),
       transfers=st.lists(st.tuples(st.sampled_from(_TWO_CELL_NODES),
                                    st.sampled_from(_TWO_CELL_NODES),
                                    st.integers(min_value=0, max_value=10**9)),
                          min_size=1, max_size=6))
def test_hop_senders_and_receivers_chain_each_route(kind, transfers):
    """`LegCosts.hop` names who sends and who receives each hop, and those
    ends chain every route from its source to its destination; only an
    uplink books blocks. An instance at mean gain hands out, on every
    repeat, what a fresh instance prices, and a hop with no link raises
    every time."""
    memo = _two_cell_costs(kind)
    for src, dst, bits in transfers + transfers:
        if src == dst:
            continue
        at = src
        for leg in route(_TWO_CELL, src, dst, bits, "model", ":ctx"):
            try:
                want = _two_cell_costs(kind).hop(leg)
            except (MissingBackhaulLink, MissingD2dLink) as exc:
                with pytest.raises(type(exc)):
                    memo.hop(leg)
                break
            got = memo.hop(leg)
            assert got == want and repr(got) == repr(want), leg
            sender, receiver, _, _, _, blocks, _ = got
            assert sender == at and bool(blocks) == (leg[0] == "up"), leg
            at = receiver
        else:
            assert at == dst


def test_homo_failed_client_retries_with_next_in_order():
    topo = star_topology(3)
    radio = simple_radio()
    sess = _homo_session(["ue0", "ue1", "ue2"], blob_data(3), iterations=2)
    bits = costs.model_bits(WIDTHS[:sess.cut_index + 1])
    eng = Engine(seed=0)
    # ue0 can receive its part but cannot afford the forward pass
    eng.batteries["ue0"] = radio.rx_energy_per_bit * bits + 1e-10
    trace = run_sl_homogeneous(sess, topo, radio, eng)

    assert trace.records[0].dropouts == ["ue0"]
    by_iter = {d: n for n, d in _details(eng, "fwd:")}
    assert by_iter["fwd:i0"] == "ue1"          # retried with the next client
    assert by_iter["fwd:i1"] == "ue2"          # rotation continues over survivors
    assert trace.status == "completed"


def test_homo_two_consecutive_failures_abort():
    topo = star_topology(3)
    sess = _homo_session(["ue0", "ue1", "ue2"], blob_data(3), iterations=2)
    eng = Engine(seed=0)
    eng.batteries.update({"ue0": 1e-12, "ue1": 1e-12})
    with pytest.raises(SessionAborted) as exc_info:
        run_sl_homogeneous(sess, topo, simple_radio(), eng)
    assert "two consecutive" in exc_info.value.trace.status


# --------------------------------------------------- heterogeneous SL ---- #

def _hetero_session(clients, data, *, iterations=4, boundaries=(1, 2),
                    relay="via_server", server="ap0", seed=3, config=None):
    model = mlp.init_model(WIDTHS, "ce", seed=seed)
    return SlSession(server=server, clients=list(clients), variant="heterogeneous",
                     iterations=iterations, model=model, scheme=_scheme(),
                     config=config or _config(), data=data,
                     boundaries=tuple(boundaries), relay=relay)


@pytest.mark.parametrize("session", [_homo_session, _hetero_session])
def test_sl_session_needs_an_iteration(session):
    """Zero iterations would run nothing and still report `completed`."""
    with pytest.raises(ScenarioSchemaError, match="iteration counts must be >= 1"):
        session(["ue0", "ue1"], blob_data(2), iterations=0)


def test_hetero_d2d_relay_faster_same_losses():
    data = blob_data(3)
    results = {}
    for relay in ("via_server", "d2d"):
        topo = star_topology(3, d2d=True)
        eng = Engine(seed=0)
        sess = _hetero_session(["ue1", "ue0"], data, relay=relay)
        trace = run_sl_heterogeneous(sess, topo, simple_radio(), eng)
        results[relay] = ([r.loss for r in trace.records], eng.clock)
    assert results["d2d"][0] == results["via_server"][0]  # bit-identical training
    assert results["d2d"][1] < results["via_server"][1]   # cheaper transport


def test_hetero_requires_d2d_links_up_front():
    topo = star_topology(3, d2d=True)  # links exist master<->slave only
    sess = _hetero_session(["ue1", "ue2"], blob_data(3), relay="d2d")
    with pytest.raises(MissingD2dLink):
        run_sl_heterogeneous(sess, topo, simple_radio(), Engine(seed=0))


def test_hetero_labels_travel_to_loss_owner():
    topo = star_topology(2)
    eng = Engine(seed=0)
    sess = _hetero_session(["ue0", "ue1"], blob_data(2), iterations=1)
    run_sl_heterogeneous(sess, topo, simple_radio(), eng)
    labels = _details(eng, "ul:labels")
    assert labels == [("ue0", "ul:labels")]  # entry client owns the data


def test_hetero_client_death_aborts_with_partial_trace():
    topo = star_topology(2)
    radio = simple_radio()
    data = blob_data(2)

    # probe ue1's per-iteration burn with unlimited batteries, then give it
    # a budget that runs dry partway into the session
    probe = run_sl_heterogeneous(_hetero_session(["ue0", "ue1"], data, iterations=6),
                                 topo, radio, Engine(seed=0))
    per_iter = [r.tx_energy.get("ue1", 0.0) + r.rx_energy.get("ue1", 0.0)
                + r.compute_energy.get("ue1", 0.0) for r in probe.records]
    budget = sum(per_iter[:3]) + 0.5 * per_iter[3]

    sess = _hetero_session(["ue0", "ue1"], data, iterations=6)
    eng = Engine(seed=0)
    eng.batteries["ue1"] = budget
    with pytest.raises(SessionAborted) as exc_info:
        run_sl_heterogeneous(sess, topo, radio, eng)
    trace = exc_info.value.trace
    assert 0 < len(trace.records) < 6
    assert "ue1" in eng.dropped


# ------------------------------------------------------- FedSplit ---- #

def _nested_sessions(masters, data, *, cut=2, seed=3):
    model = mlp.init_model(WIDTHS, "ce", seed=seed)
    out = {}
    for master, slaves in masters.items():
        out[master] = SlSession(
            server=master, clients=list(slaves), variant="homogeneous",
            iterations=1, model=model, scheme=_scheme(),
            config=_config(), data=data, cut_index=cut)
    return out


def test_fedsplit_master_delta_matches_monolithic_training():
    topo = star_topology(3, d2d=True)
    data = blob_data(3)
    rounds, local_iters = 2, 2
    fl = _fl_session(["ue0"], data, rounds=rounds, local_iters=local_iters)
    nested = _nested_sessions({"ue0": ["ue1", "ue2"]}, data)
    trace = run_fedsplit_nested(fl, nested, topo, simple_radio(), Engine(seed=0))

    reference = mlp.init_model(WIDTHS, "ce", seed=3)
    slaves = ["ue1", "ue2"]
    for _ in range(rounds):
        for it in range(local_iters):  # nested batch indices restart each round
            shard = data.shard_of(slaves[it % 2])
            x, labels = shard.batch(it, 16)
            _, cache = mlp.forward(reference, x)
            grads = mlp.backward(reference, cache, labels)
            reference = mlp.sgd_step(reference, grads, 0.05)
    assert model_rel_err(trace.final_model, reference) < 1e-12


def test_fedsplit_one_update_per_fl_client_per_round():
    """The upstream server sees exactly one delta per FL client per round;
    slaves surface only on device-to-device hops."""
    topo = star_topology(5, d2d=True)
    data = blob_data(5)
    fl = _fl_session(["ue0", "ue3", "ue4"], data, rounds=2, local_iters=1)
    nested = _nested_sessions({"ue0": ["ue1", "ue2"]}, data)
    eng = Engine(seed=0)
    trace = run_fedsplit_nested(fl, nested, topo, simple_radio(), eng)

    deltas = _details(eng, "ul:delta")
    assert len(deltas) == 2 * 3
    assert {n for n, _ in deltas} == {"ue0", "ue3", "ue4"}
    assert all(n in ("ue1", "ue2", "ue0") for n, _ in _details(eng, "d2d:"))
    assert len(trace.records) == 2


def test_fedsplit_master_weight_is_total_slave_data():
    topo = star_topology(3, d2d=True)
    data = make_blobs(8, 4, {"ue0": 8, "ue1": 30, "ue2": 26}, test_size=16, seed=5)
    fl = _fl_session(["ue0"], data, rounds=1, local_iters=1)
    nested = _nested_sessions({"ue0": ["ue1", "ue2"]}, data)
    eng = Engine(seed=0)
    run_fedsplit_nested(fl, nested, topo, simple_radio(), eng)
    # weighting is observable through the runner's aggregation inputs: a
    # single master means the final model equals its delta applied verbatim,
    # so instead check the declared sample count directly
    from music_sim.protocols import _FedSplitRunner
    runner = _FedSplitRunner(
        _fl_session(["ue0"], data, rounds=1, local_iters=1),
        _nested_sessions({"ue0": ["ue1", "ue2"]}, data),
        topo, simple_radio(), Engine(seed=1))
    assert runner.delta_sample_count("ue0") == 56


def test_fedsplit_nested_abort_drops_the_master():
    topo = star_topology(5, d2d=True)
    data = blob_data(5)
    fl = _fl_session(["ue0", "ue3", "ue4"], data, rounds=1, local_iters=1)
    nested = _nested_sessions({"ue0": ["ue1", "ue2"]}, data)
    eng = Engine(seed=0)
    eng.batteries.update({"ue1": 1e-12, "ue2": 1e-12})
    trace = run_fedsplit_nested(fl, nested, topo, simple_radio(), eng)

    assert "ue0" in eng.dropped
    assert trace.records[0].dropouts == ["ue0"]
    reasons = [r["detail"] for r in eng.event_log
               if r["kind"] == "DROPOUT" and r["node"] == "ue0"]
    assert any("nested split aborted" in r for r in reasons)
    # the surviving plain clients still carried the round
    assert {n for n, _ in _details(eng, "ul:delta")} == {"ue3", "ue4"}


def test_fedsplit_bytes_exclude_d2d_traffic():
    topo = star_topology(3, d2d=True)
    data = blob_data(3)
    fl = _fl_session(["ue0"], data, rounds=1, local_iters=1)
    nested = _nested_sessions({"ue0": ["ue1", "ue2"]}, data)
    trace = run_fedsplit_nested(fl, nested, topo, simple_radio(), Engine(seed=0))
    per_round = fl.model.payload_bits // 8
    assert trace.records[0].bytes_up == per_round    # the master's delta only
    assert trace.records[0].bytes_down == per_round  # the model broadcast only


def _bad_nested_run(case: str):
    """A FedSplit run over ue0's group (ue1, ue2; ue3 is no slave) whose
    nested session is wrong in one way."""
    doc = star_doc(4, d2d=True)
    doc["d2d_groups"][0]["slaves"] = ["ue1", "ue2"]
    topo = build_topology(doc)
    data = blob_data(4)
    master, slaves, cut = "ue0", ["ue1", "ue2"], 2
    if case == "not a master":
        master = "ue3"
    elif case == "stray slave":
        slaves = ["ue1", "ue3"]
    elif case == "cut out of range":
        cut = 0
    nested = _nested_sessions({master: slaves}, data, cut=cut)
    if case == "server is not the master":
        nested[master].server = "ue1"
    fl = _fl_session([master], data, rounds=2, local_iters=1)
    return fl, nested, topo


_NESTED_REFUSALS = {
    "server is not the master": (NestedServerMismatch, "names server 'ue1'"),
    "not a master": (NestedServerMismatch, "'ue3' is not a D2D group master"),
    "stray slave": (NestedServerMismatch, r"\['ue3'\] are not slaves of 'ue0'"),
    "cut out of range": (ScenarioSchemaError, "cut_index must be in"),
}


@pytest.mark.parametrize("case", list(_NESTED_REFUSALS))
def test_fedsplit_refuses_a_bad_nested_session_before_any_event(case):
    error, message = _NESTED_REFUSALS[case]
    fl, nested, topo = _bad_nested_run(case)
    eng = Engine(seed=0)
    with pytest.raises(error, match=message):
        run_fedsplit_nested(fl, nested, topo, simple_radio(), eng)
    assert len(eng.event_log) == 0
    assert eng.clock == 0.0


# ---------------------------------------------------------- liveness ---- #

def test_refusal_by_an_already_dropped_device_still_fails_its_leg():
    """A device drained by an earlier leg's debit drops silently; the next
    leg it refuses must still reach its session through `fail`."""
    topo = star_topology(1)
    sess = _fl_session(["ue0"], blob_data(1), rounds=1, local_iters=1)
    eng = Engine(seed=0)
    eng.mark_dropped("ue0", "drained earlier")
    runner = _FlRunner(sess, topo, simple_radio(), eng)
    calls = []
    runner.leg_compute("ue0", 1000, "work", lambda: calls.append("done"),
                       lambda: calls.append("fail"))
    eng.run()
    assert calls == ["fail"]


def test_a_drained_event_queue_is_a_stall_not_a_completion():
    class IdleRunner(_FlRunner):
        def _begin(self, rnd):
            pass  # never schedules a round

    sess = _fl_session(["ue0"], blob_data(1), rounds=2, local_iters=1)
    runner = IdleRunner(sess, star_topology(1), simple_radio(), Engine(seed=0))
    with pytest.raises(SessionStalled) as info:
        runner.run()
    assert info.value.trace is runner.trace
    assert info.value.trace.status.startswith("aborted: ")
    assert info.value.trace.records == []


def _run_bundled(name: str, batteries: dict[str, float], **protocol):
    """(runtime, trace) of a bundled scenario with some device batteries and
    protocol settings replaced; the trace is the partial one when the
    session aborts."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for ue in doc["nodes"]["ue"]:
        ue["battery"] = batteries.get(ue["id"], ue["battery"])
    doc["protocol"].update(protocol)
    runtime = assemble(parse_config(doc))
    try:
        return runtime, runtime.execute()
    except SessionAborted as exc:
        assert exc.trace is not None
        assert exc.trace.status == f"aborted: {exc.reason}"
        return runtime, exc.trace


def _assert_live(runtime, trace, records: int) -> None:
    """Completed with every record, or aborted with fewer; either way the
    event log reproduces the ledger."""
    if trace.status == "completed":
        assert len(trace.records) == records
    else:
        assert len(trace.records) < records
    assert runtime.engine.recount_from_log() == runtime.engine.energy_ledger


@pytest.mark.parametrize("name, device, battery, records", [
    ("sl_heterogeneous_d2d", "ue1", 2.2094e-05, 24),
    ("fedsplit_nested", "ue0", 3.794e-06, 8),
])
def test_bundled_scenario_with_a_drained_device_does_not_stall(
        name, device, battery, records):
    """Batteries that once ended these runs `completed` with zero records."""
    runtime, trace = _run_bundled(name, {device: battery})
    _assert_live(runtime, trace, records)


def test_fedsplit_master_with_no_live_slave_drops_from_its_round():
    """ue0's slaves ue1 and ue2, FL clients here as well, refuse their
    downloads at the start, so no slave is left for ue0's first nested
    iteration: ue0 drops from round 0, as after any nested abort, and ue3
    carries the run."""
    runtime, trace = _run_bundled("fedsplit_nested", {"ue1": 1e-9, "ue2": 1e-9},
                                  clients=["ue0", "ue1", "ue2", "ue3"])
    assert trace.status == "completed"
    assert len(trace.records) == 8
    assert trace.records[0].dropouts == ["ue1", "ue2", "ue0"]
    assert ("ue0", "nested split aborted: iteration 0: no clients left") in [
        (r["node"], r["detail"]) for r in runtime.engine.event_log if r["kind"] == "DROPOUT"]


@pytest.mark.parametrize("run, session, records, reason", [
    (run_fl, _fl_session, 1, "round 1: no clients left"),
    (run_sl_homogeneous, _homo_session, 1, "iteration 1: no clients left"),
    (run_sl_homogeneous, _homo_session, 2, "iteration 2: no clients left"),
], ids=["fl-round-1", "homo-iteration-1", "homo-iteration-2"])
def test_a_period_opened_after_every_client_dropped_aborts(run, session, records, reason):
    """Every client drops at the instant the period before ends, as an
    unconstrained run times it, so the next period opens with no client
    left and the run aborts after the periods before it."""
    clients = ["ue0", "ue1"]
    full = Engine(seed=0)
    trace = run(session(clients, blob_data(2)), star_topology(2), simple_radio(), full)
    done = [r["time"] for r in full.event_log
            if r["kind"] == "ROUND_BOUNDARY" and r["detail"].endswith(" done")]
    assert len(done) == len(trace.records) > records
    eng = Engine(seed=0)
    for c in clients:
        eng.schedule(done[records - 1], EventKind.DROPOUT,
                     functools.partial(eng.dropped.add, c), node=c, detail="switched off")
    with pytest.raises(AllClientsDropped, match=f"^{reason}$") as info:
        run(session(clients, blob_data(2)), star_topology(2), simple_radio(), eng)
    assert info.value.trace.status == f"aborted: {reason}"
    assert len(info.value.trace.records) == records


_FULL_RUN_SPEND: dict[str, tuple[int, dict[str, float]]] = {}


def _full_run_spend(name: str) -> tuple[int, dict[str, float]]:
    """Record count and per-device energy of the unconstrained run."""
    if name not in _FULL_RUN_SPEND:
        runtime, trace = _run_bundled(name, {})
        spent = {ue: sum(runtime.engine.energy_ledger.get(ue, {}).values())
                 for ue in runtime.cfg.topo.ues}
        _FULL_RUN_SPEND[name] = (len(trace.records), spent)
    return _FULL_RUN_SPEND[name]


@pytest.mark.parametrize("name", ["fl_edge", "sl_homogeneous", "sl_heterogeneous_d2d",
                                  "fedsplit_nested"])
@settings(max_examples=12, deadline=None)
@given(fractions=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=6,
                          max_size=6))
def test_any_battery_vector_completes_or_aborts(name, fractions):
    """Each device gets a share of what it spends in a full run: the run
    records every iteration or aborts with a partial trace, and a rerun is
    byte-identical."""
    records, spent = _full_run_spend(name)
    batteries = {ue: f * spent[ue] for ue, f in zip(sorted(spent), fractions)}
    runtime, trace = _run_bundled(name, batteries)
    _assert_live(runtime, trace, records)
    again, trace_again = _run_bundled(name, batteries)
    assert trace_again.csv_rows() == trace.csv_rows()
    assert again.engine.event_log == runtime.engine.event_log


@pytest.mark.parametrize("name", ["fl_edge", "sl_homogeneous", "sl_heterogeneous_d2d",
                                  "fedsplit_nested"])
def test_static_channels_build_no_gain_streams(name):
    """Every bundled device has a static channel, which draws no gain, so no
    `gain:` stream is ever built."""
    runtime, trace = _run_bundled(name, {})
    assert trace.status == "completed"
    assert not [s for s in runtime.engine.rng._streams if s.startswith("gain:")]


@pytest.mark.parametrize("name", ["sl_homogeneous", "sl_heterogeneous_d2d",
                                  "fedsplit_nested"])
def test_split_learning_fills_one_delta_without_adding_deltas(name, monkeypatch):
    """Each segment's backward pass writes its layers into the iteration's one
    delta, so no split-learning run composes gradients with `add_deltas`."""
    calls = []
    add = mlp.add_deltas
    monkeypatch.setattr(mlp, "add_deltas", lambda a, b: calls.append(1) or add(a, b))
    _, trace = _run_bundled(name, {})
    assert trace.status == "completed"
    assert calls == []


@functools.cache
def _full_run_rounds(name: str) -> tuple[int, float]:
    """Record count and slowest round latency of the unconstrained run."""
    _, trace = _run_bundled(name, {})
    return len(trace.records), max(r.wall_latency for r in trace.records)


@pytest.mark.parametrize("name", ["fl_edge", "fedsplit_nested"])
@settings(max_examples=12, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.2) | st.just(math.inf))
@example(fraction=0.8)  # stragglers stop and rejoin in both scenarios
def test_any_round_deadline_completes_or_aborts(name, fraction):
    """Rounds close at a deadline drawn as a share of the full run's slowest
    round: the run records every round or aborts with a partial trace, no
    client runs two rounds' legs at once, and a rerun is byte-identical."""
    records, slowest = _full_run_rounds(name)
    deadline = fraction * slowest
    runtime, trace = _run_bundled(name, {}, round_deadline=deadline)
    _assert_live(runtime, trace, records)
    # per client: download, then local training and upload unless the chain stopped
    letters = {"dl:model": "D", "local:": "L", "ul:delta": "U"}
    for client in runtime.cfg.protocol.clients:
        legs = "".join(letter for r in runtime.engine.event_log if r["node"] == client
                       for prefix, letter in letters.items()
                       if r["detail"].startswith(prefix))
        assert re.fullmatch("(DL?U?)*", legs), (client, legs)
    again, trace_again = _run_bundled(name, {}, round_deadline=deadline)
    assert trace_again.csv_rows() == trace.csv_rows()
    assert again.engine.event_log == runtime.engine.event_log


@pytest.mark.parametrize("fraction", [0.66, 0.68, 0.75])
def test_fedsplit_nested_phase_stops_once_its_round_closes(fraction):
    """A master whose FL round closes at its deadline while it runs its
    nested split learning stops at the next nested leg boundary: after each
    closed round's deadline, at most the one nested leg then in flight
    completes. The scenario has one master, ue0."""
    records, slowest = _full_run_rounds("fedsplit_nested")
    runtime, trace = _run_bundled("fedsplit_nested", {},
                                  round_deadline=fraction * slowest)
    _assert_live(runtime, trace, records)
    nested_round, deadlines, late = None, set(), {}
    for record in runtime.engine.event_log:
        detail = record["detail"]
        if m := re.fullmatch(r"nested r(\d+) start", detail):
            nested_round = int(m.group(1))
        elif m := re.fullmatch(r"round (\d+) deadline", detail):
            deadlines.add(int(m.group(1)))
        elif nested_round in deadlines and re.match(r"(fwd|srv|bwd|d2d):", detail):
            late[nested_round] = late.get(nested_round, 0) + 1
    assert late, "no round closed during the master's nested phase"
    assert max(late.values()) <= 1, late


# -------------------------------------------------------- leg prices ---- #

_LEG_SERVERS = ["cloud0", "fog0", "ap0", "ap1"]
_LEG_UES = ["ue0", "ue1", "ue2", "ue3"]


def _leg_costs(kind: SchemeKind, gain=None) -> LegCosts:
    """Prices over two cells: D2D groups ue0-ue1 and ue2-ue3 at different
    rates, a NOMA pair ue1+ue2 on ap0's blocks 1-2, and no backhaul link
    from ap1 to ap0 or the cloud."""
    doc = star_doc(4, second_cell=True)
    doc["d2d_groups"] = [{"master": "ue0", "slaves": ["ue1"], "link_rate": 8e6},
                         {"master": "ue2", "slaves": ["ue3"], "link_rate": 5e6,
                          "link_energy_per_bit": 3e-10}]
    topo = build_topology(doc)
    cells = simple_radio(aps=("ap0", "ap1")).cells
    radio = simple_radio(aps=("ap0", "ap1"), clusters=[
        NomaCluster(members=(("ue1", 0.2), ("ue2", 0.1)), blocks=cells["ap0"][1:3])])
    legs = LegCosts(topo, radio, _scheme(kind), 1.5, gain=gain)
    legs.assign_slots(_LEG_UES)
    return legs


def _price(legs: LegCosts, leg: str, a: int, b: int, amount):
    if leg == "compute":
        return legs.compute((_LEG_SERVERS + _LEG_UES)[a], amount)
    if leg == "up":
        return legs.up(_LEG_UES[a % 4], int(amount), f"r{b}:x")
    if leg == "down":
        return legs.down(int(amount))
    if leg == "backhaul":
        return legs.backhaul(_LEG_SERVERS[a % 4], _LEG_SERVERS[b % 4], int(amount))
    return legs.d2d(_LEG_UES[a % 4], _LEG_UES[b % 4], int(amount))


def _price_or_error(legs, *leg):
    try:
        return _price(legs, *leg)
    except (MissingBackhaulLink, MissingD2dLink) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(list(SchemeKind)),
       legs=st.lists(st.tuples(st.sampled_from(["compute", "up", "down", "backhaul", "d2d"]),
                               st.integers(0, 7), st.integers(0, 3),
                               st.sampled_from([0, 1, 4096, 4096.0, 2.5e11, 10**12 + 7])),
                     min_size=1, max_size=24))
def test_leg_cost_memo_returns_the_fresh_price(kind, legs):
    """An instance hands out, on the first call and on every repeat, the very
    price a fresh instance computes; a leg with no link raises every time."""
    memo = _leg_costs(kind)
    for leg in legs + legs:
        want = _price_or_error(_leg_costs(kind), *leg)
        got = _price_or_error(memo, *leg)
        assert got == want and repr(got) == repr(want), leg


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_leg_costs_with_a_gain_price_every_uplink_anew(kind):
    """Given a gain function (the runners' fading draw), an uplink is never
    kept: each orthogonal uplink calls it, and a NOMA pair calls it once per
    member and context prefix (one fading draw per cluster and payload
    round)."""
    calls = []

    def gain(ue_id, context):
        calls.append((ue_id, context))
        return 1e-7 * len(calls)

    legs = _leg_costs(kind, gain=gain)
    prices = [legs.up("ue0", 4096, "r0:ul") for _ in range(3)]
    assert calls == [("ue0", "r0:ul")] * 3
    assert len({p[2] for p in prices}) == 3
    calls.clear()
    for context in ("r0:a", "r0:b", "r1:a"):
        legs.up("ue1", 4096, context)
    if kind.noma:
        assert calls == [("ue1", "r0"), ("ue2", "r0"), ("ue1", "r1"), ("ue2", "r1")]
    else:
        assert calls == [("ue1", "r0:a"), ("ue1", "r0:b"), ("ue1", "r1:a")]


def _uplink_pricing(monkeypatch, name: str, fading=()) -> tuple[list, list, int, int]:
    """Run bundled scenario `name` with the channels of the devices in
    `fading` varying: the uplink legs its runner asked a price for, the
    devices of those it priced afresh, and how many orthogonal and NOMA
    rates it computed."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for ue in doc["nodes"]["ue"]:
        if ue["id"] in fading:
            ue["channel_variance"] = 0.3
    runtime = assemble(parse_config(doc))
    legs, priced, counts = [], [], {"oma_uplink_rate": 0, "cluster_rates": 0}
    for method in counts:
        def counted(self, *args, _real=getattr(RadioEnv, method), _method=method):
            counts[_method] += 1
            return _real(self, *args)
        monkeypatch.setattr(RadioEnv, method, counted)
    real_hop, real_up = LegCosts.hop, LegCosts.up
    monkeypatch.setattr(LegCosts, "hop", lambda self, leg, context="": (
        legs.append(leg) if leg[0] == "up" else None) or real_hop(self, leg, context))
    monkeypatch.setattr(LegCosts, "up", lambda self, ue_id, bits, context: (
        priced.append(ue_id) or real_up(self, ue_id, bits, context)))
    try:
        runtime.execute()
    except SessionAborted:
        pass
    return legs, priced, counts["oma_uplink_rate"], counts["cluster_rates"]


def test_a_static_uplink_is_priced_once_per_leg(monkeypatch):
    """On static channels a runner prices each distinct uplink leg once:
    its gain is the mean and draws nothing, so the price cannot change."""
    legs, priced, oma, noma = _uplink_pricing(monkeypatch, "sl_homogeneous")
    assert len(legs) == len(set(legs)) and oma == len(priced) == len(set(legs))
    assert noma == 0


def test_a_fading_uplink_is_priced_every_time(monkeypatch):
    ues = [f"ue{i}" for i in range(6)]
    legs, priced, oma, _ = _uplink_pricing(monkeypatch, "sl_homogeneous", fading=ues)
    assert len(legs) > len(set(legs)) and oma == len(priced) == len(legs)


def test_a_noma_uplink_is_kept_only_when_its_whole_cluster_is_static(monkeypatch):
    """fl_edge's NOMA pair ue3+ue4: static, each member's uplink is priced
    once and the pair's rates computed once. With ue3 fading, static ue4's
    uplink is priced anew each round too, as the pair's rates change; the
    orthogonal devices' static uplinks are still priced once."""
    rounds = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())["protocol"]["rounds"]
    legs, priced, oma, noma = _uplink_pricing(monkeypatch, "fl_edge")
    assert priced.count("ue4") == 1 and noma == 1
    assert oma == len({leg for leg in legs if leg[1] not in ("ue3", "ue4")})
    legs, priced, oma_fading, noma = _uplink_pricing(monkeypatch, "fl_edge", fading=("ue3",))
    assert priced.count("ue4") == sum(leg[1] == "ue4" for leg in legs) == rounds
    assert noma == rounds and oma_fading == oma


@pytest.mark.parametrize("fading", [(), ("ue0",)])
def test_a_run_prices_each_leg_once(monkeypatch, fading):
    """A runner prices a leg as a cursor first starts it and keeps the
    price: sl_heterogeneous_d2d asks `LegCosts` for as many prices over 24
    iterations as over 4. A fading uplink (ue0's smashed activations to the
    server) is priced at every start, so its count grows by one an
    iteration."""
    calls = []
    for method in ("compute", "hop"):
        priced = getattr(LegCosts, method)
        monkeypatch.setattr(LegCosts, method, lambda self, *args, _priced=priced:
                            calls.append(args) or _priced(self, *args))
    doc = json.loads((SCENARIO_DIR / "sl_heterogeneous_d2d.json").read_text())
    for ue in doc["nodes"]["ue"]:
        if ue["id"] in fading:
            ue["channel_variance"] = 0.3
    counts = []
    for iterations in (4, 24):
        doc["protocol"]["iterations"] = iterations
        runtime = assemble(parse_config(doc))
        calls.clear()
        assert runtime.execute().status == "completed"
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] - counts[0] == (20 if fading else 0)

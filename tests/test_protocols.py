"""End-to-end protocol behavior on small star networks: latency composition,
failure handling, transport selection, and the metrics trace."""

import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import music_sim
from music_sim import costs, mlp
from music_sim.data import make_blobs
from music_sim.engine import Engine
from music_sim.errors import (
    AllClientsDropped,
    MissingD2dLink,
    SessionAborted,
    SessionStalled,
)
from music_sim.protocols import (
    FlSession,
    SlSession,
    TrainingConfig,
    _FlRunner,
    _Round,
    _SlHomoRunner,
    run_fedsplit_nested,
    run_fl,
    run_sl_heterogeneous,
    run_sl_homogeneous,
)
from music_sim.radio import AccessScheme, SchemeKind, draw_channel_gain
from music_sim.scenario import assemble, parse_config

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
    from music_sim.topology import build_topology
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
    assert runner._category_diff(state.before, "compute") == {"ue0": 2.0}
    assert runner._category_diff(state.before, "rx") == {"ue1": 0.25}


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

"""Event loop determinism, battery semantics, ledgers, and seeded streams."""

import copy
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import music_sim
from music_sim import engine
from music_sim.engine import BlockLedger, Engine, EventKind, RngStreams
from music_sim.errors import TimestampInPast
from music_sim.radio import ResourceBlock
from music_sim.scenario import assemble, parse_config

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"


def test_same_timestamp_fifo():
    eng = Engine(seed=0)
    order = []
    eng.schedule(5.0, EventKind.TX_DONE, lambda: order.append("A"))
    eng.schedule(5.0, EventKind.TX_DONE, lambda: order.append("B"))
    eng.run()
    assert order == ["A", "B"]
    assert eng.clock == 5.0


def test_kind_priority_at_same_timestamp():
    """Dropouts dispatch before transmissions, computations, and boundaries
    at the same instant, regardless of insertion order."""
    eng = Engine(seed=0)
    order = []
    eng.schedule(1.0, EventKind.ROUND_BOUNDARY, lambda: order.append("round"))
    eng.schedule(1.0, EventKind.COMPUTE_DONE, lambda: order.append("compute"))
    eng.schedule(1.0, EventKind.TX_DONE, lambda: order.append("tx"))
    eng.schedule(1.0, EventKind.DROPOUT, lambda: order.append("drop"))
    eng.run()
    assert order == ["drop", "tx", "compute", "round"]


def test_past_timestamp_rejected():
    eng = Engine(seed=0)
    eng.schedule(2.0, EventKind.TX_DONE, lambda: eng.schedule(
        1.0, EventKind.TX_DONE, lambda: None))
    with pytest.raises(TimestampInPast):
        eng.run()


def test_clock_is_max_dispatched_timestamp():
    eng = Engine(seed=0)
    for t in (3.0, 1.0, 2.0):
        eng.schedule(t, EventKind.TX_DONE, lambda: None)
    eng.run()
    assert eng.clock == 3.0


def test_debit_battery_basic():
    eng = Engine(seed=0)
    eng.batteries["ue0"] = 5.0
    assert eng.debit_battery("ue0", 2.0) == 3.0
    assert eng.battery_of("ue0") == 3.0
    assert "ue0" not in eng.dropped


def test_debit_battery_floor_and_dropout_event():
    eng = Engine(seed=0)
    eng.batteries["ue0"] = 1.0
    eng.clock = 4.0
    remaining = eng.debit_battery("ue0", 4.0)
    assert remaining == 0.0
    assert "ue0" in eng.dropped
    eng.run()
    dropouts = [(r["time"], r["node"]) for r in eng.event_log if r["kind"] == "DROPOUT"]
    assert dropouts == [(4.0, "ue0")]  # dropout lands at the instant of exhaustion


def test_debit_battery_zero_is_identity():
    eng = Engine(seed=0)
    eng.batteries["ue0"] = 2.0
    assert eng.debit_battery("ue0", 0.0) == 2.0
    assert not eng._heap and "ue0" not in eng.dropped


def test_mains_powered_node_never_drops():
    eng = Engine(seed=0)
    assert eng.debit_battery("ap0", 1e9) == float("inf")
    assert "ap0" not in eng.dropped


def test_can_afford_respects_drop_state():
    eng = Engine(seed=0)
    eng.batteries["ue0"] = 5.0
    assert eng.can_afford("ue0", 5.0)
    assert not eng.can_afford("ue0", 5.1)
    eng.dropped.add("ue0")
    assert not eng.can_afford("ue0", 0.1)


def test_charges_attach_to_dispatching_event():
    eng = Engine(seed=0)
    eng.schedule(1.0, EventKind.COMPUTE_DONE, lambda: eng.charge("n0", "compute", 2.5),
                 node="n0", detail="work")
    eng.run()
    assert eng.energy_ledger == {"n0": {"compute": 2.5}}
    [record] = [r for r in eng.event_log if r["charges"]]
    assert record["charges"] == [["n0", "compute", 2.5]]


def test_recount_reproduces_ledger_exactly():
    eng = Engine(seed=0)
    def work():
        eng.charge("a", "tx", 0.1)
        eng.charge("b", "rx", 0.2)
        eng.charge("a", "tx", 0.3)
    eng.schedule(1.0, EventKind.TX_DONE, work)
    eng.run()
    assert eng.recount_from_log() == eng.energy_ledger


def test_event_log_roundtrip_with_meta(tmp_path):
    eng = Engine(seed=0)
    eng.schedule(1.0, EventKind.TX_DONE, lambda: eng.charge("a", "tx", 0.5),
                 node="a", detail="ul:model")
    eng.run()
    path = tmp_path / "events.jsonl"
    eng.write_event_log(path, meta={"config_hash": "abc", "seed": 3})
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["kind"] == "META" and head["config_hash"] == "abc"
    assert json.loads(lines[1])["detail"] == "ul:model"


def test_event_log_lines_are_json_dumps_of_each_record(tmp_path):
    """One encoder writes the same bytes as `json.dumps(sort_keys=True)` per
    record, escapes included."""
    eng = Engine(seed=0)
    eng.charge("gerät-0", "compute", 0.25)  # out of band: its own CHARGE record
    eng.schedule(1.0, EventKind.TX_DONE, lambda: eng.charge("gerät-0", "tx", 1e-9),
                 node="gerät-0", detail="ul:Δ")
    eng.run()
    path = tmp_path / "events.jsonl"
    meta = {"config_hash": "abc", "seed": 3}
    eng.write_event_log(path, meta=meta)
    expected = [json.dumps({"kind": "META", "charges": [], **meta}, sort_keys=True)]
    expected += [json.dumps(record, sort_keys=True) for record in eng.event_log]
    assert [r["kind"] for r in eng.event_log] == ["CHARGE", "TX_DONE"]
    assert path.read_text().splitlines() == expected


_log_text = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "gerät-0", "ul:Δ", "\u2028", "\ud800", "😀"])
_log_number = (st.floats() | st.integers()
               | st.sampled_from([-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan])
               | st.floats().map(np.float64))
_log_records = st.fixed_dictionaries({
    "time": _log_number,
    "kind": st.sampled_from([k.name for k in EventKind]) | _log_text,
    "node": st.none() | _log_text,
    "detail": _log_text,
    "charges": st.lists(st.tuples(st.none() | _log_text, _log_text, _log_number).map(list),
                        max_size=3),
})
# the ledger sums these, so finite ones stay far from overflow
_joules = st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([math.inf, math.nan])
_out_of_band = st.tuples(_log_text, _log_text, _joules | _joules.map(np.float64))


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_log_records | _out_of_band, max_size=6))
def test_every_event_log_line_is_json_dumps_of_its_record(tmp_path_factory, records):
    """Records the writer formats itself and records it hands to the encoder
    both come out as `json.dumps(record, sort_keys=True)`."""
    eng = Engine(seed=0)
    for record in records:
        if isinstance(record, tuple):
            eng.charge(*record)  # out of band: its own CHARGE record
        else:
            eng.event_log.append(record)
    path = tmp_path_factory.mktemp("log") / "events.jsonl"
    eng.write_event_log(path)
    lines = path.read_text().split("\n")
    assert lines.pop() == ""
    assert lines == [json.dumps(record, sort_keys=True) for record in eng.event_log]


def test_identical_seeds_produce_identical_logs():
    def run_once():
        eng = Engine(seed=11)
        def work():
            value = eng.rng.stream("gain:ue0:r0").uniform()
            eng.charge("ue0", "tx", value)
        eng.schedule(1.0, EventKind.TX_DONE, work, node="ue0")
        eng.run()
        return json.dumps(eng.event_log, sort_keys=True)
    assert run_once() == run_once()


def test_rng_streams_are_name_keyed_and_independent():
    streams = RngStreams(7)
    a1 = streams.stream("gain:ue0:r0").uniform()
    # a fresh instance gives the same draw for the same name...
    b1 = RngStreams(7).stream("gain:ue0:r0").uniform()
    assert a1 == b1
    # ...regardless of what other streams were pulled first
    other = RngStreams(7)
    other.stream("gain:ue1:r0").uniform()
    assert other.stream("gain:ue0:r0").uniform() == a1
    # different names and different roots give different draws
    assert RngStreams(7).stream("gain:ue0:r1").uniform() != a1
    assert RngStreams(8).stream("gain:ue0:r0").uniform() != a1


def test_block_ledger_serializes_distinct_owners():
    ledger = BlockLedger()
    s1 = ledger.reserve("ap0", 0, earliest=0.0, duration=2.0, owner="ue0")
    s2 = ledger.reserve("ap0", 0, earliest=0.0, duration=1.0, owner="ue1")
    assert s1 == 0.0
    assert s2 == 2.0  # waits for ue0's window
    # a different block is free immediately
    assert ledger.reserve("ap0", 1, earliest=0.0, duration=1.0, owner="ue2") == 0.0


def test_block_ledger_shared_tag_overlaps():
    ledger = BlockLedger()
    s1 = ledger.reserve("ap0", 0, 0.0, 2.0, owner="ue0", shared_tag="cluster:a")
    s2 = ledger.reserve("ap0", 0, 0.0, 2.0, owner="ue1", shared_tag="cluster:a")
    assert s1 == s2 == 0.0
    # an untagged transmission still has to wait
    assert ledger.reserve("ap0", 0, 0.0, 1.0, owner="ue2") == 2.0


def test_block_ledger_rejects_request_before_an_earlier_one():
    ledger = BlockLedger()
    ledger.reserve("ap0", 0, 1.0, 0.5, owner="ue0")
    assert ledger.reserve("ap0", 1, 1.0, 0.5, owner="ue1") == 1.0  # equal is fine
    with pytest.raises(TimestampInPast):
        ledger.reserve("ap0", 2, 0.5, 0.5, owner="ue2")


def test_block_ledger_drops_finished_reservations():
    ledger = BlockLedger()
    ledger.reserve("ap0", 0, 0.0, 1.0, owner="ue0")
    ledger.reserve("ap0", 0, 0.0, 1.0, owner="ue1")  # 1.0 .. 2.0
    assert ledger.reserve("ap0", 0, 1.5, 1.0, owner="ue2") == 2.0
    assert ledger._held[("ap0", 0)] == [(1.0, 2.0, None), (2.0, 3.0, None)]


def test_multi_block_booking_holds_every_block_over_the_common_interval():
    """A cluster on blocks 0 and 1 starts once both are free, and block 0,
    free early, is held over that same interval: an orthogonal uplink is
    not granted it while the cluster transmits."""
    ledger = BlockLedger()
    block0, block1 = ResourceBlock(0, 180e3), ResourceBlock(1, 180e3)
    ledger.reserve("ap0", 1, 0.0, 5.0, owner="ue3")
    start = ledger.book("ap0", (block0, block1), 0.0, 3.0, "ue0", "cluster:ue0+ue1")
    assert start == 5.0
    assert ledger.reserve("ap0", 0, 3.0, 4.0, owner="ue2") == 8.0


def test_multi_block_booking_repeats_first_fit_until_the_start_settles():
    """Each block's first fit can push the start past a later reservation on
    a block already scanned; the booking starts where all are free."""
    ledger = BlockLedger()
    blocks = (ResourceBlock(0, 180e3), ResourceBlock(1, 180e3))
    ledger.reserve("ap0", 0, 0.0, 1.0, owner="a")                 # block 0: [0, 1]
    ledger.reserve("ap0", 0, 0.0, 1.0, owner="b", not_before=2.0)  # block 0: [2, 3]
    ledger.reserve("ap0", 1, 0.0, 2.0, owner="c")                 # block 1: [0, 2]
    assert ledger.book("ap0", blocks, 0.0, 1.0, "ue0", "cluster:x") == 3.0
    assert ledger._held[("ap0", 0)][-1] == ledger._held[("ap0", 1)][-1] == (3.0, 4.0,
                                                                            "cluster:x")


class _FixedPointLedger:
    """The ledger before pruning: every reservation ever made is rescanned
    until the candidate start stops moving, and the list is re-sorted after
    each booking."""

    def __init__(self):
        self.held = {}

    def reserve(self, ap_id, block_index, earliest, duration, owner, shared_tag=None):
        slots = self.held.setdefault((ap_id, block_index), [])
        start = earliest
        moved = True
        while moved:
            moved = False
            for r_start, r_end, _, r_tag in slots:
                if shared_tag is not None and r_tag == shared_tag:
                    continue
                if r_start < start + duration and start < r_end:
                    start = r_end
                    moved = True
        slots.append((start, start + duration, owner, shared_tag))
        slots.sort(key=lambda r: (r[0], r[1], r[2]))
        return start


_times = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                   st.floats(min_value=0.0, max_value=4.0))
_requests = st.lists(
    st.tuples(_times,                                  # gap after the previous request
              st.integers(min_value=0, max_value=2),   # block
              _times,                                  # duration
              st.sampled_from([None, None, "cluster:a", "cluster:b"])),
    min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(requests=_requests, blocks=st.integers(min_value=1, max_value=3))
def test_block_ledger_grants_the_fixed_point_scans_start(requests, blocks):
    ledger, reference = BlockLedger(), _FixedPointLedger()
    clock = 0.0
    for i, (gap, block, duration, tag) in enumerate(requests):
        clock += gap
        args = ("ap0", block % blocks, clock, duration, f"ue{i}", tag)
        assert ledger.reserve(*args) == reference.reserve(*args)


def _reference_book(reference, ap_id, blocks, earliest, duration, owner, tag):
    """A booking over several blocks on the reference: the least start at
    or after `earliest` that every block's fixed-point scan grants, found
    on throwaway copies, then booked on each block."""
    start = earliest
    while True:
        trial = copy.deepcopy(reference)
        fit = max(trial.reserve(ap_id, b, start, duration, owner, tag) for b in blocks)
        if fit == start:
            break
        start = fit
    for b in blocks:
        assert reference.reserve(ap_id, b, start, duration, owner, tag) == start
    return start


# one request: (gap after the previous one, what it books, duration, tag)
_mixed_requests = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1e-3, 0.02, 0.3]),
              st.sampled_from(["queue", "queue", "other", "cluster"]),
              st.one_of(st.floats(min_value=0.01, max_value=0.2),
                        st.sampled_from([0.0, 1e-300, 0.05])),
              st.sampled_from(["cluster:a", "cluster:b"])),
    min_size=20, max_size=80)


@settings(max_examples=40, deadline=None)
@given(burst=st.lists(st.floats(min_value=0.01, max_value=0.2), min_size=1, max_size=6),
       cluster_every=st.integers(min_value=5, max_value=60),
       mixed=_mixed_requests)
def test_a_long_queue_with_cluster_bookings_grants_the_fixed_point_scans_start(
        burst, cluster_every, mixed):
    """260 uplinks ask for block 0 at once, so they queue back to back over
    200 deep, and every `cluster_every`-th of them is a cluster booking
    blocks 0 and 1 together. Mixed requests follow as the queue drains from
    the front: more of the queue, uplinks on block 1 alone, and clusters,
    some with empty or vanishing durations. Every grant equals the
    reference's."""
    ledger, reference = BlockLedger(), _FixedPointLedger()
    blocks = (ResourceBlock(0, 180e3), ResourceBlock(1, 180e3))
    requests = [(0.0, "cluster" if i % cluster_every == cluster_every - 1 else "queue",
                 burst[i % len(burst)], "cluster:a") for i in range(260)] + mixed
    clock, deepest = 0.0, 0
    for i, (gap, what, duration, tag) in enumerate(requests):
        clock += gap
        if what == "cluster":
            granted = ledger.book("ap0", blocks, clock, duration, f"ue{i}", tag)
            assert granted == _reference_book(reference, "ap0", (0, 1), clock, duration,
                                              f"ue{i}", tag)
        else:
            args = ("ap0", 0 if what == "queue" else 1, clock, duration, f"ue{i}", None)
            assert ledger.reserve(*args) == reference.reserve(*args)
        deepest = max(deepest, len(ledger._held[("ap0", 0)]))
    assert deepest > 200


class _PrunedScanLedger:
    """The ledger with one pruning scan per request: each reservation
    request walks the block's live list in start order, dropping every
    reservation that ended by the request among those it reads."""

    def __init__(self):
        self.held = {}

    def _first_free(self, key, start, duration, tag):
        for r_start, r_end, r_tag in self.held.get(key, ()):
            if r_start >= start + duration:
                break
            if start < r_end and (tag is None or r_tag != tag):
                start = r_end
        return start

    def reserve(self, key, earliest, duration, tag, not_before):
        live = self.held.setdefault(key, [])
        start, kept, scanned = not_before, [], len(live)
        for i, held in enumerate(live):
            r_start, r_end, r_tag = held
            if r_start >= start + duration:
                scanned = i
                break
            if r_end <= earliest:
                continue
            kept.append(held)
            if start < r_end and (tag is None or r_tag != tag):
                start = r_end
        live[:scanned] = kept
        live.append((start, start + duration, tag))
        live.sort(key=lambda r: r[0])  # stable: equal starts keep booking order
        return start

    def book(self, keys, earliest, duration, tag):
        start, moved = earliest, len(keys) > 1
        while moved:
            moved = False
            for key in keys:
                fit = self._first_free(key, start, duration, tag)
                moved, start = moved or fit != start, fit
        for key in keys:
            start = self.reserve(key, earliest, duration, tag, start)
        return start


# one request: (gap after the previous one, blocks, duration, tag, delay of not_before)
_held_requests = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.5, 2.0]),
              st.sampled_from([(0,), (0,), (1,), (0, 1)]),
              st.sampled_from([0.0, 1e-300, 0.1, 0.5, 1.0, 2.0, 3.0]),
              st.sampled_from([None, None, "cluster:a", "cluster:a", "cluster:b"]),
              st.sampled_from([0.0, 0.0, 0.5])),
    min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(requests=_held_requests)
def test_each_request_leaves_the_pruned_scans_live_reservations(requests):
    """Cluster members that share a tag and start together but end apart
    (a short one finishes under a longer one), empty and vanishing
    durations, delayed starts and two-block bookings: after every request,
    each block holds exactly the reservations the pruning scan keeps, and
    every grant equals its grant."""
    ledger, reference = BlockLedger(), _PrunedScanLedger()
    blocks = (ResourceBlock(0, 180e3), ResourceBlock(1, 180e3))
    clock = 0.0
    for i, (gap, indices, duration, tag, delay) in enumerate(requests):
        clock += gap
        if len(indices) > 1:
            granted = ledger.book("ap0", blocks, clock, duration, f"ue{i}", tag)
            expected = reference.book([("ap0", b) for b in indices], clock, duration, tag)
        else:
            granted = ledger.reserve("ap0", indices[0], clock, duration, f"ue{i}", tag,
                                     not_before=clock + delay)
            expected = reference.reserve(("ap0", indices[0]), clock, duration, tag,
                                         clock + delay)
        assert granted == expected
        assert ledger._held == reference.held


def _bundled_run(name: str, compute_scale: float = 1.0):
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for ue in doc["nodes"]["ue"]:
        ue["compute_rate"] *= compute_scale
    runtime = assemble(parse_config(doc))
    runtime.execute()
    return runtime.engine


def test_the_collector_tracks_no_event_or_charge_record():
    """Each event and each charge is one tuple of strings and numbers, which
    the garbage collector stops tracking: a run leaves no per-event
    container for it to walk."""
    eng = _bundled_run("fl_edge")
    gc.collect()
    assert eng._events and eng._charges
    for records in (eng._events, eng._charges):
        assert all(type(r) is tuple and not gc.is_tracked(r) for r in records)


def test_the_event_log_view_counts_without_building_records(monkeypatch):
    eng = _bundled_run("sl_homogeneous")
    records = list(eng.event_log)
    monkeypatch.setattr(engine, "_as_record", None)  # building a record would fail
    assert len(eng.event_log) == len(records) == len(eng._events) > 0
    assert eng.event_log


def test_the_event_log_view_equals_a_rerun_and_differs_from_another_run():
    eng = _bundled_run("sl_homogeneous")
    assert eng.event_log == _bundled_run("sl_homogeneous").event_log
    assert eng.event_log == list(eng.event_log) and list(eng.event_log) == eng.event_log
    assert not eng.event_log != _bundled_run("sl_homogeneous").event_log
    assert eng.event_log != _bundled_run("sl_homogeneous", compute_scale=2.0).event_log
    assert eng.event_log[-1] == list(eng.event_log)[-1]
    assert eng.event_log[-1] in eng.event_log
    with pytest.raises(TypeError):
        eng.event_log.pop()


def test_a_record_appended_from_outside_keeps_its_place_and_goes_through_the_encoder(
        tmp_path):
    """A foreign record sits where it was appended, even inside an event
    that charges after it, and is written by the encoder: here its time is
    an int and its charge would not be formatted. The recount sums it in
    log order."""
    eng = Engine(seed=0)
    foreign = {"time": 1, "kind": "NOTE", "node": None, "detail": "from outside",
               "charges": [["x", "tx", math.inf]]}

    def work():
        eng.charge("a", "tx", 0.5)
        eng.event_log.append(foreign)
        eng.charge("a", "rx", 0.25)

    eng.schedule(1.0, EventKind.TX_DONE, work, node="a", detail="ul")
    eng.schedule(2.0, EventKind.TX_DONE, lambda: eng.charge("b", "tx", 1.0), node="b")
    eng.run()
    assert [r["kind"] for r in eng.event_log] == ["TX_DONE", "NOTE", "TX_DONE"]
    assert len(eng.event_log) == 3
    assert eng.event_log[0]["charges"] == [["a", "tx", 0.5], ["a", "rx", 0.25]]
    assert eng.event_log[1] is foreign
    path = tmp_path / "events.jsonl"
    eng.write_event_log(path)
    assert path.read_text().splitlines() == [
        json.dumps(record, sort_keys=True) for record in eng.event_log]
    assert '"charges": [["x", "tx", Infinity]]' in path.read_text()
    assert eng.recount_from_log() == {"a": {"tx": 0.5, "rx": 0.25},
                                      "x": {"tx": math.inf}, "b": {"tx": 1.0}}


def test_a_charge_that_empties_a_battery_drops_the_device_at_that_instant():
    """`charge` debits the battery, floored at zero: the device drops out
    with a dropout event at the charging event's time, before a later-kind
    event at that instant; the ledger and the log keep the whole charge."""
    eng = Engine(seed=0)
    eng.batteries.update(ue0=1.0, ue1=1.0)
    eng.schedule(2.0, EventKind.ROUND_BOUNDARY, lambda: None, node="ap0", detail="round")

    def work():
        eng.charge("ue1", "tx", 0.0)  # a zero charge never drops a device
        eng.charge("ap0", "rx", 9.0)  # mains-powered
        eng.charge("ue0", "compute", 1.5)

    eng.schedule(2.0, EventKind.COMPUTE_DONE, work, node="ue0", detail="work")
    eng.run()
    assert eng.batteries == {"ue0": 0.0, "ue1": 1.0} and eng.dropped == {"ue0"}
    assert [(r["time"], r["kind"], r["node"]) for r in eng.event_log] == [
        (2.0, "COMPUTE_DONE", "ue0"), (2.0, "DROPOUT", "ue0"), (2.0, "ROUND_BOUNDARY", "ap0")]
    assert eng.energy_ledger["ue0"] == {"compute": 1.5}
    assert eng.recount_from_log() == eng.energy_ledger


def test_repeated_charges_print_as_json_does_zeros_included(tmp_path):
    """The writer reuses a repeated charge's text, but 0.0 and -0.0, or 2.0
    and 2, are equal and print apart."""
    eng = Engine(seed=0)
    for at, charges in enumerate([(1.5, 0.0, 2.0, 1.5), (-0.0,), (2,), (0.0, 1.5)]):
        eng.schedule(float(at), EventKind.TX_DONE,
                     lambda charges=charges: [eng.charge("ue0", "tx", j) for j in charges],
                     node="ue0", detail="ul")
    eng.run()
    path = tmp_path / "events.jsonl"
    eng.write_event_log(path)
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(record, sort_keys=True) for record in eng.event_log]
    assert '["ue0", "tx", -0.0]' in lines[1] and '["ue0", "tx", 2]' in lines[2]

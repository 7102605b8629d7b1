"""Deterministic discrete-event core: clock, event heap, ledgers, rng streams.

Events fire in (timestamp, kind priority, insertion order) order, so equal
timestamps resolve the same way on every run: dropouts first, then finished
transmissions, then finished computations, then round boundaries. All time is
virtual; nothing here reads the wall clock.

Money trails are kept twice on purpose: an energy ledger mutated as events
dispatch, and the charges in the event log, each on the event that made it.
Summing the log must reproduce the ledger exactly, which makes silent
double-charging detectable. `Engine.pay` is the one implementation that pays
a joule: it books the ledger, the log and the node's battery; `charge` pays
through it.

The log is kept lean: one tuple per event and one per charge, which hold
only strings and small numbers, so the garbage collector stops tracking
them. A charge is logged as the (node, category, joules) tuple it was paid
with, so a price paid again and again (a static leg's) is one object for
the whole run, and an event stores how many charges were logged since the
event before it, a small cached int, not an absolute index.
`events.jsonl` lines are formatted straight from the tuples, and
`Engine.event_log` builds dict records from them only when read.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import json
from enum import IntEnum
from math import isfinite, ulp
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import TimestampInPast


class EventKind(IntEnum):
    """Tie-break priority at equal timestamps; lower fires first."""

    DROPOUT = 0
    TX_DONE = 1
    COMPUTE_DONE = 2
    ROUND_BOUNDARY = 3


class RngStreams:
    """Named, order-independent random streams off one root seed.

    Each name maps to its own generator seeded from (root, sha256(name)), so
    drawing from one stream never perturbs another and adding a consumer
    leaves existing streams untouched.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(name.encode()).digest()
            tag = int.from_bytes(digest[:8], "big")
            gen = np.random.default_rng(np.random.SeedSequence([self.root_seed, tag]))
            self._streams[name] = gen
        return gen


_start_of = itemgetter(0)


def _scan(held, start: float, duration: float, shared_tag: str | None) -> float:
    """First fit in one pass over reservations sorted by start: the first
    instant >= start at which `duration` overlaps none of `held` but those
    sharing `shared_tag`."""
    for held_start, held_end, tag in held:
        if held_start >= start + duration:
            break  # sorted by start: neither this nor any later one overlaps
        if start < held_end and (shared_tag is None or tag != shared_tag):
            start = held_end
    return start


def _drop_finished(held: list, now: float, granted_end: float) -> None:
    """Drop from `held` the reservations that ended by `now` among those a
    one-pass first fit granting a booking up to `granted_end` reads: the
    ones starting before `granted_end`. Only those starting by `now` can
    have ended."""
    if not held or held[0][1] > now and (len(held) == 1 or held[1][0] > now):
        return  # only the first can have started by now, and it is live
    scanned = finished = 0
    for start, end, _ in held:
        if start > now or start >= granted_end:
            break
        scanned += 1
        finished += end <= now
    if finished:
        held[:scanned] = [reservation for reservation in held[:scanned] if reservation[1] > now]


class _Block:
    """One block's live reservations, indexed for first fit.

    `live` holds every reservation as (start, end, shared_tag), sorted by
    start. The untagged ones are also merged into disjoint runs (`starts`,
    `ends`; touching bookings share a run), so a first fit skips a whole
    back-to-back queue with one bisect; the tagged ones, a cluster's few,
    are also kept apart in `tagged` and scanned."""

    __slots__ = ("live", "starts", "ends", "tagged", "horizon")

    def __init__(self):
        self.live: list[tuple[float, float, str | None]] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tagged: list[tuple[float, float, str | None]] = []
        self.horizon = float("-inf")  # the latest end of any reservation

    def clear(self) -> None:
        self.live.clear()
        self.tagged.clear()
        self.starts.clear()
        self.ends.clear()

    def drop_finished(self, now: float, granted_end: float) -> None:
        """Drop the reservations that ended by `now` among those a first fit
        granting a booking up to `granted_end` reads."""
        _drop_finished(self.live, now, granted_end)
        if self.tagged:
            _drop_finished(self.tagged, now, granted_end)
        ends = self.ends
        if ends and ends[0] <= now:
            done = bisect.bisect_right(ends, now)
            del self.starts[:done], ends[:done]

    def first_fit(self, start: float, duration: float, shared_tag: str | None) -> float:
        """The first instant >= start at which the block is free for
        `duration` to a holder of `shared_tag`."""
        starts, ends = self.starts, self.ends
        if not ends or duration < ulp(ends[-1]):
            # with no runs, every reservation is tagged: one scan fits; a
            # booking too short to move `start` can fit where two bookings
            # of a run touch, which the runs do not record
            return _scan(self.live, start, duration, shared_tag)
        while True:
            run = bisect.bisect_right(ends, start)  # the first run ending after start
            while run < len(starts) and starts[run] < start + duration:
                start = ends[run]
                run += 1
            fit = _scan(self.tagged, start, duration, shared_tag) if self.tagged else start
            if fit == start:
                return start
            start = fit

    def add(self, start: float, end: float, shared_tag: str | None) -> None:
        if end > self.horizon:
            self.horizon = end
        held = (start, end, shared_tag)
        live = self.live
        if not live or live[-1][0] <= start:
            live.append(held)
        else:
            bisect.insort_right(live, held, key=_start_of)
        if shared_tag is not None:
            tagged = self.tagged
            if not tagged or tagged[-1][0] <= start:
                tagged.append(held)
            else:
                bisect.insort_right(tagged, held, key=_start_of)
            return
        starts, ends = self.starts, self.ends
        if not ends or ends[-1] < start:
            starts.append(start)
            ends.append(end)
        elif starts[-1] <= start:
            ends[-1] = max(ends[-1], end)
        else:
            # merge with every run it overlaps or touches
            first = bisect.bisect_left(ends, start)
            last = bisect.bisect_right(starts, end)
            if first < last:
                start, end = min(start, starts[first]), max(end, ends[last - 1])
            starts[first:last] = (start,)
            ends[first:last] = (end,)


class BlockLedger:
    """Time reservations on uplink resource blocks.

    A block serves one owner at a time, except reservations carrying the same
    shared tag (a power-multiplexed cluster), which may overlap each other.

    Requests arrive in non-decreasing `earliest` order (the engine clock, or
    the placement estimator's ready times), so a reservation that ended at or
    before a request can never overlap a later one. `_held` maps each block to
    its live reservations as (start, end, shared_tag) sorted by start; at each
    request, those that ended among the ones its first fit reads are dropped.
    """

    def __init__(self):
        self._blocks: dict[tuple[str, int], _Block] = {}
        self._last_request = float("-inf")

    @property
    def _held(self) -> dict[tuple[str, int], list[tuple[float, float, str | None]]]:
        return {key: block.live for key, block in self._blocks.items()}

    def reserve(self, ap_id: str, block_index: int, earliest: float, duration: float,
                owner: str, shared_tag: str | None = None,
                not_before: float | None = None) -> float:
        """Book the block for `duration` at its first free instant >=
        `not_before` (by default `earliest`, the time of the request);
        returns the granted start time. `owner` names the holder for error
        messages only."""
        if earliest < self._last_request:
            raise TimestampInPast(
                f"{owner!r} asked for block {block_index} of {ap_id!r} from {earliest} "
                f"after a request from {self._last_request}")
        self._last_request = earliest
        block = self._blocks.get((ap_id, block_index))
        if block is None:
            block = self._blocks[ap_id, block_index] = _Block()
        start = earliest if not_before is None else not_before
        if block.horizon > earliest or start + duration <= earliest:
            start = block.first_fit(start, duration, shared_tag)
            block.drop_finished(earliest, start + duration)
        elif block.live:
            # every reservation has ended: the first fit grants `start`, and
            # the scan would read, and drop, them all
            block.clear()
        block.add(start, start + duration, shared_tag)
        return start

    def book(self, ap_id: str, blocks, earliest: float, duration: float, owner: str,
             shared_tag: str | None = None) -> float:
        """Reserve all of `blocks` over one interval for one transmission,
        from the first instant >= earliest when every block is free; returns
        that start. Over several blocks, first-fit runs on each block in turn
        until the start stops moving."""
        start = earliest
        moved = len(blocks) > 1
        while moved:
            moved = False
            for block in blocks:
                fit = self._first_free(ap_id, block.index, start, duration, shared_tag)
                moved = moved or fit != start
                start = fit
        for block in blocks:
            start = self.reserve(ap_id, block.index, earliest, duration, owner, shared_tag,
                                 not_before=start)
        return start

    def _first_free(self, ap_id: str, block_index: int, start: float, duration: float,
                    shared_tag: str | None) -> float:
        """The block's first free instant >= start, booking nothing."""
        block = self._blocks.get((ap_id, block_index))
        return start if block is None else block.first_fit(start, duration, shared_tag)


_KIND_NAMES = tuple(kind.name for kind in EventKind)  # by EventKind value
_json_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__


class Engine:
    """Event loop plus batteries, energy ledger, block ledger and event log.

    The log is two flat lists: `_events` holds one (time, kind name, node,
    detail, count) tuple per event, and `_charges` one (node, category,
    joules) tuple per charge, in charge order, each the tuple it was paid
    with. An event's count is the number of charges logged since the event
    before it, so the running sum of counts up to an event is the index of
    its first charge, and its charges run to the next event's first.
    `_mark` is the number of charges logged before the last event; `run`
    keeps it in a local while it dispatches. `event_log` reads both lists
    as dict records."""

    def __init__(self, seed: int):
        self.clock = 0.0
        self.rng = RngStreams(seed)
        self.blocks = BlockLedger()
        self.batteries: dict[str, float] = {}
        self.dropped: set[str] = set()
        self.energy_ledger: dict[str, dict[str, float]] = {}
        self._events: list[tuple] = []
        self._charges: list[tuple[str, str, float]] = []
        self._mark = 0
        # records appended through `event_log`, by the number of events before them
        self._foreign: dict[int, list[dict]] = {}
        # (time, kind, seq, node, detail, callback); seq makes every key unique
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._dispatching = False

    # ---- scheduling ----

    def schedule(self, at: float, kind: EventKind, callback: Callable[[], None],
                 node: str | None = None, detail: str = "") -> None:
        if at < self.clock:
            raise TimestampInPast(f"cannot schedule {detail!r} at {at} (clock is {self.clock})")
        heapq.heappush(self._heap, (at, kind, next(self._seq), node, detail, callback))

    def schedule_after(self, delay: float, kind: EventKind, callback: Callable[[], None],
                       node: str | None = None, detail: str = "") -> None:
        self.schedule(self.clock + delay, kind, callback, node=node, detail=detail)

    def run(self) -> None:
        """Dispatch events until the heap is empty, logging each as it fires."""
        heap, events, charges = self._heap, self._events, self._charges
        pop, names, mark = heapq.heappop, _KIND_NAMES, self._mark
        self._dispatching = True
        try:
            while heap:
                at, kind, _, node, detail, callback = pop(heap)
                self.clock = at
                logged = len(charges)
                events.append((at, names[kind], node, detail, logged - mark))
                mark = logged
                callback()
        finally:
            self._mark = mark
            self._dispatching = False

    # ---- energy accounting ----

    def pay(self, entry: tuple[str, str, float]) -> None:
        """Pay one (node, category, joules) entry: record the energy a node
        spent under a category (compute, tx, rx) and take it out of the
        node's battery, if it has one (see `debit_battery`).

        The charge lands both in the running ledger and in the log, on the
        event being dispatched (outside dispatch, on a CHARGE record of its
        own), so the log stays a complete replayable trail. The log keeps
        `entry` itself, so a caller that pays one price many times passes
        one tuple.
        """
        node, category, joules = entry
        if joules < 0:
            raise ValueError(f"negative charge {joules} for {node}/{category}")
        bucket = self.energy_ledger.setdefault(node, {})
        bucket[category] = bucket.get(category, 0.0) + joules
        charges = self._charges
        if not self._dispatching:
            logged = len(charges)
            self._events.append((self.clock, "CHARGE", node, f"out-of-band {category}",
                                 logged - self._mark))
            self._mark = logged
        charges.append(entry)
        if node in self.batteries:
            self.debit_battery(node, joules)

    def charge(self, node: str, category: str, joules: float) -> None:
        """Pay `joules` spent by `node` under `category` (see `pay`)."""
        self.pay((node, category, joules))

    def recount_from_log(self) -> dict[str, dict[str, float]]:
        """Rebuild the energy ledger purely from the event log, summing its
        charges in log order."""
        charges = self._charges
        if self._foreign:
            charges = (charge for record in self.event_log for charge in record["charges"])
        rebuilt: dict[str, dict[str, float]] = {}
        for node, category, joules in charges:
            bucket = rebuilt.setdefault(node, {})
            bucket[category] = bucket.get(category, 0.0) + joules
        return rebuilt

    # ---- batteries ----

    def battery_of(self, node: str) -> float:
        return self.batteries.get(node, float("inf"))

    def can_afford(self, node: str, joules: float) -> bool:
        return node not in self.dropped and self.battery_of(node) >= joules

    def debit_battery(self, node: str, joules: float) -> float:
        """Take energy out of a device battery, flooring at zero; returns the
        remaining charge.

        Crossing zero marks the node dropped and fires a dropout event at the
        current clock (before any later-kind event at the same instant). A
        zero debit never triggers anything.
        """
        if joules < 0:
            raise ValueError(f"debit must be >= 0, got {joules!r}")
        if node not in self.batteries:
            return float("inf")  # mains-powered
        if joules == 0.0:
            return self.batteries[node]
        remaining = self.batteries[node] - joules
        self.batteries[node] = remaining if remaining > 0.0 else 0.0
        if remaining <= 0.0:
            self.mark_dropped(node, "battery exhausted")
        return self.batteries[node]

    def mark_dropped(self, node: str, reason: str,
                     callback: Callable[[], None] | None = None) -> None:
        """Drop `node` with a DROPOUT event at the current clock that carries
        `reason` and runs `callback`. A node that has already dropped gets
        the event only with a callback, so that a refusal is never lost."""
        if node in self.dropped:
            if callback is None:
                return
        else:
            self.dropped.add(node)
        self.schedule(self.clock, EventKind.DROPOUT,
                      callback if callback is not None else (lambda: None),
                      node=node, detail=reason)

    # ---- log output ----

    @property
    def event_log(self) -> EventLog:
        """The log as dict records, built when read (see `EventLog`)."""
        return EventLog(self)

    def _entries(self):
        """(record, first, end) for each record of the log, in order: an
        event tuple with the bounds of its charges in `_charges`, or a record
        appended from outside with (None, None). Each event's first charge
        is the running sum of the counts up to it."""
        events, foreign = self._events, self._foreign
        firsts = itertools.accumulate(map(itemgetter(4), events))
        bounds = itertools.pairwise(itertools.chain(firsts, (len(self._charges),)))
        for position, (event, (first, end)) in enumerate(zip(events, bounds)):
            if foreign:
                yield from ((record, None, None) for record in foreign.get(position, ()))
            yield event, first, end
        yield from ((record, None, None) for record in foreign.get(len(events), ()))

    def write_event_log(self, path, meta: dict | None = None) -> None:
        """One JSON object per line, keys sorted: the bytes of
        `json.dumps(record, sort_keys=True)` for each record of `event_log`,
        written line by line. See `_event_line`; a record it cannot format
        goes through the encoder."""
        encode = json.JSONEncoder(sort_keys=True).encode
        charges, formatted = self._charges, {}
        with open(path, "w") as fh:
            write = fh.write
            if meta is not None:
                write(encode({"kind": "META", "charges": [], **meta}) + "\n")
            for record, first, end in self._entries():
                if first is None:
                    write(encode(record) + "\n")
                    continue
                own = charges[first:end]
                line = _event_line(record, own, formatted)
                write(encode(_as_record(record, own)) + "\n" if line is None else line)


def _as_record(event: tuple, charges: list) -> dict:
    """The dict record of one event tuple and its charges."""
    at, kind, node, detail, _ = event
    return {"time": at, "kind": kind, "node": node, "detail": detail,
            "charges": [list(charge) for charge in charges]}


def _event_line(event: tuple, charges: list, formatted: dict) -> str | None:
    """`json.dumps(_as_record(event, charges), sort_keys=True)` and a newline,
    without an encoder call, for str node, detail and charge names and finite
    float time and joules; None for anything else. It escapes and prints with
    what json uses: `encode_basestring_ascii` and `float.__repr__`. Kind
    names are plain ASCII and are written as they are. `formatted` keeps
    each nonzero charge's text by value, since a leg's price repeats (a
    zero is not kept: 0.0 and -0.0 are equal but print apart)."""
    at, kind, node, detail, _ = event
    if not (type(at) is float and isfinite(at) and type(node) is str and type(detail) is str):
        return None
    parts = []
    for charge in charges:
        who, category, joules = charge
        if not (type(joules) is float and isfinite(joules)
                and type(who) is str and type(category) is str):
            return None
        text = formatted.get(charge)
        if text is None:
            text = f"[{_json_str(who)}, {_json_str(category)}, {_float_repr(joules)}]"
            if joules:
                formatted[charge] = text
        parts.append(text)
    return (f'{{"charges": [{", ".join(parts)}], "detail": {_json_str(detail)}, '
            f'"kind": "{kind}", "node": {_json_str(node)}, "time": {_float_repr(at)}}}\n')


class EventLog(list):
    """A read-only view of an engine's event log as dict records built on
    demand: {"time", "kind", "node", "detail", "charges"}, each charge a
    [node, category, joules] list. It is a list so that `json.dumps` takes
    it (the encoder walks a list subclass through `__iter__`); its own
    storage stays empty. `append` adds a record from outside, which the log
    keeps and writes as it is."""

    __slots__ = ("_engine",)

    def __init__(self, engine: Engine):
        self._engine = engine

    def __len__(self) -> int:
        engine = self._engine
        return len(engine._events) + sum(map(len, engine._foreign.values()))

    def __iter__(self):
        charges = self._engine._charges
        for record, first, end in self._engine._entries():
            yield record if first is None else _as_record(record, charges[first:end])

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __ne__(self, other) -> bool:
        return not self == other

    def __repr__(self) -> str:
        return f"EventLog({list(self)!r})"

    def append(self, record: dict) -> None:
        engine = self._engine
        engine._foreign.setdefault(len(engine._events), []).append(record)


def _on_records(name: str):
    def read(self, *args):
        return getattr(list(self), name)(*args)
    return read


def _refuse(name: str):
    def refuse(self, *args):
        raise TypeError(f"the event log is read-only: no {name}")
    return refuse


# list's own methods would read or change the view's empty storage
for _name in ("__contains__", "__reversed__", "__add__", "__mul__", "__rmul__", "__lt__",
              "__le__", "__gt__", "__ge__", "count", "index", "copy"):
    setattr(EventLog, _name, _on_records(_name))
for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "extend", "insert",
              "pop", "remove", "clear", "sort", "reverse"):
    setattr(EventLog, _name, _refuse(_name))
del _name

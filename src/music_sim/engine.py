"""Deterministic discrete-event core: clock, event heap, ledgers, rng streams.

Events fire in (timestamp, kind priority, insertion order) order, so equal
timestamps resolve the same way on every run: dropouts first, then finished
transmissions, then finished computations, then round boundaries. All time is
virtual; nothing here reads the wall clock.

Money trails are kept twice on purpose: an energy ledger mutated as events
dispatch, and per-event charge lists in the event log. Summing the log must
reproduce the ledger exactly, which makes silent double-charging detectable.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import json
from dataclasses import dataclass, field
from enum import IntEnum
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


@dataclass
class Event:
    time: float
    kind: EventKind
    seq: int
    node: str | None
    detail: str
    callback: Callable[[], None] = field(repr=False)


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


class BlockLedger:
    """Time reservations on uplink resource blocks.

    A block serves one owner at a time, except reservations carrying the same
    shared tag (a power-multiplexed cluster), which may overlap each other.

    Requests arrive in non-decreasing `earliest` order (the engine clock, or
    the placement estimator's ready times), so a reservation that ended at or
    before a request can never overlap a later one and is dropped. Each block
    keeps its live reservations as (start, end, shared_tag) sorted by start.
    """

    def __init__(self):
        self._held: dict[tuple[str, int], list[tuple[float, float, str | None]]] = {}
        self._last_request = float("-inf")

    def reserve(self, ap_id: str, block_index: int, earliest: float, duration: float,
                owner: str, shared_tag: str | None = None) -> float:
        """Book the block for `duration` at the first free instant >= earliest;
        returns the granted start time. `owner` names the holder for error
        messages only."""
        if earliest < self._last_request:
            raise TimestampInPast(
                f"{owner!r} asked for block {block_index} of {ap_id!r} from {earliest} "
                f"after a request from {self._last_request}")
        self._last_request = earliest
        live = self._held.setdefault((ap_id, block_index), [])
        start = earliest
        kept = []
        scanned = len(live)
        for i, held in enumerate(live):
            held_start, held_end, tag = held
            if held_start >= start + duration:
                # sorted by start: neither this nor any later one overlaps
                scanned = i
                break
            if held_end <= earliest:
                continue  # finished
            kept.append(held)
            if start < held_end and (shared_tag is None or tag != shared_tag):
                start = held_end
        if len(kept) != scanned:
            live[:scanned] = kept
        bisect.insort_right(live, (start, start + duration, shared_tag), key=_start_of)
        return start

    def book(self, ap_id: str, blocks, earliest: float, duration: float, owner: str,
             shared_tag: str | None = None) -> float:
        """Reserve each of `blocks` for one transmission; it starts once every
        block is free, at the returned time."""
        start = earliest
        for block in blocks:
            start = max(start, self.reserve(ap_id, block.index, earliest, duration,
                                            owner, shared_tag))
        return start


class Engine:
    """Event loop plus batteries, energy ledger, block ledger and event log."""

    def __init__(self, seed: int):
        self.clock = 0.0
        self.rng = RngStreams(seed)
        self.blocks = BlockLedger()
        self.batteries: dict[str, float] = {}
        self.dropped: set[str] = set()
        self.energy_ledger: dict[str, dict[str, float]] = {}
        self.event_log: list[dict] = []
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._active_record: dict | None = None

    # ---- scheduling ----

    def schedule(self, at: float, kind: EventKind, callback: Callable[[], None],
                 node: str | None = None, detail: str = "") -> Event:
        if at < self.clock:
            raise TimestampInPast(f"cannot schedule {detail!r} at {at} (clock is {self.clock})")
        event = Event(time=at, kind=kind, seq=next(self._seq), node=node,
                      detail=detail, callback=callback)
        heapq.heappush(self._heap, (at, int(kind), event.seq, event))
        return event

    def schedule_after(self, delay: float, kind: EventKind, callback: Callable[[], None],
                       node: str | None = None, detail: str = "") -> Event:
        return self.schedule(self.clock + delay, kind, callback, node=node, detail=detail)

    def run(self) -> None:
        """Dispatch events until the heap is empty."""
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            self.clock = event.time
            record = {"time": event.time, "kind": event.kind.name, "node": event.node,
                      "detail": event.detail, "charges": []}
            self.event_log.append(record)
            self._active_record = record
            try:
                event.callback()
            finally:
                self._active_record = None

    # ---- energy accounting ----

    def charge(self, node: str, category: str, joules: float) -> None:
        """Record energy spent by a node under a category (compute, uplink, ...).

        The charge lands both in the running ledger and in the event record
        being dispatched, so the log stays a complete replayable trail.
        """
        if joules < 0:
            raise ValueError(f"negative charge {joules} for {node}/{category}")
        bucket = self.energy_ledger.setdefault(node, {})
        bucket[category] = bucket.get(category, 0.0) + joules
        if self._active_record is None:
            record = {"time": self.clock, "kind": "CHARGE", "node": node,
                      "detail": f"out-of-band {category}", "charges": []}
            self.event_log.append(record)
            record["charges"].append([node, category, joules])
        else:
            self._active_record["charges"].append([node, category, joules])

    def recount_from_log(self) -> dict[str, dict[str, float]]:
        """Rebuild the energy ledger purely from the event log."""
        rebuilt: dict[str, dict[str, float]] = {}
        for record in self.event_log:
            for node, category, joules in record["charges"]:
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
        self.batteries[node] = max(0.0, remaining)
        if remaining <= 0.0:
            self.mark_dropped(node, "battery exhausted")
        return self.batteries[node]

    def mark_dropped(self, node: str, reason: str,
                     callback: Callable[[], None] | None = None) -> None:
        if node in self.dropped:
            return
        self.dropped.add(node)
        self.schedule(self.clock, EventKind.DROPOUT,
                      callback if callback is not None else (lambda: None),
                      node=node, detail=reason)

    # ---- log output ----

    def write_event_log(self, path, meta: dict | None = None) -> None:
        """One JSON object per line, keys sorted: the bytes of
        `json.dumps(record, sort_keys=True)`, from one encoder."""
        encode = json.JSONEncoder(sort_keys=True).encode
        with open(path, "w") as fh:
            if meta is not None:
                fh.write(encode({"kind": "META", "charges": [], **meta}) + "\n")
            for record in self.event_log:
                fh.write(encode(record) + "\n")

"""Span recorder for the traced benchmark run.

The tracer replaces the attributes that callers look up (module functions
and class methods of the `music_sim` package) with wrappers that record one
span per call: name, start, end, parent span and segment. A segment is one
set-up or one operation of the closed loop. Spans stay in flat arrays in
memory until the run ends; per-layer self time is derived from them
afterwards (a span's duration minus the durations of its direct children).

Span names are `<layer>.<function>`, where the layer is named after the
package module it measures (`mlp`, `engine`, `radio`, ...); the self time of
the callbacks the engine dispatches counts to `protocols`. `bench.setup` and
`bench.op` are the benchmark's own root spans; their self time is host time
that no layer accounts for.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.segment = array("i")
        self._stack = [-1]
        self._segment = -1
        self._patches: list[tuple[object, str, object]] = []
        # boundary facts that span timings cannot give, keyed by segment
        self._notes: dict[tuple[int, str], list] = {}

    # ---- recording ----

    def name(self, text: str) -> int:
        nid = self._name_ids.get(text)
        if nid is None:
            nid = self._name_ids[text] = len(self.names)
            self.names.append(text)
        return nid

    def enter(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.segment.append(self._segment)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    def note(self, key: str, value) -> None:
        self._notes.setdefault((self._segment, key), []).append(value)

    def notes(self, segment: int, key: str) -> list:
        return self._notes.get((segment, key), [])

    def run_segment(self, segment: int, root: str, fn, *args):
        """Call fn(*args) as segment `segment` under a root span."""
        self._segment = segment
        index = self.enter(self.name(root))
        try:
            return fn(*args)
        finally:
            self.exit(index)
            self._segment = -1

    # ---- wrapping ----

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Record a span around every call of owner.attr.

        `on_call(args, kwargs, result)` runs inside the span after a call
        returns, to note boundary facts such as a granted start time.
        """
        original = owner.__dict__[attr]
        nid = self.name(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.enter(nid)
            try:
                result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            finally:
                tracer.exit(index)

        self._replace(owner, attr, traced)

    def wrap_schedule(self, engine_cls) -> None:
        """Engine.schedule, plus a span around each callback it receives: the
        callback runs later, inside Engine.run."""
        original = engine_cls.__dict__["schedule"]
        nid, cb_nid = self.name("engine.schedule"), self.name("protocols.callback")
        tracer = self

        @functools.wraps(original)
        def traced(eng, at, kind, callback, *args, **kwargs):
            def traced_callback():
                cb_index = tracer.enter(cb_nid)
                try:
                    callback()
                finally:
                    tracer.exit(cb_index)

            index = tracer.enter(nid)
            try:
                return original(eng, at, kind, traced_callback, *args, **kwargs)
            finally:
                tracer.exit(index)

        self._replace(engine_cls, "schedule", traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- analysis ----

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the recorded spans; record nothing after this."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "segment": np.frombuffer(self.segment, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-segment sums of span self time and call counts, by span name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        layers = sorted({n.split(".", 1)[0] for n in self.names})
        layer_of_name = np.array([layers.index(n.split(".", 1)[0]) for n in self.names],
                                 dtype=np.int32)
        name_id, parent, segment = a["name_id"], a["parent"], a["segment"]
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(name_id))
        self_time = duration - child
        layer_of = layer_of_name[name_id]
        # a call "enters" a layer when its caller belongs to another layer
        entering = ~has_parent | (layer_of != layer_of[np.maximum(parent, 0)])
        inside = segment >= 0
        n_names = len(self.names)
        shape = (int(segment.max()) + 1 if inside.any() else 0, n_names)
        key = segment[inside].astype(np.int64) * n_names + name_id[inside]

        def table(keys, weights=None):
            return np.bincount(keys, weights=weights,
                               minlength=shape[0] * n_names).reshape(shape)

        self.self_sum = table(key, self_time[inside])
        self.calls = table(key)
        self.entering_calls = table(key[entering[inside]])
        self._name_id, self._segment, self._duration = name_id, segment, duration

    def ids(self, prefix: str) -> list[int]:
        return [i for i, n in enumerate(self.names)
                if n == prefix or n.startswith(prefix + ".")]

    def self_s(self, segment: int, prefix: str) -> float:
        return float(self.self_sum[segment, self.ids(prefix)].sum())

    def count(self, segment: int, prefix: str, entering: bool = False) -> int:
        calls = self.entering_calls if entering else self.calls
        return int(calls[segment, self.ids(prefix)].sum())

    def total_self(self, segment: int) -> float:
        return float(self.self_sum[segment].sum())

    def durations(self, segments: list[int], prefixes: list[str]) -> np.ndarray:
        ids = [i for p in prefixes for i in self.ids(p)]
        mask = np.isin(self._segment, segments) & np.isin(self._name_id, ids)
        return self._duration[mask]

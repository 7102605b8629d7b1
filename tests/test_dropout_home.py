"""Every dropout goes through the engine: `Engine.can_afford` decides whether
a device can pay, and `Engine.mark_dropped` schedules every DROPOUT event.
No module of `src/` but `engine.py` names the DROPOUT kind, so a refusal
cannot bypass the engine's drop set or lose its event."""

from __future__ import annotations

import ast
from pathlib import Path

import music_sim
from music_sim.engine import Engine

PACKAGE = Path(music_sim.__file__).parent


def dropout_names(package: Path) -> list[str]:
    """`module:line` of every `.DROPOUT` attribute or `"DROPOUT"` constant
    outside `engine.py`."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "DROPOUT"
                    or isinstance(node, ast.Constant) and node.value == "DROPOUT"):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_the_engine_names_the_dropout_kind():
    assert dropout_names(PACKAGE) == []


def _dropouts(eng: Engine) -> list[tuple]:
    return [(r["time"], r["node"], r["detail"]) for r in eng.event_log if r["kind"] == "DROPOUT"]


def test_a_refusal_by_a_dropped_node_still_gets_its_event():
    """With a callback, a node that has already dropped gets a DROPOUT event
    that carries the new reason and runs the callback."""
    eng = Engine(seed=0)
    eng.mark_dropped("ue0", "battery exhausted")
    eng.run()
    calls = []
    eng.mark_dropped("ue0", "already dropped", lambda: calls.append(eng.clock))
    eng.run()
    assert calls == [0.0]
    assert _dropouts(eng) == [(0.0, "ue0", "battery exhausted"), (0.0, "ue0", "already dropped")]
    assert eng.dropped == {"ue0"}


def test_a_second_drop_without_a_callback_schedules_nothing():
    eng = Engine(seed=0)
    eng.mark_dropped("ue0", "battery exhausted")
    eng.mark_dropped("ue0", "switched off")
    eng.run()
    assert _dropouts(eng) == [(0.0, "ue0", "battery exhausted")]

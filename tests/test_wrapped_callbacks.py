"""A run whose event callbacks are each wrapped in another no-argument
callable, as the benchmark's tracer wraps them to time them, writes the
same artifacts as a plain run: nothing a runner does may depend on the
identity of the callback the engine hands back."""

from pathlib import Path

import pytest

import music_sim
from music_sim.cli import EXIT_OK, main
from music_sim.engine import Engine

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"
ARTIFACTS = ("trace.csv", "summary.json", "events.jsonl")


def _artifacts(name: str, out: Path) -> dict[str, bytes]:
    code = main(["run", "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                 "--out", str(out), "--event-log"])
    assert code == EXIT_OK
    return {artifact: (out / artifact).read_bytes() for artifact in ARTIFACTS}


@pytest.mark.parametrize("name", ["fl_edge", "sl_homogeneous", "sl_heterogeneous_d2d",
                                  "fedsplit_nested"])
def test_wrapped_callbacks_write_the_same_artifacts(name, tmp_path, monkeypatch):
    plain = _artifacts(name, tmp_path / "plain")
    schedule = Engine.schedule

    def wrapping(eng, at, kind, callback, *args, **kwargs):
        def wrapped():
            callback()
        return schedule(eng, at, kind, wrapped, *args, **kwargs)

    monkeypatch.setattr(Engine, "schedule", wrapping)
    assert _artifacts(name, tmp_path / "wrapped") == plain

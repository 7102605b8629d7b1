"""Two refusals that the rest of the suite never reaches: an output layer too
narrow for a class label, and a homogeneous split-learning iteration whose
leg is refused after its FedSplit round has closed."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import music_sim
from music_sim import mlp
from music_sim.engine import Engine
from music_sim.protocols import SlSession, TrainingConfig, _SlHomoRunner, _SlIteration
from music_sim.radio import AccessScheme, SchemeKind
from music_sim.scenario import validate_document

from conftest import blob_data, simple_radio, star_topology

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_an_output_width_of_one_is_a_named_schema_error(name):
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    doc["ml"]["widths"][-1] = 1
    assert validate_document(doc).lines() == [
        "error [schema]: output width must be >= 2 (one unit per class)"]


def _refused_iteration(close: bool):
    """Iteration 0 on ue0, whose battery cannot pay its first leg, with a
    guard that reports the round closed from the refusal on if `close`:
    (iteration, its calls, its dropouts, the event log)."""
    eng = Engine(seed=0)
    eng.batteries["ue0"] = 1e-12
    session = SlSession(
        server="ap0", clients=["ue0", "ue1"], variant="homogeneous", iterations=1,
        model=mlp.init_model([8, 16, 12, 4], "ce", seed=3),
        scheme=AccessScheme(kind=SchemeKind.OMA_GRANT_BASED, signalling_delay=0.01),
        config=TrainingConfig(lr=0.05, batch_size=16, cycles_per_mac=1.0, eval_every=0),
        data=blob_data(2), cut_index=2)
    runner = _SlHomoRunner(session, star_topology(2), simple_radio(), eng)
    closed, calls, dropouts = [], [], []
    iteration = _SlIteration(runner, 0, dropouts, calls.append, calls.append,
                             lambda: bool(closed))
    if close:
        closed.append(True)
    eng.run()
    log = [(r["kind"], r["node"], r["detail"]) for r in eng.event_log]
    return iteration, calls, dropouts, log


def test_a_refusal_after_the_round_closed_is_left_to_the_round():
    """The guard stops the iteration: no retry, no abort, no dropout listed
    (the FL round's own sweep lists its dropouts)."""
    iteration, calls, dropouts, log = _refused_iteration(close=True)
    assert log == [("DROPOUT", "ue0", "insufficient battery")]
    assert calls == [] and dropouts == [] and not iteration.retried


def test_a_refusal_while_the_round_is_open_retries_with_the_next_client():
    iteration, calls, dropouts, log = _refused_iteration(close=False)
    assert log[0] == ("DROPOUT", "ue0", "insufficient battery")
    assert dropouts == ["ue0"] and iteration.retried and iteration.client == "ue1"
    assert len(calls) == 1 and isinstance(calls[0], float)

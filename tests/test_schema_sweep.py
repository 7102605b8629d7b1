"""The parser's verdicts on a sweep of broken documents, pinned by one digest.

Every key path of the four bundled documents (the first two entries of each
array) is set in turn to each of `BAD_VALUES`, and each object key is also
deleted: 5,794 documents. The sha256 of the list of their
`validate_document(doc).lines()` must equal `SWEEP_DIGEST`, so a refactor of
the schema or of a section's read keeps every error text and which error a
document reports first. A change that moves the digest changes what
`validate` says; it has to say why and record the new digest.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import music_sim
from music_sim.scenario import validate_document

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"

BAD_VALUES = ("x", None, -1, -1.5, 0, 1.5, True, [], {}, [1, "a"], 2**70, float("nan"))
_DELETE = object()

SWEEP_SIZE = 5794
SWEEP_DIGEST = "9c44fa7b56b80d9a8472cd30eab5ceb334bea87281b6145c27e69e27f5cd69e1"


def _paths(node, path=()):
    """Every key path below `node`, parents before children; only the first
    two entries of an array."""
    items = (node.items() if isinstance(node, dict)
             else list(enumerate(node))[:2] if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _sweep():
    for source in sorted(SCENARIO_DIR.glob("*.json")):
        doc = json.loads(source.read_text())
        for path in _paths(doc):
            values = BAD_VALUES + ((_DELETE,) if isinstance(path[-1], str) else ())
            for value in values:
                yield _mutated(doc, path, value)


def test_validate_verdicts_on_the_mutation_sweep_are_pinned():
    verdicts = [validate_document(doc).lines() for doc in _sweep()]
    assert len(verdicts) == SWEEP_SIZE
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == SWEEP_DIGEST

"""Byte-identical artifacts for the bundled scenarios.

Each bundled scenario runs through `music-sim run --event-log`, and the
sha256 of every artifact must equal the digest recorded here. A change that
moves one of them changes results; it has to say why and record the new
digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

import music_sim
from music_sim.cli import EXIT_OK, main

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"

DIGESTS = {
    "fl_edge": {
        "trace.csv": "ab005cccfdc7ab0da7ff8ee6e5b47a30f93d275515c2eb7cc13c875a83429926",
        "summary.json": "676ef2803681aefdc389247aad830476c256e6114638697fadabd1a393221f55",
        "events.jsonl": "23a8ce4eb4fca68849d70ab053f18f222c4c8f7356fae1f40d21e1f1eb827093",
    },
    "sl_homogeneous": {
        "trace.csv": "e8ff0b31c20020235351f951c56f36efa10c709165f2b98171ce5597d6c46613",
        "summary.json": "26e380847984206c2189d6882e182bd57aa43df0500fe234c4e701427c5d811e",
        "events.jsonl": "79873ec36c989fa099fb749ee3cd254dca9dcac6cbec4089c037e92a4980bdd1",
    },
    "sl_heterogeneous_d2d": {
        "trace.csv": "b879f0d17d68c53f016116b534e7075903944d37d41754a264bce9e5d9dc3085",
        "summary.json": "5e85bfa7a4faaa0475059aa14235a794f87b085b028ebcf9b13ef3438984e1ac",
        "events.jsonl": "a538c95188726de6c80a99ab44fbec4310b79c3b80875c74b490efa24e061dd1",
    },
    "fedsplit_nested": {
        "trace.csv": "db8b3efc870ce9d9bbf23db36618150c9336559238108ffcae2e47c4f721b837",
        "summary.json": "299f8cb90727deff8d67c43eecf094880e72ac442f0880631d6bf31e5c908508",
        "events.jsonl": "8ce3d8e8c87c1012b68335e165b470905abb7ddceb24ee91ed2cbd50ad101682",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_scenario_artifacts_are_byte_identical(name, tmp_path):
    code = main(["run", "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                 "--out", str(tmp_path), "--event-log"])
    assert code == EXIT_OK
    got = {artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
           for artifact in DIGESTS[name]}
    assert got == DIGESTS[name]


# The bundled scenarios served from `fog0` instead of their access point:
# every model, delta and activation to or from the server also crosses the
# fog0-ap0 backhaul pipe (100, 95, 72 and 48 `bh:` events).
FOG_SERVED = {
    "fl_edge": {
        "trace.csv": "834c81aaa75d0f79828aca2b6903f14a2741e83b1a3e3c3046e7b3442e54176b",
        "events.jsonl": "dbe1e2c49b802e26aa26c41d687cb6d134d04abe3c41b159a93209f7a8e1a7b6",
    },
    "sl_homogeneous": {
        "trace.csv": "5347197faadc360b93902eea0b007afc4f1389e8d50c5cffbab2d2f9abe77b55",
        "events.jsonl": "238960ec9c992d7b57b5aa2e3adfc7abeb638bebf5100edd361666f0a31bdaed",
    },
    "sl_heterogeneous_d2d": {
        "trace.csv": "7dbcc2eaa4f45d6af3a6cae1dd7ceae99453aff93590565e04148fbc1051c7b5",
        "events.jsonl": "8449572518b2d4549cf24cbd8ebfaf3b0e8eea6bf1af048f7f5ac6a67ed102c4",
    },
    "fedsplit_nested": {
        "trace.csv": "c252293f66d409346d8307c3dcb31bab1faedfa8d01f21e6cadaf818b8821651",
        "events.jsonl": "39b526b1b028490efca43b81f5c3474e7b416ecfa4b9ce54f87798c8d0938af4",
    },
}


@pytest.mark.parametrize("name", sorted(FOG_SERVED))
def test_fog_served_artifacts_are_byte_identical(name, tmp_path):
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    doc["protocol"]["server"] = "fog0"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--out", str(out), "--event-log"])
    assert code == EXIT_OK
    got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
           for artifact in FOG_SERVED[name]}
    assert got == FOG_SERVED[name]

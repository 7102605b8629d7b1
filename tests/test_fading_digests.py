"""Byte-identical artifacts on fading channels.

Every bundled scenario has static channels, which draw no gains and no
outages. Here every device's channel varies (`channel_variance` 0.3) and
outages are on (`dropout_slope` 0.2), so the gain and outage draws of the
named random streams are pinned too: moving one of them, or a stream name,
changes these digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

import music_sim
from music_sim.cli import EXIT_ABORT, EXIT_OK, main
from music_sim.errors import SessionAborted
from music_sim.scenario import assemble, parse_config

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"

# name -> (exit code, records, random streams created, artifact digests)
FADING = {
    "fl_edge": (EXIT_OK, 10, 82, {
        "trace.csv": "c6176a56eb505647e4e111ec74a44b44fb777ba44f3bff5929860b7a24d11959",
        "events.jsonl": "a3f2b1ca137a674cece241874147b959c0262af16e464c5ba3121f8cf8375f6c",
    }),
    # a channel outage takes ue1 out in iteration 11
    "sl_heterogeneous_d2d": (EXIT_ABORT, 11, 45, {
        "trace.csv": "78ac8acd30710622b1e5521bb1454a7493342dec8c713d6dc05564c0924bdc9a",
        "events.jsonl": "3b0dc21fde16dc8d8a8e6afc69a4570579b67a429941715145fc7876a580cb70",
    }),
    # ue2 and ue3 drop on outages, so the retry and the server's reseed run
    "sl_homogeneous": (EXIT_OK, 24, 54, {
        "trace.csv": "bb55d6c2356fdc8a2e71c4d90eb624183872d6f9444387ffe462cb5070237be1",
        "events.jsonl": "4192ffddbe4db668de4900572a39f7ff4cd9a81213f1f306a2815d473c8ffafa",
    }),
    "fedsplit_nested": (EXIT_OK, 8, 48, {
        "trace.csv": "6cc115716f73e8ebf1788d5cc0c8cd6cc43d5e8021e8f9f92fc9f9d4bbc193ac",
        "events.jsonl": "c503f261fd1fb556941dd82356951c0c91c334aa979ce9172a47f9694da87f09",
    }),
}


def _fading_doc(name: str) -> dict:
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for ue in doc["nodes"]["ue"]:
        ue["channel_variance"] = 0.3
    doc["protocol"]["dropout_slope"] = 0.2
    return doc


@pytest.mark.parametrize("name", sorted(FADING))
def test_fading_channel_artifacts_are_byte_identical(name, tmp_path):
    code, records, streams, digests = FADING[name]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_fading_doc(name)))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out),
                 "--event-log"]) == code
    got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
           for artifact in digests}
    assert got == digests

    runtime = assemble(parse_config(_fading_doc(name)))
    try:
        trace = runtime.execute()
    except SessionAborted as exc:
        trace = exc.trace
    assert len(trace.records) == records
    assert (trace.status == "completed") == (code == EXIT_OK)
    assert len(runtime.engine.rng._streams) == streams

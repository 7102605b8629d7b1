"""Byte-identical runs along the refusal paths of every runner.

Each case runs a bundled scenario with some device batteries cut to a share
of what the device spends in the full run, or with a round deadline set to a
share of the full run's slowest round. Every case drops a device or aborts
the run, and its status, record count and the sha256 of its event log and
trace rows are pinned here: a change to how a runner refuses, retries, joins
or stops a leg moves them.
"""

import hashlib
import json
from pathlib import Path

import pytest

import music_sim
from music_sim.errors import SessionAborted
from music_sim.scenario import assemble, parse_config

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"

# id: (scenario, battery shares, deadline share or None,
#      status, records, event-log sha256, trace-rows sha256)
CASES = {
    "hetero-ue0-0.3": (
        "sl_heterogeneous_d2d", {"ue0": 0.3}, None,
        "aborted: iteration 7: 1 clients left for 2 segments", 7,
        "f2a43b7b85bd5b4829afd1a8412d02babdf5272d19104d1cd687aaa9a34c29bf",
        "9caa4dd34d4421c502e134f528141c581b6fd3dcae7bf8442d4aed57f6958f6f"),
    "hetero-ue0-0.6": (
        "sl_heterogeneous_d2d", {"ue0": 0.6}, None,
        "aborted: iteration 14: 1 clients left for 2 segments", 14,
        "7d05987927bddd0eacb232bf219d1d3662cf104f633dd510227898eb81c16ae0",
        "dc11c97ac6833c2c0fba04348c2f4b670378917c90d8acd27dac6fa73cd23ff0"),
    "hetero-ue1-0.3": (
        "sl_heterogeneous_d2d", {"ue1": 0.3}, None,
        "aborted: iteration 7: 1 clients left for 2 segments", 7,
        "b3ef8557f030e4696cdbf810fc4ce6364217457d21ed6eeb9da1975de3f547f0",
        "9caa4dd34d4421c502e134f528141c581b6fd3dcae7bf8442d4aed57f6958f6f"),
    "hetero-ue1-0.6": (
        "sl_heterogeneous_d2d", {"ue1": 0.6}, None,
        "aborted: iteration 14: 1 clients left for 2 segments", 14,
        "98ab85b0425a0eb6f70ff149e2e90e90c192b9e523383e10d6bd39142b52950f",
        "dc11c97ac6833c2c0fba04348c2f4b670378917c90d8acd27dac6fa73cd23ff0"),
    # iteration 5's back-pass D2D hop ue0 -> ue1 finds both ends short, ue0
    # of its tx and ue1 of its rx: the sender, checked first, refuses
    "hetero-both-ends-short": (
        "sl_heterogeneous_d2d", {"ue0": 0.249796, "ue1": 0.234285}, None,
        "aborted: iteration 5: 1 clients left for 2 segments", 5,
        "d7acea80c3345e45a4286cec2f27bb78846e66bd4643172267cd5a50c1051d13",
        "b8518a3a2a65dbfa03af420f20fd955b40c569d52ed128469c060ac78b142ae6"),
    "homo-retry": (
        "sl_homogeneous", {"ue2": 0.5}, None,
        "completed", 24,
        "387992c325168acf21dd6eb01b70a3dfbf26f2d56c9f66551ed6e124e557c5b7",
        "693b683e446f0a0842f7513daf7472c87711ce82d1ab806ade774bea8d0bf181"),
    "homo-holder-refuses": (
        "sl_homogeneous", {"ue1": 0.3}, None,
        "completed", 24,
        "b4afa55480eaf0186953344f81e758756e41ed053117b9591be57c2fc37d1943",
        "149ee9372e80bacc31caaec109967768f5c9f572aff09555639d5eb04265742e"),
    "homo-two-failures": (
        "sl_homogeneous", {"ue1": 0.2, "ue2": 0.4, "ue3": 0.6}, None,
        "aborted: two consecutive client failures", 10,
        "d6dde319402041688126382e300c0497c1cd211b3af2f2078a4a068d213070db",
        "525dc7dda1ea23459837d513b0c44978c3b22bb6ae07de9f119fbf219fd9aa68"),
    "homo-no-clients-left": (
        "sl_homogeneous", {"ue1": 0.2, "ue2": 0.2, "ue3": 0.2}, None,
        "aborted: iteration 6: no clients left", 6,
        "1c61d5e35b83716e628661432fa6a6978ff41411380ed0364f039b8722afb0ee",
        "d29e4c38fa08c24c214bcabcfc40251a43b27965641bf945e48f4f41297dc326"),
    "fedsplit-master-0.5": (
        "fedsplit_nested", {"ue0": 0.5}, None,
        "completed", 8,
        "c49d4e1997223e06f545a85ecba543014dde693043f0d1bcc7110b653ed11bc1",
        "2a5dcf94f33aeb7be490428288d2d90a5676a3a7b5252f593385426ad5622ddb"),
    "fedsplit-slaves-out": (
        "fedsplit_nested", {"ue1": 0.3, "ue2": 0.5}, None,
        "completed", 8,
        "8ff967180e372f13bb9ed1f28628ed132d5d3593243d90efd666786b2f71fc57",
        "d59f6751c3997e2bf7161946f1158aec06d97162fd9afd22c8918eb93d7d2f42"),
    "fedsplit-slave-and-client": (
        "fedsplit_nested", {"ue1": 0.4, "ue4": 0.6}, None,
        "completed", 8,
        "aa9567a155bb2d8fbc0087c73cfd3a863245fea46c2b9b7ebf756aee9641aba2",
        "01c1d157f8a5636ac928736f239d422739899d501f88dd8bc099c9094d9c78ff"),
    "fedsplit-deadline-0.5": (
        "fedsplit_nested", {}, 0.5,
        "aborted: round 0: zero surviving uploads", 0,
        "774dfdcc00ee6f5186d75fe0d617a11a3091ebec8ca3eeeb79c80b245031c54e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fedsplit-deadline-0.8": (
        "fedsplit_nested", {"ue1": 0.5}, 0.8,
        "completed", 8,
        "6d7d0fd90b217111a2aa5eec2586cac9dc2289738f3691b04fc2639ccf6fd266",
        "b9405aa500b0d8e2685ce870a48b3d5d71e43f00a056b09432e9faba5b9864cd"),
    "fedsplit-deadline-0.7": (
        "fedsplit_nested", {"ue1": 0.5}, 0.7,
        "completed", 8,
        "f0d26acf20b3cc6dbfe35a53a5f2e29dccb9567097816011c5b90a1f01343e72",
        "9015b4fbf08792138cfda02abfb8a81cac1e5af04ace854c60edc22c1151bbb5"),
    "fl-deadline-0.3": (
        "fl_edge", {}, 0.3,
        "aborted: round 0: zero surviving uploads", 0,
        "13b48747cc6da29d05bf8106826f92144eace28e4bed19628a57aef62e149fd6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fl-deadline-0.9-cuts": (
        "fl_edge", {"ue3": 0.5, "ue0": 0.45}, 0.9,
        "completed", 10,
        "051d1ed560b3da1944c39c334f5b89ae217a087b17ec2be14bbd30bd732b45a0",
        "051313e3b6cc849863c6c0785f89d84e1bfd70259e546e7a1b1c58d3edbef675"),
    "fl-exhausted": (
        "fl_edge", {"ue0": 0.3, "ue4": 0.7}, None,
        "completed", 10,
        "d5284b29f9c2553b85679e7d5a7d3b3f328821ac5d3b02c72577ce9881828dd2",
        "c2adf1dcd860ec7206ea3eee658bc3143a68cb87cd91817ccd0ce3f6e6852a9f"),
}


def _run(name: str, batteries: dict[str, float], **protocol):
    """(engine, trace) of a bundled scenario with some device batteries and
    protocol settings replaced; the trace is the partial one of an abort."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    for ue in doc["nodes"]["ue"]:
        ue["battery"] = batteries.get(ue["id"], ue["battery"])
    doc["protocol"].update(protocol)
    runtime = assemble(parse_config(doc))
    try:
        return runtime.engine, runtime.execute()
    except SessionAborted as exc:
        return runtime.engine, exc.trace


_FULL_RUN: dict[str, tuple[dict[str, float], float]] = {}


def _full_run(name: str) -> tuple[dict[str, float], float]:
    """Each device's energy, and the slowest round's latency, of the
    unconstrained run."""
    if name not in _FULL_RUN:
        eng, trace = _run(name, {})
        spent = {node: sum(cats.values()) for node, cats in eng.energy_ledger.items()}
        _FULL_RUN[name] = spent, max(r.wall_latency for r in trace.records)
    return _FULL_RUN[name]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_refusal_path_is_byte_identical(case):
    name, shares, deadline, status, records, log_digest, rows_digest = CASES[case]
    spent, slowest = _full_run(name)
    protocol = {} if deadline is None else {"round_deadline": deadline * slowest}
    eng, trace = _run(name, {ue: share * spent[ue] for ue, share in shares.items()},
                      **protocol)
    log = eng.event_log
    assert trace.status.startswith("aborted") or any(r["kind"] == "DROPOUT" for r in log)
    assert (trace.status, len(trace.records)) == (status, records)
    assert _sha256(json.dumps(log, sort_keys=True)) == log_digest
    assert _sha256("\n".join(trace.csv_rows())) == rows_digest

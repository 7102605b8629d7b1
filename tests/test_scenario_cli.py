"""Scenario documents and the command-line interface: strict schema, config
hashing, named constraint reports, artifact layout, and exit codes."""

import json
from pathlib import Path

import pytest

import music_sim
from music_sim import scenario as scenario_module
from music_sim.cli import EXIT_ABORT, EXIT_INVALID, EXIT_OK, main
from music_sim.errors import ScenarioParseError, ScenarioSchemaError
from music_sim.scenario import (
    apply_overrides,
    assemble,
    config_hash,
    parse_config,
    parse_scenario_text,
    task_of,
    validate_document,
)

from conftest import star_doc

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def full_doc(**protocol_extra) -> dict:
    """A minimal complete FL scenario over two devices."""
    doc = star_doc(2)
    doc["radio"] = {
        "noise_density": 4e-21,
        "downlink_rate": 2e7,
        "signalling_delay": 0.01,
        "rx_energy_per_bit": 5e-11,
        "downlink_energy_per_bit": 1e-10,
        "cells": {"ap0": {"num_blocks": 4, "block_bandwidth": 180e3}},
    }
    doc["ml"] = {"widths": [8, 16, 12, 4], "loss": "ce", "learning_rate": 0.05,
                 "batch_size": 16, "eval_every": 2, "test_size": 32}
    doc["protocol"] = {"kind": "fl", "server": "ap0", "clients": ["ue0", "ue1"],
                       "scheme": "oma_grant_based", "rounds": 2,
                       "local_iterations": 1, **protocol_extra}
    doc["seeds"] = {"root": 11}
    return doc


def write_doc(tmp_path, doc, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


# --------------------------------------------------------- parsing ---- #

def test_parse_error_carries_line_and_column():
    text = '{\n "nodes": {},\n "bad" \n}'
    with pytest.raises(ScenarioParseError) as exc_info:
        parse_scenario_text(text)
    assert exc_info.value.line == 4  # where the missing ':' is detected
    report = validate_document(text)
    assert report.errors[0][0] == "parse"


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.update(extra=1), "scenario: unknown keys ['extra']"),
    (lambda d: d["nodes"]["ue"][0].update(color="red"), "nodes.ue[0]"),
    (lambda d: d["radio"].update(psi=2), "radio: unknown keys"),
    (lambda d: d["protocol"].update(mystery=0), "protocol: unknown keys"),
    (lambda d: d["ml"].pop("loss"), "ml: missing keys ['loss']"),
])
def test_unknown_or_missing_keys_are_rejected(mutate, needle):
    doc = full_doc()
    mutate(doc)
    with pytest.raises(ScenarioSchemaError) as exc_info:
        parse_config(doc)
    assert needle in str(exc_info.value)


def test_protocol_kind_requirements():
    doc = full_doc()
    del doc["protocol"]["rounds"]
    with pytest.raises(ScenarioSchemaError, match="requires 'rounds'"):
        parse_config(doc)
    doc = full_doc(kind="sl_homogeneous")
    del doc["protocol"]["rounds"], doc["protocol"]["local_iterations"]
    with pytest.raises(ScenarioSchemaError, match="requires 'iterations'"):
        parse_config(doc)


def test_cross_reference_checks():
    doc = full_doc()
    doc["protocol"]["server"] = "ghost"
    report = validate_document(doc)
    assert report.errors and report.errors[0][0] == "reference"

    doc = full_doc()
    doc["protocol"]["clients"] = ["ue0", "ue0"]
    with pytest.raises(ScenarioSchemaError, match="duplicates"):
        parse_config(doc)


# --------------------------------------------------------- hashing ---- #

def test_config_hash_ignores_key_order():
    doc = full_doc()
    shuffled = json.loads(json.dumps(doc, sort_keys=True))
    assert config_hash(doc) == config_hash(shuffled)


def test_config_hash_sees_every_value():
    base = config_hash(full_doc())
    changed = full_doc()
    changed["ml"]["learning_rate"] = 0.051
    assert config_hash(changed) != base


def test_overrides_are_hash_visible():
    doc = full_doc()
    assert config_hash(apply_overrides(doc, seed=99)) != config_hash(doc)
    assert config_hash(apply_overrides(doc)) == config_hash(doc)


def test_config_hash_is_computed_when_first_read():
    doc = full_doc()
    assert validate_document(doc).ok
    cfg = parse_config(doc)
    assert "hash" not in vars(cfg)  # parsing alone does not hash
    assert cfg.hash == config_hash(doc)
    assert vars(cfg)["hash"] == cfg.hash


def test_protocol_override_aliases():
    doc = apply_overrides(full_doc(), protocol="sl-homo")
    assert doc["protocol"]["kind"] == "sl_homogeneous"
    with pytest.raises(ScenarioSchemaError, match="unknown protocol"):
        apply_overrides(full_doc(), protocol="split")


def test_relay_override_normalizes():
    doc = full_doc(kind="sl_heterogeneous", iterations=4, boundaries=[1, 2])
    doc["protocol"]["clients"] = ["ue0", "ue1"]
    del doc["protocol"]["rounds"], doc["protocol"]["local_iterations"]
    cfg = parse_config(apply_overrides(doc, relay="server"))
    assert cfg.protocol.relay == "via_server"


# ---------------------------------------------- constraint reports ---- #

def test_cloud_server_over_devices_names_both_violations():
    doc = full_doc()
    doc["protocol"]["server"] = "cloud0"
    names = {name for name, _ in validate_document(doc).errors}
    assert names == {"layer-span", "edge-restriction"}


def test_fog_server_over_devices_warns():
    doc = full_doc()
    doc["protocol"]["server"] = "fog0"
    report = validate_document(doc)
    assert report.ok
    assert any(name == "fog-direct-serve" for name, _ in report.warnings)


def test_d2d_relay_without_links_is_named():
    doc = full_doc(kind="sl_heterogeneous", iterations=4, boundaries=[1, 2],
                   relay="d2d")
    doc["protocol"]["clients"] = ["ue0", "ue1"]
    del doc["protocol"]["rounds"], doc["protocol"]["local_iterations"]
    report = validate_document(doc)
    assert [name for name, _ in report.errors] == ["D2D-link"]


def test_sl_task_mapping_uses_iterations():
    doc = full_doc(kind="sl_homogeneous", iterations=24, cut_index=2)
    del doc["protocol"]["rounds"], doc["protocol"]["local_iterations"]
    task = task_of(parse_config(doc))
    assert (task.rounds, task.local_iterations) == (1, 24)
    assert task.total_iterations == 24


def test_assemble_seeds_batteries_and_shards():
    runtime = assemble(parse_config(full_doc()))
    assert runtime.engine.batteries["ue0"] == 1e9
    assert set(runtime.data.shards) == {"ue0", "ue1"}
    assert runtime.model.widths == (8, 16, 12, 4)


# ------------------------------------------------------------- CLI ---- #

def test_validate_bundled_scenarios(capsys):
    assert len(BUNDLED) == 4
    for path in BUNDLED:
        assert main(["validate", "--scenario", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_and_fails(tmp_path, capsys):
    doc = full_doc()
    doc["protocol"]["server"] = "cloud0"
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "error [layer-span]" in out and "error [edge-restriction]" in out


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == EXIT_INVALID
    assert "error [io]" in capsys.readouterr().out


def test_run_writes_artifacts(tmp_path, capsys):
    path = write_doc(tmp_path, full_doc())
    out = tmp_path / "artifacts"
    code = main(["run", "--scenario", path, "--out", str(out), "--event-log"])
    assert code == EXIT_OK
    assert "fl: completed" in capsys.readouterr().out

    csv_lines = (out / "trace.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config_hash=")
    assert "seed=11" in csv_lines[0]
    assert csv_lines[1].split(",")[0] == "protocol"
    assert len(csv_lines) == 2 + 2  # comment, header, one row per round

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 11
    assert summary["config_hash"] == csv_lines[0].split("config_hash=")[1].split()[0]
    assert summary["status"] == "completed"

    events = (out / "events.jsonl").read_text().splitlines()
    head = json.loads(events[0])
    assert head["kind"] == "META"
    assert head["config_hash"] == summary["config_hash"]
    assert all("time" in json.loads(line) for line in events[1:])


def test_run_builds_the_topology_once(tmp_path, monkeypatch):
    """`run` executes the configuration its validation parsed."""
    built = []
    build = scenario_module.build_topology
    monkeypatch.setattr(scenario_module, "build_topology",
                        lambda doc: built.append(doc) or build(doc))
    assert main(["run", "--scenario", str(SCENARIO_DIR / "fl_edge.json"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert len(built) == 1


def test_run_is_byte_identical_per_seed(tmp_path):
    path = write_doc(tmp_path, full_doc())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--scenario", path, "--out", str(out),
                     "--event-log"]) == EXIT_OK
        outs.append(out)
    for artifact in ("trace.csv", "summary.json", "events.jsonl"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_seed_override_changes_hash_and_trace(tmp_path):
    path = write_doc(tmp_path, full_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", path, "--out", str(a)]) == EXIT_OK
    assert main(["run", "--scenario", path, "--out", str(b), "--seed", "99"]) == EXIT_OK
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    assert sa["config_hash"] != sb["config_hash"]
    assert sb["seed"] == 99


def test_run_invalid_scenario_exits_one(tmp_path, capsys):
    doc = full_doc()
    doc["protocol"]["server"] = "cloud0"
    path = write_doc(tmp_path, doc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert "error [layer-span]" in capsys.readouterr().err


def test_run_abort_exits_two_with_partial_artifacts(tmp_path, capsys):
    doc = full_doc()
    for ue in doc["nodes"]["ue"]:
        ue["battery"] = 1e-12
    path = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", "--scenario", path, "--out", str(out)]) == EXIT_ABORT
    assert "aborted" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"].startswith("aborted:")


def test_protocol_override_runs_other_family(tmp_path, capsys):
    path = str(SCENARIO_DIR / "fedsplit_nested.json")
    out = tmp_path / "o"
    code = main(["run", "--scenario", path, "--out", str(out), "--protocol", "fl"])
    assert code == EXIT_OK
    assert "fl: completed" in capsys.readouterr().out


def test_relay_override_switches_transport(tmp_path, capsys):
    path = str(SCENARIO_DIR / "sl_heterogeneous_d2d.json")
    latencies = {}
    for relay in ("server", "d2d"):
        out = tmp_path / relay
        assert main(["run", "--scenario", path, "--out", str(out),
                     "--relay", relay]) == EXIT_OK
        latencies[relay] = json.loads((out / "summary.json").read_text())["wall_latency_s"]
    capsys.readouterr()
    assert latencies["d2d"] < latencies["server"]


def test_plan_prints_and_writes_json(tmp_path, capsys):
    path = write_doc(tmp_path, full_doc())
    out = tmp_path / "o"
    assert main(["plan", "--scenario", path, "--out", str(out)]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["config_hash"] and printed["seed"] == 11
    assert "server" in printed["roles"].values()
    assert printed["estimate"]["wall_latency_s"] > 0
    assert json.loads((out / "plan.json").read_text()) == printed


def test_sweep_cut_index_moves_compute_to_devices(tmp_path, capsys):
    path = str(SCENARIO_DIR / "sl_homogeneous.json")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", path, "--axis", "cut_index",
                 "--values", "1,2,3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "sweep_cut_index.csv").read_text().splitlines()
    assert rows[0].startswith("axis,value,protocol")
    compute = {}
    for row in rows[1:]:
        parts = row.split(",")
        compute[parts[1]] = compute.get(parts[1], 0.0) + float(parts[5])
    # deeper cuts push more of the (constant) total work onto the
    # energy-hungrier devices
    assert compute["1"] < compute["2"] < compute["3"]


def test_sweep_scheme_grant_free_is_never_slower(tmp_path, capsys):
    path = write_doc(tmp_path, full_doc())
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", path, "--axis", "scheme",
                 "--values", "oma_grant_based,oma_grant_free",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    latency = {}
    for row in (out / "sweep_scheme.csv").read_text().splitlines()[1:]:
        parts = row.split(",")
        latency[parts[1]] = latency.get(parts[1], 0.0) + float(parts[4])
    assert latency["oma_grant_free"] <= latency["oma_grant_based"]


def test_sweep_rejects_inapplicable_axis(tmp_path, capsys):
    path = write_doc(tmp_path, full_doc())  # fl has no cut to sweep
    code = main(["sweep", "--scenario", path, "--axis", "cut_index",
                 "--values", "1,2", "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    assert "cut_index" in capsys.readouterr().err


def test_sweep_validates_every_value_up_front(tmp_path, capsys):
    doc = full_doc(kind="sl_homogeneous", iterations=2, cut_index=2)
    del doc["protocol"]["rounds"], doc["protocol"]["local_iterations"]
    path = write_doc(tmp_path, doc)
    code = main(["sweep", "--scenario", path, "--axis", "cut_index",
                 "--values", "1,7", "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    assert not (tmp_path / "o" / "sweep_cut_index.csv").exists()


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MUSIC_SIM_OUT", str(env_dir))
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, full_doc())
    assert main(["run", "--scenario", path]) == EXIT_OK
    capsys.readouterr()
    assert (env_dir / "trace.csv").exists()

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


def test_fl_clients_must_be_devices(tmp_path, capsys):
    """Servers have neither a radio nor a data shard, so an FL session over
    access points is refused up front instead of failing mid-run."""
    doc = full_doc(server="fog0", clients=["ap0", "ap1"])
    second = star_doc(2, second_cell=True)
    doc["nodes"], doc["links"] = second["nodes"], second["links"]
    doc["radio"]["cells"]["ap1"] = dict(doc["radio"]["cells"]["ap0"])
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    assert "error [schema]" in capsys.readouterr().out
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error [schema]: fl: clients must be devices") and "Traceback" not in err


@pytest.mark.parametrize("name, key", [
    ("fl_edge", "rounds"),
    ("fl_edge", "local_iterations"),
    ("fedsplit_nested", "rounds"),
    ("fedsplit_nested", "local_iterations"),
    ("sl_homogeneous", "iterations"),
    ("sl_heterogeneous_d2d", "iterations"),
])
def test_zero_iteration_counts_are_rejected_up_front(tmp_path, capsys, name, key):
    """A count below 1 is a schema error, not a run that fails later or one
    that reports `completed` with no records."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    doc["protocol"][key] = 0
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    assert f"error [schema]: protocol.{key} must be >= 1" in capsys.readouterr().out
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert main(["plan", "--scenario", path]) == EXIT_INVALID


def _fog_server_without_its_ap_link(doc):
    doc["protocol"]["server"] = "fog0"
    doc["links"] = [link for link in doc["links"] if link["dst"] != "ap0"]


def _ap1_serving_ap0s_devices(doc):
    doc["protocol"]["server"] = "ap1"


def _no_cell_for_the_clients_ap(doc):
    del doc["radio"]["cells"]["ap0"]
    doc["radio"]["noma_clusters"] = []  # they would name ap0's blocks


@pytest.mark.parametrize("mutate, name", [
    (_fog_server_without_its_ap_link, "backhaul"),
    (_ap1_serving_ap0s_devices, "backhaul"),
    (_no_cell_for_the_clients_ap, "radio-cell"),
])
def test_legs_that_cannot_be_priced_are_rejected_up_front(tmp_path, capsys, mutate, name):
    """A client must reach the server over a configured backhaul link and
    upload through a cell with blocks. Otherwise `validate` names the gap,
    and `run` and `sweep` return EXIT_INVALID instead of a traceback."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    mutate(doc)
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    assert f"error [{name}]: " in capsys.readouterr().out
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"error [{name}]: " in err and "Traceback" not in err
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "s"),
                 "--axis", "learning_rate", "--values", "0.05"]) == EXIT_INVALID
    assert f"error [{name}]: " in capsys.readouterr().err


@pytest.mark.parametrize("kind, node", [
    ("fedsplit_nested", "ue2"),  # a slave of ue0: the master trains on its data
    ("fl", "ue0"),               # ue0 masters a group, but FL trains on its own data
])
def test_clients_without_training_data_are_rejected_up_front(tmp_path, capsys, kind, node):
    doc = json.loads((SCENARIO_DIR / "fedsplit_nested.json").read_text())
    doc["protocol"]["kind"] = kind
    if kind == "fl":
        del doc["protocol"]["cut_index"]
    next(ue for ue in doc["nodes"]["ue"] if ue["id"] == node)["dataset_size"] = 0
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    assert f"error [schema]: client '{node}' has no local data" in capsys.readouterr().out
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "s"),
                 "--axis", "learning_rate", "--values", "0.05"]) == EXIT_INVALID
    assert "error [schema]: " in capsys.readouterr().err


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


@pytest.mark.parametrize("section, value, command", [
    ("protocol", 5, ["run", "--protocol", "fl"]),
    ("protocol", 5, ["sweep", "--axis", "scheme", "--values", "oma_grant_based"]),
    ("protocol", 5, ["sweep", "--axis", "cut_index", "--values", "1"]),
    ("seeds", 5, ["run", "--seed", "3"]),
    ("ml", [1], ["sweep", "--axis", "learning_rate", "--values", "0.1"]),
])
def test_an_override_into_a_section_that_is_not_an_object_prints_validates_error(
        tmp_path, capsys, section, value, command):
    """The command writes nothing into the section and exits 1 with the
    line `validate` prints, not a traceback."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc[section] = value
    path = write_doc(tmp_path, doc)
    line = f"error [schema]: {section} must be an object"
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    assert capsys.readouterr().out == line + "\n"
    assert main([command[0], "--scenario", path, "--out", str(tmp_path / "o"),
                 *command[1:]]) == EXIT_INVALID
    assert line in capsys.readouterr().err


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


def test_plan_skips_a_candidate_whose_uplink_cannot_be_priced(tmp_path, capsys):
    """ue5, alone on ap1 and outside the session, cannot transmit: FL at ap1
    is an infeasible candidate, not a reason to refuse the document."""
    doc = _bundled("fl_edge")
    _fl_edge_ue(doc, 5)["tx_power"] = 0.0
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["plan", "--scenario", path]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert main(["plan", "--scenario", str(SCENARIO_DIR / "fl_edge.json")]) == EXIT_OK
    plain = json.loads(capsys.readouterr().out)
    assert (printed["protocol"], printed["roles"]) == ("centralized", {"ap0": "server"})
    assert (printed["protocol"], printed["roles"]) == (plain["protocol"], plain["roles"])


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


@pytest.mark.parametrize("scenario, axis, value, needle", [
    ("sl_homogeneous", "cut_index", "1.5", "cut_index must be an integer, got 1.5"),
    ("sl_homogeneous", "clients", "2.5", "clients must be an integer, got 2.5"),
    ("fl_edge", "learning_rate", "fast", "learning_rate value 'fast' is not a number"),
    ("fl_edge", "learning_rate", "nan", "ml.learning_rate must be a number"),
])
def test_sweep_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys, scenario, axis,
                                                         value, needle):
    """A sweep value that is not a number, or not an integer where a count
    belongs, exits 1 with one `error:` line; a count is never truncated."""
    code = main(["sweep", "--scenario", str(SCENARIO_DIR / f"{scenario}.json"),
                 "--axis", axis, "--values", value, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MUSIC_SIM_OUT", str(env_dir))
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, full_doc())
    assert main(["run", "--scenario", path]) == EXIT_OK
    capsys.readouterr()
    assert (env_dir / "trace.csv").exists()


def _fl_edge_ue(doc, i):
    return next(u for u in doc["nodes"]["ue"] if u["id"] == f"ue{i}")


@pytest.mark.parametrize("faults, error", [
    ({(0, "compute_rate"): 0, (5, "battery"): "x"}, "ue5: battery must be a number, got 'x'"),
    ({(0, "attached_ap"): "nowhere", (5, "channel_gain"): 0}, "ue5: channel_gain must be > 0"),
    ({(0, "battery"): "x", (5, "extra"): 1}, "nodes.ue[5]: unknown keys ['extra']"),
])
def test_the_first_of_two_faults_is_the_one_reported(faults, error):
    """The passes run in a fixed order: the key check over every entry, then
    each node's field types, then the range checks, then the hierarchy. A
    fault on ue5 found by an earlier pass wins over one on ue0."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    for (i, key), value in faults.items():
        _fl_edge_ue(doc, i)[key] = value
    assert validate_document(doc).lines() == [f"error [schema]: {error}"]


# -------------------------------------------- one name per rule ---- #

def _bundled(name):
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def _without_the_clients_backhaul():
    doc = _bundled("fl_edge")
    _fog_server_without_its_ap_link(doc)
    return doc


def _hetero_without_d2d_groups():
    doc = _bundled("sl_heterogeneous_d2d")
    doc["d2d_groups"] = []
    return doc


def _without_the_clients_cell():
    doc = _bundled("fl_edge")
    _no_cell_for_the_clients_ap(doc)
    return doc


def _silent_client():
    doc = _bundled("fl_edge")
    _fl_edge_ue(doc, 1)["tx_power"] = 0
    return doc


def _slave_mastering_a_group():
    doc = _bundled("fedsplit_nested")
    doc["d2d_groups"].append({"master": "ue1", "slaves": ["ue3"], "link_rate": 8e6})
    return doc


def _slave_in_another_cell():
    doc = _bundled("fedsplit_nested")
    _fl_edge_ue(doc, 1)["attached_ap"] = "ap1"
    return doc


def _edge_under_the_cloud():
    doc = _bundled("fl_edge")
    doc["nodes"]["edge"][0]["parent"] = "cloud0"
    return doc


def _ghost_server():
    doc = _bundled("fl_edge")
    doc["protocol"]["server"] = "ghost"
    return doc


def _zero_noma_power():
    doc = _bundled("fl_edge")
    doc["radio"]["noma_clusters"][0]["powers"] = [0.25, 0]
    return doc


@pytest.mark.parametrize("make_doc, name, message", [
    (lambda: '{"a": ', "parse", "Expecting value (line 1, column 7)"),
    (_without_the_clients_backhaul, "backhaul",
     "client 'ue0' cannot reach server 'fog0': no backhaul link between 'ap0' and 'fog0'"),
    (_hetero_without_d2d_groups, "D2D-link",
     "relay 'd2d' needs a link between consecutive clients 'ue1' and 'ue0'"),
    (_without_the_clients_cell, "radio-cell",
     "client 'ue0' cannot reach server 'ap0': no radio.cells entry for 'ap0'"),
    (_silent_client, "uplink-rate",
     "client 'ue1' cannot reach server 'ap0': transmission rate must be > 0, got 0.0"),
    (_slave_mastering_a_group, "D2D-depth",
     "device 'ue1' is both a slave and a master; groups must stay single-hop"),
    (_slave_in_another_cell, "D2D-cross-cell",
     "d2d group of 'ue0' spans access points ['ap0', 'ap1']"),
    (_edge_under_the_cloud, "hierarchy", "ap0: parent 'cloud0' is at tier cloud, expected fog"),
    (_ghost_server, "reference", "protocol.server 'ghost' does not exist"),
    (_zero_noma_power, "schema", "cluster member powers must be > 0"),
])
def test_each_named_constraint_files_its_one_defect(make_doc, name, message):
    """A document with one defect reports it under its error type's name;
    an error type that names no rule is filed as `schema`."""
    assert validate_document(make_doc()).errors == [(name, message)]


@pytest.mark.parametrize("name, key", [
    ("fl_edge", "rounds"),
    ("fl_edge", "local_iterations"),
    ("sl_homogeneous", "iterations"),
    ("sl_homogeneous", "cut_index"),
    ("sl_heterogeneous_d2d", "iterations"),
    ("fedsplit_nested", "rounds"),
    ("fedsplit_nested", "local_iterations"),
    ("fedsplit_nested", "cut_index"),
])
def test_each_kind_requires_its_fields(name, key):
    doc = _bundled(name)
    del doc["protocol"][key]
    kind = doc["protocol"]["kind"]
    assert validate_document(doc).lines() == [
        f"error [schema]: protocol.kind {kind!r} requires {key!r}"]


@pytest.mark.parametrize("name", ["fl_edge", "sl_heterogeneous_d2d"])
def test_sweep_cut_index_needs_a_kind_with_a_cut(tmp_path, capsys, name):
    code = main(["sweep", "--scenario", str(SCENARIO_DIR / f"{name}.json"),
                 "--axis", "cut_index", "--values", "1", "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: cut_index applies to sl_homogeneous or fedsplit_nested scenarios\n")
    assert not (tmp_path / "o").exists()


def test_sweep_relay_d2d_spends_less_than_bouncing_through_the_server(tmp_path, capsys):
    path = str(SCENARIO_DIR / "sl_heterogeneous_d2d.json")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", path, "--axis", "relay", "--values", "d2d,server",
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    rows = [line for line in printed if line.startswith("relay=")]
    assert [row.split(":")[0] for row in rows] == ["relay=d2d", "relay=server"]
    energy = {row.split(":")[0]: float(row.split("total_energy_J=")[1].split()[0])
              for row in rows}
    assert energy["relay=d2d"] < energy["relay=server"]


def test_sweep_relay_needs_a_kind_that_relays(tmp_path, capsys):
    code = main(["sweep", "--scenario", str(SCENARIO_DIR / "fl_edge.json"),
                 "--axis", "relay", "--values", "d2d,server", "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "relay" in err[0]
    assert not (tmp_path / "o").exists()

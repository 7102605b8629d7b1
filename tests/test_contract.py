"""The validation contract: a document `validate` accepts makes `run` exit 0
(completed, every configured record present) or 2 (aborted, partial
artifacts written), never 1 and never a traceback, and makes `plan` exit 0
or 1.

The property test mutates one or two numeric fields of the bundled
scenarios and of the benchmark's workload generators at their tiny size;
the regression tests pin documents that once passed `validate` and then
failed `run`."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import music_sim
from music_sim.cli import EXIT_ABORT, EXIT_INVALID, EXIT_OK, main
from music_sim.errors import SessionAborted
from music_sim.scenario import assemble, validate_document

from test_workload_digests import _workloads

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"
ARTIFACTS = ("trace.csv", "summary.json", "events.jsonl")


def _base_docs() -> dict[str, list[dict]]:
    docs = {p.stem: [json.loads(p.read_text())] for p in sorted(SCENARIO_DIR.glob("*.json"))}
    w = _workloads()
    docs["fl_wide"] = [w.fl_wide_doc(1, w.TINY["fl_wide"])]
    docs["split_long"] = [w.split_long_doc(1, w.TINY["split_long"])]
    docs["plan_wide"] = w.plan_wide_docs(1, w.TINY["plan_wide"])
    return docs


BASE = _base_docs()


def _numeric_paths(node, path=()) -> list[tuple]:
    if isinstance(node, dict):
        return [p for key in sorted(node) for p in _numeric_paths(node[key], path + (key,))]
    if isinstance(node, list):
        return [p for i, item in enumerate(node) for p in _numeric_paths(item, path + (i,))]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [path]
    return []


# Counts are bounded so that every draw runs in milliseconds; each also
# draws non-integral values, which `validate` must refuse.
_COUNT_BOUNDS = {"rounds": 6, "local_iterations": 3, "iterations": 12, "widths": 24,
                 "batch_size": 48, "eval_every": 4, "test_size": 128,
                 "dataset_size": 96, "num_blocks": 8, "pool_size": 8, "cut_index": 5,
                 "boundaries": 5, "blocks": 8}
_SEEDS = ("root", "data", "model")


def _value_for(path: tuple, original):
    key = next(k for k in reversed(path) if isinstance(k, str))
    if key in _SEEDS:
        return st.one_of(st.integers(-3, 2**40), st.just(1.5))
    if key in _COUNT_BOUNDS:
        return st.one_of(st.integers(-1, _COUNT_BOUNDS[key]), st.sampled_from([0.5, 2.5]))
    return st.one_of(
        st.sampled_from([-1.0, 0.0, 5e-324, 1e-300, 1e300]),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-3, 1e3).map(lambda factor: original * factor))


@st.composite
def mutated_documents(draw):
    docs = BASE[draw(st.sampled_from(sorted(BASE)))]
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for path in draw(st.lists(st.sampled_from(_numeric_paths(doc)), min_size=1, max_size=2,
                              unique=True)):
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = draw(_value_for(path, holder[path[-1]]))
    return doc


def _cli(*argv) -> tuple[int, str]:
    """Exit code and output of one command; a traceback fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(list(argv))
    return code, out.getvalue()


def _expected_records(doc: dict) -> int:
    proto = doc["protocol"]
    return proto["rounds"] if proto["kind"] in ("fl", "fedsplit_nested") else proto["iterations"]


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_a_valid_document_runs_to_completion_or_abort(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _ = _cli("validate", "--scenario", str(path))
        if code != EXIT_OK:
            assert code == EXIT_INVALID
            return

        outs = [Path(tmp) / side for side in ("a", "b")]
        codes = [_cli("run", "--scenario", str(path), "--out", str(out), "--event-log")[0]
                 for out in outs]
        assert codes[0] in (EXIT_OK, EXIT_ABORT) and codes[0] == codes[1]
        for artifact in ARTIFACTS:
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
        summary = json.loads((outs[0] / "summary.json").read_text())
        if codes[0] == EXIT_OK:
            assert summary["status"] == "completed"
            assert summary["iterations"] == _expected_records(doc)
        else:
            assert summary["status"].startswith("aborted: ")

        runtime = assemble(validate_document(doc).config)
        with contextlib.suppress(SessionAborted):
            runtime.execute()
        assert runtime.engine.recount_from_log() == runtime.engine.energy_ledger

        assert _cli("plan", "--scenario", str(path))[0] in (EXIT_OK, EXIT_INVALID)


def _ue(doc: dict, ue_id: str) -> dict:
    return next(ue for ue in doc["nodes"]["ue"] if ue["id"] == ue_id)


def _descending_boundaries(doc):
    doc["protocol"]["boundaries"] = [2, 1]


def _underflowing_gain(doc):
    _ue(doc, "ue0")["channel_gain"] = 1e-300


def _silent_radio(doc):
    _ue(doc, "ue2")["tx_power"] = 0


def _negative_device_energy(doc):
    _ue(doc, "ue0")["energy_per_cycle"] = -1


def _fractional_width(doc):
    doc["ml"]["widths"][1] = 16.5


def _fractional_rounds(doc):
    doc["protocol"]["rounds"] = 2.7


@pytest.mark.parametrize("name, mutate, error", [
    ("sl_heterogeneous_d2d", _descending_boundaries, "schema"),
    ("fl_edge", _underflowing_gain, "uplink-rate"),
    ("sl_homogeneous", _silent_radio, "uplink-rate"),
    ("fedsplit_nested", _negative_device_energy, "schema"),
    ("fl_edge", _fractional_width, "schema"),
    ("fl_edge", _fractional_rounds, "schema"),
])
def test_documents_that_cannot_run_fail_validation(tmp_path, name, mutate, error):
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID and out.startswith(f"error [{error}]: ")
    code, out = _cli("run", "--scenario", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_INVALID and f"error [{error}]: " in out
    code, out = _cli("sweep", "--scenario", str(path), "--out", str(tmp_path / "s"),
                     "--axis", "learning_rate", "--values", "0.05")
    assert code == EXIT_INVALID and f"error [{error}]: " in out


# Values a real field must refuse rather than cast, and values a flag must
# refuse; null means "no deadline" for the two optional deadlines.
_NOT_NUMBERS = ("fast", "5e8", True, None, float("nan"), 10**400)
_NOT_BOOLEANS = ("false", 0, 1.0, None)
_OPTIONAL_REALS = (("ml", "noise"), ("ml", "class_sep"), ("protocol", "dropout_slope"),
                   ("protocol", "round_deadline"), ("placement", "latency_deadline"))
_NULL_MEANS_NONE = ("round_deadline", "latency_deadline")


def _bad_field_values(doc: dict):
    """(path, field name, bad value) for every real and flag field of `doc`,
    including the optional fields it leaves out. Entries of one list read a
    field with the same code, so each field is taken from its first entry."""
    seen = set()
    for path in _numeric_paths(doc) + list(_OPTIONAL_REALS):
        field = tuple(k for k in path if isinstance(k, str))
        if field in seen or field[-1] in _COUNT_BOUNDS or field[-1] in _SEEDS:
            continue
        seen.add(field)
        for bad in _NOT_NUMBERS:
            if not (bad is None and field[-1] in _NULL_MEANS_NONE):
                yield path, field[-1], bad
    for path in [("nodes", "ue", 0, "mobile"), ("placement", "require_immobile")]:
        for bad in _NOT_BOOLEANS:
            yield path, path[-1], bad


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_a_field_of_the_wrong_type_is_a_named_schema_error(tmp_path, name):
    """Each string, bool, null, NaN or out-of-range integer in each real
    field, and each non-bool in each flag, of a bundled document: `validate` and `run` exit 1 with the
    field named, never a traceback and never a cast."""
    path = tmp_path / "scenario.json"
    cases = 0
    for field, key, bad in _bad_field_values(BASE[name][0]):
        doc = json.loads(json.dumps(BASE[name][0]))
        holder = doc
        for step in field[:-1]:
            holder = holder[step]
        holder[field[-1]] = bad
        path.write_text(json.dumps(doc))
        code, out = _cli("validate", "--scenario", str(path))
        assert code == EXIT_INVALID and out.startswith("error [schema]: "), (field, bad, out)
        assert key.removesuffix("s") in out, (field, bad, out)
        cases += 1
    assert cases > 100
    # `run` validates with the same code; one case shows its exit
    code, out = _cli("run", "--scenario", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_INVALID and "error [schema]: " in out


@pytest.mark.parametrize("key", ["rx_energy_per_bit", "downlink_energy_per_bit"])
def test_a_negative_radio_energy_per_bit_is_refused(tmp_path, key):
    """A negative receive or downlink charge would be skipped by the runners'
    `> 0` guards, so the run would report less energy than spent."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc["radio"][key] = -1e-9
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID and out.startswith(f"error [schema]: radio.{key} must be >= 0")


@pytest.mark.parametrize("blocks", [[4, 4], [4, 5, 4], [5, 5, 5]])
def test_a_noma_cluster_listing_a_block_twice_is_refused(tmp_path, blocks):
    """A block listed twice would count its bandwidth twice in the cluster's
    SIC rates; two distinct blocks still validate."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    assert doc["radio"]["noma_clusters"][0]["blocks"] == [4, 5]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert _cli("validate", "--scenario", str(path))[0] == EXIT_OK
    doc["radio"]["noma_clusters"][0]["blocks"] = blocks
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID
    assert out == (f"error [schema]: radio.noma_clusters[0].blocks lists block "
                   f"{blocks[-1]} twice\n"), out


def _clients(doc):
    return doc["protocol"], "clients", "protocol.clients"


def _slaves(doc):
    return doc["d2d_groups"][0], "slaves", "d2d_groups[0].slaves"


def _members(doc):
    return doc["radio"]["noma_clusters"][0], "members", "radio.noma_clusters[0].members"


@pytest.mark.parametrize("name, holder_of", [("fl_edge", _clients),
                                             ("fedsplit_nested", _slaves),
                                             ("fl_edge", _members)])
def test_an_id_list_must_be_an_array_of_strings(tmp_path, name, holder_of):
    """An object once validated with its keys taken as the ids, and a string
    was read one character at a time into a `[reference]` error."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    holder, key, field = holder_of(doc)
    ids = holder[key]
    path = tmp_path / "scenario.json"
    for bad in ({i: k for k, i in enumerate(ids)}, ids[0], [ids[0], 1]):
        holder[key] = bad
        path.write_text(json.dumps(doc))
        code, out = _cli("validate", "--scenario", str(path))
        assert code == EXIT_INVALID and out.startswith(f"error [schema]: {field} "), (bad, out)


@pytest.mark.parametrize("path, field", [
    (("protocol", "server"), "protocol.server"),
    (("nodes", "ue", 0, "attached_ap"), "attached_ap"),
    (("nodes", "edge", 0, "parent"), "parent"),
    (("links", 0, "src"), "links[0].src"),
    (("links", 0, "dst"), "links[0].dst"),
    (("d2d_groups", 0, "master"), "d2d_groups[0].master"),
])
def test_a_node_id_field_must_be_a_string(tmp_path, path, field):
    """An array or an object here once crashed `validate` with `unhashable
    type`, and a number passed on as an id."""
    path_file = tmp_path / "scenario.json"
    for bad in (["ap0"], {}, 7):
        doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = bad
        path_file.write_text(json.dumps(doc))
        code, out = _cli("validate", "--scenario", str(path_file))
        assert code == EXIT_INVALID and out.startswith("error [schema]: "), (bad, out)
        assert f"{field} must be a node id" in out, (bad, out)


@pytest.mark.parametrize("section, key", [("placement", "latency_deadline"),
                                          ("protocol", "dropout_slope")])
def test_a_negative_deadline_or_dropout_slope_is_refused(tmp_path, section, key):
    """A negative placement deadline once validated and then made `plan`
    exit 1 with no plan; a negative slope silently meant no outages."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc.setdefault(section, {})[key] = -0.5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID and out.startswith(f"error [schema]: {section}.{key} must be >= 0")


def _block_bandwidth(doc):
    return doc["radio"]["cells"]["ap0"], "block_bandwidth"


def _cycles_per_mac(doc):
    return doc["ml"], "cycles_per_mac"


def _learning_rate(doc):
    return doc["ml"], "learning_rate"


@pytest.mark.parametrize("holder_of", [_block_bandwidth, _cycles_per_mac, _learning_rate])
def test_an_infinite_field_fails_validation(tmp_path, holder_of):
    """Python's json reads `Infinity`; these fields once passed `validate`
    with it, and an infinite block bandwidth then aborted the run."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    holder, key = holder_of(doc)
    holder[key] = float("inf")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID and out.startswith("error [schema]: ") and key in out, out


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_a_real_field_refuses_infinity(tmp_path, name):
    """±Infinity in each real field of a bundled document is a `[schema]`
    error naming the field, like NaN; in the two deadlines, +Infinity means
    no deadline, as null does."""
    path = tmp_path / "scenario.json"
    # every real field gets the string "fast" once; the flags never do
    fields = [(field, key) for field, key, bad in _bad_field_values(BASE[name][0])
              if bad == "fast"]
    assert len(fields) > 20
    for field, key in fields:
        for bad in (float("inf"), float("-inf")):
            doc = json.loads(json.dumps(BASE[name][0]))
            holder = doc
            for step in field[:-1]:
                holder = holder[step]
            holder[field[-1]] = bad
            path.write_text(json.dumps(doc))
            code, out = _cli("validate", "--scenario", str(path))
            if bad > 0 and key in _NULL_MEANS_NONE:
                assert code == EXIT_OK, (field, bad, out)
            else:
                assert code == EXIT_INVALID and out.startswith("error [schema]: "), \
                    (field, bad, out)
                assert key.removesuffix("s") in out, (field, bad, out)


# (path, name in the error) of each array field; the NOMA entries are left
# out where a document has no cluster
_ARRAY_FIELDS = ((("nodes", "cloud"), "nodes.cloud"), (("nodes", "fog"), "nodes.fog"),
                 (("nodes", "edge"), "nodes.edge"), (("nodes", "ue"), "nodes.ue"),
                 (("links",), "links"), (("d2d_groups",), "d2d_groups"),
                 (("radio", "noma_clusters"), "radio.noma_clusters"),
                 (("radio", "noma_clusters", 0, "powers"), "radio.noma_clusters[0].powers"),
                 (("radio", "noma_clusters", 0, "blocks"), "radio.noma_clusters[0].blocks"),
                 (("ml", "widths"), "ml.widths"),
                 (("protocol", "boundaries"), "protocol.boundaries"))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_an_array_field_given_a_non_array_is_a_named_schema_error(tmp_path, name):
    """A number or null here once crashed `validate` with `'int' object is
    not iterable`, a string was read one character at a time, and an empty
    object passed as an empty array."""
    path = tmp_path / "scenario.json"
    cases = 0
    for field, where in _ARRAY_FIELDS:
        if field[1:3] == ("noma_clusters", 0) and not BASE[name][0]["radio"].get("noma_clusters"):
            continue
        for bad in (3, "ab", {}, None):
            doc = json.loads(json.dumps(BASE[name][0]))
            holder = doc
            for step in field[:-1]:
                holder = holder[step]
            holder[field[-1]] = bad
            path.write_text(json.dumps(doc))
            code, out = _cli("validate", "--scenario", str(path))
            assert code == EXIT_INVALID, (field, bad, out)
            assert out == f"error [schema]: {where} must be an array, got {bad!r}\n", (field, bad)
            cases += 1
    assert cases >= 36


@pytest.mark.parametrize("bad", [["d2d"], {"a": 1}, 3])
def test_a_relay_that_is_not_a_string_is_a_named_schema_error(tmp_path, bad):
    """An array or an object here once crashed `validate` with `unhashable
    type` at the alias lookup."""
    doc = json.loads((SCENARIO_DIR / "sl_heterogeneous_d2d.json").read_text())
    doc["protocol"]["relay"] = bad
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID
    assert out.startswith("error [schema]: protocol.relay must be 'server' or 'd2d'"), out


def test_an_output_dir_that_is_not_a_string_fails_validation(tmp_path):
    """A number here once passed `validate`; `run` then died in `pathlib`
    with a traceback."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc["output"] = {"dir": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID and out.startswith("error [schema]: output.dir "), out
    code, out = _cli("run", "--scenario", str(path))
    assert code == EXIT_INVALID and "error [schema]: output.dir " in out, out


def _noma(doc: dict) -> dict:
    return doc["radio"]["noma_clusters"][0]


@pytest.mark.parametrize("name, mutate, line", [
    ("fl_edge", lambda d: _noma(d)["powers"].pop(),
     "error [schema]: noma cluster: members and powers differ in length"),
    ("fl_edge", lambda d: _noma(d).update(members=["ue3", "ap0"]),
     "error [reference]: noma cluster member 'ap0' is not a device node"),
    ("fl_edge", lambda d: _noma(d).update(members=["ue3", "ue5"]),
     "error [schema]: noma cluster ('ue3', 'ue5') spans access points ['ap0', 'ap1']"),
    ("fl_edge", lambda d: d["radio"]["cells"].pop("ap0"),
     "error [schema]: noma cluster ('ue3', 'ue4'): cell 'ap0' has no blocks"),
    ("fl_edge", lambda d: d["nodes"]["fog"][0].pop("parent"),
     "error [hierarchy]: fog node 'fog0' has no parent"),
    ("sl_homogeneous", lambda d: _ue(d, "ue3").update(attached_ap="ap9"),
     "error [reference]: ue3: attached_ap 'ap9' does not exist"),
    ("sl_heterogeneous_d2d", lambda d: d["links"][0].update(src="ue0"),
     "error [reference]: link endpoint 'ue0' is not a server node"),
    ("fedsplit_nested", lambda d: d["d2d_groups"][0].update(slaves=["ue1", "ap0"]),
     "error [reference]: d2d group member 'ap0' is not a device node"),
    ("fedsplit_nested", lambda d: d["d2d_groups"][0].update(slaves=[]),
     "error [schema]: d2d group of 'ue0' has no slaves"),
    ("sl_heterogeneous_d2d", lambda d: d["d2d_groups"][0].update(slaves=["ue1", "ue0"]),
     "error [schema]: d2d group master 'ue0' listed among its own slaves"),
    ("fedsplit_nested", lambda d: d["d2d_groups"][0].update(link_rate=0),
     "error [schema]: d2d group of 'ue0': link_rate must be > 0"),
    ("sl_homogeneous", lambda d: d["d2d_groups"][0].update(link_rate=-8e6),
     "error [schema]: d2d group of 'ue0': link_rate must be > 0"),
    ("sl_heterogeneous_d2d", lambda d: d["protocol"].update(clients=[]),
     "error [schema]: protocol.clients must not be empty"),
    ("sl_homogeneous", lambda d: d["protocol"].pop("cut_index"),
     "error [schema]: protocol.kind 'sl_homogeneous' requires 'cut_index'"),
    ("fedsplit_nested", lambda d: d["protocol"].pop("cut_index"),
     "error [schema]: protocol.kind 'fedsplit_nested' requires 'cut_index'"),
])
def test_a_structural_fault_is_refused_by_name(tmp_path, name, mutate, line):
    """NOMA clusters, the hierarchy, links, D2D groups and the protocol's
    clients and cut: the first line `validate` prints for each fault."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out = _cli("validate", "--scenario", str(path))
    assert code == EXIT_INVALID and out.splitlines()[0] == line, out


# count fields a bundled document may leave out; each is read all the same
_OPTIONAL_COUNTS = (("protocol", "rounds"), ("protocol", "local_iterations"),
                    ("protocol", "iterations"), ("protocol", "cut_index"),
                    ("ml", "eval_every"), ("ml", "test_size"), ("seeds", "data"),
                    ("seeds", "model"), ("placement", "pool_size"))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_a_count_too_large_for_an_index_is_a_named_schema_error(tmp_path, name):
    """2**63 or 1e308 in any count of a bundled document: a width crashed
    `validate` in the uplink price (`int too large to convert to float`), and
    a dataset, batch or test size passed `validate` and crashed `run`
    allocating its arrays."""
    path = tmp_path / "scenario.json"
    counts = {field for field in _numeric_paths(BASE[name][0])
              if next(k for k in reversed(field) if isinstance(k, str))
              in (*_COUNT_BOUNDS, *_SEEDS)}
    counts.update(_OPTIONAL_COUNTS)
    for field in sorted(counts, key=str):
        key = next(k for k in reversed(field) if isinstance(k, str))
        for bad in (2**63, 1e308):
            doc = json.loads(json.dumps(BASE[name][0]))
            holder = doc
            for step in field[:-1]:
                holder = holder[step]
            holder[field[-1]] = bad
            path.write_text(json.dumps(doc))
            code, out = _cli("validate", "--scenario", str(path))
            assert code == EXIT_INVALID and out.startswith("error [schema]: "), (field, bad, out)
            assert key.removesuffix("s") in out and f"got {bad!r}" in out, (field, bad, out)
    assert len(counts) > 20


# a child that runs one command with its address space capped at 1 GiB
_CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
               "from music_sim.cli import main; sys.exit(main(sys.argv[1:]))")


def test_a_cell_of_2_to_the_62_blocks_validates_and_runs(tmp_path):
    """A cell builds a block only when it is read: one block per declared
    block made `validate` take 1.35 s at 10**6 blocks and never return at
    1e308. Each command runs in a child process with a timeout and a memory
    cap, so a regression fails the test instead of stalling the suite or
    filling the host's memory."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc["radio"]["cells"]["ap0"]["num_blocks"] = 2**62
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    src = str(Path(music_sim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv, "--scenario", str(path)],
                              capture_output=True, text=True, timeout=30, env=env, check=False)
        assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "completed"


def test_a_dataset_no_host_can_hold_is_refused_in_one_line(tmp_path):
    """`validate` cannot know the host's memory, so a shard of 2**40 rows
    passes it; `run` and `sweep` must then refuse it with one `error:` line
    and exit 1, not die in a NumPy `MemoryError` traceback. Each command runs
    in a child process with a timeout and a memory cap, as above."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc["nodes"]["ue"][0]["dataset_size"] = 2**40
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    src = str(Path(music_sim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv, prefix in ((["run"], "error: out of memory ("),
                         (["sweep", "--axis", "learning_rate", "--values", "0.05"],
                          "error: learning_rate=0.05: out of memory (")):
        proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv, "--scenario", str(path),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=30, env=env, check=False)
        assert proc.returncode == EXIT_INVALID, proc.stdout + proc.stderr
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr


def test_a_run_of_2_to_the_62_rounds_is_refused_in_one_line(tmp_path):
    """The estimate walks every round, so `plan` on `rounds: 2**62` once never
    returned, though `validate` accepted the document. The work ceiling in
    `parse_config` refuses it for both commands with one `error` line that
    names the field. Each command runs in a child process with a timeout and
    a memory cap, as above."""
    doc = json.loads((SCENARIO_DIR / "fl_edge.json").read_text())
    doc["protocol"]["rounds"] = 2**62
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    src = str(Path(music_sim.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv, prefix in ((["validate"], "error [schema]: "), (["plan"], "error: ")):
        proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv, "--scenario", str(path)],
                              capture_output=True, text=True, timeout=30, env=env, check=False)
        out = proc.stdout + proc.stderr
        assert proc.returncode == EXIT_INVALID, out
        assert out.startswith(prefix) and out.count("\n") == 1, out
        assert "protocol.rounds" in out and "Traceback" not in out, out

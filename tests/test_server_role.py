"""A server that is also a client, a master or a master's slave is refused
by name. `session_roles` lets such a role overwrite the server's, so the
plan had no server: `validate` ended in a `plan has no server role`
traceback, and `run` and `sweep` refused the document without naming it."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import music_sim
from music_sim.cli import EXIT_INVALID, main

SCENARIO_DIR = Path(music_sim.__file__).parent / "scenarios"


@pytest.mark.parametrize("name, server, role", [
    ("fl_edge", "ue1", "client"),
    ("sl_homogeneous", "ue1", "client"),
    ("fedsplit_nested", "ue0", "master"),
    ("fedsplit_nested", "ue1", "slave"),  # not listed: a slave of the listed master ue0
])
def test_a_server_with_another_role_is_refused_in_one_line(tmp_path, name, server, role):
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    doc["protocol"]["server"] = server
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    error = f"error [schema]: protocol.server {server!r} is also a {role}\n"
    for argv in (["validate"], ["run", "--out", str(tmp_path / "run")],
                 ["sweep", "--out", str(tmp_path / "sweep"), "--axis", "learning_rate",
                  "--values", "0.05"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main([*argv, "--scenario", str(path)])
        text = out.getvalue()
        assert code == EXIT_INVALID, (argv[0], text)
        assert text.endswith(error) and text.count("\n") == 1, (argv[0], text)
        assert "Traceback" not in text

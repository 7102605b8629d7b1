"""The installed package carries what the source tree does.

Tests read the bundled scenarios from the source tree, so nothing else
would notice a wheel that leaves them out. Every non-Python file of the
package must match a `[tool.setuptools.package-data]` glob, and the
`music-sim` console script must name a callable.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import music_sim

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PACKAGE = Path(music_sim.__file__).parent
PYPROJECT = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())


def test_every_data_file_of_the_package_is_package_data():
    globs = PYPROJECT["tool"]["setuptools"]["package-data"]["music_sim"]
    shipped = {path for glob in globs for path in PACKAGE.glob(glob)}
    data = [path for path in PACKAGE.rglob("*")
            if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts]
    assert data, "the package holds no data files, not even the bundled scenarios"
    assert sorted(str(path.relative_to(PACKAGE)) for path in data if path not in shipped) == []


def test_the_console_script_resolves_to_a_callable():
    module, _, attr = PYPROJECT["project"]["scripts"]["music-sim"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

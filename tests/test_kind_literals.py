"""Each protocol kind's requirements have one home, `placement.PROTOCOL_FIELDS`:
no tuple, list or set literal in `src/` names two or more protocol kinds.
A rule about a group of kinds reads the table (which kinds count
`iterations`, which have a `cut_index`) instead of restating the group."""

from __future__ import annotations

import ast
from pathlib import Path

import music_sim
from music_sim.placement import PROTOCOL_KINDS, SL_PROTOCOLS

PACKAGE = Path(music_sim.__file__).parent


def kind_literals(package: Path) -> list[str]:
    """`module:line` of every collection literal naming two or more kinds."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                kinds = {e.value for e in node.elts
                         if isinstance(e, ast.Constant) and e.value in PROTOCOL_KINDS}
                if len(kinds) >= 2:
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_literal_names_two_protocol_kinds():
    assert kind_literals(PACKAGE) == []


def test_the_table_keeps_the_kind_order_and_groups():
    # `protocol.kind must be one of (...)` prints the kinds in this order
    assert PROTOCOL_KINDS == ("fl", "sl_homogeneous", "sl_heterogeneous", "fedsplit_nested")
    assert SL_PROTOCOLS == ("sl_homogeneous", "sl_heterogeneous")

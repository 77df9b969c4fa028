"""The library computes in ints and Fractions only: no float anywhere."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "primalcount").glob("*.py"))


def float_uses(tree):
    """(line, what) for each float literal and each call to float or round."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            yield node.lineno, f"call to {node.func.id}"


def test_sources_found():
    assert len(SRC) >= 9


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_floating_point(path):
    uses = list(float_uses(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert not uses, f"{path.name}: {uses}"


def test_detector_catches_floats():
    source = "x = 1.5\ny = float(2)\nz = round(7 / 2)\nw = 1 // 2\n"
    assert [line for line, _ in float_uses(ast.parse(source))] == [1, 2, 3]

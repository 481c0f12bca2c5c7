"""Checks on the program source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "circledyn").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so a check on input or family data must
    # raise a typed error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


FAMILY_NAMES = {"dream", "persistent", "montevideo"}


def family_name_comparisons(path) -> list:
    """(line, name) of each comparison or match case against a family name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        for operand in operands:
            found += [
                (node.lineno, c.value)
                for c in ast.walk(operand)
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value in FAMILY_NAMES
            ]
    return found


def test_family_name_check_sees_families_py():
    # families.py keeps the one rule that needs the name: the persistent
    # scan runs over odd n only
    path = next(p for p in SOURCES if p.name == "families.py")
    assert [name for _, name in family_name_comparisons(path)] == ["persistent"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "families.py"], ids=lambda p: p.name)
def test_no_family_name_comparisons(path):
    # each family states its bounds and extension classes once, in its
    # constructor; the other modules read them and never branch on the name
    assert family_name_comparisons(path) == [], f"{path.name} compares with a family name"

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


# Float-returning functions of `math`; `math.isqrt`, `gcd` and `lcm` are exact.
FLOAT_MATH = {"log", "log2", "log10", "log1p", "exp", "sqrt", "pow"}

# (module, scope) of the presentation code that may use floats: the entropy
# as a float, the scan chart, and the message of a failed root isolation.
FLOAT_SCOPES = {
    ("arith.py", "CertifiedRoot.log_float"),
    ("arith.py", "largest_root_above.raise"),
    ("cli.py", "_write_svg"),
}


def float_uses(path) -> list:
    """(scope, line) of each use of the name `float`, float literal and
    float-returning `math` function (attribute or import) in the module.
    The scope is the dotted path of the enclosing classes and functions,
    with `raise` appended inside a raise statement.  True division of two
    ints also makes a float; this check does not see it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        elif isinstance(node, ast.Raise):
            scope += ("raise",)
        if (
            (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Constant) and isinstance(node.value, float))
            or (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH and getattr(node.value, "id", None) == "math")
            or (isinstance(node, ast.ImportFrom) and node.module == "math" and {a.name for a in node.names} & FLOAT_MATH)
        ):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_float_check_sees_the_presentation_code():
    # the allowed uses are there and found, so the check below is not vacuous
    seen = {(p.name, scope) for p in SOURCES for scope, _ in float_uses(p)}
    assert FLOAT_SCOPES <= seen


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_floats_only_in_presentation(path):
    # every answer is exact or a certified rational bracket: floats appear
    # only where a result is shown, never in a computation
    allowed = [scope for module, scope in FLOAT_SCOPES if module == path.name]
    stray = [
        (scope, line)
        for scope, line in float_uses(path)
        if not any(scope == a or scope.startswith(a + ".") for a in allowed)
    ]
    assert stray == [], f"{path.name}: floats outside presentation code at {stray}"

"""The package's surface, read from its source with ast: no module imports a
name it never uses, and reflexivity exports exactly the names below, so
that adding public surface back is a deliberate edit here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reflexivity"

EXPORTS = {
    # expr
    "EvalDomainError", "Expression", "ExpressionError", "MultipleVariablesError",
    "NonDifferentiableError", "ParseError", "UnknownIdentifierError",
    "derivative", "evaluate", "evaluate_many", "parse",
    # dynamics
    "FixedPoint", "Orbit", "OrbitNumericError", "PreconditionError", "ReflexiveSystem",
    "SystemState", "check_proposition_1", "classify_stability", "compose_gamma",
    "find_fixed_points", "make_system", "orbit", "step",
    # analysis
    "BoomBustEvent", "ConjugacyReport", "DistanceReport", "NonMonotoneError",
    "OutOfRangeError", "PeriodReport", "detect_boom_bust", "detect_period",
    "function_distance", "verify_conjugacy",
    # render
    "PhasePortraitTrace", "RenderOptions", "StaircaseTrace", "phase_portrait",
    "staircase", "to_csv", "to_svg",
}


def tree(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def imported(module):
    """The names module's import statements bind, but __future__'s."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    module = tree(name)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    assert not imported(module) - used, name


def test_exports_are_pinned():
    module = tree("__init__.py")
    assigned = {t.id for node in module.body if isinstance(node, ast.Assign)
                for t in node.targets}
    assert imported(module) == EXPORTS
    assert assigned == {"__version__"}

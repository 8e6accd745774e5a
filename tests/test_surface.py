"""The package's surface, read from its source with ast: no module imports a
name it never uses, no module defines a name nothing else uses, and
reflexivity exports exactly the names below, so that adding public surface
back is a deliberate edit here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reflexivity"

# layer: the names reflexivity exports from it
LAYERS = {
    "expr": {
        "EvalDomainError", "Expression", "ExpressionError", "MultipleVariablesError",
        "NonDifferentiableError", "ParseError", "UnknownIdentifierError",
        "derivative", "evaluate", "evaluate_many", "parse"},
    "dynamics": {
        "FixedPoint", "Orbit", "OrbitNumericError", "PreconditionError", "ReflexiveSystem",
        "SystemState", "check_proposition_1", "classify_stability", "compose_gamma",
        "find_fixed_points", "make_system", "orbit", "step"},
    "analysis": {
        "BoomBustEvent", "ConjugacyReport", "DistanceReport", "NonMonotoneError",
        "OutOfRangeError", "PeriodReport", "detect_boom_bust", "detect_period",
        "function_distance", "verify_conjugacy"},
    "render": {
        "PhasePortraitTrace", "RenderOptions", "StaircaseTrace", "phase_portrait",
        "staircase", "to_csv", "to_svg"},
}
EXPORTS = set().union(*LAYERS.values())


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
    # __init__.py imports no layer: its table of lazy names is the surface.
    module = tree("__init__.py")
    assigned = {t.id: node.value for node in module.body if isinstance(node, ast.Assign)
                for t in node.targets}
    table = ast.literal_eval(assigned["_EXPORTS"])
    assert {layer: set(names) for layer, names in table.items()} == LAYERS
    assert sum(map(len, table.values())) == len(EXPORTS)
    assert imported(module) == set()
    assert set(assigned) == {"__version__", "_EXPORTS", "__all__"}


def defined(node):
    """The names a top-level def, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def read(node):
    """The names node reads, as a name or as an attribute of anything."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unused(modules):
    """The names defined at the top of modules (name -> body) but
    __init__.py's, that are not exported and that no statement other than
    their own reads."""
    reads = [(node, read(node)) for body in modules.values() for node in body]
    return {(name, n) for name, body in modules.items() if name != "__init__.py"
            for node in body
            for n in defined(node) - EXPORTS
            if not any(n in r for other, r in reads if other is not node)}


def test_every_defined_name_is_used():
    # A kernel keeper or template that loses its last caller shows up here.
    assert unused({name: tree(name).body for name in MODULES + ["__init__.py"]}) == set()


def test_unused_names_are_found():
    modules = {"m.py": ast.parse("def kept(): pass\n_T = 1\ndef _f(): return _f()\n"
                                 "def g(): return kept\n").body,
               "n.py": ast.parse("import m\nm.g()\n").body}
    assert unused(modules) == {("m.py", "_T"), ("m.py", "_f")}


def test_the_solver_step_rule_is_written_once():
    # The Newton acceptance line of dynamics._SOLVE, the one bracketing root
    # solver: a second copy of the solver, in Python or inlined in another
    # kernel's template, holds a Newton acceptance test too.
    from reflexivity import dynamics
    (line,) = [ln.strip() for ln in dynamics._SOLVE.splitlines() if "< newton <" in ln]
    lines = [ln.strip() for p in sorted(SRC.glob("*.py")) for ln in p.read_text().splitlines()]
    assert lines.count(line) == 1
    assert [ln for ln in lines if "newton <" in ln or "< newton" in ln] == [line]


def test_every_mutant_applies_once():
    # tests/mutants.py replaces each entry's text in a copy of src/: a change
    # that rewrites or repeats that text makes the entry stale, and must
    # update it.
    import mutants
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (SRC / m.path).read_text().count(m.text) == 1, m.name
        assert m.text != m.replacement, m.name
        for test in m.tests:
            assert (SRC.parent.parent / test.split("::")[0]).is_file(), (m.name, test)

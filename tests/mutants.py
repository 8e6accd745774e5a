"""A mutation check of the fast paths: each entry of MUTANTS breaks one
piece of src/reflexivity on purpose and names the tests that must then fail.

    python tests/mutants.py [NAME ...]

For each entry (or each one named), it copies src/, tests/ and
pyproject.toml to a temporary directory, replaces the entry's source text
there and runs the entry's tests with pytest -x.  It reports the mutant as
killed (a test failed), survived (every test passed), stale (its text is
not found exactly once in its file) or error (pytest could not run them),
and exits 1 unless every mutant is killed.

Stdlib only, and not part of the tier-1 suite: there,
test_surface.py checks only that each entry's text occurs exactly once, so
that a change which rewrites guarded code updates the entry with it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # the file, under src/reflexivity
    text: str  # the source text it replaces, found exactly once in path
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


SCAN = ("tests/test_columns.py::TestBoomBustScan",)
FIXED_POINT_SCAN = ("tests/test_sweep.py::TestScansMatchLoops::test_fixed_point_scan",
                    "tests/test_dynamics.py::TestFindFixedPoints")
FIXED_POINT_SEARCH = FIXED_POINT_SCAN + ("tests/test_solve.py::TestFixedPointSolve",)
SOLVE = ("tests/test_solve.py",)
RENDER = ("tests/test_columns.py::TestRenderFromColumns",)
STARTUP = ("tests/test_startup.py",)

MUTANTS = [
    # analysis.detect_boom_bust's scan over the column of rising steps.
    Mutant("scan-flat-rises", "analysis.py",
           "bytes(map(lt, xs, islice(xs, 1, None)))",
           "bytes(map(lambda a, b: a <= b, xs, islice(xs, 1, None)))", SCAN),
    Mutant("scan-run-to-the-end", "analysis.py",
           "        if j < 0:\n            return\n",
           "        if j < 0:\n            j = len(column)\n", SCAN),
    Mutant("scan-fall-end-off-by-one", "analysis.py",
           "j + len(falls) if end < 0 else j + end)",
           "j + len(falls) if end < 0 else j + end + 1)", SCAN),
    Mutant("scan-fall-start-off-by-one", "analysis.py",
           ".rfind(0) + 1", ".rfind(0)", SCAN),
    Mutant("scan-min-run-truncated", "analysis.py",
           "n = math.ceil(min_run)", "n = int(min_run)", SCAN),
    Mutant("scan-short-stretches-searched", "analysis.py",
           "_runs(ups, 0, n)", "_runs(ups, 0, 1)", SCAN),
    Mutant("scan-flat-after-a-rise", "analysis.py",
           "if falls[0]:", "if falls:", SCAN),
    # dynamics._SCAN, the fixed-point grid's scan, and the solve of each
    # sign change it finds.
    Mutant("fixed-point-near-inclusive", "dynamics.py",
           "if ntol < g < tol:", "if ntol <= g <= tol:", FIXED_POINT_SCAN),
    Mutant("fixed-point-sign-inclusive", "dynamics.py",
           "elif 0.0 > prev * g:", "elif 0.0 >= prev * g:", FIXED_POINT_SCAN),
    Mutant("fixed-point-failure-is-zero", "dynamics.py",
           "            g = nan\n", "            g = 0.0\n", FIXED_POINT_SCAN),
    Mutant("fixed-point-bracket-from-its-upper-end", "dynamics.py",
           "lo + w * (k - 1) / m", "lo + w * k / m", FIXED_POINT_SEARCH),
    Mutant("fixed-point-failed-bracket-skipped", "dynamics.py",
           "failed += 1", "skipped += 1", FIXED_POINT_SEARCH),
    Mutant("fixed-point-capped-solve-is-a-jump", "dynamics.py",
           "if status == 1:", "if status != 0:", FIXED_POINT_SEARCH),
    # dynamics._SOLVE, the one bracketing root solver.
    Mutant("solve-bracket-swapped", "dynamics.py",
           "if (gx > 0) == (ga > 0):", "if (gx > 0) != (ga > 0):", SOLVE),
    Mutant("solve-newton-acceptance-strict", "dynamics.py",
           "-step_old <= 2.0 * (newton - x) <= step_old",
           "-step_old < 2.0 * (newton - x) < step_old", SOLVE),
    Mutant("solve-collapse-max-slope", "dynamics.py",
           "min(least, abs(slope))", "max(least, abs(slope))", SOLVE),
    Mutant("solve-collapse-strict", "dynamics.py",
           "abs(gb - ga) <= 2.0 * least * (b - a)", "abs(gb - ga) < 2.0 * least * (b - a)",
           SOLVE),
    Mutant("solve-failing-end-slope-huge", "dynamics.py",
           "except numeric:\n                    slope = 0.0",
           "except numeric:\n                    slope = 1e300", SOLVE),
    Mutant("solve-failing-step-slope-one", "dynamics.py",
           "except numeric:\n            slope = 0.0",
           "except numeric:\n            slope = 1.0", SOLVE),
    Mutant("solve-end-value-dropped", "dynamics.py",
           "                    @V\n                    @D\n", "                    @D\n", SOLVE),
    Mutant("solve-value-error-swallowed", "dynamics.py",
           "        @V\n        if ntol < gx < tol:",
           "        try:\n            @V\n        except numeric:\n            break\n"
           "        if ntol < gx < tol:", SOLVE),
    # expr's dual lines: a power's derivative line before its value line.
    Mutant("dual-power-value-first", "expr.py",
           "steps.insert(0 if rule == \"^\" else 1,", "steps.insert(1,",
           ("tests/test_expr.py",)),
    # render.to_svg's coordinate texts: looked up per point in a staircase,
    # set between a template's fixed pieces for each element.
    Mutant("svg-y-in-x-table", "render.py",
           "map(dict(zip(ys, y_texts)).__getitem__",
           "map(dict(zip(xs, map(\"%.3f\".__mod__, px(xs)))).__getitem__", RENDER),
    Mutant("svg-step-ends-off-by-one", "render.py",
           "_elements(_STEP, *steps)", "_elements(_STEP, steps[0][1:] + steps[0][:1], steps[1])",
           RENDER),
    Mutant("svg-step-newline-dropped", "render.py",
           "_elements(_STEP, *steps)", "_elements(_STEP, *steps, \"\")", RENDER),
    Mutant("svg-circles-from-x-texts", "render.py",
           "_elements(_ORBIT_POINT, *path)", "_elements(_ORBIT_POINT, path[0], path[0])", RENDER),
    # A CLI process: the entry's freeze, the package's lazy names, the
    # layers each handler imports for itself, and the failures main maps.
    Mutant("entry-freeze-dropped", "cli.py", "gc.freeze()", "gc.collect()", STARTUP),
    Mutant("lazy-name-in-wrong-layer", "__init__.py",
           '"orbit", "step"),\n    "analysis": (\n        "',
           '"orbit"),\n    "analysis": (\n        "step", "',
           STARTUP + ("tests/test_surface.py::test_exports_are_pinned",)),
    Mutant("handler-import-dropped", "cli.py",
           "def cmd_period(sc):\n    from . import analysis\n", "def cmd_period(sc):\n",
           STARTUP),
    Mutant("precondition-class-dropped", "analysis.py",
           "class NonMonotoneError(_dyn.PreconditionError):", "class NonMonotoneError(Exception):",
           STARTUP),
    Mutant("json-error-unmapped", "cli.py",
           "raise UsageError(str(exc)) from exc", "raise",
           ("tests/test_cli.py::TestScenarioHandling",)),
]


def source(mutant, root=ROOT):
    return (root / "src" / "reflexivity" / mutant.path).read_text()


def run(mutant):
    """"killed", "survived", "stale" or "error", and pytest's last line."""
    if source(mutant).count(mutant.text) != 1:
        return "stale", ""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "reflexivity" / mutant.path
        path.write_text(source(mutant, tmp).replace(mutant.text, mutant.replacement))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    last = (done.stdout.strip().splitlines() or [""])[-1]
    return {0: "survived", 1: "killed"}.get(done.returncode, "error"), last


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    outcomes = []
    for mutant in chosen:
        outcome, last = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:9} {mutant.name}  ({last})", flush=True)
    print(f"{outcomes.count('killed')} of {len(chosen)} killed")
    return 0 if outcomes.count("killed") == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

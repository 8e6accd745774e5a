"""What a CLI process loads and keeps: each subcommand imports only the
layers it runs, the package resolves its names lazily, and the process
entry freezes the start-up heap while main(argv) in process does not.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reflexivity
from reflexivity import cli
from test_surface import LAYERS

ROOT = Path(__file__).resolve().parent.parent


def python(*args):
    """Run the interpreter on the checkout's src/ and return its stdout."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs main(argv) on its arguments, then prints the exit code and the
# reflexivity modules the process has loaded.
LOADED = """
import contextlib, io, json, sys
from reflexivity import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "reflexivity")]))
"""

BASE = ["reflexivity", "reflexivity.cli", "reflexivity.dynamics", "reflexivity.expr"]


# One call of each subcommand, and the layers beyond expr and dynamics it runs.
CALLS = [
    (["simulate", "--scenario", "case1", "--steps", "5"], ["render"]),
    (["fixed-points", "--scenario", "case1", "--grid", "64"], []),
    (["distance", "--scenario", "case1", "--samples", "64"], ["analysis"]),
    (["period", "--scenario", "case1", "--burn-in", "10"], ["analysis"]),
    (["boom-bust", "--scenario", "case2"], ["analysis"]),
    (["conjugacy", "--f", "2*x", "--g", "2*x", "--h", "x", "--domain", "0", "1"], ["analysis"]),
    (["staircase", "--scenario", "case1", "--steps", "5"], ["render"]),
    (["portrait", "--scenario", "case2", "--steps", "5"], ["render"]),
]


class TestLazyPackage:
    @pytest.mark.parametrize("argv, layers", CALLS, ids=[argv[0] for argv, _ in CALLS])
    def test_each_subcommand_loads_exactly_its_layers(self, argv, layers):
        code, loaded = json.loads(python("-c", LOADED, *argv))
        assert code == 0
        assert loaded == sorted(BASE + [f"reflexivity.{layer}" for layer in layers])

    def test_bare_import_loads_no_layer(self):
        code = "import reflexivity, sys; print([m for m in sys.modules if 'reflexivity' in m])"
        assert python("-c", code) == "['reflexivity']\n"

    def test_cli_imports_no_pathlib_or_importlib_resources(self):
        # Without site, which loads both in some installs.
        code = ("import reflexivity.cli, sys; print([m for m in ('pathlib', "
                "'importlib.resources') if m in sys.modules])")
        assert python("-S", "-c", code) == "[]\n"

    def test_every_export_resolves_to_its_layers_object(self):
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"reflexivity.{layer}")
            assert reflexivity.__getattr__(layer) is module
            for name in names:
                assert reflexivity.__getattr__(name) is getattr(module, name), name
                assert getattr(reflexivity, name) is getattr(module, name), name
        assert set(dir(reflexivity)) >= set().union(*LAYERS.values(), LAYERS)
        assert sorted(reflexivity.__all__) == sorted(set().union(*LAYERS.values()))

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            reflexivity.nope
        with pytest.raises(ImportError):
            from reflexivity import nope  # noqa: F401

    def test_analysis_error_exits_4_in_a_fresh_process(self):
        # analysis' refusals are dynamics.PreconditionErrors, which main maps
        # to 4 without importing analysis up front.
        system = ["distance", "--f", "sin(x)", "--phi", "y", "--domain", "0", "6.28"]
        assert json.loads(python("-c", LOADED, *system))[0] == 4
        system = ["distance", "--f", "x", "--phi", "y", "--domain", "0", "1",
                  "--y-domain", "5", "6"]
        assert json.loads(python("-c", LOADED, *system))[0] == 4

    @pytest.mark.parametrize("argv, loaded", [
        (["fixed-points", "--f", "x/2", "--phi", "y", "--domain", "0", "1"], False),
        (["fixed-points", "--scenario", "case1", "--grid", "64"], True),
    ], ids=["flags", "scenario"])
    def test_only_a_scenario_loads_json(self, argv, loaded):
        code = ("import contextlib, io, sys\n"
                "from reflexivity import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(sys.argv[1:])\n"
                "print(code, 'json' in sys.modules)\n")
        assert python("-c", code, *argv) == f"0 {loaded}\n"


def test_fields_state_the_layers_defaults():
    from reflexivity import analysis, render
    default = {name: row[2] for name, row in cli.FIELDS.items()}
    options = render.RenderOptions()
    assert default["samples"] == analysis.DEFAULT_SAMPLES
    assert default["max_period"] == analysis.DEFAULT_MAX_PERIOD
    assert default["min_run"] == analysis.DEFAULT_MIN_RUN
    assert default["retrace_threshold"] == analysis.DEFAULT_RETRACE_THRESHOLD
    assert (default["width"], default["height"], default["margin"]) == (
        options.width, options.height, options.margin)
    assert default["curve_samples"] == render.DEFAULT_CURVE_SAMPLES


class TestFreeze:
    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert cli.main(["staircase", "--scenario", "case1", "--steps", "5"]) == 0
        assert cli.main(["period", "--scenario", "case1", "--burn-in", "10"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_entry_freezes_before_main(self):
        code = ("import gc, json; from reflexivity import cli; seen = [gc.get_freeze_count()]; "
                "cli.main = lambda argv=None: seen.append([argv, gc.get_freeze_count()]) or 7; "
                "print(json.dumps([cli.entry(), seen]))")
        exit_code, (before, (argv, frozen)) = json.loads(python("-c", code))
        assert (exit_code, before, argv) == (7, 0, None)
        assert frozen > 1000

    def test_python_m_runs_the_entry(self, tmp_path):
        # runpy runs the module as `python -m reflexivity.cli` does.
        out = tmp_path / "cobweb.svg"
        code = ("import gc, runpy, sys\n"
                "sys.argv = ['reflexivity', 'staircase', '--scenario', 'case1', '--out', "
                f"{str(out)!r}]\n"
                "try:\n"
                "    runpy.run_module('reflexivity.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    print(exc.code, gc.get_freeze_count() > 1000)\n")
        assert python("-c", code) == "0 True\n"
        assert out.read_text().endswith("</svg>\n")

    def test_console_script_is_the_entry(self):
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"reflexivity": "reflexivity.cli:entry"}

    @pytest.mark.parametrize("argv", [
        ["fixed-points", "--scenario", "case1"],
        ["boom-bust", "--scenario", "case2", "--min-run", "1"],
        ["simulate", "--f", "x+", "--phi", "y", "--x0", "1"],
    ], ids=["ok", "precondition", "parse-error"])
    def test_process_answers_as_main_does(self, capsys, argv):
        done = subprocess.run([sys.executable, "-m", "reflexivity.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        code = cli.main(argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, *capsys.readouterr())

import argparse
import errno
import json
import math
import os
import shlex
from pathlib import Path

import pytest

from reflexivity import cli, dynamics


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_cos_convergence(self, capsys):
        code, out, err = run(capsys, "simulate", "--f", "cos(x)", "--phi", "y",
                             "--x0", "1", "--steps", "500")
        assert code == 0
        assert out.splitlines()[0] == "i,x,y"
        final_x = float(out.strip().splitlines()[-1].split(",")[1])
        assert final_x == pytest.approx(0.739085, abs=1e-6)
        assert "terminated_by=convergence" in err

    def test_domain_error_exit_3(self, capsys):
        code, _, err = run(capsys, "simulate", "--f", "log(x)", "--phi", "y",
                           "--x0", "-1", "--steps", "5")
        assert code == 3
        assert "numeric error" in err

    def test_overflow_message_exit_3(self, capsys):
        got = run(capsys, "simulate", "--f", "x^3", "--phi", "y", "--x0", "1e120")
        assert got == (3, "", "numeric error: Numerical result out of range "
                              "(node at offset 1) (step 0)\n")

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--f", "x +* 2", "--phi", "y",
                           "--x0", "1")
        assert code == 2
        assert "parse error" in err

    def test_missing_x0_exit_2(self, capsys):
        code, _, _ = run(capsys, "simulate", "--f", "x", "--phi", "y")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "simulate", "--f", "x", "--phi", "y",
                           "--x0", "0.5", "--steps", "10", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("i,x,y")


class TestScenarioHandling:
    def test_inline_flags_match_scenario_file(self, capsys, tmp_path):
        scenario = {
            "f": "cos(x)", "phi": "y", "x0": 1.0, "steps": 100,
            "x_domain": [-10.0, 10.0], "y_domain": [-2.0, 2.0],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        _, out_scenario, _ = run(capsys, "simulate", "--scenario", str(path))
        _, out_inline, _ = run(
            capsys, "simulate", "--f", "cos(x)", "--phi", "y", "--x0", "1",
            "--steps", "100", "--domain", "-10", "10", "--y-domain", "-2", "2")
        assert out_scenario == out_inline

    def test_inline_flags_override_scenario(self, capsys, tmp_path):
        scenario = {"f": "x", "phi": "y", "x0": 0.5, "steps": 5,
                    "x_domain": [0.0, 1.0], "y_domain": [0.0, 1.0]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(capsys, "simulate", "--scenario", str(path),
                           "--x0", "0.25")
        assert code == 0
        assert out.splitlines()[1] == "0,0.25,0.25"

    def test_bundled_scenarios_resolve(self, capsys):
        for name in ("case1", "case2"):
            code, out, _ = run(capsys, "boom-bust", "--scenario", name)
            assert code == 0
            assert out.startswith("events=")

    def test_unknown_scenario_exit_2(self, capsys):
        code, _, _ = run(capsys, "simulate", "--scenario", "nope.json")
        assert code == 2

    @pytest.mark.parametrize("name", ["/no/such/dir/case2.json", "case1.json"])
    def test_missing_path_is_not_a_bundled_name(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "distance", "--scenario", name)
        assert code == 2
        assert out == ""
        assert f"scenario not found: {name}" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "simulate", "--scenario", str(path))
        assert code == 2

    @pytest.mark.parametrize("data, message", [
        (b'\xff{"x0": 0.3}', "codec can't decode byte 0xff"),
        (b'{"x0": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ])
    def test_unreadable_scenario_exit_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "simulate", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: scenario {path}: ") and message in err

    def test_out_path_with_nul_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--f", "x/2", "--phi", "y", "--x0", "1",
                             "--out", "a\0b")
        assert (code, out) == (2, "")
        assert err == "error: --out 'a\\x00b': embedded null byte\n"

    @pytest.mark.parametrize("target, code", [("missing/o.csv", errno.ENOENT),
                                              (".", errno.EISDIR)],
                             ids=["missing-directory", "directory"])
    def test_out_path_that_cannot_be_written_exit_2(self, capsys, tmp_path, target, code):
        path = str(tmp_path / target)
        got = run(capsys, "simulate", "--f", "x/2", "--phi", "y", "--x0", "1", "--out", path)
        assert got == (2, "", f"error: --out {path!r}: {os.strerror(code)}\n")

    def test_scenario_read_failure_exit_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        path.write_text("{}")

        def failing(self, *args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(self))
        monkeypatch.setattr(Path, "read_text", failing)
        got = run(capsys, "simulate", "--scenario", str(path))
        assert got == (2, "", f"error: scenario {path}: {os.strerror(errno.EIO)}\n")

    def test_scenario_name_too_long_exit_2(self, capsys):
        name = "a/" + "a" * 5000
        got = run(capsys, "simulate", "--scenario", name)
        assert got == (2, "", f"error: scenario {name}: {os.strerror(errno.ENAMETOOLONG)}\n")


class TestFixedPoints:
    def test_logistic_rows(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--f", "2.5*x*(1-x)",
                           "--phi", "y", "--domain", "-0.5", "1.5")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(rows) == 2
        assert "repelling" in rows[0] and "attracting" in rows[1]

    def test_no_fixed_points_exit_0(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--f", "x+1", "--phi", "y",
                           "--domain", "-10", "10")
        assert code == 0
        assert len([ln for ln in out.splitlines() if not ln.startswith("#")]) == 0

    def test_inverse_pair_grid_11(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--f", "2*x+1", "--phi",
                           "(y-1)/2", "--domain", "0", "1", "--grid", "11")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(rows) == 11
        assert all("marginal" in r for r in rows)

    def test_root_without_derivative_is_undetermined(self, capsys):
        # sqrt has no derivative at y = 0, the image of the root x = 1.
        code, out, _ = run(capsys, "fixed-points", "--f", "x - 1", "--phi", "sqrt(y) + 1",
                           "--domain", "-1", "3", "--y-domain", "0", "2", "--grid", "401")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines() if not ln.startswith("#")]
        assert [(r[0], r[2], r[3]) for r in rows] == [
            ("1", "nan", "undetermined"), ("2", "0.5", "attracting")]

    @pytest.mark.parametrize("command", ["fixed-points", "staircase"])
    def test_overflowing_multiplier_is_undetermined(self, capsys, command):
        # x^-1's derivative overflows at the root 1e-200: the multiplier is
        # NaN, and neither command fails.
        start = ("--x0", "0.5") if command == "staircase" else ()
        code, out, err = run(capsys, command, "--f", "2*x + 0*x^-1", "--phi", "y",
                             "--domain", "1e-200", "1", "--y-domain", "0", "3", *start)
        assert code == 0 and "error" not in err, err
        if command == "fixed-points":
            rows = [ln.split() for ln in out.splitlines() if not ln.startswith("#")]
            assert [(r[2], r[3]) for r in rows] == [("nan", "undetermined")]
            assert err == "fixed_points=1\n"

    @pytest.mark.parametrize("f", ["x/1e200*1e200", "x/1e-200*1e-200"])
    def test_quotient_with_a_tiny_or_huge_divisor(self, capsys, f):
        # The quotient rule's derivative, (da - v*db)/b, has no b*b that
        # underflows to 0 (multiplier 0) or overflows (division by zero).
        code, out, _ = run(capsys, "fixed-points", "--f", f, "--phi", "1.5*y",
                           "--domain", "-1", "1", "--y-domain", "-2", "2")
        assert code == 0
        rows = [ln.split() for ln in out.splitlines() if not ln.startswith("#")]
        assert [(r[0], r[2], r[3]) for r in rows] == [("0", "1.5", "repelling")]


class TestAnalysisCommands:
    def test_distance_exact_inverse(self, capsys):
        code, out, _ = run(capsys, "distance", "--f", "2*x", "--phi", "y/2",
                           "--domain", "0", "10")
        assert code == 0
        d = float(out.split()[0].split("=")[1])
        assert d <= 1e-10

    def test_distance_non_monotone_exit_4(self, capsys):
        code, _, err = run(capsys, "distance", "--f", "sin(x)", "--phi", "y",
                           "--domain", "0", "6.28")
        assert code == 4
        assert "precondition error" in err

    def test_period_logistic(self, capsys):
        code, out, _ = run(capsys, "period", "--f", "3.2*x*(1-x)", "--phi", "y",
                           "--domain", "0", "1", "--x0", "0.3",
                           "--burn-in", "1000")
        assert code == 0
        assert out.startswith("period=2 ")

    def test_boom_bust_case2(self, capsys):
        code, out, _ = run(capsys, "boom-bust", "--scenario", "case2")
        assert code == 0
        lines = out.splitlines()
        assert int(lines[0].split("=")[1]) >= 1
        assert any(ln.startswith("event ") for ln in lines)

    def test_conjugacy_consistent(self, capsys):
        code, out, _ = run(capsys, "conjugacy",
                           "--f", "1-2*abs(x-0.5)", "--g", "4*x*(1-x)",
                           "--h", "sin(1.5707963267948966*x)^2",
                           "--domain", "0", "1")
        assert code == 0
        assert out.startswith("verdict=consistent")

    def test_conjugacy_violated(self, capsys):
        code, out, _ = run(capsys, "conjugacy", "--f", "2*x", "--g", "3*x",
                           "--h", "x", "--domain", "0", "1")
        assert code == 0
        assert out.startswith("verdict=violated")

    def test_conjugacy_without_finite_residual(self, capsys):
        code, out, _ = run(capsys, "conjugacy", "--f", "x*1e300*1e300 - x*1e300*1e300",
                           "--g", "x", "--h", "x", "--domain", "0.5", "1")
        assert code == 0
        assert out == "verdict=violated max_residual=nan fixed_points_checked=0 violation_x=0.5\n"


class TestRenderCommands:
    def test_staircase_svg(self, capsys, tmp_path):
        out_path = tmp_path / "cobweb.svg"
        code, _, _ = run(capsys, "staircase", "--scenario", "case1",
                         "--steps", "50", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert '<line class="step"' in text

    def test_portrait_svg_stdout(self, capsys):
        code, out, _ = run(capsys, "portrait", "--f", "cos(x)", "--phi", "y",
                           "--x0", "1", "--steps", "30")
        assert code == 0
        assert '<polyline class="orbit"' in out

    def test_repeated_invocations_identical(self, capsys):
        args = ("portrait", "--scenario", "case2")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b


class TestExitCodeScheme:
    @pytest.mark.parametrize("argv,expected", [
        (("simulate", "--f", "x +", "--phi", "y", "--x0", "1"), 2),
        (("fixed-points", "--f", "x + y", "--phi", "y", "--domain", "0", "1"), 2),
        (("simulate", "--f", "1/x", "--phi", "y", "--x0", "1",
          "--domain", "1", "0"), 3),
        (("simulate", "--f", "sqrt(x)", "--phi", "y", "--x0", "2",
          "--domain", "-1", "1"), 3),
        (("distance", "--f", "x*0 + 1", "--phi", "y", "--domain", "0", "1"), 4),
        (("period", "--f", "x", "--phi", "y", "--x0", "0",
          "--max-period", "0"), 4),
        # math.sin raises ValueError at inf: a numeric error, not a precondition
        (("simulate", "--f", "sin(1e999*x)", "--phi", "y", "--x0", "1"), 3),
    ])
    def test_uniform_exit_codes(self, capsys, argv, expected):
        code, _, _ = run(capsys, *argv)
        assert code == expected

    # W is inf at x = at and 0 elsewhere, so W - W is NaN there only.  The
    # second point of the 256-point grid of the derived y_domain is on no
    # grid of the system's own check, which saw "phi not finite at nan".
    @pytest.mark.parametrize("f, at", [("x/2 + W - W", -10.0), ("x/2 + W - W", 10.0),
                                       ("x/2 + W", dynamics._grid(-10.0, 10.0, 256)[1])],
                             ids=["nan-at-lo", "nan-at-hi", "inf-off-the-check-grid"])
    def test_derived_y_domain_names_the_first_non_finite_x(self, capsys, f, at):
        w = f"exp(-((x - {at!r})*1e300*1e300)*((x - {at!r})*1e300*1e300))*1e300*1e300"
        got = run(capsys, "simulate", "--f", f.replace("W", w), "--phi", "y", "--x0", "1")
        assert got == (3, "", f"numeric error: f not finite at {at!r}\n")

    @pytest.mark.parametrize("y_domain", [(), ("--y-domain", "0", "1")], ids=["derived", "given"])
    def test_f_invalid_reads_the_same_with_or_without_y_domain(self, capsys, y_domain):
        got = run(capsys, "simulate", "--f", "log(x)", "--phi", "y", "--x0", "1", *y_domain)
        assert got == (3, "", "numeric error: f invalid at -10.0: "
                              "log of non-positive value -10.0 (node at offset 0)\n")

    @pytest.mark.parametrize("lo, hi", [("1", "0"), ("0.5", "0.5"), ("0", "nan"), ("nan", "1")])
    def test_degenerate_conjugacy_domain_exits_3(self, capsys, lo, hi):
        got = run(capsys, "conjugacy", "--f", "4*x*(1-x)", "--g", "4*x*(1-x)", "--h", "x",
                  "--domain", lo, hi, "--samples", "64")
        message = f"interval is degenerate: [{float(lo)}, {float(hi)}]"
        assert got == (3, "", f"numeric error: {message}\n")

    # An interval with an infinite end, or one too wide for a grid's points,
    # is refused by name, not blamed on f at a point outside it.
    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--f", "x/2", "--phi", "y", "--domain", "0", "1e308", "--x0", "1",
          "--steps", "2"), "[0.0, 1e+308] is too wide for a grid of 256 points"),
        (("simulate", "--f", "x/2", "--phi", "y", "--domain", "0", "1e308", "--y-domain", "0",
          "1", "--x0", "1", "--steps", "2"),
         "[0.0, 1e+308] is too wide for a grid of 1024 points"),
        (("conjugacy", "--f", "x/2", "--g", "x/2", "--h", "x", "--domain", "0", "inf"),
         "interval is not finite: [0.0, inf]"),
        (("conjugacy", "--f", "x/2", "--g", "x/2", "--h", "x", "--domain", "0", "1e305",
          "--samples", "4096"), "[0.0, 1e+305] is too wide for a grid of 4096 points"),
        (("fixed-points", "--f", "x/2", "--phi", "y", "--domain", "0", "inf", "--y-domain",
          "0", "1"), "x_domain is not finite: [0.0, inf]"),
        # Without --y-domain, x_domain is checked before its grid is made.
        (("fixed-points", "--f", "x/2", "--phi", "y", "--domain", "-1", "inf"),
         "x_domain is not finite: [-1.0, inf]"),
        (("fixed-points", "--f", "x/2", "--phi", "y", "--domain", "-inf", "0"),
         "x_domain is not finite: [-inf, 0.0]"),
    ], ids=["simulate-wide", "simulate-wide-given-y", "conjugacy-inf", "conjugacy-wide",
            "fixed-points-inf", "fixed-points-inf-derived-y", "fixed-points-minus-inf"])
    def test_unbounded_or_too_wide_domain_exits_3(self, capsys, argv, message):
        assert run(capsys, *argv) == (3, "", f"numeric error: {message}\n")

    # log fails on the whole of each domain, so a grid made before the
    # interval check would blame f.
    @pytest.mark.parametrize("domain", [("1", "0"), ("0", "0"), ("0", "nan"), ("-1", "inf")])
    @pytest.mark.parametrize("y_domain", [(), ("--y-domain", "0", "1")], ids=["derived", "given"])
    def test_bad_x_domain_reads_the_same_with_or_without_y_domain(self, capsys, domain,
                                                                  y_domain):
        got = run(capsys, "fixed-points", "--f", "log(-1 - x*x)", "--phi", "y",
                  "--domain", *domain, *y_domain)
        lo, hi = map(float, domain)
        kind = "degenerate" if not lo < hi else "not finite"
        assert got == (3, "", f"numeric error: x_domain is {kind}: [{lo}, {hi}]\n")

    # period and the four subcommands that run an orbit stop at a
    # non-finite x0 alike, before f runs, sin(inf) or not.
    @pytest.mark.parametrize("f", ["x/2", "sin(x)"])
    @pytest.mark.parametrize("x0", ["inf", "nan"])
    def test_period_of_a_non_finite_x0_exits_3(self, capsys, f, x0):
        for command in ("period", "simulate", "boom-bust", "staircase", "portrait"):
            got = run(capsys, command, "--f", f, "--phi", "y", "--x0", x0)
            assert got == (3, "", f"numeric error: non-finite state x={x0} (step 0)\n"), command

    def test_too_deep_expression_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--f", "+".join(["x"] * 1200),
                           "--phi", "y", "--x0", "1")
        assert code == 2
        assert "parse error: expression nested too deeply" in err


class TestScenarioValidation:
    BASE = {"f": "x", "phi": "y", "x0": 0.5, "steps": 5,
            "x_domain": [0.0, 1.0], "y_domain": [0.0, 1.0]}

    @pytest.mark.parametrize("command,field,message", [
        ("simulate", {"x_domain": [1]}, "x_domain: expected [lo, hi] pair, got [1]"),
        ("simulate", {"x0": "abc"}, 'x0: expected number, got "abc"'),
        ("staircase", {"render": {"width": "wide"}},
         'render.width: expected integer, got "wide"'),
        ("simulate", {"f": 2}, "f: expected string, got 2"),
        ("boom-bust", {"analysis": []}, "analysis: expected object, got []"),
        ("simulate", {"stpes": 3}, "stpes: unknown field"),
        ("simulate", {"steps": 2.7}, "steps: expected integer, got 2.7"),
        ("simulate", {"steps": True}, "steps: expected integer, got true"),
        ("simulate", {"y_domain": [0, "8"]},
         'y_domain: expected [lo, hi] pair, got [0, "8"]'),
        ("boom-bust", {"analysis": {"min_rn": 5}}, "analysis.min_rn: unknown field"),
        ("period", {"analysis": None}, "analysis: expected object, got null"),
        ("period", {"analysis": {"max_period": 2.0}},
         "analysis.max_period: expected integer, got 2.0"),
        ("boom-bust", {"analysis": {"retrace_threshold": False}},
         "analysis.retrace_threshold: expected number, got false"),
        ("fixed-points", {"grid": "4096"}, 'grid: expected integer, got "4096"'),
        ("distance", {"samples": [256]}, "samples: expected integer, got [256]"),
        ("portrait", {"render": 800}, "render: expected object, got 800"),
        ("simulate", {"x_domain": [0, 1, 2]},
         "x_domain: expected [lo, hi] pair, got [0, 1, 2]"),
        ("simulate", {"analysis.min_run": 5}, "analysis.min_run: unknown field"),
        # fields the command does not use are checked too
        ("simulate", {"render": {"curve_samples": None, "colour": "red"}},
         "render.colour: unknown field"),
    ])
    def test_malformed_field_exit_2(self, capsys, tmp_path, command, field, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(self.BASE, **field)))
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_null_field_counts_as_absent(self, capsys, tmp_path):
        scenario = {"f": "x + 0.0001", "phi": "y", "x0": 0.0, "x_domain": [0.0, 1.0]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(scenario, steps=None, y_domain=None)))
        _, with_nulls, _ = run(capsys, "simulate", "--scenario", str(path))
        path.write_text(json.dumps(scenario))
        _, without, _ = run(capsys, "simulate", "--scenario", str(path))
        assert with_nulls == without
        assert len(without.splitlines()) == 1002  # header, x0 and 1000 default steps

    def test_out_of_range_value_is_a_precondition(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(self.BASE, render={"width": 0})))
        code, out, err = run(capsys, "staircase", "--scenario", str(path))
        assert code == 4
        assert out == ""
        assert "precondition error" in err


class TestFlagSurface:
    SYSTEM = {"--scenario", "--f", "--phi", "--domain", "--y-domain", "--out"}
    ORBIT = SYSTEM | {"--x0", "--steps"}
    SVG = ORBIT | {"--width", "--height", "--margin"}
    OPTIONS = {
        "simulate": ORBIT,
        "fixed-points": SYSTEM | {"--grid"},
        "distance": SYSTEM | {"--samples"},
        "period": ORBIT | {"--max-period", "--burn-in"},
        "boom-bust": ORBIT | {"--min-run", "--retrace-threshold"},
        "conjugacy": {"--f", "--g", "--h", "--domain", "--samples", "--out"},
        "staircase": SVG | {"--curve-samples"},
        "portrait": SVG,
    }

    def test_each_subcommand_takes_exactly_its_flags(self):
        # A parser holds the flags of the subcommand it is built for only.
        for command in (None, *self.OPTIONS):
            parser = cli.build_parser(command)
            (commands,) = [a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)]
            assert set(commands.choices) == set(self.OPTIONS)
            for name, sp in commands.choices.items():
                flags = {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
                assert flags == (self.OPTIONS[name] if name == command else set()), (command, name)

    def test_pair_flag_takes_two_numbers(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["distance", "--f", "2*x", "--phi", "y/2", "--domain", "0"])
        assert exc.value.code == 2

    # argparse alone takes only strings like -1 and -.5 for negative
    # numbers, and would read -1e3 as an unknown option.
    @pytest.mark.parametrize("value", ["-1e3", "-1E-3", "-.5e1", "-1_0.5", "-2.", "-0", "1e3"])
    def test_any_float_form_is_a_value(self, capsys, value):
        x = float(value)
        got = run(capsys, "simulate", "--f", "x/2", "--phi", "y", "--domain", value, "1e4",
                  "--x0", value, "--steps", "1")
        assert got == (0, "i,x,y\n0,%.17g,%.17g\n1,%.17g,%.17g\n" % (x, x / 2, x / 2, x / 4),
                       "terminated_by=step-budget\n")

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
    def test_non_finite_float_forms_are_values(self, capsys, value):
        got = run(capsys, "simulate", "--f", "x/2", "--phi", "y", "--x0", value)
        assert got == (3, "", f"numeric error: non-finite state x={float(value)!r} (step 0)\n")

    def test_option_that_is_no_number_is_still_an_option(self, capsys):
        # -x is taken as --x0's value, which is no float.
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--f", "x", "--phi", "y", "--x0", "-x"])
        assert exc.value.code == 2
        assert "argument --x0: invalid float value: '-x'" in capsys.readouterr().err

    # An expression that begins with one '-' is a value: a sign-flipping phi
    # makes the orbit oscillate.
    @pytest.mark.parametrize("flag, value, out", [
        ("--phi", "-y", "i,x,y\n0,1,0.5\n1,-0.5,-0.25\n2,0.25,0.125\n"),
        ("--f", "-sin(x)", "i,x,y\n0,1,%.17g\n1,%.17g,%.17g\n" % (
            -math.sin(1.0), -math.sin(1.0), -math.sin(-math.sin(1.0)))),
    ], ids=["phi", "f"])
    def test_expression_that_begins_with_a_minus_is_a_value(self, capsys, flag, value, out):
        argv = {"--f": "x/2", "--phi": "y", "--x0": "1", "--steps": "2" if flag == "--phi" else "1"}
        argv[flag] = value
        got = run(capsys, "simulate", *(word for item in argv.items() for word in item))
        assert got == (0, out, "terminated_by=step-budget\n")

    def test_word_with_one_minus_is_no_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--f", "x/2", "--phi", "y", "--x0", "1", "-steps", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -steps 3" in capsys.readouterr().err

    def test_expression_that_begins_with_minus_h_needs_the_equals_form(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--f", "-hx", "--phi", "y", "--x0", "1"])
        assert exc.value.code == 2
        assert "argument --f: expected one argument" in capsys.readouterr().err
        got = run(capsys, "simulate", "--f=-hx", "--phi", "y", "--x0", "1", "--steps", "1")
        assert got == (0, "i,x,y\n0,1,-1\n1,-1,1\n", "terminated_by=step-budget\n")

    # The program's and every subcommand's --help, as argparse prints it at
    # 80 columns; tests/help holds the expected text.
    @pytest.mark.parametrize("command", [None, "simulate", "fixed-points", "distance",
                                         "period", "boom-bust", "conjugacy", "staircase",
                                         "portrait"])
    def test_help_text_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"] if command is None else [command, "--help"])
        assert exc.value.code == 0
        want = (HELP / f"{command or 'reflexivity'}.txt").read_text()
        assert capsys.readouterr() == (want, "")

    def test_conjugacy_requires_its_domain(self, capsys):
        code, out, err = run(capsys, "conjugacy", "--f", "x", "--g", "x", "--h", "x")
        assert code == 2
        assert out == ""
        assert "missing required value: --domain" in err


README = Path(__file__).resolve().parents[1] / "README.md"
HELP = Path(__file__).resolve().parent / "help"


def _readme_block(fence, heading):
    text = README.read_text()
    start = text.index(fence + "\n", text.index(heading)) + len(fence) + 1
    return text[start:text.index("```", start)]


class TestReadme:
    def test_cli_examples_run(self, capsys, tmp_path):
        block = _readme_block("```sh", "## CLI").replace("\\\n", " ")
        commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
        assert len(commands) == len(cli.COMMANDS)
        for i, argv in enumerate(commands):
            assert argv[0] == "reflexivity"
            argv = argv[1:]
            if ">" in argv:
                k = argv.index(">")
                argv[k:k + 2] = ["--out", argv[k + 1]]
            if "--out" not in argv:
                argv += ["--out", f"out{i}.txt"]
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
            code, out, err = run(capsys, *argv)
            assert (code, out) == (0, ""), (argv, err)
            assert Path(argv[k]).read_text()

    @pytest.mark.parametrize("scenario", ["readme", "case1", "case2"])
    def test_scenarios_load(self, capsys, tmp_path, scenario):
        if scenario == "readme":
            data = json.loads(_readme_block("```json", "## CLI"))
            scenario = tmp_path / "readme.json"
            scenario.write_text(json.dumps(data))
        code, out, err = run(capsys, "simulate", "--scenario", str(scenario), "--steps", "3")
        assert code == 0, err
        assert len(out.splitlines()) == 5


class TestPreconditionExitCode:
    SYSTEM = ("--f", "3.9*x*(1-x)", "--phi", "y", "--domain", "0", "1", "--x0", "0.3")
    MARGIN = "margin must be >= 0 and less than half of each dimension"

    @pytest.mark.parametrize("argv, message", [
        (("simulate", *SYSTEM, "--steps", "0"), "max_steps must be >= 1"),
        (("boom-bust", *SYSTEM, "--steps", "0"), "max_steps must be >= 1"),
        (("staircase", *SYSTEM, "--steps", "0"), "max_steps must be >= 1"),
        (("portrait", *SYSTEM, "--steps", "0"), "max_steps must be >= 1"),
        (("period", *SYSTEM, "--max-period", "0"), "max_period must be >= 1"),
        (("period", *SYSTEM, "--burn-in", "-1"), "burn_in must be >= 0"),
        (("boom-bust", *SYSTEM, "--min-run", "1"), "min_run must be >= 2"),
        (("boom-bust", *SYSTEM, "--retrace-threshold", "0"),
         "retrace_threshold must be in (0, 1]"),
        (("boom-bust", *SYSTEM, "--retrace-threshold", "1.5"),
         "retrace_threshold must be in (0, 1]"),
        (("distance", "--f", "2*x", "--phi", "y/2", "--domain", "0", "1", "--samples", "1"),
         "samples must be >= 2"),
        (("conjugacy", "--f", "2*x", "--g", "2*x", "--h", "x", "--domain", "0", "1",
          "--samples", "1"), "samples must be >= 2"),
        (("fixed-points", "--f", "x/2", "--phi", "y", "--domain", "0", "1", "--grid", "1"),
         "grid_n must be >= 2"),
        (("staircase", *SYSTEM, "--curve-samples", "1"), "curve_samples must be >= 2"),
        (("staircase", *SYSTEM, "--width", "0"), "dimensions must be positive"),
        (("portrait", *SYSTEM, "--height", "0"), "dimensions must be positive"),
        (("distance", "--f", "sin(x)", "--phi", "y", "--domain", "0", "6.28"),
         "not strictly monotone between 1.57 and 1.5761328125"),
        (("conjugacy", "--f", "2*x", "--g", "2*x", "--h", "sin(x)", "--domain", "0", "6.28"),
         "not strictly monotone between 1.57 and 1.5761328125"),
        (("distance", "--f", "x", "--phi", "y", "--domain", "0", "1", "--y-domain", "5", "6"),
         "image of f does not overlap y_domain"),
        (("staircase", *SYSTEM, "--width", "100", "--margin", "50"), MARGIN),
        (("portrait", *SYSTEM, "--width", "100", "--margin", "80"), MARGIN),
        (("portrait", *SYSTEM, "--height", "120", "--margin", "60"), MARGIN),
        (("portrait", *SYSTEM, "--margin", "-10"), MARGIN),
        # The orbit's last state is inf, or every point is 1e300, where
        # padding the x and y spans by 1 leaves them 0.
        (("portrait", "--f", "x*1e300", "--phi", "y*1e300", "--domain", "0", "1",
          "--y-domain", "0", "1", "--x0", "0.5", "--steps", "5"),
         "cannot draw a point that is not finite"),
        (("staircase", "--f", "x*1e300", "--phi", "y*1e300", "--domain", "0", "1",
          "--y-domain", "0", "1", "--x0", "0.5", "--steps", "5"),
         "cannot draw a point that is not finite"),
        (("portrait", "--f", "x", "--phi", "y", "--domain", "0", "1e301", "--y-domain", "0",
          "1e301", "--x0", "1e300", "--steps", "3"),
         "cannot draw data spanning [1e+300, 1e+300]"),
    ])
    def test_each_precondition_exits_4(self, capsys, argv, message):
        assert run(capsys, *argv) == (4, "", f"precondition error: {message}\n")

    def test_a_plain_value_error_is_a_bug(self, monkeypatch):
        from reflexivity import analysis

        def broken(*args):
            raise ValueError("not a precondition")
        monkeypatch.setattr(analysis, "detect_period", broken)
        with pytest.raises(ValueError, match="not a precondition"):
            cli.main(["period", *self.SYSTEM])

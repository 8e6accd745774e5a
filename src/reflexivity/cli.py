"""Command-line interface.  Data goes to stdout (or --out), diagnostics to
stderr.  Exit codes: 0 ok, 2 parse/usage error, 3 numeric or domain error,
4 violated precondition (a dynamics.PreconditionError, e.g. a non-monotone
function).  Any other error is a bug, and its traceback is shown.  Handlers
raise; main alone maps a failure to its exit code.

Each scenario field is one row of FIELDS, which drives its flag, its check
in a scenario file and its default.  A handler receives one record holding
its command's fields, each taken from the flag, else the scenario file,
else the default.

A process loads only the layers its subcommand runs: the handlers import
analysis and render themselves, FIELDS states their defaults, and only a
scenario loads json.  The process entry, entry(), freezes the start-up
heap before main() runs.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import stat
import sys
from types import SimpleNamespace

from . import dynamics, expr


class UsageError(Exception):
    pass


def _is_number(v):
    return type(v) in (int, float)  # bool is not a number


# kind: (test of a JSON value, argparse keywords, conversion of a given value)
KINDS = {
    "string": (lambda v: isinstance(v, str), {}, str),
    "integer": (lambda v: type(v) is int, {"type": int}, int),
    "number": (_is_number, {"type": float}, float),
    "[lo, hi] pair": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
                      {"type": float, "nargs": 2, "metavar": ("LO", "HI")},
                      lambda v: tuple(map(float, v))),
}

# name (flag --name with '_' as '-'): (JSON path, None if flag only; kind; default; help)
FIELDS = {
    "scenario": (None, "string", None, "scenario JSON (path or bundled name)"),
    "f": ("f", "string", None, "cognitive function of x"),
    "phi": ("phi", "string", None, "manipulative function of y"),
    "g": (None, "string", None, "map that h should conjugate f to"),
    "h": (None, "string", None, "candidate conjugacy, strictly monotone on the domain"),
    "x0": ("x0", "number", None, "initial x value"),
    "steps": ("steps", "integer", 1000, "maximum iteration steps"),
    "domain": ("x_domain", "[lo, hi] pair", (-10.0, 10.0), "x domain"),
    "y_domain": ("y_domain", "[lo, hi] pair", None, "y domain (default: image of f)"),
    "grid": ("grid", "integer", dynamics.DEFAULT_GRID, "fixed-point search grid size"),
    # The defaults below are analysis.DEFAULT_*, render.RenderOptions() and
    # render.DEFAULT_CURVE_SAMPLES, stated here so that no other subcommand
    # loads those layers (tests/test_startup.py holds them equal).
    "samples": ("samples", "integer", 4096, "sample grid size"),
    "max_period": ("analysis.max_period", "integer", 32, "longest period tested"),
    "burn_in": ("analysis.burn_in", "integer", 1000, "steps iterated before the period test"),
    "min_run": ("analysis.min_run", "integer", 5, "shortest rise that counts as a boom"),
    "retrace_threshold": ("analysis.retrace_threshold", "number", 0.5,
                          "share of the rise the reversal must retrace"),
    "width": ("render.width", "integer", 800, "SVG width in pixels"),
    "height": ("render.height", "integer", 600, "SVG height in pixels"),
    "margin": ("render.margin", "integer", 60, "SVG margin in pixels"),
    "curve_samples": ("render.curve_samples", "integer", 256, "points per drawn curve"),
    "out": (None, "string", None, "write output to this file instead of stdout"),
}
_BY_PATH = {tuple(row[0].split(".")): name for name, row in FIELDS.items() if row[0]}
_SECTIONS = {path[0] for path in _BY_PATH if len(path) > 1}
_SCENARIOS = os.path.join(os.path.dirname(__file__), "scenarios")


def _is_file(path):
    """Whether path names a regular file.  Unlike os.path.isfile, it raises
    an error that is not a missing or looping path, such as a name too long."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except ValueError:  # a NUL byte
        return False
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            return False
        raise


def load_scenario(name_or_path):
    """Load a scenario JSON file.  A bare name, with no path separator, that
    is not a file names a bundled scenario."""
    import json
    bundled = os.path.join(_SCENARIOS, f"{name_or_path}.json")
    try:
        if _is_file(name_or_path):
            source = name_or_path
        elif os.path.basename(name_or_path) == name_or_path and _is_file(bundled):
            source = bundled
        else:
            raise UsageError(f"scenario not found: {name_or_path}")
        with open(source) as fh:
            data = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise UsageError(str(exc)) from exc
    except ValueError as exc:  # not text, or an integer too long to convert
        raise UsageError(f"scenario {name_or_path}: {exc}") from exc
    except OSError as exc:  # a name too long, a read that fails
        raise UsageError(f"scenario {name_or_path}: {exc.strerror}") from exc
    if not isinstance(data, dict):
        # The text of a json.JSONDecodeError at the first character.
        raise UsageError("scenario must be a JSON object: line 1 column 1 (char 0)")
    return data


def _scenario_values(data):
    """{field name: value} of a scenario dict; a null value is absent.
    Raises UsageError for an unknown key or a value of the wrong kind."""
    import json
    items = []
    for key, v in data.items():
        if key not in _SECTIONS:
            items.append(((key,), v))
        elif not isinstance(v, dict):
            raise UsageError(f"{key}: expected object, got {json.dumps(v)}")
        else:
            items += [((key, k), sub) for k, sub in v.items()]
    values = {}
    for path, v in items:
        name = _BY_PATH.get(path)
        if name is None:
            raise UsageError(f"{'.'.join(path)}: unknown field")
        kind = FIELDS[name][1]
        if v is not None and not KINDS[kind][0](v):
            raise UsageError(f"{'.'.join(path)}: expected {kind}, got {json.dumps(v)}")
        values[name] = v
    return values


def _record(args, required, optional):
    """The command's fields: each from its flag, else the scenario, else
    the default."""
    scenario = getattr(args, "scenario", None)
    given = _scenario_values(load_scenario(scenario)) if scenario else {}
    rec = {}
    for name in required + optional:
        v = getattr(args, name)
        if v is None:
            v = given.get(name)
        if v is None and name in required:
            raise UsageError(f"missing required value: --{name.replace('_', '-')}")
        if v is None:
            v = FIELDS[name][2]
        rec[name] = None if v is None else KINDS[FIELDS[name][1]][2](v)
    return SimpleNamespace(**rec)


def _derive_y_domain(f, x_domain):
    # The system checks x_domain too, but only after this grid would fail on it.
    dynamics._check_interval(*x_domain, "x_domain")
    vals = dynamics._check_finite_on(f, x_domain, "f", 256)
    y_lo, y_hi = min(vals), max(vals)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    if y_lo == y_hi:  # |f| so large that 1.0 is below the spacing of floats there
        big = sys.float_info.max  # a neighbour, but no infinite end
        y_lo, y_hi = math.nextafter(y_lo, -big), math.nextafter(y_hi, big)
    return (y_lo, y_hi)


def _build_system(sc):
    f = expr.parse(sc.f)
    phi = expr.parse(sc.phi)
    y_domain = sc.y_domain or _derive_y_domain(f, sc.domain)
    return dynamics.ReflexiveSystem(f, phi, sc.domain, y_domain)


def _emit(sc, text):
    if sc.out:
        try:
            with open(sc.out, "w") as fh:
                fh.write(text)
        except ValueError as exc:  # a path with a NUL byte
            raise UsageError(f"--out {sc.out!r}: {exc}") from exc
        except OSError as exc:  # a missing directory, a directory, no permission
            raise UsageError(f"--out {sc.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _run_orbit(sc):
    s = _build_system(sc)
    return s, dynamics.orbit(s, sc.x0, sc.steps)


# ---------------------------------------------------------------------------
# command handlers

def cmd_simulate(sc):
    from . import render
    _, o = _run_orbit(sc)
    _emit(sc, render.to_csv(o))
    print(f"terminated_by={o.terminated_by}", file=sys.stderr)


def cmd_fixed_points(sc):
    fps = dynamics.find_fixed_points(_build_system(sc), sc.grid)
    lines = ["# x_bar y_bar lambda stability residual_f residual_phi"]
    for fp in fps:
        lines.append("%.17g %.17g %.17g %s %.3g %.3g" % (
            fp.x_bar, fp.y_bar, fp.multiplier, fp.stability,
            fp.residual_f, fp.residual_phi))
    _emit(sc, "\n".join(lines) + "\n")
    print(f"fixed_points={len(fps)}", file=sys.stderr)


def cmd_distance(sc):
    from . import analysis
    rep = analysis.function_distance(_build_system(sc), sc.samples)
    _emit(sc, "d=%.17g argmax_y=%.17g samples=%d direction=%s\n" % (
        rep.d, rep.argmax_y, rep.samples, rep.monotone_direction))


def cmd_period(sc):
    from . import analysis
    gamma = dynamics.compose_gamma(_build_system(sc))
    rep = analysis.detect_period(gamma, sc.x0, sc.max_period, sc.burn_in)
    if rep is None:
        _emit(sc, "period=none\n")
    else:
        cycle = " ".join("%.17g" % v for v in rep.cycle)
        _emit(sc, "period=%d residual=%.3g cycle=%s\n" % (rep.period, rep.residual, cycle))


def cmd_boom_bust(sc):
    from . import analysis
    _, o = _run_orbit(sc)
    events = analysis.detect_boom_bust(o, sc.min_run, sc.retrace_threshold)
    lines = [f"events={len(events)}"]
    for ev in events:
        lines.append(
            "event rise_start=%d peak=%d reversal_end=%d amplitude=%.17g "
            "retrace_fraction=%.17g" % (
                ev.rise_start, ev.peak, ev.reversal_end, ev.amplitude,
                ev.retrace_fraction))
    _emit(sc, "\n".join(lines) + "\n")


def cmd_conjugacy(sc):
    from . import analysis
    rep = analysis.verify_conjugacy(expr.parse(sc.f), expr.parse(sc.g), expr.parse(sc.h),
                                    sc.domain, sc.samples)
    line = "verdict=%s max_residual=%.17g fixed_points_checked=%d" % (
        rep.verdict, rep.max_residual, rep.fixed_point_images_checked)
    if rep.violation_x is not None:
        line += " violation_x=%.17g" % rep.violation_x
    _emit(sc, line + "\n")


def cmd_staircase(sc):
    from . import render
    s, o = _run_orbit(sc)
    trace = render.staircase(s, o, sc.curve_samples)
    _emit(sc, render.to_svg(trace, render.RenderOptions(sc.width, sc.height, sc.margin)))


def cmd_portrait(sc):
    from . import render
    _, o = _run_orbit(sc)
    trace = render.phase_portrait(o)
    _emit(sc, render.to_svg(trace, render.RenderOptions(sc.width, sc.height, sc.margin)))


# ---------------------------------------------------------------------------
# argument parsing

_SYSTEM = ("scenario", "domain", "y_domain", "out")
_ORBIT = _SYSTEM + ("steps",)
_SVG = _ORBIT + ("width", "height", "margin")

# command: (handler, help, required fields, optional fields)
COMMANDS = {
    "simulate": (cmd_simulate, "iterate the system and emit orbit CSV",
                 ("f", "phi", "x0"), _ORBIT),
    "fixed-points": (cmd_fixed_points, "locate and classify fixed points",
                     ("f", "phi"), _SYSTEM + ("grid",)),
    "distance": (cmd_distance, "max |phi(y) - f^-1(y)| over the image of f",
                 ("f", "phi"), _SYSTEM + ("samples",)),
    "period": (cmd_period, "detect a periodic orbit of phi(f(x))",
               ("f", "phi", "x0"), _ORBIT + ("max_period", "burn_in")),
    "boom-bust": (cmd_boom_bust, "detect rise-then-reversal events",
                  ("f", "phi", "x0"), _ORBIT + ("min_run", "retrace_threshold")),
    "conjugacy": (cmd_conjugacy, "verify a candidate conjugacy h between f and g",
                  ("f", "g", "h", "domain"), ("samples", "out")),
    "staircase": (cmd_staircase, "emit a staircase (cobweb) diagram SVG",
                  ("f", "phi", "x0"), _SVG + ("curve_samples",)),
    "portrait": (cmd_portrait, "emit a phase portrait SVG", ("f", "phi", "x0"), _SVG),
}


# argparse reads a word that starts with '-' and names no flag as a value
# when this matches it, and as an unknown option otherwise.  Its own matcher
# takes -1 and -.5 only; this one takes every word whose second character is
# not '-': every negative number float() reads (-1e3, -inf) and expressions
# such as -y.  -h is added before the matcher is set, so no flag counts as a
# value; an expression that begins with -h is taken for -h (give --f=-h...).
_NUMBER = SimpleNamespace(match=lambda text: text[1:2] != "-")


def build_parser(command=None):
    """Every subcommand with its help line, and the flags of `command` only."""
    parser = argparse.ArgumentParser(
        prog="reflexivity",
        description="Iterate, analyze, and plot coupled cognitive/manipulative "
                    "function pairs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, required, optional) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        sp._negative_number_matcher = _NUMBER
        for field in required + optional:
            _, kind, default, text = FIELDS[field]
            if default is not None and field not in required:
                text += f" (default {default})"
            sp.add_argument("--" + field.replace("_", "-"), help=text, **KINDS[kind][1])
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # No flag of the program takes a value: the first other word is the subcommand.
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    handler, _, required, optional = COMMANDS[args.command]
    try:
        handler(_record(args, required, optional))
    except expr.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (expr.EvalDomainError, dynamics.DomainValidationError,
            dynamics.OrbitNumericError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except dynamics.PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 4
    return 0


def entry():
    """The process entry: `python -m reflexivity.cli` and the `reflexivity`
    script.  Once the imports are done, the heap they left is frozen, so
    that no collection, the interpreter's exit included, walks it again.
    main(argv), called in process, freezes nothing."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())

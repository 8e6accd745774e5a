"""Command-line interface.  Data goes to stdout (or --out), diagnostics to
stderr.  Exit codes: 0 ok, 2 parse/usage error, 3 numeric or domain error,
4 violated precondition (e.g. a non-monotone function).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import analysis, dynamics, expr, render

DEFAULT_X_DOMAIN = (-10.0, 10.0)
DEFAULT_STEPS = 1000


class UsageError(Exception):
    pass


def load_scenario(name_or_path):
    """Load a scenario JSON file.  A bare name, with no path separator and
    no suffix, that is not a file names a bundled scenario."""
    p = Path(name_or_path)
    bundled = resources.files(__package__) / "scenarios" / f"{p.name}.json"
    if p.is_file():
        text = p.read_text()
    elif p.name == str(name_or_path) and not p.suffix and bundled.is_file():
        text = bundled.read_text()
    else:
        raise UsageError(f"scenario not found: {name_or_path}")
    data = json.loads(text)
    if not isinstance(data, dict):
        raise json.JSONDecodeError("scenario must be a JSON object", text, 0)
    return data


class _Params:
    """Scenario fields overridden by any inline flags that were given."""

    def __init__(self, args):
        self.data = load_scenario(args.scenario) if getattr(args, "scenario", None) else {}
        self.args = args

    def get(self, flag_name, key, default=None):
        v = getattr(self.args, flag_name, None)
        if v is not None:
            return v
        return self.data.get(key, default)

    def analysis_opt(self, key, default):
        v = getattr(self.args, key, None)
        if v is not None:
            return v
        return self.data.get("analysis", {}).get(key, default)

    def render_opt(self, key, default):
        v = getattr(self.args, key, None)
        if v is not None:
            return v
        return self.data.get("render", {}).get(key, default)

    def require(self, flag_name, key):
        v = self.get(flag_name, key)
        if v is None:
            raise UsageError(f"missing required value: --{flag_name.replace('_', '-')}")
        return v


def _derive_y_domain(f, x_domain, samples=256):
    lo, hi = x_domain
    vals = expr.evaluate_many(f, dynamics._grid(lo, hi, samples))
    y_lo, y_hi = min(vals), max(vals)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    return (y_lo, y_hi)


def _build_system(p):
    f = expr.parse(p.require("f", "f"))
    phi = expr.parse(p.require("phi", "phi"))
    x_domain = tuple(p.get("domain", "x_domain", DEFAULT_X_DOMAIN))
    y_domain = p.get("y_domain", "y_domain")
    if y_domain is None:
        y_domain = _derive_y_domain(f, x_domain)
    return dynamics.ReflexiveSystem(f, phi, tuple(map(float, x_domain)),
                                    tuple(map(float, y_domain)))


def _emit(args, text):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_options(p):
    return render.RenderOptions(
        width=int(p.render_opt("width", 800)),
        height=int(p.render_opt("height", 600)),
        margin=int(p.render_opt("margin", 60)),
    )


def _run_orbit(p):
    s = _build_system(p)
    x0 = float(p.require("x0", "x0"))
    steps = int(p.get("steps", "steps", DEFAULT_STEPS))
    return s, dynamics.orbit(s, x0, steps)


# ---------------------------------------------------------------------------
# command handlers

def cmd_simulate(args):
    p = _Params(args)
    _, o = _run_orbit(p)
    _emit(args, render.to_csv(o))
    print(f"terminated_by={o.terminated_by}", file=sys.stderr)
    return 0


def cmd_fixed_points(args):
    p = _Params(args)
    s = _build_system(p)
    grid = int(p.get("grid", "grid", dynamics.DEFAULT_GRID))
    fps = dynamics.find_fixed_points(s, grid)
    lines = ["# x_bar y_bar lambda stability residual_f residual_phi"]
    for fp in fps:
        lines.append("%.17g %.17g %.17g %s %.3g %.3g" % (
            fp.x_bar, fp.y_bar, fp.multiplier, fp.stability,
            fp.residual_f, fp.residual_phi))
    _emit(args, "\n".join(lines) + "\n")
    print(f"fixed_points={len(fps)}", file=sys.stderr)
    return 0


def cmd_distance(args):
    p = _Params(args)
    s = _build_system(p)
    samples = int(p.get("samples", "samples", analysis.DEFAULT_SAMPLES))
    rep = analysis.function_distance(s, samples)
    _emit(args, "d=%.17g argmax_y=%.17g samples=%d direction=%s\n" % (
        rep.d, rep.argmax_y, rep.samples, rep.monotone_direction))
    return 0


def cmd_period(args):
    p = _Params(args)
    s = _build_system(p)
    x0 = float(p.require("x0", "x0"))
    max_period = int(p.analysis_opt("max_period", analysis.DEFAULT_MAX_PERIOD))
    burn_in = int(p.analysis_opt("burn_in", 1000))
    rep = analysis.detect_period(dynamics.compose_gamma(s), x0, max_period, burn_in)
    if rep is None:
        _emit(args, "period=none\n")
    else:
        cycle = " ".join("%.17g" % v for v in rep.cycle)
        _emit(args, "period=%d residual=%.3g cycle=%s\n" % (rep.period, rep.residual, cycle))
    return 0


def cmd_boom_bust(args):
    p = _Params(args)
    _, o = _run_orbit(p)
    min_run = int(p.analysis_opt("min_run", analysis.DEFAULT_MIN_RUN))
    threshold = float(p.analysis_opt("retrace_threshold", analysis.DEFAULT_RETRACE_THRESHOLD))
    events = analysis.detect_boom_bust(o, min_run, threshold)
    lines = [f"events={len(events)}"]
    for ev in events:
        lines.append(
            "event rise_start=%d peak=%d reversal_end=%d amplitude=%.17g "
            "retrace_fraction=%.17g" % (
                ev.rise_start, ev.peak, ev.reversal_end, ev.amplitude,
                ev.retrace_fraction))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_conjugacy(args):
    f = expr.parse(args.f)
    g = expr.parse(args.g)
    h = expr.parse(args.h)
    samples = int(args.samples) if args.samples is not None else analysis.DEFAULT_SAMPLES
    rep = analysis.verify_conjugacy(f, g, h, tuple(args.domain), samples)
    line = "verdict=%s max_residual=%.17g fixed_points_checked=%d" % (
        rep.verdict, rep.max_residual, rep.fixed_point_images_checked)
    if rep.violation_x is not None:
        line += " violation_x=%.17g" % rep.violation_x
    _emit(args, line + "\n")
    return 0


def cmd_staircase(args):
    p = _Params(args)
    s, o = _run_orbit(p)
    curve_samples = int(p.render_opt("curve_samples", render.DEFAULT_CURVE_SAMPLES))
    trace = render.staircase(s, o, curve_samples)
    _emit(args, render.to_svg(trace, _render_options(p)))
    return 0


def cmd_portrait(args):
    p = _Params(args)
    _, o = _run_orbit(p)
    trace = render.phase_portrait(o)
    _emit(args, render.to_svg(trace, _render_options(p)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sp, x0=True):
    sp.add_argument("--scenario", help="scenario JSON (path or bundled name)")
    sp.add_argument("--f", help="cognitive function of x")
    sp.add_argument("--phi", help="manipulative function of y")
    if x0:
        sp.add_argument("--x0", type=float, help="initial x value")
        sp.add_argument("--steps", type=int, help="maximum iteration steps")
    sp.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"),
                    help="x domain (default -10 10)")
    sp.add_argument("--y-domain", dest="y_domain", type=float, nargs=2,
                    metavar=("LO", "HI"), help="y domain (default: image of f)")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reflexivity",
        description="Iterate, analyze, and plot coupled cognitive/manipulative "
                    "function pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="iterate the system and emit orbit CSV")
    _add_common(sp)
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("fixed-points", help="locate and classify fixed points")
    _add_common(sp, x0=False)
    sp.add_argument("--grid", type=int, help="search grid size (default 4096)")
    sp.set_defaults(handler=cmd_fixed_points)

    sp = sub.add_parser("distance", help="max |phi(y) - f^-1(y)| over the image of f")
    _add_common(sp, x0=False)
    sp.add_argument("--samples", type=int, help="y-grid size (default 4096)")
    sp.set_defaults(handler=cmd_distance)

    sp = sub.add_parser("period", help="detect a periodic orbit of phi(f(x))")
    _add_common(sp)
    sp.add_argument("--max-period", dest="max_period", type=int)
    sp.add_argument("--burn-in", dest="burn_in", type=int)
    sp.set_defaults(handler=cmd_period)

    sp = sub.add_parser("boom-bust", help="detect rise-then-reversal events")
    _add_common(sp)
    sp.add_argument("--min-run", dest="min_run", type=int)
    sp.add_argument("--retrace-threshold", dest="retrace_threshold", type=float)
    sp.set_defaults(handler=cmd_boom_bust)

    sp = sub.add_parser("conjugacy", help="verify a candidate conjugacy h between f and g")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_conjugacy)

    sp = sub.add_parser("staircase", help="emit a staircase (cobweb) diagram SVG")
    _add_common(sp)
    sp.add_argument("--width", type=int)
    sp.add_argument("--height", type=int)
    sp.add_argument("--margin", type=int)
    sp.add_argument("--curve-samples", dest="curve_samples", type=int)
    sp.set_defaults(handler=cmd_staircase)

    sp = sub.add_parser("portrait", help="emit a phase portrait SVG")
    _add_common(sp)
    sp.add_argument("--width", type=int)
    sp.add_argument("--height", type=int)
    sp.add_argument("--margin", type=int)
    sp.set_defaults(handler=cmd_portrait)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except expr.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (expr.EvalDomainError, dynamics.DomainValidationError,
            dynamics.OrbitNumericError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (analysis.AnalysisError, dynamics.PreconditionError, ValueError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

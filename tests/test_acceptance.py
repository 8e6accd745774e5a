"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output.
"""

import math
import random

import pytest

from reflexivity import analysis, cli, dynamics, expr, render
from reflexivity.dynamics import compose_gamma, make_system, orbit

from conftest import central_difference, sample_safe_expression
from round_trips import read_csv, serialize


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def _load_case(name):
    sc = cli.load_scenario(name)
    s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
    return sc, s


def test_criterion_01_dottie_convergence(capsys):
    code = cli.main(["simulate", "--f", "cos(x)", "--phi", "y",
                     "--x0", "1", "--steps", "500"])
    captured = capsys.readouterr()
    assert code == 0
    assert "terminated_by=convergence" in captured.err
    final_x = float(captured.out.strip().splitlines()[-1].split(",")[1])
    x = 1.0
    for _ in range(500):  # independent oracle
        x = math.cos(x)
    assert final_x == pytest.approx(x, abs=1e-6)
    assert final_x == pytest.approx(0.7390851332, abs=1e-6)
    with capsys.disabled():
        _report("1 dottie-convergence")


def test_criterion_02_logistic_fixed_points():
    s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
    fps = dynamics.find_fixed_points(s)
    assert len(fps) == 2
    zero, attract = sorted(fps, key=lambda fp: fp.x_bar)
    assert zero.x_bar == pytest.approx(0.0, abs=1e-9)
    assert zero.multiplier == pytest.approx(2.5, abs=1e-9)
    assert zero.stability == "repelling"
    # analytic: r x (1-x) = x gives x = 1 - 1/r; lambda = r (1 - 2x)
    x_bar = 1.0 - 1.0 / 2.5
    assert attract.x_bar == pytest.approx(x_bar, abs=1e-9)
    assert attract.multiplier == pytest.approx(2.5 * (1.0 - 2.0 * x_bar), abs=1e-9)
    assert attract.stability == "attracting"
    _report("2 logistic-fixed-points")


def test_criterion_03_stability_theorem_vs_simulation():
    rng = random.Random(1234)
    checked = 0
    for _ in range(200):
        t = rng.uniform(0.1, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 10.0)
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        b = rng.choice([-1.0, 1.0]) * t / abs(a)
        s = make_system(f"{a!r}*x", f"{b!r}*y", (-1.0, 1.0),
                        (-2.0 * abs(a), 2.0 * abs(a)))
        verdict = dynamics.classify_stability(s, 0.0, 0.0).stability
        o = orbit(s, 1e-3, 10000)
        empirical_attracting = (
            o.terminated_by == "convergence" and abs(o.states[-1].x) < 1e-6
        )
        assert verdict in ("attracting", "repelling")
        assert (verdict == "attracting") == empirical_attracting
        if verdict == "repelling":
            assert o.terminated_by == "divergence"
        checked += 1
    assert checked == 200
    _report("3 stability-theorem-vs-simulation (200/200)")


def test_criterion_04_proposition_1_consistency():
    s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
    fps = dynamics.find_fixed_points(s)
    assert fps
    for fp in fps:
        rep = dynamics.check_proposition_1(s, fp)
        assert rep.residual_gamma <= 1e-9
        assert rep.residual_phi_map <= 1e-9
    _report("4 proposition-1-consistency")


def test_criterion_05_inverse_pair_degeneracy():
    s = make_system("2*x+1", "(y-1)/2", (0.0, 1.0), (1.0, 3.0))
    for x0 in (0.0, 0.3, 0.77, 1.0):
        o = orbit(s, x0, 100)
        assert all(abs(st.x - x0) <= 1e-12 for st in o.states[1:])
    fps = dynamics.find_fixed_points(s, grid_n=64)
    assert len(fps) == 64
    for fp in fps:
        assert fp.multiplier == pytest.approx(1.0, abs=1e-12)
        assert fp.stability == "marginal"
    assert analysis.function_distance(s).d == pytest.approx(0.0, abs=1e-10)
    _report("5 inverse-pair-degeneracy")


def test_criterion_06_distance_metric():
    s = make_system("2*x", "y/2 + 0.1", (0.0, 10.0), (0.0, 20.0))
    assert analysis.function_distance(s).d == pytest.approx(0.1, abs=1e-10)
    _report("6 distance-metric")


def test_criterion_07_period_detection():
    s = make_system("3.2*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
    rep = analysis.detect_period(compose_gamma(s), 0.3, max_period=32,
                                 burn_in=1000)
    assert rep is not None and rep.period == 2
    r = 3.2
    root = math.sqrt((r - 3.0) * (r + 1.0))
    expected = sorted(((r + 1 - root) / (2 * r), (r + 1 + root) / (2 * r)))
    assert sorted(rep.cycle) == pytest.approx(expected, abs=1e-5)
    _report("7 period-detection")


def test_criterion_08_conjugacy_identity_and_control():
    rep = analysis.verify_conjugacy(
        expr.parse("1 - 2*abs(x - 0.5)"),
        expr.parse("4*x*(1-x)"),
        expr.parse("sin(1.5707963267948966*x)^2"),
        (0.0, 1.0),
        samples=4096,
    )
    assert rep.verdict == "consistent"
    assert rep.max_residual <= 1e-9
    control = analysis.verify_conjugacy(
        expr.parse("2*x"), expr.parse("3*x"), expr.parse("x"),
        (0.0, 1.0), samples=4096)
    assert control.verdict == "violated"
    assert control.max_residual == pytest.approx(1.0, abs=1e-12)
    assert control.violation_x == pytest.approx(1.0)
    _report("8 conjugacy-identity-and-control")


def test_criterion_09_case_dichotomy():
    sc1, s1 = _load_case("case1")
    o1 = orbit(s1, sc1["x0"], sc1["steps"])
    assert o1.terminated_by == "convergence"
    xs = o1.xs()
    tail = xs[len(xs) // 4:]
    assert all(b - a >= -1e-12 for a, b in zip(tail, tail[1:]))
    assert analysis.detect_boom_bust(o1, 5, 0.5) == []

    sc2, s2 = _load_case("case2")
    o2 = orbit(s2, sc2["x0"], sc2["steps"])
    events = analysis.detect_boom_bust(o2, 5, 0.5)
    assert len(events) >= 1
    assert all(ev.retrace_fraction >= 0.5 for ev in events)
    _report("9 case-dichotomy")


def test_criterion_10_derivative_correctness():
    rng = random.Random(99)
    for _ in range(1000):
        e, v = sample_safe_expression(rng)
        d = expr.derivative(e, v)
        fd = central_difference(e, v)
        assert abs(fd - d) <= max(1e-6 * abs(d), 1e-8), e.source
    _report("10 derivative-correctness (1000 samples)")


def test_criterion_11_determinism_and_round_trips():
    s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
    o = orbit(s, 1.0, 40)
    # CSV round trip is bit-exact
    assert read_csv(render.to_csv(o)) == [(st.x, st.y, st.index) for st in o.states]
    # SVG output is byte-identical across repeated runs
    trace = render.staircase(s, o, curve_samples=64)
    assert render.to_svg(trace) == render.to_svg(trace)
    portrait = render.phase_portrait(o)
    assert render.to_svg(portrait) == render.to_svg(portrait)
    # DSL parse-serialize-parse is structurally idempotent
    for src in ("x^2 + 1", "2*x*(1-x)", "sin(1.5707963267948966*x)^2",
                "y + 0.25 - 10.25*((y - 2) + abs(y - 2))"):
        e1 = expr.parse(src)
        e2 = expr.parse(serialize(e1))
        assert e1.root == e2.root
    _report("11 determinism-and-round-trips")

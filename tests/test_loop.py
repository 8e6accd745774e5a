"""The compiled orbit loop against the per-step path it replaces.

orbit runs its first step through step and the rest in the system's
compiled loop, and step again only to raise the loop's error;
detect_period runs the loop of a compose_gamma map's system, and steps the
map from the loop's last iterate where the loop fails.  The references here
are the per-step orbit as it was before the loop, and detect_period with
the map stepped one value at a time from x0, as it ran for a plain
callable.  Every state is compared by repr, so -0.0 and NaN are told apart;
every error by type, message and step index.
"""

import gc
import math
import random

import pytest

from boom_bust_runs import monotone_runs
from conftest import gen_source
from reflexivity import analysis, dynamics, expr
from reflexivity.dynamics import Orbit, OrbitNumericError, SystemState, orbit, step


def per_step_orbit(s, x0, max_steps):
    """orbit as a loop over step: the reference for the compiled loop."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    try:
        y0 = expr.evaluate(s.f, float(x0))
    except expr.EvalDomainError as exc:
        raise OrbitNumericError(str(exc), 0) from exc
    states = [SystemState(float(x0), y0, 0)]
    tag = "step-budget"
    streak = 0
    for _ in range(max_steps):
        prev = states[-1]
        try:
            nxt = step(s, prev)
        except expr.EvalDomainError as exc:
            raise OrbitNumericError(str(exc), prev.index + 1) from exc
        states.append(nxt)
        if not math.isfinite(nxt.x) or abs(nxt.x) > dynamics.DIVERGENCE_CUTOFF:
            tag = "divergence"
            break
        if abs(nxt.x - prev.x) < dynamics.CONVERGENCE_RTOL * max(1.0, abs(prev.x)):
            streak += 1
            if streak >= dynamics.CONVERGENCE_WINDOW:
                tag = "convergence"
                break
        else:
            streak = 0
    return Orbit(tuple(states), tag)


def stepped_period(gamma, x0, max_period, burn_in):
    """detect_period with gamma stepped one value at a time from x0
    (_stepped), as a plain callable was: the reference for the loop."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(analysis, "_iterates", analysis._stepped)
        return analysis.detect_period(gamma, x0, max_period, burn_in)


def reference_runs(xs):
    """monotone_runs as a scan that restarts at each run's end."""
    runs = []
    i = 0
    n = len(xs)
    while i < n - 1:
        d = xs[i + 1] - xs[i]
        sign = 1 if d > 0 else (-1 if d < 0 else 0)
        if sign == 0:
            i += 1
            continue
        j = i + 1
        while j < n - 1:
            d = xs[j + 1] - xs[j]
            s = 1 if d > 0 else (-1 if d < 0 else 0)
            if s != sign:
                break
            j += 1
        runs.append((sign, i, j))
        i = j
    return runs


def outcome(run):
    """repr of the result, or the error's type, message and step index."""
    try:
        return repr(run())
    except (expr.ExpressionError, dynamics.DynamicsError, ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "step", None))


DOMAINS = ((-2.0, 2.0), (0.0, 1.0), (0.5, 800.0), (-1.0, 0.0))
STARTS = (0.3, -0.7, 1.5, 0.0, 1e-200, 700.0, math.nan, math.inf, -math.inf)
BUDGETS = (1, 2, 3, 40, 400)


def random_systems(seed, count, wide):
    """count validated systems with random f and phi trees."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        domain = rng.choice(DOMAINS)
        try:
            systems.append(dynamics.ReflexiveSystem(
                expr.parse(gen_source(rng, 4, wide)), expr.parse(gen_source(rng, 3, wide)),
                domain, rng.choice(DOMAINS)))
        except dynamics.DomainValidationError:
            continue
    return rng, systems


class TestOrbitMatchesPerStep:
    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_random_systems(self, wide):
        rng, systems = random_systems(20261018 + wide, 150, wide)
        seen = {}
        for s in systems:
            for x0 in rng.sample(STARTS, 3) + [rng.uniform(*s.x_domain)]:
                n = rng.choice(BUDGETS)
                want = outcome(lambda: per_step_orbit(s, x0, n))
                assert outcome(lambda: orbit(s, x0, n)) == want, (s.f.source, s.phi.source, x0, n)
                kind = want[0] if isinstance(want, tuple) else want.rsplit("'", 2)[-2]
                seen[kind] = seen.get(kind, 0) + 1
        # Every way an orbit ends shows up.
        assert {"step-budget", "divergence", "convergence", "OrbitNumericError"} <= set(seen), seen

    @pytest.mark.parametrize("f, phi, domain, x0, n", [
        ("2*x", "y", (-1.0, 1.0), 1.0, 100000),  # diverges
        ("cos(x)", "y", (-10.0, 10.0), 1.0, 500),  # converges
        ("x", "y", (0.0, 1.0), 0.3, 100),  # converges at once
        ("sqrt(x)", "y - 0.3", (0.0, 2.0), 1.0, 50),  # sqrt of a negative mid-orbit
        ("x", "log(y)", (1.0, 3.0), 2.0, 50),  # log of a negative in phi
        ("exp(x)", "y", (0.0, 1.0), 1.0, 50),  # overflow mid-orbit
        ("x - 1", "4/y", (1.0, 2.0), 5.0, 50),  # division by zero mid-orbit
        ("x*1e300", "y*1e300", (0.0, 1.0), 0.5, 50),  # inf: divergence, not an error
        ("sin(x)", "y*1e300*1e300", (0.0, 1.0), 0.5, 50),  # sin(inf) after an inf step
        ("log(x)", "y", (0.1, 10.0), 0.5, 10),  # fails in the first step
        ("log(x)", "y", (0.1, 10.0), -1.0, 10),  # fails at x0
        ("x", "y", (0.0, 1.0), math.nan, 10),
        ("x", "y", (0.0, 1.0), math.inf, 1),
        ("x/2", "y", (0.0, 1.0), 1e13, 5),  # x0 beyond the cutoff
        ("x/2", "y", (0.0, 1.0), 0.5, 1),
        # Near 1e11 the convergence test allows steps up to 1e-2, which about
        # a third of these steps are: short streaks that must reset.
        ("x + 0.02*sin(10000000*x)", "y", (0.0, 1.0), 1e11 + 0.5, 300),
        # Halving from 4e-13: step 2 moves by exactly the tolerance, 1e-13,
        # which does not count as converging; steps 3 to 5 do.
        ("x", "y/2", (0.0, 1.0), 4 * 1e-13, 50),
    ])
    def test_hand_picked(self, f, phi, domain, x0, n):
        y_domain = {"y": (-10.0, 10.0), "y*1e300*1e300": (0.0, 1e-300)}.get(phi, domain)
        s = dynamics.make_system(f, phi, domain, y_domain)
        assert outcome(lambda: orbit(s, x0, n)) == outcome(lambda: per_step_orbit(s, x0, n))

    def test_int_constants(self):
        # Built by hand with int constants, which the compiler makes floats:
        # the loop hands phi's value to f as evaluate does, as a float.
        f = expr.Expression(expr.BinOp("*", expr.Var("x"), expr.Num(3)), "x")
        phi = expr.Expression(expr.BinOp("-", expr.Num(2), expr.Var("y")), "y")
        s = dynamics.ReflexiveSystem(f, phi, (0.0, 1.0), (0.0, 3.0))
        assert repr(orbit(s, 0.5, 20)) == repr(per_step_orbit(s, 0.5, 20))

    def test_loop_runs_after_the_first_step(self, monkeypatch):
        s = dynamics.make_system("3.9*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
        calls = []
        real = dynamics.step
        monkeypatch.setattr(dynamics, "step", lambda *a: calls.append(a) or real(*a))
        o = orbit(s, 0.3, 500)
        assert len(o.states) == 501 and len(calls) == 1
        assert dynamics._LOOP in s.f._kernels

    def test_loop_is_kept_on_its_system(self):
        # A loop cached by id() would be handed to a later system at the same
        # address; kept on the system's f it dies with it.
        for k in range(300):
            r = 2.5 + k / 200
            s = dynamics.make_system(f"{r!r}*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
            assert repr(orbit(s, 0.3, 60)) == repr(per_step_orbit(s, 0.3, 60)), r
            del s
            if k % 50 == 0:
                gc.collect()

    def test_loop_is_compiled_on_first_use(self):
        s = dynamics.make_system("cos(x)", "y", (-1.0, 1.0), (-1.0, 1.0))
        orbit(s, 1.0, 1)
        assert s.f._kernels == {}  # one step needs no loop
        orbit(s, 1.0, 5)
        loop = dynamics._loop(s)
        analysis.detect_period(dynamics.compose_gamma(s), 0.5)
        assert s.f._kernels == {dynamics._LOOP: ([s.phi], loop)} and s.phi._kernels == {}


def _fails_at(k, part):
    """A system whose orbit from the returned x0 fails at step k, in f's
    lines (log of a value that drops by 1 a step) or in phi's (sqrt of one)."""
    if part == "f":
        return dynamics.make_system("log(x)", "exp(y) - 1", (0.5, 10.0), (0.0, 1.0)), k - 0.5
    return dynamics.make_system("x - 1", "y + 0*sqrt(y + 3)", (0.0, 1.0), (0.0, 1.0)), k - 3.5


class TestOnePathOrbit:
    """Each way the first step and the loop hand over: an error at any step,
    divergence and convergence near the first step, and the smallest
    budgets."""

    @pytest.mark.parametrize("part", ["f", "phi"])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_failure_at_step_k(self, k, part):
        s, x0 = _fails_at(k, part)
        # Budgets that end before, at and after the failing step.
        for n in sorted({1, 2, max(k - 1, 1), k, k + 5}):
            want = outcome(lambda: per_step_orbit(s, x0, n))
            assert outcome(lambda: orbit(s, x0, n)) == want, n
            if n >= k:
                assert want[0] == "OrbitNumericError" and want[2] == k, want
                assert want[1].startswith({"f": "log", "phi": "sqrt"}[part]), want

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_failure_runs_step_once(self, monkeypatch, k):
        # For the first step only: the loop raises its own error typed.
        s, x0 = _fails_at(k, "f")
        calls = []
        real = dynamics.step
        monkeypatch.setattr(dynamics, "step", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(OrbitNumericError, match=rf"^log of .* \(step {k}\)$"):
            orbit(s, x0, 50)
        assert len(calls) == 1 and calls[0][1].index == 0

    @pytest.mark.parametrize("f, phi, x0, ends", [
        ("x*1e300", "y*1e300", 0.5, ("divergence", 1)),  # inf at step 1
        ("2*x", "y", 6e11, ("divergence", 1)),  # beyond the cutoff at step 1
        ("2*x", "y", 4e11, ("divergence", 2)),
        ("x", "y", 0.3, ("convergence", 3)),  # the streak starts at step 1
        ("x", "y", -0.0, ("convergence", 3)),
        # Step 1 moves by exactly the tolerance, which does not count;
        # steps 2 to 4 do.
        ("x", "y/2", 2e-13, ("convergence", 4)),
        ("x", "y/2", 4e-13, ("convergence", 5)),
    ])
    def test_stops_near_the_first_step(self, f, phi, x0, ends):
        s = dynamics.make_system(f, phi, (0.0, 1.0), (0.0, 1.0))
        for n in (1, 2, 3, 4, 50):
            o = orbit(s, x0, n)
            assert repr(o) == repr(per_step_orbit(s, x0, n)), n
            assert repr(o.xs()) == repr([st.x for st in o.states])
            assert repr(o.ys()) == repr([st.y for st in o.states])
        assert (o.terminated_by, len(o.states) - 1) == ends


class TestPeriodMatchesPlainCallable:
    """A compose_gamma map runs the compiled loop; stepped_period steps the
    same map, as every map was stepped before the loop."""

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_random_systems(self, wide):
        rng, systems = random_systems(20261019 + wide, 150, wide)
        found = errors = 0
        for s in systems:
            gamma = dynamics.compose_gamma(s)
            for x0 in rng.sample(STARTS, 2) + [rng.uniform(*s.x_domain)]:
                max_period, burn_in = rng.choice((1, 4, 32)), rng.choice((0, 3, 200))
                want = outcome(lambda: stepped_period(gamma, x0, max_period, burn_in))
                got = outcome(lambda: analysis.detect_period(gamma, x0, max_period, burn_in))
                assert got == want, (s.f.source, s.phi.source, x0, max_period, burn_in)
                found += want.startswith("PeriodReport") if isinstance(want, str) else 0
                errors += isinstance(want, tuple)
        assert found > 20 and errors > 5, (found, errors)

    @pytest.mark.parametrize("f, phi, y_domain, x0, burn_in", [
        ("3.2*x*(1-x)", "y", (0.0, 1.0), 0.3, 200),  # period 2
        ("3.5*x*(1-x)", "y", (0.0, 1.0), 0.3, 500),  # period 4
        ("cos(x)", "y", (-1.0, 1.0), 1.0, 100),  # period 1
        ("3.9*x*(1-x)", "y", (0.0, 1.0), 0.3, 100),  # none
        ("2*x", "y", (-2.0, 2.0), 0.5, 0),  # diverges at step 41, after the burn-in
        ("2*x", "y", (-2.0, 2.0), 0.5, 30),  # at step 41, in the period test
        ("2*x", "y", (-2.0, 2.0), 0.5, 60),  # at step 41, in the burn-in
        ("2*x", "y", (-2.0, 2.0), 1e12, 0),  # at step 1
        ("x", "y*1e300*1e300 - y*1e300*1e300", (0.0, 1e-300), 0.5, 0),  # NaN at step 1
        ("x - 0.25", "y*1e300*1e300 - y*1e300*1e300", (0.0, 1e-300), 0.25, 0),  # NaN at 2
        ("x", "y", (-1.0, 1.0), math.nan, 0),  # NaN start
        ("x", "y", (-1.0, 1.0), math.inf, 3),  # infinite start
    ])
    def test_hand_picked_periods(self, f, phi, y_domain, x0, burn_in):
        gamma = dynamics.compose_gamma(dynamics.make_system(f, phi, (-1.0, 1.0), y_domain))
        for max_period in (1, 4, 32):
            assert outcome(lambda: analysis.detect_period(gamma, x0, max_period, burn_in)) == \
                outcome(lambda: stepped_period(gamma, x0, max_period, burn_in))

    def test_stepping_ends_at_the_first_diverged_value(self):
        def doubling(x):
            assert not analysis._diverged(x), "stepped past a diverged value"
            return 2.0 * x
        xs = list(analysis._stepped(doubling, 0.5, 300))  # divergence at step 41
        assert len(xs) == 41 and analysis._diverged(xs[-1])

    def test_iterates_are_the_orbit_xs(self):
        s = dynamics.make_system("3.7*x*(1-x)", "y + 0.01*sin(y)", (0.0, 1.0), (0.0, 1.0))
        xs = analysis._iterates(dynamics.compose_gamma(s), 0.2, 300)
        assert repr(xs) == repr(orbit(s, 0.2, 300).xs()[1:])

    def test_failing_loop_is_stepped_from_its_last_iterate(self, monkeypatch):
        # From 1.0, sqrt(x) - 0.3 makes x1..x9 > 0 and x10 < 0, where f
        # fails: the loop keeps x1..x9, and the map is called from step 10
        # on, from x9, with the results and errors of stepping it from 1.0.
        s = dynamics.make_system("sqrt(x)", "y - 0.3", (0.0, 2.0), (-1.0, 2.0))
        gamma = dynamics.compose_gamma(s)
        xs = []
        with pytest.raises(expr.EvalDomainError):
            dynamics._loop(s)(1.0, expr.evaluate(s.f, 1.0), 50, 0, 0, xs, [])
        assert len(xs) == 9 and xs[-1] > 0.0 > gamma(xs[-1])
        value = dynamics.Gamma.__call__
        calls = []
        monkeypatch.setattr(dynamics.Gamma, "__call__",
                            lambda g, x: calls.append(x) or value(g, x))
        seen = set()
        for p, b in ((4, 0), (5, 0), (6, 0), (32, 0), (1, 8), (1, 9)):
            want = outcome(lambda: stepped_period(gamma, 1.0, p, b))
            calls.clear()
            assert outcome(lambda: analysis.detect_period(gamma, 1.0, p, b)) == want
            assert calls == [] or repr(calls[0]) == repr(xs[-1]) and len(calls) <= 2, calls
            seen.add((len(calls), want[0] if isinstance(want, tuple) else "result"))
        # Callers that stop before step 10, at it, and after it.
        assert seen == {(0, "result"), (1, "result"), (2, "EvalDomainError")}, seen


class TestMonotoneRuns:
    """The run split of the boom-bust reference against a second scan."""

    def test_random_lists(self):
        rng = random.Random(9)
        values = (0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 0.5)
        for _ in range(2000):
            xs = [rng.choice(values) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0)
                  for _ in range(rng.randrange(0, 30))]
            assert monotone_runs(xs) == reference_runs(xs), xs

    def test_orbits(self):
        for f, x0 in (("3.9*x*(1-x)", 0.3), ("3.2*x*(1-x)", 0.4), ("2.6*x*(1-x)", 0.1),
                      ("1 - abs(1 - 2*x)", 0.2), ("0.95*sin(3.14159*x)", 0.7)):
            xs = orbit(dynamics.make_system(f, "y", (0.0, 1.0), (0.0, 1.0)), x0, 3000).xs()
            assert monotone_runs(xs) == reference_runs(xs), f

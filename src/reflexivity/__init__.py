"""Reflexive feedback pairs y = f(x), x = phi(y) as discrete dynamical
systems: iteration, fixed points and stability, inverse-distance and
boom-bust diagnostics, conjugacy verification, and cobweb/phase rendering.

Each layer, and each name exported from it, is imported on first use
(PEP 562): `import reflexivity` alone loads no layer.
"""

__version__ = "0.1.0"

# layer: the names the package exports from it
_EXPORTS = {
    "expr": (
        "EvalDomainError", "Expression", "ExpressionError", "MultipleVariablesError",
        "NonDifferentiableError", "ParseError", "UnknownIdentifierError",
        "derivative", "evaluate", "evaluate_many", "parse"),
    "dynamics": (
        "FixedPoint", "Orbit", "OrbitNumericError", "PreconditionError", "ReflexiveSystem",
        "SystemState", "check_proposition_1", "classify_stability", "compose_gamma",
        "find_fixed_points", "make_system", "orbit", "step"),
    "analysis": (
        "BoomBustEvent", "ConjugacyReport", "DistanceReport", "NonMonotoneError",
        "OutOfRangeError", "PeriodReport", "detect_boom_bust", "detect_period",
        "function_distance", "verify_conjugacy"),
    "render": (
        "PhasePortraitTrace", "RenderOptions", "StaircaseTrace", "phase_portrait",
        "staircase", "to_csv", "to_svg"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name in _EXPORTS:
        # The import statement's own path, which binds the layer here and
        # which -X importtime reports.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    for layer, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(__getattr__(layer), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})

"""Reflexive feedback pairs y = f(x), x = phi(y) as discrete dynamical
systems: iteration, fixed points and stability, inverse-distance and
boom-bust diagnostics, conjugacy verification, and cobweb/phase rendering.
"""

from .expr import (
    EvalDomainError,
    Expression,
    ExpressionError,
    MultipleVariablesError,
    NonDifferentiableError,
    ParseError,
    UnknownIdentifierError,
    derivative,
    evaluate,
    evaluate_many,
    parse,
)
from .dynamics import (
    FixedPoint,
    Orbit,
    OrbitNumericError,
    PreconditionError,
    ReflexiveSystem,
    SystemState,
    check_proposition_1,
    classify_stability,
    compose_gamma,
    find_fixed_points,
    make_system,
    orbit,
    step,
)
from .analysis import (
    BoomBustEvent,
    ConjugacyReport,
    DistanceReport,
    NonMonotoneError,
    OutOfRangeError,
    PeriodReport,
    detect_boom_bust,
    detect_period,
    function_distance,
    verify_conjugacy,
)
from .render import (
    PhasePortraitTrace,
    RenderOptions,
    StaircaseTrace,
    phase_portrait,
    staircase,
    to_csv,
    to_svg,
)

__version__ = "0.1.0"

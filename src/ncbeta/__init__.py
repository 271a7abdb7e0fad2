"""Noncentral beta and noncentral F cumulative distribution functions.

Evaluation of B_{p,q}(x, y) and its complement to near machine precision
across parameter regimes (defining series, recurrences, Kummer-function
series, large-argument and saddle-point expansions, an erfc-based uniform
expansion), plus inversion with respect to the noncentrality x or the
quantile y.
"""

from ._jit import JIT_ENABLED
from .dispatch import MethodChoice, evaluate, explain
from .errors import (
    DirectionError,
    DomainError,
    EvaluationError,
    FrameDegenerateError,
    SeriesInvalidError,
)
from .inversion import InversionProblem, InversionResult, invert
from .kernels import (
    central_beta_cdf,
    erfc,
    erfc_scaled,
    erfcx,
    inv_erfc,
    kummer_m_log,
    kummer_ratio_shift11,
    log_beta,
    log_gamma,
)
from .kummer_series import eval_kummer_series
from .params import EvalPoint, ProbabilityPair, ShapeParams
from .series import (
    central_term_sequence,
    eval_series,
    eval_type2_qfunction,
    noncentral_f_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "JIT_ENABLED",
    "DirectionError",
    "DomainError",
    "EvalPoint",
    "EvaluationError",
    "FrameDegenerateError",
    "InversionProblem",
    "InversionResult",
    "MethodChoice",
    "ProbabilityPair",
    "SeriesInvalidError",
    "ShapeParams",
    "central_beta_cdf",
    "central_term_sequence",
    "erfc",
    "erfc_scaled",
    "erfcx",
    "eval_series",
    "eval_type2_qfunction",
    "evaluate",
    "explain",
    "inv_erfc",
    "invert",
    "kummer_m_log",
    "kummer_ratio_shift11",
    "log_beta",
    "log_gamma",
    "noncentral_f_cdf",
    "warmup",
    "__version__",
]


def warmup() -> None:
    """Trigger jit compilation of every kernel with tiny arguments.

    First calls into numba kernels pay a compile (or cache-load) cost; batch
    drivers and timing-sensitive callers should warm up once."""
    sp = ShapeParams(3.0, 4.0)
    evaluate(sp, EvalPoint(2.0, 0.4))
    evaluate(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1))
    eval_kummer_series(ShapeParams(4.0, 5.0), EvalPoint(1.0, 0.05))  # evaluate does not route to it
    eval_type2_qfunction(2.0, 3.0, 1.5, 0.8)
    inv_erfc(0.5)
    erfc_scaled(2.0)
    kummer_ratio_shift11(3.0, 2.0, 1.0)
    invert(InversionProblem(unknown="x", sp=sp, fixed=0.4, z=0.3))
    invert(InversionProblem(unknown="y", sp=sp, fixed=2.0, z=0.7))

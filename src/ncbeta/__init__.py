"""Noncentral beta and noncentral F cumulative distribution functions.

Evaluation of B_{p,q}(x, y) and its complement to near machine precision
across parameter regimes (defining series, recurrences, Kummer-function
series, large-argument and saddle-point expansions, an erfc-based uniform
expansion), plus inversion with respect to the noncentrality x or the
quantile y.
"""

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
    evaluate_many,
    noncentral_f_cdf,
)

__version__ = "0.1.0"

# the package has no compiled path; the benchmark harness still reads the flag
JIT_ENABLED = False

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
    "evaluate_many",
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
    """Run one evaluation and one inversion with tiny arguments, so that
    timing-sensitive callers keep first-call costs out of their figures."""
    sp = ShapeParams(3.0, 4.0)
    evaluate(sp, EvalPoint(2.0, 0.4))
    invert(InversionProblem(unknown="x", sp=sp, fixed=0.4, z=0.3))

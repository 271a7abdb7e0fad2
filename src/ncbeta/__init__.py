"""Noncentral beta and noncentral F cumulative distribution functions.

Evaluation of B_{p,q}(x, y) and its complement to near machine precision,
plus inversion in the noncentrality x or the quantile y.  ``evaluate`` and
``evaluate_many`` use only the reference series (``series``).  The paper's
other methods stay as reproduction routes: the recurrences, the Kummer
series and three expansions (large argument, saddle point, erfc-uniform);
``ncbeta eval --method kummer|large-z|saddle|erfc`` reaches all but the
recurrences.

The exports of the inversion (``invert``, ``InversionProblem``,
``InversionResult``) and of the Kummer series (``eval_kummer_series``) are
imported on first use, so ``import ncbeta`` and ``ncbeta batch --op eval``
load neither them nor the expansions the inversion seeds from.
"""

from importlib import import_module

from .dispatch import MethodChoice, evaluate, explain
from .errors import (
    DirectionError,
    DomainError,
    EvaluationError,
    FrameDegenerateError,
    SeriesInvalidError,
)
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


# the exports imported on first use, each with its module
_LAZY = {
    "InversionProblem": "inversion",
    "InversionResult": "inversion",
    "invert": "inversion",
    "eval_kummer_series": "kummer_series",
}


def __getattr__(name):
    """An export of ``_LAZY``, looked up in its module at each access.  It
    is not stored here, so a binding that is replaced in its module and put
    back again (the benchmark's trace wrappers) is never held over."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


def warmup() -> None:
    """Run one evaluation and one inversion with tiny arguments, so that
    timing-sensitive callers keep first-call costs out of their figures."""
    from .inversion import InversionProblem, invert

    sp = ShapeParams(3.0, 4.0)
    evaluate(sp, EvalPoint(2.0, 0.4))
    invert(InversionProblem(unknown="x", sp=sp, fixed=0.4, z=0.3))

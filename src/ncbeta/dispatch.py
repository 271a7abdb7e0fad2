"""Method selection for the noncentral beta CDF.

``evaluate`` has one route, the reference series (``series.eval_series``).
It answers the quantile boundaries and every point whose summation window
holds at most ``MAX_WINDOW_TERMS`` terms (x up to order 4e9; at x = 0 the
window's sum is its first term, the central incomplete beta); past that
cap it returns the 0 of a B that its upper bound puts below e^-750, and
raises ``EvaluationError`` at any other point.

The paper's saddle-point, erfc-uniform and large-z expansions and its
Kummer-function series are reproduction only
(``ncbeta eval --method saddle|erfc|large-z|kummer``): the series meets the
default tolerance wherever it reaches, which the expansions' two terms do
not, and it is cheaper than the Kummer series wherever both reach.

The primary function (B below the transition quantile y0, the complement
above) is always the member computed directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import EvalPoint, ProbabilityPair, ShapeParams
from .series import _check_tol, _complement_is_primary, eval_series


@dataclass(frozen=True)
class MethodChoice:
    route: str
    primary_target: str  # "B" | "Bbar"
    rationale: str


def explain(sp: ShapeParams, pt: EvalPoint) -> MethodChoice:
    """The route and primary-function choice for a point, without evaluating.
    Deterministic in its arguments."""
    primary = "Bbar" if _complement_is_primary(sp, pt) else "B"
    return MethodChoice("series", primary, "the reference series is the only route")


def _run_route(route: str, sp: ShapeParams, pt: EvalPoint) -> ProbabilityPair:
    """The pair by the named route; the series is the only one."""
    return eval_series(sp, pt)


def evaluate(sp: ShapeParams, pt: EvalPoint, tol: float = 1e-12) -> ProbabilityPair:
    """B and its complement at the requested point, by the reference series.

    ``tol`` is validated (it must be positive) but selects nothing: the
    series' window is fixed by a priori tail bounds, and ``err_est`` reports
    the error it reached, which can exceed ``tol``.  Past the series' window
    cap it raises ``EvaluationError``, apart from a B certified to round
    to 0."""
    _check_tol(tol)
    return _run_route("series", sp, pt)

"""Region-based method selection for the noncentral beta CDF.

The route policy, in order:

* every point the series answers (``series_reaches``) goes to the
  reference series: the quantile boundaries, x = 0, every point its window
  reaches (``window_terms`` up to ``MAX_WINDOW_TERMS``, x up to order 2e6),
  where it meets the default tolerance at a cost below the expansion's plus
  the frame it needs, and past the window a B that its upper bound puts
  below e^-750, returned as 0; no frame is built,
* past the window, large r = p + q inside the validity strip goes to the
  erfc-based uniform expansion, which holds through the transition and
  reduces to the plain saddle series past it; the frame built to decide
  this is the one the route evaluates on,
* everything else to the series, which raises there.

The paper's large-z expansion and Kummer-function series are reproduction
only (``ncbeta eval --method large-z|kummer``): the first misses the
default tolerance wherever it applies, and the series is cheaper than the
second wherever both reach.

The primary function (B below the transition quantile y0, the complement
above) is always the member computed directly.  ``err_est`` reports each
route's own estimate honestly; the erfc-uniform expansion may return an
estimate above the requested tolerance rather than fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asymptotic import SaddleFrame, _erfc_uniform, build_frame, strip_edges_ok
from .errors import DomainError, EvaluationError, FrameDegenerateError
from .params import EvalPoint, ProbabilityPair, ShapeParams
from .series import eval_series, series_reaches

R_MIN_ASYMPTOTIC = 40.0  # smallest r routed to the erfc-uniform expansion


@dataclass(frozen=True)
class MethodChoice:
    route: str
    primary_target: str  # "B" | "Bbar"
    rationale: str
    frame: SaddleFrame | None = None  # the saddle geometry an asymptotic route runs on


def _primary(sp: ShapeParams, pt: EvalPoint) -> str:
    y0 = (pt.x + 2.0 * sp.p) / (pt.x + 2.0 * sp.r)
    return "B" if pt.y <= y0 else "Bbar"


def explain(sp: ShapeParams, pt: EvalPoint) -> MethodChoice:
    """The route and primary-function choice for a point, without evaluating.
    Deterministic in its arguments."""
    primary = _primary(sp, pt)
    if series_reaches(sp, pt):
        return MethodChoice("series", primary, "the series answers the point")
    if sp.r >= R_MIN_ASYMPTOTIC and strip_edges_ok(pt.y, sp.cos2, sp.sin2):
        try:
            frame = build_frame(sp, pt)
        except (DomainError, FrameDegenerateError):
            frame = None
        if frame is not None and frame.strip_ok:
            return MethodChoice(
                "erfc-uniform", primary, f"r={sp.r:g} past the series window; uniform through the transition", frame
            )
    return MethodChoice("series", primary, "past the series window and the uniform expansion's strip")


def _run_route(route: str, sp: ShapeParams, pt: EvalPoint, primary: str, frame: SaddleFrame | None) -> ProbabilityPair:
    if route == "erfc-uniform":
        return _erfc_uniform(frame, target=primary)
    return eval_series(sp, pt)


def evaluate(sp: ShapeParams, pt: EvalPoint, tol: float = 1e-12) -> ProbabilityPair:
    """B and its complement at the requested point.

    Returns err_est <= tol or the best achievable estimate, reported
    honestly; routes that fail outright (out of regime) fall back to the
    reference series."""
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    choice = explain(sp, pt)
    try:
        return _run_route(choice.route, sp, pt, choice.primary_target, choice.frame)
    except EvaluationError:
        if choice.route == "series":
            raise
        return eval_series(sp, pt)

"""Inversion of the noncentral beta CDF in the noncentrality or the quantile.

Solving B_{p,q}(x, y) = z follows one pipeline for either unknown; the two
differ only in the transition point x0 or y0, the domain and the direction
(B falls in x and rises in y):

1. invert the boundary-layer model: zeta0 = inv_erfc(2 z) sqrt(2/r);
2. seed from the transition series x(zeta) or y(zeta), improved by the
   first correction zeta ~ zeta0 + zeta1/r with
   zeta1 = ln(1 + zeta0 g0)/zeta0 (each applied whenever its seed stays in
   the domain; the bracketed polish guards a poor seed); when the series
   seed leaves the domain, from the root of the transition equation
   zeta(.)^2/2 - zeta0^2/2 = 0 on the correct side of the transition point
   (above x0 when zeta0 > 0, below y0 when zeta0 > 0); else from that point;
3. polish on the true equation with safeguarded Halley steps (Newton's
   where Halley's does not apply), evaluating B with the reference series,
   as ``evaluate`` does; the first and second derivatives in the unknown
   are summed over the same window from the Poisson weights and increments
   that series pass formed, so each step costs one series pass.  An
   iterate past the series' window cap raises its ``EvaluationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import build_frame, g_coeffs, x_zeta_coeffs, y_zeta_coeffs, zeta_series_value
from .errors import DomainError, EvaluationError
from .kernels import central_beta_cdf, inv_erfc
from .params import EvalPoint, ShapeParams
from .series import _series_window


@dataclass(frozen=True)
class InversionProblem:
    """B_{p,q}(x, y) = z with either x or y unknown.

    ``fixed`` is the known coordinate (y when solving for x, x when solving
    for y).  For unknown x the target must satisfy z <= I_y(p, q), the value
    at zero noncentrality, since B decreases in x."""

    unknown: str  # "x" | "y"
    sp: ShapeParams
    fixed: float
    z: float
    tol: float = 1e-10

    def __post_init__(self):
        if self.unknown not in ("x", "y"):
            raise DomainError(f"unknown must be 'x' or 'y', got {self.unknown!r}")
        if not 0.0 < self.z < 1.0:
            raise DomainError(f"target probability must lie in (0, 1), got {self.z}")
        if self.unknown == "x" and not 0.0 < self.fixed < 1.0:
            raise DomainError(f"fixed quantile must lie in (0, 1), got {self.fixed}")
        if self.unknown == "y" and not 0.0 <= self.fixed < math.inf:
            raise DomainError(f"fixed noncentrality must be nonnegative and finite, got {self.fixed}")
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol}")


@dataclass
class InversionResult:
    value: float
    iterations: int
    residual: float
    seed_path: str  # "zeta-series" | "transition-root" | "bisection" | "boundary"
    converged: bool  # |residual| <= tol * max(z, 1 - z)
    zeta0: float = 0.0
    seed_value: float = math.nan  # pre-polish start (after any correction)
    seed_value_raw: float = math.nan  # pre-polish start before the zeta1 correction


def zeta0_seed(problem: InversionProblem) -> float:
    """zeta0 from half erfc(zeta0 sqrt(r/2)) = z."""
    return inv_erfc(2.0 * problem.z) * math.sqrt(2.0 / problem.sp.r)


def _slope(sp: ShapeParams, pt: EvalPoint, unknown: str, window) -> tuple[float, float]:
    """The first and second derivatives of B in the unknown, summed over the
    window of ``series._series_window``: its Poisson weights w_j and the
    increments d_a = I_y(a, q) - I_y(a+1, q), a = p + j.  With
    dw_j/dx = (w_{j-1} - w_j)/2 and dI_y(a, q)/dy = a d_a / (y(1-y)),

        dB/dx   = -1/2 sum_j w_j d_a,
        d2B/dx2 =  1/4 sum_j w_j (d_a - d_{a+1})
                =  1/4 sum_j w_j d_a ((1-y)(a+1) - y(q-1)) / (a+1),
        dB/dy   =  sum_j w_j a d_a / (y(1-y)),
        d2B/dy2 =  sum_j w_j a d_a ((a-1)/y - (q-1)/(1-y)) / (y(1-y)),

    the second in x through the increment ratio d_{a+1}/d_a = y(a+q)/(a+1),
    so no neighbours are subtracted and no increment past the window enters.
    The window's edges hold these sums as they hold the member's: B's lower
    edge drops below e^-39.2 w_j0 d_{p+j0}, and the complement's ends past
    the peak of w_j d_{p+j}.  (0, 0) without a window."""
    if window is None:
        return 0.0, 0.0
    j_lo, wgt, d, shift = window
    scale = math.exp(shift)
    y, q = pt.y, sp.q
    wd = wgt * d
    a = sp.p + j_lo + np.arange(d.size)
    if unknown == "x":
        a1 = a + 1.0
        curv = ((1.0 - y) * a1 - y * (q - 1.0)) / a1
        return -0.5 * float(wd.sum()) * scale, 0.25 * float(wd @ curv) * scale
    wda = wd * a
    yy = y * (1.0 - y)
    curv = (a - 1.0) / y - (q - 1.0) / (1.0 - y)
    return float(wda.sum()) * scale / yy, float(wda @ curv) * scale / yy


def db_dx(sp: ShapeParams, pt: EvalPoint) -> float:
    """dB/dx = -e^{-x/2} y^p (1-y)^q M(p+q, p+1, xy/2) / (2 p B(p, q)) < 0,
    summed over the series window; past it, raises as the series does."""
    return _slope(sp, pt, "x", _series_window(sp, pt)[1])[0]


def db_dy(sp: ShapeParams, pt: EvalPoint) -> float:
    """dB/dy = e^{-x/2} y^{p-1} (1-y)^{q-1} M(p+q, p, xy/2) / B(p, q) > 0,
    summed over the series window; past it, raises as the series does."""
    return _slope(sp, pt, "y", _series_window(sp, pt)[1])[0]


def transition_equation(sp: ShapeParams, pt: EvalPoint, zeta0: float) -> float:
    """Left-hand side of the transition equation

        ln( (2x)^{p/r} (S - 2xy)^{q/r} / ((1-y)^{q/r} S) ) + (2x - S)/(4 r)
            - zeta0^2 / 2,

    with S = xy - 2p + sqrt(x^2 y^2 - 4pxy + 8rxy + 4p^2) = 2 x y t0.
    Identical to zeta(x, y)^2/2 - zeta0^2/2; its zeros are the points whose
    boundary-layer variable matches zeta0 in magnitude."""
    p, q, r = sp.p, sp.q, sp.r
    x, y = pt.x, pt.y
    if x <= 0.0 or not 0.0 < y < 1.0:
        raise DomainError("transition equation needs x > 0 and 0 < y < 1")
    rad = x * x * y * y - 4.0 * p * x * y + 8.0 * r * x * y + 4.0 * p * p
    if rad < 0.0:
        raise DomainError("transition equation radicand negative (cannot occur in-domain)")
    S = x * y - 2.0 * p + math.sqrt(rad)
    if S <= 2.0 * x * y or S <= 0.0:
        raise DomainError("transition equation saddle factor out of range")
    return (
        (p / r) * math.log(2.0 * x)
        + (q / r) * math.log(S - 2.0 * x * y)
        - (q / r) * math.log1p(-y)
        - math.log(S)
        + (2.0 * x - S) / (4.0 * r)
        - 0.5 * zeta0 * zeta0
    )


def zeta1_correction(problem: InversionProblem, zeta0: float, seed: float) -> float:
    """First correction zeta1 with zeta ~ zeta0 + zeta1/r, from the leading
    boundary-layer coefficient g0 at the seeded point:
    zeta1 = ln(1 + zeta0 g0)/zeta0, with the limit g0 as zeta0 -> 0.
    Only g0 is formed: f_0 - 1/zeta from A_0 alone away from the pole, one
    power of A with its pole-removal tail near it.
    Raises EvaluationError when 1 + zeta0 g0 <= 0 (correction skipped)."""
    g0 = g_coeffs(build_frame(problem.sp, _point(problem, seed)), 0)[0]
    u = zeta0 * g0
    if u <= -1.0:
        raise EvaluationError("zeta1 correction undefined: 1 + zeta0 g0 <= 0")
    if abs(zeta0) < 1e-8:
        return g0
    return math.log1p(u) / zeta0


def _residual(pair, z: float) -> float:
    """B - z computed from the pair member that preserves precision."""
    return pair.b - z if z <= 0.5 else (1.0 - z) - pair.bbar


def _point(problem: InversionProblem, v: float) -> EvalPoint:
    """The evaluation point with the unknown at v."""
    return EvalPoint(v, problem.fixed) if problem.unknown == "x" else EvalPoint(problem.fixed, v)


def _transition_point(problem: InversionProblem) -> float:
    """x0 or y0, the unknown's transition point."""
    sp, fixed = problem.sp, problem.fixed
    return sp.transition_noncentrality(fixed) if problem.unknown == "x" else sp.transition_quantile(fixed)


def _doubling(lo: float, step: float):
    """lo + step, then each point a doubled step past the last; 200 points."""
    for _ in range(200):
        lo += step
        yield lo
        step *= 2.0


def _transition_root(problem: InversionProblem, zeta0: float) -> float | None:
    """Root of dphi(.) = zeta0^2/2 on the side of the transition point
    selected by the sign of zeta0, by one walk: away from the point through
    trials, bisecting between it and the first trial where dphi exceeds
    zeta0^2/2.  The trials are doubling steps above x0 (from 0 when x0 < 0),
    x = 0 below it, and 2^-k of the way from y0 to 0 or to 1 for y,
    k = 1..200.  Returns None when no trial brackets a root."""
    half_z0sq = 0.5 * zeta0 * zeta0
    start = _transition_point(problem)

    def F(v):
        return build_frame(problem.sp, _point(problem, v)).dphi - half_z0sq

    if problem.unknown == "y":
        edge = 0.0 if zeta0 > 0.0 else 1.0
        trials = (edge + (start - edge) * 0.5**k for k in range(1, 201))
    elif zeta0 > 0.0:
        step = max(1.0, 0.5 * abs(start) + 1.0)
        start = max(start, 0.0)
        if F(start) > 0.0:
            return None
        trials = _doubling(start, step)
    else:
        trials = [0.0] if start > 0.0 else []
    for v in trials:
        fv = F(v)
        # x = 0 is the domain's edge: a root on it brackets too
        if fv > 0.0 or (v == 0.0 and fv == 0.0):
            return _bisect(F, min(start, v), max(start, v))
    return None


def _bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-13 * (abs(lo) + abs(hi) + 1e-6):
            break
    return 0.5 * (lo + hi)


def _seed(problem: InversionProblem, zeta0: float) -> tuple[float, float, str]:
    """(seed, raw seed, path): the zeta-series seed with its zeta1
    correction, or without it where the correction fails; else the
    transition root; else the transition point (at least 1 for x)."""
    unknown = problem.unknown
    try:
        # the coefficients are formed once, for the raw and the corrected seed
        coeffs = (x_zeta_coeffs if unknown == "x" else y_zeta_coeffs)(problem.sp, problem.fixed)
        raw = zeta_series_value(coeffs, zeta0, unknown)
    except (EvaluationError, DomainError):
        pass
    else:
        try:
            z1 = zeta1_correction(problem, zeta0, raw)
            return zeta_series_value(coeffs, zeta0 + z1 / problem.sp.r, unknown), raw, "zeta-series"
        except (EvaluationError, DomainError):
            return raw, raw, "zeta-series"
    try:
        root = _transition_root(problem, zeta0)
    except (EvaluationError, DomainError):
        root = None
    if root is not None:
        return root, root, "transition-root"
    v0 = _transition_point(problem)
    v0 = max(v0, 1.0) if unknown == "x" else v0
    return v0, v0, "bisection"


def invert(problem: InversionProblem) -> InversionResult:
    """Solve B_{p,q}(x, y) = z for the unknown coordinate.

    The result satisfies |B(solution) - z| <= tol * max(z, 1 - z), with
    ``converged`` True, unless the iteration budget (40 polish steps) is
    exhausted or the iterate stops moving first; then the last iterate the
    polish evaluated is returned with its residual and ``converged``
    False."""
    sp, z = problem.sp, problem.z
    band = problem.tol * max(z, 1.0 - z)
    if problem.unknown == "x":
        zmax = central_beta_cdf(sp.p, sp.q, problem.fixed)
        if z > zmax + band:
            raise DomainError(
                f"no nonnegative noncentrality reaches B = {z}: the zero-noncentrality "
                f"bound is I_y(p, q) = {zmax:.6g}"
            )
        if abs(z - zmax) <= band:
            return InversionResult(0.0, 0, zmax - z, "boundary", True, 0.0, 0.0, 0.0)

    zeta0 = zeta0_seed(problem)
    seed, seed_raw, seed_path = _seed(problem, zeta0)
    value, iters, resid = _polish(problem, seed)
    return InversionResult(value, iters, resid, seed_path, abs(resid) <= band, zeta0, seed, seed_raw)


def _eval_at(problem: InversionProblem, v: float):
    """(pair, B', B'') at the iterate: B from the reference series and its
    first and second derivatives in the unknown from the same window
    (``_slope``).  Where no window was summed (a B certified to round to 0)
    both derivatives are 0 and no Newton or Halley step is taken; past the
    window cap the series' ``EvaluationError`` propagates."""
    pt = _point(problem, v)
    pair, window = _series_window(problem.sp, pt)
    return (pair, *_slope(problem.sp, pt, problem.unknown, window))


def _polish(problem: InversionProblem, seed: float) -> tuple[float, int, float]:
    """Safeguarded Halley iteration on f = B(.) - z with a maintained bracket.

    Each step evaluates B, B' and B'' once (``_eval_at``).  Where Newton's
    step t = f / B' stays inside the bracket, the iterate moves by Halley's
    step v - 2 f B' / (2 B'^2 - f B''), written as t / (1 - t B'' / (2 B')),
    if that divisor is positive and the step stays inside too; else by t.
    Where Newton's step leaves the bracket, or there is none, the bracket is
    bisected (the iterate doubled while it is open above): far out in a
    tail, where B is flat and its curvature large, Halley's step shrinks to
    a few e-folds of B's distance to 0 or 1 and would crawl.  Stops once |f|
    is inside the residual band or after 40 evaluations, and returns the
    last iterate it evaluated, with its residual."""
    z = problem.z
    band = problem.tol * max(z, 1.0 - z)
    increasing = problem.unknown == "y"  # B rises in y and falls in x
    lo, hi = 0.0, (1.0 if increasing else math.inf)
    cur = min(max(seed, 1e-12), 1.0 - 1e-12) if increasing else max(seed, 0.0)
    for iters in range(1, 41):
        pair, deriv, curv = _eval_at(problem, cur)
        resid = _residual(pair, z)
        if abs(resid) <= band or iters == 40:
            break
        going_up = (resid < 0.0) if increasing else (resid > 0.0)
        if going_up:
            lo = max(lo, cur)
        else:
            hi = min(hi, cur)
        nxt = math.nan
        if deriv != 0.0 and math.isfinite(deriv):
            t = resid / deriv
            nxt = cur - t
            halley = 1.0 - 0.5 * t * curv / deriv
            if lo < nxt < hi and halley > 0.0 and lo < cur - t / halley < hi:
                nxt = cur - t / halley
        if not (math.isfinite(nxt) and lo < nxt < hi):
            nxt = max(2.0 * cur, cur + 1.0) if math.isinf(hi) else 0.5 * (lo + hi)
        if nxt == cur:
            break
        cur = nxt
    return cur, iters, resid

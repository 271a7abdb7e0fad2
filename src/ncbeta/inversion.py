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
   are summed over the same series pass (``series._Pass``), from the
   Poisson weights and increments it formed, and only before a step: the
   evaluation that meets the residual band forms none.  A solve plans one pass
   (``series._series_window``) and, after each Newton or Halley step,
   re-sums its window at the new iterate (``series._resum``): only the
   chain that depends on the unknown is rescaled, by an exact factor, and
   the sum is finished as a planned one is.  A bisection or doubling step,
   or a window that no longer fits the iterate, plans a new pass.  An
   iterate past the series' window cap raises its ``EvaluationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import SaddleFrame, build_frame, g_coeffs, x_zeta_coeffs, y_zeta_coeffs, zeta_series_value
from .errors import DomainError, EvaluationError
from .kernels import central_beta_cdf, inv_erfc
from .params import EvalPoint, ShapeParams
from .series import _Pass, _resum, _series_window


# the zeta1 seed forms g0 by the direct subtraction where its estimated
# rounding noise stays below this times max(1, |g0|) (``_g0_direct``)
G0_NOISE_MAX = 1e-8


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


def _slope(unknown: str, window: _Pass | None) -> tuple[float, float]:
    """The first and second derivatives of B in the unknown, summed over a
    series pass (``series._Pass``): its Poisson weights w_j and the
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
    r, wgt, _, d, _ = window
    scale = math.exp(r.shift)
    y, q = r.y, r.q
    wd = wgt * d
    a = r.p + r.j_lo + np.arange(d.size)
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
    return _slope("x", _series_window(sp, pt)[1])[0]


def db_dy(sp: ShapeParams, pt: EvalPoint) -> float:
    """dB/dy = e^{-x/2} y^{p-1} (1-y)^{q-1} M(p+q, p, xy/2) / B(p, q) > 0,
    summed over the series window; past it, raises as the series does."""
    return _slope("y", _series_window(sp, pt)[1])[0]


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

    Only g0 is formed, from the frame at the seed (``_g0``).
    Raises EvaluationError when 1 + zeta0 g0 <= 0 (correction skipped)."""
    g0 = _g0(build_frame(problem.sp, _point(problem, seed)))
    u = zeta0 * g0
    if u <= -1.0:
        raise EvaluationError("zeta1 correction undefined: 1 + zeta0 g0 <= 0")
    if abs(zeta0) < 1e-8:
        return g0
    return math.log1p(u) / zeta0


def _g0_direct(frame: SaddleFrame) -> float | None:
    """g0 = f_0 - 1/zeta by the direct subtraction, or None where it does
    not serve the seed.

    Directly, g0 = (1/t0 + y/(1 - y t0)) phi2^(-1/2) - 1/zeta: f_0 is
    h(t0) A_0^(-1/2) with h(t) = 1/(t (1 - y t)) in partial fractions.  For
    |zeta| >= tau this is the expression ``g_coeffs`` forms, so it is that
    g0 bit for bit.  Inside tau f_0 and 1/zeta cancel: the pole 1 - y t0,
    about y zeta phi2^(-1/2), shrinks with zeta, so a relative rounding u of
    t0 moves f_0 by about u sqrt(phi2)/(y zeta^2).  Against ``g_coeffs``'
    pole series the noise was at most 5.4 times that, over 12000
    zeta-series seeds of problems drawn over the invert-mixed ranges (half
    with z near 1/2, 1e-4 <= |zeta| < tau) and at the 15 frames, most with
    q near 1 and y near 1, where a fixed |zeta| >= 1e-3 rule or a
    u (1 + xi)/zeta^2 estimate let through more than 1e-8.  So
    16 u sqrt(phi2)/(y zeta^2) is taken as its bound: the direct g0 serves
    where that stays below ``G0_NOISE_MAX`` max(1, |g0|), and not where
    phi2 <= 0, zeta = 0 or the pole sits on the saddle, which ``g_coeffs``
    rejects."""
    t0, zeta = frame.t0, frame.zeta
    pole = 1.0 - frame.y * t0
    if zeta == 0.0 or not frame.phi2 > 0.0 or pole == 0.0:
        return None
    g0 = (1.0 / t0 + frame.y / pole) * frame.phi2**-0.5 - 1.0 / zeta
    noise = 16.0 * 1.12e-16 * math.sqrt(frame.phi2) / frame.y / zeta / zeta
    return g0 if noise <= G0_NOISE_MAX * max(1.0, abs(g0)) else None


def _g0(frame: SaddleFrame) -> float:
    """The leading boundary-layer coefficient g0 = f_0 - 1/zeta at a frame:
    the direct subtraction where it serves (``_g0_direct``), else
    ``g_coeffs(frame, 0)``, by its pole-removal series."""
    g0 = _g0_direct(frame)
    return g_coeffs(frame, 0)[0] if g0 is None else g0


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
    trials, then false position (``_illinois``) between the first trial
    where dphi exceeds zeta0^2/2 and the trial before it (the point itself
    before the first).  The trials are doubling steps above x0 (from 0 when
    x0 < 0), x = 0 below it, and 2^-k of the way from y0 to 0 or to 1 for
    y, k = 1..200.  Returns None when no trial brackets a root."""
    half_z0sq = 0.5 * zeta0 * zeta0
    start = _transition_point(problem)

    def F(v):
        return build_frame(problem.sp, _point(problem, v)).dphi - half_z0sq

    fprev = None  # dphi - zeta0^2/2 at start, once formed
    if problem.unknown == "y":
        edge = 0.0 if zeta0 > 0.0 else 1.0
        trials = (edge + (start - edge) * 0.5**k for k in range(1, 201))
    elif zeta0 > 0.0:
        step = max(1.0, 0.5 * abs(start) + 1.0)
        start = max(start, 0.0)
        fprev = F(start)
        if fprev > 0.0:
            return None
        trials = _doubling(start, step)
    else:
        trials = [0.0] if start > 0.0 else []
    prev = start
    for v in trials:
        fv = F(v)
        # x = 0 is the domain's edge: a root on it brackets too
        if fv > 0.0 or (v == 0.0 and fv == 0.0):
            if fprev is None:
                fprev = F(prev)
            ends = sorted(((prev, fprev), (v, fv)))
            return _illinois(F, *ends[0], *ends[1])
        prev, fprev = v, fv
    return None


def _illinois(fn, lo: float, flo: float, hi: float, fhi: float) -> float:
    """A root of fn in [lo, hi], whose ends' values flo and fhi differ in
    sign or vanish, by the Illinois variant of false position (Dowell and
    Jarratt, BIT 11, 1971): the secant point of the bracket replaces the
    end whose value has its sign, and an end kept twice in a row has its
    value halved, so both ends close in superlinearly.  Stops at a zero, or
    once the bracket is no wider than w = 1e-13 (|lo| + |hi| + 1e-6) or
    after 200 steps, and returns its midpoint.  A secant point closer than w/2 to an end is
    moved to w/2 from it, so that a root met closely from one side closes
    the bracket at the next step instead of creeping in from the other; a
    non-finite one is replaced by the midpoint."""
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    kept = 0  # the end the last step kept: -1 lo, 1 hi
    for _ in range(200):
        width = 1e-13 * (abs(lo) + abs(hi) + 1e-6)
        if hi - lo <= width:
            break
        mid = min(max(hi - fhi * (hi - lo) / (fhi - flo), lo + 0.5 * width), hi - 0.5 * width)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = mid, fm
            if kept == -1:
                flo *= 0.5
            kept = -1
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


def _eval_at(problem: InversionProblem, v: float, held: _Pass | None):
    """(pair, pass, held) at the iterate: B from the reference series and
    the pass it was summed on, from which ``_slope`` forms the derivatives
    in the unknown if ``_polish`` takes a step.  Given ``held``, the solve's
    last planned pass, its window is re-summed at v (``series._resum``)
    where it still fits; else a new pass is planned
    (``series._series_window``) and returned as ``held``, so re-sums are
    never chained.  Where no window was summed (a B certified to round to
    0) the pass is None; past the window cap the series' ``EvaluationError``
    propagates."""
    pt = _point(problem, v)
    out = None if held is None else _resum(problem.sp, pt, problem.unknown, held)
    if out is None:
        out = _series_window(problem.sp, pt)
        held = out[1]
    return out[0], out[1], held


def _polish(problem: InversionProblem, seed: float) -> tuple[float, int, float]:
    """Safeguarded Halley iteration on f = B(.) - z with a maintained bracket.

    Each step evaluates B once (``_eval_at``): after a Newton or Halley
    step by re-summing the window of the last planned pass, at the start
    and after a bisection or doubling step by planning a new one.  B' and
    B'' are summed over that pass (``_slope``) only when the residual lies
    outside the band and a step is to be taken, so the evaluation that
    ends a solve forms no derivatives.
    Where Newton's step t = f / B' stays inside the bracket, the iterate
    moves by Halley's step v - 2 f B' / (2 B'^2 - f B''), written as
    t / (1 - t B'' / (2 B')), if that divisor is positive and the step
    stays inside too; else by t.
    Where Newton's step leaves the bracket, or there is none, the bracket is
    bisected (the iterate doubled while it is open above): far out in a
    tail, where B is flat and its curvature large, Halley's step shrinks to
    a few e-folds of B's distance to 0 or 1 and would crawl.  In y the
    lower tail is straight in ln y, B ~ C y^p, so a bracket still open
    below (lo = 0) takes Newton's step on ln B in ln y, y (z/B)^(B/(y B')),
    where it lands inside, else hi min(1/2, hi): a root tens of decades
    below the seed is met in a few steps rather than halved toward, and the
    seed itself is the first iterate.  Stops once |f|
    is inside the residual band or after 40 evaluations, and returns the
    last iterate it evaluated, with its residual."""
    z = problem.z
    band = problem.tol * max(z, 1.0 - z)
    increasing = problem.unknown == "y"  # B rises in y and falls in x
    lo, hi = 0.0, (1.0 if increasing else math.inf)
    cur = seed if increasing else max(seed, 0.0)  # every y seed lies in (0, 1)
    held = None
    for iters in range(1, 41):
        pair, window, full = _eval_at(problem, cur, held)
        resid = _residual(pair, z)
        if abs(resid) <= band or iters == 40:
            break
        deriv, curv = _slope(problem.unknown, window)
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
        # after a Newton or Halley step the next evaluation re-sums the
        # last planned window; after a bisection or doubling step it plans
        held = full
        if not (math.isfinite(nxt) and lo < nxt < hi):
            if math.isinf(hi):
                nxt = max(2.0 * cur, cur + 1.0)
            elif increasing and lo == 0.0:
                nxt = hi * min(0.5, hi)
                if deriv > 0.0 and pair.b > 0.0:
                    # B ~ C y^p in the lower tail: Newton's step on ln B in
                    # ln y; z <= B here, so the power cannot overflow
                    step = cur * (z / pair.b) ** (pair.b / cur / deriv)
                    if 0.0 < step < hi:
                        nxt = step
            else:
                nxt = 0.5 * (lo + hi)
            held = None
        if nxt == cur:
            break
        cur = nxt
    return cur, iters, resid

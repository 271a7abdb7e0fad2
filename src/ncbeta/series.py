"""Oracle-grade evaluation of the noncentral beta CDF by its defining series.

The CDF is the Poisson mixture

    B_{p,q}(x, y) = e^{-x/2} sum_j (x/2)^j / j! * I_y(p + j, q),

and the complement is the same mixture over I_{1-y}(q, p + j).  Both term
sequences come from the exact recursion I_y(a, q) - I_y(a+1, q) = d_a > 0:
B's decaying terms are one value past the top of the window plus the
reverse running sum of the increments, the complement's growing terms one
value at the bottom plus their forward running sum.  The increments run
outward from their largest term by products of their ratio.  Increments,
Poisson weights, terms and sums are all array operations; no Python loop
runs over the window.

Each member sums only a window whose dropped mass is bounded a priori: up
to an upper Poisson cutoff, and from a lower edge set by the Chernoff bound
on the Poisson tail, so the cost grows as sqrt(x), not x.  A B member whose
increment at the Poisson mode underflows, or whose window would pass
``MAX_WINDOW_TERMS``, first checks an upper bound on B and returns 0,
summing nothing, when B rounds to 0.  A member's relative ``err_est`` adds
the mass dropped below the window, a bound on the tail above it, and a
rounding floor that grows with p + q and with the log of the increment the
chain is anchored on.

This module also houses the notation bridges used as independent
cross-checks: the type-II q-function double series and the noncentral F
mapping.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError
from .kernels import _betainc, _betainc_scaled, _log_beta_pre, _stirling_delta
from .params import EvalPoint, ProbabilityPair, ShapeParams

MAX_WINDOW_TERMS = 1_000_000
TAIL_LOG = 39.2  # ln(1e17): a dropped Poisson tail stays below 1e-17 of the kept sum


def _upper_edge(half):
    """Upper summation cutoff: every Poisson weight past it lies below 1e-18
    of the peak (half-width 10*sqrt(x/2) + 30 above the mean)."""
    return int(math.ceil(half + 10.0 * math.sqrt(half) + 30.0))


def _lower_edge(half, log_mass):
    """Largest j_lo whose Chernoff bound P(J < j_lo) <= exp(-(h - j_lo)^2 / 2h),
    h = x/2, stays below exp(-log_mass)."""
    return max(int(math.floor(half - math.sqrt(2.0 * half * log_mass))), 0)


def poisson_window(x: float) -> tuple[int, int]:
    """Summation window [j_lo, j_hi] of the mixture series for Poisson mass
    alone: past j_hi every weight lies below 1e-18 of the peak, and the
    Chernoff bound puts less than e^-39.2 (about 1e-17) of the mass below
    j_lo.  The B member lowers that edge by its own summand scale (to zero
    when its terms decay so fast that the summand peaks at low j); both
    members add the dropped mass to their ``err_est``."""
    half = 0.5 * x
    return _lower_edge(half, TAIL_LOG), _upper_edge(half)


def _log_poisson(half, j):
    """log of the Poisson weight e^-h h^j / j! at h = x/2, for j near h.
    Below j = 20 the weight itself is formed (j! is exact there); above, the
    Stirling form j log(h/j) + (j - h) - log(2 pi j)/2 - delta(j) keeps its
    terms small, where the plain j log h - h - lgamma(j + 1) loses
    ~1e-16 * h log h to the rounding of its large terms."""
    if j < 20:
        return math.log(math.exp(-half) * half**j / math.gamma(j + 1.0))
    return (
        j * math.log1p((half - j) / j)
        + (j - half)
        - 0.5 * math.log(6.283185307179586476925287 * j)
        - _stirling_delta(float(j))
    )


def _rounding_floor(n, pq, log_mag):
    """Relative rounding error of a member sum of n terms built on one
    incomplete-beta prefactor exp(lpre), with shape sum pq (p + q plus the
    anchor index) and log magnitude log_mag.  In units of u = 1.12e-16 (the
    unit roundoff, rounded up): the ratio-product drift of the term and
    weight recursions (2u a term), and the absolute error of lpre, which
    grows as u * (p + q) from the rounded arguments of its p- and q-sized
    multiples and as u * |lpre| from the rounding of its large terms and of
    exp; 3e-15 covers the continued fraction.  Fitted to 40-digit mpmath on
    the 6953 series members of eval-mixed seeds 1 and 2 with values above
    1e-290: the worst true error is 0.80 of this floor."""
    return 3e-15 + 1.12e-16 * (2.0 * n + 2.0 * pq + 3.0 * abs(log_mag))


def _increments(p, q, y, j_lo, n):
    """The increments d_k = I_y(a, q) - I_y(a+1, q) = e^{lpre(a)} / a for
    a = p + j_lo + k, k = 0..n-1, scaled by e^-shift.

    Their ratio d_k / d_{k-1} = y (a - 1 + q) / a falls through one at jpk,
    so they are unimodal.  The chain is anchored at its largest term k0,
    whose log ld0 comes from the prefactor, and runs outward by running
    products of the ratio and its reciprocal, so away from the anchor the
    increments only fall.  A chain whose peak nears the underflow threshold
    is scaled to shift = ld0.

    Returns (d, shift, k0, ld0)."""
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = int(min(max(math.floor(jpk) - j_lo, 0.0), n - 1.0))
    a0 = p + (j_lo + k0)
    ld0 = _log_beta_pre(a0, q, y) - math.log(a0)
    shift = ld0 if ld0 < -650.0 else 0.0
    d0 = np.array([math.exp(ld0 - shift)])
    a_dn = a0 - np.arange(0.0, k0)
    a_up = a0 + np.arange(1.0, n - k0)
    down = np.cumprod(np.concatenate((d0, a_dn / (y * (a_dn - 1.0 + q)))))
    up = np.cumprod(np.concatenate((d0, y * (a_up - 1.0 + q) / a_up)))
    return np.concatenate((down[:0:-1], up)), shift, k0, ld0


def _seeded(a, b, z, d, shift):
    """The seed I_z(a, b) of a term chain whose increments d are scaled by
    e^-shift, scaled alike.  A scaled seed that overflows dwarfs every
    increment, so the chain is unscaled instead.  Returns (seed, d, shift)."""
    if shift != 0.0:
        s = _betainc_scaled(a, b, z, shift)
        if s != math.inf:
            return s, d, shift
        d = d * math.exp(shift)
    return _betainc(a, b, z), d, 0.0


def _central_terms_minimal(p, q, y, j_lo, j_hi):
    """I_y(p+j, q) for j = j_lo..j_hi, scaled by e^-shift.

    The sequence falls with j, by the increments of ``_increments``, so it
    is the value one past the top of the window plus the reverse running
    sum of the increments: every addition is of positive terms.

    Returns (terms, shift, k0, ld0), the last three from ``_increments``."""
    d, shift, k0, ld0 = _increments(p, q, y, j_lo, j_hi - j_lo + 1)
    top, d, shift = _seeded(p + j_hi + 1.0, q, y, d, shift)
    return top + np.cumsum(d[::-1])[::-1], shift, k0, ld0


def _poisson_weights(half, j0, n, j_lo, lw0):
    """Poisson weights for j = j_lo..j_lo+n-1, as running products from j0,
    whose log weight lw0 the caller passes in, of the weight ratios j/h
    downward and h/(j+1) upward."""
    k0 = j0 - j_lo
    w0 = np.array([math.exp(lw0)])
    down = np.cumprod(np.concatenate((w0, (j_lo + np.arange(k0, 0, -1.0)) / half)))
    up = np.cumprod(np.concatenate((w0, half / (j_lo + np.arange(k0 + 1.0, n)))))
    return np.concatenate((down[:0:-1], up))


def _log_term_bound(a, q, y):
    """An upper bound on log I_y(a, q), from its hypergeometric form
    I_y(a, q) = e^lpre / a * sum_k (a+q)_k / (a+1)_k y^k (DLMF 8.17.8), whose
    ratios (a+q+i)/(a+1+i) are at most c/y with c = y max(1, (a+q)/(a+1))."""
    c = y * max(1.0, (a + q) / (a + 1.0))
    if c >= 1.0:
        return 0.0
    return min(_log_beta_pre(a, q, y) - math.log(a) - math.log1p(-c), 0.0)


def _log_b_bound(p, q, half, y):
    """An upper bound on log B over the whole mixture.  The terms
    I_y(p+j, q) fall with j, so for every m <= h
        B <= P(J < m) I_y(p, q) + I_y(p+m, q)
          <= exp(-(h-m)^2 / 2h) I_y(p, q) + I_y(p+m, q);
    the first part rises with m and the second falls, so m is bisected to
    their crossing."""
    lt0 = _log_term_bound(p, q, y)
    lo = 0
    hi = int(half)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lt0 - (half - mid) ** 2 / (2.0 * half) < _log_term_bound(p + mid, q, y):
            lo = mid
        else:
            hi = mid
    best = 0.0
    for m in (lo, hi):
        best = min(best, max(lt0 - (half - m) ** 2 / (2.0 * half), _log_term_bound(p + m, q, y)))
    return best + math.log(2.0)


def _member_b(p, q, x, y):
    """B by the Poisson-weighted series over the decaying terms I_y(p+j, q).

    The window runs up to the upper Poisson cutoff, beyond which both factors
    decay.  Its lower edge comes from the Chernoff bound: every dropped term
    is at most I_y(p, q) <= 1 and the kept sum is at least its summand at the
    Poisson mode j0, which is at least w_j0 d_j0, so the edge drops mass
    below e^-39.2 of that.  When the central terms decay faster than the
    weights grow, the summand peaks at low j, that product is tiny, and the
    edge stays at zero; if an upper bound on B then lies below e^-750, B
    rounds to 0 and nothing is summed.  The sum runs in the increments'
    scaled regime and is unscaled once.  The err_est includes the dropped
    mass and the upper tail.

    Returns (value, relative error estimate)."""
    half = 0.5 * x
    if half == 0.0:
        v = _betainc(p, q, y)
        return v, _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0)
    j_hi = _upper_edge(half)
    j0 = min(int(half + 0.5), j_hi)
    lw0 = _log_poisson(half, j0)
    ld_j0 = _log_beta_pre(p + j0, q, y) - math.log(p + j0)
    if ld_j0 < -708.0 and _log_b_bound(p, q, half, y) < -750.0:
        # B lies below e^-750, where 0 is its correctly rounded value
        return 0.0, 1e-15
    j_lo = _lower_edge(half, TAIL_LOG - lw0 - ld_j0)
    n = j_hi - j_lo + 1
    wgt = _poisson_weights(half, j0, n, j_lo, lw0)
    terms, shift, k0, ld0 = _central_terms_minimal(p, q, y, j_lo, j_hi)
    s = float(np.sum(wgt * terms))
    value = s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))
    if value <= 0.0:
        return 0.0, 1e-15
    rup = half / (j_hi + 1.0)
    tail = wgt[n - 1] * terms[n - 1] * rup / (1.0 - rup)
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half) - shift)
    return value, tail / s + _rounding_floor(n, p + q + j_lo + k0, ld0)


def _complement_end(p, q, half, y):
    """Upper end of the complement's window: the summand peak, where the
    weight ratio h/(j+1) times the term growth y(p+q+j)/(p+j+1) equals one
    (the positive root of j^2 + (p + 1 - hy) j - hy (p + q) = 0), plus a
    Poisson-width margin, and at least the upper Poisson cutoff."""
    hy = half * y
    b = p + 1.0 - hy
    c = hy * (p + q)
    disc = math.sqrt(b * b + 4.0 * c)
    jstar = 2.0 * c / (b + disc) if b > 0.0 else 0.5 * (disc - b)
    return max(_upper_edge(half), int(math.ceil(jstar + 10.0 * math.sqrt(max(jstar, 1.0)) + 50.0)))


def _member_complement(p, q, x, y):
    """The complement by the Poisson mixture over I_{1-y}(q, p+j).

    These terms grow toward 1, so the summand can keep growing well past
    the Poisson cutoff; the window extends to the product peak (where the
    weight decay finally beats the term growth) plus a Poisson-width margin.
    Below the Poisson lower edge the terms are at most the first kept one,
    so the dropped mass is at most P(J < j_lo) times it.  The terms are a
    direct value at p + j_lo plus the running sum of the increments, in
    their scaled regime.  The err_est includes the dropped mass and the
    upper tail.

    Returns (value, relative error estimate)."""
    half = 0.5 * x
    if half == 0.0:
        v = _betainc(q, p, 1.0 - y)
        return v, _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0)
    j_end = _complement_end(p, q, half, y)
    j_lo = _lower_edge(half, TAIL_LOG)
    n = j_end - j_lo + 1
    d, shift, k0, ld0 = _increments(p, q, y, j_lo, n)
    g_lo, d, shift = _seeded(q, p + j_lo, 1.0 - y, d, shift)
    # the terms g_j = I_{1-y}(q, p+j) add the increments up from g_lo
    g = np.cumsum(np.concatenate((np.array([g_lo]), d[:-1])))
    j0 = min(max(int(half + 0.5), j_lo), j_end)
    wgt = _poisson_weights(half, j0, n, j_lo, _log_poisson(half, j0))
    s = float(np.sum(wgt * g))
    value = s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))
    if value <= 0.0:
        # an empty or underflowing sum gives the zero result of _member_b
        return 0.0, 1e-15
    # past j_end the weights fall by at most r = h/(j_end+1) a step; the terms
    # grow by increments d_j whose ratio is at most rho (monotone toward y)
    r = half / (j_end + 1.0)
    rho = max(y * (p + q + j_end) / (p + j_end + 1.0), y, 1.0)
    tail = wgt[n - 1] * r * (g[n - 1] / (1.0 - r) + d[n - 1] / (1.0 - r * rho) ** 2) if r * rho < 1.0 else math.inf
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half)) * g_lo
    return value, tail / s + _rounding_floor(n, p + q + j_lo + k0, ld0)


def central_term_sequence(sp: ShapeParams, y: float, j_lo: int, j_hi: int) -> np.ndarray:
    """I_y(p+j, q) for j = j_lo..j_hi, each within ~1e-13 of a direct
    continued-fraction evaluation."""
    if not 0 <= j_lo <= j_hi:
        raise DomainError(f"need 0 <= j_lo <= j_hi, got ({j_lo}, {j_hi})")
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"quantile y must lie in [0, 1], got {y}")
    if y == 0.0 or y == 1.0:
        return np.full(j_hi - j_lo + 1, y)
    out, shift = _central_terms_minimal(sp.p, sp.q, y, j_lo, j_hi)[:2]
    if shift != 0.0:
        with np.errstate(divide="ignore"):
            out = np.exp(np.log(out) + shift)
    if np.any(np.isnan(out)):
        raise EvaluationError("central beta recursion produced nan")
    return out


def window_terms(sp: ShapeParams, pt: EvalPoint) -> int:
    """The number of terms the series member primary at the point sums up
    to: the upper Poisson cutoff for B (y <= y0), the complement's summand
    peak plus a margin above.  Past ``MAX_WINDOW_TERMS`` the series cannot
    reach the point."""
    half = 0.5 * pt.x
    if pt.y > (pt.x + 2.0 * sp.p) / (pt.x + 2.0 * sp.r):
        return _complement_end(sp.p, sp.q, half, pt.y) + 1
    return _upper_edge(half) + 1


def series_reaches(sp: ShapeParams, pt: EvalPoint) -> bool:
    """Whether ``eval_series`` answers the point: at the quantile boundaries,
    wherever its window reaches, and past the window where B is primary and
    its upper bound lies below e^-750, so that 0, the value ``_member_b``
    gives inside the window, is its correctly rounded value.  Elsewhere it
    raises."""
    if pt.y <= 0.0 or pt.y >= 1.0 or window_terms(sp, pt) <= MAX_WINDOW_TERMS:
        return True
    y0 = (pt.x + 2.0 * sp.p) / (pt.x + 2.0 * sp.r)
    return pt.y <= y0 and _log_b_bound(sp.p, sp.q, 0.5 * pt.x, pt.y) < -750.0


def eval_series(sp: ShapeParams, pt: EvalPoint) -> ProbabilityPair:
    """Reference evaluation of B and its complement by the defining series.

    Sums the member that is numerically smaller (B for y <= y0, the
    complement otherwise, where y0 = (x+2p)/(x+2p+2q) is the transition
    quantile) and derives the other by subtraction from 1."""
    if pt.y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "boundary", 0.0)
    if pt.y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "boundary", 0.0)
    n = window_terms(sp, pt)
    if n > MAX_WINDOW_TERMS:
        if series_reaches(sp, pt):
            return ProbabilityPair.from_primary(0.0, "b", "series", 1e-15)
        raise EvaluationError(f"series window would need {n} terms at x={pt.x}; tolerance unachievable")
    complement = pt.y > (pt.x + 2.0 * sp.p) / (pt.x + 2.0 * sp.r)
    if complement:
        value, err = _member_complement(sp.p, sp.q, pt.x, pt.y)
    else:
        value, err = _member_b(sp.p, sp.q, pt.x, pt.y)
    if math.isnan(value):
        raise EvaluationError(f"series evaluation failed at p={sp.p} q={sp.q} x={pt.x} y={pt.y}")
    return ProbabilityPair.from_primary(value, "bbar" if complement else "b", "series", err)


def _qfunction_sum(a, b, lam, lx, l1mx):
    """Double series for 1 - q(lam, omega; 2a, 2b): outer terms in x with
    inner partial Poisson sums.  Returns (value, iterations); iterations < 0
    flags non-convergence."""
    t = math.exp(a * lx + b * l1mx + math.lgamma(a + b) - math.lgamma(b) - math.lgamma(a + 1.0))
    use_mult = lam < 700.0
    pois = math.exp(-lam) if lam < 745.0 else 0.0
    psum = pois
    s = 0.0
    n = 0
    while n < 2000000:
        s += t * psum
        ratio = math.exp(lx) * (a + b + n) / (a + 1.0 + n)
        if ratio < 1.0:
            tailbound = t * ratio / (1.0 - ratio)
            if tailbound < 1e-17 * s and s > 0.0:
                return s, n
        t *= ratio
        n += 1
        if use_mult:
            pois *= lam / n
        else:
            lp = n * math.log(lam) - lam - math.lgamma(n + 1.0)
            pois = math.exp(lp) if lp > -745.0 else 0.0
        psum += pois
    return s, -1


def eval_type2_qfunction(a: float, b: float, lam: float, omega: float) -> float:
    """1 - q(lam, omega; 2a, 2b) by its defining double series, with
    x = omega/(omega + 1).  Serves as an independent oracle for the identity
    1 - q(lam, omega; 2a, 2b) = B_{a,b}(2 lam, x)."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"shape arguments must be positive, got ({a}, {b})")
    if lam < 0.0 or omega < 0.0:
        raise DomainError(f"lambda and omega must be nonnegative, got ({lam}, {omega})")
    if omega == 0.0:
        return 0.0
    lx = math.log(omega) - math.log1p(omega)
    l1mx = -math.log1p(omega)
    value, n = _qfunction_sum(a, b, lam, lx, l1mx)
    if n < 0:
        raise EvaluationError(
            "type-II q-function series converges too slowly for x near 1; use eval_series instead"
        )
    return min(max(value, 0.0), 1.0)


def noncentral_f_cdf(w: float, nu1: float, nu2: float, lam: float) -> ProbabilityPair:
    """CDF of the noncentral F distribution with nu1, nu2 degrees of freedom
    and noncentrality lam, mapped onto the noncentral beta with p = nu1/2,
    q = nu2/2, quantile nu1*w/(nu1*w + nu2) and noncentrality lam."""
    if w < 0.0:
        raise DomainError(f"F statistic must be nonnegative, got {w}")
    if not (nu1 > 0.0 and nu2 > 0.0):
        raise DomainError(f"degrees of freedom must be positive, got ({nu1}, {nu2})")
    if lam < 0.0:
        raise DomainError(f"noncentrality must be nonnegative, got {lam}")
    from .dispatch import evaluate

    quantile = nu1 * w / (nu1 * w + nu2) if math.isfinite(w) else 1.0
    return evaluate(ShapeParams(0.5 * nu1, 0.5 * nu2), EvalPoint(lam, quantile))

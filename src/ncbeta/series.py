"""Oracle-grade evaluation of the noncentral beta CDF by its defining series.

The CDF is the Poisson mixture

    B_{p,q}(x, y) = e^{-x/2} sum_j (x/2)^j / j! * I_y(p + j, q),

and the complement is the same mixture over I_{1-y}(q, p + j).  The central
beta terms are generated by stable recursions (backward ratio recursion for
the decaying I_y(p+j, q) sequence, forward increments for the growing
complement sequence), which is orders of magnitude cheaper than a continued
fraction per term and equally accurate.  The terms, the Poisson weights and
the sums are array operations (running products and sums, pairwise
summation); the backward ratio recursion, which is nonlinear, is the one
scalar loop over the window.

Each member sums only a window whose dropped mass is bounded a priori: up
to an upper Poisson cutoff, and from a lower edge set by the Chernoff bound
on the Poisson tail, so the cost grows as sqrt(x), not x.  A B member whose
term at the Poisson mode underflows, or whose window would pass
``MAX_WINDOW_TERMS``, first checks an upper bound on B and returns 0,
summing nothing, when B rounds to 0.  A member's
relative ``err_est`` adds the mass dropped below the window, a bound on the
tail above it, and a rounding floor that grows with p + q and with the log
of the incomplete-beta prefactor the terms are built on.

This module also houses the notation bridges used as independent
cross-checks: the type-II q-function double series and the noncentral F
mapping.
"""

from __future__ import annotations

import math

import numpy as np

from ._jit import kernel
from .errors import DomainError, EvaluationError
from .kernels import _betainc, _betainc_scaled, _log_beta_pre, _stirling_delta
from .params import EvalPoint, ProbabilityPair, ShapeParams

MAX_WINDOW_TERMS = 1_000_000
TAIL_LOG = 39.2  # ln(1e17): a dropped Poisson tail stays below 1e-17 of the kept sum


@kernel
def _upper_edge(half):
    """Upper summation cutoff: every Poisson weight past it lies below 1e-18
    of the peak (half-width 10*sqrt(x/2) + 30 above the mean)."""
    return int(math.ceil(half + 10.0 * math.sqrt(half) + 30.0))


@kernel
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


@kernel
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


@kernel
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
    1e-290: the worst true error is 0.95 of this floor."""
    return 3e-15 + 1.12e-16 * (2.0 * n + 2.0 * pq + 3.0 * abs(log_mag))


@kernel
def _central_terms_minimal(p, q, y, j_lo, j_hi, anchor, anchor_value):
    """I_y(p+j, q) for j = j_lo..j_hi.

    The sequence is minimal for the three-term recurrence in increasing j,
    so the term ratios rho_j = I_y(p+j+1, q) / I_y(p+j, q) are generated by
    downward recursion, the one scalar loop of the series.  The ratio seed
    comes from two continued-fraction values at the top of the window; if
    those underflow, a trial seed at j_hi + 40 is used instead (the decay of
    the sequence then swamps the seed error).  Values are rebuilt around the
    anchor, whose value I_y(p + anchor, q) the caller passes in, by running
    products of the ratios; that pins the relative accuracy near the anchor
    index."""
    n = j_hi - j_lo + 1
    if y <= 0.0:
        return np.zeros(n)
    if y >= 1.0:
        return np.ones(n)
    f_top0 = _betainc(p + j_hi, q, y)
    f_top1 = _betainc(p + j_hi + 1.0, q, y)
    if f_top0 > 0.0 and f_top1 > 0.0 and f_top1 == f_top1 and f_top0 == f_top0:
        r = f_top1 / f_top0
        jstart = j_hi
    else:
        r = y
        jstart = j_hi + 40
    rho = np.empty(jstart - j_lo)
    for j in range(jstart, j_lo, -1):
        pj = p + j
        c = (pj + q - 1.0) * y
        r = c / (pj + c - pj * r)
        rho[j - j_lo - 1] = r
    rho = rho[: n - 1]
    k0 = anchor - j_lo
    out = np.empty(n)
    out[k0] = anchor_value
    out[k0 + 1 :] = anchor_value * np.cumprod(rho[k0:])
    if k0 > 0:
        out[:k0] = anchor_value / np.cumprod(rho[k0 - 1 :: -1])[::-1]
    return out


@kernel
def _poisson_weights(half, j0, n, j_lo, lw0):
    """Poisson weights for j = j_lo..j_lo+n-1, as running products from j0,
    whose log weight lw0 the caller passes in, of the weight ratios j/h
    downward and h/(j+1) upward."""
    k0 = j0 - j_lo
    w0 = np.array([math.exp(lw0)])
    down = np.cumprod(np.concatenate((w0, (j_lo + np.arange(k0, 0, -1.0)) / half)))
    up = np.cumprod(np.concatenate((w0, half / (j_lo + np.arange(k0 + 1.0, n)))))
    return np.concatenate((down[:0:-1], up))


@kernel
def _log_term_bound(a, q, y):
    """An upper bound on log I_y(a, q), from its hypergeometric form
    I_y(a, q) = e^lpre / a * sum_k (a+q)_k / (a+1)_k y^k (DLMF 8.17.8), whose
    ratios (a+q+i)/(a+1+i) are at most c/y with c = y max(1, (a+q)/(a+1))."""
    c = y * max(1.0, (a + q) / (a + 1.0))
    if c >= 1.0:
        return 0.0
    return min(_log_beta_pre(a, q, y) - math.log(a) - math.log1p(-c), 0.0)


@kernel
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


@kernel
def _member_b(p, q, x, y):
    """B by the Poisson-weighted series over the decaying terms I_y(p+j, q).

    The window runs up to the upper Poisson cutoff, beyond which both factors
    decay.  Its lower edge comes from the Chernoff bound: every dropped term
    is at most I_y(p, q) <= 1 and the kept sum is at least its summand at the
    Poisson mode j0, so the edge drops mass below e^-39.2 of w_j0 I_y(p+j0, q).
    When the central terms decay faster than the weights grow, the summand
    peaks at low j, that product is tiny, and the edge stays at zero; if an
    upper bound on B then lies below e^-750, B rounds to 0 and nothing is
    summed.  The err_est includes the dropped mass and the upper tail.

    Returns (value, relative error estimate)."""
    half = 0.5 * x
    if half == 0.0:
        v = _betainc(p, q, y)
        return v, _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0)
    j_hi = _upper_edge(half)
    j0 = min(int(half + 0.5), j_hi)
    lw0 = _log_poisson(half, j0)
    anchor = j0
    i_anchor = _betainc(p + j0, q, y)
    if not i_anchor >= 2.3e-308:
        # the value at the Poisson peak underflows or is subnormal (only a
        # few mantissa bits); the summand mass then sits at low j, so keep
        # the whole window and anchor at j = 0, whose term bounds the member,
        # unless B lies below e^-750, where 0 is its correctly rounded value
        if _log_b_bound(p, q, half, y) < -750.0:
            return 0.0, 1e-15
        j_lo = 0
        anchor = 0
        i_anchor = _betainc(p, q, y)
    else:
        j_lo = _lower_edge(half, TAIL_LOG - lw0 - math.log(i_anchor))
    n = j_hi - j_lo + 1
    wgt = _poisson_weights(half, j0, n, j_lo, lw0)
    terms = _central_terms_minimal(p, q, y, j_lo, j_hi, anchor, i_anchor)
    s = float(np.sum(wgt * terms))
    if s <= 0.0:
        return 0.0, 1e-15
    rup = half / (j_hi + 1.0)
    tail = wgt[n - 1] * terms[n - 1] * rup / (1.0 - rup)
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half))
    return s, tail / s + _rounding_floor(n, p + q + anchor, math.log(i_anchor))


@kernel
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


@kernel
def _member_complement(p, q, x, y):
    """The complement by the Poisson mixture over I_{1-y}(q, p+j).

    These terms grow toward 1, so the summand can keep growing well past
    the Poisson cutoff; the window extends to the product peak (where the
    weight decay finally beats the term growth) plus a Poisson-width margin.
    Below the Poisson lower edge the terms are at most the first kept one,
    so the dropped mass is at most P(J < j_lo) times it.  Terms are
    generated by the exact increment recursion from a direct value at
    p + j_lo, run in a scaled regime when the increments sit near the
    underflow threshold.  The err_est includes the dropped mass and the
    upper tail.

    Returns (value, relative error estimate)."""
    half = 0.5 * x
    if half == 0.0:
        v = _betainc(q, p, 1.0 - y)
        return v, _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0)
    j_end = _complement_end(p, q, half, y)
    j_lo = _lower_edge(half, TAIL_LOG)
    n = j_end - j_lo + 1
    lp = p + j_lo
    ld_lo = _log_beta_pre(lp, q, y) - math.log(lp)
    # the increments d_j = exp(ld_j) are unimodal: their ratio
    # y(p+q+j-1)/(p+j) crosses one at jpk
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    jc = min(max(jpk, float(j_lo)), float(j_end))
    ldmax = ld_lo
    jf = math.floor(jc)
    if jf > j_lo:
        ldmax = max(ldmax, _log_beta_pre(p + jf, q, y) - math.log(p + jf))
    if jc > jf:
        ldmax = max(ldmax, _log_beta_pre(p + jf + 1.0, q, y) - math.log(p + jf + 1.0))
    # scale when the increment profile starts or peaks near the underflow
    # threshold; increments more than ~700 below the peak contribute nothing
    shift = ldmax if (ldmax < -650.0 or ld_lo < -640.0) else 0.0
    if shift != 0.0:
        g = _betainc_scaled(q, lp, 1.0 - y, shift)
        if g == math.inf:
            # the anchor dwarfs every increment; the unscaled path is exact
            # enough because the increments are then negligible
            shift = 0.0
            g = _betainc(q, lp, 1.0 - y)
    else:
        g = _betainc(q, lp, 1.0 - y)
    g_lo = g
    # increments d_j = exp(ld_j) by the exact ratio recursion; keep the chain
    # out of the subnormal range (below e^-708 doubles carry too few bits and
    # a near-zero start poisons every later increment)
    jr = np.arange(j_lo + 1.0, j_lo + n)
    ratio = y * (p + q + jr - 1.0) / (p + jr)
    d = np.zeros(n)
    k = 0
    if ld_lo - shift > -700.0:
        d[0] = math.exp(ld_lo - shift)
    elif jpk >= j_lo + 1:
        # the chain starts flushed below the normal range and the profile is
        # still climbing: follow it in logs and re-anchor exactly once it is
        # back (past jpk it only falls)
        kmax = min(int(jpk) - j_lo, n - 1)
        back = np.nonzero(ld_lo + np.cumsum(np.log(ratio[:kmax])) - shift > -700.0)[0]
        if len(back) > 0:
            k = int(back[0]) + 1
            d[k] = math.exp(_log_beta_pre(p + (j_lo + k), q, y) - math.log(p + (j_lo + k)) - shift)
    d[k:] = np.cumprod(np.concatenate((d[k : k + 1], ratio[k:])))
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
    return value, tail / s + _rounding_floor(n, p + q + j_lo, ld_lo)


def central_term_sequence(sp: ShapeParams, y: float, j_lo: int, j_hi: int) -> np.ndarray:
    """I_y(p+j, q) for j = j_lo..j_hi, each within ~1e-13 of a direct
    continued-fraction evaluation, normalized at j_lo."""
    if not 0 <= j_lo <= j_hi:
        raise DomainError(f"need 0 <= j_lo <= j_hi, got ({j_lo}, {j_hi})")
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"quantile y must lie in [0, 1], got {y}")
    out = _central_terms_minimal(sp.p, sp.q, y, j_lo, j_hi, j_lo, _betainc(sp.p + j_lo, sp.q, y))
    if np.any(np.isnan(out)):
        raise EvaluationError("central beta recursion produced nan")
    return out


def eval_series(sp: ShapeParams, pt: EvalPoint, tol: float = 1e-14) -> ProbabilityPair:
    """Reference evaluation of B and its complement by the defining series.

    Sums the member that is numerically smaller (B for y <= y0, the
    complement otherwise, where y0 = (x+2p)/(x+2p+2q) is the transition
    quantile) and derives the other by subtraction from 1."""
    if tol < 1e-15:
        raise DomainError(f"tol must be >= 1e-15, got {tol}")
    if pt.y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "boundary", 0.0)
    if pt.y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "boundary", 0.0)
    y0 = (pt.x + 2.0 * sp.p) / (pt.x + 2.0 * sp.r)
    complement = pt.y > y0
    half = 0.5 * pt.x
    n = (_complement_end(sp.p, sp.q, half, pt.y) if complement else _upper_edge(half)) + 1
    if n > MAX_WINDOW_TERMS:
        # past the window a B below e^-750 is still certified: 0 is its
        # correctly rounded value, the one _member_b gives inside the window
        if not complement and _log_b_bound(sp.p, sp.q, half, pt.y) < -750.0:
            return ProbabilityPair.from_primary(0.0, "b", "series", 1e-15)
        raise EvaluationError(f"series window would need {n} terms at x={pt.x}; tolerance unachievable")
    if complement:
        value, err = _member_complement(sp.p, sp.q, pt.x, pt.y)
    else:
        value, err = _member_b(sp.p, sp.q, pt.x, pt.y)
    if math.isnan(value):
        raise EvaluationError(f"series evaluation failed at p={sp.p} q={sp.q} x={pt.x} y={pt.y}")
    return ProbabilityPair.from_primary(value, "bbar" if complement else "b", "series", err)


@kernel
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

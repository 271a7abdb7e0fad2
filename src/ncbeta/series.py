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
increment at the Poisson mode underflows, or whose window would hold more
than ``MAX_WINDOW_TERMS`` terms, first checks an upper bound on B and
returns 0, summing nothing, when B rounds to 0; any other member past that
cap raises.  A member's relative ``err_est`` adds the mass dropped below
the window, a bound on the tail above it, and a rounding floor that grows
with p + q and with the log of the increment the chain is anchored on.

A member runs in three steps.  Its plan (``_plan_b``, ``_plan_complement``)
sets the window's edges, the Poisson mode and its log weight, and makes
the certified-zero and window-cap checks; the chain's anchor and scale
(``_chain_anchor``) and its continued-fraction seed (``_seed``) follow.
The sum builds the weights, increments and terms as arrays and sums their
products.  The finish (``_finish_b``, ``_finish_complement``) unscales the
sum and forms ``err_est`` from the tails and the floor.  Plan and finish
are scalar code that ``evaluate_many`` shares with the members; only the
sum has a second form there, which builds the windows of many points at
once in padded 2-D arrays, one row per window, with every element formed
by the float operations of the 1-D path in its order, and sums each row
over its unpadded slice, so every result is bitwise the member's.

This module also houses the notation bridges used as independent
cross-checks: the type-II q-function double series and the noncentral F
mapping.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError
from .kernels import _betainc, _betainc_scaled, _log_beta_pre, _stirling_delta
from .params import EvalPoint, ProbabilityPair, ShapeParams

# the most terms a member sums, j_hi - j_lo + 1 (B) or j_end - j_lo + 1
# (complement); the window is O(sqrt(x)) wide, so x reaches order 4e9
MAX_WINDOW_TERMS = 1_000_000
# the most padded cells (rows times columns) one 2-D pass of evaluate_many
# builds; a longer window is summed by its scalar member
MANY_CELLS = 1 << 13
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


def _chain_anchor(p, q, y, j_lo, n):
    """The anchor of the increment chain of ``_increments``: its index k0
    in the window, a0 = p + j_lo + k0, the log ld0 of its increment and the
    chain's scale shift.  Returns (k0, a0, ld0, shift)."""
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = int(min(max(math.floor(jpk) - j_lo, 0.0), n - 1.0))
    a0 = p + (j_lo + k0)
    ld0 = _log_beta_pre(a0, q, y) - math.log(a0)
    shift = ld0 if ld0 < -650.0 else 0.0
    return k0, a0, ld0, shift


def _increments(p, q, y, j_lo, n):
    """The increments d_k = I_y(a, q) - I_y(a+1, q) = e^{lpre(a)} / a for
    a = p + j_lo + k, k = 0..n-1, scaled by e^-shift.

    Their ratio d_k / d_{k-1} = y (a - 1 + q) / a falls through one at jpk,
    so they are unimodal.  The chain is anchored at its largest term k0
    (``_chain_anchor``), whose log ld0 comes from the prefactor, and runs
    outward by running products of the ratio and its reciprocal, so away
    from the anchor the increments only fall.  A chain whose peak nears the
    underflow threshold is scaled to shift = ld0.

    Returns (d, shift, k0, ld0)."""
    k0, a0, ld0, shift = _chain_anchor(p, q, y, j_lo, n)
    d0 = np.array([math.exp(ld0 - shift)])
    a_dn = a0 - np.arange(0.0, k0)
    a_up = a0 + np.arange(1.0, n - k0)
    down = np.cumprod(np.concatenate((d0, a_dn / (y * (a_dn - 1.0 + q)))))
    up = np.cumprod(np.concatenate((d0, y * (a_up - 1.0 + q) / a_up)))
    return np.concatenate((down[:0:-1], up)), shift, k0, ld0


def _seed(a, b, z, shift):
    """I_z(a, b) scaled by e^-shift, or None where the scaled value overflows."""
    if shift == 0.0:
        return _betainc(a, b, z)
    s = _betainc_scaled(a, b, z, shift)
    return None if s == math.inf else s


def _seeded(a, b, z, d, shift):
    """The seed I_z(a, b) of a term chain whose increments d are scaled by
    e^-shift, scaled alike.  A scaled seed that overflows dwarfs every
    increment, so the chain is unscaled instead.  Returns (seed, d, shift)."""
    s = _seed(a, b, z, shift)
    if s is not None:
        return s, d, shift
    return _betainc(a, b, z), d * math.exp(shift), 0.0


def _central_terms_minimal(p, q, y, j_lo, j_hi):
    """I_y(p+j, q) for j = j_lo..j_hi, scaled by e^-shift.

    The sequence falls with j, by the increments of ``_increments``, so it
    is the value one past the top of the window plus the reverse running
    sum of the increments: every addition is of positive terms.

    Returns (terms, d, shift, k0, ld0): the increments as the terms were
    built on, and the last three from ``_increments``."""
    d, shift, k0, ld0 = _increments(p, q, y, j_lo, j_hi - j_lo + 1)
    top, d, shift = _seeded(p + j_hi + 1.0, q, y, d, shift)
    return top + np.cumsum(d[::-1])[::-1], d, shift, k0, ld0


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


def _origin_window(p, q, y):
    """A member's window at x = 0: the one weight 1 and the one increment d_p."""
    d, shift = _increments(p, q, y, 0, 1)[:2]
    return 0, np.ones(1), d, shift


def _check_cap(n, x):
    """Raise where a member's window would sum more than ``MAX_WINDOW_TERMS`` terms."""
    if n > MAX_WINDOW_TERMS:
        raise EvaluationError(f"series window would need {n} terms at x={x}; tolerance unachievable")


def _unscale(s, shift):
    """A member's value from the sum s of its terms scaled by e^-shift."""
    return s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))


def _plan_b(p, q, x, y):
    """The plan of ``_member_b`` at x > 0: (half, j_lo, j_hi, j0, lw0), with
    h = x/2, the window [j_lo, j_hi] and the Poisson mode j0 (at most j_hi)
    with its log weight lw0; None where B is certified to round to 0.
    Raises where any other window passes the cap."""
    half = 0.5 * x
    j_hi = _upper_edge(half)
    j0 = min(int(half + 0.5), j_hi)
    lw0 = _log_poisson(half, j0)
    ld_j0 = _log_beta_pre(p + j0, q, y) - math.log(p + j0)
    j_lo = _lower_edge(half, TAIL_LOG - lw0 - ld_j0)
    n = j_hi - j_lo + 1
    if (ld_j0 < -708.0 or n > MAX_WINDOW_TERMS) and _log_b_bound(p, q, half, y) < -750.0:
        # B lies below e^-750, where 0 is its correctly rounded value
        return None
    _check_cap(n, x)
    return half, j_lo, j_hi, j0, lw0


def _finish_b(p, q, plan, k0, ld0, shift, s, last):
    """B's (value, err_est) from its plan, the anchor and scale of its
    increment chain, the scaled sum s over its window and the window's last
    summand: the dropped mass below the window, the tail above it and the
    rounding floor.  An empty or underflowing sum gives (0, 1e-15)."""
    half, j_lo, j_hi = plan[:3]
    value = _unscale(s, shift)
    if value <= 0.0:
        return 0.0, 1e-15
    rup = half / (j_hi + 1.0)
    tail = last * rup / (1.0 - rup)
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half) - shift)
    return value, tail / s + _rounding_floor(j_hi - j_lo + 1, p + q + j_lo + k0, ld0)


def _member_b(p, q, x, y):
    """B by the Poisson-weighted series over the decaying terms I_y(p+j, q).

    The window runs up to the upper Poisson cutoff, beyond which both factors
    decay.  Its lower edge comes from the Chernoff bound: every dropped term
    is at most I_y(p, q) <= 1 and the kept sum is at least its summand at the
    Poisson mode j0, which is at least w_j0 d_j0, so the edge drops mass
    below e^-39.2 of that.  When the central terms decay faster than the
    weights grow, the summand peaks at low j, that product is tiny, and the
    edge stays at zero.  There, and wherever the window would hold more than
    ``MAX_WINDOW_TERMS`` terms, an upper bound on B below e^-750 shows that
    B rounds to 0, and nothing is summed; past the cap any other B raises.
    The sum runs in the increments' scaled regime and is unscaled once.
    The err_est includes the dropped mass and the upper tail.

    Returns (value, relative error estimate, window), the window as
    ``_series_window`` describes it."""
    if 0.5 * x == 0.0:
        v = _betainc(p, q, y)
        return v, _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0), _origin_window(p, q, y)
    plan = _plan_b(p, q, x, y)
    if plan is None:
        return 0.0, 1e-15, None
    half, j_lo, j_hi, j0, lw0 = plan
    n = j_hi - j_lo + 1
    wgt = _poisson_weights(half, j0, n, j_lo, lw0)
    terms, d, shift, k0, ld0 = _central_terms_minimal(p, q, y, j_lo, j_hi)
    s = float((wgt * terms).sum())
    value, err = _finish_b(p, q, plan, k0, ld0, shift, s, wgt[n - 1] * terms[n - 1])
    return value, err, None if value == 0.0 else (j_lo, wgt, d, shift)


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


def _plan_complement(p, q, x, y):
    """The plan of ``_member_complement`` at x > 0: (half, j_lo, j_end, j0,
    lw0), with h = x/2, the window [j_lo, j_end] and the Poisson mode j0,
    clipped into the window, with its log weight lw0.  Raises where the
    window passes the cap."""
    half = 0.5 * x
    j_end = _complement_end(p, q, half, y)
    j_lo = _lower_edge(half, TAIL_LOG)
    _check_cap(j_end - j_lo + 1, x)
    j0 = min(max(int(half + 0.5), j_lo), j_end)
    return half, j_lo, j_end, j0, _log_poisson(half, j0)


def _finish_complement(p, q, y, plan, k0, ld0, shift, s, w_last, g_last, d_last, g_lo):
    """The complement's (value, err_est) from its plan, the anchor and scale
    of its increment chain, the scaled sum s over its window, the window's
    last weight, term and increment, and its first term g_lo.  An empty or
    underflowing sum gives the zero result of ``_finish_b``."""
    half, j_lo, j_end = plan[:3]
    value = _unscale(s, shift)
    if value <= 0.0:
        return 0.0, 1e-15
    # past j_end the weights fall by at most r = h/(j_end+1) a step; the terms
    # grow by increments d_j whose ratio is at most rho (monotone toward y)
    r = half / (j_end + 1.0)
    rho = max(y * (p + q + j_end) / (p + j_end + 1.0), y, 1.0)
    tail = w_last * r * (g_last / (1.0 - r) + d_last / (1.0 - r * rho) ** 2) if r * rho < 1.0 else math.inf
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half)) * g_lo
    return value, tail / s + _rounding_floor(j_end - j_lo + 1, p + q + j_lo + k0, ld0)


def _member_complement(p, q, x, y):
    """The complement by the Poisson mixture over I_{1-y}(q, p+j).

    These terms grow toward 1, so the summand can keep growing well past
    the Poisson cutoff; the window extends to the product peak (where the
    weight decay finally beats the term growth) plus a Poisson-width margin.
    Below the Poisson lower edge the terms are at most the first kept one,
    so the dropped mass is at most P(J < j_lo) times it.  The terms are a
    direct value at p + j_lo plus the running sum of the increments, in
    their scaled regime.  A window past ``MAX_WINDOW_TERMS`` terms raises.
    The err_est includes the dropped mass and the upper tail.

    Returns (value, relative error estimate, window), the window as
    ``_series_window`` describes it."""
    if 0.5 * x == 0.0:
        v = _betainc(q, p, 1.0 - y)
        return v, _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0), _origin_window(p, q, y)
    plan = _plan_complement(p, q, x, y)
    half, j_lo, j_end, j0, lw0 = plan
    n = j_end - j_lo + 1
    d, shift, k0, ld0 = _increments(p, q, y, j_lo, n)
    g_lo, d, shift = _seeded(q, p + j_lo, 1.0 - y, d, shift)
    # the terms g_j = I_{1-y}(q, p+j) add the increments up from g_lo
    g = np.cumsum(np.concatenate((np.array([g_lo]), d[:-1])))
    wgt = _poisson_weights(half, j0, n, j_lo, lw0)
    s = float((wgt * g).sum())
    value, err = _finish_complement(p, q, y, plan, k0, ld0, shift, s, wgt[n - 1], g[n - 1], d[n - 1], g_lo)
    return value, err, None if value == 0.0 else (j_lo, wgt, d, shift)


def central_term_sequence(sp: ShapeParams, y: float, j_lo: int, j_hi: int) -> np.ndarray:
    """I_y(p+j, q) for j = j_lo..j_hi, each within ~1e-13 of a direct
    continued-fraction evaluation."""
    if not 0 <= j_lo <= j_hi:
        raise DomainError(f"need 0 <= j_lo <= j_hi, got ({j_lo}, {j_hi})")
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"quantile y must lie in [0, 1], got {y}")
    if y == 0.0 or y == 1.0:
        return np.full(j_hi - j_lo + 1, y)
    out, _, shift = _central_terms_minimal(sp.p, sp.q, y, j_lo, j_hi)[:3]
    if shift != 0.0:
        with np.errstate(divide="ignore"):
            out = np.exp(np.log(out) + shift)
    if np.any(np.isnan(out)):
        raise EvaluationError("central beta recursion produced nan")
    return out


def eval_series(sp: ShapeParams, pt: EvalPoint) -> ProbabilityPair:
    """Reference evaluation of B and its complement by the defining series.

    Sums the member that is numerically smaller (B for y <= y0, the
    complement otherwise, where y0 = (x+2p)/(x+2p+2q) is the transition
    quantile) and derives the other by subtraction from 1.  Where that
    member's window would pass ``MAX_WINDOW_TERMS`` terms (x of order 4e9,
    sooner for a complement whose summand peaks far above the Poisson mode)
    it raises ``EvaluationError``, unless B is primary and certified to
    round to 0."""
    return _series_window(sp, pt)[0]


def _series_window(sp, pt):
    """``eval_series``' pair, with the window its primary member summed:
    (j_lo, w, d, shift), the Poisson weights w_j and the increments
    d_{p+j} = I_y(p+j, q) - I_y(p+j+1, q) for j = j_lo, j_lo + 1, ..., the
    increments scaled by e^-shift; None where no window was summed (the
    quantile boundaries, a B certified to round to 0, an empty sum)."""
    if pt.y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "boundary", 0.0), None
    if pt.y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "boundary", 0.0), None
    complement = _complement_is_primary(sp, pt)
    member = _member_complement if complement else _member_b
    value, err, window = member(sp.p, sp.q, pt.x, pt.y)
    return _series_pair(sp, pt, complement, value, err), window


def _complement_is_primary(sp, pt):
    """Whether the series sums the complement: y above the transition
    quantile y0 = (x+2p)/(x+2p+2q)."""
    return pt.y > (pt.x + 2.0 * sp.p) / (pt.x + 2.0 * sp.r)


def _series_pair(sp, pt, complement, value, err):
    """The series' pair from its primary member's value and err_est."""
    if math.isnan(value):
        raise EvaluationError(f"series evaluation failed at p={sp.p} q={sp.q} x={pt.x} y={pt.y}")
    return ProbabilityPair.from_primary(value, "bbar" if complement else "b", "series", err)


class _Planned(NamedTuple):
    """A point's scalar work before ``evaluate_many``'s 2-D pass."""

    slot: int  # the point's index in the input
    sp: ShapeParams
    pt: EvalPoint
    complement: bool  # whether the complement is the member summed
    plan: tuple  # the member's plan, (half, j_lo, j_top, j0, lw0)
    n: int  # the window's term count
    k0: int  # the increment chain's anchor (``_chain_anchor``)
    a0: float
    ld0: float
    shift: float
    seed: float  # the chain's seed, scaled by e^-shift


def _row_plan(slot, sp, pt):
    """A point's member plan, the anchor of its increment chain and its
    seed, as ``_Planned``.  Returns the pair itself where B is certified to
    round to 0, and None for any other straggler, which ``eval_series``
    answers.  Raises the member's cap error."""
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    if not 0.0 < y < 1.0 or 0.5 * x == 0.0:
        return None
    complement = _complement_is_primary(sp, pt)
    plan = _plan_complement(p, q, x, y) if complement else _plan_b(p, q, x, y)
    if plan is None:
        return _series_pair(sp, pt, False, 0.0, 1e-15)
    j_lo, j_top = plan[1:3]
    n = j_top - j_lo + 1
    if n > MANY_CELLS:
        return None
    k0, a0, ld0, shift = _chain_anchor(p, q, y, j_lo, n)
    seed = _seed(q, p + j_lo, 1.0 - y, shift) if complement else _seed(p + j_top + 1.0, q, y, shift)
    if seed is None:
        return None
    return _Planned(slot, sp, pt, complement, plan, n, k0, a0, ld0, shift, seed)


def _outward(v0, anchor, left, r_dn, r_up):
    """Rows of running products outward from each row's anchor column, where
    the row holds v0: leftward by r_dn (r_dn[i, c] takes column c+1 to c)
    over the columns ``left`` marks, rightward by r_up (r_up[i, c] takes
    column c-1 to c).  Each holds 1 wherever it is not used, so every
    product is formed in the order of the 1-D chains of ``_increments`` and
    ``_poisson_weights``, bit for bit.  Overwrites both ratio arrays."""
    rows = np.arange(len(v0))
    r_dn[rows, anchor] = v0
    r_up[rows, anchor] = v0
    np.multiply.accumulate(r_up, axis=1, out=r_up)
    rev = r_dn[:, ::-1]
    np.multiply.accumulate(rev, axis=1, out=rev)
    np.copyto(r_up, r_dn, where=left)
    return r_up


def _window_arrays(chunk, complement):
    """The Poisson weights, terms and increments of a chunk of planned rows
    of one member, sorted by window length: 2-D arrays, one row per window,
    as wide as the longest.  Every element is formed by the float operations
    of the 1-D path, in its order; columns past a row's window hold values
    that are not used."""

    def row_fields(r):
        half, j_lo, _, j0, lw0 = r.plan
        return half, j_lo, math.exp(lw0), r.a0, math.exp(r.ld0 - r.shift), r.seed, r.pt.y, r.sp.q, j0 - j_lo, r.k0, r.n

    # one row per window, then one column per field; the weights' anchor
    # column kw is the Poisson mode's
    fields = np.array([row_fields(r) for r in chunk])
    half, j_lo, w0, a0, d0, seed, y, q = fields[:, :8].T[:, :, None]
    kw, k0, n = fields[:, 8:].T.astype(int)
    shape = (len(chunk), n[-1])
    cols = np.arange(shape[1])
    inside = cols < n[:, None]

    # the weights' ratios (j_lo + c + 1)/h leftward and h/(j_lo + c)
    # rightward share the integers j_lo + c, exact in floating point
    base = j_lo + cols
    left = cols < kw[:, None]
    r_dn = np.ones(shape)
    np.divide(base[:, 1:], half, out=r_dn[:, :-1], where=left[:, :-1])
    r_up = np.divide(half, base, out=np.ones(shape), where=(cols > kw[:, None]) & inside)
    wgt = _outward(w0[:, 0], kw, left, r_dn, r_up)

    # the increments' ratios a/f leftward, at a = a0 - (k0 - 1 - c), and f/a
    # rightward, at a = a0 + (c - k0), with f = y (a - 1 + q): one array
    # a0 + (c - k0), read one column apart
    a = a0 + (cols - k0[:, None])
    f = y * (a - 1.0 + q)
    left = cols < k0[:, None]
    r_dn = np.ones(shape)
    np.divide(a[:, 1:], f[:, 1:], out=r_dn[:, :-1], where=left[:, :-1])
    r_up = np.divide(f, a, out=np.ones(shape), where=(cols > k0[:, None]) & inside)
    d = _outward(d0[:, 0], k0, left, r_dn, r_up)

    if complement:
        # g_j = I_{1-y}(q, p+j): the seed plus the increments below j
        terms = np.empty(shape)
        terms[:, :1] = seed
        terms[:, 1:] = d[:, :-1]
        np.cumsum(terms, axis=1, out=terms)
    else:
        # I_y(p+j, q): the seed past the top plus the increments from j up
        np.copyto(d, 0.0, where=~inside)
        terms = np.cumsum(d[:, ::-1], axis=1)[:, ::-1]
        terms += seed
    return wgt, terms, d


def _chunks(rows):
    """Consecutive runs of rows, sorted by window length, of at most
    ``MANY_CELLS`` padded cells each."""
    start = 0
    for end in range(1, len(rows) + 1):
        if end == len(rows) or (end + 1 - start) * rows[end].n > MANY_CELLS:
            yield rows[start:end]
            start = end


def evaluate_many(points, tol: float = 1e-12) -> list:
    """``evaluate`` over a sequence of (ShapeParams, EvalPoint) pairs.

    Returns a list in input order.  Each entry is the ``ProbabilityPair``
    that ``evaluate`` returns for its point, bit for bit, or the
    ``EvaluationError`` that it raises, so one failing point does not void
    the rest.  ``tol`` is validated as ``evaluate`` does.

    Every point is planned as its member plans it.  The windows of each
    member are then sorted by length, cut into chunks of at most
    ``MANY_CELLS`` padded cells, and built in one 2-D pass a chunk; each
    window's sum and finish run on its row.  A B certified to round to 0
    is answered by its plan.  The other stragglers go to ``eval_series``:
    the quantile boundaries and x = 0, a scaled seed that overflows, and a
    window longer than ``MANY_CELLS``."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    out: list = []
    planned: dict[bool, list] = {False: [], True: []}  # B rows, complement rows
    for sp, pt in points:
        try:
            row = _row_plan(len(out), sp, pt)
            if row is None:
                row = eval_series(sp, pt)
        except EvaluationError as exc:
            row = exc
        if isinstance(row, _Planned):
            planned[row.complement].append(row)
            row = None
        out.append(row)
    for complement, rows in planned.items():
        rows.sort(key=attrgetter("n"))
        for chunk in _chunks(rows):
            wgt, terms, d = _window_arrays(chunk, complement)
            summands = wgt * terms
            for i, r in enumerate(chunk):
                s, last = float(summands[i, : r.n].sum()), r.n - 1
                p, q = r.sp.p, r.sp.q
                if complement:
                    value, err = _finish_complement(
                        p, q, r.pt.y, r.plan, r.k0, r.ld0, r.shift, s, wgt[i, last], terms[i, last], d[i, last], r.seed
                    )
                else:
                    value, err = _finish_b(p, q, r.plan, r.k0, r.ld0, r.shift, s, summands[i, last])
                try:
                    out[r.slot] = _series_pair(r.sp, r.pt, complement, value, err)
                except EvaluationError as exc:
                    out[r.slot] = exc
    return out


def _qfunction_sum(a, b, lam, lx, l1mx):
    """Double series for 1 - q(lam, omega; 2a, 2b): outer terms in x with
    inner partial Poisson sums.  Returns (value, iterations); iterations < 0
    flags non-convergence.  A first term that underflows to 0 would keep every
    term at 0, so it raises at once."""
    t = math.exp(a * lx + b * l1mx + math.lgamma(a + b) - math.lgamma(b) - math.lgamma(a + 1.0))
    if t == 0.0:
        raise EvaluationError(f"type-II q-function series: its first term underflows at a={a}, b={b}")
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
    if not w >= 0.0:
        raise DomainError(f"F statistic must be nonnegative, got {w}")
    if not (nu1 > 0.0 and nu2 > 0.0):
        raise DomainError(f"degrees of freedom must be positive, got ({nu1}, {nu2})")
    if lam < 0.0:
        raise DomainError(f"noncentrality must be nonnegative, got {lam}")
    from .dispatch import evaluate

    t = nu1 * w
    quantile = t / (t + nu2) if t < math.inf else 1.0
    return evaluate(ShapeParams(0.5 * nu1, 0.5 * nu2), EvalPoint(lam, quantile))

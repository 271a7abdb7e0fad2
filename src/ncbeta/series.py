"""Oracle-grade evaluation of the noncentral beta CDF by its defining series.

The CDF is the Poisson mixture

    B_{p,q}(x, y) = e^{-x/2} sum_j (x/2)^j / j! * I_y(p + j, q),

and the complement is the same mixture over I_{1-y}(q, p + j).  Both term
sequences come from the exact recursion I_y(a, q) - I_y(a+1, q) = d_a > 0:
B's decaying terms are one value past the top of the window plus the
reverse running sum of the increments, the complement's growing terms one
value at the bottom plus their forward running sum.  The increments and
the Poisson weights follow one first-order recurrence, the (P, Q) chain of
``_chain``: running products outward from an anchor, by P[c+1]/Q[c+1]
leftward and Q[c]/P[c] rightward, with (P, Q) = (j, h) for the weights,
h = x/2, and (a, y (a - 1 + q)), a = p + j, for the increments.
Increments, Poisson weights, terms and sums are all array operations; no
Python loop runs over the window.

Each member sums only a window whose dropped mass is bounded a priori: up
to an upper Poisson cutoff, and from a lower edge set by the Chernoff bound
on the Poisson tail, so the cost grows as sqrt(x), not x.  A B member whose
increment at the Poisson mode underflows, or whose window would hold more
than ``MAX_WINDOW_TERMS`` terms, first checks an upper bound on B and
returns 0, summing nothing, when B rounds to 0; any other member past that
cap raises.  A member's relative ``err_est`` adds the mass dropped below
the window, a bound on the tail above it, and a rounding floor that grows
with p + q and with the log of the increment the chain is anchored on.

A member (``_member``, for B or the complement) runs in three steps, each
written once.  One planner (``_row_plan``) sets the window's edges, the
Poisson mode and its log weight, makes the x = 0, certified-zero and
window-cap checks, and anchors the increment chain (``_chain_anchor``)
with its continued-fraction seed and scale (``_seed``), as a ``_Planned``
row.  The sum builds the row's weights, increments and terms and sums
their products.  One finish (``_finish``) unscales the sum and forms
``err_est`` from the tails and the floor.  ``evaluate_many`` shares the
planner and the finish with the members; only the window has a second
form there (``_window_arrays``, against ``_window``), which builds the
windows of many points at once in padded 2-D arrays, one row per window
and both chains of a chunk in one stacked pass (``_outward``), with every
element formed by the float operations of the 1-D form in its order, so
every result is bitwise the member's.  Its stragglers, answered one at a
time, are the quantile boundaries, x = 0 and windows longer than
``MANY_CELLS``.

The 1-D window stays beside the 2-D one because it is faster for one
point.  Routing a member through ``_window_arrays([row])`` was bitwise
equal (8000/8000 evaluations on eval-mixed seeds 1-2, 1200 inversions) but
slower on a 2-core Xeon, interpreted, in-process and interleaved on
eval-mixed seed 1: ``evaluate`` 88 -> 110 us a point (median of 8 passes),
one planned row's window plus finish 48 -> 64 us (median of 15).

This module also houses the notation bridges used as independent
cross-checks: the type-II q-function double series and the noncentral F
mapping.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError
from .kernels import _betainc, _betainc_scaled, _log_beta_pre, _stirling_delta
from .params import EvalPoint, ProbabilityPair, ShapeParams

# the most terms a member sums, j_hi - j_lo + 1 (B) or j_end - j_lo + 1
# (complement); the window is O(sqrt(x)) wide, so x reaches order 4e9
MAX_WINDOW_TERMS = 1_000_000
# the most padded cells (rows times columns) one 2-D pass of evaluate_many
# builds; a longer window is summed in the 1-D form
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


def _chain(v0, k0, P, Q):
    """The (P, Q) chain of a window: v0 at column k0, and running products
    outward from it, leftward by P[c+1]/Q[c+1] (which takes column c+1 to
    c) and rightward by Q[c]/P[c] (which takes column c-1 to c).  Both
    chains of the mixture have this form: the Poisson weights with
    (P, Q) = (j, h), and the increments with (P, Q) = (a, y (a - 1 + q))."""
    down = np.cumprod(np.concatenate(([v0], P[k0:0:-1] / Q[k0:0:-1])))
    up = np.cumprod(np.concatenate(([v0], Q[k0 + 1 :] / P[k0 + 1 :])))
    return np.concatenate((down[:0:-1], up))


def _poisson_weights(half, j0, n, j_lo, lw0):
    """Poisson weights for j = j_lo..j_lo+n-1: the (P, Q) = (j, h) chain
    from j0, whose log weight lw0 the caller passes in, with the weight
    ratios j/h downward and h/j upward."""
    return _chain(math.exp(lw0), j0 - j_lo, np.arange(j_lo, j_lo + n, dtype=float), np.full(n, half))


def _seed(a, b, z, ld0):
    """The seed I_z(a, b) of a term chain whose anchor increment is e^ld0,
    and the chain's scale shift: ld0 where that increment nears the
    underflow threshold (below e^-650), else 0.  The seed is scaled by
    e^-shift, as the chain is.  A scaled seed that overflows dwarfs every
    increment, so that chain is left unscaled.  Returns (seed, shift)."""
    if ld0 < -650.0:
        s = _betainc_scaled(a, b, z, ld0)
        if s != math.inf:
            return s, ld0
    return _betainc(a, b, z), 0.0


def _chain_anchor(p, q, y, j_lo, n, complement):
    """The increment chain of a window of n terms from j_lo, and its seed.

    The increments' ratio y (a - 1 + q)/a falls through one at jpk, so they
    are unimodal; the chain is anchored at their largest term, at column k0
    (jpk clipped into the window), a0 = p + j_lo + k0, and the log ld0 of
    d_{a0} comes from the prefactor.  The seed (``_seed``) is the term at
    the window's far end from the sum: I_y(p+j_hi+1, q), one past the top,
    for B, and I_{1-y}(q, p+j_lo), at the bottom, for the complement.
    Returns (k0, a0, ld0, seed, shift)."""
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = int(min(max(math.floor(jpk) - j_lo, 0.0), n - 1.0))
    a0 = p + (j_lo + k0)
    ld0 = _log_beta_pre(a0, q, y) - math.log(a0)
    if complement:
        return k0, a0, ld0, *_seed(q, p + j_lo, 1.0 - y, ld0)
    return k0, a0, ld0, *_seed(p + (j_lo + n - 1) + 1.0, q, y, ld0)


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


class _Planned(NamedTuple):
    """A member's plan at x > 0, which both forms of the sum and the finish
    read."""

    p: float
    q: float
    y: float
    complement: bool  # whether the member is the complement
    half: float  # h = x/2
    j_lo: int  # the window is j = j_lo..j_lo+n-1
    n: int
    j0: int  # the Poisson mode, where the weights are anchored, and its log weight
    lw0: float
    k0: int  # the increments' anchor column, a0 and ld0 (``_chain_anchor``)
    a0: float
    ld0: float
    seed: float  # scaled by e^-shift, as the increments are
    shift: float


def _row_plan(p, q, x, y, complement):
    """A member's plan, as ``_Planned``, or its result (value, err_est,
    window) where it sums no window: at x = 0, and for a B certified to
    round to 0.  Raises where any other window would hold more than
    ``MAX_WINDOW_TERMS`` terms.

    B's window runs up to the upper Poisson cutoff, beyond which both
    factors decay.  Its lower edge comes from the Chernoff bound: every
    dropped term is at most I_y(p, q) <= 1 and the kept sum is at least its
    summand at the Poisson mode j0, which is at least w_j0 d_j0, so the edge
    drops mass below e^-39.2 of that.  When the central terms decay faster
    than the weights grow, the summand peaks at low j, that product is tiny,
    and the edge stays at zero.  There, and wherever the window would pass
    the cap, an upper bound on B below e^-750 shows that B rounds to 0.

    The complement's terms grow toward 1, so its summand can keep growing
    well past the Poisson cutoff: its window runs from the Poisson lower
    edge to the product peak, where the weight decay finally beats the term
    growth, plus a Poisson-width margin (``_complement_end``)."""
    half = 0.5 * x
    if half == 0.0:
        # one weight 1, one term I_y(p, q) or I_{1-y}(q, p), one increment d_p
        v = _betainc(q, p, 1.0 - y) if complement else _betainc(p, q, y)
        ld0 = _log_beta_pre(p, q, y) - math.log(p)
        shift = ld0 if ld0 < -650.0 else 0.0
        err = _rounding_floor(1, p + q, math.log(v) if v > 0.0 else 0.0)
        return v, err, (0, np.ones(1), np.array([math.exp(ld0 - shift)]), shift)
    if complement:
        j_top = _complement_end(p, q, half, y)
        j_lo = _lower_edge(half, TAIL_LOG)
        j0 = min(max(int(half + 0.5), j_lo), j_top)
        lw0 = _log_poisson(half, j0)
    else:
        j_top = _upper_edge(half)
        j0 = min(int(half + 0.5), j_top)
        lw0 = _log_poisson(half, j0)
        ld_j0 = _log_beta_pre(p + j0, q, y) - math.log(p + j0)
        j_lo = _lower_edge(half, TAIL_LOG - lw0 - ld_j0)
    n = j_top - j_lo + 1
    if not complement and (ld_j0 < -708.0 or n > MAX_WINDOW_TERMS) and _log_b_bound(p, q, half, y) < -750.0:
        # B lies below e^-750, where 0 is its correctly rounded value
        return 0.0, 1e-15, None
    if n > MAX_WINDOW_TERMS:
        raise EvaluationError(f"series window would need {n} terms at x={x}; tolerance unachievable")
    return _Planned(p, q, y, complement, half, j_lo, n, j0, lw0, *_chain_anchor(p, q, y, j_lo, n, complement))


def _increments(r):
    """A planned window's increments d_a = I_y(a, q) - I_y(a+1, q) =
    e^{lpre(a)} / a, a = p + j, scaled by e^-shift: the (P, Q) =
    (a, y (a - 1 + q)) chain from its anchor, so away from it they only
    fall.  a = (a0 - k0) + c, where a0 - k0 is exact, so each a is rounded
    once."""
    a = (r.a0 - r.k0) + np.arange(r.n)
    return _chain(math.exp(r.ld0 - r.shift), r.k0, a, r.y * (a - 1.0 + r.q))


def _central_terms_minimal(r):
    """B's terms I_y(p+j, q) over a planned window, scaled by e^-shift.

    They fall with j, by the increments, so they are the seed one past the
    top of the window plus the reverse running sum of the increments: every
    addition is of positive terms.  Returns (terms, increments)."""
    d = _increments(r)
    return r.seed + np.cumsum(d[::-1])[::-1], d


def _window(r):
    """The 1-D form of a planned window: its Poisson weights, terms and
    increments.  The complement's terms g_j = I_{1-y}(q, p+j) add the
    increments up from the seed g_{j_lo}."""
    wgt = _poisson_weights(r.half, r.j0, r.n, r.j_lo, r.lw0)
    if not r.complement:
        return (wgt, *_central_terms_minimal(r))
    d = _increments(r)
    return wgt, np.cumsum(np.concatenate(([r.seed], d[:-1]))), d


def _unscale(s, shift):
    """A member's value from the sum s of its terms scaled by e^-shift."""
    return s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))


def _finish(r, wgt, terms, d):
    """A member's (value, err_est) from its plan and its window's weights,
    terms and increments, n of each: the sum, unscaled once, and a relative
    err_est of the mass dropped below the window, a bound on the tail above
    it and the rounding floor.  An empty or underflowing sum gives
    (0, 1e-15).

    Past the window's top j_t the weights fall by at most rup = h/(j_t+1) a
    step.  B's terms fall too, so its upper tail is at most a geometric
    series on its last summand, and each term it drops below the window is
    at most 1.  The complement's terms grow, by increments whose ratio is at
    most rho (monotone toward y), and each term it drops below the window is
    at most its seed."""
    s = float((wgt * terms).sum())
    value = _unscale(s, r.shift)
    if value <= 0.0:
        return 0.0, 1e-15
    half, j_lo, j_top = r.half, r.j_lo, r.j_lo + r.n - 1
    rup = half / (j_top + 1.0)
    if r.complement:
        rho = max(r.y * (r.p + r.q + j_top) / (r.p + j_top + 1.0), r.y, 1.0)
        tail = math.inf
        if rup * rho < 1.0:
            tail = wgt[-1] * rup * (terms[-1] / (1.0 - rup) + d[-1] / (1.0 - rup * rho) ** 2)
        if j_lo > 0:
            tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half)) * r.seed
    else:
        tail = wgt[-1] * terms[-1] * rup / (1.0 - rup)
        if j_lo > 0:
            tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half) - r.shift)
    return value, tail / s + _rounding_floor(r.n, r.p + r.q + j_lo + r.k0, r.ld0)


def _member(p, q, x, y, complement):
    """B or the complement by its Poisson mixture: planned (``_row_plan``),
    summed over its window in the 1-D form (``_window``) and finished
    (``_finish``).  Returns (value, relative error estimate, window), the
    window as ``_series_window`` describes it."""
    r = _row_plan(p, q, x, y, complement)
    if not isinstance(r, _Planned):
        return r
    wgt, terms, d = _window(r)
    value, err = _finish(r, wgt, terms, d)
    return value, err, None if value == 0.0 else (r.j_lo, wgt, d, r.shift)


def _member_b(p, q, x, y):
    """B by the Poisson mixture over the decaying terms I_y(p+j, q)."""
    return _member(p, q, x, y, False)


def _member_complement(p, q, x, y):
    """The complement by the Poisson mixture over the growing terms
    I_{1-y}(q, p+j)."""
    return _member(p, q, x, y, True)


def central_term_sequence(sp: ShapeParams, y: float, j_lo: int, j_hi: int) -> np.ndarray:
    """I_y(p+j, q) for j = j_lo..j_hi, each within ~1e-13 of a direct
    continued-fraction evaluation."""
    if not 0 <= j_lo <= j_hi:
        raise DomainError(f"need 0 <= j_lo <= j_hi, got ({j_lo}, {j_hi})")
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"quantile y must lie in [0, 1], got {y}")
    if y == 0.0 or y == 1.0:
        return np.full(j_hi - j_lo + 1, y)
    p, q, n = sp.p, sp.q, j_hi - j_lo + 1
    # a window without Poisson weights: only the increment chain is planned
    r = _Planned(p, q, y, False, math.nan, j_lo, n, j_lo, math.nan, *_chain_anchor(p, q, y, j_lo, n, False))
    out = _central_terms_minimal(r)[0]
    if r.shift != 0.0:
        with np.errstate(divide="ignore"):
            out = np.exp(np.log(out) + r.shift)
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
    return pt.y > sp.transition_quantile(pt.x)


def _series_pair(sp, pt, complement, value, err):
    """The series' pair from its primary member's value and err_est."""
    if math.isnan(value):
        raise EvaluationError(f"series evaluation failed at p={sp.p} q={sp.q} x={pt.x} y={pt.y}")
    return ProbabilityPair.from_primary(value, "bbar" if complement else "b", "series", err)


def _outward(v0, anchor, n, P, Q):
    """The (P, Q) chains of stacked windows, one a row: ``_chain`` with each
    row's v0 at its anchor column, over its first n columns.  The ratios
    are 1 wherever they are not used, so every product is formed in the
    order of ``_chain``, bit for bit; past its n-th column a row holds its
    last value."""
    shape = P.shape
    cols = np.arange(shape[1])
    left = cols < anchor[:, None]
    # r_dn[:, c] takes column c+1 to c, r_up[:, c] takes column c-1 to c
    r_dn = np.ones(shape)
    np.divide(P[:, 1:], Q[:, 1:], out=r_dn[:, :-1], where=left[:, :-1])
    r_up = np.divide(Q, P, out=np.ones(shape), where=(cols > anchor[:, None]) & (cols < n[:, None]))
    rows = np.arange(shape[0])
    r_dn[rows, anchor] = v0
    r_up[rows, anchor] = v0
    np.multiply.accumulate(r_up, axis=1, out=r_up)
    rev = r_dn[:, ::-1]
    np.multiply.accumulate(rev, axis=1, out=rev)
    np.copyto(r_up, r_dn, where=left)
    return r_up


def _window_arrays(rows):
    """The 2-D form of a chunk of planned windows of one member, sorted by
    length: their Poisson weights, terms and increments as 2-D arrays, one
    row per window, as wide as the longest.  The m windows' weights and
    increments are one stack of 2m (P, Q) chains (``_outward``), and every
    element is formed by the float operations of ``_window``, in its order;
    columns past a row's window hold values that are not used."""
    m = len(rows)
    # one row per window, one column per field: P at column 0, the anchor
    # value and the anchor column of its weights and of its increments,
    # then h, y, q, the seed and n
    fields = np.array(
        [
            (r.j_lo, r.a0 - r.k0, math.exp(r.lw0), math.exp(r.ld0 - r.shift), r.j0 - r.j_lo, r.k0,
             r.half, r.y, r.q, r.seed, r.n)
            for r in rows
        ]
    )
    base, v0, anchor = fields[:, :6].T.reshape(3, 2 * m)
    half, y, q, seed = fields[:, 6:10].T[:, :, None]
    n = fields[:, 10].astype(int)
    cols = np.arange(n[-1])
    P = base[:, None] + cols
    Q = np.empty_like(P)
    Q[:m] = half
    np.multiply(y, P[m:] - 1.0 + q, out=Q[m:])
    chains = _outward(v0, anchor.astype(int), np.concatenate((n, n)), P, Q)
    wgt, d = chains[:m], chains[m:]
    if rows[0].complement:
        # g_j = I_{1-y}(q, p+j): the seed plus the increments below j
        terms = np.empty(d.shape)
        terms[:, :1] = seed
        terms[:, 1:] = d[:, :-1]
        np.cumsum(terms, axis=1, out=terms)
    else:
        # I_y(p+j, q): the seed past the top plus the increments from j up
        np.copyto(d, 0.0, where=cols >= n[:, None])
        terms = np.cumsum(d[:, ::-1], axis=1)[:, ::-1]
        terms += seed
    return wgt, terms, d


def _chunks(entries):
    """Consecutive runs of ``evaluate_many``'s entries, whose planned rows
    come last and are sorted by window length, of at most ``MANY_CELLS``
    padded cells each."""
    start = 0
    for end in range(1, len(entries) + 1):
        if end == len(entries) or (end + 1 - start) * entries[end][-1].n > MANY_CELLS:
            yield entries[start:end]
            start = end


def _many_plan(sp, pt):
    """A point's planned row for ``evaluate_many``'s 2-D pass, or its pair
    where it has none: the quantile boundaries, x = 0, a B certified to
    round to 0, and a window longer than ``MANY_CELLS``, which the 1-D form
    sums."""
    if not 0.0 < pt.y < 1.0:
        return eval_series(sp, pt)
    complement = _complement_is_primary(sp, pt)
    row = _row_plan(sp.p, sp.q, pt.x, pt.y, complement)
    if not isinstance(row, _Planned):
        return _series_pair(sp, pt, complement, *row[:2])
    if row.n > MANY_CELLS:
        return _series_pair(sp, pt, complement, *_finish(row, *_window(row)))
    return row


def evaluate_many(points, tol: float = 1e-12) -> list:
    """``evaluate`` over a sequence of (ShapeParams, EvalPoint) pairs.

    Returns a list in input order.  Each entry is the ``ProbabilityPair``
    that ``evaluate`` returns for its point, bit for bit, or the
    ``EvaluationError`` that it raises, so one failing point does not void
    the rest.  ``tol`` is validated as ``evaluate`` does.

    Every point is planned by the members' planner (``_row_plan``).  The
    windows of each member are then sorted by length, cut into chunks of at
    most ``MANY_CELLS`` padded cells, and built in one 2-D pass a chunk
    (``_window_arrays``), whose weights and increments are one stack of
    (P, Q) chains; each row is summed over its unpadded slice and finished
    by the members' ``_finish``.  The stragglers are the quantile
    boundaries, x = 0 and windows longer than ``MANY_CELLS``
    (``_many_plan``)."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    out: list = []
    planned: dict[bool, list] = {False: [], True: []}  # B rows, complement rows
    for sp, pt in points:
        try:
            row = _many_plan(sp, pt)
        except EvaluationError as exc:
            row = exc
        if isinstance(row, _Planned):
            planned[row.complement].append((len(out), sp, pt, row))
            row = None
        out.append(row)
    for entries in planned.values():
        entries.sort(key=lambda e: e[-1].n)
        for chunk in _chunks(entries):
            wgt, terms, d = _window_arrays([e[-1] for e in chunk])
            for i, (slot, sp, pt, r) in enumerate(chunk):
                try:
                    value, err = _finish(r, wgt[i, : r.n], terms[i, : r.n], d[i, : r.n])
                    out[slot] = _series_pair(sp, pt, r.complement, value, err)
                except EvaluationError as exc:
                    out[slot] = exc
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

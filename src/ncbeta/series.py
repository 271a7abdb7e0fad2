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
returns 0, summing nothing, when B rounds to 0 (``_log_b_bound``, in closed
form: two bounds on an incomplete beta); any other member past that cap
raises.  A member's relative ``err_est`` adds the mass dropped below
the window, a bound on the tail above it, and a rounding floor that grows
with p + q and with the log of the increment the chain is anchored on.

A member (``_member``, for B or the complement) runs in three steps, each
written once.  One planner (``_row_plan``) sets the window's edges, the
Poisson mode and its log weight, makes the certified-zero and window-cap
checks, anchors the increment chain (``_anchor``), and runs the continued
fraction of the seed at the window's far end and sets the chain's scale
(``_far_fraction``), as a ``_Planned`` row; x = 0 takes no branch of its
own.  The sum builds the row's weights and increments, forms the seed
from the chain's far end (``_end_seed``: the seed's prefactor e^lpre / a
is an increment, the chain extended by one step, so the seed needs no
prefactor of its own; where the fraction flips, the planned seed), then
the terms (``_terms``), and sums their products; the summed window is one
record, a ``_Pass``.  One finish
(``_finish``) unscales the sum and forms ``err_est`` from the tails and
the floor.  The seed, the terms and the finish are each written once, for
one window or many rows, and serve three forms of the sum: the 1-D one
(``_window``); ``evaluate_many``'s 2-D one (``_window_arrays``), which
builds the windows of many points at once in padded 2-D arrays, one row
per window, the weights and the increments each one stacked pass
(``_outward``), with every element formed by the float operations of the
1-D form in its order; and the inversion's re-sum (``_resum``), which
moves a pass to a nearby x or y by an exact factor on the one chain that
depends on the unknown.

``evaluate_many`` and ``ncbeta batch --op eval`` run the whole member on
columns, one array entry a point, through one core, ``_evaluate_columns``,
which takes float columns of points and returns columns of b, bbar and
err_est.  ``_column_plan`` makes each field of ``_row_plan``'s plans as one
array, the edges by the same helpers (``_upper_edge``, ``_lower_edge``,
given numpy's sqrt, floor and ceil) and the far-end fractions as one
masked Lentz loop (``kernels._betacf_columns``); its exp, log, log1p,
lgamma and powers map ``math`` over the entries (``kernels._each``), since
numpy's transcendental ufuncs round otherwise.  Each 2-D row is summed
over its own columns as numpy sums one window (``_window_sums``), and
``_finish_columns`` is ``_finish`` over the rows.  So every result is
bitwise the member's; the only points summed one at a time are those
whose window is longer than ``MANY_CELLS``.

The 1-D window stays beside the columnar form because it is far faster
for one point: ``evaluate_many`` of a single point, bitwise ``evaluate``'s,
took 706 us against ``evaluate``'s 71 us (medians of 8 interleaved passes
over the first 1000 points of eval-mixed seed 1, in-process, on a 2-core
Xeon, interpreted), since the columnar form pays its fixed numpy calls and
its continued-fraction loop once a call.

This module also houses the notation bridges used as independent
cross-checks: the type-II q-function double series and the noncentral F
mapping.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError
from .kernels import (
    _betacf,
    _betacf_columns,
    _betainc,
    _each,
    _log_beta_pre,
    _log_beta_pre_columns,
    _stirling_delta,
)
from .params import EvalPoint, ProbabilityPair, ShapeParams, _primary_columns

# the most terms a member sums, j_hi - j_lo + 1 (B) or j_end - j_lo + 1
# (complement); the window is O(sqrt(x)) wide, so x reaches order 4e9
MAX_WINDOW_TERMS = 1_000_000
# the most padded cells (rows times the longest window) one 2-D pass of
# evaluate_many builds; a longer window is summed in the 1-D form
MANY_CELLS = 1 << 13
TAIL_LOG = 39.2  # ln(1e17): a dropped Poisson tail stays below 1e-17 of the kept sum
_LN2 = math.log(2.0)
# row indices and a True, False pattern for the 2-D passes, whose chunks
# hold at most MANY_CELLS rows; read-only, since every call shares them
_ROWS = np.arange(MANY_CELLS)
_TRUE_FALSE = np.tile((True, False), MANY_CELLS)
_ROWS.flags.writeable = _TRUE_FALSE.flags.writeable = False


class _Ops(NamedTuple):
    """The operations the window edges take: math's for one point, numpy's
    for columns, which round alike (sqrt is correctly rounded, the rest
    exact)."""

    sqrt: object
    floor: object
    ceil: object
    maximum: object


_FLOAT = _Ops(math.sqrt, math.floor, math.ceil, max)
_COLUMN = _Ops(np.sqrt, np.floor, np.ceil, np.maximum)


def _upper_edge(half, ops=_FLOAT):
    """Upper summation cutoff: every Poisson weight past it lies below 1e-18
    of the peak (half-width 10*sqrt(x/2) + 30 above the mean)."""
    return ops.ceil(half + 10.0 * ops.sqrt(half) + 30.0)


def _lower_edge(half, log_mass, ops=_FLOAT):
    """Largest j_lo whose Chernoff bound P(J < j_lo) <= exp(-(h - j_lo)^2 / 2h),
    h = x/2, stays below exp(-log_mass)."""
    return ops.maximum(ops.floor(half - ops.sqrt(2.0 * half * log_mass)), 0)


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
    (P, Q) = (j, h), and the increments with (P, Q) = (a, y (a - 1 + q)).

    Q is an array like P, or a float where it is constant (the weights'
    h).  The chain is built in one buffer, the 1-D twin of ``_outward``:
    the ratios are divided into it, left of k0 the one that takes column
    c+1 to c at column c and right of it the one that takes c-1 to c, v0
    sits at k0, and two in-place running products run outward from k0,
    leftward over the reversed view.  Each product is formed from v0 in the
    order of cumprod over [v0, ratios...], bit for bit."""
    out = np.empty(P.size)
    flat = not isinstance(Q, np.ndarray)
    np.divide(P[1 : k0 + 1], Q if flat else Q[1 : k0 + 1], out=out[:k0])
    out[k0] = v0
    np.divide(Q if flat else Q[k0 + 1 :], P[k0 + 1 :], out=out[k0 + 1 :])
    left = out[k0::-1]
    np.multiply.accumulate(left, out=left)
    right = out[k0:]
    np.multiply.accumulate(right, out=right)
    return out


def _poisson_weights(half, j0, n, j_lo, lw0):
    """Poisson weights for j = j_lo..j_lo+n-1: the (P, Q) = (j, h) chain
    from j0, whose log weight lw0 the caller passes in, with the weight
    ratios j/h downward and h/j upward."""
    return _chain(math.exp(lw0), j0 - j_lo, np.arange(j_lo, j_lo + n, dtype=float), half)


def _far_end(p, q, y, j_lo, n, complement):
    """(a, b, z) of a window's seed I_z(a, b), the term at its far end from
    the sum: I_y(p+j_hi+1, q) for B, I_{1-y}(q, p+j_lo) for the complement."""
    return (q, p + j_lo, 1.0 - y) if complement else (p + (j_lo + n - 1) + 1.0, q, y)


def _far_fraction(p, q, y, j_lo, n, complement, ld0):
    """The continued fraction of a window's far-end seed (``_far_end``),
    run once per plan, and the chain's scale: (cf, seed, shift).

    Where I_z(a, b) = e^lpre / a * cf (z below the fraction's switch
    (a + 1)/(a + b + 2)), its prefactor e^lpre / a is an increment, so the
    sum forms the seed from the end of the increment chain (``_end_seed``)
    and seed is nan; the chain and its seed are scaled by e^-ld0 where the
    anchor increment e^ld0 nears the underflow threshold (below e^-650).
    Where the fraction flips to I_{1-z}(b, a), cf is nan, the seed is
    I_z(a, b) itself and the chain is not scaled: past the switch the seed
    is above 0.083 for b >= 0.5 (its infimum, as a grows), so an increment
    below e^-650 adds nothing to it that rounding keeps."""
    a, b, z = _far_end(p, q, y, j_lo, n, complement)
    if z < (a + 1.0) / (a + b + 2.0):
        return _betacf(a, b, z), math.nan, ld0 if ld0 < -650.0 else 0.0
    return math.nan, _betainc(a, b, z), 0.0


def _anchor(p, q, y, j_lo, n):
    """The anchor of the increment chain of a window of n terms from j_lo.

    The increments' ratio y (a - 1 + q)/a falls through one at jpk, so they
    are unimodal; the chain is anchored at their largest term, at column k0
    (jpk clipped into the window), a0 = p + j_lo + k0, and the log ld0 of
    d_{a0} comes from the prefactor.  Returns (k0, a0, ld0)."""
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = int(min(max(math.floor(jpk) - j_lo, 0.0), n - 1.0))
    a0 = p + (j_lo + k0)
    return k0, a0, _log_beta_pre(a0, q, y) - math.log(a0)


def _end_seed(end, base, n, y, q, cf, complement):
    """A window's far-end seed from the end of its increment chain, scaled
    as the chain: the increment at that end (column 0 for the complement,
    n - 1 for B), times the factor that takes it to the seed's prefactor,
    times the planned fraction cf.  B's seed I_y(a_T, q), a_T = base + n =
    p + j_top + 1, has the prefactor d_{a_T} = d_{a_T - 1} y (a_T - 1 + q)/a_T,
    the chain extended by one step; the complement's I_{1-y}(q, a_L),
    a_L = base = p + j_lo, has e^lpre / q = d_{a_L} a_L / q.  base is the
    chain's own a0 - k0.  The arguments are floats for one window or arrays
    with one entry a row; a nan cf (the fraction flips) gives a nan seed,
    for which the planned one stands."""
    if complement:
        return end * (base / q) * cf
    a = base + n
    return end * (y * (a - 1.0 + q) / a) * cf


def _log_term_bound(a, q, y):
    """An upper bound on log I_y(a, q), from its hypergeometric form
    I_y(a, q) = e^lpre / a * sum_k (a+q)_k / (a+1)_k y^k (DLMF 8.17.8), whose
    ratios (a+q+i)/(a+1+i) are at most c/y with c = y max(1, (a+q)/(a+1))."""
    c = y * max(1.0, (a + q) / (a + 1.0))
    if c >= 1.0:
        return 0.0
    return min(_log_beta_pre(a, q, y) - math.log(a) - math.log1p(-c), 0.0)


def _log_b_bound(p, q, half, y):
    """An upper bound on log B over the whole mixture, taken where it shows
    soonest that B lies below e^-750.  The terms I_y(p+j, q) fall with j,
    so for every m <= h
        B <= P(J < m) I_y(p, q) + I_y(p+m, q) <= 2 e^max(f(m), g(m)),
        f(m) = lt0 - (h-m)^2 / 2h,  g(m) = ``_log_term_bound``(p+m, q, y),
    with lt0 = g(0).  f rises with m and g falls, so some m puts both
    below -750 - ln 2 exactly when m_f does, the largest m in [0, floor(h)]
    with f(m) below that level: m_f is the root of a quadratic, and the
    bound is taken there.  Where there is no m_f, f(0) is above the level
    and the bound is 2 e^lt0; so it is at h = 0, where B is I_y(p, q)."""
    lt0 = _log_term_bound(p, q, y)
    if half == 0.0:
        return lt0 + _LN2
    top = int(half)
    # f(m) + ln 2 < -750 where (h - m)^2 > 2 h gap
    gap = lt0 + _LN2 + 750.0
    m = top if gap <= 0.0 else max(min(math.ceil(half - math.sqrt(2.0 * half * gap)) - 1, top), -1)
    if half < 2.0**52:
        # h - m is exact here, so m steps to the last integer whose f passes
        # the test as it is rounded; the rounded root is at most a step off
        while m < top and lt0 - (half - (m + 1)) ** 2 / (2.0 * half) + _LN2 < -750.0:
            m += 1
        while m >= 0 and not lt0 - (half - m) ** 2 / (2.0 * half) + _LN2 < -750.0:
            m -= 1
    if m < 0:
        return lt0 + _LN2
    return min(max(lt0 - (half - m) ** 2 / (2.0 * half), _log_term_bound(p + m, q, y)), 0.0) + _LN2


def _log_b_bound_columns(p, q, half, y):
    """``_log_b_bound`` over columns, entry by entry bitwise: its two
    stepping loops run over the rows until no row steps."""
    lt0 = _log_term_bound_columns(p, q, y)
    top = np.floor(half)
    gap = lt0 + _LN2 + 750.0
    with np.errstate(invalid="ignore"):
        root = np.ceil(half - np.sqrt(2.0 * half * gap)) - 1.0
    m = np.where(gap <= 0.0, top, np.maximum(np.minimum(root, top), -1.0))
    steps = (half > 0.0) & (half < 2.0**52)

    def below(k, rows):
        # f(k) + ln 2 < -750 at the given rows
        h = half[rows]
        return lt0[rows] - _squares(h - k[rows]) / (2.0 * h) + _LN2 < -750.0

    while True:
        rows = np.flatnonzero(steps & (m < top))
        rows = rows[below(m + 1.0, rows)]
        if not rows.size:
            break
        m[rows] += 1.0
    while True:
        rows = np.flatnonzero(steps & (m >= 0.0))
        rows = rows[~below(m, rows)]
        if not rows.size:
            break
        m[rows] -= 1.0
    out = lt0 + _LN2
    inner = (half > 0.0) & (m >= 0.0)
    if inner.any():
        hi, mi = half[inner], m[inner]
        f = lt0[inner] - _squares(hi - mi) / (2.0 * hi)
        g = _log_term_bound_columns(p[inner] + mi, q[inner], y[inner])
        out[inner] = np.minimum(np.maximum(f, g), 0.0) + _LN2
    return out


def _log_term_bound_columns(a, q, y):
    """``_log_term_bound`` over columns, entry by entry bitwise."""
    c = y * np.maximum(1.0, (a + q) / (a + 1.0))
    out = np.zeros(a.shape)
    below = c < 1.0
    if below.any():
        a1, c1 = a[below], c[below]
        pre = _log_beta_pre_columns(a1, q[below], y[below])
        out[below] = np.minimum(pre - _each(math.log, a1) - _each(math.log1p, -c1), 0.0)
    return out


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
    return max(_upper_edge(half), math.ceil(jstar + 10.0 * math.sqrt(max(jstar, 1.0)) + 50.0))


class _Planned(NamedTuple):
    """A member's plan, which every form of the sum and the finish read."""

    p: float
    q: float
    y: float
    complement: bool  # whether the member is the complement
    half: float  # h = x/2
    j_lo: int  # the window is j = j_lo..j_lo+n-1
    n: int
    j0: int  # the Poisson mode, where the weights are anchored, and its log weight
    lw0: float
    k0: int  # the increments' anchor column, a0 and ld0 (``_anchor``)
    a0: float
    ld0: float
    cf: float  # the far-end seed's fraction, or nan where seed holds that seed
    seed: float  # scaled by e^-shift, as the increments are (``_far_fraction``)
    shift: float


class _Pass(NamedTuple):
    """A member's summed window: its plan, its Poisson weights, terms and
    increments (the last two scaled by e^-shift), and its err_est."""

    r: _Planned
    wgt: np.ndarray
    terms: np.ndarray
    d: np.ndarray
    err: float


def _row_plan(p, q, x, y, complement):
    """A member's plan, as ``_Planned``, or None for a B certified to round
    to 0, which sums no window.  Raises where any other window would hold
    more than ``MAX_WINDOW_TERMS`` terms.

    B's window runs up to the upper Poisson cutoff, beyond which both
    factors decay.  Its lower edge comes from the Chernoff bound: every
    dropped term is at most I_y(p, q) <= 1 and the kept sum is at least its
    summand at the Poisson mode j0, which is at least w_j0 d_j0, so the edge
    drops mass below e^-39.2 of that.  When the central terms decay faster
    than the weights grow, the summand peaks at low j, that product is tiny,
    and the edge stays at zero.  There, and wherever the window would pass
    the cap, an upper bound on B below e^-750 (``_log_b_bound``) shows that
    B rounds to 0.

    The complement's terms grow toward 1, so its summand can keep growing
    well past the Poisson cutoff: its window runs from the Poisson lower
    edge to the product peak, where the weight decay finally beats the term
    growth, plus a Poisson-width margin (``_complement_end``).

    x = 0 takes no branch of its own: there the window starts at j = 0 with
    weight 1, every weight past it is exactly 0, and the sum is the first
    term, the central incomplete beta.

    Either window's increment chain is anchored at its peak (``_anchor``).
    The far-end seed's continued fraction is run here, and the sum
    multiplies it by the chain's far end, so the seed takes no prefactor of
    its own (``_far_fraction``, ``_end_seed``)."""
    half = 0.5 * x
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
        return None
    if n > MAX_WINDOW_TERMS:
        raise EvaluationError(f"series window would need {n} terms at x={x}; tolerance unachievable")
    k0, a0, ld0 = _anchor(p, q, y, j_lo, n)
    return _Planned(p, q, y, complement, half, j_lo, n, j0, lw0, k0, a0, ld0,
                    *_far_fraction(p, q, y, j_lo, n, complement, ld0))


def _increments(r):
    """A planned window's increments d_a = I_y(a, q) - I_y(a+1, q) =
    e^{lpre(a)} / a, a = p + j, scaled by e^-shift: the (P, Q) =
    (a, y (a - 1 + q)) chain from its anchor, so away from it they only
    fall.  a = (a0 - k0) + c, where a0 - k0 is exact, so each a is rounded
    once; Q is formed in place."""
    a = (r.a0 - r.k0) + np.arange(r.n)
    Q = a - 1.0
    Q += r.q
    Q *= r.y
    return _chain(math.exp(r.ld0 - r.shift), r.k0, a, Q)


def _terms(seed, d, complement):
    """Terms from their far-end seed and increments d, scaled alike, along
    the last axis: B's falling I_y(p+j, q) are the seed one past the top
    plus the reverse running sum of d, the complement's rising
    g_j = I_{1-y}(q, p+j) the seed g_{j_lo} plus the forward one; every
    addition is of positive terms, and each sum is formed in place.  d is
    one window with a float seed, or padded rows with a column of seeds
    (B's padding must be 0)."""
    if complement:
        t = np.empty(d.shape)
        t[..., :1] = seed
        t[..., 1:] = d[..., :-1]
        return np.add.accumulate(t, axis=-1, out=t)
    t = np.add.accumulate(d[..., ::-1], axis=-1)
    t += seed
    return t[..., ::-1]


def _planned_terms(r, d):
    """A planned window's terms (``_terms``) from its increments d, seeded
    from the chain's end (``_end_seed``), or by the planned seed where the
    fraction flips."""
    seed = r.seed
    if not math.isnan(r.cf):
        seed = _end_seed(d[0] if r.complement else d[-1], r.a0 - r.k0, r.n, r.y, r.q, r.cf, r.complement)
    return _terms(seed, d, r.complement)


def _central_terms_minimal(r):
    """A planned window's terms, B's I_y(p+j, q) or the complement's
    I_{1-y}(q, p+j), and its increments d."""
    d = _increments(r)
    return _planned_terms(r, d), d


def _window(r):
    """The 1-D form of a planned window: its Poisson weights, terms and
    increments."""
    return (_poisson_weights(r.half, r.j0, r.n, r.j_lo, r.lw0), *_central_terms_minimal(r))


def _unscale(s, shift):
    """A member's value from the sum s of its terms scaled by e^-shift."""
    return s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))


def _finish(r, wgt, terms, d):
    """A member's (value, err_est) from its plan and its window's weights,
    terms and increments, n of each: the sum s, unscaled once, and a
    relative err_est of the mass dropped below the window, a bound on the
    tail above it, the rounding floor, and n 2^-1074 / s for the products
    w_j t_j formed below the normal range, each of which loses up to
    2^-1075.  An empty or underflowing sum gives (0, 1e-15).

    Past the window's top j_t the weights fall by at most rup = h/(j_t+1) a
    step.  B's terms fall too, so its upper tail is at most a geometric
    series on its last summand, and each term it drops below the window is
    at most 1.  The complement's terms grow, by increments whose ratio is at
    most rho (monotone toward y), and each term it drops below the window is
    at most its seed, the first term."""
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
            tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half)) * terms[0]
    else:
        tail = wgt[-1] * terms[-1] * rup / (1.0 - rup)
        if j_lo > 0:
            tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half) - r.shift)
    err = tail / s + _rounding_floor(r.n, r.p + r.q + j_lo + r.k0, r.ld0)
    if s < 2.0**-950:
        # from 2^-950 up the term is below half an ulp of err (n < 2^20,
        # err >= 3e-15) and leaves it unchanged; its subnormal operations are slow
        err += r.n * 2.0**-1074 / s
    return value, err


def _resum(sp, pt, unknown, held):
    """The planned pass ``held`` re-summed at pt, where only the unknown
    ("x" or "y") has moved, as (pair, pass); or None where a new window
    must be planned.

    Only the chain that depends on the unknown moves, by an exact factor
    whose log is linear in the index, c + i L:

    - unknown x: the Poisson weights, w_j(h')/w_j(h) = e^{h-h'} (h'/h)^j,
      h = x/2; the terms and increments stay;
    - unknown y: the increments, d_a(y')/d_a(y) = (y'/y)^a ((1-y')/(1-y))^q,
      a = p + j; the weights stay, and the terms are rebuilt (``_terms``)
      from one new seed at the window's far end, formed from the moved
      chain's end and a new fraction (``_far_fraction``, ``_end_seed``).

    The sum is finished by ``_finish`` at the new point, so its tails and
    floor are those of the window actually summed, and err_est adds the
    rounding of the factors, 5u (|c| + i_top |L|) + 2u with u = 1.12e-16,
    i_top the window's last index.

    A new window is planned instead where x moves from 0 (the factor in x
    divides by h; y moves a pass at x = 0 as any other), where the primary
    member switches (the iterate crosses the transition point), where the
    window no longer holds h' (below its lower edge the Chernoff bound on
    the dropped mass fails, past its top the geometric bound on the tail),
    where y's chain is scaled at the planned point or its anchor increment
    lies below e^-650 at the new one, where a factor leaves the float range, where a factor above 1
    meets a moving chain that reaches below the normal range (the chain is
    unimodal, so an end shows it; its absolute rounding there would grow
    by the factor), where the value is 0 or subnormal (its products
    w_j t_j lose precision), or where the re-summed err_est exceeds twice
    the planned one plus 1e-16."""
    r, wgt, terms, d, err0 = held
    if _complement_is_primary(sp, pt) != r.complement:
        return None
    if unknown == "x":
        half = 0.5 * pt.x
        if r.half == 0.0 or not r.j_lo <= half < r.j_lo + r.n:
            return None
        # w_j(h')/w_j(h) = e^{c + j L}: c = h - h', L = ln(h'/h), i = j
        lk = math.log1p((half - r.half) / r.half)
        c, base, moving = r.half - half, r.j_lo, wgt
        r = r._replace(half=half)
    else:
        y = pt.y
        # d_a(y')/d_a(y) = e^{c + a L}: c = q ln((1-y')/(1-y)), L = ln(y'/y), i = a
        lk = math.log1p((y - r.y) / r.y)
        c, base, moving = r.q * math.log1p((r.y - y) / (1.0 - r.y)), r.a0 - r.k0, d
        ld0 = r.ld0 + r.a0 * lk + c
        if r.shift != 0.0 or ld0 < -650.0:
            return None
    top = base + (r.n - 1)
    e_lo = c + base * lk
    e_max = max(e_lo, c + top * lk)
    if e_max > 700.0 or (e_max > 0.0 and min(moving[0], moving[-1]) < 2.0**-1022):
        return None
    scale = np.exp(e_lo + lk * np.arange(r.n))
    if unknown == "x":
        wgt = wgt * scale
    else:
        d = d * scale
        # the chain is unscaled here, so the shift stays 0
        cf, seed, _ = _far_fraction(r.p, r.q, y, r.j_lo, r.n, r.complement, ld0)
        r = r._replace(y=y, ld0=ld0, cf=cf, seed=seed)
        terms = _planned_terms(r, d)
    value, err = _finish(r, wgt, terms, d)
    err += 1.12e-16 * (5.0 * (abs(c) + top * abs(lk)) + 2.0)
    if value < 2.0**-1022 or err > 2.0 * err0 + 1e-16:
        return None
    return _series_pair(sp, pt, r.complement, value, err), _Pass(r, wgt, terms, d, err)


def _member(p, q, x, y, complement, keep):
    """B or the complement by its Poisson mixture: planned (``_row_plan``),
    summed over its window in the 1-D form (``_window``) and finished
    (``_finish``).  Returns (value, relative error estimate, pass), the
    pass as ``_series_window`` describes it, or None unless ``keep``."""
    r = _row_plan(p, q, x, y, complement)
    if r is None:
        return 0.0, 1e-15, None
    wgt, terms, d = _window(r)
    value, err = _finish(r, wgt, terms, d)
    return value, err, _Pass(r, wgt, terms, d, err) if keep and value != 0.0 else None


def _member_b(p, q, x, y, keep=True):
    """B by the Poisson mixture over the decaying terms I_y(p+j, q)."""
    return _member(p, q, x, y, False, keep)


def _member_complement(p, q, x, y, keep=True):
    """The complement by the Poisson mixture over the growing terms
    I_{1-y}(q, p+j)."""
    return _member(p, q, x, y, True, keep)


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
    k0, a0, ld0 = _anchor(p, q, y, j_lo, n)
    r = _Planned(p, q, y, False, math.nan, j_lo, n, j_lo, math.nan, k0, a0, ld0,
                 *_far_fraction(p, q, y, j_lo, n, False, ld0))
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
    return _series_window(sp, pt, False)[0]


def _series_window(sp, pt, keep=True):
    """``eval_series``' pair, with the pass (``_Pass``) of its primary
    member: the Poisson weights w_j and the increments
    d_{p+j} = I_y(p+j, q) - I_y(p+j+1, q) for j = j_lo, j_lo + 1, ...; None
    where no window was summed (the quantile boundaries, a B certified to
    round to 0, an empty sum), and unless ``keep`` (``eval_series`` keeps
    none)."""
    if pt.y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "boundary", 0.0), None
    if pt.y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "boundary", 0.0), None
    complement = _complement_is_primary(sp, pt)
    member = _member_complement if complement else _member_b
    value, err, held = member(sp.p, sp.q, pt.x, pt.y, keep)
    return _series_pair(sp, pt, complement, value, err), held


def _complement_is_primary(sp, pt):
    """Whether the series sums the complement: y above the transition
    quantile y0 = (x+2p)/(x+2p+2q)."""
    return pt.y > sp.transition_quantile(pt.x)


def _series_pair(sp, pt, complement, value, err):
    """The series' pair from its primary member's value and err_est."""
    if math.isnan(value):
        raise _series_failure(sp.p, sp.q, pt.x, pt.y)
    return ProbabilityPair.from_primary(value, "bbar" if complement else "b", "series", err)


def _series_failure(p, q, x, y):
    """The error of a series sum that came out nan at (p, q, x, y)."""
    return EvaluationError(f"series evaluation failed at p={p} q={q} x={x} y={y}")


def _log_poisson_columns(half, j):
    """``_log_poisson`` over columns, j holding integers: the rows below
    j = 20 one at a time by the scalar form, the rest in its Stirling form,
    entry by entry bitwise."""
    out = np.empty(half.shape)
    low = j < 20.0
    if low.any():
        out[low] = [_log_poisson(h, k) for h, k in zip(half[low].tolist(), j[low].tolist())]
    high = ~low
    if high.any():
        h, k = half[high], j[high]
        out[high] = (
            k * _each(math.log1p, (h - k) / k)
            + (k - h)
            - 0.5 * _each(math.log, 6.283185307179586476925287 * k)
            - _stirling_delta(k)
        )
    return out


def _column_plan(p, q, x, y, complement):
    """``_row_plan`` over columns of points with 0 < y < 1, one entry a
    point, each entry planned as ``_row_plan`` plans it, field for field.
    complement is a boolean column: each point's member.

    Returns (r, kept, zero, wide): r a ``_Planned`` whose fields are columns
    over the rows kept (complement stays a column), and kept, zero and wide
    index arrays into the input.  zero holds the B rows certified to round
    to 0 (``_log_b_bound_columns``, on the rows the certificate checks),
    wide the rows whose window is longer than ``MANY_CELLS``, past the cap
    included, which the 1-D form sums or rejects.  The far-end fractions of all kept
    rows run as one masked Lentz loop (``_betacf_columns``); the rows past
    the fraction's switch take their seed from ``_betainc`` one at a
    time."""
    b_rows = ~complement
    half = 0.5 * x
    j_top = np.empty(x.shape)
    j_lo = np.empty(x.shape)
    hc, yc, pc = half[complement], y[complement], p[complement]
    # the complement's end (``_complement_end``)
    hy = hc * yc
    b = pc + 1.0 - hy
    c = hy * (pc + q[complement])
    disc = np.sqrt(b * b + 4.0 * c)
    jstar = np.where(b > 0.0, 2.0 * c / (b + disc), 0.5 * (disc - b))
    j_top[complement] = np.maximum(
        _upper_edge(hc, _COLUMN), np.ceil(jstar + 10.0 * np.sqrt(np.maximum(jstar, 1.0)) + 50.0)
    )
    j_lo[complement] = _lower_edge(hc, TAIL_LOG, _COLUMN)
    j_top[b_rows] = _upper_edge(half[b_rows], _COLUMN)
    j0 = np.minimum(np.floor(half + 0.5), j_top)
    j0[complement] = np.minimum(np.maximum(j0[complement], j_lo[complement]), j_top[complement])
    lw0 = _log_poisson_columns(half, j0)
    hb, pb, qb, yb, aj = half[b_rows], p[b_rows], q[b_rows], y[b_rows], p[b_rows] + j0[b_rows]
    ld_j0 = _log_beta_pre_columns(aj, qb, yb) - _each(math.log, aj)
    j_lo[b_rows] = _lower_edge(hb, TAIL_LOG - lw0[b_rows] - ld_j0, _COLUMN)
    n = j_top - j_lo + 1.0
    zero = np.zeros(x.shape, bool)
    check = (ld_j0 < -708.0) | (n[b_rows] > MAX_WINDOW_TERMS)
    if check.any():
        # B lies below e^-750, where 0 is its correctly rounded value
        bound = _log_b_bound_columns(pb[check], qb[check], hb[check], yb[check])
        zero[np.flatnonzero(b_rows)[check]] = bound < -750.0
    wide = ~zero & (n > MANY_CELLS)
    kept = np.flatnonzero(~(zero | wide))
    p, q, y, half, j_lo, n, j0, lw0, complement = (
        v[kept] for v in (p, q, y, half, j_lo, n, j0, lw0, complement)
    )
    # the increments' anchor (``_anchor``)
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = np.minimum(np.maximum(np.floor(jpk) - j_lo, 0.0), n - 1.0)
    a0 = p + (j_lo + k0)
    ld0 = _log_beta_pre_columns(a0, q, y) - _each(math.log, a0)
    # the far-end seed's fraction and the chain's scale (``_far_end``, ``_far_fraction``)
    a = np.where(complement, q, p + (j_lo + n - 1.0) + 1.0)
    b = np.where(complement, p + j_lo, q)
    z = np.where(complement, 1.0 - y, y)
    cf = np.full(p.shape, math.nan)
    seed = np.full(p.shape, math.nan)
    run = z < (a + 1.0) / (a + b + 2.0)
    cf[run] = _betacf_columns(a[run], b[run], z[run])
    flip = ~run
    if flip.any():
        seed[flip] = [_betainc(*v) for v in zip(a[flip].tolist(), b[flip].tolist(), z[flip].tolist())]
    shift = np.where(run & (ld0 < -650.0), ld0, 0.0)
    j_lo, n, j0, k0 = (v.astype(np.int64) for v in (j_lo, n, j0, k0))
    r = _Planned(p, q, y, complement, half, j_lo, n, j0, lw0, k0, a0, ld0, cf, seed, shift)
    return r, kept, np.flatnonzero(zero), np.flatnonzero(wide)


def _outward(v0, anchor, n, P, Q):
    """The (P, Q) chains of stacked windows, one a row: ``_chain`` with each
    row's v0 at its anchor column, over its first n columns, and 0 past
    them; the arrays are a column wider than the longest window.  Q is an
    array like P, or a column where it is constant along a row (the
    weights' h).

    The rightward products run over the columns from the first anchor on,
    by the ratios that take column c-1 to c, which are 1 left of each row's
    anchor; the leftward ones over the columns up to the last anchor, by the
    ratios that take c+1 to c, which are 1 right of it.  So every product
    is formed in the order of ``_chain``, bit for bit, and the ratio 0 at
    column n ends each row's chain in zeros."""
    m, width = P.shape
    rows = _ROWS[:m]
    spots = anchor.tolist()
    lo, hi = min(spots), max(spots) + 1
    flat = Q.shape[1] == 1
    # the columns lo..hi-1 that lie left of each row's anchor: each row's
    # anchor - lo Trues, then Falses
    counts = np.empty(2 * m, dtype=np.int64)
    counts[0::2] = anchor - lo
    counts[1::2] = hi - anchor
    left = np.repeat(_TRUE_FALSE[: 2 * m], counts).reshape(m, hi - lo)
    out = np.empty((m, width))
    right = out[:, lo:]
    np.divide(Q if flat else Q[:, lo:], P[:, lo:], out=right)
    np.copyto(right[:, : hi - lo], 1.0, where=left)
    out[rows, anchor] = v0
    out[rows, n] = 0.0
    np.multiply.accumulate(right, axis=1, out=right)
    if hi > 1:
        dn = np.empty((m, hi))
        np.divide(P[:, 1:hi], Q if flat else Q[:, 1:hi], out=dn[:, :-1])
        np.copyto(dn[:, lo:], 1.0, where=~left)
        dn[rows, anchor] = v0
        rev = dn[:, ::-1]
        np.multiply.accumulate(rev, axis=1, out=rev)
        out[:, :lo] = dn[:, :lo]
        np.copyto(out[:, lo:hi], dn[:, lo:], where=left)
    return out


def _window_arrays(r):
    """The 2-D form of a chunk of planned windows of one member, given as
    columns (``_Planned``) sorted by length: their Poisson weights, terms
    and increments as 2-D arrays, one row per window, as wide as the
    longest.  The weights and the increments are each one stack of (P, Q)
    chains (``_outward``), and every element is formed by the float
    operations of ``_window``, in its order; past a row's window the
    weights and increments are 0, up to one column past the longest."""
    cols = np.arange(r.n[-1] + 1, dtype=float)
    base = r.a0 - r.k0
    a = base[:, None] + cols
    Q = a - 1.0
    Q += r.q[:, None]
    Q *= r.y[:, None]
    # the ratios beyond a row's anchor, which are not used, divide by h = 0
    # or overflow at a subnormal h
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wgt = _outward(_each(math.exp, r.lw0), r.j0 - r.j_lo, r.n, r.j_lo[:, None] + cols, r.half[:, None])
        d = _outward(_each(math.exp, r.ld0 - r.shift), r.k0, r.n, a, Q)
    end = d[:, 0] if r.complement else d[_ROWS[: r.n.size], r.n - 1]
    seed = np.where(np.isnan(r.cf), r.seed, _end_seed(end, base, r.n, r.y, r.q, r.cf, r.complement))
    return wgt, _terms(seed[:, None], d, r.complement), d


def _window_sums(r):
    """A chunk's 2-D pass (``_window_arrays``) reduced to what the finish
    reads: each row's sum s of its products w_j t_j, and its weight, term
    and increment at the window's top and its term at the bottom.

    s is numpy's pairwise sum over the row's own n columns, bit for bit, as
    ``_finish`` sums one window: the products sit in one flat buffer, each
    row behind a 0, and ``np.add.reduceat`` adds a segment as ``sum`` adds
    a row, 0 plus the pairwise sum of the rest (a padded row would be
    grouped otherwise)."""
    wgt, terms, d = _window_arrays(r)
    m, width = wgt.shape
    flat = np.empty(m * (width + 1) + 1)
    flat[-1] = 0.0
    prod = flat[:-1].reshape(m, width + 1)
    prod[:, 0] = 0.0
    np.multiply(wgt, terms, out=prod[:, 1:])
    # segment starts and ends, each row's 0 and products from start to end
    cuts = np.empty(2 * m, dtype=np.int64)
    cuts[0::2] = np.arange(0, m * (width + 1), width + 1)
    cuts[1::2] = cuts[0::2] + 1 + r.n
    s = np.add.reduceat(flat, cuts)[::2]
    rows, top = _ROWS[:m], r.n - 1
    # terms[:, 0] copied: a view would hold the chunk's whole terms array
    return s, wgt[rows, top], terms[rows, top], d[rows, top], terms[:, 0].copy()


def _squares(a):
    """a ** 2 entry by entry as Python's float power forms it (libm's pow,
    which need not round as a * a)."""
    return _each(lambda v: v**2, a)


def _finish_columns(r, s, w_top, t_top, d_top, t_low):
    """``_finish`` over columns: (values, err_ests) as arrays, each entry
    bitwise ``_finish``'s, from the rows' plans, their sums s and the
    values at their windows' ends (``_window_sums``)."""
    value = s.copy()
    scaled = (r.shift != 0.0) & ~(s <= 0.0)
    if scaled.any():
        value[scaled] = [_unscale(*v) for v in zip(s[scaled].tolist(), r.shift[scaled].tolist())]
    half, j_lo = r.half, r.j_lo
    j_top = j_lo + r.n - 1
    rup = half / (j_top + 1.0)
    below = j_lo > 0
    drop = np.zeros(s.shape)
    if below.any():
        hb = half[below]
        drop[below] = -_squares(hb - j_lo[below]) / (2.0 * hb)
    if r.complement:
        rho = np.maximum(np.maximum(r.y * (r.p + r.q + j_top) / (r.p + j_top + 1.0), r.y), 1.0)
        tail = np.full(s.shape, math.inf)
        fits = rup * rho < 1.0
        if fits.any():
            ru = rup[fits]
            tail[fits] = w_top[fits] * ru * (t_top[fits] / (1.0 - ru) + d_top[fits] / _squares(1.0 - ru * rho[fits]))
        if below.any():
            tail[below] += _each(math.exp, drop[below]) * t_low[below]
    else:
        tail = w_top * t_top * rup / (1.0 - rup)
        if below.any():
            tail[below] += _each(math.exp, drop[below] - r.shift[below])
    # a row whose value is 0 divides by 0 here; it takes (0, 1e-15) below
    with np.errstate(divide="ignore", invalid="ignore"):
        err = tail / s + _rounding_floor(r.n, r.p + r.q + j_lo + r.k0, r.ld0)
        # from 2^-950 up the term is below half an ulp of err (``_finish``)
        tiny = s < 2.0**-950
        err[tiny] += r.n[tiny] * 2.0**-1074 / s[tiny]
    empty = value <= 0.0
    value[empty] = 0.0
    err[empty] = 1e-15
    return value, err


def _take(r, index):
    """The rows of a columns ``_Planned`` at index (an index array or a
    slice); a complement given as one bool stays."""
    return r._make(v[index] if isinstance(v, np.ndarray) else v for v in r)


def _chunks(n):
    """(start, end) of the consecutive runs of window lengths n, sorted, of
    at most ``MANY_CELLS`` padded cells each."""
    start = 0
    for end in range(1, len(n) + 1):
        if end == len(n) or (end + 1 - start) * n[end] > MANY_CELLS:
            yield start, end
            start = end


def _check_tol(tol):
    """Raise ``DomainError`` unless ``tol`` is positive, as ``evaluate``
    and ``evaluate_many`` require; it selects nothing."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")


def _evaluate_columns(p, q, x, y):
    """``evaluate`` over float columns of valid points, one entry a point.

    Returns (b, bbar, err_est, method, failed): b, bbar and err_est are
    arrays, each entry bitwise the field of ``evaluate``'s pair at its
    point; method is the list of each point's method; failed maps the
    index of each point where ``evaluate`` raises to the
    ``EvaluationError`` it raises, its entries nan.

    The points are planned as columns (``_column_plan``), each field one
    array over the points, with every entry formed by the float operations
    of ``_row_plan``.  Each member's windows are then sorted by length, cut
    into chunks of at most ``MANY_CELLS`` padded cells, built in one 2-D
    pass a chunk (``_window_arrays``), and summed and finished as columns
    (``_finish_columns``).  Only windows longer than ``MANY_CELLS`` are
    summed one at a time; x = 0 is planned and summed as any other point,
    and the quantile boundaries take their values as columns too."""
    m = p.size
    points = np.column_stack((p, q, x, y))  # a point's floats: points[slot].tolist()
    value = np.where(y < 1.0, 0.0, 1.0)  # B at the quantile boundaries
    err = np.zeros(m)
    failed = {}
    inner = (y > 0.0) & (y < 1.0)
    method = np.where(inner, "series", "boundary").tolist()
    slots = np.flatnonzero(inner)
    # _complement_is_primary: y above the transition quantile
    complement = inner & (y > (x + 2.0 * p) / (x + 2.0 * (p + q)))
    r, kept, zero, wide = _column_plan(p[slots], q[slots], x[slots], y[slots], complement[slots])
    err[slots[zero]] = 1e-15  # a B certified to round to 0 keeps its value 0
    for slot in slots[wide].tolist():
        try:
            value[slot], err[slot], _ = _member(*points[slot].tolist(), bool(complement[slot]), False)
        except EvaluationError as exc:
            value[slot] = err[slot] = math.nan
            failed[slot] = exc
    slots = slots[kept]
    for member in (False, True):
        mine = np.flatnonzero(r.complement == member)
        if not mine.size:
            continue
        mine = mine[np.argsort(r.n[mine], kind="stable")]
        rows = _take(r, mine)._replace(complement=member)
        sums = [_window_sums(_take(rows, slice(*ends))) for ends in _chunks(rows.n.tolist())]
        value[slots[mine]], err[slots[mine]] = _finish_columns(rows, *(np.concatenate(v) for v in zip(*sums)))
    for slot in np.flatnonzero(np.isnan(value)).tolist():
        failed.setdefault(slot, _series_failure(*points[slot].tolist()))
    b, bbar, err = _primary_columns(value, complement, err)
    return b, bbar, err, method, failed


def evaluate_many(points, tol: float = 1e-12) -> list:
    """``evaluate`` over a sequence of (ShapeParams, EvalPoint) pairs.

    Returns a list in input order.  Each entry is the ``ProbabilityPair``
    that ``evaluate`` returns for its point, bit for bit, or the
    ``EvaluationError`` that it raises, so one failing point does not void
    the rest.  ``tol`` is validated as ``evaluate`` does.  The points run
    as columns (``_evaluate_columns``)."""
    _check_tol(tol)
    if not points:
        return []
    fields = chain.from_iterable((sp.p, sp.q, pt.x, pt.y) for sp, pt in points)
    p, q, x, y = np.fromiter(fields, float, 4 * len(points)).reshape(-1, 4).T.copy()
    b, bbar, err, method, failed = _evaluate_columns(p, q, x, y)
    filled = ProbabilityPair._filled
    out = [filled(*v) for v in zip(b.tolist(), bbar.tolist(), method, err.tolist())]
    for slot, exc in failed.items():
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

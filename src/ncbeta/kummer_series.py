"""Convergent expansions of B and its complement in Kummer-function series.

Iterating the exact first-order shift in p gives

    B_{p,q}(x,y)  = pre * sum_j y^j (p+q)_j/(p+1)_j M(p+q+j, p+1+j, z),
    pre = e^{-x/2} y^p (1-y)^q / (p B(p,q)),  z = x y / 2,

preferred for small y.  The production variant rewrites each factor through
the Kummer transformation as e^{x(y-1)/2}-scaled terms
W_j = e^{-z} M(p+q+j, p+1+j, z), which stay O(1).  The complement has the
analogous series over (1-y)^j (p+q)_j/(q)_j M(p+q+j, p, z), preferred for y
near 1.

Factor generation: below index m = ceil(z - p - 1), where z outweighs the
denominator parameter, the W_j are evaluated directly; above it they are
minimal for their two-parameter-shift recurrence and come from downward
ratio recursion (Miller style), anchored at W_m, with a runtime spot-check
against the direct series.  The complement factors are dominant for their
single-parameter shift and recurse forward as ratios.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError
from .kernels import _kummer_m_log, _log_beta_pre
from .params import EvalPoint, ProbabilityPair, ShapeParams
from .series import _complement_is_primary

VARIANTS = ("auto", "b-direct", "b-transformed", "bbar")
MAX_TERMS = 100000
TOL = 1e-15


def _factors_direct(a0, b0, z, J):
    """W_j = e^{-z} M(a0+j, b0+j, z), j = 0..J, each by the direct series."""
    W = np.empty(J + 1)
    for j in range(J + 1):
        W[j] = math.exp(_kummer_m_log(a0 + j, b0 + j, z) - z)
    return W


def _factors_downward(a0, b0, z, J, extra):
    """W_0..W_J: directly up to m = ceil(z - b0), above it by downward ratio
    recursion seeded at the asymptotic limit 1 at index J + extra and
    anchored at W_m.  Below m the recursion's denominator is a difference
    (b0 + k - 1 < z) that cancels, and its error would carry into every
    factor above; above m every denominator is positive."""
    m = min(J, max(0, math.ceil(z - b0)))
    W = np.empty(J + 1)
    W[: m + 1] = _factors_direct(a0, b0, z, m)
    if m == J:
        return W
    r = 1.0
    for k in range(J + extra, m, -1):
        B = b0 + k
        r = (B - 1.0) / ((B - 1.0 - z) + z * ((a0 + k) / B) * r)
        if k <= J:
            W[k] = r  # the ratio W_k / W_{k-1} until the forward pass below
    for j in range(m + 1, J + 1):
        W[j] *= W[j - 1]
    return W


def _b_factors(p, q, z, J, spot_tol=1e-11):
    """W_0..W_J from ``_factors_downward``, spot-checked at two indices
    against the direct series; all direct where the check fails."""
    b0 = p + 1.0
    W = _factors_downward(p + q, b0, z, J, 64 + int(max(0.0, 2.0 * z - (b0 + J))))
    for j in {min(10, J), J}:
        direct = math.exp(_kummer_m_log(p + q + j, b0 + j, z) - z)
        if abs(W[j] - direct) > spot_tol * direct:
            return _factors_direct(p + q, b0, z, J)
    return W


def _sum_b_series(p, q, y, W):
    """sum_j y^j (p+q)_j/(p+1)_j W_j with a geometric tail cut.
    Returns (sum, terms_used, tail_bound); tail_bound < 0 flags failure.
    Summed in floats, so an overflow is an inf sum, not a numpy warning."""
    s = 0.0
    coef = 1.0
    for j, w in enumerate(W.tolist()):
        t = coef * w
        s += t
        ratio = y * (p + q + j) / (p + 1.0 + j)
        if ratio < 0.999 and t * ratio < TOL * s * (1.0 - ratio):
            return s, j + 1, t * ratio / (1.0 - ratio)
        coef *= ratio
    return s, len(W), -1.0


def _sum_bbar_series(p, q, x, y):
    """sum_j (1-y)^j (p+q)_j/(q+1)_j M(p+q+j, p, z)/M(p+q, p, z) with the
    factor ratios generated by stable forward recursion; the full series for
    the complement carries the prefactor e^{-x/2} y^p (1-y)^q/(q B(p,q)).
    (Iterating the exact q-shift gives denominator (q)_{j+1} = q (q+1)_j;
    term-by-term comparison against the defining series pins this down.)
    Returns (sum, log M(p+q, p, z), terms_used, tail_bound)."""
    z = 0.5 * x * y
    lm0 = _kummer_m_log(p + q, p, z)
    if lm0 != lm0:
        return math.nan, math.nan, 0, -1.0
    R = math.exp(_kummer_m_log(p + q + 1.0, p, z) - lm0)
    onemy = 1.0 - y
    t = 1.0
    s = 1.0
    j = 0
    while j < MAX_TERMS:
        t = t * onemy * (p + q + j) / (q + 1.0 + j) * R
        j += 1
        s += t
        ratio = onemy * (p + q + j) / (q + 1.0 + j) * R
        if ratio < 0.999 and t * ratio < TOL * s * (1.0 - ratio):
            return s, lm0, j + 1, t * ratio / (1.0 - ratio)
        a = p + q + j
        R = ((2.0 * a - p + z) + (p - a) / R) / a
    return s, lm0, j, -1.0


def _estimate_terms(p, q, y):
    """Index beyond which y^j (p+q)_j/(p+1)_j drops below 1% of TOL of the
    peak, padded so the geometric tail-bound exit can fire before the
    budget."""
    if y <= 0.0:
        return 1
    lny = math.log(y)
    target = math.log(TOL * 0.01) + 2.0 * math.log1p(-y)
    J = max(8.0, target / lny)
    for _ in range(3):
        poly = max(0.0, (q - 1.0)) * math.log(max(J, 3.0))
        J = max(8.0, (target - poly) / lny)
    return min(int(J) + 16 + int(4.0 / (1.0 - y)), MAX_TERMS)


def _value(lead, lpre, a, lm, s):
    """exp(lead + lpre - ln a + lm + ln s), flushed to 0 below e^-745: a
    member from its series sum s, with lead -x/2 and lm ln M(p+q, p, z) for
    the complement (a = q), lead x(y-1)/2 and lm 0 for B (a = p)."""
    logv = lead + lpre - math.log(a) + lm + math.log(s)
    return math.exp(logv) if logv > -745.0 else 0.0


def eval_kummer_series(sp: ShapeParams, pt: EvalPoint, variant: str = "auto") -> ProbabilityPair:
    """Evaluate B or its complement by a Kummer-function series.

    ``variant`` is "b-direct" or "b-transformed" (B by the direct or the
    transformed factors), "bbar" (the complement), or "auto", which sums
    the numerically smaller member: the transformed B-series for y up to
    the transition quantile, the complement series above it."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    if y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "kummer-series", 0.0)
    if y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "kummer-series", 0.0)
    if variant == "auto":
        variant = "bbar" if _complement_is_primary(sp, pt) else "b-transformed"
    if variant == "bbar":
        s, lm, used, tail = _sum_bbar_series(p, q, x, y)
        name, limit, member, lead, a = "complement Kummer series", MAX_TERMS, "bbar", -0.5 * x, q
    else:
        J = _estimate_terms(p, q, y)
        z = pt.z
        try:
            if variant == "b-direct":
                W = _factors_direct(sp.r, p + 1.0, z, J)
            else:
                W = _b_factors(p, q, z, J)
        except OverflowError as exc:
            raise EvaluationError(f"Kummer factors overflow at (p={p}, q={q}, z={z})") from exc
        if not np.all(np.isfinite(W)):
            raise EvaluationError(f"Kummer factor generation failed at (p={p}, q={q}, z={z})")
        s, used, tail = _sum_b_series(p, q, y, W)
        name, limit, member, lead, a, lm = "Kummer series for B", J, "b", 0.5 * x * (y - 1.0), p, 0.0
    if math.isnan(s) or tail < 0.0:
        raise EvaluationError(
            f"{name} did not converge within {limit} terms at "
            f"(p={p}, q={q}, x={x}, y={y}); dispatch should pick another route"
        )
    if math.isinf(s):
        raise EvaluationError(f"{name} overflows at (p={p}, q={q}, x={x}, y={y})")
    value = _value(lead, _log_beta_pre(p, q, y), a, lm, s)
    # rounding that the terms' own 2u each does not carry, in units of u:
    # 3 (p + q) from the prefactor, whose p- and q-sized multiples carry
    # the rounding of their arguments (as in the series' floor); 24 |ln M|
    # from the complement's M(p+q, p, z); and 0.2 n^1.5, the drift of its
    # forward ratio recursion over n terms.  Fitted to scipy (Boost) at
    # 11790 points with q in [1e3, 2e6] and x in [1e2, 3e5] where it agrees
    # with the series within 1e-13: the worst true error is 0.78 of err_est
    # (0.76 on 5950 further points), and without the term 8429 of them
    # were off by more than err_est.
    rounding = 1.12e-16 * (3.0 * (p + q) + 24.0 * abs(lm) + 0.2 * used**1.5)
    err = tail / s + 5e-15 + used * 2e-16 + rounding
    return ProbabilityPair.from_primary(value, member, "kummer-series", err)


def truncated_shift_sum(sp: ShapeParams, pt: EvalPoint, n_shift: int) -> float:
    """The finite part of the exact relation

        B_{p,q} = B_{p+N+1,q} + pre * sum_{j=0}^{N} y^j (p+q)_j/(p+1)_j M(...),

    i.e. the sum scaled by the prefactor.  Adding B at the shifted parameters
    must reproduce B at (p, q) exactly; tests drive this identity."""
    if n_shift < 0:
        raise DomainError("n_shift must be nonnegative")
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        raise DomainError("truncated shift sum needs y < 1")
    W = _factors_direct(sp.r, p + 1.0, pt.z, n_shift)
    coef = 1.0
    s = 0.0
    for j in range(n_shift + 1):
        s += coef * W[j]
        coef *= y * (p + q + j) / (p + 1.0 + j)
    return _value(0.5 * x * (y - 1.0), _log_beta_pre(p, q, y), p, 0.0, s)

"""Convergent expansions of B and its complement in Kummer-function series.

Iterating the exact first-order shift in p gives

    B_{p,q}(x,y)  = pre * sum_j y^j (p+q)_j/(p+1)_j M(p+q+j, p+1+j, z),
    pre = e^{-x/2} y^p (1-y)^q / (p B(p,q)),  z = x y / 2,

preferred for small y.  The production variant rewrites each factor through
the Kummer transformation as e^{x(y-1)/2}-scaled terms
W_j = e^{-z} M(p+q+j, p+1+j, z), which stay O(1).  The complement has the
analogous series over (1-y)^j (p+q)_j/(q)_j M(p+q+j, p, z), preferred for y
near 1.

Factor generation: the W_j are minimal for their two-parameter-shift
recurrence, so they are produced by downward ratio recursion (Miller style)
with a runtime spot-check against the direct series; the recursion cannot
cross the transient region where z outweighs the denominator parameter, so
large z falls back to direct per-term evaluation.  The complement factors
are dominant for their single-parameter shift and recurse forward as ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError
from .kernels import _kummer_m_log, _log_beta_pre
from .params import EvalPoint, ProbabilityPair, ShapeParams

VARIANTS = ("b-direct", "b-transformed", "bbar")


@dataclass(frozen=True)
class KummerSeriesPlan:
    """Evaluation plan: which member, which series, and the budget."""

    target: str = "auto"  # "B" | "Bbar" | "auto"
    variant: str = "auto"  # one of VARIANTS or "auto"
    max_terms: int = 100000
    tol: float = 1e-15

    def __post_init__(self):
        if self.target not in ("B", "Bbar", "auto"):
            raise DomainError(f"target must be 'B', 'Bbar' or 'auto', got {self.target!r}")
        if self.variant not in VARIANTS + ("auto",):
            raise DomainError(f"unknown variant {self.variant!r}")
        if not 0 < self.max_terms <= 100000:
            raise DomainError("max_terms must lie in (0, 1e5]")
        if self.tol < 1e-15:
            raise DomainError(f"tol must be >= 1e-15, got {self.tol}")
        if self.variant in ("b-direct", "b-transformed") and self.target == "Bbar":
            raise DomainError(f"variant {self.variant!r} computes B, not the complement")
        if self.variant == "bbar" and self.target == "B":
            raise DomainError("variant 'bbar' computes the complement, not B")


def _factors_downward(a0, b0, z, J, extra):
    """W_j = e^{-z} M(a0+j, b0+j, z), j = 0..J, by downward ratio recursion
    seeded at the asymptotic limit 1; anchored at j = 0 by the direct series."""
    rho = np.empty(max(J, 1))
    r = 1.0
    k = J + extra
    while k >= 1:
        A = a0 + k
        B = b0 + k
        den = (B - 1.0 - z) + z * (A / B) * r
        if den <= 0.0:
            rho[0] = math.nan
            return rho
        r = (B - 1.0) / den
        k -= 1
        if k < J:
            rho[k] = r
    W = np.empty(J + 1)
    W[0] = math.exp(_kummer_m_log(a0, b0, z) - z)
    for j in range(J):
        W[j + 1] = W[j] * rho[j]
    return W


def _factors_direct(a0, b0, z, J):
    W = np.empty(J + 1)
    for j in range(J + 1):
        W[j] = math.exp(_kummer_m_log(a0 + j, b0 + j, z) - z)
    return W


def _sum_b_series(p, q, y, W, tol):
    """sum_j y^j (p+q)_j/(p+1)_j W_j with a geometric tail cut.
    Returns (sum, terms_used, tail_bound); tail_bound < 0 flags failure."""
    s = 0.0
    coef = 1.0
    J = len(W) - 1
    for j in range(J + 1):
        t = coef * W[j]
        s += t
        ratio = y * (p + q + j) / (p + 1.0 + j)
        if ratio < 0.999 and t * ratio < tol * s * (1.0 - ratio):
            return s, j + 1, t * ratio / (1.0 - ratio)
        coef *= ratio
    return s, J + 1, -1.0


def _sum_bbar_series(p, q, x, y, tol, max_terms):
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
    while j < max_terms:
        t = t * onemy * (p + q + j) / (q + 1.0 + j) * R
        j += 1
        s += t
        ratio = onemy * (p + q + j) / (q + 1.0 + j) * R
        if ratio < 0.999 and t * ratio < tol * s * (1.0 - ratio):
            return s, lm0, j + 1, t * ratio / (1.0 - ratio)
        a = p + q + j
        R = ((2.0 * a - p + z) + (p - a) / R) / a
    return s, lm0, j, -1.0


def _estimate_terms(p, q, y, tol, max_terms):
    """Index beyond which y^j (p+q)_j/(p+1)_j drops below tol of the peak,
    padded so the geometric tail-bound exit can fire before the budget."""
    if y <= 0.0:
        return 1
    lny = math.log(y)
    target = math.log(tol) + 2.0 * math.log1p(-y)
    J = max(8.0, target / lny)
    for _ in range(3):
        poly = max(0.0, (q - 1.0)) * math.log(max(J, 3.0))
        J = max(8.0, (target - poly) / lny)
    return min(int(J) + 16 + int(4.0 / (1.0 - y)), max_terms)


def _b_factors(p, q, z, J, spot_tol=1e-11):
    """W_0..W_J with the Miller descent when it can reach J, else direct;
    the descent result is spot-checked against the direct series."""
    b0 = p + 1.0
    if z <= 0.5 * (b0 + J):
        extra = 64 + int(max(0.0, 2.0 * z - (b0 + J)))
        W = _factors_downward(p + q, b0, z, J, extra)
        if not math.isnan(W[0]):
            ok = True
            for j in {min(10, J), J}:
                direct = math.exp(_kummer_m_log(p + q + j, b0 + j, z) - z)
                if abs(W[j] - direct) > spot_tol * direct:
                    ok = False
                    break
            if ok:
                return W
    return _factors_direct(p + q, b0, z, J)


def eval_kummer_series(sp: ShapeParams, pt: EvalPoint, plan: KummerSeriesPlan | None = None) -> ProbabilityPair:
    """Evaluate B or its complement by a Kummer-function series.

    With target "auto" the numerically smaller member is computed (B for
    y below the transition quantile, the complement above) and the variant
    defaults to the transformed B-series or the complement series."""
    if plan is None:
        plan = KummerSeriesPlan()
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    if y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "kummer-series", 0.0)
    if y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "kummer-series", 0.0)
    target = plan.target
    if target == "auto":
        y0 = (x + 2.0 * p) / (x + 2.0 * sp.r)
        target = "B" if y <= y0 else "Bbar"
    variant = plan.variant
    if variant == "auto":
        variant = "b-transformed" if target == "B" else "bbar"

    if variant == "bbar":
        s, lm0, used, tail = _sum_bbar_series(p, q, x, y, plan.tol, plan.max_terms)
        if math.isnan(s) or tail < 0.0:
            raise EvaluationError(
                f"complement Kummer series did not converge within {plan.max_terms} terms "
                f"at (p={p}, q={q}, x={x}, y={y}); dispatch should pick another route"
            )
        logv = -0.5 * x + _log_beta_pre(p, q, y) - math.log(q) + lm0 + math.log(s)
        err = tail / s + 5e-15 + used * 2e-16
        return ProbabilityPair.from_primary(
            math.exp(logv) if logv > -745.0 else 0.0, "bbar", "kummer-series", err
        )

    J = _estimate_terms(p, q, y, plan.tol * 0.01, plan.max_terms)
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
    s, used, tail = _sum_b_series(p, q, y, W, plan.tol)
    if tail < 0.0:
        raise EvaluationError(
            f"Kummer series for B did not converge within {J} terms at "
            f"(p={p}, q={q}, x={x}, y={y}); dispatch should pick another route"
        )
    logv = 0.5 * x * (y - 1.0) + _log_beta_pre(p, q, y) - math.log(p) + math.log(s)
    err = tail / s + 5e-15 + used * 2e-16
    return ProbabilityPair.from_primary(
        math.exp(logv) if logv > -745.0 else 0.0, "b", "kummer-series", err
    )


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
    logv = 0.5 * x * (y - 1.0) + _log_beta_pre(p, q, y) - math.log(p) + math.log(s)
    return math.exp(logv) if logv > -745.0 else 0.0

"""Asymptotic machinery for large parameters.

The contour representation of the noncentral beta CDF has phase

    phi(t) = ln t - sin^2(theta) ln(t-1) + xi t,
    p = r cos^2(theta), q = r sin^2(theta), xi = x y / (2 r),

with a saddle point t0 > 1 and a simple pole at t_p = 1/y.  This module
builds the saddle geometry and evaluates three expansions, all kept as
reproduction of the paper (``dispatch.evaluate`` routes to none of them).
Their coefficients come from the phase transformation
phi(t) - phi(t0) = w^2 / 2, written as w = u sqrt(A(u)) with u = t - t0,
and inverted by Lagrange-Buermann inversion: every coefficient needed is a
single coefficient of a power of A(u) (see ``_pseries``).

The expansions are

* ``eval_large_z``: large z = x y / 2 with p, q of moderate size (finite and
  exact when q is a positive integer),
* ``eval_saddle``: plain saddle-point expansion, valid for y below the
  transition quantile y0 (the paper's form),
* ``eval_erfc_uniform``: boundary-layer form valid uniformly through the
  transition, with the pole subtracted into a complementary error function,
  reducing to the plain saddle series past it.

One phase series, the coefficients phi_m(t0)/m! of ``_phase_coeffs``,
feeds both the near-saddle phase difference dphi and A(u); one sum,
``_saddle_type_sum``, serves the saddle and erfc-uniform expansions.

It also provides the transition-series coefficients x(zeta) and y(zeta)
used to seed inversion, inverted from zeta^2 = u^2 A(u) in the same way.
Their order is always 5, so their Lagrange-Miller algebra is written out
as straight-line float arithmetic (``_t0_series5``, ``_zeta_revert5``),
the operations of the generic ``_pseries`` code in its order: the same
coefficients bit for bit, at about a fifth of the generic code's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from ._pseries import ps_pow, ps_revert
from .errors import DomainError, EvaluationError, FrameDegenerateError, SeriesInvalidError
from .params import EvalPoint, ProbabilityPair, ShapeParams
from .series import _complement_is_primary

TAU_REF = 0.05  # pole-removal threshold on zeta at the reference scale r = 40

_LOG_2PI = 1.8378770664093454835607


def transition_tau(r: float) -> float:
    """|zeta| below which the boundary-layer coefficients switch from the
    direct subtraction g_k = f_k - zeta^{-(k+1)} to the analytic removal of
    the pole (``g_coeffs``).

    The direct subtraction keeps rounding noise of order eps / (zeta^6 r^2)
    on the k = 2 term of the expansion, so the switch point that holds that
    noise at ~1e-8 shrinks like r^{-1/3}."""
    return min(TAU_REF, 0.094 / r ** (1.0 / 3.0))


@dataclass(frozen=True)
class SaddleFrame:
    """Saddle geometry at one evaluation point.

    ``dphi`` is phi(t_p) - phi(t0) >= 0, computed with a cancellation-aware
    switch so that zeta = sign(t_p - t0) sqrt(2 dphi) keeps its relative
    accuracy close to the transition."""

    y: float
    r: float
    sin2: float
    cos2: float
    t0: float
    tp: float
    y0: float
    dphi: float
    zeta: float
    phi2: float

    @property
    def erfc_arg(self) -> float:
        return self.zeta * math.sqrt(0.5 * self.r)

    @property
    def strip_ok(self) -> bool:
        """Inside the validity strip: quantile and angle away from the edges,
        convex phase at the saddle."""
        return (
            0.01 <= self.y <= 0.99
            and min(self.cos2, self.sin2) >= 0.05
            and self.phi2 > 0.0
            and self.t0 > 1.0 + 1e-9
        )


def _phase_coeffs(t0: float, sin2: float):
    """The Taylor coefficients c_m = phi_m(t0)/m! of the phase about the
    saddle, m = 2, 3, ...: c_m = (-1)^(m-1)/m (t0^-m - sin^2 (t0-1)^-m)."""
    i0 = 1.0 / t0
    i1 = 1.0 / (t0 - 1.0)
    pow0 = i0 * i0
    pow1 = i1 * i1
    sgn = -1.0
    for m in count(2):
        yield sgn / m * (pow0 - sin2 * pow1)
        pow0 *= i0
        pow1 *= i1
        sgn = -sgn


def _dphi_between(t0: float, tp: float, sin2: float, xi: float) -> float:
    """phi(t_p) - phi(t0); series in (t_p - t0) when the points are close."""
    delta = tp - t0
    if abs(delta) <= 0.4 * min(t0 - 1.0, t0):
        s = 0.0
        dk = delta * delta
        for c in islice(_phase_coeffs(t0, sin2), 78):
            term = c * dk
            s += term
            if abs(term) < 1e-18 * max(abs(s), 1e-30):
                break
            dk *= delta
        return max(s, 0.0)
    val = math.log(tp / t0) - sin2 * math.log((tp - 1.0) / (t0 - 1.0)) + xi * delta
    return max(val, 0.0)


def build_frame(sp: ShapeParams, pt: EvalPoint) -> SaddleFrame:
    """Saddle geometry for (p, q, x, y) with 0 < y < 1.

    The saddle solves xi t^2 + (cos^2 - xi) t - 1 = 0; the conjugate root
    form t0 = 2 / (sqrt(D) + cos^2 - xi) is used because it is free of
    cancellation for every xi >= 0 and has the correct xi -> 0 limit."""
    if not 0.0 < pt.y < 1.0:
        raise DomainError(f"saddle frame needs 0 < y < 1, got y={pt.y} (boundary values are exact)")
    r = sp.r
    c = sp.cos2
    s = sp.sin2
    xi = pt.z / r
    D = (c - xi) * (c - xi) + 4.0 * xi
    t0 = 2.0 / (math.sqrt(D) + (c - xi))
    if not t0 > 1.0:  # t0 > 1 in exact arithmetic; at huge xi it rounds to 1
        raise FrameDegenerateError(f"saddle rounds onto the branch point t = 1 at x={pt.x}, y={pt.y}")
    tp = 1.0 / pt.y
    dphi = _dphi_between(t0, tp, s, xi)
    zeta = math.copysign(math.sqrt(2.0 * dphi), tp - t0)
    t0m1 = t0 - 1.0
    phi2 = -1.0 / (t0 * t0) + s / (t0m1 * t0m1)
    return SaddleFrame(
        y=pt.y, r=r, sin2=s, cos2=c, t0=t0, tp=tp, y0=sp.transition_quantile(pt.x), dphi=dphi,
        zeta=zeta, phi2=phi2,
    )


def _phase_a(frame: SaddleFrame, n: int) -> np.ndarray:
    """A_0..A_n of A(u) = 2 sum_{m>=2} phi_m/m! u^(m-2), so that the phase
    transformation phi(t0 + u) - phi(t0) = w^2 / 2 reads w = u sqrt(A(u))
    (positive branch: sign(w) = sign(t - t0))."""
    if frame.phi2 <= 0.0:
        raise FrameDegenerateError(
            f"phase not convex at the saddle (phi''={frame.phi2:.3e}); outside the validity strip"
        )
    higher = islice(_phase_coeffs(frame.t0, frame.sin2), 1, n + 1)  # c_3..c_{n+2}
    return np.array([frame.phi2] + [2.0 * c for c in higher])


def invert_phi_series(frame: SaddleFrame) -> np.ndarray:
    """Coefficients t_1..t_6 of t = t0 + t1 w + t2 w^2 + ... inverting
    phi(t) - phi(t0) = w^2 / 2, by Lagrange inversion of w = u sqrt(A(u)):
    t_k = [u^(k-1)] A^(-k/2) / k.

    Returns an array ``t`` with t[0] = 0 and t[k] the w^k coefficient.  The
    expansions never need t itself (``f_coeffs`` goes from A to f directly);
    this stays as the reproduction of the paper's phase inversion."""
    return ps_revert(_phase_a(frame, 5), 6)


def f_coeffs(frame: SaddleFrame, n: int = 4) -> np.ndarray:
    """Coefficients f_0..f_n of f(w) = h(t) dt/dw as a power series in w at
    the saddle, h(t) = 1/(t (1 - y t)).  With t = t0 + u and w = u sqrt(A(u)),
    Lagrange-Buermann inversion gives each coefficient directly:

        f_k = [u^k] h(t0 + u) A(u)^(-(k+1)/2),

    from A_0..A_k alone; f_0..f_4 carry the expansions through k = 2, and
    f_0 = h(t0) A_0^(-1/2).  f has a simple pole in w at zeta, so the
    coefficients blow up when pole and saddle coalesce."""
    y = frame.y
    t0 = frame.t0
    pole = 1.0 - y * t0
    if pole == 0.0:
        raise EvaluationError(
            "pole sits exactly on the saddle; the boundary-layer route must subtract it first"
        )
    A = _phase_a(frame, n)
    # h(t0 + u) = sum_m h_m u^m, h_m = (-1)^m/t0^{m+1} + y^{m+1}/(1-y t0)^{m+1}
    H = [(-1.0) ** m / t0 ** (m + 1) + y ** (m + 1) / pole ** (m + 1) for m in range(n + 1)]
    out = np.empty(n + 1)
    for k in range(n + 1):
        P = ps_pow(A, -0.5 * (k + 1), k)
        out[k] = sum(H[i] * P[k - i] for i in range(k + 1))
    return out


def _g_from_f(f_part: np.ndarray, zeta: float) -> np.ndarray:
    g = f_part.copy()
    zp = zeta
    for k in range(len(g)):
        g[k] -= 1.0 / zp
        zp *= zeta
    return g


def g_coeffs(frame: SaddleFrame, n: int = 4) -> np.ndarray:
    """Boundary-layer coefficients g_k = f_k - zeta^{-(k+1)}, k = 0..n; each
    g_k is the same for every n >= k.

    The subtraction cancels the pole of f, but both sides blow up like
    1/zeta, so for |zeta| < tau = transition_tau(r) the pole is removed
    analytically.  With u_p = t_p - t0 and P_k = A^(-(k+1)/2), zeta = u_p
    sqrt(A(u_p)) gives zeta^{-(k+1)} = u_p^{-(k+1)} P_k(u_p), which cancels
    the pole part y/(1 - y t) = 1/(u_p - u) of h term by term:

        g_k = sum_{i<=k} (-1)^i t0^{-(i+1)} P_k[k-i] - sum_{m>=0} P_k[k+1+m] u_p^m.

    The tail converges geometrically in |u_p| / (t0 - 1), the distance to
    the branch point t = 1 (Temme, Asymptotic Methods for Integrals, 2015,
    uniform expansions with a pole near the saddle)."""
    if abs(frame.zeta) >= transition_tau(frame.r):
        return _g_from_f(f_coeffs(frame, n), frame.zeta)
    t0 = frame.t0
    up = frame.tp - t0
    rho = abs(up) / (t0 - 1.0)
    # enough tail terms for rho^m < 1e-16: 2 + ceil(37/-ln rho), at most 43
    # below rho = 0.4, and 40 from there, where the check below rejects the
    # rest; at rho = 0 the tail is its first term, and a zero second one
    # passes the check.  P_k's coefficients do not depend on the order m.
    if rho == 0.0:
        m = n + 2
    else:
        m = 4 + (2 + math.ceil(37.0 / -math.log(rho)) if rho < 0.4 else 40)
    A = _phase_a(frame, m)
    out = np.empty(n + 1)
    for k in range(n + 1):
        P = ps_pow(A, -0.5 * (k + 1), m)
        tail_terms = P[k + 1 :] * up ** np.arange(m - k)
        tail = math.fsum(tail_terms)
        if not abs(tail_terms[-1]) < 1e-16 * abs(tail):
            raise FrameDegenerateError(f"pole-removal tail of g_{k} not converged (|u_p|/(t0-1) = {rho:.3g})")
        out[k] = sum((-1.0) ** i / t0 ** (i + 1) * P[k - i] for i in range(k + 1)) - tail
    return out


# ---------------------------------------------------------------------------
# expansions


def eval_large_z(sp: ShapeParams, pt: EvalPoint, n_terms: int = 5) -> ProbabilityPair:
    """Expansion for large z = x y / 2 with p, q of moderate size:

        B ~ e^{-(1-y)x/2} y^p (1-y)^{q-1} z^{q-1} / Gamma(q)
            * sum_n (-1)^n (1-q)_n c_n / z^n,

    where c_n convolves the Taylor coefficients of t^{p+q-1} and 1/(1-yt)
    about t = 1.  When q is a positive integer the sum terminates and the
    result is exact (flagged through err_est = 0)."""
    if n_terms < 0:
        raise DomainError(f"large-z expansion needs n_terms >= 0, got {n_terms}")
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    z = pt.z
    if y <= 0.0:
        return ProbabilityPair.from_primary(0.0, "b", "large-z", 0.0)
    if y >= 1.0:
        return ProbabilityPair.from_primary(1.0, "b", "large-z", 0.0)
    if z <= 0.0:
        raise DomainError("large-z expansion needs z = x y / 2 > 0")
    a = np.empty(n_terms + 2)
    a[0] = 1.0
    for n in range(n_terms + 1):
        a[n + 1] = -a[n] * (1.0 - sp.r + n) / (n + 1.0)
    w = y / (1.0 - y)

    def conv(n):
        cn = 0.0
        wp = 1.0
        for m in range(n, -1, -1):
            cn += a[m] * wp
            wp *= w
        return cn

    poch = 1.0  # (1-q)_n
    zp = 1.0
    terms = []
    terminated = False
    first_omitted = 0.0
    for n in range(n_terms + 2):
        term = (-1.0) ** n * poch * conv(n) / zp
        if poch == 0.0:
            terminated = True  # q is a positive integer <= n: the sum is finite and exact
            break
        if n > n_terms:
            first_omitted = abs(term)
            break
        terms.append(term)
        poch *= 1.0 - q + n
        zp *= z
    # optimal truncation if the asymptotic tail starts growing inside the window
    if not terminated:
        kmin = min(range(len(terms)), key=lambda k: abs(terms[k]))
        if kmin < len(terms) - 1 and abs(terms[-1]) > 3.0 * abs(terms[kmin]):
            first_omitted = abs(terms[kmin + 1])
            terms = terms[: kmin + 1]
    s = math.fsum(terms)
    n_used = len(terms) - 1
    if s <= 0.0:
        raise EvaluationError(
            f"large-z expansion lost positivity at (p={p}, q={q}, x={x}, y={y}); out of regime"
        )
    lpre = (
        -0.5 * (1.0 - y) * x
        + p * math.log(y)
        + (q - 1.0) * math.log1p(-y)
        + (q - 1.0) * math.log(z)
        - math.lgamma(q)
    )
    value = math.exp(lpre) * s
    if terminated:
        err = 2e-16 * (n_used + 2)
    else:
        err = first_omitted / s + 1e-15
    return ProbabilityPair.from_primary(value, "b", "large-z", err)


def _saddle_type_sum(sp: ShapeParams, pt: EvalPoint, k_terms: int, method: str, coeffs):
    """The sum shared by the saddle and erfc-uniform expansions: the terms
    (-1)^k c_{2k} (2k-1)!!/r^k, k = 0..k_terms, of the coefficients
    ``coeffs(frame)``, with the prefactor e^{-r dphi}/sqrt(2 pi r) and the
    exponent's rounding floor.  Returns (frame, terms, sum, prefactor, floor)."""
    if not 0 <= k_terms <= 2:
        raise DomainError(f"{method} expansion implemented for k = 0..2 terms, got {k_terms}")
    frame = build_frame(sp, pt)
    c = coeffs(frame)
    terms = [(-1.0) ** k * c[2 * k] * (1.0, 1.0, 3.0)[k] / frame.r**k for k in range(k_terms + 1)]
    pfac = math.exp(-frame.r * frame.dphi - 0.5 * (_LOG_2PI + math.log(frame.r)))
    # exponent noise: d(e^E) = e^E dE with dE ~ eps * r * (dphi + O(1))
    floor = 2e-16 * frame.r * (frame.dphi + 1.0) + 5e-15
    return frame, terms, math.fsum(terms), pfac, floor


def eval_saddle(sp: ShapeParams, pt: EvalPoint, k_terms: int = 2) -> ProbabilityPair:
    """Plain saddle-point expansion

        B ~ e^{-r dphi} / sqrt(2 pi r) * sum_k (-1)^k f_{2k} (2k-1)!! / r^k,

    valid for y below the transition quantile (pole away from the saddle)."""

    def coeffs(frame: SaddleFrame) -> np.ndarray:
        if pt.y > frame.y0 - 0.05:
            raise EvaluationError(
                f"quantile {pt.y} too close to the transition value {frame.y0:.6g}; "
                "use the erfc-uniform route"
            )
        return f_coeffs(frame)

    _, terms, ssum, pfac, floor = _saddle_type_sum(sp, pt, k_terms, "saddle", coeffs)
    if ssum <= 0.0:
        raise EvaluationError("saddle expansion lost positivity; out of regime")
    return ProbabilityPair.from_primary(pfac * ssum, "b", "saddle", abs(terms[-1] / ssum) + floor)


def eval_erfc_uniform(
    sp: ShapeParams,
    pt: EvalPoint,
    k_terms: int = 2,
    target: str = "auto",
) -> ProbabilityPair:
    """Boundary-layer expansion, uniformly valid through the transition:

        B    = erfc(zeta sqrt(r/2))/2  + e^{-r zeta^2/2}/sqrt(2 pi r) * S
        Bbar = erfc(-zeta sqrt(r/2))/2 - e^{-r zeta^2/2}/sqrt(2 pi r) * S
        S ~ sum_k (-1)^k g_{2k} (2k-1)!! / r^k

    Past the boundary layer it reduces to the plain saddle series, so it
    serves the whole large-r strip.  ``target`` picks the member computed
    directly ("B", "Bbar", or "auto" for the smaller one, y vs the
    transition quantile)."""
    frame, terms, ssum, pfac, floor = _saddle_type_sum(sp, pt, k_terms, "erfc-uniform", g_coeffs)
    if target == "auto":
        target = "Bbar" if _complement_is_primary(sp, pt) else "B"
    if target not in ("B", "Bbar"):
        raise DomainError(f"target must be 'auto', 'B' or 'Bbar', got {target!r}")
    sgn = 1.0 if target == "B" else -1.0
    value = 0.5 * math.erfc(sgn * frame.erfc_arg) + sgn * pfac * ssum
    if value <= 0.0:
        value = 0.0
    # first omitted term: the last one, or t_{K-1}^2/t_{K-2} when the last coefficient nears a zero
    tail = abs(terms[-1])
    if k_terms >= 2 and terms[-3] != 0.0:
        tail = max(tail, terms[-2] * terms[-2] / abs(terms[-3]))
    err = pfac * tail / value + floor if value > 0.0 else 1.0
    return ProbabilityPair.from_primary(value, target.lower(), "erfc-uniform", err)


# ---------------------------------------------------------------------------
# transition-series coefficients for inversion
#
# The transition series have order 5.  Their Lagrange-Miller algebra is
# written out for that order in Python floats: the float operations of
# ``ps_sqrt``, ``ps_pow``'s recurrence and ``ps_revert``, in their order,
# with Miller's factors (alpha + 1) i - k as the exact half-integer literals
# they are.  Each sum keeps the recurrence's 0.0 start, so that even the
# sign of a zero coefficient is the generic code's, and the inputs become
# Python floats first, whose ``**`` raises on overflow as ``ps_pow``'s does.


def _t0_series5(c: float, xi0: float, xi1: float) -> tuple[float, float, float, float, float]:
    """T_1..T_5 of the saddle t0 = T_0 + T_1 u + ... + T_5 u^5 where
    xi = xi0 + xi1 u, from the conjugate root form
    t0 = 2 / (sqrt(D) + c - xi), D = (c - xi)^2 + 4 xi = d0 + d1 u + d2 u^2.
    The square root s = sqrt(D) comes from s^2 = D,

        s_k = (d_k - sum_{0<i<k} s_i s_{k-i}) / (2 s_0),

    and the reciprocal b = 1/(s + c - xi) from Miller's recurrence with
    alpha = -1, whose factors are all -k."""
    c, xi0, xi1 = float(c), float(xi0), float(xi1)
    d0 = (c - xi0) * (c - xi0) + 4.0 * xi0
    if d0 <= 0.0:
        raise SeriesInvalidError("saddle discriminant vanishes at the transition point")
    s0 = math.sqrt(d0)
    h = 2.0 * s0
    s1 = (4.0 - 2.0 * (c - xi0)) * xi1 / h
    s2 = (xi1 * xi1 - s1 * s1) / h
    s3 = (0.0 - s1 * s2 - s2 * s1) / h
    s4 = (0.0 - s1 * s3 - s2 * s2 - s3 * s1) / h
    s5 = (0.0 - s1 * s4 - s2 * s3 - s3 * s2 - s4 * s1) / h
    a0 = s0 + (c - xi0)
    a1 = s1 - xi1
    if a0 <= 0.0:
        raise SeriesInvalidError("saddle branch degenerates at the transition point")
    b0 = a0**-1.0
    b1 = (0.0 - 1.0 * a1 * b0) / a0
    b2 = (0.0 - 2.0 * a1 * b1 - 2.0 * s2 * b0) / (2.0 * a0)
    b3 = (0.0 - 3.0 * a1 * b2 - 3.0 * s2 * b1 - 3.0 * s3 * b0) / (3.0 * a0)
    b4 = (0.0 - 4.0 * a1 * b3 - 4.0 * s2 * b2 - 4.0 * s3 * b1 - 4.0 * s4 * b0) / (4.0 * a0)
    b5 = (0.0 - 5.0 * a1 * b4 - 5.0 * s2 * b3 - 5.0 * s3 * b2 - 5.0 * s4 * b1 - 5.0 * s5 * b0) / (5.0 * a0)
    return 2.0 * b1, 2.0 * b2, 2.0 * b3, 2.0 * b4, 2.0 * b5


def _zeta_revert5(psip, v0: float, unknown: str) -> np.ndarray:
    """The unknown ("x" or "y") as a series in zeta from psi'_1..psi'_5,
    the Taylor coefficients of psi' = d(zeta^2/2)/dv about its transition
    point v0 past the vanishing psi'_0: with u = v - v0, zeta^2 = u^2 A(u),
    A_{k-1} = 2 psi'_k / (k + 1), and zeta = +-u sqrt(A(u)) rises in x and
    falls in y, so the coefficients are Lagrange's reversion

        b_k = [u^(k-1)] A(u)^(-k/2) / k,

    odd ones negated for y.  Raises unless A_0 > 0."""
    p1, p2, p3, p4, p5 = map(float, psip)
    a0 = 2.0 * (p1 / 2.0)
    if not a0 > 0.0:
        raise SeriesInvalidError(f"transition curvature not positive; {unknown}(zeta) series invalid")
    a1 = 2.0 * (p2 / 3.0)
    a2 = 2.0 * (p3 / 4.0)
    a3 = 2.0 * (p4 / 5.0)
    a4 = 2.0 * (p5 / 6.0)
    a0x2, a0x3, a0x4 = 2.0 * a0, 3.0 * a0, 4.0 * a0
    # b_k: Miller's recurrence for A^alpha, alpha = -k/2, up to order k - 1
    b1 = a0**-0.5
    e0 = a0**-1.0
    b2 = (0.0 - 1.0 * a1 * e0) / a0 / 2.0
    e0 = a0**-1.5
    e1 = (0.0 - 1.5 * a1 * e0) / a0
    b3 = (0.0 - 2.5 * a1 * e1 - 3.0 * a2 * e0) / a0x2 / 3.0
    e0 = a0**-2.0
    e1 = (0.0 - 2.0 * a1 * e0) / a0
    e2 = (0.0 - 3.0 * a1 * e1 - 4.0 * a2 * e0) / a0x2
    b4 = (0.0 - 4.0 * a1 * e2 - 5.0 * a2 * e1 - 6.0 * a3 * e0) / a0x3 / 4.0
    e0 = a0**-2.5
    e1 = (0.0 - 2.5 * a1 * e0) / a0
    e2 = (0.0 - 3.5 * a1 * e1 - 5.0 * a2 * e0) / a0x2
    e3 = (0.0 - 4.5 * a1 * e2 - 6.0 * a2 * e1 - 7.5 * a3 * e0) / a0x3
    b5 = (0.0 - 5.5 * a1 * e3 - 7.0 * a2 * e2 - 8.5 * a3 * e1 - 10.0 * a4 * e0) / a0x4 / 5.0
    if unknown == "y":
        return np.array([v0, -b1, b2, -b3, b4, -b5])
    return np.array([v0, b1, b2, b3, b4, b5])


def x_zeta_coeffs(sp: ShapeParams, y: float) -> np.ndarray:
    """Coefficients of x = x0 + x1 zeta + ... + x5 zeta^5 along the family
    with fixed (p, q, y); x0 is the transition noncentrality.  Requires
    q - r (1-y)^2 > 0 (real linear coefficient); outside that region
    inversion falls back to root solving."""
    if not 0.0 < y < 1.0:
        raise DomainError(f"transition series needs 0 < y < 1, got {y}")
    q, r = sp.q, sp.r
    radicand = q - r * (1.0 - y) * (1.0 - y)
    if radicand <= 0.0:
        raise SeriesInvalidError(
            f"x(zeta) series invalid: q - r(1-y)^2 = {radicand:.3e} <= 0 at y={y}"
        )
    x0 = sp.transition_noncentrality(y)
    xi1 = y / (2.0 * r)
    # psi'(x) = xi1 (tp - t0(x)); psi = zeta^2 / 2 vanishes to second order at x0
    T = _t0_series5(sp.cos2, x0 * xi1, xi1)
    return _zeta_revert5([-xi1 * t for t in T], x0, "x")


def y_zeta_coeffs(sp: ShapeParams, x: float) -> np.ndarray:
    """Coefficients of y = y0 + y1 zeta + ... + y5 zeta^5 along the family
    with fixed (p, q, x); y0 is the transition quantile.  Always real for
    x >= 0, but they divide by powers of 1 - y0: where y0 rounds to 1 (x
    of order 1e16 q and above) the series is invalid."""
    if x < 0.0:
        raise DomainError(f"noncentrality must be nonnegative, got {x}")
    p, q, r = sp.p, sp.q, sp.r
    y0 = sp.transition_quantile(x)
    om = 1.0 - y0
    if om == 0.0:
        raise SeriesInvalidError(f"y(zeta) series invalid: the transition quantile rounds to 1 at x={x}")
    xi1 = x / (2.0 * r)
    T = _t0_series5(sp.cos2, y0 * xi1, xi1)
    # psi'(y) = -p/(r y) + q/(r (1-y)) - xi1 t0(xi(y)), developed about y0
    cp, cq = -(p / r), q / r
    psip = [
        cp * ((-1.0) ** k / y0 ** (k + 1)) + cq * (1.0 / om ** (k + 1)) - xi1 * T[k - 1]
        for k in range(1, 6)
    ]
    return _zeta_revert5(psip, y0, "y")


def zeta_series_value(coeffs, zeta: float, unknown: str) -> float:
    """The transition series of ``x_zeta_coeffs`` (unknown "x") or
    ``y_zeta_coeffs`` (unknown "y") summed at zeta by Horner's rule, in the
    float operations of ``ps_eval``.  Raises SeriesInvalidError where the
    value leaves the unknown's domain, x >= 0 or 0 < y < 1."""
    c0, c1, c2, c3, c4, c5 = coeffs.tolist()
    v = (((((0.0 * zeta + c5) * zeta + c4) * zeta + c3) * zeta + c2) * zeta + c1) * zeta + c0
    if not (v >= 0.0 if unknown == "x" else 0.0 < v < 1.0):
        raise SeriesInvalidError(f"{unknown}(zeta) series left the domain ({unknown}={v:.3e})")
    return v

"""Foundation scalar special functions.

Log-gamma, log-beta, complementary error function (plain, scaled, inverse),
the Kummer function M(a, b, z) in log form, Kummer ratios by continued
fraction, and the regularized incomplete beta I_y(p, q).

Everything in this module is a pure function of its float arguments.  The
``_``-prefixed cores take no checks; the public wrappers validate inputs
and raise typed exceptions.

One modified Lentz loop, ``_lentz``, serves the three continued fractions
off the hot path: erfcx, the Kummer ratio and the recurrence's minimal
ratio.  The incomplete-beta fraction ``_betacf`` keeps its own inline loop
because every series window spends its time there.
"""

from __future__ import annotations

import math

from .errors import DomainError, EvaluationError

INV_SQRT_PI = 0.5641895835477562869480795  # 1/sqrt(pi)
SQRT_PI_HALF = 0.8862269254527580136491  # sqrt(pi)/2
_FPMIN = 1e-300
_LN_1E280 = 280.0 * math.log(10.0)  # the log of _kummer_m_log's rescale factor


def _stirling_delta(x):
    """Stirling-series tail: lgamma(x) - ((x-1/2) ln x - x + ln(2 pi)/2),
    through the x^-13 term.  The first omitted term, 3617/(122400 x^15), is
    3e-17 at x = 10; for x >= 10 the error stays below 1e-16 absolute."""
    w = 1.0 / (x * x)
    return (
        1.0 / 12.0
        + w
        * (
            -1.0 / 360.0
            + w * (1.0 / 1260.0 + w * (-1.0 / 1680.0 + w * (1.0 / 1188.0 + w * (-691.0 / 360360.0 + w / 156.0))))
        )
    ) / x


def _log_beta(p, q):
    """ln B(p, q).

    For large arguments the naive lgamma(p) + lgamma(q) - lgamma(p+q) loses
    absolute accuracy to cancellation (the intermediates dwarf the result),
    so grouped Stirling forms are used once arguments exceed 10."""
    a = min(p, q)
    b = max(p, q)
    r = p + q
    if a >= 10.0:
        # 0.5 ln(2 pi) - 0.5 ln r + (p-1/2) ln(p/r) + (q-1/2) ln(q/r) + corrections
        return (
            0.9189385332046727417803297
            - 0.5 * math.log(r)
            + (a - 0.5) * math.log(a / r)
            + (b - 0.5) * math.log1p(-a / r)
            + _stirling_delta(a)
            + _stirling_delta(b)
            - _stirling_delta(r)
        )
    if b >= 10.0:
        # lgamma(a) - [lgamma(a + b) - lgamma(b)], the bracket in grouped form
        diff = (
            a * math.log(b)
            + (r - 0.5) * math.log1p(a / b)
            - a
            + _stirling_delta(r)
            - _stirling_delta(b)
        )
        return math.lgamma(a) - diff
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(r)


def _log_beta_pre(p, q, y):
    """log( y^p (1-y)^q / B(p, q) ), the incomplete-beta prefactor.

    Grouped so that intermediate magnitudes stay near the magnitude of the
    result; the naive sum of three large logs loses a digit for every two
    orders of magnitude of headroom.  Near the mode y = p/(p+q), where
    t = yq - (1-y)p is small, the p- and q-sized multiples are taken as
    log1p of t/p and -t/q, which shares one rounding of t between them
    instead of multiplying the rounding of two logs by p and q."""
    if y <= 0.0 or y >= 1.0:
        return -math.inf
    r = p + q
    if min(p, q) >= 10.0:
        t = y * q - (1.0 - y) * p
        if abs(t) <= 0.5 * min(p, q):
            main = p * math.log1p(t / p) + q * math.log1p(-t / q)
        else:
            main = p * math.log(y * r / p) + q * math.log((1.0 - y) * r / q)
        return (
            main
            + 0.5 * math.log(p * q / (6.283185307179586476925287 * r))
            - _stirling_delta(p)
            - _stirling_delta(q)
            + _stirling_delta(r)
        )
    return p * math.log(y) + q * math.log1p(-y) - _log_beta(p, q)


def _lentz(b0, pairs, tol):
    """Modified Lentz evaluation of b0 + a_1/(b_1 + a_2/(b_2 + ...)) over the
    partial pairs (a_k, b_k) of ``pairs``, stopping at the first step whose
    factor is within ``tol`` of 1.  Returns (value, converged); converged is
    False when the pairs run out first."""
    f = b0 if b0 != 0.0 else _FPMIN
    c = f
    d = 0.0
    for a, b in pairs:
        d = b + a * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + a / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < tol:
            return f, True
    return f, False


def _betacf(a, b, x):
    """Modified Lentz evaluation of the standard continued fraction for the
    regularized incomplete beta ratio.  Converges best for
    x < (a + 1)/(a + b + 2).  Returns nan when 3000 iterations do not reach
    a 3e-16 step; callers must treat nan as non-convergence.  The loop is
    written out rather than run through ``_lentz``: this is the hot kernel
    of every series window."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 3001):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 3e-16:
            return h
    return math.nan


def _betainc_front(p, q, y):
    """The continued-fraction side of I_y(p, q) for 0 < y < 1, as
    (front, cf, flip): I_y(p, q) = e^front cf, or 1 - e^front cf where flip.
    Uses the symmetry I_y(p,q) = 1 - I_{1-y}(q,p) to stay in the rapidly
    converging branch of the continued fraction (switch at
    y > (p+1)/(p+q+2)); the prefactor is assembled in log space."""
    lpre = _log_beta_pre(p, q, y)
    if y < (p + 1.0) / (p + q + 2.0):
        cf = _betacf(p, q, y)
        return lpre - math.log(p), cf, False
    cf = _betacf(q, p, 1.0 - y)
    return lpre - math.log(q), cf, True


def _betainc(p, q, y):
    """Regularized incomplete beta I_y(p, q) (``_betainc_front``)."""
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return 1.0
    front, cf, flip = _betainc_front(p, q, y)
    if front < -745.0:
        return 1.0 if flip else 0.0
    v = math.exp(front) * cf
    return 1.0 - v if flip else v


def _betainc_scaled(p, q, y, shift):
    """I_y(p, q) * e^{-shift}, assembled in log space.  Used by callers that
    work in a scaled regime; values that would land below the normal double
    range (where precision degrades) flush to zero instead."""
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return math.exp(-shift) if -shift < 709.0 else math.inf
    front, cf, flip = _betainc_front(p, q, y)
    if not flip:
        front -= shift
        return 0.0 if front < -700.0 else math.exp(front) * cf
    v = 1.0 - math.exp(front) * cf if front > -745.0 else 1.0
    ls = math.log(v) - shift
    return math.exp(ls) if ls < 709.0 else math.inf


def _erfcx_pos(z):
    """Scaled complementary error function e^{z^2} erfc(z) for z >= 0.

    For z < 1 the product with libm erfc is exact enough; for z >= 1 the
    Laplace continued fraction avoids the underflowing e^{-z^2} factor."""
    if z < 1.0:
        return math.exp(z * z) * math.erfc(z)
    f, _ = _lentz(z, ((0.5 * k, z) for k in range(1, 10001)), 1e-17)
    return INV_SQRT_PI / f


def _inv_erfc(s):
    """Inverse of erfc on (0, 2): rational seed, then Newton in erfc."""
    if s == 1.0:
        return 0.0
    flip = s > 1.0
    ss = 2.0 - s if flip else s
    t = math.sqrt(-2.0 * math.log(0.5 * ss))
    zz = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    zz *= 0.7071067811865475244
    for _ in range(4):
        e = math.erfc(zz) - ss
        zz += e * SQRT_PI_HALF * math.exp(zz * zz)
    if flip:
        return -zz
    return zz


def _kummer_m_log(a, b, z):
    """log M(a, b, z) for a, b > 0 and z >= 0.

    All series terms are positive, so plain summation is stable; the running
    sum is rescaled to avoid overflow (M grows like e^z and faster when
    a >> b).  Returns nan if 10^6 terms do not converge."""
    if z == 0.0:
        return 0.0
    term = 1.0
    s = 1.0
    logscale = 0.0
    for n in range(1000000):
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        s += term
        if term < 1e-17 * s:
            return math.log(s) + logscale
        if s > 1e280:
            s *= 1e-280
            term *= 1e-280
            logscale += _LN_1E280
    return math.nan


def _kummer_ratio_pp(a, b, z):
    """M(a+1, b+1, z)/M(a, b, z) by the confluent Gauss continued fraction.

    Partial numerators over unit denominators:
      v_{2j+1} = (a - b - j) z / ((b + 2j)(b + 2j + 1))
      v_{2j}   = (a + j) z / ((b + 2j - 1)(b + 2j))
    M is the minimal solution of the recurrence shifting both parameters up,
    which makes the fraction convergent.  Returns nan on non-convergence."""
    if z == 0.0:
        return 1.0

    def v(k):
        j = k // 2
        if k % 2 == 1:
            return (a - b - j) * z / ((b + 2 * j) * (b + 2 * j + 1))
        return (a + j) * z / ((b + 2 * j - 1) * (b + 2 * j))

    f, converged = _lentz(1.0, ((v(k), 1.0) for k in range(1, 10001)), 1e-16)
    return 1.0 / f if converged else math.nan


# ---------------------------------------------------------------------------
# public wrappers


def log_gamma(a: float) -> float:
    """Natural log of Gamma(a) for a > 0."""
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"log_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def log_beta(p: float, q: float) -> float:
    """ln B(p, q) = ln Gamma(p) + ln Gamma(q) - ln Gamma(p + q)."""
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"log_beta requires p, q > 0, got ({p}, {q})")
    return _log_beta(p, q)


def erfc(z: float) -> float:
    """Complementary error function (2/sqrt(pi)) * integral_z^inf e^{-t^2} dt."""
    return math.erfc(z)


def erfcx(z: float) -> float:
    """Scaled complementary error function e^{z^2} erfc(z)."""
    if z >= 0.0:
        return _erfcx_pos(z)
    if z < -26.7:
        raise EvaluationError("erfcx overflows for z < -26.7")
    return math.exp(z * z) * math.erfc(z)


def erfc_scaled(z: float) -> tuple[float, float]:
    """erfc(z) as a pair (mantissa, exponent) with erfc(z) = mantissa * e^exponent.

    For z <= 0 the exponent is 0; for z > 0 the pair survives far past the
    plain double underflow near z ~ 26.5."""
    if z <= 0.0:
        return math.erfc(z), 0.0
    return _erfcx_pos(z), -z * z


def inv_erfc(s: float) -> float:
    """The z with erfc(z) = s, for s in (0, 2)."""
    if not 0.0 < s < 2.0:
        raise DomainError(f"inv_erfc requires s in (0, 2), got {s}")
    return _inv_erfc(s)


def kummer_m_log(a: float, b: float, z: float) -> float:
    """log M(a, b, z), the Kummer confluent hypergeometric function in log form.

    Restricted to a > 0, b > 0, z >= 0 where every series term is positive."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"kummer_m_log requires a, b > 0, got ({a}, {b})")
    if not (z >= 0.0 and math.isfinite(z)):
        raise DomainError(f"kummer_m_log requires z >= 0, got {z}")
    v = _kummer_m_log(a, b, z)
    if math.isnan(v):
        raise EvaluationError(
            f"Kummer series for M({a}, {b}, {z}) did not converge within 10^6 terms; "
            "the evaluation regime is likely mis-dispatched"
        )
    return v


def kummer_ratio_shift11(a: float, b: float, z: float) -> float:
    """M(a+1, b+1, z)/M(a, b, z) via continued fraction, with a direct-series
    quotient fallback if the fraction stalls."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"kummer_ratio_shift11 requires a, b > 0, got ({a}, {b})")
    if not (z >= 0.0 and math.isfinite(z)):
        raise DomainError(f"kummer_ratio_shift11 requires z >= 0, got {z}")
    v = _kummer_ratio_pp(a, b, z)
    if math.isnan(v):
        v = math.exp(_kummer_m_log(a + 1.0, b + 1.0, z) - _kummer_m_log(a, b, z))
        if math.isnan(v):
            raise EvaluationError(
                f"Kummer ratio M({a + 1},{b + 1},{z})/M({a},{b},{z}) failed to converge"
            )
    return v


def central_beta_cdf(p: float, q: float, y: float) -> float:
    """Regularized incomplete beta I_y(p, q), the central beta CDF."""
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"central_beta_cdf requires p, q > 0, got ({p}, {q})")
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"central_beta_cdf requires y in [0, 1], got {y}")
    v = _betainc(p, q, y)
    if math.isnan(v):
        raise EvaluationError(f"incomplete beta continued fraction stalled at ({p}, {q}, {y})")
    return v

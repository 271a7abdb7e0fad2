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

The series' many-point form plans its windows as columns, one array entry
a point: ``_log_beta_pre_columns`` and ``_betacf_columns`` are the
prefactor and the fraction over arrays, each entry formed by the float
operations of the scalar form.  numpy's + - * / and sqrt round as Python's
floats do, but its exp, log and log1p do not always, so every
transcendental call maps ``math`` over the entries (``_each``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, EvaluationError

INV_SQRT_PI = 0.5641895835477562869480795  # 1/sqrt(pi)
SQRT_PI_HALF = 0.8862269254527580136491  # sqrt(pi)/2
_FPMIN = 1e-300
# below this many active entries ``_betacf_columns`` runs the scalar loop
# (16 to 32 were fastest on eval-mixed's far-end fractions, 1000 at once)
_BETACF_SCALAR_ROWS = 24
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


def _each(f, a):
    """The float function f of ``math`` over the entries of the 1-D array a,
    as an array: bitwise the scalar calls, which numpy's ufuncs are not."""
    return np.fromiter(map(f, a.tolist()), float, a.size)


def _log_beta_columns(p, q):
    """``_log_beta`` over arrays with min(p, q) < 10 (the form
    ``_log_beta_pre_columns`` needs), entry by entry bitwise."""
    a = np.minimum(p, q)
    b = np.maximum(p, q)
    r = p + q
    out = np.empty(p.shape)
    big = b >= 10.0
    if big.any():
        a1, b1, r1 = a[big], b[big], r[big]
        diff = (
            a1 * _each(math.log, b1)
            + (r1 - 0.5) * _each(math.log1p, a1 / b1)
            - a1
            + _stirling_delta(r1)
            - _stirling_delta(b1)
        )
        out[big] = _each(math.lgamma, a1) - diff
    small = ~big
    if small.any():
        out[small] = _each(math.lgamma, p[small]) + _each(math.lgamma, q[small]) - _each(math.lgamma, r[small])
    return out


def _log_beta_pre_columns(p, q, y):
    """``_log_beta_pre`` over arrays with 0 < y < 1, entry by entry bitwise:
    each entry takes the scalar form's branch and its float operations."""
    r = p + q
    lo = np.minimum(p, q)
    out = np.empty(p.shape)
    big = lo >= 10.0
    if big.any():
        p1, q1, y1, r1 = p[big], q[big], y[big], r[big]
        t = y1 * q1 - (1.0 - y1) * p1
        near = np.abs(t) <= 0.5 * lo[big]
        main = np.empty(p1.shape)
        if near.any():
            pn, qn, tn = p1[near], q1[near], t[near]
            main[near] = pn * _each(math.log1p, tn / pn) + qn * _each(math.log1p, -tn / qn)
        far = ~near
        if far.any():
            pf, qf, yf, rf = p1[far], q1[far], y1[far], r1[far]
            main[far] = pf * _each(math.log, yf * rf / pf) + qf * _each(math.log, (1.0 - yf) * rf / qf)
        out[big] = (
            main
            + 0.5 * _each(math.log, p1 * q1 / (6.283185307179586476925287 * r1))
            - _stirling_delta(p1)
            - _stirling_delta(q1)
            + _stirling_delta(r1)
        )
    small = ~big
    if small.any():
        p1, q1, y1 = p[small], q[small], y[small]
        out[small] = p1 * _each(math.log, y1) + q1 * _each(math.log1p, -y1) - _log_beta_columns(p1, q1)
    return out


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
    of every series window, and its clamps and stop are chained
    comparisons on locals (-t < v < t is abs(v) < t), which call no
    builtin."""
    fpmin = _FPMIN
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -fpmin < d < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 3001):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -3e-16 <= delta - 1.0 <= 3e-16:
            return h
    return math.nan


def _betacf_columns(a, b, x):
    """``_betacf`` over arrays, one fraction an entry, bitwise: one masked
    Lentz loop, in which each entry runs the scalar loop's float operations
    and leaves the active set at its own stop.  A step over the array costs
    about as much as a few dozen scalar steps, so the last
    ``_BETACF_SCALAR_ROWS`` entries run the scalar loop from the start
    instead.  Float overflow, silent in the scalar loop, is silent here."""
    fpmin = _FPMIN
    out = np.full(a.shape, math.nan)
    live = np.arange(a.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(a.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1.0 - qab * x / qap
        d[np.abs(d) < fpmin] = fpmin
        d = 1.0 / d
        h = d.copy()
        for m in range(1, 3001):
            if live.size < _BETACF_SCALAR_ROWS:
                break
            m2 = 2 * m
            am2 = a + m2
            aa = m * (b - m) * x / ((qam + m2) * am2)
            d = 1.0 + aa * d
            c = 1.0 + aa / c
            _clamp(d)
            _clamp(c)
            d = 1.0 / d
            h *= d * c
            aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
            d = 1.0 + aa * d
            c = 1.0 + aa / c
            _clamp(d)
            _clamp(c)
            d = 1.0 / d
            delta = d * c
            h *= delta
            stop = np.abs(delta - 1.0) <= 3e-16
            if stop.any():
                out[live[stop]] = h[stop]
                keep = ~stop
                live, a, b, x, qab, qap, qam, c, d, h = (v[keep] for v in (live, a, b, x, qab, qap, qam, c, d, h))
    out[live] = [_betacf(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())]
    return out


def _clamp(v):
    """The Lentz clamp in place: entries below _FPMIN in magnitude become
    _FPMIN (each checked once; in the fraction's loops they are rare)."""
    if np.abs(v).min() < _FPMIN:
        v[np.abs(v) < _FPMIN] = _FPMIN


def _betainc(p, q, y):
    """Regularized incomplete beta I_y(p, q).  Uses the symmetry
    I_y(p,q) = 1 - I_{1-y}(q,p) to stay in the rapidly converging branch of
    the continued fraction (switch at y > (p+1)/(p+q+2)); the prefactor is
    assembled in log space."""
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return 1.0
    lpre = _log_beta_pre(p, q, y)
    if y < (p + 1.0) / (p + q + 2.0):
        front = lpre - math.log(p)
        return 0.0 if front < -745.0 else math.exp(front) * _betacf(p, q, y)
    front = lpre - math.log(q)
    return 1.0 if front < -745.0 else 1.0 - math.exp(front) * _betacf(q, p, 1.0 - y)


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
    which makes the fraction convergent.  Where a < b < z its odd partial
    numerators start near -(b - a) z / b^2, and it can meet its stop on a
    wrong value, even a negative one: at (0.124, 99.7, 268.5) it
    gives -900.5 for 503.8, at (1, 10, 1e5) 3.27 for 9.999.  On 20000 draws
    with a, b log-uniform on [0.1, 3000] and z uniform on [0, 300] it stays
    within 3.1e-13 of the series quotient everywhere else.  Returns nan
    there, as on non-convergence, for the caller's series quotient."""
    if z == 0.0:
        return 1.0
    if a < b < z:
        return math.nan

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
    """M(a+1, b+1, z)/M(a, b, z) via continued fraction, with the quotient of
    the direct series where the fraction stalls or cannot be trusted
    (a < b < z, ``_kummer_ratio_pp``)."""
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

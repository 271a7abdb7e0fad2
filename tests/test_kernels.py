import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncbeta import series
from ncbeta.errors import DomainError
from ncbeta.kernels import (
    _BETACF_SCALAR_ROWS,
    _betacf,
    _betacf_columns,
    _kummer_ratio_pp,
    _lentz,
    _stirling_delta,
    central_beta_cdf,
    erfc,
    erfc_scaled,
    erfcx,
    inv_erfc,
    kummer_m_log,
    kummer_ratio_shift11,
    log_beta,
    log_gamma,
)

mp.mp.dps = 40


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_duplication_identity(self):
        # Gamma(2a) = Gamma(a) Gamma(a + 1/2) 2^(2a-1) / sqrt(pi) at a = 5.25
        a = 5.25
        lhs = log_gamma(2 * a)
        rhs = log_gamma(a) + log_gamma(a + 0.5) + (2 * a - 1) * math.log(2.0) - 0.5 * math.log(math.pi)
        assert abs(lhs - rhs) <= 4e-15 * abs(lhs)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestLogBeta:
    def test_trivial_values(self):
        assert log_beta(1.0, 1.0) == 0.0
        assert abs(log_beta(2.0, 1.0) - math.log(0.5)) < 5e-16

    def test_product_recursion_from_b_10_1(self):
        # B(p, q) = B(p, q-1) (q-1)/(p+q-1), seeded at B(10, 1) = 1/10
        val = 0.1
        for q in range(2, 16):
            val = val * (q - 1) / (10 + q - 1)
        assert abs(log_beta(10.0, 15.0) - math.log(val)) <= 1e-13

    def test_large_argument_absolute_accuracy(self):
        for (p, q) in [(255.0, 200.0), (1000.0, 1200.0), (0.5, 2000.0), (12.0, 9.5)]:
            ref = float(mp.log(mp.beta(p, q)))
            assert abs(log_beta(p, q) - ref) <= 5e-13 * max(1.0, abs(ref))


class TestStirlingDelta:
    @pytest.mark.parametrize("x", [10.0, 12.0, 20.0, 50.0, 1e3])
    def test_matches_mpmath(self, x):
        xm = mp.mpf(x)
        ref = mp.loggamma(xm) - ((xm - mp.mpf(1) / 2) * mp.log(xm) - xm + mp.log(2 * mp.pi) / 2)
        assert abs(_stirling_delta(x) - float(ref)) <= 1e-16


class TestErfc:
    def test_trivial(self):
        assert erfc(0.0) == 1.0

    def test_reflection(self):
        z = 0.7
        assert abs(erfc(z) + erfc(-z) - 2.0) <= 4e-16

    def test_accuracy_grid(self):
        zs = np.linspace(-26.0, 26.0, 301)
        for z in zs:
            ref = mp.erfc(float(z))
            assert abs(erfc(float(z)) - ref) <= 1e-15 * abs(ref)

    def test_scaled_pair(self):
        for z in (0.3, 2.0, 5.0, -1.5):
            m, e = erfc_scaled(z)
            assert abs(m * math.exp(e) - erfc(z)) <= 1e-15 * erfc(z)
        # far past the plain underflow the pair still carries the value
        m, e = erfc_scaled(40.0)
        ref = mp.erfc(40)
        assert abs(mp.mpf(m) * mp.e**mp.mpf(e) - ref) / ref < 1e-13

    def test_erfcx_matches_reference(self):
        for z in (0.0, 0.5, 1.0, 3.0, 27.0, 50.0):
            ref = float(mp.erfc(z) * mp.exp(mp.mpf(z) ** 2))
            assert abs(erfcx(z) - ref) <= 2e-15 * ref


class TestInvErfc:
    def test_trivial(self):
        assert inv_erfc(1.0) == 0.0

    def test_round_trip(self):
        assert abs(erfc(inv_erfc(0.3)) - 0.3) <= 1e-13

    def test_round_trip_grid(self):
        for s in np.geomspace(1e-10, 1.0, 40):
            assert abs(erfc(inv_erfc(float(s))) - s) <= 1e-13 * s
            s2 = 2.0 - float(s)
            assert abs(erfc(inv_erfc(s2)) - s2) <= 1e-13

    def test_boundary_layer_seed_value(self):
        # zeta0 = inv_erfc(2 z) sqrt(2/r) at z = 0.4, r = 25
        zeta0 = inv_erfc(0.8) * math.sqrt(2.0 / 25.0)
        assert abs(zeta0 - 0.05067) <= 5e-5

    def test_domain(self):
        for s in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(DomainError):
                inv_erfc(s)


class TestKummerM:
    def test_trivial_z_zero(self):
        assert kummer_m_log(3.0, 4.0, 0.0) == 0.0

    def test_closed_form_m_1_2(self):
        z = 0.5
        ref = (math.exp(z) - 1.0) / z
        assert abs(math.exp(kummer_m_log(1.0, 2.0, z)) - ref) <= 1e-14 * ref

    def test_transformation_self_consistency(self):
        # M(a, b, z) = e^z M(b-a, b, -z): with b > a both sides are
        # computable through positive series via M(b-a, b, z') reversal
        a, b, z = 2.0, 11.0, 1.0
        lhs = math.exp(kummer_m_log(a, b, z))
        rhs = math.exp(z) * float(mp.hyp1f1(b - a, b, -z))
        assert abs(lhs - rhs) <= 1e-13 * rhs
        v = math.exp(kummer_m_log(25.0, 11.0, 4.5 * 0.45 / 2.0))
        ref = float(mp.hyp1f1(25, 11, 4.5 * 0.45 / 2))
        assert abs(v - ref) <= 1e-13 * ref

    def test_monotone_in_z(self):
        vals = [kummer_m_log(3.0, 5.0, z) for z in (0.0, 0.5, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_scale_no_overflow(self):
        # the running sum passes 1e280 and is rescaled: log M is near 1485
        v = kummer_m_log(2200.0, 30.0, 250.0)
        assert abs(v - float(mp.log(mp.hyp1f1(2200, 30, 250)))) <= 1e-12

    def test_rescale_adds_ln_1e280(self):
        # each rescale by 1e-280 must add ln(1e280) = 644.7238260383328 to
        # the log; a wrong constant puts log M off by its error per rescale
        a, b, z = 1703.7966, 16.5866, 78.1131
        ref = mp.log(mp.hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(z)))
        assert abs(kummer_m_log(a, b, z) - float(ref)) <= 1e-12


class TestLentz:
    def test_known_fraction(self):
        # sqrt(2) - 1 = 1/(2 + 1/(2 + ...))
        value, converged = _lentz(0.0, ((1.0, 2.0) for _ in range(100)), 1e-15)
        assert converged
        assert abs(value - (math.sqrt(2.0) - 1.0)) <= 2e-16

    def test_reports_exhausted_pairs(self):
        # three levels stop short of the 1e-15 step: the value is the convergent 1/(2 + 1/(2 + 1/2))
        value, converged = _lentz(0.0, [(1.0, 2.0)] * 3, 1e-15)
        assert not converged
        assert abs(value - 5.0 / 12.0) <= 1e-16


class TestKummerRatio:
    def test_trivial_z_zero(self):
        assert kummer_ratio_shift11(3.0, 7.0, 0.0) == 1.0

    def test_direct_quotient_examples(self):
        for (a, b, z) in [(24.0, 10.0, 11.25), (5.0, 6.0, 50.0)]:
            quot = math.exp(kummer_m_log(a + 1, b + 1, z) - kummer_m_log(a, b, z))
            assert abs(kummer_ratio_shift11(a, b, z) - quot) <= 1e-13 * quot

    def test_quotient_grid(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            a = rng.uniform(0.5, 200.0)
            b = rng.uniform(0.5, 200.0)
            z = rng.uniform(0.0, 100.0)
            cf = kummer_ratio_shift11(a, b, z)
            quot = math.exp(kummer_m_log(a + 1, b + 1, z) - kummer_m_log(a, b, z))
            assert abs(cf - quot) <= 1e-13 * quot

    def test_series_quotient_fallback(self):
        # at z = 8e5 the fraction runs out of its 10^4 levels; the series still converges
        a, b, z = 1.0, 10.0, 8e5
        assert math.isnan(_kummer_ratio_pp(a, b, z))
        quot = math.exp(kummer_m_log(a + 1, b + 1, z) - kummer_m_log(a, b, z))
        assert kummer_ratio_shift11(a, b, z) == quot
        ref = mp.hyp1f1(a + 1, b + 1, z) / mp.hyp1f1(a, b, z)
        assert abs(quot - ref) <= 1e-8 * ref


    @pytest.mark.parametrize(
        "a, b, z",
        [(0.12411424049938047, 99.70591395564766, 268.46902472552586), (1.0, 10.0, 1e5), (0.1, 10.0, 1e5)],
    )
    def test_large_z_above_b_against_mpmath(self, a, b, z):
        # the fraction once returned -900.54, 3.2735 and 0.006475 here
        with mp.workdps(40):
            ref = mp.hyp1f1(a + 1, b + 1, z) / mp.hyp1f1(a, b, z)
        assert abs(kummer_ratio_shift11(a, b, z) - ref) <= 1e-10 * ref

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(math.log(0.1), math.log(3000.0)).map(math.exp),
        st.floats(math.log(0.1), math.log(3000.0)).map(math.exp),
        st.floats(0.0, 300.0),
    )
    @example(0.12411424049938047, 99.70591395564766, 268.46902472552586)
    def test_agrees_with_the_series_quotient(self, a, b, z):
        # the ratio lies between 1 and b/a
        v = kummer_ratio_shift11(a, b, z)
        assert v > 0.0
        quot = math.exp(kummer_m_log(a + 1, b + 1, z) - kummer_m_log(a, b, z))
        assert abs(v - quot) <= 1e-8 * quot


def betacf_loop(a, b, x):
    """``_betacf`` as its loop was written with abs() clamps and stop, kept
    as the reference for the chained comparisons.  Returns (value, the
    clamps that fired): 0 before the loop, then d and c of the odd step
    (1, 2) and of the even step (3, 4)."""
    fired = set()
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
        fired.add(0)
    d = 1.0 / d
    h = d
    for m in range(1, 3001):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
            fired.add(1)
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
            fired.add(2)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
            fired.add(3)
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
            fired.add(4)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 3e-16:
            return h, fired
    return math.nan, fired


@st.composite
def far_end_arguments(draw):
    """(a, b, z) of the fraction a series plan runs for its far-end seed,
    at a point of the eval-mixed and invert-mixed ranges: p, q
    log-uniform on [0.5, 2000], x on [0, 500], y on [0.001, 0.999]."""
    p, q = (math.exp(draw(st.floats(math.log(0.5), math.log(2000.0)))) for _ in range(2))
    x = draw(st.floats(0.01, 500.0))
    y = draw(st.floats(0.001, 0.999))
    complement = draw(st.booleans())
    row = series._row_plan(p, q, x, y, complement)
    if row is None:
        return 1.0, 3.0, 0.5
    return series._far_end(p, q, y, row.j_lo, row.n, complement)


class TestBetaFraction:
    @staticmethod
    def same(got, ref):
        return np.float64(got).tobytes() == np.float64(ref).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(far_end_arguments())
    def test_matches_the_abs_loop_bit_for_bit(self, args):
        assert self.same(_betacf(*args), betacf_loop(*args)[0])

    @pytest.mark.parametrize(
        "args, clamp",
        [
            ((1.0, 3.0, 0.5), 0),  # the first d is exactly 0
            ((0.25, 1.75, 0.625), 0),
            ((0.25, 4.75, 0.375), 1),
            ((1.0, 0.5, 12.0), 2),  # x past 1: the odd step's c is 1 - 1; no stop in 3000 steps
            ((1.0, 7.0, 0.5), 3),
            ((2.0, 8.0, 0.9375), 4),
        ],
    )
    def test_each_clamp_bit_for_bit(self, args, clamp):
        ref, fired = betacf_loop(*args)
        assert clamp in fired
        assert self.same(_betacf(*args), ref)


class TestBetaFractionColumns:
    # each clamp case of TestBetaFraction, repeated past the size below
    # which the columnar loop hands its entries to the scalar one
    CLAMPS = [(1.0, 3.0, 0.5), (0.25, 1.75, 0.625), (0.25, 4.75, 0.375), (1.0, 0.5, 12.0), (1.0, 7.0, 0.5),
              (2.0, 8.0, 0.9375)]

    @staticmethod
    def check(args):
        a, b, z = (np.array(v, dtype=float) for v in zip(*args))
        got = _betacf_columns(a, b, z)
        want = np.array([_betacf(*v) for v in args])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(far_end_arguments(), min_size=1, max_size=120))
    def test_matches_the_scalar_loop_bit_for_bit(self, args):
        self.check(args)

    def test_each_clamp_bit_for_bit(self):
        self.check(self.CLAMPS * _BETACF_SCALAR_ROWS)


class TestCentralBeta:
    def test_boundaries(self):
        assert central_beta_cdf(3.0, 4.0, 0.0) == 0.0
        assert central_beta_cdf(3.0, 4.0, 1.0) == 1.0

    def test_reference_value(self):
        # the zero-noncentrality bound used by the inversion examples
        assert abs(central_beta_cdf(10.0, 15.0, 0.45) - 0.7009) <= 2e-4

    def test_complement_symmetry_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            p = rng.uniform(0.5, 300.0)
            q = rng.uniform(0.5, 300.0)
            y = rng.uniform(0.01, 0.99)
            s = central_beta_cdf(p, q, y) + central_beta_cdf(q, p, 1.0 - y)
            assert abs(s - 1.0) <= 1e-14

    def test_against_reference_library(self):
        rng = np.random.default_rng(102)
        for _ in range(25):
            p = rng.uniform(0.5, 500.0)
            q = rng.uniform(0.5, 500.0)
            y = rng.uniform(0.02, 0.98)
            ref = mp.betainc(p, q, 0, y, regularized=True)
            got = central_beta_cdf(p, q, y)
            if ref > 1e-300:
                assert abs(got - ref) / ref <= 5e-13

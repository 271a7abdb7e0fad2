import math

import mpmath as mp
import numpy as np
import pytest

from ncbeta.errors import DomainError
from ncbeta.kernels import (
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

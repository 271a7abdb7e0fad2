import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import ncbeta
from ncbeta import series
from ncbeta.errors import DomainError
from ncbeta.kernels import central_beta_cdf
from ncbeta.params import EvalPoint, ProbabilityPair, ShapeParams
from ncbeta.series import (
    central_term_sequence,
    eval_series,
    eval_type2_qfunction,
    noncentral_f_cdf,
    poisson_window,
)

SP = ShapeParams(10.0, 15.0)


def member_reference(p, q, x, y, complement, dps=30):
    """One series member in dps-digit arithmetic.  Both term sequences are
    built in their stable direction from one direct mpmath value: I_y(p+j, q)
    downward from the top of a wide window by adding the increments, and
    I_{1-y}(q, p+j) upward from j = 0 until the Poisson tail (with terms at
    most 1) falls below 10^-dps of the sum."""
    with mp.workdps(dps):
        p, q, x, y = (mp.mpf(v) for v in (p, q, x, y))
        h = x / 2
        w = mp.exp(-h)
        s = mp.mpf(0)
        if not complement:
            top = int(math.ceil(float(h) + 16.0 * math.sqrt(float(h)) + 80.0))
            i_j = mp.betainc(p + top, q, 0, y, regularized=True)
            d = mp.exp((p + top) * mp.log(y) + q * mp.log1p(-y) - mp.log(mp.beta(p + top, q)) - mp.log(p + top))
            terms = [i_j]
            for j in range(top - 1, -1, -1):
                d = d * (p + j + 1) / (y * (p + q + j))
                i_j = i_j + d
                terms.append(i_j)
            for j, t in enumerate(reversed(terms)):
                s += w * t
                w = w * h / (j + 1)
            return s
        g = mp.betainc(q, p, 0, 1 - y, regularized=True)
        d = mp.exp(p * mp.log(y) + q * mp.log1p(-y) - mp.log(mp.beta(p, q)) - mp.log(p))
        j = 0
        while True:
            s += w * g
            g, d = g + d, d * y * (p + q + j) / (p + j + 1)
            w = w * h / (j + 1)
            j += 1
            if j > h and s > 0 and w / (1 - h / (j + 1)) < mp.mpf(10) ** -dps * s:
                return s


@pytest.fixture
def window_requests(monkeypatch):
    """The term counts the members ask ``_poisson_weights`` for."""
    if ncbeta.JIT_ENABLED:
        pytest.skip("compiled members bypass module globals")
    sizes = []
    original = series._poisson_weights

    def recording(half, j0, n, *rest):
        sizes.append(n)
        return original(half, j0, n, *rest)

    monkeypatch.setattr(series, "_poisson_weights", recording)
    return sizes


def converged_summand_peak(p, q, x, y):
    """The complement's summand peak by the damped fixed point
    j = h y (p+q+j)/(p+j+1), iterated to convergence."""
    half = 0.5 * x
    jstar = math.ceil(half + 10.0 * math.sqrt(half) + 30.0)
    for _ in range(100000):
        jn = half * y * (p + q + jstar) / (p + jstar + 1.0)
        if abs(jn - jstar) < 1e-9:
            return jn
        jstar = 0.5 * (jstar + jn)
    raise AssertionError("fixed point did not converge")


class TestEvalSeries:
    def test_boundaries(self):
        assert eval_series(SP, EvalPoint(7.0, 0.0)).b == 0.0
        assert eval_series(SP, EvalPoint(7.0, 1.0)).b == 1.0

    def test_zero_noncentrality_reduces_to_central(self):
        pair = eval_series(SP, EvalPoint(0.0, 0.45))
        assert abs(pair.b - central_beta_cdf(10.0, 15.0, 0.45)) <= 1e-14

    def test_pinned_values(self):
        pair = eval_series(ShapeParams(5.0, 5.0), EvalPoint(54.0, 0.8640))
        assert abs(pair.b - 0.4563026193369792) <= 5e-14
        pair = eval_series(SP, EvalPoint(50.0 / 11.0, 0.45))
        assert abs(pair.b - 0.50952) <= 5e-5

    def test_subnormal_value_reports_precision_loss(self):
        # only ~16 mantissa bits remain at 3.5e-319
        pair = eval_series(ShapeParams(347.2, 34.98), EvalPoint(245.9, 0.1207))
        assert 0.0 < pair.b < 1e-318
        assert pair.err_est >= 1e-5

    def test_complement_structure(self):
        pair = eval_series(SP, EvalPoint(4.5, 0.45))
        assert pair.b + pair.bbar == 1.0
        assert 0.0 <= pair.b <= 1.0

    def test_special_values_in_x_and_y(self):
        # increasing x drives the value down, increasing y drives it up
        b1 = eval_series(SP, EvalPoint(1.0, 0.45)).b
        b2 = eval_series(SP, EvalPoint(10.0, 0.45)).b
        assert b2 < b1
        b3 = eval_series(SP, EvalPoint(4.5, 0.6)).b
        assert b3 > eval_series(SP, EvalPoint(4.5, 0.45)).b

    def test_tolerance_precondition(self):
        with pytest.raises(DomainError):
            eval_series(SP, EvalPoint(1.0, 0.5), tol=1e-16)

    def test_small_quantile_regime(self):
        # the summand peaks at j = 0 here; relative accuracy must survive
        pair = eval_series(ShapeParams(64.16, 1.85), EvalPoint(493.35, 0.188))
        assert pair.b > 0.0
        assert pair.err_est < 1e-10


class TestSeriesMembers:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.one_of(st.floats(0.0, 500.0), st.floats(200.0, 500.0)),
        st.floats(0.001, 0.999),
    )
    # eval-mixed seed 1 point 1430: at p + q near 3600 the rounding of the
    # incomplete-beta prefactor (6e-13) dominates the error
    @example(1881.525166741533, 1676.6095666512929, 244.41677726060618, 0.5777097367783768)
    def test_err_est_bounds_error_against_mpmath(self, p, q, x, y):
        for complement, member in ((False, series._member_b), (True, series._member_complement)):
            ref = float(member_reference(p, q, x, y, complement))
            if not ref > 1e-290:
                continue
            value, err = member(p, q, x, y)
            assert abs(value - ref) <= 2.0 * err * ref

    def test_low_peak_keeps_whole_window(self, window_requests):
        # I_0.1(2 + j, 3) falls like 0.1^j, so the summand peaks near j = 20,
        # far below the Poisson mode 200: the lower edge must stay at zero
        sp, x, y = ShapeParams(2.0, 3.0), 400.0, 0.1
        value, _ = series._member_b(sp.p, sp.q, x, y)
        _, j_hi = poisson_window(x)
        assert window_requests == [j_hi + 1]
        j = np.arange(j_hi + 1)
        full = float(np.sum(poisson.pmf(j, 0.5 * x) * central_term_sequence(sp, y, 0, j_hi)))
        assert abs(value - full) <= 1e-13 * full

    @pytest.mark.parametrize("member, y", [(series._member_b, 0.9989), (series._member_complement, 0.9991)])
    def test_window_grows_as_sqrt_x(self, window_requests, member, y):
        # p = q = 50, y on either side of the transition quantile 0.999001:
        # both summands peak near the Poisson mode 5e4
        x = 1e5
        value, err = member(50.0, 50.0, x, y)
        assert 0.01 < value < 0.99 and err < 1e-10
        assert window_requests[0] <= 25.0 * math.sqrt(x) + 200.0

    @pytest.mark.parametrize(
        "p, q, x, y",
        [(10.0, 15.0, 4.5, 0.9), (0.5, 1800.0, 480.0, 0.2), (1200.0, 0.7, 300.0, 0.999), (3.0, 3.0, 50.0, 0.5),
         (1881.5, 1676.6, 244.4, 0.5777), (0.6, 0.6, 0.01, 0.3)],
    )
    def test_complement_window_end_matches_fixed_point(self, window_requests, p, q, x, y):
        series._member_complement(p, q, x, y)
        j_lo, j_hi = poisson_window(x)
        j_end = j_lo + window_requests[0] - 1
        jstar = converged_summand_peak(p, q, x, y)
        expect = max(j_hi, math.ceil(jstar + 10.0 * math.sqrt(max(jstar, 1.0)) + 50.0))
        assert abs(j_end - expect) <= 1


class TestCentralTermSequence:
    def test_edge_quantiles(self):
        assert np.all(central_term_sequence(SP, 0.0, 0, 10) == 0.0)
        assert np.all(central_term_sequence(SP, 1.0, 0, 10) == 1.0)

    def test_termwise_oracle(self):
        seq = central_term_sequence(SP, 0.45, 0, 60)
        for j in range(61):
            ref = central_beta_cdf(10.0 + j, 15.0, 0.45)
            assert abs(seq[j] - ref) <= 1e-13 * ref

    def test_termwise_oracle_hard_regimes(self):
        for (p, q, y, hi) in [(2.3, 3.5, 0.9, 200), (300.0, 200.0, 0.4, 80), (0.5, 2000.0, 0.45, 40)]:
            seq = central_term_sequence(ShapeParams(p, q), y, 0, hi)
            for j in (0, hi // 2, hi):
                ref = central_beta_cdf(p + j, q, y)
                if ref > 1e-290:
                    assert abs(seq[j] - ref) <= 1e-12 * ref

    def test_index_validation(self):
        with pytest.raises(DomainError):
            central_term_sequence(SP, 0.4, 5, 3)


class TestTypeTwoBridge:
    def test_zero_rate_reduces_to_central(self):
        a, b, omega = 3.0, 5.0, 1.5
        x = omega / (1.0 + omega)
        got = eval_type2_qfunction(a, b, 0.0, omega)
        assert abs(got - central_beta_cdf(a, b, x)) <= 1e-13

    def test_zero_odds_gives_zero(self):
        assert eval_type2_qfunction(3.0, 5.0, 2.0, 0.0) == 0.0

    def test_identity_with_series(self):
        omega = 0.8640 / (1.0 - 0.8640)
        lhs = eval_type2_qfunction(5.0, 5.0, 27.0, omega)
        rhs = eval_series(ShapeParams(5.0, 5.0), EvalPoint(54.0, 0.8640)).b
        assert abs(lhs - rhs) <= 1e-12


class TestNoncentralF:
    def test_zero_statistic(self):
        assert noncentral_f_cdf(0.0, 20.0, 30.0, 4.5).b == 0.0

    def test_infinite_statistic(self):
        assert noncentral_f_cdf(math.inf, 20.0, 30.0, 4.5).b == 1.0

    def test_mapping_identity(self):
        w = 13.5 / 11.0  # places the beta quantile at 0.45
        lhs = noncentral_f_cdf(w, 20.0, 30.0, 4.5)
        rhs = eval_series(SP, EvalPoint(4.5, 0.45))
        assert abs(lhs.b - rhs.b) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_f_cdf(-1.0, 20.0, 30.0, 4.5)
        with pytest.raises(DomainError):
            noncentral_f_cdf(1.0, 20.0, 30.0, -4.5)


class TestProbabilityPair:
    def test_from_primary_clips_and_complements(self):
        pair = ProbabilityPair.from_primary(1.0000000000000002, "b", "test", 0.0)
        assert pair.b == 1.0 and pair.bbar == 0.0
        pair = ProbabilityPair.from_primary(0.25, "bbar", "test", 1e-15)
        assert pair.bbar == 0.25 and pair.b == 0.75

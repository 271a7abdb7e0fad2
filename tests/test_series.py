import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

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


def scalar_poisson_weights(half, j0, n, j_lo, lw0):
    """The weight recursion as a scalar loop outward from j0."""
    wgt = np.empty(n)
    k0 = j0 - j_lo
    wgt[k0] = math.exp(lw0)
    for k in range(k0, 0, -1):
        wgt[k - 1] = wgt[k] * (j_lo + k) / half
    for k in range(k0, n - 1):
        wgt[k + 1] = wgt[k] * half / (j_lo + k + 1.0)
    return wgt


def scalar_increments(p, q, y, j_lo, n):
    """The increment chain as a scalar loop outward from its peak; returns
    (d, shift, k0, ld0) as ``series._increments`` does."""
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = min(max(math.floor(jpk) - j_lo, 0), n - 1)
    a0 = p + j_lo + k0
    ld0 = series._log_beta_pre(a0, q, y) - math.log(a0)
    shift = ld0 if ld0 < -650.0 else 0.0
    d = np.empty(n)
    d[k0] = math.exp(ld0 - shift)
    for k in range(k0, 0, -1):
        a = p + j_lo + k
        d[k - 1] = d[k] * a / (y * (a - 1.0 + q))
    for k in range(k0 + 1, n):
        a = p + j_lo + k
        d[k] = d[k - 1] * y * (a - 1.0 + q) / a
    return d, shift, k0, ld0


def scalar_b_terms(p, q, y, j_lo, j_hi):
    """I_y(p+j, q), scaled, by adding the increments downward from the value
    one past the window top, as member_reference does; returns
    (terms, shift, k0, ld0)."""
    n = j_hi - j_lo + 1
    d, shift, k0, ld0 = scalar_increments(p, q, y, j_lo, n)
    t, d, shift = series._seeded(p + j_hi + 1.0, q, y, d, shift)
    terms = np.empty(n)
    for k in range(n - 1, -1, -1):
        t += d[k]
        terms[k] = t
    return terms, shift, k0, ld0


def kahan_sum(terms):
    s = comp = 0.0
    for tk in terms:
        yv = tk - comp
        t = s + yv
        comp = (t - s) - yv
        s = t
    return s


def scalar_member_b(p, q, x, y):
    """_member_b with scalar loops and a compensated sum; returns
    (value, err_est, shift)."""
    half = 0.5 * x
    if half == 0.0:
        return (*series._member_b(p, q, x, y), 0.0)
    j_hi = series._upper_edge(half)
    j0 = min(int(half + 0.5), j_hi)
    lw0 = series._log_poisson(half, j0)
    ld_j0 = series._log_beta_pre(p + j0, q, y) - math.log(p + j0)
    if ld_j0 < -708.0 and series._log_b_bound(p, q, half, y) < -750.0:
        return 0.0, 1e-15, 0.0
    j_lo = series._lower_edge(half, series.TAIL_LOG - lw0 - ld_j0)
    n = j_hi - j_lo + 1
    wgt = scalar_poisson_weights(half, j0, n, j_lo, lw0)
    terms, shift, k0, ld0 = scalar_b_terms(p, q, y, j_lo, j_hi)
    s = kahan_sum(wgt * terms)
    value = s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))
    if value <= 0.0:
        return 0.0, 1e-15, shift
    rup = half / (j_hi + 1.0)
    tail = wgt[n - 1] * terms[n - 1] * rup / (1.0 - rup)
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half) - shift)
    return value, tail / s + series._rounding_floor(n, p + q + j_lo + k0, ld0), shift


def scalar_member_complement(p, q, x, y):
    """_member_complement with its terms as a scalar loop that adds the
    increments upward, and a compensated sum; returns (value, err_est,
    shift)."""
    half = 0.5 * x
    if half == 0.0:
        return (*series._member_complement(p, q, x, y), 0.0)
    hy = half * y
    b = p + 1.0 - hy
    c = hy * (p + q)
    disc = math.sqrt(b * b + 4.0 * c)
    jstar = 2.0 * c / (b + disc) if b > 0.0 else 0.5 * (disc - b)
    j_end = max(series._upper_edge(half), int(math.ceil(jstar + 10.0 * math.sqrt(max(jstar, 1.0)) + 50.0)))
    j_lo = series._lower_edge(half, series.TAIL_LOG)
    n = j_end - j_lo + 1
    d, shift, k0, ld0 = scalar_increments(p, q, y, j_lo, n)
    g_lo, d, shift = series._seeded(q, p + j_lo, 1.0 - y, d, shift)
    j0 = min(max(int(half + 0.5), j_lo), j_end)
    wgt = scalar_poisson_weights(half, j0, n, j_lo, series._log_poisson(half, j0))
    summands = np.empty(n)
    g = g_lo
    for k in range(n):
        if k > 0:
            g += d[k - 1]
        summands[k] = wgt[k] * g
    s = kahan_sum(summands)
    value = s if shift == 0.0 or s <= 0.0 else math.exp(shift + math.log(s))
    if value <= 0.0:
        return 0.0, 1e-15, shift
    r = half / (j_end + 1.0)
    rho = max(y * (p + q + j_end) / (p + j_end + 1.0), y, 1.0)
    tail = wgt[n - 1] * r * (g / (1.0 - r) + d[n - 1] / (1.0 - r * rho) ** 2) if r * rho < 1.0 else math.inf
    if j_lo > 0:
        tail += math.exp(-((half - j_lo) ** 2) / (2.0 * half)) * g_lo
    return value, tail / s + series._rounding_floor(n, p + q + j_lo + k0, ld0), shift


@pytest.fixture
def window_requests(monkeypatch):
    """The term counts the members ask ``_poisson_weights`` for."""
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

    def test_subnormal_value_err_est_honest(self):
        # B = 7.08e-312: the scaled sum rounds to a subnormal once, at the
        # end, so it stays within the ulp(v)/v that err_est carries
        p, q, x, y = 805.96, 2.3685, 82.145, 0.41913
        pair = eval_series(ShapeParams(p, q), EvalPoint(x, y))
        ref = member_reference(p, q, x, y, False, dps=40)
        assert 0.0 < pair.b < 2.3e-308
        assert abs(mp.mpf(pair.b) - ref) <= pair.err_est * ref

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

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(0.5, 500.0),
        st.floats(0.001, 0.999),
    )
    @example(1500.0, 5.0, 200.0, 0.3)  # B = e^-1851.2 by mpmath, bound e^-1809.4
    @example(2.0, 3.0, 400.0, 0.1)  # B = e^-179.2, bound e^-72.0
    def test_log_b_bound_bounds_b(self, p, q, x, y):
        ref = member_reference(p, q, x, y, False)
        assert ref == 0 or float(mp.log(ref)) <= series._log_b_bound(p, q, 0.5 * x, y)

    @pytest.mark.parametrize("p, q, x, y", [(1500.0, 5.0, 200.0, 0.3), (500.0, 700.0, 1e5, 0.5), (3.0, 20.0, 1e6, 0.1)])
    def test_vanishing_b_sums_nothing(self, window_requests, p, q, x, y):
        # the bound on B lies below e^-750, so B rounds to 0 without summing
        # a window (from j = 0, since I_y(p + j0, q) underflows: 5e5 terms
        # at x = 1e6)
        assert series._log_b_bound(p, q, 0.5 * x, y) < -750.0
        assert series._member_b(p, q, x, y) == (0.0, 1e-15)
        assert window_requests == []

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


class TestArrayMembers:
    """The members built by array recursions against the scalar loops above:
    values within the member's own err_est, err_est within a few ulp."""

    @staticmethod
    def check(p, q, x, y):
        pairs = ((series._member_b, scalar_member_b), (series._member_complement, scalar_member_complement))
        for member, scalar in pairs:
            value, err = member(p, q, x, y)
            ref_value, ref_err = scalar(p, q, x, y)[:2]
            assert abs(err - ref_err) <= 4.0 * np.spacing(ref_err)
            if ref_value >= 2.3e-308:  # subnormal sums carry too few bits to compare
                assert abs(value - ref_value) <= err * ref_value
            else:
                assert value < 2.3e-308

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.one_of(st.floats(0.0, 500.0), st.floats(200.0, 500.0)),
        st.floats(0.001, 0.999),
    )
    def test_members_match_scalar_loops(self, p, q, x, y):
        self.check(p, q, x, y)

    @staticmethod
    def check_mpmath(member, p, q, x, y):
        value, err = member(p, q, x, y)
        ref = float(member_reference(p, q, x, y, member is series._member_complement, dps=40))
        assert value > 1e-300 and abs(value - ref) <= err * ref
        TestArrayMembers.check(p, q, x, y)

    def test_flushed_complement_start_needs_no_reanchor(self):
        # the increment at the window's lower edge lies below the normal
        # range; the chain runs down from its peak, which does not, so it is
        # neither scaled nor re-anchored
        p, q, x, y = 5.622399969585741, 1367.641217003125, 400.2400756127949, 0.6351832746043322
        j_lo = series._lower_edge(0.5 * x, series.TAIL_LOG)
        assert series._log_beta_pre(p + j_lo, q, y) < -708.0
        assert scalar_member_complement(p, q, x, y)[2] == 0.0
        self.check_mpmath(series._member_complement, p, q, x, y)

    def test_scaled_complement_chain(self):
        # the increments peak below e^-650 (B is primary here and the
        # complement is near 1), so the chain and its seed are scaled
        p, q, x, y = 233.29013538127148, 110.3395301888447, 303.25404532063123, 0.034977491113219884
        assert scalar_member_complement(p, q, x, y)[2] < -650.0
        self.check_mpmath(series._member_complement, p, q, x, y)

    def test_underflowing_b_anchor(self):
        # I_y(p + j0, q) at the Poisson mode is subnormal; the window reaches
        # down to j = 0, where the increments peak above the underflow range
        p, q, x, y = 557.6547200415134, 18.406919996523044, 353.34368813167737, 0.34101109503262694
        assert series._betainc(p + int(0.5 * x + 0.5), q, y) < 2.3e-308
        assert scalar_member_b(p, q, x, y)[2] == 0.0
        self.check_mpmath(series._member_b, p, q, x, y)

    def test_scaled_b_chain(self):
        # eval-mixed seed 1: the increments peak below e^-650, so the terms
        # are summed scaled and unscaled once
        p, q, x, y = 188.37933222869154, 1.0024885840142763, 28.171471861681507, 0.031337030772637296
        assert scalar_member_b(p, q, x, y)[2] < -650.0
        self.check_mpmath(series._member_b, p, q, x, y)

    def test_zero_noncentrality(self):
        self.check(10.0, 15.0, 0.0, 0.45)

    @pytest.mark.parametrize("p, q, y, j_lo, j_hi, anchor", [(10.0, 15.0, 0.45, 7, 7, 7), (2.3, 3.5, 0.9, 0, 200, 90),
                                                             (300.0, 200.0, 0.4, 20, 80, 20), (64.2, 1.85, 0.188, 0, 270, 0)])
    def test_kernels_match_scalar_loops(self, p, q, y, j_lo, j_hi, anchor):
        # one-term windows included: j_lo = j_hi; the weights run from anchor
        got, shift = series._central_terms_minimal(p, q, y, j_lo, j_hi)[:2]
        ref, ref_shift = scalar_b_terms(p, q, y, j_lo, j_hi)[:2]
        assert shift == ref_shift
        assert np.all(np.abs(got - ref) <= 2.0 * (j_hi - j_lo + 1) * 1.12e-16 * ref)
        half, n = 0.5 * (anchor + 0.3), j_hi - j_lo + 1
        lw0 = series._log_poisson(half, anchor)
        got = series._poisson_weights(half, anchor, n, j_lo, lw0)
        ref = scalar_poisson_weights(half, anchor, n, j_lo, lw0)
        assert np.all(np.abs(got - ref) <= 2.0 * n * 1.12e-16 * ref)


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

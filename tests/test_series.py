import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import ncbeta
from ncbeta import series
from ncbeta.dispatch import evaluate
from ncbeta.errors import DomainError, EvaluationError
from ncbeta.kernels import _betacf, _log_beta_pre, central_beta_cdf
from ncbeta.params import EvalPoint, ProbabilityPair, ShapeParams
from ncbeta.series import (
    central_term_sequence,
    eval_series,
    eval_type2_qfunction,
    evaluate_many,
    noncentral_f_cdf,
)
from test_dispatch import windowed_reference

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


def direct_seed(a, b, z, ld0):
    """The seed I_z(a, b) of a term chain whose anchor increment is e^ld0,
    formed directly from its own prefactor and continued fraction, and the
    chain's scale shift: ld0 below e^-650, else 0, with the seed scaled by
    e^-shift as the chain is.  A scaled seed that overflows dwarfs every
    increment, so that chain is left unscaled.  Shares no step with the
    planner's seeds (``series._far_fraction``, ``series._end_seed``);
    returns (seed, shift)."""
    flip = not z < (a + 1.0) / (a + b + 2.0)
    front = _log_beta_pre(a, b, z) - math.log(b if flip else a)
    cf = _betacf(b, a, 1.0 - z) if flip else _betacf(a, b, z)
    if ld0 < -650.0:
        if not flip:
            return math.exp(front - ld0) * cf, ld0
        ls = math.log(1.0 - math.exp(front) * cf if front > -745.0 else 1.0) - ld0
        if ls < 709.0:
            return math.exp(ls), ld0
    if front < -745.0:
        return (1.0 if flip else 0.0), 0.0
    return (1.0 - math.exp(front) * cf if flip else math.exp(front) * cf), 0.0


def scalar_chain(p, q, y, j_lo, n, seed_at):
    """The seed I_z(a, b) at seed_at = (a, b, z) and the increment chain as
    a scalar loop outward from its peak, scaled alike by ``direct_seed``'s
    shift; returns (seed, d, shift, k0, ld0)."""
    jpk = (y * (p + q - 1.0) - p) / (1.0 - y)
    k0 = min(max(math.floor(jpk) - j_lo, 0), n - 1)
    a0 = p + j_lo + k0
    ld0 = _log_beta_pre(a0, q, y) - math.log(a0)
    seed, shift = direct_seed(*seed_at, ld0)
    d = np.empty(n)
    d[k0] = math.exp(ld0 - shift)
    for k in range(k0, 0, -1):
        a = p + j_lo + k
        d[k - 1] = d[k] * a / (y * (a - 1.0 + q))
    for k in range(k0 + 1, n):
        a = p + j_lo + k
        d[k] = d[k - 1] * y * (a - 1.0 + q) / a
    return seed, d, shift, k0, ld0


def scalar_b_terms(p, q, y, j_lo, j_hi):
    """I_y(p+j, q), scaled, by adding the increments downward from the value
    one past the window top, as member_reference does; returns
    (terms, shift, k0, ld0)."""
    n = j_hi - j_lo + 1
    t, d, shift, k0, ld0 = scalar_chain(p, q, y, j_lo, n, (p + j_hi + 1.0, q, y))
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
        return (*series._member_b(p, q, x, y)[:2], 0.0)
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
    return value, tail / s + series._rounding_floor(n, p + q + j_lo + k0, ld0) + n * 2.0**-1074 / s, shift


def scalar_member_complement(p, q, x, y):
    """_member_complement with its terms as a scalar loop that adds the
    increments upward, and a compensated sum; returns (value, err_est,
    shift)."""
    half = 0.5 * x
    if half == 0.0:
        return (*series._member_complement(p, q, x, y)[:2], 0.0)
    hy = half * y
    b = p + 1.0 - hy
    c = hy * (p + q)
    disc = math.sqrt(b * b + 4.0 * c)
    jstar = 2.0 * c / (b + disc) if b > 0.0 else 0.5 * (disc - b)
    j_end = max(series._upper_edge(half), int(math.ceil(jstar + 10.0 * math.sqrt(max(jstar, 1.0)) + 50.0)))
    j_lo = series._lower_edge(half, series.TAIL_LOG)
    n = j_end - j_lo + 1
    g_lo, d, shift, k0, ld0 = scalar_chain(p, q, y, j_lo, n, (q, p + j_lo, 1.0 - y))
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
    return value, tail / s + series._rounding_floor(n, p + q + j_lo + k0, ld0) + n * 2.0**-1074 / s, shift


def hand_row(p, q, x, y, complement, j_lo, n, j0):
    """A member's plan over a chosen window [j_lo, j_lo + n - 1] with its
    weights anchored at j0, where the members' planner would choose
    another; the increments are anchored as that planner anchors them
    (``series._anchor``), and seeded directly (``direct_seed``, cf nan)."""
    half = 0.5 * x
    lw0 = series._log_poisson(half, j0) if half > 0.0 else math.nan
    k0, a0, ld0 = series._anchor(p, q, y, j_lo, n)
    seed, shift = direct_seed(*series._far_end(p, q, y, j_lo, n, complement), ld0)
    return series._Planned(p, q, y, complement, half, j_lo, n, j0, lw0, k0, a0, ld0, math.nan, seed, shift)


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
            value, err = member(p, q, x, y)[:2]
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
        assert series._member_b(p, q, x, y) == (0.0, 1e-15, None)
        assert window_requests == []

    def test_low_peak_keeps_whole_window(self, window_requests):
        # I_0.1(2 + j, 3) falls like 0.1^j, so the summand peaks near j = 20,
        # far below the Poisson mode 200: the lower edge must stay at zero
        sp, x, y = ShapeParams(2.0, 3.0), 400.0, 0.1
        value = series._member_b(sp.p, sp.q, x, y)[0]
        j_hi = series._upper_edge(0.5 * x)
        assert window_requests == [j_hi + 1]
        j = np.arange(j_hi + 1)
        full = float(np.sum(poisson.pmf(j, 0.5 * x) * central_term_sequence(sp, y, 0, j_hi)))
        assert abs(value - full) <= 1e-13 * full

    @pytest.mark.parametrize("member, y", [(series._member_b, 0.9989), (series._member_complement, 0.9991)])
    def test_window_grows_as_sqrt_x(self, window_requests, member, y):
        # p = q = 50, y on either side of the transition quantile 0.999001:
        # both summands peak near the Poisson mode 5e4
        x = 1e5
        value, err = member(50.0, 50.0, x, y)[:2]
        assert 0.01 < value < 0.99 and err < 1e-10
        assert window_requests[0] <= 25.0 * math.sqrt(x) + 200.0

    @pytest.mark.parametrize(
        "p, q, x, y",
        [(10.0, 15.0, 4.5, 0.9), (0.5, 1800.0, 480.0, 0.2), (1200.0, 0.7, 300.0, 0.999), (3.0, 3.0, 50.0, 0.5),
         (1881.5, 1676.6, 244.4, 0.5777), (0.6, 0.6, 0.01, 0.3)],
    )
    def test_complement_window_end_matches_fixed_point(self, window_requests, p, q, x, y):
        series._member_complement(p, q, x, y)
        j_lo, j_hi = series._lower_edge(0.5 * x, series.TAIL_LOG), series._upper_edge(0.5 * x)
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
            value, err = member(p, q, x, y)[:2]
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
        value, err = member(p, q, x, y)[:2]
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
        n = j_hi - j_lo + 1
        row = hand_row(p, q, 0.0, y, False, j_lo, n, j_lo)
        got = series._central_terms_minimal(row)[0]
        ref, ref_shift = scalar_b_terms(p, q, y, j_lo, j_hi)[:2]
        assert row.shift == ref_shift
        assert np.all(np.abs(got - ref) <= 2.0 * (j_hi - j_lo + 1) * 1.12e-16 * ref)
        half = 0.5 * (anchor + 0.3)
        lw0 = series._log_poisson(half, anchor)
        got = series._poisson_weights(half, anchor, n, j_lo, lw0)
        ref = scalar_poisson_weights(half, anchor, n, j_lo, lw0)
        assert np.all(np.abs(got - ref) <= 2.0 * n * 1.12e-16 * ref)


def bisected_log_b_bound(p, q, half, y):
    """``series._log_b_bound`` as it was: m bisected to the crossing of
    f(m) = lt0 - (h-m)^2/2h and g(m) = log bound on I_y(p+m, q), about ten
    bound evaluations."""
    lt0 = series._log_term_bound(p, q, y)
    lo = 0
    hi = int(half)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lt0 - (half - mid) ** 2 / (2.0 * half) < series._log_term_bound(p + mid, q, y):
            lo = mid
        else:
            hi = mid
    best = 0.0
    for m in (lo, hi):
        best = min(best, max(lt0 - (half - m) ** 2 / (2.0 * half), series._log_term_bound(p + m, q, y)))
    return best + math.log(2.0)


# an eval-mixed point with x > 0, where a window is planned
PLANNED_POINT = st.tuples(
    st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
    st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
    st.floats(0.01, 500.0),
    st.floats(0.001, 0.999),
)


class TestPlanAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.one_of(st.floats(0.01, 500.0), st.floats(math.log(1e3), math.log(1e5)).map(math.exp)),
        st.floats(0.001, 0.999),
    )
    # on either side of the decision edge, where the bisected bound crosses -750
    @example(1500.0, 5.0, 200.0, 0.6048906902812273)
    @example(1500.0, 5.0, 200.0, 0.6048906902812274)
    @example(500.0, 700.0, 1e5, 0.9476341757621033)
    @example(500.0, 700.0, 1e5, 0.9476341757621034)
    @example(50.0, 1000.0, 5e4, 0.8674115392579492)
    @example(50.0, 1000.0, 5e4, 0.8674115392579493)
    def test_certificate_decides_as_the_bisection(self, p, q, x, y):
        # the eval-mixed and eval-large-x ranges: x on [0, 500] or
        # log-uniform on [1e3, 1e5]; the closed form certifies B zero
        # exactly where the bisection did, with at most two bound evaluations
        calls = []
        original = series._log_term_bound

        def counted(*args):
            calls.append(args)
            return original(*args)

        half = 0.5 * x
        try:
            series._log_term_bound = counted
            got = series._log_b_bound(p, q, half, y)
        finally:
            series._log_term_bound = original
        assert (got < -750.0) == (bisected_log_b_bound(p, q, half, y) < -750.0)
        assert len(calls) <= 2

    @settings(max_examples=200, deadline=None)
    @given(PLANNED_POINT, st.booleans())
    # a scaled B chain (eval-mixed seed 1) and a scaled complement chain;
    # a scaled complement seed of 3.7e-306, which a direct seed flushed to 0
    # below e^-700 would miss
    @example((188.37933222869154, 1.0024885840142763, 28.171471861681507, 0.031337030772637296), False)
    @example((233.29013538127148, 110.3395301888447, 303.25404532063123, 0.034977491113219884), True)
    @example((math.exp(4.25), math.exp(7.53125), 52.0, 0.765625), True)
    def test_chain_end_seed_against_betainc(self, point, complement):
        # the seed formed from the increment chain's end against the
        # incomplete beta formed directly (``direct_seed``), scaled alike.
        # Bound: the chain's drift, 2u a step over at most n steps, plus the
        # rounding of the two prefactors, each up to about 16u (p + q + j)
        # and 2u |lpre| (the terms of ``_rounding_floor``), in u = 1.12e-16
        p, q, x, y = point
        r = series._row_plan(p, q, x, y, complement)
        assume(r is not None and not math.isnan(r.cf))
        d = series._increments(r)
        end = d[0] if complement else d[-1]
        assume(end >= 2.0**-1022)
        got = series._end_seed(end, r.a0 - r.k0, r.n, y, q, r.cf, complement)
        ref, shift = direct_seed(*series._far_end(p, q, y, r.j_lo, r.n, complement), r.ld0)
        assert shift == r.shift
        j_top = r.j_lo + r.n - 1
        ld_end = math.log(end) + r.shift
        bound = 1.12e-16 * (4.0 * r.n + 32.0 * (p + q + j_top + 1.0) + 4.0 * (abs(r.ld0) + abs(ld_end)) + 16.0)
        assert abs(got - ref) <= bound * ref

    @pytest.mark.parametrize("y, complement", [(0.9, False), (0.1, True)])
    def test_flipped_fraction_leaves_the_chain_unscaled(self, y, complement):
        # past the fraction's switch the seed is the incomplete beta itself,
        # which dwarfs an anchor increment below e^-650, so nothing is scaled
        cf, seed, shift = series._far_fraction(10.0, 15.0, y, 0, 1, complement, -700.0)
        assert math.isnan(cf) and shift == 0.0
        assert seed == series._betainc(*series._far_end(10.0, 15.0, y, 0, 1, complement))


def cumprod_chain(v0, k0, P, Q):
    """``series._chain`` in its concatenate/cumprod form: the running
    products of [v0, ratios] leftward and rightward from k0, the leftward
    one reversed and joined to the rightward one."""
    down = np.cumprod(np.concatenate(([v0], P[k0:0:-1] / Q[k0:0:-1])))
    up = np.cumprod(np.concatenate(([v0], Q[k0 + 1 :] / P[k0 + 1 :])))
    return np.concatenate((down[:0:-1], up))


@st.composite
def chain_inputs(draw):
    """(v0, k0, P, Q) of a window of 1 to 400 columns, anchored at its first
    column, its last or inside, with the weights' ratios (P, Q) = (j, h) or
    the increments' (a, y (a - 1 + q))."""
    n = draw(st.integers(1, 400))
    k0 = draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)))
    v0 = math.exp(draw(st.floats(-745.0, 0.0)))
    if draw(st.booleans()):
        P = draw(st.integers(0, 2000)) + np.arange(n, dtype=float)
        Q = np.full(n, draw(st.floats(0.01, 1e4)))
    else:
        P = draw(st.floats(0.5, 2000.0)) + np.arange(n)
        Q = draw(st.floats(0.001, 0.999)) * (P - 1.0 + draw(st.floats(0.5, 2000.0)))
    return v0, k0, P, Q


class TestChain:
    @settings(max_examples=300, deadline=None)
    @given(chain_inputs())
    def test_one_buffer_chain_is_the_cumprod_form_bit_for_bit(self, inputs):
        # products that leave the float range leave it alike in both forms
        with np.errstate(over="ignore", under="ignore"):
            got = series._chain(*inputs)
            ref = cumprod_chain(*inputs)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


EVAL_MIXED_POINT = st.tuples(
    st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
    st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
    st.floats(0.0, 500.0),
    st.floats(0.001, 0.999),
)

# the eval-large-x sampler: x log-uniform on [1e3, 1e5]
EVAL_LARGE_X_POINT = st.tuples(
    st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
    st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
    st.floats(math.log(1e3), math.log(1e5)).map(math.exp),
    st.floats(0.001, 0.999),
)

# eval-large-x points whose subnormal B is known to be wrong, where the
# increment chain sticks at 2^-1074; evaluate_many returns what evaluate
# returns there too
SUBNORMAL_LARGE_X = [
    (5.263, 6.769, 4228.0, 0.5765),
    (102.26815923650477, 11.783881443411245, 5794.098384179934, 0.5037953442941405),
]

# x = 0 and both quantile boundaries; a B certified to round to 0; a B chain
# and a complement chain scaled by e^-shift (the latter found by a random
# search); a point past the window cap
MANY_FIXED = [
    (10.0, 15.0, 0.0, 0.45),
    (10.0, 15.0, 4.5, 0.0),
    (10.0, 15.0, 4.5, 1.0),
    (1500.0, 5.0, 200.0, 0.3),
    (188.37933222869154, 1.0024885840142763, 28.171471861681507, 0.031337030772637296),
    (163.9134796396956, 43.728493514318274, 6.625712224844009, 0.9999999791970806),
    (1.0, 1e10, 1e5, 0.1),
]


def assert_entries_match_evaluate(entries, points):
    """Each entry is evaluate's pair at its point, bit for bit, or an error
    of the type and message that evaluate raises there."""
    assert len(entries) == len(points)
    for entry, (sp, pt) in zip(entries, points):
        try:
            want = evaluate(sp, pt)
        except EvaluationError as exc:
            assert type(entry) is type(exc) and str(entry) == str(exc)
        else:
            # repr tells every float bit pattern apart, -0.0 from 0.0 too
            assert repr(entry) == repr(want)


def zero_noncentrality_value(p, q, y):
    """The primary member's value at x = 0, its err_est and 40-digit
    mpmath's incomplete beta there, the window's sum at x = 0 being its
    first term; checks that evaluate_many's 2-D pass gives evaluate's pair
    bit for bit, and that a 0 stands only for a value below the smallest
    subnormal."""
    points = [(ShapeParams(p, q), EvalPoint(0.0, y))]
    pair = evaluate(*points[0])
    assert_entries_match_evaluate(evaluate_many(points), points)
    complement = series._complement_is_primary(*points[0])
    with mp.workdps(40):
        if complement:
            ref = mp.betainc(q, p, 0, 1 - mp.mpf(y), regularized=True)
        else:
            ref = mp.betainc(p, q, 0, y, regularized=True)
    value = pair.bbar if complement else pair.b
    if value == 0.0:
        assert ref < mp.mpf(2) ** -1074
    return value, pair.err_est, ref


class TestEvaluateMany:
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.lists(EVAL_MIXED_POINT, max_size=60), st.lists(EVAL_LARGE_X_POINT, max_size=6)).flatmap(
            lambda drawn: st.permutations(drawn[0] + drawn[1] + MANY_FIXED)
        )
    )
    @example(MANY_FIXED + SUBNORMAL_LARGE_X)
    def test_matches_evaluate_bit_for_bit(self, rows):
        points = [(ShapeParams(p, q), EvalPoint(x, y)) for p, q, x, y in rows]
        assert_entries_match_evaluate(evaluate_many(points), points)

    def test_chunks_keep_input_order(self, monkeypatch):
        # 300 points whose windows shrink along the input, so the sort by
        # length reverses them, in more padded cells than one chunk holds;
        # (50, 50, 2e5) is a chunk of one 6552-term row, and at x = 1e6 the
        # window (14769 terms) is wider than a chunk, so the scalar member
        # sums it
        chunks = []
        original = series._window_arrays

        def recording(r):
            # a chunk's rows come as columns, sorted by window length
            chunks.append((r.n.size, int(r.n[-1])))
            return original(r)

        monkeypatch.setattr(series, "_window_arrays", recording)
        rng = np.random.default_rng(17)
        rows = [(50.0, 50.0, 1e6, 0.9999), (50.0, 50.0, 2e5, 0.9995)]
        for x in np.linspace(500.0, 1.0, 300):
            rows.append((math.exp(rng.uniform(math.log(0.5), math.log(2000.0))),
                         math.exp(rng.uniform(math.log(0.5), math.log(2000.0))), x, rng.uniform(0.001, 0.999)))
        points = [(ShapeParams(p, q), EvalPoint(x, y)) for p, q, x, y in rows]
        assert_entries_match_evaluate(evaluate_many(points), points)
        assert (1, 6552) in chunks and 14769 > series.MANY_CELLS and len(chunks) >= 4
        assert all(rows * width <= series.MANY_CELLS for rows, width in chunks)
        assert sum(rows * width for rows, width in chunks) > 2 * series.MANY_CELLS

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(0.001, 0.999),
    )
    def test_zero_noncentrality_runs_through_the_2d_pass(self, p, q, y):
        zero_noncentrality_value(p, q, y)

    # (p, q, y) at x = 0: I_y(p, 2) = y^p (p + 1 - p y) = 2.71e-298 exactly;
    # a B below e^-750, certified zero by the bound's h = 0 answer; B and
    # the complement primary
    @pytest.mark.parametrize("p, q, y", [(300.0, 2.0, 0.1), (2000.0, 0.5, 0.001), (10.0, 15.0, 0.3), (10.0, 15.0, 0.45)])
    def test_zero_noncentrality_within_err_est(self, p, q, y):
        value, err, ref = zero_noncentrality_value(p, q, y)
        assert value == 0.0 or abs(mp.mpf(value) - ref) <= err * ref

    # x = 0 points whose error passes err_est by 4-10%, at the parent's
    # one-term x = 0 too but for the first: the rounding of the prefactor at
    # the chain's anchor, 1.9e-13 to 3.3e-13, outgrows its share of the
    # rounding floor.  Random draws over the eval-mixed (p, q, y) ranges
    # meet such a point in about 1 of 25 runs of 100, so the hypothesis
    # test above checks no accuracy until the floor is refit
    @pytest.mark.xfail(strict=True, reason="the rounding floor is short of the prefactor's rounding")
    @pytest.mark.parametrize("p, q, y", [(0.7602560592000733, 465.5484323446331, 0.41158040144539015),
                                         (233.239558906058, 21.576268988927676, 0.0790765902891359),
                                         (17.967024821324337, math.exp(7.1875), 0.0014138380082431958)])
    def test_zero_noncentrality_floor_shortfall(self, p, q, y):
        value, err, ref = zero_noncentrality_value(p, q, y)
        assert abs(mp.mpf(value) - ref) <= err * ref

    def test_tol_is_validated(self):
        assert ncbeta.evaluate_many is evaluate_many
        assert evaluate_many([]) == []
        with pytest.raises(DomainError, match="tol must be positive"):
            evaluate_many([(SP, EvalPoint(4.5, 0.45))], tol=0.0)


# TestArrayMembers' scaled B chain, scaled complement chain, flushed
# complement start and underflowing B anchor
ARRAY_MEMBER_POINTS = [
    (188.37933222869154, 1.0024885840142763, 28.171471861681507, 0.031337030772637296),
    (233.29013538127148, 110.3395301888447, 303.25404532063123, 0.034977491113219884),
    (5.622399969585741, 1367.641217003125, 400.2400756127949, 0.6351832746043322),
    (557.6547200415134, 18.406919996523044, 353.34368813167737, 0.34101109503262694),
]


# eval-mixed seed 2: B rows whose increment chain ends below 2^-1022, so
# their far-end seeds are formed from a subnormal increment
SUBNORMAL_END_POINTS = [
    (1266.6646259252173, 1.3750793556827912, 454.5236522690459, 0.6085844701219786),
    (1187.634856406779, 27.808960625231975, 499.14191404431057, 0.5447768687146837),
]


# eval-mixed B rows whose far-end fraction flips: the planned seed is the
# incomplete beta itself
FLIPPED_POINTS = [
    (29.83235475194784, 0.5038304300143326, 211.56379204356884, 0.9947471171854854),
    (277.3672324882439, 0.5130186545376111, 499.531463970291, 0.9980882838949372),
]


def as_columns(rows):
    """Planned rows of one member as one ``_Planned`` of columns, the form
    ``_window_arrays`` takes; the member stays one bool."""
    columns = series._Planned(*(np.array(field) for field in zip(*rows)))
    return columns._replace(complement=rows[0].complement)


def hand_rows():
    """Windows the planner never makes, for each member: one term; and both
    chains anchored at the first column (the increments peak below j_lo
    at y = 0.1) and at the last (they peak near j = 20 at y = 0.9)."""
    rows = []
    for complement in (False, True):
        rows.append(hand_row(10.0, 15.0, 14.6, 0.45, complement, 7, 1, 7))
        rows.append(hand_row(2.0, 3.0, 400.0, 0.1, complement, 150, 40, 150))
        rows.append(hand_row(2.3, 3.5, 30.0, 0.9, complement, 0, 16, 15))
    return rows


# a point for each branch of the planner: the Poisson mode below 20;
# min(p, q) < 10 in the prefactor; the near-mode log1p prefactor; a B
# certified to round to 0; a window past the cap
PLAN_BRANCHES = [
    (10.0, 15.0, 4.5, 0.45),
    (2.0, 3.0, 40.0, 0.3),
    (50.0, 50.0, 10.0, 0.5),
    (1500.0, 5.0, 200.0, 0.3),
    (1.0, 1e10, 1e5, 0.1),
]


class TestColumnPlan:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(EVAL_MIXED_POINT, EVAL_LARGE_X_POINT), min_size=1, max_size=40))
    @example(PLAN_BRANCHES)
    @example(ARRAY_MEMBER_POINTS)
    @example(FLIPPED_POINTS)
    def test_matches_row_plan_field_for_field(self, points):
        p, q, x, y = (np.array(v) for v in zip(*points))
        complement = y > (x + 2.0 * p) / (x + 2.0 * (p + q))
        r, kept, zero, wide = series._column_plan(p, q, x, y, complement)
        assert sorted([*kept, *zero, *wide]) == list(range(len(points)))
        for i, (pi, qi, xi, yi) in enumerate(points):
            member = bool(complement[i])
            assert member == series._complement_is_primary(ShapeParams(pi, qi), EvalPoint(xi, yi))
            try:
                row = series._row_plan(pi, qi, xi, yi, member)
            except EvaluationError:
                assert i in wide
                continue
            if row is None:
                assert i in zero
            elif row.n > series.MANY_CELLS:
                assert i in wide
            else:
                got = series._take(r, int(np.flatnonzero(kept == i)[0]))
                for name, want, have in zip(row._fields, row, got):
                    # repr tells nan, -0.0 and every other bit pattern apart
                    assert repr(float(have)) == repr(float(want)), name

    def test_examples_reach_every_branch(self):
        mode, small, near, zero, cap = PLAN_BRANCHES
        assert series._row_plan(*mode, False).j0 < 20
        assert min(small[:2]) < 10.0
        p, q, x, y = near
        a = p + series._row_plan(*near, False).j0
        assert min(a, q) >= 10.0 and abs(y * q - (1.0 - y) * a) <= 0.5 * min(a, q)
        assert series._row_plan(*zero, False) is None
        with pytest.raises(EvaluationError, match="series window"):
            series._row_plan(*cap, True)
        assert series._row_plan(*ARRAY_MEMBER_POINTS[0], False).shift < 0.0
        assert all(math.isnan(series._row_plan(*point, False).cf) for point in FLIPPED_POINTS)


class TestWindowForms:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(EVAL_MIXED_POINT, max_size=40))
    @example(ARRAY_MEMBER_POINTS)
    @example(SUBNORMAL_END_POINTS)
    @example(FLIPPED_POINTS)
    def test_both_forms_build_the_same_window(self, points):
        # each point's two members planned once; the window built by the
        # 1-D form and as a row of a 2-D chunk, equal element for element
        rows = hand_rows()
        for p, q, x, y in points:
            for complement in (False, True):
                row = series._row_plan(p, q, x, y, complement)
                if row is not None and row.n <= series.MANY_CELLS:
                    rows.append(row)
        assert {(r.k0, r.j0 - r.j_lo) for r in rows[:6]} >= {(0, 0), (15, 15)}
        for complement in (False, True):
            member_rows = sorted((r for r in rows if r.complement == complement), key=lambda r: r.n)
            for start, end in series._chunks([r.n for r in member_rows]):
                chunk_rows = member_rows[start:end]
                arrays = series._window_arrays(as_columns(chunk_rows))
                for i, r in enumerate(chunk_rows):
                    for one, two in zip(series._window(r), arrays):
                        assert np.array_equal(one, two[i, : r.n])

    def test_examples_reach_a_flipped_seed(self):
        for p, q, x, y in FLIPPED_POINTS:
            r = series._row_plan(p, q, x, y, False)
            assert math.isnan(r.cf) and r.seed == series._betainc(*series._far_end(p, q, y, r.j_lo, r.n, False))

    def test_examples_reach_a_subnormal_chain_end(self):
        # the example rows above include a chain-formed seed whose chain
        # ends below the normal range
        ends = []
        for p, q, x, y in SUBNORMAL_END_POINTS:
            for complement in (False, True):
                r = series._row_plan(p, q, x, y, complement)
                if not math.isnan(r.cf):
                    d = series._increments(r)
                    ends.append(d[0] if complement else d[-1])
        assert min(ends) < 2.0**-1022

    @pytest.mark.parametrize("p, q, x, y", SUBNORMAL_END_POINTS)
    def test_subnormal_chain_end_against_mpmath(self, p, q, x, y):
        # B is subnormal; its seed is formed from the chain's subnormal end
        pair = evaluate(ShapeParams(p, q), EvalPoint(x, y))
        assert 0.0 < pair.b < 2.0**-1022
        ref = windowed_reference(p, q, x, y, False, dps=40, k=4.0 * math.sqrt(0.5 * x) + 5.0)
        assert abs(mp.mpf(pair.b) - ref) <= pair.err_est * ref


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

    def test_underflowing_first_term_raises_at_once(self):
        # (p, q, x, y) = (1026.6, 1024.6, 112.93, 0.01878): the first term is
        # below e^-745, so every term stays 0 and the sum cannot be formed
        start = time.perf_counter()
        with pytest.raises(EvaluationError, match="first term underflows"):
            eval_type2_qfunction(1026.6, 1024.6, 56.465, 0.01878 / 0.98122)
        assert time.perf_counter() - start < 0.1


class TestNoncentralF:
    def test_zero_statistic(self):
        assert noncentral_f_cdf(0.0, 20.0, 30.0, 4.5).b == 0.0

    def test_infinite_statistic(self):
        assert noncentral_f_cdf(math.inf, 20.0, 30.0, 4.5).b == 1.0

    def test_statistic_whose_product_overflows(self):
        # nu1 * w overflows to inf, and inf / inf once became the quantile
        assert noncentral_f_cdf(1e308, 20.0, 30.0, 4.5).b == 1.0

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

    def test_nan_statistic_is_a_domain_error(self):
        # nan passed the sign check and was mapped to quantile 1, B = 1
        with pytest.raises(DomainError, match="F statistic"):
            noncentral_f_cdf(math.nan, 4.0, 6.0, 2.0)


class TestProbabilityPair:
    def test_from_primary_clips_and_complements(self):
        pair = ProbabilityPair.from_primary(1.0000000000000002, "b", "test", 0.0)
        assert pair.b == 1.0 and pair.bbar == 0.0
        pair = ProbabilityPair.from_primary(0.25, "bbar", "test", 1e-15)
        assert pair.bbar == 0.25 and pair.b == 0.75

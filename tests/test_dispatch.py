import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special._ufuncs import _ncf_sf

import ncbeta.asymptotic
import ncbeta.dispatch
from ncbeta.asymptotic import eval_erfc_uniform
from ncbeta.dispatch import evaluate, explain
from ncbeta.errors import DomainError, EvaluationError
from ncbeta.kummer_series import eval_kummer_series
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import eval_series

# past the old window cap on the top index j_hi (1.5e6), inside the
# erfc-uniform strip; the series sums 2.6e4 terms, B is primary
PAST_WINDOW = (ShapeParams(5000.0, 5e4), EvalPoint(3e6, 0.9674))


def mp_complement(p, q, x, y, dps=40):
    """The complement as the plain Poisson mixture of mpmath incomplete
    betas, far past the point where the weights fall below 10^-dps."""
    with mp.workdps(dps):
        h = mp.mpf(x) / 2
        n = int(x / 2 + 12.0 * math.sqrt(x / 2) + 60.0)
        return mp.fsum(
            mp.exp(-h) * h**j / mp.factorial(j) * mp.betainc(q, p + j, 0, 1 - mp.mpf(y), regularized=True)
            for j in range(n)
        )


def mp_betainc_cf(a, b, x):
    """I_x(a, b) by the continued fraction of DLMF 8.17.22 in modified Lentz
    form, on the side of the mean where it converges; mpmath's betainc
    stalls at a of order 1e6."""
    if x > (a + 1) / (a + b + 2):
        return 1 - mp_betainc_cf(b, a, 1 - x)
    tiny = mp.mpf(10) ** (-3 * mp.mp.dps)
    eps = mp.mpf(10) ** (2 - mp.mp.dps)
    c, d = mp.mpf(1), 1 / (1 - (a + b) * x / (a + 1))
    h = d
    m = 1
    while True:
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1 + num * d
            d = 1 / (d if d != 0 else tiny)
            c = 1 + num / c
            c = c if c != 0 else tiny
            h *= d * c
        if abs(d * c - 1) < eps:
            break
        m += 1
    lfront = a * mp.log(x) + b * mp.log1p(-x) - (mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b))
    return mp.exp(lfront) * h / a


def windowed_reference(p, q, x, y, complement, dps=50, k=14.0):
    """One series member summed in dps-digit arithmetic over the window
    j = h -+ (k sqrt(h) + 60..80), h = x/2, whose dropped Poisson mass is
    below e^(-k^2/2) (1e-43) and whose terms lie in [0, 1].  The terms come
    from the increment chain d_a = y^a (1-y)^q / (a B(a, q)), seeded by a
    continued fraction at one edge: I_y(p+j, q) downward from the top for B,
    I_{1-y}(q, p+j) upward from the bottom for the complement.  Unlike
    ``mp_complement`` it does not sum from j = 0, so it reaches x of 1e8."""
    with mp.workdps(dps):
        p, q, y, h = mp.mpf(p), mp.mpf(q), mp.mpf(y), mp.mpf(x) / 2
        lo = max(int(x / 2 - k * math.sqrt(x / 2) - 60.0), 0)
        hi = int(x / 2 + k * math.sqrt(x / 2) + 80.0)

        def log_weight(j):
            return -h + j * mp.log(h) - mp.loggamma(j + 1)

        def increment(a):
            lbeta = mp.loggamma(a) + mp.loggamma(q) - mp.loggamma(a + q)
            return mp.exp(a * mp.log(y) + q * mp.log1p(-y) - lbeta) / a

        s = mp.mpf(0)
        if complement:
            g, d, w = mp_betainc_cf(q, p + lo, 1 - y), increment(p + lo), mp.exp(log_weight(lo))
            for j in range(lo, hi + 1):
                s += w * g
                g += d
                d *= y * (p + q + j) / (p + j + 1)
                w *= h / (j + 1)
            return s
        t, d, w = mp_betainc_cf(p + hi, q, y), increment(p + hi - 1), mp.exp(log_weight(hi))
        for j in range(hi, lo - 1, -1):
            s += w * t
            t += d
            d *= (p + j - 1) / (y * (p + q + j - 2))
            w *= j / h
        return s


class TestExplain:
    def test_boundary_and_central(self):
        # the series answers the quantile boundaries and x = 0 itself
        for x, y in [(2.0, 0.0), (2.0, 1.0), (1e8, 1.0), (0.0, 0.4)]:
            assert explain(ShapeParams(3.0, 4.0), EvalPoint(x, y)).route == "series"
        # at x = 0 its err_est bounds the true error (1.3e-14 here), which a
        # fixed 5e-15 understated
        sp, pt = ShapeParams(math.exp(4.0), 1.0), EvalPoint(0.0, 0.125)
        pair = evaluate(sp, pt)
        with mp.workdps(40):
            ref = mp.betainc(sp.p, sp.q, 0, pt.y, regularized=True)
        assert pair.method == "series"
        assert abs(mp.mpf(pair.b) - ref) <= pair.err_est * ref

    def test_documented_routes(self):
        # the series is the only route, past the old window and past the cap too
        assert explain(ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45)).route == "series"
        assert explain(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1)).route == "series"
        assert explain(ShapeParams(2.3, 3.5), EvalPoint(250.0, 0.9)).route == "series"
        assert explain(ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787)).route == "series"
        assert explain(*PAST_WINDOW).route == "series"
        assert explain(ShapeParams(1.0, 1e10), EvalPoint(1e5, 0.1)).route == "series"
        assert evaluate(*PAST_WINDOW).method == "series"

    def test_primary_flips_at_transition(self):
        sp = ShapeParams(10.0, 15.0)
        y0 = (4.5 + 20.0) / (4.5 + 50.0)
        assert explain(sp, EvalPoint(4.5, y0 - 1e-9)).primary_target == "B"
        assert explain(sp, EvalPoint(4.5, y0 + 1e-9)).primary_target == "Bbar"

    def test_deterministic(self):
        sp, pt = ShapeParams(17.0, 5.0), EvalPoint(33.0, 0.77)
        a = explain(sp, pt)
        b = explain(sp, pt)
        assert a == b


class TestEvaluate:
    def test_boundary_values(self):
        assert evaluate(ShapeParams(3.0, 4.0), EvalPoint(2.0, 1.0)).b == 1.0
        assert evaluate(ShapeParams(3.0, 4.0), EvalPoint(2.0, 0.0)).b == 0.0

    def test_series_route_equals_oracle(self):
        sp, pt = ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45)
        pair = evaluate(sp, pt)
        assert pair.method == "series"
        assert abs(pair.b - eval_series(sp, pt).b) <= 1e-13
        assert type(pair.b) is float and type(pair.bbar) is float
        assert type(pair.err_est) is float

    def test_kummer_overflow_falls_back_to_series(self):
        # the direct Kummer factors overflow math.exp here; the point lies
        # inside the series window, so the series answers it
        sp, pt = ShapeParams(0.86226, 485.544), EvalPoint(84263.1, 0.014963)
        with pytest.raises(EvaluationError):
            eval_kummer_series(sp, pt)
        pair = evaluate(sp, pt)
        assert pair.method == "series"
        assert pair == eval_series(sp, pt)

    def test_route_failure_propagates(self, monkeypatch):
        calls = []

        def fail(sp, pt):
            calls.append(pt)
            raise EvaluationError("series out of regime")

        monkeypatch.setattr(ncbeta.dispatch, "eval_series", fail)
        # the series is the only route: its failure is the caller's, with no
        # second attempt
        with pytest.raises(EvaluationError, match="series out of regime"):
            evaluate(*PAST_WINDOW)
        assert calls == [PAST_WINDOW[1]]

    def test_former_large_z_points_meet_tol(self):
        # defect 3: the large-z expansion, once routed here, returned
        # B = 0.0125 with err_est 3.4; its terms grow with y/(1-y)
        sp, pt = ShapeParams(0.71752, 8.01142), EvalPoint(109.916, 0.946905)
        pair = evaluate(sp, pt)
        assert pair.method == "series" and pair.err_est <= 1e-12
        oracle = special.ncfdtr(2.0 * sp.p, 2.0 * sp.q, pt.x, (sp.q / sp.p) * pt.y / (1.0 - pt.y))
        assert abs(pair.b - 0.97993) <= 1e-5
        assert abs(pair.b - oracle) <= 1e-10
        # every eval-mixed point (seeds 1-2) the large-z rule used to take:
        # z >= 40, p, q <= 10, y <= 0.95
        taken = 0
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            for _ in range(4000):
                p = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
                q = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
                x = rng.uniform(0.0, 500.0)
                y = rng.uniform(0.001, 0.999)
                if 0.5 * x * y >= 40.0 and p <= 10.0 and q <= 10.0 and y <= 0.95:
                    pair = evaluate(ShapeParams(p, q), EvalPoint(x, y))
                    assert pair.method == "series" and pair.err_est <= 1e-12
                    taken += 1
        assert taken > 400

    @pytest.mark.parametrize(
        "p, q, x, y, rel",
        [
            # the Kummer series, once routed here, is 5.8e-15 off scipy
            (1.0707, 1808.6, 713.414, 0.15508, 1e-10),
            # and 6.9e-10 off here in the complement it sums (4.6e-10 in B),
            # within its err_est of 1.3e-9; the series' err_est is 4.6e-10,
            # from the rounding of its q-sized prefactor
            (963.2402443790243, 1930946.5636718948, 225496.4798155446, 0.05566943235104177, 1e-9),
        ],
    )
    def test_small_quantile_goes_to_series_and_meets_oracle(self, p, q, x, y, rel):
        pair = evaluate(ShapeParams(p, q), EvalPoint(x, y))
        assert pair.method == "series"
        oracle = special.ncfdtr(2.0 * p, 2.0 * q, x, (q / p) * y / (1.0 - y))
        assert abs(pair.b - oracle) <= rel * oracle

    def test_series_certifies_vanishing_b_past_its_window(self):
        # past the old top-index cap (the third point also past the term
        # cap), an upper bound puts B below e^-750 (at the third point the
        # saddle also rounds onto t = 1, and the last three lie in the
        # uniform expansion's strip, where it returned 0 with err_est 1)
        for p, q, x, y in [
            (0.7, 50.0, 5e6, 0.01),
            (2.0, 3.0, 3e6, 0.5),
            (781.9311283576282, 498.0331145429488, 1439534073903.5244, 0.37628435451196307),
            (5000.0, 5e4, 3e6, 0.8),
            (5000.0, 5e4, 3e6, 0.9),
            (5000.0, 5e4, 3e6, 0.95),
        ]:
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            assert explain(sp, pt).route == "series"
            pair = evaluate(sp, pt)
            assert pair.method == "series" and pair.b == 0.0 and pair.bbar == 1.0
            assert pair.err_est == 1e-15

    @pytest.mark.parametrize(
        "p, q, x, y",
        [
            # B = 0.0297345...: past the old top-index cap, where the series raised
            (30.0, 50.0, 1e7, 0.99998717),
            # the complement 2.84615e-6: erfc-uniform took this point and
            # reported err_est 1.75e-11 against a true error of 1.02e-10
            (5688.732683238366, 81696.99595779285, 6941210.932660288, 0.977401023735776),
        ],
    )
    def test_series_past_the_old_window_within_err_est(self, p, q, x, y):
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        pair = evaluate(sp, pt)
        assert pair.method == "series"
        complement = explain(sp, pt).primary_target == "Bbar"
        ref = windowed_reference(p, q, x, y, complement)
        got = pair.bbar if complement else pair.b
        assert abs(mp.mpf(got) - ref) <= pair.err_est * ref

    def test_subnormal_series_values_within_err_est(self):
        # each product w_j t_j formed below the normal range loses up to
        # 2^-1075: the first point's B = 1.129e-312 is 8.2e-10 off, 165 times
        # the err_est of the sum without that term.  It, and every
        # eval-mixed point (seeds 1-2) whose primary member is subnormal;
        # the reference sums from j = 0 and far past the complement's peak
        points = [(1223.2739956765959, 108.95984722302647, 482.1949603134222, 0.47781014724758447)]
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            for _ in range(4000):
                p = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
                q = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
                points.append((p, q, rng.uniform(0.0, 500.0), rng.uniform(0.001, 0.999)))
        checked = 0
        for p, q, x, y in points:
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            pair = evaluate(sp, pt)
            complement = explain(sp, pt).primary_target == "Bbar"
            got = pair.bbar if complement else pair.b
            if not 0.0 < got < sys.float_info.min:
                continue
            ref = windowed_reference(p, q, x, y, complement, dps=40, k=4.0 * math.sqrt(0.5 * x) + 5.0)
            assert abs(mp.mpf(got) - ref) <= pair.err_est * ref
            checked += 1
        assert checked > 30

    def test_windowed_reference_matches_full_sums(self):
        # inside the reach of the full mpmath sums the windowed reference
        # agrees with them, and its two members sum to 1
        for p, q, x, y in [(20.0, 20.0, 54.0, 0.8787), (3.0, 40.0, 300.0, 0.5)]:
            bbar = windowed_reference(p, q, x, y, True)
            with mp.workdps(40):
                assert abs(bbar - mp_complement(p, q, x, y)) < mp.mpf(10) ** -35
                assert abs(windowed_reference(p, q, x, y, False) + bbar - 1) < mp.mpf(10) ** -35

    def test_boundary_layer_pinned_value(self):
        # the paper's value is the K = 2 erfc-uniform truncation, 9e-12 off;
        # the series inside its window meets mpmath within err_est
        sp, pt = ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787)
        assert abs(eval_erfc_uniform(sp, pt, target="B").b - 0.9998676573798253) <= 1e-11
        pair = evaluate(sp, pt)
        assert pair.method == "series"
        ref = mp_complement(sp.p, sp.q, pt.x, pt.y)
        assert abs(mp.mpf(pair.bbar) - ref) <= pair.err_est * ref

    def test_evaluate_builds_no_frame(self, monkeypatch):
        calls = []

        def counted(sp, pt):
            calls.append(pt)
            return ncbeta.asymptotic.build_frame(sp, pt)

        monkeypatch.setattr(ncbeta.asymptotic, "build_frame", counted)
        # no saddle frame, inside the old window or past it
        for p, q, x, y in [(30.0, 30.0, 100.0, 0.1), (20.0, 20.0, 54.0, 0.8787), (500.0, 700.0, 1e5, 0.5)]:
            assert evaluate(ShapeParams(p, q), EvalPoint(x, y)).method == "series"
        assert evaluate(*PAST_WINDOW).method == "series"
        assert calls == []
        assert not any(hasattr(ncbeta.dispatch, name) for name in ("build_frame", "_erfc_uniform", "SaddleFrame"))

    def test_complement_past_the_window_is_an_evaluation_error(self):
        # the complement is primary and its window, which runs to the summand
        # peak, passes MAX_WINDOW_TERMS terms (7.05e6 at the first point)
        for p, q, x, y in [(1.0, 1e10, 1e5, 0.1), (1.0, 1e12, 1e4, 0.15)]:
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            assert explain(sp, pt).route == "series"
            with pytest.raises(EvaluationError, match="series window would need"):
                evaluate(sp, pt)
        # past the old top-index cap this complement's window holds few
        # enough terms, and its sum underflows: the complement is 0
        pair = evaluate(ShapeParams(5.0, 1e7), EvalPoint(3e6, 0.15))
        assert pair.method == "series" and pair.bbar == 0.0 and pair.b == 1.0

    def test_err_est_honest_where_a_coefficient_nears_zero(self):
        # g_4 sits near a zero here, so the last kept term understates the error
        sp = ShapeParams(165.63569065889928, 48.425949590332024)
        pt = EvalPoint(380.96000809916194, 0.08540478599351288)
        ev = eval_erfc_uniform(sp, pt)
        orc = eval_series(sp, pt)
        assert abs(ev.b - orc.b) / orc.b <= 2.0 * ev.err_est

    def test_invalid_tolerance(self):
        for tol in (0.0, -1e-12, math.nan):
            with pytest.raises(DomainError):
                evaluate(ShapeParams(1.0, 1.0), EvalPoint(1.0, 0.5), tol=tol)

    def test_monotonicity_small_grid(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            p = math.exp(rng.uniform(math.log(1.0), math.log(150.0)))
            q = math.exp(rng.uniform(math.log(1.0), math.log(150.0)))
            x = rng.uniform(0.0, 120.0)
            y = rng.uniform(0.05, 0.9)
            sp = ShapeParams(p, q)
            a = evaluate(sp, EvalPoint(x, y))
            b = evaluate(sp, EvalPoint(x, y + 0.01))
            band = 10.0 * (a.err_est + b.err_est) * max(a.b, b.b) + 1e-15
            assert b.b >= a.b - band
            c = evaluate(sp, EvalPoint(x + 0.01 * (1.0 + x), y))
            band = 10.0 * (a.err_est + c.err_est) * max(a.b, c.b) + 1e-15
            assert c.b <= a.b + band

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        # Boost's ncfdtr is erratic below x ~ 1e-150 (0.514 at (1, 1, 5e-161,
        # 0.5), 0 at x = 5e-324, against 0.5), where no eval-mixed x falls
        st.one_of(st.just(0.0), st.floats(1e-50, 500.0)),
        st.floats(0.001, 0.999),
    )
    def test_accuracy_against_oracle_sample(self, p, q, x, y):
        # scipy (Boost) is independent of every route; it is trusted where
        # its smaller member is at least 1e-60 and the two sum to 1 within
        # 1e-10
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")  # Boost warns where its series stalls; the rule rejects those
            f = (q / p) * y / (1.0 - y)
            cdf, sf = special.ncfdtr(2.0 * p, 2.0 * q, x, f), _ncf_sf(f, 2.0 * p, 2.0 * q, x)
        if not (min(cdf, sf) >= 1e-60 and abs(cdf + sf - 1.0) <= 1e-10):
            return
        pair = evaluate(ShapeParams(p, q), EvalPoint(x, y))
        got, ref = (pair.b, cdf) if cdf <= sf else (pair.bbar, sf)
        assert abs(got - ref) <= 1e-10 * ref

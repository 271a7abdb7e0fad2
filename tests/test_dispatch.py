import math
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
from ncbeta.series import MAX_WINDOW_TERMS, eval_series, window_terms

# past the series window (1.5e6 terms), inside the erfc-uniform strip; B is
# primary, and erfc-uniform is within 1.5e-11 of scipy here
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
        # the series wherever its window reaches, erfc-uniform only past it
        assert explain(ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45)).route == "series"
        assert explain(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1)).route == "series"
        assert explain(ShapeParams(2.3, 3.5), EvalPoint(250.0, 0.9)).route == "series"
        assert explain(ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787)).route == "series"
        sp, pt = PAST_WINDOW
        assert window_terms(sp, pt) > MAX_WINDOW_TERMS
        assert explain(sp, pt).route == "erfc-uniform"

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

    def test_route_failure_falls_back_to_series(self, monkeypatch):
        calls = []

        def fail(frame, target):
            calls.append(target)
            raise EvaluationError("erfc-uniform out of regime")

        monkeypatch.setattr(ncbeta.dispatch, "_erfc_uniform", fail)
        # past the window, where B does not vanish, the series names the
        # window it would need
        assert explain(*PAST_WINDOW).route == "erfc-uniform"
        with pytest.raises(EvaluationError, match="series window would need"):
            evaluate(*PAST_WINDOW)
        assert calls == ["B"]

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
            # the Kummer series returns 0.1774340 here, 8.8e-5 off, with err_est 7e-14
            (1.0707, 1808.6, 713.414, 0.15508, 1e-10),
            # and 0.46527 here, 22% off, with err_est 1.3e-11; the series'
            # err_est is 4.6e-10, from the rounding of its q-sized prefactor
            (963.2402443790243, 1930946.5636718948, 225496.4798155446, 0.05566943235104177, 1e-9),
        ],
    )
    def test_small_quantile_goes_to_series_and_meets_oracle(self, p, q, x, y, rel):
        pair = evaluate(ShapeParams(p, q), EvalPoint(x, y))
        assert pair.method == "series"
        oracle = special.ncfdtr(2.0 * p, 2.0 * q, x, (q / p) * y / (1.0 - y))
        assert abs(pair.b - oracle) <= rel * oracle

    def test_series_certifies_vanishing_b_past_its_window(self):
        # the window would pass MAX_WINDOW_TERMS; an upper bound puts B below
        # e^-750 (at the third point the saddle also rounds onto t = 1, and
        # the last three lie in the uniform expansion's strip, where it
        # returned 0 with err_est 1)
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

    def test_boundary_layer_pinned_value(self):
        # the paper's value is the K = 2 erfc-uniform truncation, 9e-12 off;
        # the series inside its window meets mpmath within err_est
        sp, pt = ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787)
        assert abs(eval_erfc_uniform(sp, pt, target="B").b - 0.9998676573798253) <= 1e-11
        pair = evaluate(sp, pt)
        assert pair.method == "series"
        ref = mp_complement(sp.p, sp.q, pt.x, pt.y)
        assert abs(mp.mpf(pair.bbar) - ref) <= pair.err_est * ref

    def test_frame_built_once(self, monkeypatch):
        calls = []

        def counted(sp, pt):
            calls.append(pt)
            return ncbeta.asymptotic.build_frame(sp, pt)

        monkeypatch.setattr(ncbeta.dispatch, "build_frame", counted)
        # inside the series window no frame is built
        for p, q, x, y in [(30.0, 30.0, 100.0, 0.1), (20.0, 20.0, 54.0, 0.8787), (500.0, 700.0, 1e5, 0.5)]:
            assert evaluate(ShapeParams(p, q), EvalPoint(x, y)).method == "series"
        assert calls == []
        # past it, exactly one, which the route evaluates on
        assert evaluate(*PAST_WINDOW).method == "erfc-uniform"
        assert len(calls) == 1

    def test_complement_past_the_window_is_an_evaluation_error(self):
        # the complement is primary and its window, which runs to the summand
        # peak, passes MAX_WINDOW_TERMS; at the last two points the Poisson
        # window alone is short
        for p, q, x, y in [(5.0, 1e7, 3e6, 0.15), (1.0, 1e10, 1e5, 0.1), (1.0, 1e12, 1e4, 0.15)]:
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            assert explain(sp, pt).route == "series"
            with pytest.raises(EvaluationError, match="series window would need"):
                evaluate(sp, pt)

    def test_err_est_honest_where_a_coefficient_nears_zero(self):
        # g_4 sits near a zero here, so the last kept term understates the error
        sp = ShapeParams(165.63569065889928, 48.425949590332024)
        pt = EvalPoint(380.96000809916194, 0.08540478599351288)
        ev = eval_erfc_uniform(sp, pt)
        orc = eval_series(sp, pt)
        assert abs(ev.b - orc.b) / orc.b <= 2.0 * ev.err_est

    def test_invalid_tolerance(self):
        with pytest.raises(DomainError):
            evaluate(ShapeParams(1.0, 1.0), EvalPoint(1.0, 0.5), tol=0.0)

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

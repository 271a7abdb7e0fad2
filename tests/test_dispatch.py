import math

import numpy as np
import pytest
from scipy import special

import ncbeta.asymptotic
import ncbeta.dispatch
from ncbeta.dispatch import evaluate, explain
from ncbeta.errors import DomainError, EvaluationError
from ncbeta.kummer_series import eval_kummer_series
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import eval_series


class TestExplain:
    def test_boundary_and_central(self):
        assert explain(ShapeParams(3.0, 4.0), EvalPoint(2.0, 0.0)).route == "boundary"
        assert explain(ShapeParams(3.0, 4.0), EvalPoint(2.0, 1.0)).route == "boundary"
        assert explain(ShapeParams(3.0, 4.0), EvalPoint(0.0, 0.4)).route == "central"

    def test_documented_routes(self):
        assert explain(ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45)).route == "series"
        assert explain(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1)).route == "erfc-uniform"
        assert explain(ShapeParams(2.3, 3.5), EvalPoint(250.0, 0.9)).route == "series"
        assert explain(ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787)).route == "erfc-uniform"

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
        sp, pt = ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1)
        assert explain(sp, pt).route == "erfc-uniform"
        calls = []

        def fail(frame, target):
            calls.append(target)
            raise EvaluationError("erfc-uniform out of regime")

        monkeypatch.setattr(ncbeta.dispatch, "_erfc_uniform", fail)
        pair = evaluate(sp, pt)
        assert calls == ["B"]
        assert pair.method == "series"
        assert pair == eval_series(sp, pt, tol=1e-12)

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
        # e^-750 (at the last point the saddle also rounds onto t = 1)
        for p, q, x, y in [
            (0.7, 50.0, 5e6, 0.01),
            (2.0, 3.0, 3e6, 0.5),
            (781.9311283576282, 498.0331145429488, 1439534073903.5244, 0.37628435451196307),
        ]:
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            assert explain(sp, pt).route == "series"
            pair = evaluate(sp, pt)
            assert pair.method == "series" and pair.b == 0.0 and pair.bbar == 1.0

    def test_boundary_layer_pinned_value(self):
        pair = evaluate(ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787))
        assert pair.method == "erfc-uniform"
        assert abs(pair.b - 0.9998676573798253) <= 1e-11

    def test_frame_built_once(self, monkeypatch):
        calls = []

        def counted(sp, pt):
            calls.append(pt)
            return ncbeta.asymptotic.build_frame(sp, pt)

        monkeypatch.setattr(ncbeta.dispatch, "build_frame", counted)
        pair = evaluate(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1))
        assert pair.method == "erfc-uniform"
        assert len(calls) == 1
        # outside the strip's quantile and angle edges no frame is built
        for p, q, y in [(30.0, 30.0, 0.995), (45.0, 1.0, 0.5)]:
            assert evaluate(ShapeParams(p, q), EvalPoint(100.0, y)).method == "series"
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
        ev = evaluate(sp, pt)
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

    def test_accuracy_against_oracle_sample(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            p = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
            q = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
            x = rng.uniform(0.0, 500.0)
            y = rng.uniform(1e-3, 1.0 - 1e-3)
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            ev = evaluate(sp, pt)
            orc = eval_series(sp, pt)
            small_b = orc.b <= orc.bbar
            m_o = orc.b if small_b else orc.bbar
            m_e = ev.b if small_b else ev.bbar
            if m_o < 1e-290 or orc.err_est > 1e-8:
                continue
            assert abs(m_e - m_o) / m_o <= max(5e-12, 5.0 * ev.err_est)

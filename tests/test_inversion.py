import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ncbeta.inversion
import ncbeta.kernels
import ncbeta.kummer_series
import ncbeta.recurrence
from ncbeta.asymptotic import build_frame
from ncbeta.dispatch import evaluate
from ncbeta.errors import DomainError
from ncbeta.inversion import (
    InversionProblem,
    _slope,
    _transition_root,
    db_dx,
    db_dy,
    invert,
    transition_equation,
    zeta0_seed,
    zeta1_correction,
)
from ncbeta.kernels import central_beta_cdf, kummer_m_log, log_beta
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import _series_window

SP = ShapeParams(10.0, 15.0)


class TestSeeds:
    def test_zeta0_values(self):
        assert zeta0_seed(InversionProblem("x", SP, 0.45, 0.5)) == 0.0
        z1 = zeta0_seed(InversionProblem("x", SP, 0.45, 0.4))
        assert abs(z1 - 0.05067) <= 5e-5
        z2 = zeta0_seed(InversionProblem("y", SP, 4.5, 0.01))
        assert abs(z2 - 0.4653) <= 5e-4

    def test_zeta1_limit_is_g0(self):
        prob = InversionProblem("x", SP, 0.45, 0.5)
        g0_like = zeta1_correction(prob, 0.0, 50.0 / 11.0)
        # must equal the leading boundary-layer coefficient at the transition
        assert 0.10 < g0_like < 0.13

    def test_correction_improves_worked_example(self):
        r = invert(InversionProblem("x", SP, 0.45, 0.4))
        raw = abs(evaluate(SP, EvalPoint(r.seed_value_raw, 0.45)).b - 0.4)
        corrected = abs(evaluate(SP, EvalPoint(r.seed_value, 0.45)).b - 0.4)
        assert corrected < raw
        assert abs(r.seed_value - 7.4176) <= 5e-3 * 7.4176


class TestTransitionEquation:
    def test_zero_at_transition(self):
        val = transition_equation(SP, EvalPoint(50.0 / 11.0, 0.45), 0.0)
        assert abs(val) <= 1e-12

    def test_worked_root(self):
        z0 = zeta0_seed(InversionProblem("x", SP, 0.45, 0.4))
        val = transition_equation(SP, EvalPoint(7.1704, 0.45), z0)
        assert abs(val) <= 1e-5

    @pytest.mark.parametrize("z, root", [(0.01, 0.2330), (0.99, 0.6739)])
    def test_worked_y_roots(self, z, root):
        # the paper's quantile roots: a sign change within 5e-3 relative
        zeta0 = zeta0_seed(InversionProblem("y", SP, 4.5, z))
        lo = transition_equation(SP, EvalPoint(4.5, root * (1.0 - 5e-3)), zeta0)
        hi = transition_equation(SP, EvalPoint(4.5, root * (1.0 + 5e-3)), zeta0)
        assert lo * hi < 0.0

    def test_agrees_with_frame(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.uniform(1.0, 50.0)
            q = rng.uniform(1.0, 50.0)
            x = rng.uniform(0.5, 80.0)
            y = rng.uniform(0.05, 0.95)
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            te = transition_equation(sp, pt, 0.0)
            fr = build_frame(sp, pt)
            assert abs(te - fr.dphi) <= 1e-12 * (1.0 + abs(fr.dphi))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            transition_equation(SP, EvalPoint(0.0, 0.45), 0.0)


class TestTransitionRoot:
    @pytest.mark.parametrize(
        "unknown, fixed, z, root",
        [("x", 0.45, 0.4, 7.1704), ("x", 0.45, 0.6, 2.1475), ("y", 4.5, 0.01, 0.2330), ("y", 4.5, 0.99, 0.6739)],
    )
    def test_worked_roots(self, unknown, fixed, z, root):
        # the paper's four roots at (p, q) = (10, 15), one on each side of
        # the transition point for each unknown
        problem = InversionProblem(unknown, SP, fixed, z)
        assert abs(_transition_root(problem, zeta0_seed(problem)) - root) <= 5e-5

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["x", "y"]),
        st.floats(1.0, 200.0),
        st.floats(1.0, 200.0),
        st.floats(0.0, 1.0),
        st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_root_on_the_selected_side_and_a_sign_change(self, unknown, p, q, t, z):
        assume(abs(z - 0.5) > 0.01)
        sp = ShapeParams(p, q)
        fixed = 0.05 + 0.9 * t if unknown == "x" else 0.5 + 199.5 * t
        problem = InversionProblem(unknown, sp, fixed, z)
        zeta0 = zeta0_seed(problem)
        root = _transition_root(problem, zeta0)
        assume(root is not None)
        if unknown == "x":
            # B falls in x: zeta0 > 0 (B below 1/2) lies above x0
            x0 = sp.transition_noncentrality(fixed)
            assert root >= x0 if zeta0 > 0.0 else root <= x0
            delta = 1e-8 * max(root, 1e-3)
            lo, hi = EvalPoint(root - delta, fixed), EvalPoint(root + delta, fixed)
            assume(root - delta > 0.0)
        else:
            # B rises in y: zeta0 > 0 lies below y0
            y0 = sp.transition_quantile(fixed)
            assert root <= y0 if zeta0 > 0.0 else root >= y0
            # past the bisection's own resolution, 1e-13 of the root
            delta = 1e-8 * min(root, 1.0 - root) + 1e-12 * root
            assume(root + delta < 1.0)
            lo, hi = EvalPoint(fixed, root - delta), EvalPoint(fixed, root + delta)
        assert transition_equation(sp, lo, zeta0) * transition_equation(sp, hi, zeta0) < 0.0

    @pytest.mark.parametrize(
        "p, q, x, z, evaluations",
        [
            # 1 evaluation from the transition root; 13 from the transition point
            (96.68042701547492, 6.9921214872343675, 43.52039230076282, 0.9999999999999732, 3),
            # 6 from the root; 37 of the 40-step budget from the transition point
            (0.34083024595594397, 0.8289795492693324, 490.0511038743345, 0.9999999996955192, 12),
        ],
    )
    def test_deep_upper_tail_quantile_converges_in_few_evaluations(self, p, q, x, z, evaluations):
        # the zeta series leaves the domain this far into the tail
        res = invert(InversionProblem("y", ShapeParams(p, q), x, z))
        assert res.converged and res.iterations <= evaluations


def slope_reference(p, q, x, y, dps=40):
    """The derivatives of B as Poisson sums over w_j and the increments
    d_a = I_y(a, q) - I_y(a+1, q), a = p + j, in dps-digit arithmetic from
    j = 0 until a geometric bound on the rest falls below 10^-dps of the sum:

        dB/dx   = -1/2 sum_j w_j d_a,
        dB/dy   = sum_j w_j d_a a / (y(1-y)),
        d2B/dx2 = 1/4 sum_j w_j d_a (1 - y(a+q)/(a+1)),
        d2B/dy2 = sum_j w_j d_a a ((a-1)/y - (q-1)/(1-y)) / (y(1-y)).

    Returns those four and, for the two second derivatives, the same sums
    over the magnitudes of the parts of each term, w_j d_a (1 + y(a+q)/(a+1))
    and w_j d_a a (|a-1|/y + |q-1|/(1-y)): the scale of their rounding error."""
    with mp.workdps(dps):
        p, q, x, y = (mp.mpf(v) for v in (p, q, x, y))
        h = x / 2
        w = mp.exp(-h)
        d = mp.exp(p * mp.log(y) + q * mp.log1p(-y) - mp.log(mp.beta(p, q)) - mp.log(p))
        sx = sy = sxx = syy = axx = ayy = mp.mpf(0)
        j = 0
        while True:
            a = p + j
            sx += w * d
            sy += w * d * a
            sxx += w * d * (1 - y * (a + q) / (a + 1))
            axx += w * d * (1 + y * (a + q) / (a + 1))
            syy += w * d * a * ((a - 1) / y - (q - 1) / (1 - y))
            ayy += w * d * a * (abs(a - 1) / y + abs(q - 1) / (1 - y))
            r = h / (j + 1) * y * (p + q + j) / (p + j + 1)
            if j >= h and r < 1 and w * d * r / (1 - r) < mp.mpf(10) ** -dps * sx:
                yy = y * (1 - y)
                return -sx / 2, sy / yy, sxx / 4, syy / yy, axx / 4, ayy / yy
            w, d = w * h / (j + 1), d * y * (p + q + j) / (p + j + 1)
            j += 1


class TestDerivatives:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(0.0, 500.0),
        st.floats(0.01, 0.99),
    )
    @example(3.0, 3.0, 400.0, 0.995)  # the complement's window, from j = 74
    @example(50.0, 800.0, 450.0, 0.3)  # B's window, from j = 92
    def test_slope_against_mpmath_sums(self, p, q, x, y):
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        for got, ref in zip((db_dx(sp, pt), db_dy(sp, pt)), slope_reference(p, q, x, y)[:2]):
            if abs(ref) > 1e-280:
                assert abs(got - ref) <= 1e-11 * abs(ref)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(0.0, 500.0),
        st.floats(0.01, 0.99),
    )
    @example(3.0, 3.0, 400.0, 0.995)  # the complement's window, from j = 74
    @example(50.0, 800.0, 450.0, 0.3)  # B's window, from j = 92
    def test_second_derivative_against_mpmath_sums(self, p, q, x, y):
        # B'' passes through zero, so its error is measured against the sum
        # of the magnitudes of the parts of its terms
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        window = _series_window(sp, pt)[1]
        _, _, ref_x, ref_y, scale_x, scale_y = slope_reference(p, q, x, y)
        for unknown, ref, scale in (("x", ref_x, scale_x), ("y", ref_y, scale_y)):
            if scale > 1e-280:
                got = _slope(sp, pt, unknown, window)[1]
                assert abs(got - ref) <= 1e-11 * scale

    @pytest.mark.parametrize(
        "p, q, x, y", [(10.0, 15.0, 4.5, 0.45), (3.5, 40.0, 60.0, 0.3), (200.0, 150.0, 300.0, 0.6), (0.7, 2.5, 20.0, 0.9)]
    )
    def test_slope_matches_kummer_closed_form(self, p, q, x, y):
        # dB/dx = -e^{-x/2} y^p (1-y)^q M(p+q, p+1, xy/2) / (2 p B(p, q)) and
        # dB/dy = e^{-x/2} y^{p-1} (1-y)^{q-1} M(p+q, p, xy/2) / B(p, q)
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        lpre = -0.5 * x + p * math.log(y) + q * math.log1p(-y) - log_beta(p, q)
        ref_x = -math.exp(lpre + kummer_m_log(p + q, p + 1.0, 0.5 * x * y)) / (2.0 * p)
        ref_y = math.exp(lpre + kummer_m_log(p + q, p, 0.5 * x * y)) / (y * (1.0 - y))
        assert abs(db_dx(sp, pt) - ref_x) <= 1e-12 * abs(ref_x)
        assert abs(db_dy(sp, pt) - ref_y) <= 1e-12 * abs(ref_y)

    @pytest.mark.parametrize("p, q, y", [(10.0, 15.0, 0.45), (0.6, 1500.0, 0.0004), (5000.0, 5e4, 0.09)])
    def test_slope_at_zero_noncentrality(self, p, q, y):
        # one weight and one increment: dB/dx = -d_p / 2, dB/dy = d_p p / (y(1-y))
        sp, pt = ShapeParams(p, q), EvalPoint(0.0, y)
        with mp.workdps(40):
            d_p = mp.exp(p * mp.log(y) + q * mp.log1p(-y) - mp.log(mp.beta(p, q))) / p
            ref_x, ref_y = float(-d_p / 2), float(d_p * p / (mp.mpf(y) * (1 - mp.mpf(y))))
        assert abs(db_dx(sp, pt) - ref_x) <= 1e-12 * abs(ref_x)
        assert abs(db_dy(sp, pt) - ref_y) <= 1e-12 * abs(ref_y)

    def test_no_slope_without_a_window(self):
        # B certified below e^-750 and the quantile boundaries sum no window
        sp = ShapeParams(1500.0, 5.0)
        for pt in (EvalPoint(200.0, 0.3), EvalPoint(200.0, 0.0), EvalPoint(200.0, 1.0)):
            assert db_dx(sp, pt) == 0.0 and db_dy(sp, pt) == 0.0

    def test_signs(self):
        pt = EvalPoint(4.5, 0.45)
        assert db_dx(SP, pt) < 0.0
        assert db_dy(SP, pt) > 0.0

    def test_against_finite_differences(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 25:
            # keep r small, so that B moves well above the evaluation noise
            # over the finite-difference steps
            p = math.exp(rng.uniform(math.log(1.0), math.log(19.0)))
            q = math.exp(rng.uniform(math.log(1.0), math.log(19.0)))
            x = rng.uniform(0.5, 35.0)
            y = rng.uniform(0.15, 0.85)
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)
            if not 0.01 < evaluate(sp, pt).b < 0.99:
                continue
            hx = 1e-5 * (1.0 + x)
            fd = (evaluate(sp, EvalPoint(x + hx, y)).b - evaluate(sp, EvalPoint(x - hx, y)).b) / (2 * hx)
            assert abs(fd - db_dx(sp, pt)) <= 1e-6 * abs(db_dx(sp, pt))
            hy = 1e-5
            fd = (evaluate(sp, EvalPoint(x, y + hy)).b - evaluate(sp, EvalPoint(x, y - hy)).b) / (2 * hy)
            assert abs(fd - db_dy(sp, pt)) <= 1e-6 * abs(db_dy(sp, pt))
            done += 1


class TestInvert:
    def test_problem_validation(self):
        with pytest.raises(DomainError):
            InversionProblem("z", SP, 0.45, 0.5)
        with pytest.raises(DomainError):
            InversionProblem("x", SP, 0.45, 1.5)
        with pytest.raises(DomainError):
            InversionProblem("x", SP, 1.5, 0.5)
        # a non-finite noncentrality or tolerance once reached the seed's
        # series reversion and escaped as a ValueError
        for fixed in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="fixed noncentrality"):
                InversionProblem("y", SP, fixed, 0.3)
        for unknown, fixed in (("x", 0.45), ("y", 4.5)):
            for tol in (math.nan, 0.0):
                with pytest.raises(DomainError, match="tol"):
                    InversionProblem(unknown, SP, fixed, 0.3, tol=tol)

    def test_result_fields_are_floats(self):
        # the seeds were numpy.float64 from the series evaluation over numpy
        # coefficients, and a converged seed passed on into value
        for problem in (InversionProblem("x", SP, 0.45, 0.4), InversionProblem("y", SP, 4.5, 0.99)):
            res = invert(problem)
            assert res.seed_path == "zeta-series"
            for v in (res.value, res.residual, res.zeta0, res.seed_value, res.seed_value_raw):
                assert type(v) is float

    def test_worked_examples_x(self):
        r = invert(InversionProblem("x", SP, 0.45, 0.5))
        assert abs(r.seed_value_raw - 50.0 / 11.0) <= 1e-6
        assert abs(r.residual) <= 1e-10
        assert abs(evaluate(SP, EvalPoint(r.value, 0.45)).b - 0.5) <= 1e-10

        r = invert(InversionProblem("x", SP, 0.45, 0.4))
        assert abs(r.seed_value_raw - 7.1704) <= 5e-3 * 7.1704
        assert abs(r.residual) <= 1e-10

        r = invert(InversionProblem("x", SP, 0.45, 0.6))
        assert abs(r.seed_value_raw - 2.1475) <= 5e-3 * 2.1475

    def test_worked_examples_y(self):
        r = invert(InversionProblem("y", SP, 4.5, 0.99))
        assert abs(r.seed_value - 0.6739) <= 5e-3 * 0.6739
        assert abs(evaluate(SP, EvalPoint(4.5, r.seed_value)).b - 0.98999) <= 5e-5
        assert abs(r.residual) <= 1e-10

        # the transition series seeds at any |zeta0|; its raw seed is the
        # paper's 0.2330, and the zeta1 correction moves it toward the root
        r = invert(InversionProblem("y", SP, 4.5, 0.01))
        assert r.seed_path == "zeta-series"
        assert abs(r.seed_value_raw - 0.2330) <= 5e-3 * 0.2330
        assert abs(r.seed_value - r.value) < abs(r.seed_value_raw - r.value)
        assert abs(r.residual) <= 1e-10

    def test_branch_rule_sides(self):
        x0 = 50.0 / 11.0
        r_low = invert(InversionProblem("x", SP, 0.45, 0.4))  # zeta0 > 0: right of x0
        assert r_low.value > x0
        r_high = invert(InversionProblem("x", SP, 0.45, 0.6))  # zeta0 < 0: left of x0
        assert r_high.value < x0
        y0 = 49.0 / 109.0
        assert invert(InversionProblem("y", SP, 4.5, 0.01)).value < y0
        assert invert(InversionProblem("y", SP, 4.5, 0.99)).value > y0

    def test_infeasible_target_rejected(self):
        with pytest.raises(DomainError, match="0.70"):
            invert(InversionProblem("x", SP, 0.45, 0.71))

    def test_target_at_bound_gives_zero(self):
        zmax = central_beta_cdf(10.0, 15.0, 0.45)
        r = invert(InversionProblem("x", SP, 0.45, zmax))
        assert r.value == 0.0
        assert r.seed_path == "boundary"
        assert r.converged

    def test_round_trip_sample(self):
        rng = np.random.default_rng(55)
        done = 0
        iterations = 0
        while done < 50:
            p = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
            q = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
            sp = ShapeParams(p, q)
            if done % 2 == 0:
                y = rng.uniform(0.05, 0.95)
                zmax = central_beta_cdf(p, q, y)
                if zmax < 0.01:
                    continue
                z = rng.uniform(0.001, min(0.999, zmax * (1.0 - 1e-6)))
                prob = InversionProblem("x", sp, y, z, tol=1e-10)
            else:
                x = rng.uniform(0.0, 100.0)
                z = rng.uniform(0.001, 0.999)
                prob = InversionProblem("y", sp, x, z, tol=1e-10)
            res = invert(prob)
            assert abs(res.residual) <= 1e-10 * max(z, 1.0 - z)
            assert res.converged
            iterations += res.iterations
            done += 1
        # Halley's step: 3.08 evaluations a solve with Newton's
        assert iterations / done <= 2.6

    def test_exhausted_budget_is_not_converged(self):
        # the root lies near y = 1e-54, and bisection halves y only down to
        # 9.1e-25 in its 40 steps
        res = invert(InversionProblem("y", ShapeParams(0.14454, 943.65), 0.1156, 3.818e-8))
        assert res.iterations == 40
        assert abs(res.residual) > 1e-10 and not res.converged

    def test_exhausted_budget_reports_an_evaluated_iterate(self):
        # the 40th evaluation's iterate and its own residual, not the next
        # iterate (never evaluated) with the residual of the one before
        sp, x, z = ShapeParams(0.14454, 943.65), 0.1156, 3.818e-8
        res = invert(InversionProblem("y", sp, x, z))
        assert res.iterations == 40 and not res.converged
        assert res.residual == evaluate(sp, EvalPoint(x, res.value)).b - z

    def test_flat_tail_bisects_instead_of_crawling(self):
        # at the seed the complement is 5e-50 against a target of 3.5e-9;
        # Halley's step there multiplies it by about e^2 a step, Newton's
        # leaves the bracket, and the polish bisects (40 steps if it took
        # Halley's step there, 10 with Newton's)
        sp = ShapeParams(0.11304416681297548, 60.782418501646035)
        res = invert(InversionProblem("y", sp, 0.5048429647707822, 0.9999999964672764))
        assert abs(res.residual) <= 1e-10
        assert res.iterations <= 10

    def test_each_newton_step_evaluates_once_through_the_series(self, monkeypatch):
        # one series pass gives both the value and the slope: no Kummer
        # function, and no dispatcher to fall back to
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ncbeta.inversion, "_series_window", counted("series", ncbeta.inversion._series_window))
        kummer = counted("kummer", ncbeta.kernels._kummer_m_log)
        for mod in (ncbeta.kernels, ncbeta.recurrence, ncbeta.kummer_series):
            monkeypatch.setattr(mod, "_kummer_m_log", kummer)
        for unknown, fixed, z in (("x", 0.45, 0.4), ("y", 4.5, 0.01), ("y", 4.5, 0.99)):
            calls.update(series=0, kummer=0)
            res = invert(InversionProblem(unknown, SP, fixed, z))
            assert res.iterations > 1
            assert calls == {"series": res.iterations, "kummer": 0}
        assert not hasattr(ncbeta.inversion, "evaluate")

    @pytest.mark.parametrize(
        "p, q, y, z",
        [
            # each once escaped OverflowError or reported a root the oracle refutes
            (0.5687362607050307, 1974.062430433792, 0.17304240477674843, 0.339319053293856),
            (1.0707172987874496, 1808.6007469789702, 0.15508083659142946, 0.17745394401862227),
            (43.159250025714556, 1993.676397350537, 0.18012972403919048, 0.2574311268746888),
        ],
    )
    def test_large_q_small_y_roots_agree_with_scipy(self, p, q, y, z):
        special = pytest.importorskip("scipy.special")
        res = invert(InversionProblem("x", ShapeParams(p, q), y, z, tol=1e-10))
        band = 1e-10 * max(z, 1.0 - z)
        assert abs(res.residual) <= band
        oracle = special.ncfdtr(2.0 * p, 2.0 * q, res.value, (q / p) * y / (1.0 - y))
        assert abs(oracle - z) <= band

    @pytest.mark.parametrize(
        "unknown, p, q, fixed, z",
        [
            # seeded from the transition root: x above x0, x below x0, y above y0
            ("x", 2.1988551561389604, 13.375452166664628, 0.055242135597182856, 0.03914587968126597),
            ("x", 0.8152223916770334, 2.538133829179745, 0.8353227833641529, 0.991072906372832),
            ("y", 23.30294010727332, 0.5676674473431365, 95.29770416708921, 0.9792387427277731),
            # seeded from the transition point
            ("x", 0.6883326995663492, 1.0698724138348688, 0.2389964045105521, 0.3872721843919503),
            ("x", 8.514028599581753, 45.42546703803935, 0.22666719660327805, 0.9056810819269517),
        ],
    )
    def test_fallback_seeds_converge_in_few_evaluations(self, unknown, p, q, fixed, z):
        # the zeta series gives no seed here; 3-5 evaluations, and the seed
        # path is not pinned, so that a better tail seed may replace it
        special = pytest.importorskip("scipy.special")
        res = invert(InversionProblem(unknown, ShapeParams(p, q), fixed, z, tol=1e-10))
        assert res.converged and res.iterations <= 8
        x, y = (res.value, fixed) if unknown == "x" else (fixed, res.value)
        oracle = special.ncfdtr(2.0 * p, 2.0 * q, x, (q / p) * y / (1.0 - y))
        assert abs(oracle - z) <= 1e-10 * max(z, 1.0 - z)

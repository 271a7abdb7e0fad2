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
from ncbeta.asymptotic import build_frame, g_coeffs, transition_tau, x_zeta_coeffs, y_zeta_coeffs, zeta_series_value
from ncbeta.dispatch import evaluate
from ncbeta.errors import DomainError, EvaluationError
from ncbeta.inversion import (
    InversionProblem,
    _g0,
    _g0_direct,
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
from ncbeta.series import _complement_is_primary, _resum, _series_window, eval_series
from test_dispatch import windowed_reference

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


def g0_reference(p, q, x, y):
    """g0 = (1/t0 + y/(1 - y t0)) A_0^(-1/2) - 1/zeta in 60-digit arithmetic."""
    with mp.workdps(60):
        p, q, x, y = (mp.mpf(v) for v in (p, q, x, y))
        r = p + q
        c, s, xi = p / r, q / r, x * y / (2 * r)
        t0 = 2 / (mp.sqrt((c - xi) ** 2 + 4 * xi) + c - xi)
        tp = 1 / y

        def phi(t):
            return mp.log(t) - s * mp.log(t - 1) + xi * t

        zeta = mp.sign(tp - t0) * mp.sqrt(2 * (phi(tp) - phi(t0)))
        a0 = -1 / t0**2 + s / (t0 - 1) ** 2
        return float((1 / t0 + y / (1 - y * t0)) / mp.sqrt(a0) - 1 / zeta)


@st.composite
def zeta_series_seeds(draw):
    """(p, q, x, y) at the raw zeta-series seed of an invert-mixed-style
    problem, where ``zeta1_correction`` builds its frame: p, q log-uniform
    on [0.5, 2000]; unknown x at y in [0.05, 0.95] or unknown y at x in
    [0, 500]; z in (0.001, 0.999), or near 1/2, where the seed nears the
    transition point and |zeta| falls below tau."""
    p = math.exp(draw(st.floats(math.log(0.5), math.log(2000.0))))
    q = math.exp(draw(st.floats(math.log(0.5), math.log(2000.0))))
    z = draw(st.one_of(st.floats(0.001, 0.999), st.floats(0.49, 0.51)))
    unknown = draw(st.sampled_from("xy"))
    fixed = draw(st.floats(0.05, 0.95) if unknown == "x" else st.floats(0.0, 500.0))
    problem = InversionProblem(unknown, ShapeParams(p, q), fixed, z)
    try:
        coeffs = (x_zeta_coeffs if unknown == "x" else y_zeta_coeffs)(problem.sp, fixed)
        v = zeta_series_value(coeffs, zeta0_seed(problem), unknown)
    except EvaluationError:
        assume(False)
    return (p, q, v, fixed) if unknown == "x" else (p, q, fixed, v)


class TestDirectG0:
    # the pole series' example: |zeta| = 3.0e-4, where the direct
    # subtraction is 2.0e-7 off
    NEAR_POLE = (0.69333, 0.50023, 411.69, 0.997585)
    # |zeta| = 1.14e-3 at xi = 122, where the direct subtraction is 1.34e-8
    # off; a fixed |zeta| >= 1e-3 rule took it
    LARGE_XI = (1.0, 1.0, 491.0, 0.9959530516073676)
    # q = 1 and y near 1, where the subtraction is 1.3e-8 of |g0| = 14.2
    # off; an estimate u (1 + xi)/zeta^2 of its noise took it
    SMALL_Q = (1808.0424144560632, 1.0, 1.0, 0.9994514634454222)

    @settings(max_examples=300, deadline=None)
    @given(zeta_series_seeds())
    @example(NEAR_POLE)
    @example(LARGE_XI)
    @example(SMALL_Q)
    def test_direct_g0_agrees_with_g_coeffs(self, point):
        p, q, x, y = point
        try:
            fr = build_frame(ShapeParams(p, q), EvalPoint(x, y))
        except EvaluationError:
            assume(False)
        direct = _g0_direct(fr) is not None
        try:
            ref = g_coeffs(fr, 0)[0]
        except EvaluationError:
            ref = None
        if not direct:
            # the rule keeps g_coeffs' g0, or its error
            if ref is None:
                with pytest.raises(EvaluationError):
                    _g0(fr)
            else:
                assert _g0(fr) == ref
            return
        g0 = _g0(fr)
        assert math.isfinite(g0)
        if abs(fr.zeta) >= transition_tau(fr.r):
            assert g0 == ref
        elif ref is not None:
            assert abs(g0 - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_g0_near_the_pole_takes_the_pole_series(self):
        p, q, x, y = self.NEAR_POLE
        fr = build_frame(ShapeParams(p, q), EvalPoint(x, y))
        assert _g0_direct(fr) is None
        ref = g0_reference(p, q, x, y)
        subtracted = (1.0 / fr.t0 + y / (1.0 - y * fr.t0)) * fr.phi2**-0.5 - 1.0 / fr.zeta
        assert abs(subtracted - ref) > 1e-7
        assert _g0(fr) == g_coeffs(fr, 0)[0]
        assert abs(_g0(fr) - ref) <= 1e-12

    def test_invert_mixed_style_solves_take_no_more_evaluations(self):
        # 300 problems drawn as invert-mixed draws them, from a fixed rng;
        # with g0 from g_coeffs everywhere they took 689 evaluations
        rng = np.random.default_rng(26)
        problems = []
        while len(problems) < 300:
            p, q = (math.exp(v) for v in rng.uniform(math.log(0.5), math.log(2000.0), 2))
            if len(problems) % 2 == 0:
                y = rng.uniform(0.05, 0.95)
                iy = central_beta_cdf(p, q, y)
                if iy < 0.01:
                    continue
                z = rng.uniform(0.001, min(0.999, iy * (1.0 - 1e-6)))
                problems.append(InversionProblem("x", ShapeParams(p, q), y, z))
            else:
                problems.append(InversionProblem("y", ShapeParams(p, q), rng.uniform(0.0, 500.0), rng.uniform(0.001, 0.999)))
        results = [invert(problem) for problem in problems]
        assert all(res.converged for res in results)
        assert sum(res.iterations for res in results) <= 689


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

    def solve_counted(self, monkeypatch, problem):
        """The transition root, with the frames the whole call builds, the
        frames its bracket solve builds, and the root a plain bisection of
        that bracket finds (200 halvings to the width stop
        1e-13 (|lo| + |hi| + 1e-6)), whose frames are not counted."""
        seen = {"frames": 0, "solve": 0, "bisected": None, "counting": True}

        def frame(*args):
            seen["frames"] += seen["counting"]
            return build_frame(*args)

        def solve(fn, lo, flo, hi, fhi):
            def counted(v):
                seen["solve"] += 1
                return fn(v)

            root = illinois(counted, lo, flo, hi, fhi)
            seen["counting"] = False
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                if mid in (a, b) or b - a <= 1e-13 * (abs(a) + abs(b) + 1e-6):
                    break
                if (fn(mid) > 0.0) == (flo > 0.0):
                    a = mid
                else:
                    b = mid
            seen["bisected"] = 0.5 * (a + b)
            return root

        illinois = ncbeta.inversion._illinois
        monkeypatch.setattr(ncbeta.inversion, "build_frame", frame)
        monkeypatch.setattr(ncbeta.inversion, "_illinois", solve)
        root = _transition_root(problem, zeta0_seed(problem))
        return root, seen

    @pytest.mark.parametrize(
        "unknown, fixed, z",
        [("x", 0.45, 0.4), ("x", 0.45, 0.6), ("y", 4.5, 0.01), ("y", 4.5, 0.99)],
    )
    def test_worked_roots_take_few_frames(self, monkeypatch, unknown, fixed, z):
        # bisection built 43-46 frames for each; false position, at most 25
        # in all, and its root is the bisection's to 1e-10
        root, seen = self.solve_counted(monkeypatch, InversionProblem(unknown, SP, fixed, z))
        assert seen["frames"] <= 25
        assert abs(root - seen["bisected"]) <= 1e-10 * abs(root)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["x", "y"]),
        st.floats(1.0, 200.0),
        st.floats(1.0, 200.0),
        st.floats(0.0, 1.0),
        st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_false_position_agrees_with_bisection_in_few_frames(self, unknown, p, q, t, z):
        # the draws of test_root_on_the_selected_side_and_a_sign_change
        assume(abs(z - 0.5) > 0.01)
        fixed = 0.05 + 0.9 * t if unknown == "x" else 0.5 + 199.5 * t
        with pytest.MonkeyPatch.context() as monkeypatch:
            root, seen = self.solve_counted(monkeypatch, InversionProblem(unknown, ShapeParams(p, q), fixed, z))
        assume(root is not None and seen["bisected"] is not None)
        assert seen["solve"] <= 25
        assert abs(root - seen["bisected"]) <= 1e-10 * abs(root) + 1e-300

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
                got = _slope(unknown, window)[1]
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

    # a deep upper-tail quantile whose root lies closer to 1 than the
    # doubles below 1 reach: the complement is still 1.8e-4 at
    # y = 1 - 2.7e-15, against a target of 1.7e-7
    EXHAUSTED = (ShapeParams(24.124158516411413, 0.3095081672049997), 379.90104782785556, 0.9999998303935156)

    def test_exhausted_budget_is_not_converged(self):
        sp, x, z = self.EXHAUSTED
        res = invert(InversionProblem("y", sp, x, z))
        assert res.iterations == 40
        assert abs(res.residual) > 1e-10 and not res.converged

    def test_exhausted_budget_reports_an_evaluated_iterate(self):
        # the 40th evaluation's iterate and its own residual, not the next
        # iterate (never evaluated) with the residual of the one before
        sp, x, z = self.EXHAUSTED
        res = invert(InversionProblem("y", sp, x, z))
        assert res.iterations == 40 and not res.converged
        assert res.residual == (1.0 - z) - evaluate(sp, EvalPoint(x, res.value)).bbar

    def test_transition_quantile_at_one_fails_typed(self):
        # at x = 1e20 y0 rounds to 1: the y(zeta) seed is invalid (once a
        # ZeroDivisionError), the solve falls back, and the series window
        # past its cap ends it with its EvaluationError
        with pytest.raises(EvaluationError, match="series window would need"):
            invert(InversionProblem("y", ShapeParams(0.157, 2987.0), 1e20, 0.3))

    def test_deep_lower_tail_quantile_converges(self):
        # the transition root seeds y = 3.6e-48 and the root lies near
        # 4.7e-55: the polish starts from the seed itself, not from 1e-12,
        # and Newton's step on ln B in ln y lands on the root (2
        # evaluations), where halving y from 1e-12 took all 40 to reach
        # 1.8e-24
        sp, x, z = ShapeParams(0.14454, 943.65), 0.1156, 3.818e-8
        res = invert(InversionProblem("y", sp, x, z))
        assert res.seed_value < 1e-47 and res.value < 1e-54
        assert res.converged and res.iterations <= 3
        ref = float(windowed_reference(sp.p, sp.q, x, res.value, False, dps=40))
        assert abs(ref - z) <= 1e-10 * max(z, 1.0 - z)

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
        # one series pass gives both the value and the slope: the first step
        # plans the window and each Newton or Halley step after it re-sums
        # that window; no Kummer function, and no dispatcher to fall back to
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if out is None:
                    calls["declined"] += 1
                return out

            return wrapper

        monkeypatch.setattr(ncbeta.inversion, "_series_window", counted("plan", ncbeta.inversion._series_window))
        monkeypatch.setattr(ncbeta.inversion, "_resum", counted("resum", ncbeta.inversion._resum))
        # the derivatives are summed only before a step: the evaluation that
        # ends the solve forms none
        monkeypatch.setattr(ncbeta.inversion, "_slope", counted("slope", ncbeta.inversion._slope))
        kummer = counted("kummer", ncbeta.kernels._kummer_m_log)
        for mod in (ncbeta.kernels, ncbeta.recurrence, ncbeta.kummer_series):
            monkeypatch.setattr(mod, "_kummer_m_log", kummer)
        for unknown, fixed, z in (("x", 0.45, 0.4), ("y", 4.5, 0.01), ("y", 4.5, 0.99)):
            calls.update(plan=0, resum=0, declined=0, kummer=0, slope=0)
            res = invert(InversionProblem(unknown, SP, fixed, z))
            assert res.converged and res.iterations > 1
            steps = res.iterations - 1
            assert calls == {"plan": 1, "resum": steps, "declined": 0, "kummer": 0, "slope": steps}
        assert not hasattr(ncbeta.inversion, "evaluate")

    @pytest.mark.parametrize("p, q, z, iterations", [(10.0, 15.0, 0.3, 2), (0.6, 1500.0, 1e-3, 6), (3.0, 4.0, 0.999, 3)])
    def test_central_beta_quantile(self, monkeypatch, p, q, z, iterations):
        # y unknown at x = 0 solves I_y(p, q) = z; the x = 0 pass is an
        # ordinary window whose weights past j = 0 are 0, and each Newton or
        # Halley step re-sums it at the new y
        special = pytest.importorskip("scipy.special")
        resums = []

        def counted(*args):
            resums.append(_resum(*args))
            return resums[-1]

        monkeypatch.setattr(ncbeta.inversion, "_resum", counted)
        res = invert(InversionProblem("y", ShapeParams(p, q), 0.0, z))
        assert res.converged and res.iterations <= iterations
        assert abs(special.betainc(p, q, res.value) - z) <= 1e-10 * max(z, 1.0 - z)
        assert resums and all(out is not None for out in resums)

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


def resum_against_fresh(unknown, p, q, fixed, v, step):
    """The pass planned at v, re-summed at v + step s, and a fresh
    ``eval_series`` there: (re-summed (pair, pass) or None where it
    declines, fresh pair, held pass, the new point), or None where v sums
    no window.  The step is relative to x, s = step x, and to the nearer
    end for y, s = step min(y, 1 - y)."""
    sp = ShapeParams(p, q)
    point = (lambda u: EvalPoint(u, fixed)) if unknown == "x" else (lambda u: EvalPoint(fixed, u))
    held = _series_window(sp, point(v))[1]
    if held is None:
        return None
    pt = point(v + step * (v if unknown == "x" else min(v, 1.0 - v)))
    return _resum(sp, pt, unknown, held), eval_series(sp, pt), held, pt


class TestResum:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["x", "y"]),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(0.0, 500.0),
        st.floats(0.001, 0.999),
        st.floats(-1e-2, 1e-2),
    )
    # the iterate crosses the transition point: x0 = 10 at y = 0.6, y0 = 0.5506 at x = 4.5
    @example("x", 10.0, 10.0, 9.95, 0.6, 1e-2)
    @example("y", 10.0, 10.0, 4.5, 0.549, 1e-2)
    # h' leaves the window: below the complement's lower edge j_lo = 110,
    # and above B's top j = 269, where the tail bound came out negative
    @example("x", 10.0, 10.0, 500.0, 0.99, -0.96)
    @example("x", 9.770078168839582, 3.297898595991665, 252.6066108307822, 0.3951743005882588, 2.3256998821042387)
    def test_resum_agrees_with_a_fresh_series_or_declines(self, unknown, p, q, x, y, step):
        # the invert-mixed ranges: p, q log-uniform on [0.5, 2000], x on
        # [0, 500], y on [0.001, 0.999]; the unknown moves by up to 1e-2
        fixed, v = (y, x) if unknown == "x" else (x, y)
        out = resum_against_fresh(unknown, p, q, fixed, v, step)
        assume(out is not None)
        resummed, ref, held, _ = out
        if resummed is None:
            return
        got = resummed[0]
        member = "bbar" if held.r.complement else "b"
        a, b = getattr(got, member), getattr(ref, member)
        assert abs(a - b) <= (got.err_est + ref.err_est) * b

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["x", "y"]),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(math.log(0.5), math.log(2000.0)).map(math.exp),
        st.floats(0.0, 500.0),
        st.floats(0.001, 0.999),
        st.floats(-1e-2, 1e-2),
    )
    def test_slope_of_a_resummed_pass_matches_a_fresh_one(self, unknown, p, q, x, y, step):
        # the Halley step takes B' and B'' from the re-summed pass: both
        # agree with a fresh pass's, B'' against the scale of
        # test_second_derivative_against_mpmath_sums, as B'' passes through 0
        fixed, v = (y, x) if unknown == "x" else (x, y)
        out = resum_against_fresh(unknown, p, q, fixed, v, step)
        assume(out is not None and out[0] is not None)
        resummed, _, _, pt = out
        got = _slope(unknown, resummed[1])
        ref = _slope(unknown, _series_window(ShapeParams(p, q), pt)[1])
        scale = slope_reference(p, q, pt.x, pt.y)[4 if unknown == "x" else 5]
        if abs(ref[0]) > 1e-280:
            assert abs(got[0] - ref[0]) <= 1e-11 * abs(ref[0])
        if scale > 1e-280:
            assert abs(got[1] - ref[1]) <= 1e-11 * scale

    @pytest.mark.parametrize(
        "unknown, p, q, fixed, v, step, reason",
        [
            ("x", 10.0, 10.0, 0.6, 9.95, 1e-2, "switch"),
            ("y", 10.0, 10.0, 4.5, 0.549, 1e-2, "switch"),
            ("x", 10.0, 10.0, 0.99, 500.0, -0.96, "edge"),
            ("x", 9.770078168839582, 3.297898595991665, 0.3951743005882588, 252.6066108307822, 2.3256998821042387, "edge"),
        ],
    )
    def test_resum_declines_where_the_window_no_longer_fits(self, unknown, p, q, fixed, v, step, reason):
        got, _, held, pt = resum_against_fresh(unknown, p, q, fixed, v, step)
        assert got is None
        switched = _complement_is_primary(ShapeParams(p, q), pt) != held.r.complement
        assert switched == (reason == "switch")
        if reason == "edge":
            assert not held.r.j_lo <= 0.5 * pt.x < held.r.j_lo + held.r.n

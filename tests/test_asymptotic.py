import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncbeta._pseries import ps_eval, ps_mul, ps_pow, ps_revert, ps_sqrt
from ncbeta.asymptotic import (
    build_frame,
    eval_erfc_uniform,
    eval_large_z,
    eval_saddle,
    f_coeffs,
    g_coeffs,
    invert_phi_series,
    transition_tau,
    x_zeta_coeffs,
    y_zeta_coeffs,
    zeta_series_value,
)
from ncbeta.errors import DomainError, EvaluationError, FrameDegenerateError, SeriesInvalidError
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.selftest import EXPANSION_CASES, _closed_f0, _closed_t, _exact_tol
from ncbeta.series import eval_series


def exact_rows(method):
    """(terms, shape, point, exact truncation) for the pinned rows of one
    expansion whose exact value holds at machine grade."""
    rows = []
    for m, terms, p, q, x, y, _, _, exact, _ in EXPANSION_CASES:
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        if m == method and _exact_tol(m, sp, pt) <= 1e-13:
            rows.append((terms, sp, pt, exact))
    return rows


def miller_magnitudes(a, alpha, n):
    """Miller's recurrence for a^alpha (as in ps_pow) run on the magnitudes
    |((alpha+1) i - k) a_i b_{k-i}| of its summands: coefficient k bounds
    the terms that order k adds up, and so the size of what cancels there."""
    a = np.abs(np.asarray(a, dtype=float))[: n + 1]
    b = [a[0] ** alpha]
    for k in range(1, n + 1):
        s = sum(abs(alpha * i + (i - k)) * a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        b.append(s / (k * a[0]))
    return np.array(b)


def _np_pow(a, alpha, n):
    """ps_pow as it was on numpy arrays: the reference for the list code."""
    a = [float(v) for v in a[: n + 1]]
    b = [a[0] ** alpha]
    for k in range(1, n + 1):
        s = 0.0
        for i in range(1, min(k, len(a) - 1) + 1):
            s += (alpha * i + (i - k)) * a[i] * b[k - i]
        b.append(s / (k * a[0]))
    return np.array(b)


def _np_t0_series(c, xi0, xi1, n):
    D = np.zeros(n + 1)
    D[0] = (c - xi0) * (c - xi0) + 4.0 * xi0
    D[1] = (4.0 - 2.0 * (c - xi0)) * xi1
    D[2] = xi1 * xi1
    if D[0] <= 0.0:
        raise SeriesInvalidError("discriminant")
    den = np.zeros(n + 1)  # the sqrt of D, by its own recurrence
    den[0] = math.sqrt(D[0])
    for k in range(1, n + 1):
        t = D[k]
        for i in range(1, k):
            t -= den[i] * den[k - i]
        den[k] = t / (2.0 * den[0])
    den[0] += c - xi0
    den[1] -= xi1
    if den[0] <= 0.0:
        raise SeriesInvalidError("branch")
    return 2.0 * _np_pow(den, -1.0, n)


def _np_revert_tail(psip, n):
    """ps_revert(2 * ps_int(psip)[2:]) on numpy arrays."""
    integral = np.zeros(n + 2)
    for k in range(n + 1):
        integral[k + 1] = psip[k] / (k + 1.0)
    A = 2.0 * integral[2:]
    if A[0] <= 0.0:
        raise SeriesInvalidError("curvature")
    b = np.zeros(n + 1)
    for k in range(1, n + 1):
        b[k] = _np_pow(A, -0.5 * k, k - 1)[k - 1] / k
    return b


def np_x_zeta_coeffs(sp, y, n=5):
    """x_zeta_coeffs as it was on numpy arrays."""
    p, q, r = sp.p, sp.q, sp.r
    if q - r * (1.0 - y) * (1.0 - y) <= 0.0:
        raise SeriesInvalidError("radicand")
    x0 = 2.0 * (r * y - p) / (1.0 - y)
    xi1 = y / (2.0 * r)
    T = _np_t0_series(sp.cos2, x0 * xi1, xi1, n)
    psip = -(y / (2.0 * r)) * T
    psip[0] += (y / (2.0 * r)) * (1.0 / y)
    out = _np_revert_tail(psip, n)
    out[0] = x0
    return out


def np_y_zeta_coeffs(sp, x, n=5):
    """y_zeta_coeffs as it was on numpy arrays."""
    p, q, r = sp.p, sp.q, sp.r
    y0 = (x + 2.0 * p) / (x + 2.0 * r)
    xi1 = x / (2.0 * r)
    T = _np_t0_series(sp.cos2, y0 * xi1, xi1, n)
    inv_y = np.array([(-1.0) ** k / y0 ** (k + 1) for k in range(n + 1)])
    inv_1my = np.array([1.0 / (1.0 - y0) ** (k + 1) for k in range(n + 1)])
    psip = -(p / r) * inv_y + (q / r) * inv_1my - (x / (2.0 * r)) * T
    out = _np_revert_tail(psip, n)
    out[1::2] = -out[1::2]
    out[0] = y0
    return out


def compose(a, u, n):
    """a(u(w)) truncated to order n, by Horner's rule over ps_mul."""
    out = np.zeros(n + 1)
    for coef in a[::-1]:
        out = ps_mul(out, u, n)
        out[0] += coef
    return out


@st.composite
def power_series(draw):
    """(n, a) with a_0 in [0.05, 5] and a_1..a_n in [-2, 2]."""
    n = draw(st.integers(min_value=1, max_value=7))
    a0 = draw(st.floats(min_value=0.05, max_value=5.0))
    rest = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n))
    return n, np.array([a0] + rest)


def g_reference(p, q, x, y):
    """g_0..g_4 from the definition f_k - zeta^{-(k+1)} in 60-digit
    arithmetic.  Every constant is an mpf: a float 2/3 would leave 1e-17
    relative noise, which zeta^-5 amplifies past the float result."""
    with mp.workdps(60):
        p, q, x, y = (mp.mpf(v) for v in (p, q, x, y))
        r = p + q
        c, s, xi = p / r, q / r, x * y / (2 * r)
        t0 = 2 / (mp.sqrt((c - xi) ** 2 + 4 * xi) + c - xi)
        tp = 1 / y

        def phi(t):
            return mp.log(t) - s * mp.log(t - 1) + xi * t

        zeta = mp.sign(tp - t0) * mp.sqrt(2 * (phi(tp) - phi(t0)))
        A = [2 * (-1) ** (m - 1) / mp.mpf(m) * (t0**-m - s * (t0 - 1) ** -m) for m in range(2, 7)]
        out = []
        for k in range(5):
            al = -mp.mpf(k + 1) / 2
            P = [A[0] ** al]  # Miller's recurrence for A^al
            for j in range(1, k + 1):
                P.append(sum((al * i + i - j) * A[i] * P[j - i] for i in range(1, j + 1)) / (j * A[0]))
            H = [(-1) ** i / t0 ** (i + 1) + y ** (i + 1) / (1 - y * t0) ** (i + 1) for i in range(k + 1)]
            out.append(float(sum(H[i] * P[k - i] for i in range(k + 1)) - zeta ** -(k + 1)))
        return out


def zeta_reference(p, q, x, y):
    """zeta = sign(t_p - t0) sqrt(2 (phi(t_p) - phi(t0))) in 40 digits, at
    the 40-digit saddle of the exact inputs (phi'(t0) = 0 there, unlike at a
    saddle rounded to a double)."""
    with mp.workdps(40):
        p, q, x, y = (mp.mpf(v) for v in (p, q, x, y))
        r = p + q
        c, s, xi = p / r, q / r, x * y / (2 * r)
        t0 = 2 / (mp.sqrt((c - xi) ** 2 + 4 * xi) + c - xi)
        tp = 1 / y

        def phi(t):
            return mp.log(t) - s * mp.log(t - 1) + xi * t

        return mp.sign(tp - t0) * mp.sqrt(2 * (phi(tp) - phi(t0)))


def zeta_condition(p, q, x, y, h=1e-10):
    """sum over v in (p, q, x, y) of |d zeta / d ln v|, by 40-digit secants:
    how far rounding the inputs alone moves zeta, per unit relative error."""
    with mp.workdps(40):
        args = [mp.mpf(v) for v in (p, q, x, y)]
        base = zeta_reference(*args)
        total = 0.0
        for i in range(4):
            moved = list(args)
            moved[i] *= 1 + mp.mpf(h)
            total += float(abs(zeta_reference(*moved) - base)) / h
    return total


def zeta_by_root(sp, fixed, value, unknown):
    if unknown == "x":
        return build_frame(sp, EvalPoint(value, fixed)).zeta
    return build_frame(sp, EvalPoint(fixed, value)).zeta


class TestPowerSeriesHelpers:
    def test_revert_geometric(self):
        # w = u/(1-u), so A = (1-u)^-2 = 1 + 2u + 3u^2 + ...  <=>  u = w/(1+w)
        n = 6
        a = np.arange(1.0, n + 2.0)
        b = ps_revert(a, n)
        expect = np.array([0.0] + [(-1.0) ** (k - 1) for k in range(1, n + 1)])
        assert np.allclose(b, expect, atol=1e-14)

    def test_revert_rejects_nonpositive_constant(self):
        for a0 in (0.0, -1.0):
            with pytest.raises(ValueError):
                ps_revert(np.array([a0, 1.0, 1.0]), 4)

    def test_sqrt_recip_mul(self):
        n = 5
        a = np.array([4.0, 4.0, 1.0])  # (2 + u)^2
        s = ps_sqrt(a, n)
        assert np.allclose(s[:3], [2.0, 1.0, 0.0], atol=1e-14)
        r = ps_pow(a, -1.0, n)
        prod = ps_mul(a, r, n)
        assert np.allclose(prod, [1.0] + [0.0] * n, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(power_series())
    def test_revert_inverts_the_map(self, case):
        # u = ps_revert(a) must satisfy u^2 a(u) = w^2 through order n + 1;
        # the residual is scaled by the same sum over |coefficients|
        n, a = case
        u = ps_revert(a, n)
        lhs = ps_mul(ps_mul(u, u, n + 1), compose(a, u, n + 1), n + 1)
        au = np.abs(u)
        scale = ps_mul(ps_mul(au, au, n + 1), compose(np.abs(a), au, n + 1), n + 1)
        expect = np.zeros(n + 2)
        expect[2] = 1.0
        assert np.all(np.abs(lhs - expect) <= 1e-14 * scale + 1e-300)  # floor: underflow

    @settings(max_examples=200, deadline=None)
    @given(power_series(), st.floats(min_value=-3.0, max_value=3.0))
    # the order-3 coefficients of both powers cancel terms of size 2e-105
    # down to 1e-157, so the scale must come from the summed magnitudes
    @example((3, np.array([1.0, 4.11e-53, 1.0, 4.11e-53])), 4.11e-53)
    def test_pow_reciprocal_powers(self, case, alpha):
        n, a = case
        pos, neg = ps_pow(a, alpha, n), ps_pow(a, -alpha, n)
        prod = ps_mul(pos, neg, n)
        scale = ps_mul(miller_magnitudes(a, alpha, n), miller_magnitudes(a, -alpha, n), n)
        expect = np.zeros(n + 1)
        expect[0] = 1.0
        assert np.all(np.abs(prod - expect) <= 1e-13 * scale + 1e-300)


class TestFrame:
    def test_transition_noncentrality_example(self):
        assert abs(ShapeParams(4.5, 5.5).transition_noncentrality(0.6) - 7.5) <= 1e-12

    def test_zeta_zero_at_transition(self):
        fr = build_frame(ShapeParams(10.0, 15.0), EvalPoint(50.0 / 11.0, 0.45))
        assert abs(fr.zeta) <= 1e-10

    def test_zero_noncentrality_limit(self):
        fr = build_frame(ShapeParams(10.0, 15.0), EvalPoint(0.0, 0.45))
        assert abs(fr.t0 - 2.5) <= 1e-14  # r / p

    # (p, q, x) with y putting |t_p - t0| at 0.95 and 1.05 of the switch
    # 0.4 min(t0 - 1, t0) of the dphi series, on either side of the saddle
    SWITCH_EXAMPLES = ((66.9, 602.4, 235.6, 0.1592, 0.95), (66.9, 602.4, 235.6, 0.1536, 1.05),
                       (66.9, 602.4, 235.6, 0.3805, -0.95), (66.9, 602.4, 235.6, 0.4028, -1.05))

    @pytest.mark.parametrize("p, q, x, y, at", SWITCH_EXAMPLES)
    def test_switch_examples_straddle_the_dphi_switch(self, p, q, x, y, at):
        fr = build_frame(ShapeParams(p, q), EvalPoint(x, y))
        assert abs((fr.tp - fr.t0) / (0.4 * min(fr.t0 - 1.0, fr.t0)) - at) <= 0.01

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.5, 2000.0), st.floats(0.5, 2000.0), st.floats(0.0, 500.0), st.floats(0.001, 0.999))
    @example(*SWITCH_EXAMPLES[0][:4])
    @example(*SWITCH_EXAMPLES[1][:4])
    @example(*SWITCH_EXAMPLES[2][:4])
    @example(*SWITCH_EXAMPLES[3][:4])
    @example(0.5, 1450.0, 0.001, 0.001)  # flat phase (phi'' = 4e-11): the closed form's two logs cancel
    def test_zeta_accurate_on_both_dphi_branches(self, p, q, x, y):
        # 1e-13 relative, plus 1e-13 of zeta's response to relative changes
        # of the inputs (``zeta_condition``), which is the scale left near
        # the transition where zeta -> 0, plus 1e-13 absolute: where the
        # phase is flat the closed form's O(1) logs cancel to a small dphi
        fr = build_frame(ShapeParams(p, q), EvalPoint(x, y))
        ref = float(zeta_reference(p, q, x, y))
        assert abs(fr.zeta - ref) <= 1e-13 * (1.0 + abs(ref) + zeta_condition(p, q, x, y))

    def test_zeta_sign_tracks_pole_minus_saddle(self):
        sp = ShapeParams(12.0, 9.0)
        for x in np.linspace(0.5, 30.0, 25):
            fr = build_frame(sp, EvalPoint(float(x), 0.5))
            assert math.copysign(1.0, fr.zeta) == math.copysign(1.0, fr.tp - fr.t0) or fr.zeta == 0.0

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            build_frame(ShapeParams(3.0, 4.0), EvalPoint(1.0, 0.0))

    def test_saddle_rounding_to_branch_point_rejected(self):
        # xi ~ 1e9: t0 = 1 + O(1e-10) rounds to 1, where the phase has its branch point
        sp = ShapeParams(781.9311283576282, 498.0331145429488)
        with pytest.raises(FrameDegenerateError):
            build_frame(sp, EvalPoint(1439534073903.5244, 0.37628435451196307))


class TestPhaseInversion:
    def test_pure_quadratic_higher_coefficients_vanish(self):
        n = 6
        A = np.zeros(n + 1)
        A[0] = 0.8  # w^2 = 0.8 u^2: linear map
        t = ps_revert(A, n)
        assert abs(t[1] - 1.0 / math.sqrt(0.8)) <= 1e-15
        assert np.all(t[2:] == 0.0)

    def test_closed_forms_on_frames(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 50:
            p = math.exp(rng.uniform(math.log(1.0), math.log(60.0)))
            q = math.exp(rng.uniform(math.log(1.0), math.log(60.0)))
            x = rng.uniform(0.0, 120.0)
            y = rng.uniform(0.05, 0.95)
            fr = build_frame(ShapeParams(p, q), EvalPoint(x, y))
            if not fr.strip_ok or abs(1.0 - y * fr.t0) < 1e-3:
                continue
            t = invert_phi_series(fr)
            for k, closed in enumerate(_closed_t(fr)):
                assert abs(t[k + 1] - closed) <= 1e-10 * max(abs(closed), 1e-10)
            done += 1

    def test_specific_t2_t4(self):
        fr = build_frame(ShapeParams(10.0, 10.0), EvalPoint(54.0, 0.8686))
        t = invert_phi_series(fr)
        assert abs(t[2] - (-fr.phi3 / (6.0 * fr.phi2**2))) <= 1e-12 * abs(t[2])
        fr = build_frame(ShapeParams(20.0, 20.0), EvalPoint(140.0, 0.9))
        t = invert_phi_series(fr)
        _, _, _, t4c = _closed_t(fr)
        assert abs(t[4] - t4c) <= 1e-10 * abs(t4c)


class TestFCoefficients:
    def test_f0_closed_form(self):
        fr = build_frame(ShapeParams(10.0, 10.0), EvalPoint(250.0, 0.9))
        f = f_coeffs(fr)
        assert abs(f[0] - _closed_f0(fr)) <= 1e-10 * abs(_closed_f0(fr))

    def test_near_pole_blowup(self):
        sp = ShapeParams(10.0, 15.0)
        fr0 = build_frame(sp, EvalPoint(4.5, 0.3))
        y_pole = 1.0 / fr0.t0
        # choose y within 1e-4 of the pole of the frame built at that same y
        y = y_pole
        for _ in range(40):
            fr = build_frame(sp, EvalPoint(4.5, y))
            y = 1.0 / fr.t0
        fr = build_frame(sp, EvalPoint(4.5, y + 1e-5))
        f = f_coeffs(fr)
        assert abs(f[0]) > 1e3


class TestGCoefficients:
    def test_formula_branch(self):
        fr = build_frame(ShapeParams(20.0, 20.0), EvalPoint(250.0, 0.922))
        assert abs(fr.zeta) > transition_tau(fr.r)
        f = f_coeffs(fr)
        g = g_coeffs(fr)
        assert abs(g[0] - (f[0] - 1.0 / fr.zeta)) <= 1e-14 * max(1.0, abs(g[0]))

    def test_pole_removal_continuity(self):
        sp = ShapeParams(10.0, 15.0)
        tau = transition_tau(sp.r)
        coeffs = x_zeta_coeffs(sp, 0.45)
        for target in (-0.8 * tau, 0.8 * tau):
            xz = ps_eval(coeffs, target)
            fr = build_frame(sp, EvalPoint(xz, 0.45))
            g_removed = g_coeffs(fr)
            f = f_coeffs(fr)
            g_dir = f[0] - 1.0 / fr.zeta
            assert abs(g_removed[0] - g_dir) <= 1e-10

    def test_against_mpmath_through_transition(self):
        rng = np.random.default_rng(11)
        frames = 0
        while frames < 40:
            p = math.exp(rng.uniform(math.log(5.0), math.log(2000.0)))
            q = math.exp(rng.uniform(math.log(5.0), math.log(2000.0)))
            y = rng.uniform(0.05, 0.95)
            sp = ShapeParams(p, q)
            if sp.r < 40.0 or q - sp.r * (1.0 - y) ** 2 <= 0.0:
                continue
            coeffs = x_zeta_coeffs(sp, y)
            tau = transition_tau(sp.r)
            for target in (1e-3, -1e-3, 0.5 * tau, -0.5 * tau, 0.95 * tau, -0.95 * tau):
                x = ps_eval(coeffs, target)
                fr = build_frame(sp, EvalPoint(x, y)) if x >= 0.0 else None
                if fr is None or not fr.strip_ok or abs(fr.zeta) >= tau:
                    continue
                g = g_coeffs(fr)
                for gk, ref in zip(g, g_reference(p, q, x, y)):
                    assert abs(gk - ref) <= 1e-11 * max(abs(ref), 1.0)
                frames += 1

    def test_g0_alone_is_bit_identical(self):
        # g_coeffs(fr, 0) forms g0 alone: from A_0 away from the pole, from
        # one power of A near it; on both sides of tau it equals the g0 of
        # the full set bit for bit
        rng = np.random.default_rng(29)
        near = far = 0
        while near < 40 or far < 40:
            p = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
            q = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
            y = rng.uniform(0.05, 0.95)
            sp = ShapeParams(p, q)
            if q - sp.r * (1.0 - y) ** 2 <= 0.0:
                continue
            tau = transition_tau(sp.r)
            coeffs = x_zeta_coeffs(sp, y)
            for target in (0.3 * tau, -0.9 * tau, 1.5 * tau, -4.0 * tau, 0.5):
                x = ps_eval(coeffs, target)
                if not x >= 0.0:
                    continue
                fr = build_frame(sp, EvalPoint(x, y))
                try:
                    full = g_coeffs(fr)
                except (FrameDegenerateError, EvaluationError):
                    continue
                g0 = g_coeffs(fr, 0)
                assert g0.shape == (1,)
                assert g0[0] == full[0]
                if abs(fr.zeta) < tau:
                    near += 1
                else:
                    far += 1

    def test_unconverged_pole_removal_rejected(self):
        # pole moved outside (ratio 2) or to the edge (0.9) of the disc |u| < t0 - 1
        fr = build_frame(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.5))
        for ratio in (2.0, 0.9):
            moved = dataclasses.replace(fr, zeta=0.0, tp=fr.t0 + ratio * (fr.t0 - 1.0))
            with pytest.raises(FrameDegenerateError):
                g_coeffs(moved)


class TestLargeZ:
    def test_pinned_values(self):
        for terms, sp, pt, ref in exact_rows("large-z"):
            pair = eval_large_z(sp, pt, n_terms=terms)
            assert abs(pair.b - ref) <= 1e-13 * ref

    def test_integer_q_is_exact(self):
        pair = eval_large_z(ShapeParams(5.0, 5.0), EvalPoint(140.0, 0.9), n_terms=4)
        assert pair.err_est < 1e-14
        oracle = eval_series(ShapeParams(5.0, 5.0), EvalPoint(140.0, 0.9)).b
        assert abs(pair.b - oracle) <= 5e-13 * oracle

    def test_error_estimate_honest(self):
        pair = eval_large_z(ShapeParams(2.3, 3.5), EvalPoint(54.0, 0.8640), n_terms=5)
        oracle = eval_series(ShapeParams(2.3, 3.5), EvalPoint(54.0, 0.8640)).b
        true_err = abs(pair.b - oracle) / oracle
        assert true_err <= 3.0 * pair.err_est

    def test_divergent_tail_returns_best_partial_sum(self):
        # y near 1 puts the expansion far out of regime: the optimal
        # truncation must kick in and the estimate must admit the damage
        pair = eval_large_z(ShapeParams(5.66, 5.68), EvalPoint(215.4, 0.9989), n_terms=5)
        assert 0.0 <= pair.b <= 1.0
        assert pair.err_est > 1e-3


class TestSaddle:
    def test_pinned_values(self):
        for terms, sp, pt, ref in exact_rows("saddle"):
            pair = eval_saddle(sp, pt, k_terms=terms)
            assert abs(pair.b - ref) <= 1e-13 * ref

    def test_redirect_near_transition(self):
        sp = ShapeParams(30.0, 30.0)
        fr = build_frame(sp, EvalPoint(100.0, 0.1))
        with pytest.raises(EvaluationError):
            eval_saddle(sp, EvalPoint(100.0, fr.y0 - 0.01))


class TestErfcUniform:
    def test_pinned_values(self):
        for terms, sp, pt, ref in exact_rows("erfc-uniform"):
            pair = eval_erfc_uniform(sp, pt, k_terms=terms, target="B")
            assert abs(pair.b - ref) <= 1e-13 * ref

    def test_works_through_transition(self):
        sp = ShapeParams(30.0, 30.0)
        x0 = sp.transition_noncentrality(0.5)
        pair = eval_erfc_uniform(sp, EvalPoint(x0, 0.5))
        ref = eval_series(sp, EvalPoint(x0, 0.5))
        assert abs(pair.b - ref.b) <= 1e-8


class TestTermCounts:
    @pytest.mark.parametrize("route", [eval_large_z, eval_saddle, eval_erfc_uniform])
    def test_negative_count_is_a_domain_error(self, route):
        with pytest.raises(DomainError):
            route(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1), -1)

    @pytest.mark.parametrize("route", [eval_saddle, eval_erfc_uniform])
    def test_count_past_two_is_a_domain_error(self, route):
        with pytest.raises(DomainError):
            route(ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1), 3)


class TestTransitionSeries:
    def test_x_leading_coefficients(self):
        sp = ShapeParams(10.0, 15.0)
        c = x_zeta_coeffs(sp, 0.45)
        assert abs(c[0] - 50.0 / 11.0) <= 1e-13
        x1_closed = 2.0 * math.sqrt(25.0 * (15.0 - 25.0 * 0.55**2)) / 0.55
        assert abs(c[1] - x1_closed) <= 1e-12 * x1_closed

    def test_y_leading_coefficient(self):
        sp = ShapeParams(10.0, 15.0)
        c = y_zeta_coeffs(sp, 4.5)
        assert abs(c[0] - 49.0 / 109.0) <= 1e-13
        assert c[1] < 0.0

    def test_higher_coefficients_against_finite_differences(self):
        # the defining map zeta(x, y) is the oracle for the expansion
        sp = ShapeParams(10.0, 15.0)
        cx = x_zeta_coeffs(sp, 0.45)
        h = 1e-3

        def x_root(zt):
            lo, hi = (cx[0], cx[0] + 5.0) if zt > 0 else (0.0, cx[0])
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (zeta_by_root(sp, 0.45, mid, "x") - zt > 0) == (zeta_by_root(sp, 0.45, lo, "x") - zt > 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        x2_fd = (x_root(h) + x_root(-h) - 2.0 * cx[0]) / (2.0 * h * h)
        assert abs(cx[2] - x2_fd) <= 1e-4 * abs(x2_fd)
        cy = y_zeta_coeffs(sp, 4.5)

        def y_root(zt):
            lo, hi = (1e-6, cy[0]) if zt > 0 else (cy[0], 1.0 - 1e-9)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (zeta_by_root(sp, 4.5, mid, "y") - zt > 0) == (zeta_by_root(sp, 4.5, lo, "y") - zt > 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        y1_fd = (y_root(h) - y_root(-h)) / (2.0 * h)
        assert abs(cy[1] - y1_fd) <= 1e-5 * abs(y1_fd)

    def test_worked_inversion_points(self):
        sp = ShapeParams(10.0, 15.0)
        x = zeta_series_value(x_zeta_coeffs(sp, 0.45), 0.05067, "x")
        assert abs(x - 7.1704) <= 5e-3 * 7.1704
        y = zeta_series_value(y_zeta_coeffs(sp, 4.5), 0.0, "y")
        assert abs(y - 49.0 / 109.0) <= 1e-13

    def test_round_trip_through_frame(self):
        sp = ShapeParams(10.0, 15.0)
        for zt in (0.02, -0.02):
            xz = zeta_series_value(x_zeta_coeffs(sp, 0.45), zt, "x")
            assert abs(build_frame(sp, EvalPoint(xz, 0.45)).zeta - zt) <= 1e-8
            yz = zeta_series_value(y_zeta_coeffs(sp, 4.5), zt, "y")
            assert abs(build_frame(sp, EvalPoint(4.5, yz)).zeta - zt) <= 1e-8

    def test_coefficients_bit_identical_to_numpy_reference(self):
        # the series runs on Python floats; the arithmetic is the numpy
        # version's, so every coefficient must agree bit for bit
        rng = np.random.default_rng(31)
        done = {"x": 0, "y": 0}
        while min(done.values()) < 200:
            sp = ShapeParams(*np.exp(rng.uniform(math.log(0.5), math.log(2000.0), 2)))
            for unknown, fn, ref_fn, fixed in (
                ("x", x_zeta_coeffs, np_x_zeta_coeffs, rng.uniform(0.01, 0.99)),
                ("y", y_zeta_coeffs, np_y_zeta_coeffs, rng.uniform(0.0, 500.0)),
            ):
                try:
                    ref = ref_fn(sp, fixed)
                except SeriesInvalidError:
                    with pytest.raises(SeriesInvalidError):
                        fn(sp, fixed)
                    continue
                got = fn(sp, fixed)
                assert isinstance(got, np.ndarray)
                assert got.tobytes() == ref.tobytes()
                done[unknown] += 1

    def test_radicand_precondition(self):
        # q - r (1-y)^2 < 0 at small y here
        with pytest.raises(SeriesInvalidError):
            x_zeta_coeffs(ShapeParams(10.0, 10.0), 0.1)

    def test_out_of_domain_result_rejected(self):
        # a large negative zeta drives the noncentrality below zero
        with pytest.raises(SeriesInvalidError):
            zeta_series_value(x_zeta_coeffs(ShapeParams(10.0, 15.0), 0.45), -0.5, "x")

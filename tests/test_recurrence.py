import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbeta import recurrence
from ncbeta.errors import DirectionError
from ncbeta.kernels import central_beta_cdf, kummer_m_log
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.recurrence import (
    FOUR_TERM_ADMISSIBLE,
    THREE_TERM_ADMISSIBLE,
    RecurrenceDirection,
    first_order_step,
    four_term_coeffs_p,
    four_term_coeffs_q,
    minimal_ratio_p,
    run_four_term,
    run_three_term,
    three_term_coeff_p,
    three_term_coeff_q,
)
from ncbeta.series import eval_series

PT = EvalPoint(4.5, 0.45)
SP = ShapeParams(10.0, 15.0)


def b_of(p, q, pt=PT):
    return eval_series(ShapeParams(p, q), pt).b


class TestFirstOrder:
    def test_up_down_round_trip(self):
        b0 = b_of(10.0, 15.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            up = first_order_step(SP, PT, b0, "p-up")
        back = first_order_step(ShapeParams(11.0, 15.0), PT, up, "p-down")
        assert abs(back - b0) <= 1e-14 * b0

    def test_shift_residual_at_30_20(self):
        sp = ShapeParams(30.0, 20.0)
        pt = EvalPoint(50.0, 0.4)
        b = eval_series(sp, pt).b
        bp = eval_series(ShapeParams(31.0, 20.0), pt).b
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stepped = first_order_step(sp, pt, b, "p-up")
        assert abs(stepped - bp) <= 5e-14 * max(abs(b), abs(bp)) + 5e-14 * abs(b)

    def test_q_up_chain_reproduces_sweep(self):
        # 250 steps from (30, 20) track the pinned sweep accuracy (~5e-14)
        sp0 = ShapeParams(30.0, 20.0)
        pt = EvalPoint(50.0, 0.4)
        cur = eval_series(sp0, pt).b
        for k in range(250):
            cur = first_order_step(ShapeParams(30.0, 20.0 + k), pt, cur, "q-up")
        ref = eval_series(ShapeParams(30.0, 270.0), pt).b
        assert abs(cur - ref) <= 2.5e-13 * ref

    def test_unstable_direction_warns(self):
        b0 = b_of(10.0, 15.0)
        with pytest.warns(RuntimeWarning):
            first_order_step(SP, PT, b0, "p-up")
        with pytest.warns(RuntimeWarning):
            first_order_step(SP, PT, 1.0 - b0, "q-up", target="Bbar")

    def test_mixed_shift(self):
        b0 = b_of(10.0, 15.0)
        stepped = first_order_step(SP, PT, b0, "p-down-q-up")
        ref = b_of(9.0, 16.0)
        assert abs(stepped - ref) <= 5e-14 * ref


class TestCoefficients:
    def test_p_coeff_zero_noncentrality(self):
        c = three_term_coeff_p(SP, EvalPoint(0.0, 0.45))
        assert abs(c - (24.0 / 10.0) * 0.45) <= 1e-15

    def test_p_coeff_matches_quotient(self):
        sp = ShapeParams(300.0, 200.0)
        pt = EvalPoint(50.0, 0.4)
        c = three_term_coeff_p(sp, pt)
        z = pt.z
        quot = math.exp(kummer_m_log(500.0, 301.0, z) - kummer_m_log(499.0, 300.0, z))
        ref = (499.0 / 300.0) * 0.4 * quot
        assert abs(c - ref) <= 1e-12 * ref

    def test_p_coeff_large_p_trend(self):
        c = three_term_coeff_p(ShapeParams(1e4, 10.0), EvalPoint(10.0, 0.3))
        assert abs(c / 0.3 - 1.0) < 5e-3

    def test_q_coeff_trend(self):
        # the limit is approached like sqrt(z/q), slower than the p-axis trend
        c = three_term_coeff_q(ShapeParams(10.0, 1e4), EvalPoint(10.0, 0.3))
        assert abs(c / 0.7 - 1.0) < 3.0 * math.sqrt(1.5 / 1e4)

    def test_four_term_leading_coeffs(self):
        c0, c1, c2, c3 = four_term_coeffs_p(ShapeParams(5.0, 7.0), EvalPoint(10.0, 0.2))
        assert c3 == 1.0  # x y / 2 at (10, 0.2)
        assert math.isclose(c0, 12.0 * 0.04, rel_tol=1e-15)

    def test_four_term_residuals(self):
        pt = EvalPoint(10.0, 0.2)
        sp = ShapeParams(1000.0, 1200.0)
        vals = [eval_series(ShapeParams(1000.0 + j, 1200.0), pt).b for j in range(4)]
        c = four_term_coeffs_p(sp, pt)
        parts = [c[j] * vals[j] for j in range(4)]
        # the values here sit near e^-368, where the oracle's log-space
        # assembly keeps ~1e-13 relative noise; the bound allows for it
        assert abs(sum(parts)) <= 5e-13 * max(abs(v) for v in parts)
        pt2 = EvalPoint(50.0, 0.4)
        sp2 = ShapeParams(30.0, 20.0)
        vals = [eval_series(ShapeParams(30.0, 20.0 + j), pt2).b for j in range(4)]
        d = four_term_coeffs_q(sp2, pt2)
        parts = [d[j] * vals[j] for j in range(4)]
        assert abs(sum(parts)) <= 1e-13 * max(abs(v) for v in parts)


class TestRunThreeTerm:
    def test_direction_guard_enumeration(self):
        for axis, sense, target in itertools.product(("p", "q"), ("forward", "backward"), ("B", "Bbar")):
            d = RecurrenceDirection(axis, sense, target)
            if d.key in THREE_TERM_ADMISSIBLE:
                continue
            with pytest.raises(DirectionError):
                run_three_term(d, (0.5, 0.5), 3, SP, PT)

    def test_backward_b_short_sweep(self):
        pt = EvalPoint(50.0, 0.4)
        d = RecurrenceDirection("p", "backward", "B")
        seeds = (b_of(300.0, 200.0, pt), b_of(299.0, 200.0, pt))
        run = run_three_term(d, seeds, 49, ShapeParams(300.0, 200.0), pt)
        assert run.final_param == 250.0
        ref = b_of(250.0, 200.0, pt)
        assert abs(run.final_value - ref) <= 1e-12 * ref
        assert run.residual_max < 1e-14

    def test_forward_complement_short_sweep(self):
        pt = EvalPoint(50.0, 0.4)
        d = RecurrenceDirection("q", "backward", "Bbar")
        seeds = (
            eval_series(ShapeParams(30.0, 300.0), pt).bbar,
            eval_series(ShapeParams(30.0, 299.0), pt).bbar,
        )
        run = run_three_term(d, seeds, 49, ShapeParams(30.0, 300.0), pt)
        ref = eval_series(ShapeParams(30.0, 250.0), pt).bbar
        assert abs(run.final_value - ref) <= 1e-12 * ref


class TestMinimalRatio:
    def test_zero_noncentrality_reduces_to_central_ratio(self):
        pt = EvalPoint(0.0, 0.45)
        r = minimal_ratio_p(SP, pt)
        ref = central_beta_cdf(11.0, 15.0, 0.45) / central_beta_cdf(10.0, 15.0, 0.45)
        assert abs(r - ref) <= 1e-12 * ref

    def test_matches_series_quotient(self):
        r = minimal_ratio_p(SP, PT)
        ref = b_of(11.0, 15.0) / b_of(10.0, 15.0)
        assert abs(r - ref) <= 1e-12 * ref

    def test_large_parameter_ratio(self):
        pt = EvalPoint(10.0, 0.2)
        r = minimal_ratio_p(ShapeParams(200.0, 1200.0), pt)
        ref = b_of(201.0, 1200.0, pt) / b_of(200.0, 1200.0, pt)
        assert abs(r - ref) <= 1e-13 * ref


class TestRunFourTerm:
    def test_direction_guard_enumeration(self):
        for axis, sense, target in itertools.product(("p", "q"), ("forward", "backward"), ("B", "Bbar")):
            d = RecurrenceDirection(axis, sense, target)
            if d.key in FOUR_TERM_ADMISSIBLE:
                continue
            with pytest.raises(DirectionError):
                run_four_term(d, (0.4, 0.4, 0.4), 3, SP, PT)

    def test_forward_guard_names_spurious_growth(self):
        d = RecurrenceDirection("p", "forward", "B")
        with pytest.raises(DirectionError, match="-2p/x"):
            run_four_term(d, (0.4, 0.4, 0.4), 3, SP, PT)

    def test_q_forward_tracks_series(self):
        pt = EvalPoint(50.0, 0.4)
        seeds = tuple(b_of(30.0, 20.0 + j, pt) for j in range(3))
        d = RecurrenceDirection("q", "forward", "B")
        run = run_four_term(d, seeds, 200, ShapeParams(30.0, 20.0), pt)
        assert run.final_param == 222.0
        ref = b_of(30.0, 222.0, pt)
        assert abs(run.final_value - ref) <= 1e-12 * ref

    def test_p_backward_preserves_accuracy(self):
        pt = EvalPoint(10.0, 0.2)
        seeds = tuple(b_of(503.0 - j, 1200.0, pt) for j in range(3))
        d = RecurrenceDirection("p", "backward", "B")
        run = run_four_term(d, seeds, 301, ShapeParams(503.0, 1200.0), pt)
        assert run.final_param == 200.0
        ref = b_of(200.0, 1200.0, pt)
        assert abs(run.final_value - ref) <= 2e-12 * ref


def shifted(sp, axis, v):
    return ShapeParams(v, sp.q) if axis == "p" else ShapeParams(sp.p, v)


def three_term_residual_max(run, sp, pt):
    """Every step's relative residual, recomputed from the stored sweep with
    the coefficient evaluated afresh."""
    d = run.direction
    coeff = three_term_coeff_p if d.axis == "p" else three_term_coeff_q
    worst = 0.0
    for i in range(run.steps):
        c = coeff(shifted(sp, d.axis, run.params[i + 1]), pt)
        if d.sense == "forward":
            y_m1, y_0, y_p1 = run.values[i], run.values[i + 1], run.values[i + 2]
        else:
            y_m1, y_0, y_p1 = run.values[i + 2], run.values[i + 1], run.values[i]
        scale = max(abs(y_p1), (1.0 + c) * abs(y_0), c * abs(y_m1))
        if scale > 0.0:
            worst = max(worst, abs(y_p1 - (1.0 + c) * y_0 + c * y_m1) / scale)
    return worst


def four_term_residual_max(run, sp, pt):
    """As three_term_residual_max, for the four-term recurrence: the stencil
    is ordered by parameter and based at its lowest one."""
    d = run.direction
    coeffs = four_term_coeffs_p if d.axis == "p" else four_term_coeffs_q
    worst = 0.0
    for i in range(run.steps):
        pars = run.params[i : i + 4]
        ordered = run.values[i : i + 4][np.argsort(pars)]
        k = coeffs(shifted(sp, d.axis, pars.min()), pt)
        parts = [k[j] * ordered[j] for j in range(4)]
        scale = max(abs(v) for v in parts)
        if scale > 0.0:
            worst = max(worst, abs(sum(parts)) / scale)
    return worst


sweep_points = st.tuples(
    st.floats(20.0, 300.0), st.floats(20.0, 300.0), st.floats(0.0, 100.0), st.floats(0.02, 0.98)
)
seed_values = st.floats(1e-3, 1.0)


class TestSweepResiduals:
    """Each sweep forms its residual from the coefficients of the step that
    used them: one coefficient evaluation a step, and the same residual as a
    second pass over the stored values."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(THREE_TERM_ADMISSIBLE)),
        sweep_points,
        st.tuples(seed_values, seed_values),
        st.integers(0, 15),
    )
    def test_three_term(self, key, point, seeds, steps):
        p, q, x, y = point
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        name = "three_term_coeff_p" if key[0] == "p" else "three_term_coeff_q"
        with mock.patch.object(recurrence, name, wraps=getattr(recurrence, name)) as coeff:
            run = run_three_term(RecurrenceDirection(*key), seeds, steps, sp, pt)
        assert coeff.call_count == steps
        assert run.residual_max == three_term_residual_max(run, sp, pt)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(list(itertools.product(("p", "q"), ("forward", "backward"), ("B", "Bbar")))),
        sweep_points,
        st.tuples(seed_values, seed_values, seed_values),
        st.integers(0, 15),
    )
    def test_four_term_every_direction(self, key, point, seeds, steps):
        p, q, x, y = point
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        name = "four_term_coeffs_p" if key[0] == "p" else "four_term_coeffs_q"
        # a forced sweep in an unstable direction may overflow: both passes
        # then meet the same inf and nan values
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(recurrence, name, wraps=getattr(recurrence, name)) as coeffs:
                run = run_four_term(RecurrenceDirection(*key), seeds, steps, sp, pt, _force=True)
            assert coeffs.call_count == steps
            assert run.residual_max == four_term_residual_max(run, sp, pt)

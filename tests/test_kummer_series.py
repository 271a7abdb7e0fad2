import math

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncbeta.errors import DomainError, EvaluationError
from ncbeta.kummer_series import KummerSeriesPlan, eval_kummer_series, truncated_shift_sum
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import _complement_is_primary, eval_series

SP = ShapeParams(10.0, 15.0)
# z = xy/2 far above p + 1: the factors' ratio recursion cancels below
# index z - p - 1; it was 5.65e-12 off here with an err_est of 2.2e-14
TRANSIENT_WORST = (2.1983531761864703, 5.79736464421086, 82.51574523414634, 0.5970675557708677)


def mp_b(p, q, x, y, dps=40):
    """B as the plain Poisson mixture of mpmath incomplete betas, far past
    the point where the weights fall below 10^-dps."""
    with mp.workdps(dps):
        h = mp.mpf(x) / 2
        n = int(x / 2 + 12.0 * math.sqrt(x / 2) + 60.0)
        return mp.fsum(
            mp.exp(-h) * h**j / mp.factorial(j) * mp.betainc(p + j, q, 0, mp.mpf(y), regularized=True)
            for j in range(n)
        )


class TestPlan:
    def test_variant_target_consistency(self):
        with pytest.raises(DomainError):
            KummerSeriesPlan(target="Bbar", variant="b-transformed")
        with pytest.raises(DomainError):
            KummerSeriesPlan(target="B", variant="bbar")
        with pytest.raises(DomainError):
            KummerSeriesPlan(tol=1e-16)
        with pytest.raises(DomainError):
            KummerSeriesPlan(max_terms=200000)


class TestEvaluation:
    def test_zero_quantile(self):
        assert eval_kummer_series(SP, EvalPoint(7.0, 0.0)).b == 0.0

    def test_small_quantile_matches_series(self):
        pair = eval_kummer_series(SP, EvalPoint(4.5, 0.1))
        ref = eval_series(SP, EvalPoint(4.5, 0.1)).b
        assert abs(pair.b - ref) <= 1e-12 * ref

    def test_complement_variant_pinned_value(self):
        pair = eval_kummer_series(
            ShapeParams(5.0, 5.0), EvalPoint(54.0, 0.8640), KummerSeriesPlan(target="Bbar")
        )
        assert abs(pair.b - 0.4563026193369792) <= 1e-12

    def test_variants_agree(self):
        for (p, q, x, y) in [(10.0, 15.0, 4.5, 0.3), (3.0, 40.0, 20.0, 0.5), (0.7, 3.0, 100.0, 0.2)]:
            direct = eval_kummer_series(
                ShapeParams(p, q), EvalPoint(x, y), KummerSeriesPlan(target="B", variant="b-direct")
            )
            transformed = eval_kummer_series(
                ShapeParams(p, q), EvalPoint(x, y), KummerSeriesPlan(target="B", variant="b-transformed")
            )
            assert abs(direct.b - transformed.b) <= 1e-12 * direct.b

    def test_transient_z_regime(self):
        # z large against the denominator parameter: the downward factor
        # recursion cannot cross the transient and must fall back cleanly
        sp, pt = ShapeParams(64.16, 1.85), EvalPoint(493.35, 0.188)
        pair = eval_kummer_series(sp, pt)
        ref = eval_series(sp, pt).b
        assert abs(pair.b - ref) <= 5e-12 * ref

    def test_high_quantile_convergence(self):
        # term count grows like 1/(1-y); must still converge at y = 0.95
        sp, pt = ShapeParams(50.0, 50.0), EvalPoint(100.0, 0.95)
        pair = eval_kummer_series(sp, pt, KummerSeriesPlan(target="B", variant="b-transformed"))
        ref = eval_series(sp, pt).b
        assert abs(pair.b - ref) <= 1e-11 * ref

    def test_transient_factors_within_err_est(self):
        sp, pt = ShapeParams(*TRANSIENT_WORST[:2]), EvalPoint(*TRANSIENT_WORST[2:])
        pair = eval_kummer_series(sp, pt)
        ref = mp_b(*TRANSIENT_WORST)
        assert float(abs(pair.b - ref) / ref) <= pair.err_est

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(math.log(0.5), math.log(2000.0)),
        st.floats(math.log(0.5), math.log(2000.0)),
        st.floats(0.0, 500.0),
        st.floats(0.001, 0.999),
    )
    @example(math.log(TRANSIENT_WORST[0]), math.log(TRANSIENT_WORST[1]), *TRANSIENT_WORST[2:])
    def test_gap_to_series_within_both_err_est(self, lp, lq, x, y):
        sp, pt = ShapeParams(math.exp(lp), math.exp(lq)), EvalPoint(x, y)
        try:
            pair = eval_kummer_series(sp, pt)
        except EvaluationError:
            assume(False)
        ref = eval_series(sp, pt)
        member = "bbar" if _complement_is_primary(sp, pt) else "b"
        value, oracle = getattr(pair, member), getattr(ref, member)
        assume(oracle > 1e-290)
        assert abs(value - oracle) <= (pair.err_est + ref.err_est) * oracle


class TestShiftIdentity:
    def test_partial_sum_plus_remainder(self):
        pt = EvalPoint(4.5, 0.45)
        total = eval_series(SP, pt).b
        for n_shift in (0, 5, 20):
            partial = truncated_shift_sum(SP, pt, n_shift)
            remainder = eval_series(ShapeParams(10.0 + n_shift + 1, 15.0), pt).b
            assert abs(partial + remainder - total) <= 1e-12 * total

import math

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special._ufuncs import _ncf_sf

from ncbeta.errors import DomainError, EvaluationError
from ncbeta.kummer_series import eval_kummer_series, truncated_shift_sum
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import _complement_is_primary, eval_series

SP = ShapeParams(10.0, 15.0)
# z = xy/2 far above p + 1: the factors' ratio recursion cancels below
# index z - p - 1; it was 5.65e-12 off here with an err_est of 2.2e-14
# the B-series sum overflows here; its err_est was nan, and the value 1
OVERFLOWING_B = (79.7743900615825, 690.0511798070329, 492.1107622453004, 0.740064372771908)
TRANSIENT_WORST = (2.1983531761864703, 5.79736464421086, 82.51574523414634, 0.5970675557708677)
# q in [1e3, 2e6]: 5.0e-11 off scipy with an err_est of 5.4e-14 before
# err_est carried the rounding that grows with p + q; next, the largest
# gaps relative to u (p + q) in B and in the complement
LARGE_Q_WORST = [
    (77.4250467340811, 308802.54717808584, 872.4901914496071, 0.0010475070041165802),
    (12.860168617277658, 2403.300611654521, 185.57490319049012, 0.01661692271759878),
    (2.9000460054413444, 30338.20851836254, 124.62875145594225, 0.0021450734237382792),
    # and the largest gap, 4.7e-10 in the complement, where err_est was 2.4e-12
    (8.266564301383935, 1782094.6722014493, 220446.63077252943, 0.06325536457776658),
]


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


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


class TestVariant:
    @pytest.mark.parametrize("variant", ["B", "Bbar", "b", "", None])
    def test_unknown_variant_is_a_domain_error(self, variant):
        with pytest.raises(DomainError):
            eval_kummer_series(SP, EvalPoint(4.5, 0.3), variant)

    def test_auto_sums_the_smaller_member(self):
        # below the transition quantile the transformed B-series, above it
        # the complement series
        for pt, variant in [(EvalPoint(4.5, 0.3), "b-transformed"), (EvalPoint(4.5, 0.9), "bbar")]:
            assert repr(eval_kummer_series(SP, pt)) == repr(eval_kummer_series(SP, pt, variant))


class TestEvaluation:
    def test_zero_quantile(self):
        assert eval_kummer_series(SP, EvalPoint(7.0, 0.0)).b == 0.0

    def test_small_quantile_matches_series(self):
        pair = eval_kummer_series(SP, EvalPoint(4.5, 0.1))
        ref = eval_series(SP, EvalPoint(4.5, 0.1)).b
        assert abs(pair.b - ref) <= 1e-12 * ref

    def test_complement_variant_pinned_value(self):
        pair = eval_kummer_series(
            ShapeParams(5.0, 5.0), EvalPoint(54.0, 0.8640), "bbar"
        )
        assert abs(pair.b - 0.4563026193369792) <= 1e-12

    def test_variants_agree(self):
        for (p, q, x, y) in [(10.0, 15.0, 4.5, 0.3), (3.0, 40.0, 20.0, 0.5), (0.7, 3.0, 100.0, 0.2)]:
            direct = eval_kummer_series(ShapeParams(p, q), EvalPoint(x, y), "b-direct")
            transformed = eval_kummer_series(ShapeParams(p, q), EvalPoint(x, y), "b-transformed")
            assert abs(direct.b - transformed.b) <= 1e-12 * direct.b

    @pytest.mark.parametrize("variant", ["b-direct", "b-transformed"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_b_sum_raises(self, variant):
        sp, pt = ShapeParams(*OVERFLOWING_B[:2]), EvalPoint(*OVERFLOWING_B[2:])
        with pytest.raises(EvaluationError, match="overflows"):
            eval_kummer_series(sp, pt, variant)
        # auto sums the complement there, 4.7e-142
        pair, ref = eval_kummer_series(sp, pt), eval_series(sp, pt)
        assert abs(pair.bbar - ref.bbar) <= (pair.err_est + ref.err_est) * ref.bbar

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
        pair = eval_kummer_series(sp, pt, "b-transformed")
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


    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(log_uniform(0.5, 2000.0), log_uniform(1e3, 2e6), log_uniform(1e2, 3e5), log_uniform(1e-3, 0.3))
    @example(*LARGE_Q_WORST[0])
    @example(*LARGE_Q_WORST[1])
    @example(*LARGE_Q_WORST[2])
    @example(*LARGE_Q_WORST[3])
    def test_large_q_within_err_est_of_scipy(self, p, q, x, y):
        # judged where scipy (Boost) and the series agree within 1e-13
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        try:
            pair = eval_kummer_series(sp, pt)
            ref = eval_series(sp, pt)
        except EvaluationError:
            assume(False)
        member = "bbar" if _complement_is_primary(sp, pt) else "b"
        f = (q / p) * y / (1.0 - y)
        oracle = _ncf_sf(f, 2.0 * p, 2.0 * q, x) if member == "bbar" else special.ncfdtr(2.0 * p, 2.0 * q, x, f)
        assume(oracle > 1e-290 and abs(getattr(ref, member) - oracle) <= 1e-13 * oracle)
        assert abs(getattr(pair, member) - oracle) <= pair.err_est * oracle


class TestShiftIdentity:
    def test_partial_sum_plus_remainder(self):
        pt = EvalPoint(4.5, 0.45)
        total = eval_series(SP, pt).b
        for n_shift in (0, 5, 20):
            partial = truncated_shift_sum(SP, pt, n_shift)
            remainder = eval_series(ShapeParams(10.0 + n_shift + 1, 15.0), pt).b
            assert abs(partial + remainder - total) <= 1e-12 * total

import math

import numpy as np
import pytest

from ncbeta.errors import DomainError
from ncbeta.kernels import central_beta_cdf
from ncbeta.params import EvalPoint, ProbabilityPair, ShapeParams
from ncbeta.series import (
    central_term_sequence,
    eval_series,
    eval_type2_qfunction,
    noncentral_f_cdf,
)

SP = ShapeParams(10.0, 15.0)


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

    def test_tolerance_precondition(self):
        with pytest.raises(DomainError):
            eval_series(SP, EvalPoint(1.0, 0.5), tol=1e-16)

    def test_small_quantile_regime(self):
        # the summand peaks at j = 0 here; relative accuracy must survive
        pair = eval_series(ShapeParams(64.16, 1.85), EvalPoint(493.35, 0.188))
        assert pair.b > 0.0
        assert pair.err_est < 1e-10


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


class TestNoncentralF:
    def test_zero_statistic(self):
        assert noncentral_f_cdf(0.0, 20.0, 30.0, 4.5).b == 0.0

    def test_infinite_statistic(self):
        assert noncentral_f_cdf(math.inf, 20.0, 30.0, 4.5).b == 1.0

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


class TestProbabilityPair:
    def test_from_primary_clips_and_complements(self):
        pair = ProbabilityPair.from_primary(1.0000000000000002, "b", "test", 0.0)
        assert pair.b == 1.0 and pair.bbar == 0.0
        pair = ProbabilityPair.from_primary(0.25, "bbar", "test", 1e-15)
        assert pair.bbar == 0.25 and pair.b == 0.75

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fronfix.cfkernel import cf_weights, history_push, history_sum_naive, memory_exponent
from fronfix.errors import ValidationError


def prefactor(w) -> float:
    """The quadrature's P = (exp(x) - 1)/(dtau*alpha), x = alpha*dtau/(1-alpha)."""
    return math.expm1(memory_exponent(w.alpha, w.dtau)) / (w.dtau * w.alpha)


def continuous_cf_derivative(f_prime, alpha: float, t: float) -> float:
    """Adaptive quadrature of the exponential-kernel derivative definition."""
    kernel = lambda s: math.exp(-alpha * (t - s) / (1.0 - alpha)) * f_prime(s)
    val, err = quad(kernel, 0.0, t, limit=200)
    assert err < 1e-12
    return val / (1.0 - alpha)


class TestWeights:
    def test_closed_forms_at_half(self):
        w = cf_weights(0.5, 0.01)
        # alpha/(1-alpha) = 1, so decay = exp(-dtau)
        assert w.decay == pytest.approx(math.exp(-0.01), rel=1e-15)
        assert w.row_weight == pytest.approx(0.005 / (1.0 - math.exp(-0.01)), rel=1e-14)

    def test_decay_in_unit_interval_and_prefactor_identity(self):
        for alpha in (0.05, 0.3, 0.6, 0.95):
            for dtau in (1e-4, 0.01, 0.25):
                w = cf_weights(alpha, dtau)
                assert 0.0 < w.decay < 1.0
                # q_eff = dtau*alpha/(1 - rho) = 1/(P*rho)
                assert prefactor(w) * w.decay * w.row_weight == pytest.approx(1.0, rel=1e-13)

    def test_alpha_one_has_decay_zero(self):
        # the classical mode is the alpha -> 1 limit, which underflow reaches first
        for alpha in (1.0, 1.0 - 1e-12):
            w = cf_weights(alpha, 0.01)
            assert (w.decay, w.row_weight, w.dtau) == (0.0, 0.01 * alpha, 0.01)

    def test_underflowing_exponent_takes_the_limit(self):
        # alpha*dtau rounds to 0: rho = 1 and q_eff -> 1 - alpha, not 0/0
        w = cf_weights(5e-324, 0.0625)
        assert (w.decay, w.row_weight) == (1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 0.999, 0.999999, 1.0])
    def test_row_weight_is_q_eff_bit_for_bit(self, alpha):
        # q_eff = dtau*alpha/(1 - rho), formed from expm1 so it stays finite
        # where P overflows (alpha = 0.999999); exactly dtau in the classical mode
        dtau = 0.032
        w = cf_weights(alpha, dtau)
        if alpha == 1.0:
            assert w.row_weight == dtau
        else:
            expo = alpha * dtau / (1.0 - alpha)
            assert w.row_weight == dtau * alpha / (-math.expm1(-expo))
        assert math.isfinite(w.row_weight)

    def test_near_one_limit_is_backward_difference(self):
        # decay -> 0 and P*decay -> 1/dtau, so only the newest increment survives
        dtau = 0.02
        for alpha, rel in ((0.99, 0.15), (0.999, 2e-3), (0.9999, 2e-4)):
            w = cf_weights(alpha, dtau)
            assert prefactor(w) * w.decay == pytest.approx(1.0 / dtau, rel=rel)
        assert cf_weights(0.9999, dtau).decay < cf_weights(0.999, dtau).decay

    @pytest.mark.parametrize("alpha,dtau", [(0.0, 0.1), (1.2, 0.1), (0.5, 0.0), (0.5, -1.0)])
    def test_rejects_bad_inputs(self, alpha, dtau):
        with pytest.raises(ValidationError):
            cf_weights(alpha, dtau)


class TestNaiveSum:
    def test_single_increment_from_zero(self):
        w = cf_weights(0.4, 0.05)
        v1 = 0.37
        assert history_sum_naive([0.0, v1], w) == pytest.approx(v1 * w.decay, rel=1e-15)

    def test_constant_series_vanishes(self):
        w = cf_weights(0.7, 0.02)
        assert history_sum_naive([3.3] * 6, w) == 0.0

    def test_two_level_expansion(self):
        w = cf_weights(0.55, 0.1)
        v0, v1, v2 = 0.2, 0.9, 0.5
        expected = (v2 - v1) * w.decay + (v1 - v0) * w.decay**2
        assert history_sum_naive([v0, v1, v2], w) == pytest.approx(expected, rel=1e-15)

    def test_requires_two_levels(self):
        with pytest.raises(ValidationError):
            history_sum_naive([1.0], cf_weights(0.5, 0.1))


class TestAccumulator:
    def test_first_push_is_single_term(self):
        w = cf_weights(0.45, 0.03)
        sums = np.zeros(3)
        sums = history_push(sums, np.array([1.0, 2.0, 0.5]), np.zeros(3), w)
        assert sums == pytest.approx(np.array([1.0, 2.0, 0.5]) * w.decay)

    def test_two_pushes_match_naive(self):
        w = cf_weights(0.45, 0.03)
        levels = [np.array([0.0, 0.1]), np.array([0.4, 0.2]), np.array([0.3, 0.9])]
        sums = np.zeros(2)
        sums = history_push(sums, levels[1], levels[0], w)
        sums = history_push(sums, levels[2], levels[1], w)
        for m in range(2):
            naive = history_sum_naive([lv[m] for lv in levels], w)
            assert sums[m] == pytest.approx(naive, abs=1e-14)

    def test_identical_levels_pure_decay(self):
        w = cf_weights(0.8, 0.02)
        sums = np.zeros(2)
        sums = history_push(sums, np.array([0.5, 0.1]), np.zeros(2), w)
        before = sums.copy()
        sums = history_push(sums, np.array([0.5, 0.1]), np.array([0.5, 0.1]), w)
        assert sums == pytest.approx(w.decay * before, rel=1e-15)

    def test_length_mismatch_rejected(self):
        w = cf_weights(0.5, 0.1)
        sums = np.zeros(3)
        with pytest.raises(ValidationError):
            history_push(sums, np.zeros(4), np.zeros(3), w)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        data=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_recursion_matches_naive(self, alpha, data):
        w = cf_weights(alpha, 0.01)
        sums = np.zeros(1)
        for prev, new in zip(data, data[1:]):
            sums = history_push(sums, np.array([new]), np.array([prev]), w)
        naive = history_sum_naive(data, w)
        assert abs(sums[0] - naive) <= 1e-12 * (1.0 + abs(naive))

    def test_single_jump_decays_geometrically(self):
        w = cf_weights(0.6, 0.05)
        sums = np.zeros(1)
        sums = history_push(sums, np.array([1.0]), np.array([0.0]), w)  # unit jump
        for lag in range(1, 12):
            assert sums[0] == pytest.approx(w.decay**lag, rel=1e-13)
            sums = history_push(sums, np.array([1.0]), np.array([1.0]), w)


class TestDerivativeApply:
    def test_constant_field_is_zero(self):
        w = cf_weights(0.5, 0.01)
        sums = np.zeros(4)
        field = np.full(4, 2.5)
        for _ in range(5):
            sums = history_push(sums, field, field, w)
        assert np.all(prefactor(w) * sums == 0.0)

    def test_linear_series_is_exact(self):
        # piecewise-linear quadrature integrates a linear function exactly
        alpha, dtau, steps = 0.9, 1e-3, 50
        w = cf_weights(alpha, dtau)
        sums = np.zeros(1)
        for n in range(1, steps + 1):
            sums = history_push(sums, np.array([n * dtau]), np.array([(n - 1) * dtau]), w)
        t = steps * dtau
        exact = continuous_cf_derivative(lambda s: 1.0, alpha, t)
        closed = (1.0 - math.exp(-alpha * t / (1.0 - alpha))) / alpha
        assert exact == pytest.approx(closed, rel=1e-10)
        assert prefactor(w) * sums[0] == pytest.approx(exact, rel=1e-10)

    def test_quadratic_series_convergence_under_halving(self):
        # manufactured smooth series: the piecewise-linear memory quadrature
        # converges cleanly (measured ratio 4, comfortably within the O(dtau)
        # guarantee) toward the quadrature oracle
        alpha, t = 0.7, 0.5
        exact = continuous_cf_derivative(lambda s: 2.0 * s, alpha, t)
        errors = []
        for steps in (50, 100, 200):
            dtau = t / steps
            w = cf_weights(alpha, dtau)
            sums = np.zeros(1)
            for n in range(1, steps + 1):
                sums = history_push(
                    sums, np.array([(n * dtau) ** 2]), np.array([((n - 1) * dtau) ** 2]), w
                )
            errors.append(abs(prefactor(w) * sums[0] - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.1)
            assert coarse / fine > 1.8  # at least first order

    def test_near_one_matches_backward_difference(self):
        dtau = 0.01
        w = cf_weights(0.9999, dtau)
        sums = np.zeros(1)
        sums = history_push(sums, np.array([0.3]), np.array([0.1]), w)
        bd = (0.3 - 0.1) / dtau
        assert prefactor(w) * sums[0] == pytest.approx(bd, rel=1e-3)

    @given(
        alpha=st.floats(min_value=0.1, max_value=0.9),
        a=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=30),
        b=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=30),
        lam=st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, alpha, a, b, lam):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        w = cf_weights(alpha, 0.02)

        def accumulate(series):
            sums = np.zeros(1)
            for prev, new in zip(series, series[1:]):
                sums = history_push(sums, np.array([new]), np.array([prev]), w)
            return prefactor(w) * sums[0]

        combo = [ai + lam * bi for ai, bi in zip(a, b)]
        lhs = accumulate(combo)
        rhs = accumulate(a) + lam * accumulate(b)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracle_reference
from fronfix.errors import FronfixError, ValidationError
from fronfix.model import ModelParams
from fronfix.oracles import (
    binomial_american_put,
    european_put_closed_form,
    psor_american_put,
)


def lognormal_put_quadrature(p: ModelParams, S0: float) -> float:
    """Discounted expectation of the payoff under the terminal density."""
    vol = p.sigma * math.sqrt(p.T)
    mean = math.log(S0) + (p.r - 0.5 * p.sigma**2) * p.T

    def integrand(s):
        density = math.exp(-((math.log(s) - mean) ** 2) / (2 * vol * vol)) / (
            s * vol * math.sqrt(2 * math.pi)
        )
        return (p.E - s) * density

    val, err = quad(integrand, 1e-12, p.E, limit=300)
    assert err < 1e-10
    return math.exp(-p.r * p.T) * val


class TestEuropean:
    def test_baseline_value_against_quadrature(self, base_params):
        closed = european_put_closed_form(base_params, 1.0)
        assert closed == pytest.approx(0.0375, abs=5e-4)
        assert closed == pytest.approx(lognormal_put_quadrature(base_params, 1.0), abs=1e-10)

    def test_zero_volatility_limit(self):
        p = ModelParams(r=0.05, sigma=1e-13, E=1.0, T=1.0)
        s0 = 0.8
        assert european_put_closed_form(p, s0) == pytest.approx(
            math.exp(-0.05) - s0, rel=1e-12
        )

    def test_far_spot_vanishes(self, base_params):
        assert european_put_closed_form(base_params, 1e6) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_spot(self, base_params):
        with pytest.raises(ValidationError):
            european_put_closed_form(base_params, 0.0)


class TestBinomial:
    def test_expiry_limit_is_payoff(self):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1e-9)
        assert binomial_american_put(p, 0.7, 1).price == pytest.approx(0.3, abs=1e-6)
        assert binomial_american_put(p, 1.3, 1).price == pytest.approx(0.0, abs=1e-9)

    def test_dominates_european_at_zero_rate(self):
        # tree discretization bias is O(1/steps), so give it that allowance
        p = ModelParams(r=0.0, sigma=0.3, E=1.0, T=1.0)
        tree = binomial_american_put(p, 1.0, 2000)
        assert tree.price >= european_put_closed_form(p, 1.0) - 5e-5

    def test_frozen_reference_value(self, base_params):
        # recorded from two resolutions: 5000 -> 0.0481612142,
        # 10000 -> 0.0481620136 (agreement 8.0e-7)
        tree = binomial_american_put(base_params, 1.0, 5000)
        assert tree.price == pytest.approx(0.0481612142, abs=1e-9)

    def test_self_convergence_shrinks(self, base_params):
        p1 = binomial_american_put(base_params, 1.0, 250).price
        p2 = binomial_american_put(base_params, 1.0, 500).price
        p4 = binomial_american_put(base_params, 1.0, 1000).price
        assert abs(p4 - p2) < abs(p2 - p1)

    def test_rejects_bad_inputs(self, base_params):
        with pytest.raises(ValidationError):
            binomial_american_put(base_params, 1.0, 0)
        with pytest.raises(ValidationError):
            binomial_american_put(base_params, -1.0, 100)
        # one step of a year at r = 5: e^(r dt) = 148 lies far above up = 1.01
        with pytest.raises(ValidationError, match="tree probability outside"):
            binomial_american_put(ModelParams(5.0, 0.01, 1.0, 1.0), 1.0, 1)


class TestPSOR:
    def test_unconstrained_region_matches_european(self, base_params):
        for s0 in (2.5, 3.0):
            ps = psor_american_put(base_params, s0, 400, 400)
            assert ps.price == pytest.approx(
                european_put_closed_form(base_params, s0), abs=1e-6
            )

    def test_cross_oracle_agreement_at_strike(self, base_params):
        tree = binomial_american_put(base_params, 1.0, 5000)
        ps = psor_american_put(base_params, 1.0, 400, 400)
        assert ps.price == pytest.approx(tree.price, abs=2e-3)

    def test_boundary_estimate_present_and_sane(self, base_params):
        ps = psor_american_put(base_params, 1.0, 400, 400)
        assert ps.boundary_estimate is not None
        assert 0.5 < ps.boundary_estimate < 1.0

    @pytest.mark.parametrize("grid, key", [
        ({"M_s": 0}, "Ms"), ({"M_s": 1}, "Ms"), ({"M_s": 2}, "Ms"),
        ({"N_t": 0}, "Nt"), ({"N_t": -3}, "Nt"),
        ({"E": 0.0}, "S_max"), ({"E": -1.0}, "S_max"),
        ({"E": math.inf}, "S_max"), ({"E": math.nan}, "S_max"),
    ])
    def test_rejects_grid_it_cannot_solve(self, base_params, grid, key):
        # these once died in a ZeroDivisionError or an empty-colour reduction,
        # or (N_t < 0) returned a price without taking a step; the grid ends
        # at S_max = 4E, so a strike that is not positive and finite has none
        kwargs = {"M_s": 40, "N_t": 30, **grid}
        p = dataclasses.replace(base_params, E=kwargs.pop("E", base_params.E))
        with pytest.raises(ValidationError, match=key):
            psor_american_put(p, 1.0, **kwargs)


class TestModelChecks:
    ORACLES = {
        "binomial": lambda p: binomial_american_put(p, 1.0, 50),
        "psor": lambda p: psor_american_put(p, 1.0, 20, 10),
        "european": lambda p: european_put_closed_form(p, 1.0),
    }

    @pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES.keys())
    @pytest.mark.parametrize("change, message", [
        ({"E": -1.0}, "E must be positive"),  # once a tree price of 0.0, a bare ValueError
        ({"sigma": 0.0}, "sigma must be positive"),
        ({"alpha": 0.99}, r"classical model only \(alpha = 1\), got alpha = 0.99"),
    ])
    def test_refuses_a_model_it_cannot_price(self, base_params, oracle, change, message):
        with pytest.raises(ValidationError, match=message):
            oracle(dataclasses.replace(base_params, **change))


def outcome(pricer, *args, **kwargs):
    try:
        res = pricer(*args, **kwargs)
    except FronfixError as exc:
        return (type(exc).__name__, str(exc))
    return (res.price, res.boundary_estimate, res.method, res.resolution)


class TestBitsOfThePerLevelLoops:
    """The array-speed tree gives the bits of the loop it replaced, and the
    Brennan-Schwartz sweep agrees with projected SOR run to tol 1e-13."""

    CASES = [
        ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0),
        ModelParams(r=0.0, sigma=0.3, E=1.0, T=0.5),
        ModelParams(r=0.05, sigma=0.4, E=1.0, T=1e-9),
        ModelParams(r=0.03, sigma=0.15, E=100.0, T=2.0),
    ]

    @pytest.mark.parametrize("p", CASES)
    @pytest.mark.parametrize("steps", [1, 2, 3, 250])
    def test_tree(self, p, steps):
        for s0 in (0.8 * p.E, p.E, 1.3 * p.E, 5.0 * p.E):
            assert outcome(binomial_american_put, p, s0, steps) == outcome(
                oracle_reference.binomial_american_put, p, s0, steps
            )

    # r / sigma^2 = 8.9: the first implicit rows are not an M-matrix
    @pytest.mark.parametrize("p", CASES + [ModelParams(r=0.2, sigma=0.15, E=1.0, T=1.0)])
    @pytest.mark.parametrize("M_s, N_t", [(3, 1), (4, 2), (40, 30), (41, 25)])
    def test_obstacle_sweep_agrees_with_psor(self, p, M_s, N_t):
        # S_max is 4E: the last two spots sit on and beyond the grid's end
        for s0 in (0.8 * p.E, p.E, 4.0 * p.E, 5.0 * p.E):
            sweep = psor_american_put(p, s0, M_s, N_t)
            psor = oracle_reference.psor_american_put(p, s0, M_s, N_t, omega=1.2, tol=1e-13)
            assert abs(sweep.price - psor.price) <= 1e-10
            assert sweep.boundary_estimate == psor.boundary_estimate


class TestOrderingChain:
    @given(
        r=st.floats(min_value=0.0, max_value=0.15),
        sigma=st.floats(min_value=0.1, max_value=0.5),
        s0=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_european_leq_american_geq_intrinsic(self, r, sigma, s0):
        p = ModelParams(r=r, sigma=sigma, E=1.0, T=1.0)
        tree = binomial_american_put(p, s0, 800)
        euro = european_put_closed_form(p, s0)
        assert tree.price >= euro - 2e-4  # tree noise at 800 steps
        assert tree.price >= max(p.E - s0, 0.0) - 1e-12

    def test_psor_binomial_agree_on_a_second_draw(self):
        p = ModelParams(r=0.06, sigma=0.35, E=1.0, T=0.75)
        tree = binomial_american_put(p, 1.1, 4000)
        ps = psor_american_put(p, 1.1, 400, 400)
        assert ps.price == pytest.approx(tree.price, abs=2e-3)

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronfix.errors import DomainError, ValidationError
from fronfix.model import (
    GridSpec,
    ModelParams,
    SolutionSurface,
    build_grid,
    from_fixed_domain,
    to_fixed_domain,
    validate_params,
)


def violations(p: ModelParams) -> list[str]:
    """What validate_params lists for p; empty when it does not raise."""
    try:
        validate_params(p)
    except ValidationError as err:
        return err.violations
    return []


class TestValidateParams:
    def test_baseline_experiment_set_is_valid(self):
        assert violations(ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.9)) == []

    def test_zero_sigma_rejected(self):
        bad = violations(ModelParams(r=0.1, sigma=0.0, E=1.0, T=1.0))
        assert "sigma must be positive" in bad

    def test_alpha_above_one_rejected(self):
        bad = violations(ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=1.5))
        assert "alpha must lie in (0,1]" in bad

    def test_multiple_violations_all_reported(self):
        bad = violations(ModelParams(r=-1.0, sigma=-1.0, E=0.0, T=0.0, alpha=0.0))
        assert len(bad) == 5

    def test_nan_rejected(self):
        bad = violations(ModelParams(r=math.nan, sigma=0.2, E=1.0, T=1.0))
        assert any("finite" in v for v in bad)


class TestBuildGrid:
    def test_grid_arithmetic_example(self, base_params):
        g = build_grid(base_params, M=100, mu=20.0, Y=4.0)
        assert g.dy == 0.04
        assert g.dtau == pytest.approx(0.032, abs=0)
        assert g.N == 32

    def test_default_truncation_is_four_strikes(self, base_params):
        g = build_grid(base_params, M=100, mu=20.0)
        assert g.Y == 4.0 * base_params.E

    def test_fine_grid_counts(self, base_params):
        g = build_grid(base_params, M=100, mu=20.0, Y=1.0)
        assert g.dy == 0.01
        assert g.dtau == pytest.approx(0.002)
        assert g.N == 500

    @pytest.mark.parametrize("kwargs", [
        {"M": 3, "mu": 20.0, "Y": 4.0},
        {"M": 100, "mu": 0.0, "Y": 4.0},
        {"M": 100, "mu": 20.0, "Y": -1.0},
    ])
    def test_rejects_bad_inputs(self, base_params, kwargs):
        with pytest.raises(ValidationError):
            build_grid(base_params, **kwargs)

    @given(
        m=st.integers(min_value=4, max_value=600),
        mu=st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
        y=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_identities_hold(self, m, mu, y):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0)
        g = build_grid(p, m, mu, y)
        assert g.dy == y / m
        assert g.dtau == mu * g.dy * g.dy
        assert g.N >= 1
        # achieved horizon covers T up to the float guard on exact divisions
        assert g.N * g.dtau >= p.T * (1.0 - 1e-9)
        assert (g.N - 1) * g.dtau < p.T


class TestTransforms:
    def test_boundary_maps_to_zero(self):
        y, xf = to_fixed_domain(X=0.9, Xstar=0.9, E=1.0)
        assert y == 0.0

    def test_boundary_at_strike_has_unit_xf(self):
        _, xf = to_fixed_domain(X=2.0, Xstar=1.0, E=1.0)
        assert xf == 1.0

    def test_log_identity(self):
        y, _ = to_fixed_domain(X=0.9 * math.e, Xstar=0.9, E=1.0)
        assert y == pytest.approx(1.0, rel=1e-15)

    def test_below_boundary_rejected(self):
        with pytest.raises(DomainError):
            to_fixed_domain(X=0.5, Xstar=0.9, E=1.0)

    def test_zero_value_maps_to_zero_price(self):
        V, _ = from_fixed_domain(v=0.0, y=0.7, xf=0.9, E=1.0)
        assert V == 0.0

    def test_boundary_value_matches_intrinsic(self):
        # at y = 0 the value 1 - xf corresponds to V = E*(1 - xf)
        V, X = from_fixed_domain(v=1.0 - 0.8, y=0.0, xf=0.8, E=1.0)
        assert V == pytest.approx(0.2)
        assert X == pytest.approx(0.8)

    def test_invariant_violations_rejected(self):
        with pytest.raises(DomainError):
            from_fixed_domain(v=1.5, y=0.0, xf=0.8, E=1.0)
        with pytest.raises(DomainError):
            from_fixed_domain(v=0.5, y=-0.1, xf=0.8, E=1.0)
        with pytest.raises(DomainError):
            from_fixed_domain(v=0.5, y=0.1, xf=0.0, E=1.0)

    @given(
        xstar=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        gap=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        strike=st.floats(min_value=1e-2, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, xstar, gap, strike):
        X = xstar + gap
        y, xf = to_fixed_domain(X, xstar, strike)
        if not (0.0 < xf <= 1.0):
            return  # boundary above strike is outside the inverse's domain
        _, X_back = from_fixed_domain(0.0, y, xf, strike)
        assert X_back == pytest.approx(X, rel=1e-12)
        assert strike * xf == pytest.approx(xstar, rel=1e-12)


class TestSolutionSurface:
    def test_structural_identities_enforced(self):
        v = np.zeros((3, 5))
        xf = np.array([1.0, 0.9, 0.8])
        v[1, 0] = 1.0 - xf[1]  # bit-exact, same expression the solver uses
        v[2, 0] = 1.0 - xf[2]
        s = SolutionSurface(v=v, xf=xf)
        assert s.levels == 3 and s.nodes == 5
        with pytest.raises(ValueError):
            s.v[0, 0] = 1.0  # read-only

    def test_bad_initial_level_rejected(self):
        v = np.zeros((2, 5))
        v[0, 1] = 0.5
        with pytest.raises(ValidationError):
            SolutionSurface(v=v, xf=np.array([1.0, 1.0]))

    def test_boundary_column_mismatch_rejected(self):
        v = np.zeros((2, 5))
        with pytest.raises(ValidationError):
            SolutionSurface(v=v, xf=np.array([1.0, 0.9]))

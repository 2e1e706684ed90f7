from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronfix.errors import ValidationError
from fronfix.model import (
    GridSpec,
    ModelParams,
    SolutionSurface,
    build_grid,
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

    # numpy refuses past sys.maxsize bytes (1e-300, 6.25e-15), T/dtau overflows
    # to inf (1e-320) and mu*dy^2 underflows to 0 (5e-324)
    @pytest.mark.parametrize("mu", [1e-300, 6.25e-15, 1e-320, 5e-324])
    def test_refuses_a_grid_too_large_to_index(self, base_params, mu):
        with pytest.raises(ValidationError, match=f"^mu={mu!r} gives dtau="):
            build_grid(base_params, M=100, mu=mu)

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

    @pytest.mark.parametrize("v, xf, message", [
        (np.zeros(3), np.array([1.0, 1.0, 1.0]), "surface shapes are inconsistent"),
        (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]), np.array([1.0, 1.0]),
         "far-field column must be zero"),
    ], ids=["one-dimensional-v", "nonzero-far-field"])
    def test_malformed_surface_rejected(self, v, xf, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SolutionSurface(v=v, xf=xf)

    def test_boundary_column_mismatch_rejected(self):
        v = np.zeros((2, 5))
        with pytest.raises(ValidationError):
            SolutionSurface(v=v, xf=np.array([1.0, 0.9]))

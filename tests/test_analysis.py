from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fronfix.analysis as analysis
import fronfix.scheme as scheme
from fronfix.analysis import (
    AuditViolation,
    amplification_factor,
    lemma1_check,
    monotonicity_audit,
    observed_order,
    root_condition,
    y_truncation_study,
)
from fronfix.cfkernel import cf_weights
from fronfix.errors import DomainError, ValidationError
from fronfix.model import ModelParams, SolutionSurface, build_grid
from fronfix.cli import run_cli
from fronfix.scheme import price_at, run_solver


def make_surface(v, xf):
    return SolutionSurface(v=np.asarray(v, dtype=float), xf=np.asarray(xf, dtype=float))


class TestLemma1:
    def test_default_grid_violates_convection_condition(self, base_params):
        g = build_grid(base_params, M=100, mu=20.0, Y=4.0)
        rep = lemma1_check(base_params, g)
        # 0.04 <= 0.04*0.032/0.08 = 0.016 is false
        assert rep.cond_convection is False
        assert rep.cond_timestep is True
        assert not rep.satisfied

    def test_drift_free_case_skips_convection(self):
        # r equal to sigma^2/2 bit-for-bit
        p = ModelParams(r=0.2 * 0.2 / 2.0, sigma=0.2, E=1.0, T=1.0)
        g = build_grid(p, M=100, mu=20.0, Y=4.0)
        rep = lemma1_check(p, g)
        assert rep.cond_convection is None
        assert rep.satisfied == rep.cond_timestep

    def test_timestep_condition_boundary_inclusive(self, base_params):
        p = base_params
        sig2 = p.sigma**2
        # choose dy then dtau exactly on the bound
        g0 = build_grid(p, M=40, mu=1.0, Y=4.0)
        dy = g0.dy
        dtau_limit = dy * dy / (p.r * dy * dy + sig2)
        mu_limit = dtau_limit / (dy * dy)
        g = build_grid(p, M=40, mu=mu_limit, Y=4.0)
        rep = lemma1_check(p, g)
        assert rep.cond_timestep is True

    def test_compliant_grid_gives_nonnegative_offdiagonals(self, base_params):
        run = run_solver(base_params, 40, 22.0, 4.0)
        rep = lemma1_check(base_params, run.grid, run.surface.xf)
        assert rep.satisfied
        assert np.all(rep.coefficient_signs[:, 0] >= 0)  # A
        assert np.all(rep.coefficient_signs[:, 2] >= 0)  # C
        # B is negative as the scheme is written; recorded, not asserted
        assert np.all(rep.coefficient_signs[:, 1] == -1)

    def test_signs_match_per_step_scalar_rows(self):
        # one array evaluation of the rows gives each step's scalar rows, bit
        # for bit; the jumps make the drift flip both off-diagonal signs
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.7)
        g, marched, _ = scheme.final_level(p, 20, 5.0, 4.0)
        q_eff = cf_weights(p.alpha, g.dtau).row_weight
        for xf in (marched, np.array([1.0, 0.5, 0.9, 0.2, 0.95, -0.3, 0.4])):
            rep = lemma1_check(p, g, xf)
            want = []
            for xf_curr, xf_next in zip(xf[:-1].tolist(), xf[1:].tolist()):
                rows = scheme._Rows(p, g, q_eff, xf_curr)
                upper, lower, _ = rows.bands(xf_next)
                want.append([np.sign(upper), np.sign(rows.b_diag), np.sign(lower)])
            assert rep.coefficient_signs.tolist() == want
        for band in (0, 2):  # A and C
            assert {-1, 1} <= set(rep.coefficient_signs[:, band])

    @pytest.mark.parametrize("xf", [[1.0, 0.9, 0.0], [1.0, 0.0, 0.9], [1.0, math.nan, 0.9]])
    def test_path_with_no_rows_refused(self, base_params, xf):
        # a zero boundary has no drift; a nan one gives rows that are no numbers
        g = build_grid(base_params, M=40, mu=22.0, Y=4.0)
        with pytest.raises(ValidationError, match="^xf_path "):
            lemma1_check(base_params, g, np.array(xf))


class TestMonotonicityAudit:
    def test_compliant_run_is_clean(self, base_params):
        run = run_solver(base_params, 40, 22.0, 4.0)
        rep = monotonicity_audit(run.surface)
        assert rep.clean
        assert rep.max_xf_increase <= 1e-9
        assert rep.max_v_negative <= 1e-9

    def test_constant_rows_hold_with_equality(self):
        # non-increase in m holds with equality on a constant-in-m level
        v = np.zeros((2, 5))
        xf = np.array([1.0, 1.0])
        rep = monotonicity_audit(make_surface(v, xf))
        assert rep.clean
        assert rep.max_v_increase_in_m == 0.0

    def test_single_injected_negative_node_located(self, base_params):
        run = run_solver(base_params, 40, 22.0, 4.0)
        v = run.surface.v.copy()
        v[3, 5] = -1e-3  # fault injection
        rep = monotonicity_audit(make_surface(v, run.surface.xf))
        negatives = [viol for viol in rep.violations if viol.kind == "v_negative"]
        assert len(negatives) == 1
        assert (negatives[0].level, negatives[0].node) == (3, 5)
        # the dent also creates local slope violations next to it
        kinds = {viol.kind for viol in rep.violations}
        assert kinds <= {"v_negative", "v_increase_in_m"}

    def test_nonpositive_boundary_flagged(self):
        # a zero boundary is flagged at distance 0, a negative one at -xf
        xf = np.array([1.0, 0.0, -0.25])
        v = np.zeros((3, 3))
        v[:, 0] = 1.0 - xf
        rep = monotonicity_audit(make_surface(v, xf))
        assert rep.violations == (
            AuditViolation("xf_positivity", 1, 0, 0.0),
            AuditViolation("xf_positivity", 2, 0, 0.25),
        )
        assert rep.max_xf_positivity == 0.25
        assert (rep.max_xf_increase, rep.max_v_negative, rep.max_v_increase_in_m) == (0.0, 0.0, 0.0)

    def test_xf_increase_flagged(self):
        v = np.zeros((3, 4))
        xf = np.array([1.0, 0.8, 0.9])
        v[:, 0] = 1.0 - xf
        rep = monotonicity_audit(make_surface(v, xf))
        bumps = [viol for viol in rep.violations if viol.kind == "xf_increase"]
        assert len(bumps) == 1 and bumps[0].level == 2
        assert rep.max_xf_increase == pytest.approx(0.1)


def periodic_map(p, g, n):
    """The shipped rows' (v, S) -> (u, S') map on a periodic grid of n nodes,
    built from the frozen-boundary bands by dense solves."""
    w = cf_weights(p.alpha, g.dtau)
    rows = scheme._Rows(p, g, w.row_weight, 1.0)
    upper, lower, _ = rows.bands(1.0)
    eye = np.eye(n)
    # row m of ops x: upper*x[m+1] + B*x[m] + lower*x[m-1], indices taken mod n
    ops = rows.b_diag * eye + upper * np.roll(eye, 1, axis=1) + lower * np.roll(eye, -1, axis=1)
    # S + u - v = ops (u + v), so u = (I - ops)^-1 ((I + ops) v - S)
    step_v = np.linalg.solve(eye - ops, eye + ops)
    step_s = -np.linalg.solve(eye - ops, eye)
    # S' = rho (S + u - v)
    return np.block([
        [step_v, step_s],
        [w.decay * (step_v - eye), w.decay * (eye + step_s)],
    ])


class TestAmplification:
    def grid(self, p):
        return build_grid(p, M=100, mu=20.0, Y=4.0)

    @pytest.mark.parametrize("r", [0.0, 0.1])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 0.99, 1.0])
    def test_symbol_is_the_spectral_radius_of_the_rows(self, r, alpha):
        p = ModelParams(r, 0.2, 1.0, 1.0, alpha)
        g = self.grid(p)
        n = 40
        step = periodic_map(p, g, n)
        radius = float(np.abs(np.linalg.eigvals(step)).max())
        modes = [2.0 * math.pi * k / (n * g.dy) for k in range(n)]
        symbols = [amplification_factor(p, g, b) for b in modes]
        assert max(symbols) == pytest.approx(radius, abs=1e-12)
        # mode by mode: the map keeps span{(e, 0), (0, e)}, e = exp(i b y)
        for b, symbol in zip(modes, symbols):
            e = np.exp(1j * b * g.dy * np.arange(n))
            basis = np.zeros((2 * n, 2), dtype=complex)
            basis[:n, 0] = e
            basis[n:, 1] = e
            block = basis.conj().T @ step @ basis / n
            assert symbol == pytest.approx(np.abs(np.linalg.eigvals(block)).max(), abs=1e-12)

    def test_classical_symbol_is_crank_nicolson(self):
        p = ModelParams(0.1, 0.2, 1.0, 1.0, 1.0)
        g = self.grid(p)
        rows = scheme._Rows(p, g, g.dtau, 1.0)
        upper, lower, _ = rows.bands(1.0)
        for b in (0.3, 1.7, 25.0, math.pi / g.dy):
            ell = complex(
                rows.b_diag + (upper + lower) * math.cos(b * g.dy),
                (upper - lower) * math.sin(b * g.dy),
            )
            assert amplification_factor(p, g, b) == pytest.approx(
                abs((1 + ell) / (1 - ell)), rel=1e-14
            )

    def test_zero_spatial_frequency_with_zero_rate_gives_unity(self):
        p = ModelParams(r=0.0, sigma=0.2, E=1.0, T=1.0, alpha=0.6)
        g = self.grid(p)
        for b in (0.0, 2.0 * math.pi / g.dy):  # sin and 1 - cos of b*dy vanish
            # the real part of l is exactly 0: the mode is neutral, not growing
            assert analysis._mode_symbol(p, g, b)[0].real == 0.0
            assert amplification_factor(p, g, b) == 1.0
            assert root_condition(p, g, b)

    def test_modulus_below_one_with_positive_rate(self):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.6)
        assert amplification_factor(p, self.grid(p), 1.7) < 1.0

    def test_desk_scale_scan_is_stable(self, base_params):
        g = self.grid(base_params)
        worst = 0.0
        for alpha in (0.3, 0.6, 0.9, 1.0):
            p = ModelParams(0.1, 0.2, 1.0, 1.0, alpha)
            for k in range(1, 21):
                worst = max(worst, amplification_factor(p, g, k * math.pi / (20.0 * g.dy)))
                assert root_condition(p, g, k * math.pi / (20.0 * g.dy))
        assert worst < 1.0

    @pytest.mark.parametrize("ell, rho, stable", [
        (complex(-0.3, 0.2), 1.0, True),  # roots 1, simple, and 0.27
        (0.5, 1.0, False),  # a double root at 1
        (0.7, 1.0, False),  # roots 1 and 2.33
        (0.0, 0.0, True),  # roots 0 and 1
        (8.881784197001252e-16, 0.9531337870775047, False),  # 1 + 8.3e-17 and 8.5e-16
        (1.0, 0.5, False),  # 1 - l = 0 leaves the new level undetermined
    ])
    def test_root_condition_is_exact(self, monkeypatch, ell, rho, stable):
        # the fifth is the float sum B + (A + C) at r = 0, b = 0, alpha = 0.6
        # on the M = 100, mu = 20 grid, 8.9e-16 above the neutral 0 that
        # _mode_symbol forms instead; amplification_factor reads 1.0 for its
        # root just outside the circle
        monkeypatch.setattr(analysis, "_mode_symbol", lambda p, g, b: (complex(ell), rho))
        assert root_condition(None, None, 0.0) is stable

    @pytest.mark.parametrize("alpha", [0.999999, 0.9999549, 1.0])
    def test_orders_at_one_give_a_finite_factor(self, alpha):
        # the paper's prefactor overflows at 0.999999 and 0.9999549; the rows'
        # weights stay finite all the way to alpha = 1
        p = ModelParams(0.1, 0.2, 1.0, 1.0, alpha)
        g = self.grid(p)
        worst = max(amplification_factor(p, g, k * math.pi / (20.0 * g.dy)) for k in range(1, 21))
        assert math.isfinite(worst) and worst < 1.0
        assert worst == pytest.approx(0.98704, abs=1e-5)

    def test_rejects_bad_queries(self):
        p = ModelParams(0.1, 0.2, 1.0, 1.0, 0.6)
        g = self.grid(p)
        for b in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="b must be finite"):
                amplification_factor(p, g, b)
        for alpha in (0.0, 1.5, -0.3, math.nan):  # orders outside the model
            with pytest.raises(ValidationError, match="alpha"):
                amplification_factor(ModelParams(0.1, 0.2, 1.0, 1.0, alpha), g, 1.0)

    @given(
        b=st.floats(min_value=0.05, max_value=50.0),
        alpha=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_periodicity_in_wavenumber(self, b, alpha):
        p = ModelParams(0.1, 0.2, 1.0, 1.0, alpha)
        g = build_grid(p, M=50, mu=10.0, Y=4.0)
        lam1 = amplification_factor(p, g, b)
        lam2 = amplification_factor(p, g, b + 2.0 * math.pi / g.dy)
        assert lam1 == pytest.approx(lam2, rel=1e-9, abs=1e-12)


class TestObservedOrder:
    def test_requires_two_refinements(self, base_params):
        base = build_grid(base_params, M=16, mu=5.0, Y=4.0)
        with pytest.raises(ValidationError):
            observed_order(base_params, base, refinements=1)

    def test_desk_scale_rates_are_sane(self, base_params):
        # light smoke version; the acceptance suite runs the pinned families
        base = build_grid(base_params, M=40, mu=10.0, Y=4.0)
        est = observed_order(base_params, base, refinements=2)
        assert 0.5 <= est.temporal_rate <= 2.5
        assert 1.0 <= est.spatial_rate <= 3.0
        assert len(est.spatial_table) == 3
        assert len(est.temporal_table) == 3


    def test_base_grid_is_marched_once(self, base_params, monkeypatch):
        # both families start from (base.M, base.mu); the row is shared.
        # Every march runs scheme._advance, once per grid
        calls = []
        advance = scheme._advance

        def counting(p, g, *args):
            calls.append((g.M, g.mu))
            return advance(p, g, *args)

        monkeypatch.setattr(scheme, "_advance", counting)
        refinements = 3
        base = build_grid(base_params, M=16, mu=5.0, Y=4.0)
        est = observed_order(base_params, base, refinements=refinements)
        assert len(calls) == 2 * refinements + 1
        assert len(set(calls)) == len(calls)
        monkeypatch.undo()
        run = run_solver(base_params, 16, 5.0, 4.0)
        row = (run.grid.N, run.grid.dtau, price_at(run, base_params.E), float(run.surface.xf[-1]))
        assert est.spatial_table[0] == est.temporal_table[0] == row


    def test_holds_one_level_per_grid(self, base_params):
        # the surface of the M=400 grid alone is 6.4 MB; one level is 3.2 kB
        base = build_grid(base_params, M=100, mu=5.0, Y=4.0)
        tracemalloc.start()
        try:
            observed_order(base_params, base, refinements=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_studies_never_build_a_surface(base_params, monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("built a SolutionSurface")

    monkeypatch.setattr(SolutionSurface, "__post_init__", refuse)
    observed_order(base_params, build_grid(base_params, M=16, mu=5.0, Y=4.0))
    y_truncation_study(base_params, 16, 5.0, [2.0, 4.0])
    assert run_cli([
        "oracle-compare", "--M", "16", "--mu", "5", "--steps", "50", "--Ms", "21",
        "--Nt", "10", "--out", str(tmp_path),
    ]) == 0
    with pytest.raises(AssertionError, match="built a SolutionSurface"):
        run_solver(base_params, 16, 5.0, 4.0)


class TestTruncationStudy:
    def test_single_bound_single_row(self, base_params):
        rows = y_truncation_study(base_params, 40, 10.0, [4.0])
        assert len(rows) == 1
        assert rows[0].M == 40

    def test_default_bound_matches_solver_path(self, base_params):
        rows = y_truncation_study(base_params, 40, 10.0, [4.0])
        run = run_solver(base_params, 40, 10.0, 4.0)
        assert rows[0].xf_final == run.surface.xf[-1]

    def test_stabilization_with_growing_bound(self, base_params):
        rows = y_truncation_study(base_params, 120, 20.0, [1.0, 2.0, 4.0])
        by_y = {row.Y: row.xf_final for row in rows}
        assert abs(by_y[4.0] - by_y[2.0]) <= abs(by_y[2.0] - by_y[1.0]) + 1e-15

    def test_rows_keep_input_order(self, base_params):
        ordered = y_truncation_study(base_params, 60, 10.0, [1.0, 2.0, 4.0])
        shuffled = y_truncation_study(base_params, 60, 10.0, [2.0, 4.0, 1.0])
        assert [r.Y for r in shuffled] == [2.0, 4.0, 1.0]
        assert [r.xf_final for r in shuffled] == [ordered[i].xf_final for i in (1, 2, 0)]

    def test_boundary_below_the_perpetual_put_is_a_domain_error(self):
        # the march stays in (0, 1] but drops below x_perp at level 1 and ends
        # at xf = 3.5e-10, which the study once reported as a boundary
        p = ModelParams(0.1, 0.2, 1.0, 1.0, 0.9)
        with pytest.raises(DomainError, match="at level 1 is below the perpetual boundary"):
            y_truncation_study(p, 100, 10.0, [4.0])

    def test_rejects_bad_bounds(self, base_params):
        with pytest.raises(ValidationError):
            y_truncation_study(base_params, 40, 10.0, [])
        with pytest.raises(ValidationError):
            y_truncation_study(base_params, 40, 10.0, [1.0, -2.0])

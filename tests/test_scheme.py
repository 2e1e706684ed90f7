from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fronfix.scheme as scheme
from fronfix.cfkernel import CFWeights, cf_weights, history_push
from fronfix.errors import (
    DenominatorNearZeroError,
    DomainError,
    FronfixError,
    ValidationError,
)
from fronfix.model import ModelParams, SolutionSurface, build_grid
from fronfix.scheme import _Rows, price_at, run_solver
from reference import reference_run


def make_setup(p, M=10, mu=2.0, Y=1.0):
    g = build_grid(p, M, mu, Y)
    w = cf_weights(p.alpha, g.dtau)
    return g, w


class Level(NamedTuple):
    """A level of a march as the loop takes it: values, boundary, memory sums
    and the run's weights."""

    v: np.ndarray
    xf: float
    sums: np.ndarray
    w: CFWeights


def start(p, g):
    """The level every march starts from: zeros, the boundary at the strike
    and an empty memory."""
    return Level(np.zeros(g.M + 1), 1.0, np.zeros(g.M + 1), cf_weights(p.alpha, g.dtau))


def step(p, g, level):
    """The next level by the march's loop, with its inner iterations and
    closure residual."""
    u = np.empty(g.M + 1)
    path, iterations, residuals, _, sums = scheme._advance(p, g, *level, 1, [u])
    return Level(u, path[0], sums, level.w), iterations[0], residuals[0]


def step_rows(p, g, w, xf_next, xf_curr):
    """The stepper's rows (A, B, C), as the march takes them from _Rows."""
    rows = _Rows(p, g, w.row_weight, xf_curr)
    upper, lower, _ = rows.bands(xf_next)
    return upper, rows.b_diag, lower


def level_systems(monkeypatch, level, p, g):
    """The bands and right-hand side of every level solve in one step from
    level, and the next level. The truncated sweep declines every
    candidate, so each gets a full solve: the first at x = xf_curr, the last
    at the converged boundary."""
    seen = []
    solve = scheme.solve_constant_bands

    def capture(lower, diag, upper, rhs, out):
        seen.append(dict(lower=lower, diag=diag, upper=upper, rhs=rhs.copy()))
        return solve(lower, diag, upper, rhs, out)

    with monkeypatch.context() as m:
        m.setattr(scheme, "solve_constant_bands", capture)
        m.setattr(scheme, "_sweep", lambda *args: None)
        stepped = step(p, g, level)[0]
    return seen, stepped


class TestCoefficients:
    def test_sum_identity(self, fractional_params):
        # A + C collapses to the diffusion part: q_eff*sigma^2/(2*dy^2)
        p = fractional_params
        g, w = make_setup(p)
        rng = np.random.default_rng(3)
        expected = w.row_weight * p.sigma**2 / (2.0 * g.dy**2)
        for _ in range(50):
            xf_c = rng.uniform(0.2, 1.0)
            xf_n = xf_c + rng.uniform(-0.2, 0.2)
            upper, diag, lower = step_rows(p, g, w, xf_n, xf_c)
            assert upper + lower == pytest.approx(expected, rel=1e-14)
            assert diag < 0.0

    def test_stationary_boundary_difference(self, fractional_params):
        # with xf frozen the boundary-velocity part vanishes:
        # A - C = q_eff*(r - sigma^2/2)/(2*dy)
        p = fractional_params
        g, w = make_setup(p)
        upper, _, lower = step_rows(p, g, w, 0.77, 0.77)
        assert upper - lower == pytest.approx(
            w.row_weight * (p.r - p.sigma**2 / 2.0) / (2.0 * g.dy), rel=1e-13
        )

    def test_numeric_triple_against_symbolic_rederivation(self):
        # independent sympy evaluation of the row definitions, and of the
        # paper's q-scaled triple as the rows times rho
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.9)
        g, w = make_setup(p, M=100, mu=20.0, Y=4.0)
        xf_n, xf_c = 0.93, 0.97

        a, dt, dy, r, sig, xn, xc = sp.symbols(
            "alpha dtau dy r sigma x_next x_curr", positive=True
        )

        def triple(weight):
            return (
                weight * (sig**2 / (4 * dy**2) + (r - sig**2 / 2) / (4 * dy)
                          + (xn - xc) / (4 * dy * dt * xc)),
                -weight / 2 * (sig**2 / dy**2 + r),
                weight * (sig**2 / (4 * dy**2) - (r - sig**2 / 2) / (4 * dy)
                          - (xn - xc) / (4 * dy * dt * xc)),
            )

        Q_eff = dt * a / (1 - sp.exp(-a * dt / (1 - a)))
        Q = dt * a / (sp.exp(a * dt / (1 - a)) - 1)
        subs = {a: sp.Rational(9, 10), dt: sp.Rational(32, 1000),
                dy: sp.Rational(4, 100), r: sp.Rational(1, 10),
                sig: sp.Rational(2, 10), xn: sp.Rational(93, 100),
                xc: sp.Rational(97, 100)}
        rows = step_rows(p, g, w, xf_n, xf_c)
        for got, expr in zip(rows, triple(Q_eff)):
            assert got == pytest.approx(float(expr.subs(subs).evalf(30)), rel=1e-13)
        for got, expr in zip(rows, triple(Q)):
            assert got * w.decay == pytest.approx(float(expr.subs(subs).evalf(30)), rel=1e-13)

    def test_classical_mode_uses_plain_step_weight(self, base_params):
        g, w = make_setup(base_params)
        upper, _, _ = step_rows(base_params, g, w, 1.0, 1.0)
        expected = g.dtau * (base_params.sigma**2 / (4 * g.dy**2)
                             + (base_params.r - base_params.sigma**2 / 2) / (4 * g.dy))
        assert upper == pytest.approx(expected, rel=1e-14)

    def test_zero_boundary_rejected(self, base_params):
        g, _ = make_setup(base_params)
        level = start(base_params, g)
        level.v[0] = 1.0  # v[0] = 1 - xf holds, so only the zero is refused
        with pytest.raises(ValidationError, match="xf_curr must be nonzero"):
            step(base_params, g, level._replace(xf=0.0))

    def test_row_triple_stays_finite_as_alpha_nears_one(self, base_params):
        # q and 1/rho overflow here; the row weight tends to dtau*alpha
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.999999)
        g, w = make_setup(p, M=50, mu=10.0, Y=4.0)
        rows = step_rows(p, g, w, 0.9, 1.0)
        classical = step_rows(base_params, g, cf_weights(1.0, g.dtau), 0.9, 1.0)
        assert rows == pytest.approx(classical, rel=2e-6)


class TestAssemble:
    def test_first_step_rhs_structure(self, fractional_params, monkeypatch):
        # all-zero initial level: only the m=1 row carries the boundary term
        p = fractional_params
        g, w = make_setup(p, M=6)
        systems, stepped = level_systems(monkeypatch, start(p, g), p, g)
        assert np.all(systems[0]["rhs"] == 0.0)  # the candidate x = xf_curr = 1

        xf_next = stepped.xf
        assert xf_next < 1.0
        _, _, lower = step_rows(p, g, w, xf_next, 1.0)
        sys = systems[-1]
        assert sys["rhs"][0] == pytest.approx(-lower * (1.0 - xf_next), rel=1e-14)
        assert np.all(sys["rhs"][1:] == 0.0)

    def test_minimal_grid_rows_by_hand(self, fractional_params, monkeypatch):
        # M = 4: three interior rows expanded literally from the scheme row
        p = fractional_params
        g, w = make_setup(p, M=4, mu=1.0, Y=1.0)
        level = step(p, g, start(p, g))[0]  # builds a genuine history
        v = level.v
        xf_c = level.xf
        systems, stepped = level_systems(monkeypatch, level, p, g)
        # the first candidate (no drift) and the level at the converged boundary
        for sys, xf_n in ((systems[0], xf_c), (systems[-1], stepped.xf)):
            a_h, b_h, c_h = step_rows(p, g, w, xf_n, xf_c)
            for m in (1, 2, 3):
                expected = level.sums[m] - v[m] - (
                    a_h * v[m + 1] + b_h * v[m] + c_h * v[m - 1]
                )
                if m == 1:
                    expected -= c_h * (1.0 - xf_n)
                assert sys["rhs"][m - 1] == pytest.approx(expected, rel=1e-13, abs=1e-15)
            assert sys["rhs"].size == 3
            assert sys["diag"] == pytest.approx(b_h - 1.0, rel=1e-14)
            assert sys["upper"] == pytest.approx(a_h, rel=1e-14)
            assert sys["lower"] == pytest.approx(c_h, rel=1e-14)


class TestBoundaryClosure:
    def test_closure_line_values(self, base_params):
        # v1 = 1 - (1+dy)x + (dy^2/sigma^2)(r - sigma^2 x/2)
        p = base_params
        g, _ = make_setup(p, M=100, mu=20.0, Y=4.0)
        rows = _Rows(p, g, g.dtau, 1.0)
        for x in (1.0, 0.95, 0.8):
            expected = 1.0 - (1.0 + g.dy) * x + (g.dy**2 / p.sigma**2) * (
                p.r - p.sigma**2 * x / 2.0
            )
            assert rows.g0 + rows.g1 * x == pytest.approx(expected, rel=1e-14)

    def test_closure_consistent_with_perpetual_profile(self):
        # for the infinite-horizon put the boundary relation is exact:
        # v(y) = e^(-gamma*y)/(gamma+1), X_f = gamma/(gamma+1), gamma = 2r/sigma^2
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0)
        g, _ = make_setup(p, M=400, mu=20.0, Y=4.0)
        rows = _Rows(p, g, g.dtau, 1.0)
        gamma = 2.0 * p.r / p.sigma**2
        xf_inf = gamma / (gamma + 1.0)
        v1_true = math.exp(-gamma * g.dy) / (gamma + 1.0) * (1.0 + 0.0)
        v1_closure = rows.g0 + rows.g1 * xf_inf
        # second-order agreement in dy
        assert v1_closure == pytest.approx(v1_true, abs=5.0 * g.dy**3 + 1e-6)


def omega_parts(level, p, g, u0, u2):
    """Omega1 and Omega2 of the boundary update for a candidate level with
    u[0] = u0 and u[2] = u2, from the row and closure definitions."""
    qe, xf, v = level.w.row_weight, level.xf, level.v
    theta = qe * p.sigma**2 / (4 * g.dy**2)
    beta = qe * (p.r - p.sigma**2 / 2) / (4 * g.dy)
    omega = qe / (4 * g.dy * g.dtau * xf)
    b_v = -(qe / 2) * (p.sigma**2 / g.dy**2 + p.r)
    g1_v = -(1.0 + g.dy) - g.dy**2 / 2
    g0_v = 1.0 + (g.dy**2 / p.sigma**2) * p.r
    diff = (u2 + v[2]) - (u0 + v[0])
    total = (u2 + v[2]) + (u0 + v[0])
    om2 = omega * diff + (b_v - 1.0) * g1_v
    om1 = (level.sums[1] - theta * total - beta * diff + omega * xf * diff
           - (b_v - 1.0) * g0_v - (b_v + 1.0) * v[1])
    return om1, om2


def first_proposal(level, p, g, u2=None):
    """The stepper's first boundary proposal Omega1/Omega2 from level: its
    candidate x = xf_curr, with u[2] taken from the sweep or given as u2."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scheme, "_TOL_XF", math.inf)
        if u2 is not None:
            m.setattr(scheme, "_sweep", lambda *args: u2)
        return step(p, g, level)[0].xf


def boundary_update(level, u, p, g):
    """The stepper's boundary update Omega1/Omega2 for a candidate level u,
    which holds u[0] = 1 - xf_curr as every first candidate does."""
    assert u[0] == 1.0 - level.xf
    return first_proposal(level, p, g, float(u[2]))


class TestFreeBoundaryUpdate:
    def test_equal_parts_return_one(self, base_params):
        # doctor the node-1 history so the numerator equals the denominator
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.5, alpha=0.6)
        g, _ = make_setup(p, M=16, mu=1.0, Y=4.0)
        level = step(p, g, start(p, g))[0]
        u = level.v.copy()  # any plausible iterate

        om1, om2 = omega_parts(level, p, g, u[0], u[2])
        # shift the stored history sum at node 1 to force om1 == om2
        sums = level.sums.copy()
        sums[1] += om2 - om1
        assert boundary_update(level._replace(sums=sums), u, p, g) == pytest.approx(1.0, rel=1e-12)

    def test_symbolic_elimination_oracle(self, monkeypatch):
        # solve the m=1 row plus the boundary closure for xf symbolically and
        # compare against the boundary the step converges to
        a_s, b_s, th, be, om, xf_c, g0, g1 = sp.symbols(
            "A B theta beta omega xf_curr g0 g1"
        )
        u2, v0, v1, v2, hist1, x = sp.symbols("u2 v0 v1 v2 S1 x")
        u0 = 1 - x  # value matching at the new level
        u1 = g0 + g1 * x  # boundary closure
        A = th + be + om * (x - xf_c)
        C = th - be - om * (x - xf_c)
        row = A * u2 + (b_s - 1) * u1 + C * u0 - (
            hist1 - v1 - (A * v2 + b_s * v1 + C * v0)
        )
        # the implementation freezes u2, u0 groups at the iterate, so compare
        # at the fixed point where iterate == solution: substitute and solve
        sol = sp.solve(sp.expand(row), x)
        assert len(sol) >= 1

        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.5, alpha=0.7)
        g, w = make_setup(p, M=10, mu=3.0, Y=2.0)
        level = step(p, g, start(p, g))[0]

        qe = g.dtau * p.alpha / (1.0 - w.decay)
        theta_v = qe * p.sigma**2 / (4 * g.dy**2)
        beta_v = qe * (p.r - p.sigma**2 / 2) / (4 * g.dy)
        omega_v = qe / (4 * g.dy * g.dtau * level.xf)
        b_v = -(qe / 2) * (p.sigma**2 / g.dy**2 + p.r)
        g1_v = -(1.0 + g.dy) - g.dy**2 / 2
        g0_v = 1.0 + (g.dy**2 / p.sigma**2) * p.r

        # the stepper's fixed point and its level
        monkeypatch.setattr(scheme, "_TOL_XF", 1e-14)
        stepped = step(p, g, level)[0]
        xf_star, u = stepped.xf, stepped.v
        subs = {
            th: theta_v, be: beta_v, om: omega_v, b_s: b_v, xf_c: level.xf,
            g0: g0_v, g1: g1_v, u2: u[2], v0: level.v[0], v1: level.v[1],
            v2: level.v[2], hist1: level.sums[1],
        }
        roots = [complex(s.subs(subs).evalf()) for s in sol]
        best = min(roots, key=lambda z: abs(z - xf_star))
        assert abs(best.imag) < 1e-12
        assert best.real == pytest.approx(xf_star, rel=1e-10)

    def test_initial_state_update_has_closed_form(self, base_params):
        # with zero history and a level that is zero past node 0 the update
        # reduces to a hand-evaluable expression in the candidate level values;
        # the march's candidates hold u[0] = 1 - x, so the starting level's
        # boundary moves to the candidate x = 0.93
        p = base_params
        g, _ = make_setup(p, M=8, mu=2.0, Y=1.0)
        x_it = 0.93
        v = np.zeros(g.M + 1)
        v[0] = 1.0 - x_it
        level = start(p, g)._replace(v=v, xf=x_it)
        rng = np.random.default_rng(17)
        u = np.zeros(g.M + 1)
        u[0] = 1.0 - x_it
        u[1:-1] = rng.uniform(0.0, 0.1, g.M - 1)

        qe = g.dtau
        theta = qe * p.sigma**2 / (4 * g.dy**2)
        beta = qe * (p.r - p.sigma**2 / 2) / (4 * g.dy)
        omega = qe / (4 * g.dy * g.dtau * x_it)
        b_v = -(qe / 2) * (p.sigma**2 / g.dy**2 + p.r)
        g1_v = -(1.0 + g.dy) - g.dy**2 / 2
        g0_v = 1.0 + (g.dy**2 / p.sigma**2) * p.r
        diff = u[2] - (u[0] + v[0])
        total = u[2] + (u[0] + v[0])
        om2 = omega * diff + (b_v - 1.0) * g1_v
        om1 = -theta * total - beta * diff + omega * x_it * diff - (b_v - 1.0) * g0_v
        expected = om1 / om2

        got = boundary_update(level, u, p, g)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_denominator_floor_raises(self, base_params, monkeypatch):
        p = base_params
        g, _ = make_setup(p, M=8, mu=2.0, Y=1.0)
        level = start(p, g)
        # hand the stepper a candidate u[2] whose node spread cancels the
        # closure slope term (u[0] = 1 - xf = 0 and v = 0 at the first step)
        qe = g.dtau
        b_v = -(qe / 2) * (p.sigma**2 / g.dy**2 + p.r)
        g1_v = -(1.0 + g.dy) - g.dy**2 / 2
        omega_v = qe / (4 * g.dy * g.dtau * level.xf)
        target_diff = -(b_v - 1.0) * g1_v / omega_v
        monkeypatch.setattr(scheme, "_sweep", lambda *args: target_diff)
        with pytest.raises(DenominatorNearZeroError) as err:
            step(p, g, level)
        assert err.value.step == 0
        # the floor the error reports is the one the denominator was compared
        # against: doubling _DENOM_FLOOR doubles it, exactly
        monkeypatch.setattr(scheme, "_DENOM_FLOOR", 2 * scheme._DENOM_FLOOR)
        with pytest.raises(DenominatorNearZeroError) as doubled:
            step(p, g, level)
        assert doubled.value.floor == 2 * err.value.floor > 0
        for e in (err.value, doubled.value):
            assert f"below floor {e.floor:.3e} at step 0" in str(e)


class TestTimeStep:
    def test_first_step_completes_below_one(self, base_params, fractional_params):
        for p in (base_params, fractional_params):
            g, _ = make_setup(p, M=50, mu=20.0, Y=4.0)
            level = step(p, g, start(p, g))[0]
            assert 0.0 < level.xf <= 1.0
            assert level.v[0] == 1.0 - level.xf
            assert level.v[-1] == 0.0

    def test_closure_residual_vanishes_at_fixed_point(self, base_params):
        g, _ = make_setup(base_params, M=50, mu=20.0, Y=4.0)
        _, _, residual = step(base_params, g, start(base_params, g))
        assert residual < 1e-8

    def test_frozen_boundary_converges_first_iteration(self):
        # doctor the node-1 history so the first proposal equals the current
        # boundary exactly: the inner loop must exit after one evaluation
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.5, alpha=0.6)
        g, _ = make_setup(p, M=16, mu=1.0, Y=4.0)
        level = step(p, g, start(p, g))[0]

        def with_shift(shift: float):
            sums = level.sums.copy()
            sums[1] += shift
            return level._replace(sums=sums)

        # the history shift feeds the interior solve too, so settle it
        # self-consistently, by secant steps on the first proposal's miss,
        # before handing the level to the stepper
        def miss(shift):
            return first_proposal(with_shift(shift), p, g) - level.xf

        shift, prev, m_prev = 0.0, 1e-3, miss(1e-3)
        for _ in range(60):
            m = miss(shift)
            if abs(m) < 1e-13:
                break
            shift, prev, m_prev = shift - m * (shift - prev) / (m - m_prev), shift, m
        frozen = with_shift(shift)
        stepped, iterations, _ = step(p, g, frozen)
        assert iterations == 1
        assert stepped.xf == pytest.approx(level.xf, abs=1e-10)

    def test_non_convergence_carries_iterates(self, base_params, monkeypatch):
        from fronfix.errors import NonConvergenceError

        g, _ = make_setup(base_params, M=50, mu=20.0, Y=4.0)
        monkeypatch.setattr(scheme, "_TOL_XF", 1e-16)
        monkeypatch.setattr(scheme, "_MAX_ITER", 3)
        with pytest.raises(NonConvergenceError) as err:
            step(base_params, g, start(base_params, g))
        assert err.value.step == 0
        assert len(err.value.last_iterates) == 2

    def test_fractional_step_leaves_its_input_unchanged(self, fractional_params):
        p = fractional_params
        g, _ = make_setup(p, M=50, mu=20.0, Y=4.0)
        level = step(p, g, step(p, g, start(p, g))[0])[0]
        assert np.any(level.sums != 0.0)
        v, sums = level.v.tobytes(), level.sums.tobytes()
        nxt = step(p, g, level)[0]
        assert level.v.tobytes() == v and level.sums.tobytes() == sums
        assert nxt.sums.tobytes() != sums


def synthetic_level(p, g, w, xf, seed):
    """A plausible level: a decaying profile with noise, and for fractional
    orders a random memory sum."""
    rng = np.random.default_rng(seed)
    y = np.linspace(0.0, g.Y, g.M + 1)
    v = (1.0 - xf) * np.exp(-5.0 * y) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, y.size))
    v[0] = 1.0 - xf
    v[-1] = 0.0
    sums = np.zeros(y.size) if p.classical else rng.normal(0.0, 1e-3, y.size)
    return Level(v, xf, sums, w)


class TestTruncatedSweep:
    @settings(max_examples=80, deadline=None)
    @given(
        M=st.integers(5, 1600),
        mu=st.floats(5.0, 40.0),
        alpha=st.sampled_from([1.0, 0.9, 0.999999]),
        xf=st.floats(0.5, 1.0),
        delta=st.floats(-0.3, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(M=800, mu=20.0, alpha=1.0, xf=0.9, delta=0.3, seed=0)  # dominance lost
    @example(M=800, mu=20.0, alpha=0.9, xf=0.9, delta=-1e-4, seed=0)  # truncated
    def test_node2_matches_full_solve(self, M, mu, alpha, xf, delta, seed):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=alpha)
        g, w = make_setup(p, M=M, mu=mu, Y=4.0)
        level = synthetic_level(p, g, w, xf, seed)
        x = xf + delta
        # the step's parts and candidate x's rows, as the module docstring defines them
        v, sums = level.v, level.sums
        rows = _Rows(p, g, w.row_weight, xf)
        a, c, drift = rows.bands(x)
        d, k, c0 = rows.b_diag - 1.0, rows.beta + drift, c * (1.0 - x)
        hv, bv = sums[1:-1] - v[1:-1], rows.b_diag * v[1:-1]
        f0, dv = hv - (bv + rows.theta * (v[2:] + v[:-2])), v[2:] - v[:-2]
        u = np.empty(g.M + 1)
        scheme._level(u, 1.0 - x, a, c, c0, d, hv, bv, v[2:], v[:-2])
        full = u[2]
        parts = (a, c, k, d, c0, f0, dv, np.abs(f0).max(), np.abs(dv).max())
        truncated = scheme._sweep(*parts, [], [])
        if abs(d) - abs(a) - abs(c) <= 0.0:
            assert truncated is None
        if truncated is None:
            # a candidate the sweep declines gets the full solve: one for each
            # declined candidate of a step, and one for the level
            assert self.declined_and_solved(level, p, g)
        else:
            assert abs(truncated - full) <= 1e-14 * max(1.0, abs(full))
            # lists already holding some leading rows are extended, not re-read
            assert scheme._sweep(*parts, f0[:2].tolist(), dv[:2].tolist()) == truncated

    @staticmethod
    def declined_and_solved(level, p, g):
        declined, solves = [], []
        sweep, solve = scheme._sweep, scheme.solve_constant_bands

        def recording(*args):
            u2 = sweep(*args)
            declined.append(u2 is None)
            return u2

        def counting(lower, diag, upper, rhs, out):
            solves.append(rhs.size)
            return solve(lower, diag, upper, rhs, out)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(scheme, "_sweep", recording)
            m.setattr(scheme, "solve_constant_bands", counting)
            try:
                step(p, g, level)
                completed = 1
            except FronfixError:
                completed = 0
        return len(solves) == sum(declined) + completed

    def test_one_full_solve_per_step(self, base_params, monkeypatch):
        calls = []
        solve = scheme.solve_constant_bands

        def counting(lower, diag, upper, rhs, out):
            calls.append(rhs.size)
            return solve(lower, diag, upper, rhs, out)

        monkeypatch.setattr(scheme, "solve_constant_bands", counting)
        run = run_solver(base_params, 200, 20.0, 4.0)
        assert len(calls) == run.grid.N


class TestRunSolver:
    @pytest.mark.parametrize("alpha", [1.0, 0.9])
    def test_only_fractional_steps_push_the_history(self, alpha, monkeypatch):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=alpha)
        g, _ = make_setup(p, M=40, mu=20.0, Y=4.0)
        # the levels of a march that pushes on every step, classical ones too
        level = start(p, g)
        levels = [level.v]
        for _ in range(g.N):
            nxt = step(p, g, level)[0]
            level = nxt._replace(sums=history_push(level.sums, nxt.v, level.v, level.w))
            levels.append(level.v)
        pushes = []
        push = scheme.history_push

        def counting(sums, v_new, v_prev, w):
            pushes.append(w.decay)
            return push(sums, v_new, v_prev, w)

        monkeypatch.setattr(scheme, "history_push", counting)
        run = run_solver(p, 40, 20.0, 4.0)
        assert len(pushes) == (0 if alpha == 1.0 else g.N)
        assert np.array_equal(run.surface.v, np.array(levels))

    def test_fractional_lattice_bits_are_pinned(self):
        # the 96 runs of study-sweep's fractional lattice: surfaces, boundaries,
        # inner iterations and closure residuals of the runs that complete,
        # error class and message of those that fail, hashed, and how many
        # end each way. Fractional weights take exp and expm1 of finite
        # arguments, so the digest assumes a libm that rounds them as glibc
        # does on x86-64 (as TestOutputBytes does for the CLI's files).
        h = hashlib.sha256()
        outcomes = Counter()
        for alpha in (0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999, 0.999999):
            for M in (50, 100, 150, 200):
                for mu in (10, 20, 40):
                    try:
                        run = run_solver(ModelParams(0.1, 0.2, 1.0, 1.0, alpha), M, mu, 4.0)
                    except FronfixError as exc:
                        h.update(f"{type(exc).__name__}: {exc}".encode())
                        outcomes[type(exc).__name__] += 1
                        continue
                    s = run.surface
                    h.update(s.v.tobytes())
                    h.update(s.xf.tobytes())
                    h.update(np.array(run.iterations, dtype=np.int64).tobytes())
                    h.update(np.array(run.closure_residuals).tobytes())
                    healthy = np.isfinite(s.v).all() and ((s.xf > 0) & (s.xf <= 1)).all()
                    outcomes["healthy" if healthy else "unhealthy"] += 1
        assert outcomes == {"healthy": 49, "unhealthy": 23, "NonConvergenceError": 24}
        assert h.hexdigest() == (
            "c65eabdcf5479b0ee584dae658875d7d5fa621bdb27075de808fb9a06849b8ef"
        )

    def test_classical_march_bits_are_pinned(self):
        # surfaces, boundaries, inner iterations and closure residuals of 12
        # classical runs, hashed; a change to the march's arithmetic shows up
        # here. Classical runs take exp or expm1 of no finite argument, so
        # the bits do not depend on the platform's libm.
        h = hashlib.sha256()
        for r, sigma in ((0.1, 0.2), (0.05, 0.3)):
            for M in (100, 200, 400):
                for mu in (5, 20):
                    run = run_solver(ModelParams(r, sigma, 1.0, 1.0), M, mu, 4.0)
                    h.update(run.surface.v.tobytes())
                    h.update(run.surface.xf.tobytes())
                    h.update(np.array(run.iterations, dtype=np.int64).tobytes())
                    h.update(np.array(run.closure_residuals).tobytes())
        assert h.hexdigest() == (
            "f45318ee340c1e287b16f0ff3e8f02d0e36543c1713ea3e1254dcb951a72ecfc"
        )

    def test_production_equals_reference_smallest(self):
        # brute-force equivalence on a desk-size grid, all three orders
        for alpha in (0.3, 0.6, 0.9):
            p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.5, alpha=alpha)
            run = run_solver(p, 4, 2.0, 1.0)
            xf_ref, v_ref = reference_run(p, 4, 2.0, 1.0)
            assert run.surface.xf == pytest.approx(xf_ref, abs=1e-10)
            assert np.max(np.abs(run.surface.v - v_ref)) < 1e-10

    def test_classical_matches_reference_at_baseline_parameters(self, base_params):
        run = run_solver(base_params, 20, 10.0, 4.0)
        xf_ref, v_ref = reference_run(base_params, 20, 10.0, 4.0)
        assert np.max(np.abs(run.surface.v - v_ref)) < 1e-10
        assert run.surface.xf == pytest.approx(xf_ref, abs=1e-10)

    def test_fractional_three_steps_match_reference(self, fractional_params):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.4, alpha=0.9)
        run = run_solver(p, 12, 3.0, 2.0)
        xf_ref, v_ref = reference_run(p, 12, 3.0, 2.0)
        assert run.grid.N >= 3
        assert np.max(np.abs(run.surface.v - v_ref)) < 1e-10

    def test_lemma1_compliant_run_is_monotone(self, base_params):
        run = run_solver(base_params, 40, 22.0, 4.0)
        xs = run.surface.xf
        assert np.all(np.diff(xs) <= 1e-12)
        assert np.all(xs > 0)
        assert np.all(np.diff(run.surface.v, axis=1) <= 1e-9)
        assert run.surface.v.min() >= 0.0

    def test_surface_bounds_on_compliant_classical_runs(self):
        for p, m_nodes, mu in (
            (ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0), 40, 22.0),
            (ModelParams(r=0.02, sigma=0.2, E=1.0, T=1.0), 100, 20.0),
        ):
            run = run_solver(p, m_nodes, mu, 4.0)
            assert run.surface.v.min() >= -1e-9
            assert run.surface.v.max() <= 1.0 + 1e-9
            assert 0.0 < run.surface.xf.min() and run.surface.xf.max() <= 1.0

    def test_classical_mode_close_to_near_one_alpha(self, base_params):
        run1 = run_solver(base_params, 50, 20.0, 4.0)
        p999 = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.999)
        run2 = run_solver(p999, 50, 20.0, 4.0)
        assert np.max(np.abs(run1.surface.v - run2.surface.v)) <= 0.05
        assert np.max(np.abs(run1.surface.xf - run2.surface.xf)) <= 0.05

    def test_conservation_of_boundary_closure(self, fractional_params):
        run = run_solver(fractional_params, 30, 10.0, 2.0)
        s = run.surface
        assert np.all(s.v[:, 0] == 1.0 - s.xf)
        assert np.all(s.v[:, -1] == 0.0)

    def test_alpha_near_one_raises_only_typed_errors(self):
        # expm1 overflows and rho underflows to zero at this alpha and step
        p = ModelParams(0.1, 0.2, 1, 1, alpha=0.999999)
        try:
            run = run_solver(p, 50, 10.0, 4.0)
        except FronfixError:
            return
        assert np.all(np.isfinite(run.surface.v))

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.3, 0.99),
        M=st.integers(20, 150),
        mu=st.floats(5.0, 40.0),
    )
    @example(alpha=0.9, M=100, mu=20.0)  # a whole march, with |S| up to 1.1
    @example(alpha=0.5803039836167343, M=79, mu=5.0)  # |A|, |C| near 1100 at step 10
    def test_memory_is_rho_times_the_last_band_operator(self, alpha, M, mu):
        # the level's rows read S + u - v = A w[m+1] + B w[m] + C w[m-1] with
        # w = u + v, so the push S' = rho*(S + u - v) is rho times the bands on
        # w, up to the rounding of the level solve, which scales with the terms
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=alpha)
        g = build_grid(p, M, mu, 4.0)
        level = start(p, g)
        for _ in range(g.N):
            try:
                nxt = step(p, g, level)[0]
            except FronfixError:
                return  # a typed failure ends the march; every step before it was checked
            rows = _Rows(p, g, level.w.row_weight, level.xf)
            a, c, _ = rows.bands(nxt.xf)
            w = nxt.v + level.v
            rho, b = level.w.decay, rows.b_diag
            lam = a * w[2:] + b * w[1:-1] + c * w[:-2]
            terms = rho * (abs(a) * abs(w[2:]) + abs(b) * abs(w[1:-1]) + abs(c) * abs(w[:-2]))
            gap = np.abs(nxt.sums[1:-1] - rho * lam).max()
            assert gap <= 1e-11 * max(1.0, np.abs(nxt.sums).max(), terms.max())
            level = nxt

    def test_surface_levels_are_the_marched_states(self, fractional_params):
        p = fractional_params
        run = run_solver(p, 20, 10.0, 2.0)
        g = run.grid
        level = start(p, g)
        for n in range(1, 4):
            level = step(p, g, level)[0]
            assert np.array_equal(run.surface.v[n], level.v)
        assert run.surface.v.shape == (g.N + 1, g.M + 1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            run_solver(ModelParams(r=0.1, sigma=-1.0, E=1.0, T=1.0), 10, 2.0, 1.0)


class TestMarch:
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.sampled_from([1.0, 0.99, 0.9]),
        M=st.integers(4, 30),
        mu=st.floats(0.5, 20.0),
        Y=st.sampled_from([1.0, 2.0, 4.0]),
        T=st.floats(0.05, 1.0),
    )
    # levels of more than 101 interior rows reach the solve's vectorized tail
    @example(alpha=1.0, M=150, mu=20.0, Y=4.0, T=1.0)
    @example(alpha=0.99, M=150, mu=20.0, Y=4.0, T=1.0)
    @example(alpha=1.0, M=400, mu=20.0, Y=4.0, T=1.0)
    @example(alpha=0.99, M=400, mu=20.0, Y=4.0, T=1.0)
    def test_final_level_is_run_solvers_bit_for_bit(self, alpha, M, mu, Y, T):
        # the two entries to the march give the same grid, boundary path and
        # last level, bit for bit, or fail with the same error
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=T, alpha=alpha)
        try:
            run = run_solver(p, M, mu, Y)
        except FronfixError as exc:
            with pytest.raises(type(exc)) as err:
                scheme.final_level(p, M, mu, Y)
            assert str(err.value) == str(exc)
            return
        grid, xf, v_last = scheme.final_level(p, M, mu, Y)
        assert grid == run.grid
        assert xf.tobytes() == run.surface.xf.tobytes()
        assert v_last.tobytes() == run.surface.v[-1].tobytes()

    def test_final_level_is_the_surfaces_last_row(self, fractional_params):
        run = run_solver(fractional_params, 30, 20.0, 4.0)
        g, xf, v_last = scheme.final_level(fractional_params, 30, 20.0, 4.0)
        assert g == run.grid
        assert xf.tobytes() == run.surface.xf.tobytes()
        assert v_last.tobytes() == run.surface.v[-1].tobytes()


class TestAgainstTree:
    def test_price_curve_matches_binomial_at_baseline(self, base_params):
        from fronfix.oracles import binomial_american_put

        run = run_solver(base_params, 200, 20.0, 4.0)
        for spot in (0.85, 0.9, 1.0, 1.1, 1.3):
            tree = binomial_american_put(base_params, spot, 2000).price
            assert price_at(run, spot) == pytest.approx(tree, abs=1.5e-3)

    def test_second_parameter_set(self):
        from fronfix.oracles import binomial_american_put

        p = ModelParams(r=0.06, sigma=0.3, E=1.0, T=0.5, alpha=1.0)
        run = run_solver(p, 200, 10.0, 4.0)
        for spot in (0.9, 1.0, 1.2):
            tree = binomial_american_put(p, spot, 2000).price
            assert price_at(run, spot) == pytest.approx(tree, abs=2e-3)
        assert np.all(np.diff(run.surface.xf) <= 1e-10)


class TestPricing:
    @settings(max_examples=25, deadline=None)
    @given(E=st.floats(0.5, 200.0))
    @example(E=10.0)
    def test_price_over_strike_ignores_the_strike_at_the_default_bound(self, E):
        # y = ln(X/X*) has no units, so the default truncation must not grow with E
        unit = run_solver(ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0), 100, 20.0)
        run = run_solver(ModelParams(r=0.1, sigma=0.2, E=E, T=1.0), 100, 20.0)
        assert price_at(run, E) / E == pytest.approx(price_at(unit, 1.0), rel=1e-12)

    def test_intrinsic_below_boundary(self, base_params):
        run = run_solver(base_params, 50, 20.0, 4.0)
        xf_T = run.surface.xf[-1]
        S = 0.5 * base_params.E * xf_T
        assert price_at(run, S) == base_params.E - S

    def test_price_continuous_across_boundary(self, base_params):
        run = run_solver(base_params, 200, 20.0, 4.0)
        S_star = base_params.E * run.surface.xf[-1]
        below = price_at(run, S_star * (1 - 1e-9))
        above = price_at(run, S_star * (1 + 1e-9))
        assert below == pytest.approx(above, abs=1e-5)

    def test_spot_beyond_the_truncation_bound_is_a_domain_error(self, base_params):
        # the grid holds only the far-field 0 there, which once priced the spot
        run = run_solver(base_params, 20, 10.0, 1.0)
        deep = base_params.E * run.surface.xf[-1] * math.exp(run.grid.Y) * 1.01
        with pytest.raises(DomainError, match=r"at or beyond the truncation bound Y = 1;"):
            price_at(run, deep)
        assert price_at(run, deep / 1.02) >= 0.0  # just inside the bound still prices

    def test_nonpositive_final_boundary_is_a_domain_error(self, base_params):
        # a march that ends at xf <= 0 is a numerical failure, not bad input
        run = run_solver(base_params, 20, 10.0, 1.0)
        v, xf = run.surface.v.copy(), run.surface.xf.copy()
        xf[-1] = -1.5e-10
        v[-1, 0] = 1.0 - xf[-1]
        bad = dataclasses.replace(run, surface=SolutionSurface(v, xf))
        with pytest.raises(DomainError, match=f"level {run.grid.N}") as err:
            price_at(bad, base_params.E)
        assert not isinstance(err.value, ValidationError)

    def test_final_boundary_above_strike_is_a_domain_error(self, base_params):
        # xf > 1 puts the exercise boundary above the strike: no American put
        run = run_solver(base_params, 20, 10.0, 1.0)
        v, xf = run.surface.v.copy(), run.surface.xf.copy()
        xf[-1] = 1.683
        v[-1, 0] = 1.0 - xf[-1]
        bad = dataclasses.replace(run, surface=SolutionSurface(v, xf))
        with pytest.raises(DomainError, match=f"xf = 1.683 at level {run.grid.N}") as err:
            price_at(bad, base_params.E)
        assert not isinstance(err.value, ValidationError)

    def test_boundary_below_the_perpetual_put_is_a_domain_error(self):
        # every level lies in (0, 1]; the march ends at xf = 3.5e-10
        run = run_solver(ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=0.9), 100, 10.0)
        assert ((run.surface.xf > 0) & (run.surface.xf <= 1)).all()
        with pytest.raises(DomainError, match="at level 1 is below the perpetual boundary"):
            price_at(run, 1.0)

    @pytest.mark.parametrize("sigma", [0.15, 0.2, 0.3])
    def test_long_classical_horizon_stays_above_the_perpetual_put(self, sigma):
        # at T = 20 the boundary ends within 2.6e-3 of x_perp = 2r/(2r + sigma^2),
        # and still prices
        p = ModelParams(r=0.1, sigma=sigma, E=1.0, T=20.0)
        run = run_solver(p, 100, 5.0)
        assert 0.0 < run.surface.xf.min() - 2 * p.r / (2 * p.r + sigma**2) < 2.6e-3
        assert price_at(run, 1.0) > 0.0

    def test_rejects_nonpositive_spot(self, base_params):
        run = run_solver(base_params, 20, 10.0, 1.0)
        for S in (0.0, -1.0, math.nan):  # nan once raised a bare ValueError
            with pytest.raises(ValidationError, match="S must be positive"):
                price_at(run, S)

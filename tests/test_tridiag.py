from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fronfix.scheme as scheme
import fronfix.tridiag as tridiag
from fronfix.cfkernel import cf_weights
from fronfix.errors import FronfixError
from fronfix.model import ModelParams, build_grid
from fronfix.tridiag import _MIN_TAIL, solve_constant_bands

EPS = np.finfo(float).eps


def scalar_sweep(lower: float, diag: float, upper: float, rhs: np.ndarray) -> np.ndarray:
    """The plain Thomas sweep over every row, as a reference."""
    f = rhs.tolist()
    n = len(f)
    cp, dp = [0.0] * n, [0.0] * n
    for i in range(n):
        piv = diag - (lower * cp[i - 1] if i else 0.0)
        cp[i] = upper / piv if i < n - 1 else 0.0
        dp[i] = (f[i] - (lower * dp[i - 1] if i else 0.0)) / piv
    x = [0.0] * n
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return np.asarray(x)


def stepper_rows(n: int, mu: float) -> tuple[float, float, float]:
    """(lower, diag, upper) shaped like the Crank-Nicolson rows of an
    n-row level at r=0.1, sigma=0.2."""
    sig2, r, dy = 0.04, 0.1, 4.0 / (n + 1)
    q = mu * dy * dy
    theta = q * sig2 / (4.0 * dy * dy)
    beta = q * (r - sig2 / 2.0) / (4.0 * dy)
    b = -(q / 2.0) * (sig2 / (dy * dy) + r)
    return theta - beta, b - 1.0, theta + beta


def dense(lower: float, diag: float, upper: float, n: int) -> np.ndarray:
    return (
        np.diag(np.full(n, diag))
        + np.diag(np.full(n - 1, upper), 1)
        + np.diag(np.full(n - 1, lower), -1)
    )


def solve(lower, diag, upper, rhs):
    """The kernel's solution out of place, and the rows it took in the
    vectorized tail (0 when it ran the scalar sweep throughout)."""
    tails = []
    settled_tail = tridiag._settled_tail

    def spy(rhs_tail, *args):
        tails.append(rhs_tail.size)
        return settled_tail(rhs_tail, *args)

    out = np.empty_like(rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tridiag, "_settled_tail", spy)
        solve_constant_bands(lower, diag, upper, rhs, out)
    assert len(tails) <= 1
    return out, sum(tails)


@st.composite
def constant_band_systems(draw):
    """(lower, diag, upper, rhs) of the stepper's shape, diag <= -1 and either
    lower*upper <= 0 or dominance by at least 1, with the heads the kernel must
    handle: short ones (stepper rows), ones past the listed prefix (slowly
    settling pivots) and none (n <= _MIN_TAIL + 1)."""
    shape = draw(st.sampled_from(["stepper", "general", "slow_decay"]))
    n = draw(st.one_of(
        st.integers(1, 2000),
        st.integers(_MIN_TAIL - 3, _MIN_TAIL + 5),
        st.integers(_MIN_TAIL + 2, 2000),
    ))
    if shape == "slow_decay":  # heads of 50-500 rows: past the listed prefix
        n = max(n, 3 * _MIN_TAIL)
    rhs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    if shape == "stepper":
        mu = draw(st.floats(5.0, 40.0))
        c, d, a = stepper_rows(n + 1, mu)
        drift = draw(st.floats(-0.3, 0.3)) * a
        c, a = c - drift, a + drift
    elif shape == "general":
        a, c = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        d = -1.0 - draw(st.floats(0.0, 3.0)) - (0.0 if a * c <= 0.0 else abs(a) + abs(c))
    elif shape == "slow_decay":
        # large-mu rows: a ~ c ~ theta against |diag| ~ 1 + 2*theta, so the
        # tail multipliers approach 1 in modulus
        theta = draw(st.floats(10.0, 1000.0))
        a = c = theta
        d = -(1.0 + 2.0 * theta * draw(st.floats(1.0, 1.01)))
    return c, d, a, rhs


def test_identity_bands_return_rhs():
    rhs = np.array([3.0, -1.0, 0.5, 2.0])
    assert solve(0.0, 1.0, 0.0, rhs)[0] == pytest.approx(rhs, rel=0)


def test_random_systems_match_dense_solver():
    rng = np.random.default_rng(7)
    for n in [8] * 20 + [300] * 5:
        lower, upper = rng.uniform(-1.0, 1.0, 2)
        diag = rng.uniform(2.0, 4.0) * rng.choice([-1.0, 1.0])
        rhs = rng.uniform(-5.0, 5.0, n)
        x, _ = solve(lower, diag, upper, rhs)
        assert x == pytest.approx(np.linalg.solve(dense(lower, diag, upper, n), rhs), abs=1e-12)


def test_residual_bound():
    rng = np.random.default_rng(11)
    for n in (64, 640):
        lower, upper = rng.uniform(-1.0, 1.0, 2)
        diag = rng.uniform(3.0, 5.0)
        rhs = rng.uniform(-10.0, 10.0, n)
        x, _ = solve(lower, diag, upper, rhs)
        r = diag * x - rhs
        r[:-1] += upper * x[1:]
        r[1:] += lower * x[:-1]
        assert np.max(np.abs(r)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_single_row_system():
    assert solve(0.0, 4.0, 0.0, np.array([2.0]))[0] == pytest.approx([0.5])


@settings(max_examples=80, deadline=None)
@given(constant_band_systems())
def test_constant_tail_systems_match_dense_solver(bands):
    lower, diag, upper, rhs = bands
    x, _ = solve(lower, diag, upper, rhs)
    ref = np.linalg.solve(dense(lower, diag, upper, rhs.size), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_stepper_rows_take_the_vectorized_tail():
    rhs = np.random.default_rng(3).uniform(-1.0, 1.0, 799)
    for mu in (5.0, 20.0, 40.0):
        bands = stepper_rows(799, mu)
        x, tail = solve(*bands, rhs)
        assert 799 - tail < 20  # the head: rows before the pivot settles
        assert x == pytest.approx(scalar_sweep(*bands, rhs), rel=0, abs=1e-14)


def test_tails_either_side_of_the_crossover():
    rng = np.random.default_rng(5)
    bands = stepper_rows(799, 20.0)
    _, tail = solve(*bands, np.zeros(799))
    head = 799 - tail
    for rows, vectorized in ((_MIN_TAIL, True), (_MIN_TAIL - 1, False)):
        rhs = rng.uniform(-1.0, 1.0, head + rows)
        x, tail = solve(*bands, rhs)
        assert (tail == rows) is vectorized
        ref = scalar_sweep(*bands, rhs)
        if vectorized:
            assert x == pytest.approx(ref, rel=0, abs=1e-14)
        else:
            assert tail == 0
            assert x.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(constant_band_systems())
@example((1000.0, -2011.0, 1000.0, np.linspace(-1.0, 1.0, 1999)))  # head past the prefix
def test_constant_bands_agree_with_the_scalar_sweep(bands):
    lower, diag, upper, rhs = bands
    kept = rhs.copy()
    ref = scalar_sweep(lower, diag, upper, rhs)
    out, tail = solve(lower, diag, upper, rhs)
    assert rhs.tobytes() == kept.tobytes()
    if tail == 0:  # always so for n <= _MIN_TAIL + 1
        assert out.tobytes() == ref.tobytes()
        return
    assert rhs.size > _MIN_TAIL + 1
    margin = abs(diag) - abs(lower) - abs(upper)
    if margin > 0.0:
        # both sweeps are backward stable, so they differ by a few eps times
        # the condition number, which Varah's bound caps
        cond = (abs(diag) + abs(lower) + abs(upper)) / margin
        tol = max(1e-14, 16 * EPS * cond) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(out - ref)) <= tol


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    M=st.one_of(st.integers(4, 120), st.integers(121, 800)),
    Y=st.floats(0.5, 8.0),
    mu=st.floats(0.5, 80.0),
    r=st.floats(0.0, 0.2),
    sigma=st.floats(0.1, 0.6),
    T=st.floats(0.05, 2.0),
)
@example(alpha=1.0, M=800, Y=4.0, mu=20.0, r=0.1, sigma=0.2, T=1.0)  # march-fine's grid
@example(alpha=0.5, M=50, Y=4.0, mu=10.0, r=0.1, sigma=0.2, T=1.0)  # a study-sweep lattice run
@example(alpha=5e-324, M=4, Y=1.0, mu=1.0, r=0.0, sigma=0.5, T=1.0)  # alpha*dtau underflows to 0
def test_marches_hand_the_solve_rows_whose_pivots_stay_at_one(alpha, M, Y, mu, r, sigma, T):
    # the sign argument of the tridiag docstring, on every level solve of the
    # first 300 steps of a march: diag <= -1, and either lower*upper <= 0 or
    # the rows are dominant by 1, so no Thomas pivot falls below 1 in size
    # (1/2 here, to leave room for rounding)
    p = ModelParams(r=r, sigma=sigma, E=1.0, T=T, alpha=alpha)
    g = build_grid(p, M, mu, Y)
    seen = []
    solve = scheme.solve_constant_bands

    def wrapped(lower, diag, upper, rhs, out):
        seen.append((lower, diag, upper, rhs.size))
        return solve(lower, diag, upper, rhs, out)

    steps = min(g.N, 300)
    zeros = np.zeros(g.M + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "solve_constant_bands", wrapped)
        try:
            scheme._advance(p, g, zeros, 1.0, zeros, cf_weights(p.alpha, g.dtau), steps,
                            np.empty((2, g.M + 1)))
        except FronfixError as exc:
            # a typed failure ends the march; every solve before it is checked
            steps = getattr(exc, "step", 0)
    assert len(seen) >= steps  # each completed step ends in a level solve
    for c, d, a, n in seen:
        assert d <= -1.0
        assert c * a <= 0.0 or abs(c) + abs(a) <= abs(d) - 1.0 + 8 * EPS * abs(d)
        piv = d
        for _ in range(n - 1):
            nxt = d - c * a / piv
            assert abs(nxt) >= 0.5
            if nxt == piv:  # a fixed point: every later pivot equals it
                break
            piv = nxt

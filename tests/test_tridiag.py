from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fronfix.tridiag as tridiag
from fronfix.errors import SingularPivotError, ValidationError
from fronfix.tridiag import _MIN_TAIL, solve_constant_bands

EPS = np.finfo(float).eps


def scalar_sweep(lower: float, diag: float, upper: float, rhs: np.ndarray) -> np.ndarray:
    """The plain Thomas sweep over every row, as a reference."""
    f = rhs.tolist()
    n = len(f)
    cp, dp = [0.0] * n, [0.0] * n
    for i in range(n):
        piv = diag - (lower * cp[i - 1] if i else 0.0)
        if abs(piv) <= 1e-14:
            raise SingularPivotError(i, piv)
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
    """(lower, diag, upper, rhs) with the heads the kernel must handle: short
    ones (stepper rows), ones past the listed prefix (slowly settling
    pivots), none (n <= _MIN_TAIL + 1), and singular pivots."""
    shape = draw(st.sampled_from(["stepper", "general", "slow_decay", "singular"]))
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
        d = draw(st.sampled_from([-1.0, 1.0])) * (abs(a) + abs(c)) * draw(st.floats(1.0, 4.0))
    elif shape == "slow_decay":
        # large-mu rows: a ~ c ~ theta against |diag| ~ 1 + 2*theta, so the
        # tail multipliers approach 1 in modulus
        theta = draw(st.floats(10.0, 1000.0))
        a = c = theta
        d = -(1.0 + 2.0 * theta * draw(st.floats(1.0, 1.01)))
    else:
        d, a, c = draw(st.sampled_from([(1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (0.0, 1.0, 1.0)]))
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


def test_zero_pivot_identifies_row():
    # pivots 2, then 2 - 2*2/2 = 0
    with pytest.raises(SingularPivotError) as err:
        solve(2.0, 2.0, 2.0, np.ones(3))
    assert err.value.row == 1


def test_single_row_system():
    assert solve(0.0, 4.0, 0.0, np.array([2.0]))[0] == pytest.approx([0.5])


@settings(max_examples=80, deadline=None)
@given(constant_band_systems())
def test_constant_tail_systems_match_dense_solver(bands):
    lower, diag, upper, rhs = bands
    try:
        x, _ = solve(lower, diag, upper, rhs)
    except SingularPivotError:
        return  # the pivot rows are pinned against the scalar sweep below
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


@pytest.mark.parametrize("d,a,c,row", [(1.0, 1.0, 1.0, 1), (2.0, 1.0, 2.0, 2)])
def test_singular_constant_bands_above_crossover_name_the_scalar_row(d, a, c, row):
    rhs = np.ones(3 * _MIN_TAIL)
    with pytest.raises(SingularPivotError) as ref_err:
        scalar_sweep(c, d, a, rhs)
    with pytest.raises(SingularPivotError) as err:
        solve(c, d, a, rhs)
    assert err.value.row == ref_err.value.row == row


@settings(max_examples=150, deadline=None)
@given(constant_band_systems(), st.booleans())
@example((1.0, 1.0, 1.0, np.ones(3 * _MIN_TAIL)), False)  # singular at row 1
@example((2.0, 2.0, 1.0, np.ones(3 * _MIN_TAIL)), True)  # singular at row 2
@example((1000.0, -2011.0, 1000.0, np.linspace(-1.0, 1.0, 1999)), False)  # head past the prefix
def test_constant_bands_agree_with_the_scalar_sweep(bands, in_place):
    lower, diag, upper, rhs = bands
    rhs = rhs.copy()
    kept = rhs.copy()
    out = rhs if in_place else np.empty_like(rhs)
    try:
        ref = scalar_sweep(lower, diag, upper, rhs)
    except SingularPivotError as ref_err:
        with pytest.raises(SingularPivotError) as err:
            solve_constant_bands(lower, diag, upper, rhs, out)
        assert (err.value.row, err.value.pivot) == (ref_err.row, ref_err.pivot)
        return
    apart, tail = solve(lower, diag, upper, kept)
    solve_constant_bands(lower, diag, upper, rhs, out)
    assert out.tobytes() == apart.tobytes()
    if not in_place:
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


def test_constant_bands_reject_mismatched_out():
    with pytest.raises(ValidationError):
        solve_constant_bands(1.0, 4.0, 1.0, np.ones(5), np.empty(4))
    with pytest.raises(ValidationError):
        solve_constant_bands(1.0, 4.0, 1.0, np.ones(0), np.empty(0))

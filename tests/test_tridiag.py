from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fronfix.errors import SingularPivotError, ValidationError
from fronfix.tridiag import (
    _MIN_TAIL,
    TridiagonalSystem,
    _head_rows,
    solve_constant_bands,
    solve_tridiagonal,
)


def scalar_sweep(sys: TridiagonalSystem) -> np.ndarray:
    """The plain Thomas sweep over every row, as a reference."""
    sub, diag, sup, rhs = (b.tolist() for b in (sys.sub, sys.diag, sys.super, sys.rhs))
    n = len(diag)
    cp, dp = [0.0] * n, [0.0] * n
    for i in range(n):
        piv = diag[i] - (sub[i - 1] * cp[i - 1] if i else 0.0)
        if abs(piv) <= 1e-14:
            raise SingularPivotError(i, piv)
        cp[i] = sup[i] / piv if i < n - 1 else 0.0
        dp[i] = (rhs[i] - (sub[i - 1] * dp[i - 1] if i else 0.0)) / piv
    x = [0.0] * n
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return np.asarray(x)


def stepper_rows(n: int, mu: float, rhs: np.ndarray) -> TridiagonalSystem:
    """Constant bands shaped like the Crank-Nicolson rows at r=0.1, sigma=0.2."""
    sig2, r, dy = 0.04, 0.1, 4.0 / (n + 1)
    q = mu * dy * dy
    theta = q * sig2 / (4.0 * dy * dy)
    beta = q * (r - sig2 / 2.0) / (4.0 * dy)
    b = -(q / 2.0) * (sig2 / (dy * dy) + r)
    return TridiagonalSystem(
        sub=np.full(n - 1, theta - beta),
        diag=np.full(n, b - 1.0),
        super=np.full(n - 1, theta + beta),
        rhs=rhs,
    )


@st.composite
def constant_tail_systems(draw):
    """Diagonally dominant systems whose bands are constant after a head."""
    shape = draw(st.sampled_from(
        ["constant", "varying_head", "near_crossover", "opposite_signs", "slow_decay"]
    ))
    if shape == "near_crossover":
        n = draw(st.integers(_MIN_TAIL - 4, _MIN_TAIL + 40))
    else:
        n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "slow_decay":
        # large-mu rows: a ~ c ~ theta against |diag| ~ 1 + 2*theta, so the
        # tail multipliers approach 1 in modulus
        theta = draw(st.floats(10.0, 1000.0))
        skew = draw(st.floats(-0.1, 0.1))
        a, c = theta * (1.0 + skew), theta * (1.0 - skew)
        d = -(1.0 + 2.0 * theta * draw(st.floats(1.0, 1.01)))
    else:
        a, c = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        if shape == "opposite_signs":
            a, c = abs(a) + 0.01, -abs(c) - 0.01
        sign = draw(st.sampled_from([-1.0, 1.0]))
        d = sign * max(abs(a) + abs(c), 0.5) * (1.0 + draw(st.floats(0.05, 3.0)))
    sub, diag, sup = np.full(n - 1, c), np.full(n, d), np.full(n - 1, a)
    if shape == "varying_head":
        h = min(draw(st.integers(1, 60)), n)
        diag[:h] = rng.choice([-1.0, 1.0], h) * rng.uniform(2.0, 4.0, h)
        sub[: h - 1] = rng.uniform(-1.0, 1.0, h - 1)
        sup[: h - 1] = rng.uniform(-1.0, 1.0, h - 1)
    return TridiagonalSystem(sub=sub, diag=diag, super=sup, rhs=rng.uniform(-1.0, 1.0, n))


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
        base = stepper_rows(n + 1, mu, np.zeros(n + 1))
        drift = draw(st.floats(-0.3, 0.3)) * float(base.super[0])
        c, d, a = float(base.sub[0]) - drift, float(base.diag[0]), float(base.super[0]) + drift
    elif shape == "general":
        a, c = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        d = draw(st.sampled_from([-1.0, 1.0])) * (abs(a) + abs(c)) * draw(st.floats(1.0, 4.0))
    elif shape == "slow_decay":
        theta = draw(st.floats(10.0, 1000.0))
        a = c = theta
        d = -(1.0 + 2.0 * theta * draw(st.floats(1.0, 1.01)))
    else:
        d, a, c = draw(st.sampled_from([(1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (0.0, 1.0, 1.0)]))
    return c, d, a, rhs


def full_bands(lower, diag, upper, rhs):
    n = rhs.size
    return TridiagonalSystem(
        sub=np.full(n - 1, lower), diag=np.full(n, diag), super=np.full(n - 1, upper), rhs=rhs
    )


def test_identity_bands_return_rhs():
    rhs = np.array([3.0, -1.0, 0.5, 2.0])
    sys = TridiagonalSystem(
        sub=np.zeros(3), diag=np.ones(4), super=np.zeros(3), rhs=rhs
    )
    assert solve_tridiagonal(sys) == pytest.approx(rhs, rel=0)


def test_random_systems_match_dense_solver():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = 8
        diag = rng.uniform(2.0, 4.0, n) * rng.choice([-1.0, 1.0], n)
        sub = rng.uniform(-1.0, 1.0, n - 1)
        sup = rng.uniform(-1.0, 1.0, n - 1)
        rhs = rng.uniform(-5.0, 5.0, n)
        sys = TridiagonalSystem(sub=sub, diag=diag, super=sup, rhs=rhs)
        x = solve_tridiagonal(sys)
        dense = np.linalg.solve(sys.dense(), rhs)
        assert x == pytest.approx(dense, abs=1e-12)


def test_residual_bound():
    rng = np.random.default_rng(11)
    n = 64
    diag = rng.uniform(3.0, 5.0, n)
    sub = rng.uniform(-1.0, 1.0, n - 1)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    rhs = rng.uniform(-10.0, 10.0, n)
    sys = TridiagonalSystem(sub=sub, diag=diag, super=sup, rhs=rhs)
    x = solve_tridiagonal(sys)
    assert sys.residual(x) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_zero_pivot_identifies_row():
    sys = TridiagonalSystem(
        sub=np.array([1.0, 1.0]),
        diag=np.array([2.0, 0.0, 2.0]),
        super=np.array([0.0, 1.0]),
        rhs=np.ones(3),
    )
    with pytest.raises(SingularPivotError) as err:
        solve_tridiagonal(sys)
    assert err.value.row == 1


def test_band_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        TridiagonalSystem(
            sub=np.zeros(3), diag=np.ones(3), super=np.zeros(2), rhs=np.ones(3)
        )


def test_single_row_system():
    sys = TridiagonalSystem(
        sub=np.zeros(0), diag=np.array([4.0]), super=np.zeros(0), rhs=np.array([2.0])
    )
    assert solve_tridiagonal(sys) == pytest.approx([0.5])


@settings(max_examples=80, deadline=None)
@given(constant_tail_systems())
def test_constant_tail_systems_match_dense_solver(sys):
    x = solve_tridiagonal(sys)
    ref = np.linalg.solve(sys.dense(), sys.rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_stepper_rows_take_the_vectorized_tail():
    rhs = np.random.default_rng(3).uniform(-1.0, 1.0, 799)
    for mu in (5.0, 20.0, 40.0):
        sys = stepper_rows(799, mu, rhs)
        assert _head_rows(sys) < 20
        x = solve_tridiagonal(sys)
        assert x == pytest.approx(scalar_sweep(sys), rel=0, abs=1e-14)


def test_tails_either_side_of_the_crossover():
    rng = np.random.default_rng(5)
    long = stepper_rows(799, 20.0, np.zeros(799))
    head = _head_rows(long)
    for tail, vectorized in ((_MIN_TAIL, True), (_MIN_TAIL - 1, False)):
        n = head + tail
        sys = TridiagonalSystem(
            sub=long.sub[: n - 1], diag=long.diag[:n], super=long.super[: n - 1],
            rhs=rng.uniform(-1.0, 1.0, n),
        )
        assert (_head_rows(sys) == head) is vectorized
        x = solve_tridiagonal(sys)
        ref = scalar_sweep(sys)
        out = np.empty(n)
        solve_constant_bands(long.sub[0], long.diag[0], long.super[0], sys.rhs, out)
        assert out.tobytes() == x.tobytes()
        if vectorized:
            assert x == pytest.approx(ref, rel=0, abs=1e-14)
        else:
            assert np.array_equal(x, ref)


@pytest.mark.parametrize("band", ["sub", "diag", "super"])
def test_band_change_after_the_pivot_settles_restarts_the_head(band):
    n = 799
    rhs = np.random.default_rng(9).uniform(-1.0, 1.0, n)
    base = stepper_rows(n, 20.0, rhs)
    bands = {"sub": base.sub.copy(), "diag": base.diag.copy(), "super": base.super.copy()}
    bands[band][40] *= 3.0
    sys = TridiagonalSystem(**bands, rhs=rhs)
    assert 40 < _head_rows(sys) < 100
    x = solve_tridiagonal(sys)
    assert x == pytest.approx(scalar_sweep(sys), rel=0, abs=1e-14)


@pytest.mark.parametrize("d,a,c,row", [(1.0, 1.0, 1.0, 1), (2.0, 1.0, 2.0, 2)])
def test_singular_constant_bands_above_crossover_name_the_scalar_row(d, a, c, row):
    n = 3 * _MIN_TAIL
    sys = TridiagonalSystem(
        sub=np.full(n - 1, c), diag=np.full(n, d), super=np.full(n - 1, a), rhs=np.ones(n)
    )
    with pytest.raises(SingularPivotError) as ref_err:
        scalar_sweep(sys)
    with pytest.raises(SingularPivotError) as err:
        solve_tridiagonal(sys)
    assert err.value.row == ref_err.value.row == row


@settings(max_examples=150, deadline=None)
@given(constant_band_systems(), st.booleans())
@example((1.0, 1.0, 1.0, np.ones(3 * _MIN_TAIL)), False)  # singular at row 1
@example((2.0, 2.0, 1.0, np.ones(3 * _MIN_TAIL)), True)  # singular at row 2
@example((1000.0, -2011.0, 1000.0, np.linspace(-1.0, 1.0, 1999)), False)  # head past the prefix
def test_constant_bands_solve_bitwise_as_solve_tridiagonal(bands, in_place):
    lower, diag, upper, rhs = bands
    sys = full_bands(lower, diag, upper, rhs)
    rhs = rhs.copy()
    out = rhs if in_place else np.empty_like(rhs)
    try:
        ref = solve_tridiagonal(sys)
    except SingularPivotError as ref_err:
        with pytest.raises(SingularPivotError) as err:
            solve_constant_bands(lower, diag, upper, rhs, out)
        assert (err.value.row, err.value.pivot) == (ref_err.row, ref_err.pivot)
        return
    solve_constant_bands(lower, diag, upper, rhs, out)
    assert out.tobytes() == ref.tobytes()
    if not in_place:
        assert rhs.tobytes() == sys.rhs.tobytes()


def test_constant_bands_reject_mismatched_out():
    with pytest.raises(ValidationError):
        solve_constant_bands(1.0, 4.0, 1.0, np.ones(5), np.empty(4))
    with pytest.raises(ValidationError):
        solve_constant_bands(1.0, 4.0, 1.0, np.ones(0), np.empty(0))

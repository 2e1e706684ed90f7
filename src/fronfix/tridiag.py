"""Thomas-algorithm solver for tridiagonal systems.

LU sweep without pivoting; the assembled Crank-Nicolson rows are diagonally
dominant whenever the coefficient signs behave, and a pivot guard converts the
degenerate cases into a typed error instead of NaNs.

The stepper's systems have constant bands, and on a constant-band tail the
pivot recurrence piv_i = d - c*a/piv_{i-1} contracts to its fixed point
within a dozen or so rows. The solver runs the scalar sweep until the pivot
has settled on such a tail, |piv_i - piv_{i-1}| <= 4*eps*|piv_i|*(1 - rate)
with rate = |c*a|/piv^2 its contraction per row, which leaves it within
about 4*eps*|piv| of the fixed point. The rows after it share that pivot,
so both sweeps over them are constant-coefficient first-order recurrences,

    y_i = f_i/piv + g*y_{i-1},  g = -c/piv      (forward elimination)
    x_i = y_i + h*x_{i+1},      h = -a/piv      (back substitution)

which recursive doubling evaluates in a few vectorized passes (Stone, J. ACM
20(1), 1973), stopping once the neglected weight |g|^s falls below eps. Only
tails of at least _MIN_TAIL rows are vectorized; smaller systems run the
scalar sweep without testing the bands.

The pivot error keeps its row semantics: every head pivot is checked row by
row, and the tail reuses the settled head pivot, which passed the same check,
so a singular system raises at the row the plain sweep would name.

solve_constant_bands is the same solver for bands given as three scalars, as
the stepper's rows are. With the bands known constant it needs no band scan:
it runs the settle test inside its head sweep and lists only the first
_HEAD_PREFIX rows of the right-hand side, extending the list only when no
tail has settled by then. It evaluates every pivot, eliminated right-hand
side and settle test with the operations solve_tridiagonal applies to the
same system in full-length bands, and hands the tail to the same
_settled_tail, so both return bitwise the same solution and raise at the
same row. The stepper relies on that: its boundary iteration and its tests
compare levels to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPivotError, ValidationError

__all__ = ["TridiagonalSystem", "solve_tridiagonal", "solve_constant_bands"]

_PIVOT_FLOOR = 1e-14
_EPS = math.ulp(1.0)  # double-precision machine epsilon
# Shortest tail solved vectorized. The vectorized solve costs about as much as
# 85-90 scalar rows (measured on stepper systems, mu 5-40, n 60-150, on a
# 2-vCPU Xeon); the margin keeps n = 99 (M = 100) on the scalar sweep, which
# then skips the band test as well.
_MIN_TAIL = 100
# Right-hand-side rows solve_constant_bands lists for its head sweep; the
# stepper's pivots settle within 9-14 rows (M = 800, mu 5-40).
_HEAD_PREFIX = 32


@dataclass(frozen=True)
class TridiagonalSystem:
    """Bands and right-hand side of T x = rhs.

    diag has length n; sub and super have length n-1 (sub[i] multiplies
    x[i] in row i+1, super[i] multiplies x[i+1] in row i).
    """

    sub: np.ndarray
    diag: np.ndarray
    super: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        sup = np.asarray(self.super, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        n = diag.size
        if n < 1 or rhs.size != n or sub.size != n - 1 or sup.size != n - 1:
            raise ValidationError(["band lengths are inconsistent"])
        for name, arr in (("sub", sub), ("diag", diag), ("super", sup), ("rhs", rhs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def dense(self) -> np.ndarray:
        n = self.diag.size
        mat = np.zeros((n, n))
        idx = np.arange(n)
        mat[idx, idx] = self.diag
        mat[idx[:-1], idx[:-1] + 1] = self.super
        mat[idx[1:], idx[1:] - 1] = self.sub
        return mat

    def residual(self, x: np.ndarray) -> float:
        """Max-norm residual of a candidate solution."""
        x = np.asarray(x, dtype=float)
        r = self.diag * x - self.rhs
        r[:-1] += self.super * x[1:]
        r[1:] += self.sub * x[:-1]
        return float(np.max(np.abs(r)))


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Solve the system by forward elimination and back substitution.

    Raises SingularPivotError naming the first row whose pivot falls below
    1e-14 in magnitude.
    """
    n = sys.diag.size
    head = _head_rows(sys) if n > _MIN_TAIL + 1 else n
    # python-float sweeps over the head rows: the recurrence cannot vectorize
    # there and list access is markedly faster than per-element ndarray indexing
    sub = sys.sub[: head - 1].tolist()
    diag = sys.diag[:head].tolist()
    sup = sys.super[:head].tolist()
    rhs = sys.rhs[:head].tolist()

    cp = [0.0] * head
    dp = [0.0] * head
    piv = diag[0]
    if abs(piv) <= _PIVOT_FLOOR:
        raise SingularPivotError(0, piv)
    if n > 1:
        cp[0] = sup[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, head):
        piv = diag[i] - sub[i - 1] * cp[i - 1]
        if abs(piv) <= _PIVOT_FLOOR:
            raise SingularPivotError(i, piv)
        if i < n - 1:
            cp[i] = sup[i] / piv
        dp[i] = (rhs[i] - sub[i - 1] * dp[i - 1]) / piv

    x = np.empty(n)
    if head < n:
        _settled_tail(sys.rhs[head:], float(sys.sub[-1]), float(sys.super[-1]),
                      piv, dp[-1], x[head:])
    _back_substitute(cp, dp, x)
    return x


def solve_constant_bands(
    lower: float, diag: float, upper: float, rhs: np.ndarray, out: np.ndarray
) -> None:
    """Solve the constant-band system into out (which may be rhs itself).

    Row i reads lower*x[i-1] + diag*x[i] + upper*x[i+1] = rhs[i]. The solution
    is bitwise the one solve_tridiagonal returns for the same bands held in
    full-length arrays, and a SingularPivotError names the same row.
    """
    n = rhs.size
    if n < 1 or out.shape != rhs.shape:
        raise ValidationError(["rhs and out must be vectors of one length >= 1"])
    c, d, a = float(lower), float(diag), float(upper)
    ca = abs(c * a)
    # rows before `last` may end a head that leaves at least _MIN_TAIL rows
    last = n - _MIN_TAIL if n > _MIN_TAIL + 1 else 0
    f = rhs[:_HEAD_PREFIX].tolist() if last else rhs.tolist()
    piv = d
    if abs(piv) <= _PIVOT_FLOOR:
        raise SingularPivotError(0, piv)
    cpi = a / piv if n > 1 else 0.0
    dpi = f[0] / piv
    cp = [cpi]
    dp = [dpi]
    for i in range(1, n):
        if i == len(f):
            f += rhs[i:].tolist()
        nxt = d - c * cpi
        if abs(nxt) <= _PIVOT_FLOOR:
            raise SingularPivotError(i, nxt)
        cpi = a / nxt if i < n - 1 else 0.0
        dpi = (f[i] - c * dpi) / nxt
        cp.append(cpi)
        dp.append(dpi)
        # _head_rows' settle test on the pivots of rows i-1 and i
        if i < last and abs(nxt - piv) <= 4.0 * _EPS * abs(nxt) * (1.0 - ca / (piv * piv)):
            _settled_tail(rhs[i + 1 :], c, a, nxt, dpi, out[i + 1 :])
            break
        piv = nxt
    _back_substitute(cp, dp, out)


def _back_substitute(cp: list[float], dp: list[float], out: np.ndarray) -> None:
    """Write x[:head] of the eliminated head rows into out, head = len(dp).

    out[head], when the system has more rows, already holds the tail's first
    value.
    """
    head = len(dp)
    # cp[n-1] is zero, so without a tail the first pass yields x[n-1] = dp[n-1]
    xi = float(out[head]) if head < out.size else 0.0
    x = [0.0] * head
    for i in range(head - 1, -1, -1):
        xi = dp[i] - cp[i] * xi
        x[i] = xi
    out[:head] = x


def _constant_from(band: np.ndarray) -> int:
    """First index from which the band holds one value throughout."""
    changes = np.flatnonzero(band != band[-1])
    return int(changes[-1]) + 1 if changes.size else 0


def _head_rows(sys: TridiagonalSystem) -> int:
    """Rows the scalar sweep takes before the pivot settles on a constant tail.

    Returns n when no tail of at least _MIN_TAIL rows qualifies: the bands
    vary too late, the pivot does not settle in time, or a head pivot is
    singular (the scalar sweep then raises at its row).
    """
    n = sys.diag.size
    # row i reads diag[i], sub[i-1] and, through cp[i-1], super[i-1]
    start = max(
        _constant_from(sys.diag),
        _constant_from(sys.sub) + 1,
        _constant_from(sys.super) + 1,
    )
    last = n - _MIN_TAIL
    if start >= last:
        return n
    diag = sys.diag[:start].tolist()
    sub = sys.sub[: start - 1].tolist()
    sup = sys.super[: start - 1].tolist()
    piv = diag[0]
    for i in range(1, start):
        if abs(piv) <= _PIVOT_FLOOR:
            return n
        piv = diag[i] - sub[i - 1] * (sup[i - 1] / piv)
    d, c, a = float(sys.diag[-1]), float(sys.sub[-1]), float(sys.super[-1])
    for k in range(start, last):
        if abs(piv) <= _PIVOT_FLOOR:
            return n
        nxt = d - c * (a / piv)
        # the pivot contracts by about `rate` per row, so what is left to its
        # fixed point is about |nxt - piv| * rate / (1 - rate)
        rate = abs(c * a) / (piv * piv)
        if abs(nxt - piv) <= 4.0 * _EPS * abs(nxt) * (1.0 - rate):
            return k + 1
        piv = nxt
    return n


def _settled_tail(
    rhs: np.ndarray, lower: float, upper: float, piv: float, dp_prev: float,
    out: np.ndarray,
) -> None:
    """Write x for constant-band rows sharing the settled pivot piv into out.

    rhs holds those rows' right-hand side (out may be rhs itself), lower and
    upper their bands, and dp_prev the eliminated right-hand side of the row
    before them. Each sweep is a first-order recurrence with a constant
    multiplier g, run by recursive doubling: after the pass with shift s
    every entry holds the exact sum of its window of 2s terms, and the terms
    beyond it carry weight |g|^(2s), so the passes stop once that falls under
    eps or the window spans the tail.
    """
    m = rhs.size
    y = np.divide(rhs, piv, out=out)
    g = -lower / piv
    y[0] += g * dp_prev
    s = 1
    while s < m and abs(g) > _EPS:  # y[i] += g*y[i-1], for i = 1, 2, ... in turn
        y[s:] += g * y[:-s]
        g *= g
        s *= 2
    h = -upper / piv
    s = 1
    while s < m and abs(h) > _EPS:  # y[i] += h*y[i+1], for i = m-2, m-3, ... in turn
        y[:-s] += h * y[s:]
        h *= h
        s *= 2

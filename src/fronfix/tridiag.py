"""The stepper's level solve: the Thomas algorithm on constant bands.

Row i reads lower*x[i-1] + diag*x[i] + upper*x[i+1] = rhs[i], the three bands
given as scalars, as the stepper's rows are. LU sweep without pivoting, which
those rows never need: the diagonal is d = B - 1 <= -1 and the bands are
A = theta + k and C = theta - k (theta >= 0). Rows with |k| <= theta are
diagonally dominant by 1 + q*r/2, so every pivot has |piv| >= |d| - |C| >= 1.
Rows with |k| > theta have A*C < 0, so each pivot piv_i = d - C*A/piv_{i-1}
is at most d <= -1. Either way no pivot falls below 1 in magnitude.

The pivot recurrence contracts to its fixed point within a dozen or so rows.
The solver runs the scalar sweep until the pivot has settled,
|piv_i - piv_{i-1}| <= 4*eps*|piv_i|*(1 - rate) with rate = |c*a|/piv^2 its
contraction per row, which leaves it within about 4*eps*|piv| of the fixed
point. The rows after it share that pivot, so both sweeps over them are
constant-coefficient first-order recurrences,

    y_i = f_i/piv + g*y_{i-1},  g = -c/piv      (forward elimination)
    x_i = y_i + h*x_{i+1},      h = -a/piv      (back substitution)

which recursive doubling evaluates in a few vectorized passes (Stone, J. ACM
20(1), 1973), stopping once the neglected weight |g|^s falls below eps. Only
tails of at least _MIN_TAIL rows are vectorized, so a system of at most
_MIN_TAIL + 1 rows gets the plain sweep's bits; a vectorized tail stays within
a few ulps of them. The head sweep lists only the first _HEAD_PREFIX rows of
the right-hand side, extending the list only when no tail has settled by then.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []  # the stepper's own solve, imported by scheme alone

_EPS = math.ulp(1.0)  # double-precision machine epsilon
# Shortest tail solved vectorized. The vectorized solve costs about as much as
# 85-90 scalar rows (measured on stepper systems, mu 5-40, n 60-150, on a
# 2-vCPU Xeon); the margin keeps n = 99 (M = 100) on the scalar sweep, which
# then skips the settle test as well.
_MIN_TAIL = 100
# Right-hand-side rows solve_constant_bands lists for its head sweep; the
# stepper's pivots settle within 9-14 rows (M = 800, mu 5-40).
_HEAD_PREFIX = 32


def solve_constant_bands(
    lower: float, diag: float, upper: float, rhs: np.ndarray, out: np.ndarray
) -> None:
    """Solve the stepper's n >= 1 rows lower*x[i-1] + diag*x[i] + upper*x[i+1]
    = rhs[i] into out, an array of rhs's length."""
    n = rhs.size
    c, d, a = float(lower), float(diag), float(upper)
    ca = abs(c * a)
    # rows before `last` may end a head that leaves at least _MIN_TAIL rows
    last = n - _MIN_TAIL if n > _MIN_TAIL + 1 else 0
    f = rhs[:_HEAD_PREFIX].tolist() if last else rhs.tolist()
    piv = d
    cpi = a / piv if n > 1 else 0.0
    dpi = f[0] / piv
    cp = [cpi]
    dp = [dpi]
    for i in range(1, n):
        if i == len(f):
            f += rhs[i:].tolist()
        nxt = d - c * cpi
        cpi = a / nxt if i < n - 1 else 0.0
        dpi = (f[i] - c * dpi) / nxt
        cp.append(cpi)
        dp.append(dpi)
        # the settle test on the pivots of rows i-1 and i
        if i < last and abs(nxt - piv) <= 4.0 * _EPS * abs(nxt) * (1.0 - ca / (piv * piv)):
            _settled_tail(rhs[i + 1 :], c, a, nxt, dpi, out[i + 1 :])
            break
        piv = nxt
    # back substitution over the head; out[head] holds the tail's first value,
    # and without a tail cp[n-1] = 0 makes the first pass x[n-1] = dp[n-1]
    head = len(dp)
    xi = float(out[head]) if head < n else 0.0
    x = [0.0] * head
    for i in range(head - 1, -1, -1):
        xi = dp[i] - cp[i] * xi
        x[i] = xi
    out[:head] = x


def _settled_tail(
    rhs: np.ndarray, lower: float, upper: float, piv: float, dp_prev: float,
    out: np.ndarray,
) -> None:
    """Write x for constant-band rows sharing the settled pivot piv into out.

    rhs holds those rows' right-hand side, lower and upper their bands, and
    dp_prev the eliminated right-hand side of the row before them. Each sweep
    is a first-order recurrence with a constant multiplier g, run by
    recursive doubling: after the pass with shift s every entry holds the
    exact sum of its window of 2s terms, and the terms beyond it carry weight
    |g|^(2s), so the passes stop once that falls under eps or the window
    spans the tail.
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

"""Exponential-kernel (Caputo-Fabrizio) fractional time derivative, discretized.

For order alpha in (0,1) and step dtau the discrete derivative of a series
v^0..v^n at level n is

    D_alpha v(t_n) = P * sum_{k=1..n} (v^{n+1-k} - v^{n-k}) * rho^k,

with geometric weights rho = exp(-alpha*dtau/(1-alpha)) and prefactor
P = (exp(alpha*dtau/(1-alpha)) - 1) / (dtau*alpha). The truncation error of
this quadrature is O(dtau) and independent of alpha; for a series linear in
time it is exact. As alpha -> 1 the weights collapse (rho -> 0, P*rho -> 1/dtau)
and the operator tends to the one-step backward difference. The classical mode
alpha = 1 is that limit taken exactly: its weights have decay 0, so its
accumulated sums stay exact zeros.

The scheme's rows take the memory through the row weight
q_eff = dtau*alpha/(1 - rho) = 1/(P*rho), the q-scaled weight
q = dtau*alpha/(e^x - 1) divided by rho (x = alpha*dtau/(1-alpha)). It is
formed from expm1(-x), so it stays finite where P and 1/rho overflow, and it
is exactly dtau at alpha = 1.

The weighted sum is accumulated recursively: history_push multiplies the
running sums by rho and adds the newest increment, so a time march costs O(1)
per node per step instead of O(n). At level n the sums are

    sums[m] = sum_{k=1..n} (v^{n+1-k}[m] - v^{n-k}[m]) * rho^k,

a plain array that the stepper's state carries next to its CFWeights. In the
march the memory is rho times the last step's band operator: a level's rows
read (u - v) + S_n = Lambda_n, with Lambda_n the bands applied to u + v, so
the push gives S_{n+1} = rho*Lambda_n. The naive summation is kept as an
oracle.

Note the continuous kernel definition carries a 1/(1-alpha) normalization that
the discrete weights above absorb into P; the alpha -> 1 limit test pins the
convention down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "CFWeights",
    "cf_weights",
    "memory_exponent",
    "history_sum_naive",
    "history_push",
]


@dataclass(frozen=True)
class CFWeights:
    """Discretization constants for order alpha in (0,1]."""

    alpha: float
    dtau: float
    decay: float       # rho = exp(-alpha*dtau/(1-alpha)), in [0,1); 0 at alpha = 1
    row_weight: float  # q_eff = dtau*alpha/(1 - rho), years; dtau at alpha = 1


def memory_exponent(alpha: float, dtau: float) -> float:
    """x = alpha*dtau/(1-alpha), so rho = exp(-x); inf at alpha = 1."""
    return alpha * dtau / (1.0 - alpha) if alpha < 1.0 else math.inf


def cf_weights(alpha: float, dtau: float) -> CFWeights:
    """Build the discretization constants; alpha = 1 has decay 0."""
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValidationError(["dtau must be positive"])
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ValidationError(["alpha must lie in (0,1]"])
    expo = memory_exponent(alpha, dtau)
    return CFWeights(
        alpha=alpha,
        dtau=dtau,
        decay=math.exp(-expo),
        # alpha*dtau may underflow to 0, where the weight's limit is 1 - alpha
        row_weight=dtau * alpha / (-math.expm1(-expo)) if expo else 1.0 - alpha,
    )


def history_sum_naive(series: Sequence[float], w: CFWeights) -> float:
    """Direct O(n) evaluation of the weighted increment sum for one node.

    series holds v^0..v^n; requires n >= 1.
    """
    vals = np.asarray(series, dtype=float)
    n = vals.size - 1
    if n < 1:
        raise ValidationError(["series must hold at least two levels"])
    total = 0.0
    for k in range(1, n + 1):
        total += (vals[n + 1 - k] - vals[n - k]) * w.decay**k
    return total


def history_push(
    sums: np.ndarray, v_new: np.ndarray, v_prev: np.ndarray, w: CFWeights
) -> np.ndarray:
    """The sums one level on: decay*(sums + v_new - v_prev), a new array."""
    if v_new.shape != sums.shape or v_prev.shape != sums.shape:
        raise ValidationError(["node vectors must match the sums' length"])
    return w.decay * (sums + (v_new - v_prev))

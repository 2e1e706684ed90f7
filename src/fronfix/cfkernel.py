"""Exponential-kernel (Caputo-Fabrizio) fractional time derivative, discretized.

For order alpha in (0,1) and step dtau the discrete derivative of a series
v^0..v^n at level n is

    D_alpha v(t_n) = P * sum_{k=1..n} (v^{n+1-k} - v^{n-k}) * rho^k,

with geometric weights rho = exp(-alpha*dtau/(1-alpha)) and prefactor
P = (exp(alpha*dtau/(1-alpha)) - 1) / (dtau*alpha). The truncation error of
this quadrature is O(dtau) and independent of alpha; for a series linear in
time it is exact. As alpha -> 1 the weights collapse (rho -> 0, P*rho -> 1/dtau)
and the operator tends to the one-step backward difference. The classical mode
alpha = 1 is that limit taken exactly: its weights have decay 0 (and an
infinite prefactor), so its accumulated sums stay exact zeros.

The scheme's rows take the memory through the row weight
q_eff = dtau*alpha/(1 - rho), the q-scaled weight q = dtau*alpha/(e^x - 1)
divided by rho (x = alpha*dtau/(1-alpha)). It is formed from expm1(-x), so it
stays finite where P and 1/rho overflow, and it is exactly dtau at alpha = 1.
At decay 0 the product P * sums is inf * 0 = NaN, not the backward
difference: the stepper never forms it, and reaches that limit through
q_eff = dtau instead.

The weighted sum is accumulated recursively: pushing a new level multiplies the
running sum by rho and adds the newest increment, so a time march costs O(1)
per node per step instead of O(n). The naive summation is kept as an oracle.

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
    "HistoryAccumulator",
    "cf_weights",
    "empty_history",
    "history_sum_naive",
    "history_push",
]


@dataclass(frozen=True)
class CFWeights:
    """Discretization constants for order alpha in (0,1]."""

    alpha: float
    dtau: float
    decay: float       # rho = exp(-alpha*dtau/(1-alpha)), in [0,1); 0 at alpha = 1
    prefactor: float   # P = (exp(alpha*dtau/(1-alpha)) - 1)/(dtau*alpha), 1/years
    row_weight: float  # q_eff = dtau*alpha/(1 - rho), years; dtau at alpha = 1


def cf_weights(alpha: float, dtau: float) -> CFWeights:
    """Build the discretization constants; alpha = 1 has decay 0."""
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValidationError(["dtau must be positive"])
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ValidationError(["alpha must lie in (0,1]"])
    expo = alpha * dtau / (1.0 - alpha) if alpha < 1.0 else math.inf
    try:
        prefactor = math.expm1(expo) / (dtau * alpha)
    except OverflowError:
        prefactor = math.inf  # alpha so close to 1 the prefactor exceeds float range
    return CFWeights(
        alpha=alpha,
        dtau=dtau,
        decay=math.exp(-expo),
        prefactor=prefactor,
        row_weight=dtau * alpha / (-math.expm1(-expo)),
    )


@dataclass(frozen=True)
class HistoryAccumulator:
    """Running weighted increment sums, one per node.

    sums[m] = sum_{k=1..n} (v^{n+1-k}[m] - v^{n-k}[m]) * decay^k at level n.
    Classical mode has decay 0, so its sums stay zero.
    """

    sums: np.ndarray
    level: int
    weights: CFWeights

    def __post_init__(self):
        sums = np.asarray(self.sums, dtype=float)
        sums.setflags(write=False)
        object.__setattr__(self, "sums", sums)


def empty_history(n_nodes: int, w: CFWeights) -> HistoryAccumulator:
    return HistoryAccumulator(sums=np.zeros(n_nodes), level=0, weights=w)


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
    acc: HistoryAccumulator, v_new: np.ndarray, v_prev: np.ndarray
) -> HistoryAccumulator:
    """Advance the accumulator by one level: S <- decay*(S + v_new - v_prev)."""
    v_new = np.asarray(v_new, dtype=float)
    v_prev = np.asarray(v_prev, dtype=float)
    if v_new.shape != acc.sums.shape or v_prev.shape != acc.sums.shape:
        raise ValidationError(["node vectors must match the accumulator length"])
    return HistoryAccumulator(
        sums=acc.weights.decay * (acc.sums + (v_new - v_prev)),
        level=acc.level + 1,
        weights=acc.weights,
    )


"""Independent American-put pricers used as ground truth at desk scale.

Deliberately shares no discretization machinery with the front-fixing
solver: a Cox-Ross-Rubinstein binomial tree, a Crank-Nicolson solve of the
obstacle problem on an asset-price grid (each level solved exactly by the
Brennan-Schwartz sweep), and the closed-form European put as a lower bound.
All three assume classical Black-Scholes dynamics.

The tree reads each level's node prices from two power tables built once,
S0 * up**k and down**k, with the bits of the per-level loop that
tests/oracle_reference.py keeps beside a projected-SOR check of the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ModelParams, validate_params

__all__ = [
    "OraclePrice",
    "check_oracle_inputs",
    "binomial_american_put",
    "psor_american_put",
    "european_put_closed_form",
]

_S_MAX_PER_STRIKE = 4.0  # the obstacle grid ends at S_max = 4E


@dataclass(frozen=True)
class OraclePrice:
    price: float
    method: str
    resolution: int
    boundary_estimate: float | None = None


def check_oracle_inputs(
    p: ModelParams,
    S0: float,
    *,
    steps: int | None = None,
    M_s: int | None = None,
    N_t: int | None = None,
) -> None:
    """Raise a ValidationError listing every input the oracles cannot price.

    The model must pass validate_params and be classical (alpha = 1): all
    three oracles price Black-Scholes dynamics only. Each oracle passes the
    inputs it uses (None: not used), the tree its steps and the obstacle solve
    its grid; `fronfix oracle-compare` passes them all before anything runs."""
    bad = []
    try:
        validate_params(p)
    except ValidationError as exc:
        bad.extend(exc.violations)
    if 0.0 < p.alpha < 1.0:
        bad.append(
            f"the oracles price the classical model only (alpha = 1), got alpha = {p.alpha}"
        )
    if not (math.isfinite(S0) and S0 > 0):
        bad.append(f"S0 must be positive and finite, got {S0}")
    for name, value, least in (("steps", steps, 1), ("Ms", M_s, 3), ("Nt", N_t, 1)):
        if value is not None and value < least:
            bad.append(f"{name} must be >= {least}, got {value}")
    if M_s is not None:  # the obstacle grid ends at S_max, which 4E may overflow
        S_max = _S_MAX_PER_STRIKE * p.E
        if not (math.isfinite(S_max) and S_max > 0):
            bad.append(f"S_max must be positive and finite, got {S_max}")
    if bad:
        raise ValidationError(bad)


def _norm_cdf(x: float) -> float:
    # standard normal CDF through erfc; relative error well below 1e-12
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def european_put_closed_form(p: ModelParams, S0: float) -> float:
    """Black-Scholes put value (the American price can never fall below it)."""
    check_oracle_inputs(p, S0)
    vol = p.sigma * math.sqrt(p.T)
    if vol < 1e-12:
        return max(p.E * math.exp(-p.r * p.T) - S0, 0.0)
    d1 = (math.log(S0 / p.E) + (p.r + 0.5 * p.sigma**2) * p.T) / vol
    d2 = d1 - vol
    return p.E * math.exp(-p.r * p.T) * _norm_cdf(-d2) - S0 * _norm_cdf(-d1)


def binomial_american_put(p: ModelParams, S0: float, steps: int) -> OraclePrice:
    """Cox-Ross-Rubinstein backward induction with exercise at every node."""
    check_oracle_inputs(p, S0, steps=steps)
    dt = p.T / steps
    up = math.exp(p.sigma * math.sqrt(dt))
    down = 1.0 / up
    prob = (math.exp(p.r * dt) - down) / (up - down)
    if not 0.0 <= prob <= 1.0:
        raise ValidationError(["tree probability outside [0,1]; refine steps"])
    disc = math.exp(-p.r * dt)

    k = np.arange(steps + 1)
    s_up = S0 * up**k  # S0 * up**(level - j) is s_up[level - j]
    down_k = down**k
    values = np.maximum(p.E - s_up[::-1] * down_k, 0.0)
    for level in range(steps - 1, -1, -1):
        values = np.maximum(disc * (prob * values[:-1] + (1.0 - prob) * values[1:]),
                            p.E - s_up[level::-1] * down_k[: level + 1])
    return OraclePrice(price=float(values[0]), method="binomial", resolution=steps)


def psor_american_put(
    p: ModelParams, S0: float, M_s: int = 400, N_t: int = 400
) -> OraclePrice:
    """Crank-Nicolson solve of the obstacle problem by the Brennan-Schwartz sweep.

    Uniform grid of M_s >= 3 intervals on [0, S_max = 4E] and N_t >= 1 steps,
    with V(0) = E and V(S_max) = 0 pinned. A put has one exercise interval, so
    each level's complementarity problem is solved exactly by one elimination
    from S_max down and one back-substitution up from S = 0 that takes
    max(., payoff) (Brennan & Schwartz 1977; Jaillet, Lamberton & Lapeyre
    1990). boundary_estimate is the largest grid price still inside the
    exercise region at the final level. The name, from the projected-SOR
    solve this replaced, is kept for its callers.
    """
    check_oracle_inputs(p, S0, M_s=M_s, N_t=N_t)
    S_max = _S_MAX_PER_STRIKE * p.E
    ds = S_max / M_s
    dt = p.T / N_t
    S = ds * np.arange(M_s + 1)
    payoff = np.maximum(p.E - S, 0.0)

    diff = 0.5 * p.sigma**2 * S[1:-1] ** 2 / ds**2
    conv = 0.5 * p.r * S[1:-1] / ds
    # L V = diff*(V[i+1]-2V[i]+V[i-1]) + conv*(V[i+1]-V[i-1]) - r*V[i]
    lo = diff - conv
    di = -2.0 * diff - p.r
    up = diff + conv
    # implicit side (I - dt/2 L), explicit side (I + dt/2 L)
    a_lo = (-0.5 * dt * lo).tolist()
    pivot = (1.0 - 0.5 * dt * di).tolist()  # the diagonal, until eliminated
    a_up = (-0.5 * dt * up).tolist()
    b_lo = 0.5 * dt * lo
    b_di = 1.0 + 0.5 * dt * di
    b_up = 0.5 * dt * up

    # eliminate from S_max down once: row j less ratio times row j+1 is
    # a_lo[j] V[j] + pivot[j] V[j+1]; the top row's upper neighbour is the
    # pin V(S_max) = 0, so its ratio multiplies nothing
    ratio_down = [0.0]
    for j in range(M_s - 3, -1, -1):
        ratio_down.append(a_up[j] / pivot[j + 1])
        pivot[j] -= ratio_down[-1] * a_lo[j + 1]
    floor = payoff[1:-1].tolist()

    V = payoff.copy()
    for _ in range(N_t):
        rhs = (b_lo * V[:-2] + b_di * V[1:-1] + b_up * V[2:]).tolist()
        q = 0.0
        q_down = [q := r_j - m * q for r_j, m in zip(reversed(rhs), ratio_down)]
        v = p.E  # the pin V(0) = E
        V[1:-1] = [v := max((q_j - lo_j * v) / piv, f)
                   for q_j, lo_j, piv, f in zip(reversed(q_down), a_lo, pivot, floor)]

    exercised = np.nonzero(V <= payoff + 1e-7)[0]
    in_money = exercised[payoff[exercised] > 0]
    boundary = float(S[in_money.max()]) if in_money.size else None

    if S0 >= S_max:
        price = 0.0
    else:
        k = min(int(S0 // ds), M_s - 1)
        frac = (S0 - k * ds) / ds
        price = float((1.0 - frac) * V[k] + frac * V[k + 1])
    return OraclePrice(
        price=price, method="brennan-schwartz", resolution=M_s, boundary_estimate=boundary
    )

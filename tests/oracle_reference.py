"""The lattice oracles as first written, kept as the references for
`fronfix.oracles`.

The tree recomputes each level's node prices with two `**` arrays; the
production tree must return the same bits, so a comparison on one machine
does not depend on the platform's libm. PSOR sweeps each colour through
index arrays with fresh temporaries until a tolerance is met; run to a tight
one, it is the independent check of the production Brennan-Schwartz sweep,
which solves the same obstacle problem exactly on each level.
"""

from __future__ import annotations

import math

import numpy as np

from fronfix.errors import FronfixError, ValidationError
from fronfix.model import ModelParams
from fronfix.oracles import OraclePrice


def binomial_american_put(p: ModelParams, S0: float, steps: int) -> OraclePrice:
    """Cox-Ross-Rubinstein backward induction with exercise at every node."""
    if steps < 1:
        raise ValidationError(["steps must be >= 1"])
    if S0 <= 0:
        raise ValidationError(["S0 must be positive"])
    dt = p.T / steps
    up = math.exp(p.sigma * math.sqrt(dt))
    down = 1.0 / up
    prob = (math.exp(p.r * dt) - down) / (up - down)
    if not 0.0 <= prob <= 1.0:
        raise ValidationError(["tree probability outside [0,1]; refine steps"])
    disc = math.exp(-p.r * dt)

    j = np.arange(steps + 1)
    prices = S0 * up ** (steps - j) * down**j
    values = np.maximum(p.E - prices, 0.0)
    for level in range(steps - 1, -1, -1):
        j = np.arange(level + 1)
        prices = S0 * up ** (level - j) * down**j
        values = disc * (prob * values[:-1] + (1.0 - prob) * values[1:])
        values = np.maximum(values, p.E - prices)
    return OraclePrice(price=float(values[0]), method="binomial", resolution=steps)


def psor_american_put(
    p: ModelParams,
    S0: float,
    M_s: int = 400,
    N_t: int = 400,
    omega: float = 1.4,
    tol: float = 1e-9,
    S_max: float | None = None,
    max_sweeps: int = 10000,
) -> OraclePrice:
    """Crank-Nicolson solve of the obstacle problem with projected SOR.

    Uniform grid on [0, S_max]; each time level solves the linear
    complementarity problem by over-relaxed sweeps projected onto the payoff.
    The sweeps use a two-color ordering so the update vectorizes; boundary
    rows are pinned to V(0) = E and V(S_max) = 0. boundary_estimate is the
    largest grid price still inside the exercise region at the final level.
    """
    if not 0.0 < omega < 2.0:
        raise ValidationError(["omega must lie in (0,2)"])
    if tol <= 0:
        raise ValidationError(["tol must be positive"])
    if S0 <= 0:
        raise ValidationError(["S0 must be positive"])
    if S_max is None:
        S_max = 4.0 * p.E
    ds = S_max / M_s
    dt = p.T / N_t
    S = ds * np.arange(M_s + 1)
    payoff = np.maximum(p.E - S, 0.0)

    i = np.arange(1, M_s)
    si = S[i]
    diff = 0.5 * p.sigma**2 * si**2 / ds**2
    conv = 0.5 * p.r * si / ds
    # L V = diff*(V[i+1]-2V[i]+V[i-1]) + conv*(V[i+1]-V[i-1]) - r*V[i]
    lo = diff - conv
    di = -2.0 * diff - p.r
    up = diff + conv

    # implicit side (I - dt/2 L), explicit side (I + dt/2 L)
    a_lo = -0.5 * dt * lo
    a_di = 1.0 - 0.5 * dt * di
    a_up = -0.5 * dt * up
    b_lo = 0.5 * dt * lo
    b_di = 1.0 + 0.5 * dt * di
    b_up = 0.5 * dt * up

    V = payoff.copy()
    odd = np.arange(1, M_s, 2)
    even = np.arange(2, M_s, 2)
    for _ in range(N_t):
        rhs = b_lo * V[:-2] + b_di * V[1:-1] + b_up * V[2:]
        Vn = np.maximum(V.copy(), payoff)
        Vn[0] = p.E
        Vn[-1] = 0.0
        converged = False
        for _sweep in range(max_sweeps):
            delta = 0.0
            for color in (odd, even):
                ci = color - 1  # index into interior arrays
                gs = (rhs[ci] - a_lo[ci] * Vn[color - 1] - a_up[ci] * Vn[color + 1]) / a_di[ci]
                new = np.maximum((1.0 - omega) * Vn[color] + omega * gs, payoff[color])
                delta = max(delta, float(np.max(np.abs(new - Vn[color]))))
                Vn[color] = new
            if delta < tol:
                converged = True
                break
        if not converged:
            raise FronfixError("projected SOR failed to converge within max sweeps")
        V = Vn

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
        price=price, method="psor", resolution=M_s, boundary_estimate=boundary
    )

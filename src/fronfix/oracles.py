"""Independent American-put pricers used as ground truth at desk scale.

Deliberately shares no discretization machinery with the front-fixing
solver: a Cox-Ross-Rubinstein binomial tree, a projected-SOR Crank-Nicolson
solve of the variational inequality on an asset-price grid, and the
closed-form European put as a lower bound. All three assume classical
Black-Scholes dynamics.

The tree reads each level's node prices from two power tables built once,
S0 * up**k and down**k; PSOR sweeps each colour as a strided slice of the
grid. Both give the bits of the per-level loops they replaced, which
tests/oracle_reference.py keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FronfixError, ValidationError
from .model import ModelParams, validate_params

__all__ = [
    "OraclePrice",
    "check_oracle_inputs",
    "binomial_american_put",
    "psor_american_put",
    "european_put_closed_form",
]

_S_MAX_PER_STRIKE = 4.0  # PSOR's grid ends at S_max = 4E
_MAX_SWEEPS = 10000  # PSOR sweeps per time level before it gives up


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
    omega: float | None = None,
) -> None:
    """Raise a ValidationError listing every input the oracles cannot price.

    The model must pass validate_params and be classical (alpha = 1): all
    three oracles price Black-Scholes dynamics only. Each oracle passes the
    inputs it uses (None: not used), and `fronfix oracle-compare` passes them
    all before anything runs."""
    bad = []
    try:
        validate_params(p)
    except ValidationError as exc:
        bad.extend(exc.violations)
    if 0.0 < p.alpha < 1.0:
        bad.append(
            f"the oracles price the classical model only (alpha = 1), got alpha = {p.alpha}"
        )
    if omega is not None and not 0.0 < omega < 2.0:
        bad.append("omega must lie in (0,2)")
    if not (math.isfinite(S0) and S0 > 0):
        bad.append(f"S0 must be positive and finite, got {S0}")
    for name, value, least in (("steps", steps, 1), ("Ms", M_s, 3), ("Nt", N_t, 1)):
        if value is not None and value < least:
            bad.append(f"{name} must be >= {least}, got {value}")
    if M_s is not None:  # PSOR's grid ends at S_max, which 4E may overflow
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
    scratch = np.empty(steps)
    for level in range(steps - 1, -1, -1):
        cont = values[: level + 1]
        tmp = scratch[: level + 1]
        # disc * (prob * values[:-1] + (1 - prob) * values[1:]), in place
        np.multiply(1.0 - prob, values[1 : level + 2], out=tmp)
        np.multiply(prob, cont, out=cont)
        np.add(cont, tmp, out=cont)
        np.multiply(disc, cont, out=cont)
        # maximum(continuation, E - prices)
        np.multiply(s_up[level::-1], down_k[: level + 1], out=tmp)
        np.subtract(p.E, tmp, out=tmp)
        np.maximum(cont, tmp, out=cont)
    return OraclePrice(price=float(values[0]), method="binomial", resolution=steps)


def psor_american_put(
    p: ModelParams,
    S0: float,
    M_s: int = 400,
    N_t: int = 400,
    omega: float = 1.4,
    tol: float = 1e-9,
) -> OraclePrice:
    """Crank-Nicolson solve of the obstacle problem with projected SOR.

    Uniform grid of M_s >= 3 intervals on [0, S_max = 4E] and N_t >= 1 steps;
    each time level solves the linear complementarity problem by
    over-relaxed sweeps projected onto the payoff. The sweeps use a two-colour
    ordering so the update vectorizes: each colour is a strided slice (odd
    nodes, then even), with the bits of a sweep over index arrays. Boundary
    rows are pinned to V(0) = E and V(S_max) = 0. boundary_estimate is the
    largest grid price still inside the exercise region at the final level.
    """
    check_oracle_inputs(p, S0, M_s=M_s, N_t=N_t, omega=omega)
    if tol <= 0:
        raise ValidationError(["tol must be positive"])
    S_max = _S_MAX_PER_STRIKE * p.E
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
    rhs = np.empty(M_s - 1)  # the colours below hold views of it
    colours = []
    for first in (1, 2):  # odd nodes, then even; interior row = node - 1
        node = slice(first, M_s, 2)
        row = slice(first - 1, M_s - 1, 2)
        colours.append((
            V[node], V[first - 1 : M_s - 1 : 2], V[first + 1 : M_s + 1 : 2],
            rhs[row], a_lo[row], a_up[row], a_di[row], payoff[node],
        ))
    relax = 1.0 - omega
    for _ in range(N_t):
        rhs[:] = b_lo * V[:-2] + b_di * V[1:-1] + b_up * V[2:]
        np.maximum(V, payoff, out=V)
        V[0] = p.E
        V[-1] = 0.0
        converged = False
        for _sweep in range(_MAX_SWEEPS):
            delta = 0.0
            for mid, left, right, rhs_c, lo_c, up_c, di_c, floor in colours:
                gs = (rhs_c - lo_c * left - up_c * right) / di_c
                new = np.maximum(relax * mid + omega * gs, floor)
                delta = max(delta, float(np.abs(new - mid).max()))
                mid[...] = new
            if delta < tol:
                converged = True
                break
        if not converged:
            raise FronfixError("projected SOR failed to converge within max sweeps")

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

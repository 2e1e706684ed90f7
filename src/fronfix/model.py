"""Market model, computational grid, and the front-fixing change of variables.

The solver works on the dimensionless system obtained from the Black-Scholes
problem for an American put by the Landau-style substitution

    y = ln(X / X*(tau)),    X_f(tau) = X*(tau) / E,    v(y, tau) = V(X, tau) / E,

which maps the moving early-exercise boundary X*(tau) onto the fixed line
y = 0. Time is measured as tau = T - t (time to maturity), marching forward
from tau = 0 where v == 0 and X_f == 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "GridSpec",
    "SolutionSurface",
    "validate_params",
    "build_grid",
]


@dataclass(frozen=True)
class ModelParams:
    """Market and contract inputs.

    r      risk-free rate per year (>= 0)
    sigma  volatility per sqrt-year (> 0)
    E      strike price (> 0)
    T      expiry in years (> 0)
    alpha  fractional order in (0, 1]; alpha = 1 selects the classical
           time difference
    """

    r: float
    sigma: float
    E: float
    T: float
    alpha: float = 1.0

    @property
    def classical(self) -> bool:
        return self.alpha == 1.0


def validate_params(p: ModelParams) -> None:
    """Raise a ValidationError that lists every violated parameter invariant."""
    bad: list[str] = []
    for name in ("r", "sigma", "E", "T", "alpha"):
        if not math.isfinite(getattr(p, name)):
            bad.append(f"{name} must be finite")
    if math.isfinite(p.sigma) and p.sigma <= 0:
        bad.append("sigma must be positive")
    if math.isfinite(p.E) and p.E <= 0:
        bad.append("E must be positive")
    if math.isfinite(p.T) and p.T <= 0:
        bad.append("T must be positive")
    if math.isfinite(p.r) and p.r < 0:
        bad.append("r must be nonnegative")
    if math.isfinite(p.alpha) and not 0.0 < p.alpha <= 1.0:
        bad.append("alpha must lie in (0,1]")
    if bad:
        raise ValidationError(bad)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, Y] x [0, N*dtau].

    The time step is slaved to the space step through the grid ratio:
    dy = Y/M, dtau = mu*dy^2, N = ceil(T/dtau). The last level may overshoot
    T by less than dtau; N*dtau is the achieved horizon.
    """

    Y: float
    M: int
    mu: float
    dy: float
    dtau: float
    N: int


def _guarded_ceil(x: float) -> int:
    # bare ceil() bumps exact divisions by one step due to binary rounding
    n = math.ceil(x)
    if n - 1 >= x * (1.0 - 1e-9):
        n -= 1
    return max(n, 1)


def build_grid(p: ModelParams, M: int, mu: float, Y: float | None = None) -> GridSpec:
    """Construct the grid; Y defaults to 4, a bound on y = ln(X/X*), which has
    no units (so the default does not scale with the strike)."""
    validate_params(p)
    if Y is None:
        Y = 4.0
    bad: list[str] = []
    if not isinstance(M, (int, np.integer)) or M < 4:
        bad.append("M must be an integer >= 4")
    if not (math.isfinite(mu) and mu > 0):
        bad.append("mu must be positive")
    if not (math.isfinite(Y) and Y > 0):
        bad.append("Y must be positive")
    if bad:
        raise ValidationError(bad)
    dy = Y / M
    dtau = mu * dy * dy
    # numpy indexes at most sys.maxsize bytes; a grid has N + 1 < T/dtau + 2 levels
    if not dtau > 0 or (p.T / dtau + 2) * (M + 1) * 8 > sys.maxsize:
        raise ValidationError([f"mu={mu!r} gives dtau={dtau!r}: too many levels to index"])
    N = _guarded_ceil(p.T / dtau)
    return GridSpec(Y=float(Y), M=int(M), mu=float(mu), dy=dy, dtau=dtau, N=N)


@dataclass(frozen=True)
class SolutionSurface:
    """Dimensionless solution values v[n, m] and the boundary path xf[n].

    Structural identities are enforced at construction: the initial level is
    zero with xf[0] = 1, the far-field column is zero, and v[n, 0] = 1 - xf[n].
    Value bounds (0 <= v <= 1, 0 < xf <= 1) are audited, not enforced, since
    fractional-order runs can legitimately violate them near tau = 0.
    """

    v: np.ndarray
    xf: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        xf = np.asarray(self.xf, dtype=float)
        if v.ndim != 2 or xf.ndim != 1 or v.shape[0] != xf.shape[0]:
            raise ValidationError(["surface shapes are inconsistent"])
        if xf[0] != 1.0 or np.any(v[0] != 0.0):
            raise ValidationError(["initial level must be v=0 with xf=1"])
        if np.any(v[:, -1] != 0.0):
            raise ValidationError(["far-field column must be zero"])
        if np.any(v[:, 0] != 1.0 - xf):
            raise ValidationError(["v[n,0] must equal 1 - xf[n]"])
        v.setflags(write=False)
        xf.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "xf", xf)

    @property
    def levels(self) -> int:
        return self.v.shape[0]

    @property
    def nodes(self) -> int:
        return self.v.shape[1]

"""Front-fixing Crank-Nicolson time stepper with fractional memory.

Interior scheme. The rows take the row weight q_eff = dtau*alpha/(1 - rho)
from cfkernel.cf_weights (dtau in the classical mode, alpha = 1); with it the
per-step coefficients are

    A = q_eff*(sigma^2/(4 dy^2) + (r - sigma^2/2)/(4 dy) + dX/(4 dy dtau xf)),
    C = q_eff*(sigma^2/(4 dy^2) - (r - sigma^2/2)/(4 dy) - dX/(4 dy dtau xf)),
    B = -(q_eff/2)*(sigma^2/dy^2 + r),        dX = xf_next - xf_curr,

and the row for the unknown level u couples the Crank-Nicolson average of the
spatial operator at levels n and n+1 to the exponential-memory time difference:

    A u[m+1] + (B - 1) u[m] + C u[m-1]
        = S[m] - v[m] - (A v[m+1] + B v[m] + C v[m-1]),

with S the accumulated weighted-increment history (zero in classical mode).
The memory is the last step's band operator scaled by rho: collecting terms,
the row reads S + u - v = A w[m+1] + B w[m] + C w[m-1] with w = u + v, so the
push S' = rho*(S + u - v) leaves S' = rho times that.
The paper's triple, with the weight q = dtau*alpha/(e^x - 1),
x = alpha*dtau/(1-alpha), is these rows times rho: the memory sum is attached
to the new level, so its leading term rho*(u - v) is implicit, and dividing
the paper's row by rho gives a single code path whose alpha -> 1 limit is the
classical Crank-Nicolson scheme.

Boundary closure. The boundary system is value matching v(0) = 1 - X_f,
smooth pasting v_y(0) = -X_f eliminating the ghost node at the new level, and
the boundary relation (sigma^2/2) v_yy(0) + (sigma^2/2) X_f - r = 0, giving

    v[1] = 1 - (1 + dy) X_f + (dy^2/sigma^2) (r - (sigma^2/2) X_f).

Eliminating v[1] between this closure and the m = 1 scheme row yields the
scalar update X_f^{n+1} = Omega1/Omega2 used by the inner iteration; the
denominator is guarded because it can degenerate.

Each time step solves the nonlinear pair (interior tridiagonal solve,
free-boundary scalar root) by a safeguarded secant iteration on the pole-free
residual R(x) = Omega1(x) - x*Omega2(x), with a bisection fallback once a sign
change is bracketed. Failures surface as typed errors carrying the step index.

Truncated sweep. The update reads a candidate level only at nodes 0 and 2, so
the iteration gets u[2] from the leading rows alone and only the converged
boundary gets a full solve. With the step's constants fixed, a candidate x
changes the rows only through k = beta + drift(x) (A = theta + k,
C = theta - k): the right-hand side is F0 - k*dv, with
F0 = S - v - (B v + theta (v[m+1] + v[m-1])) and dv = v[m+1] - v[m-1]
computed once per step, and the first row also gets -C*(1 - x).

When the rows are strictly dominant, margin = |B - 1| - |A| - |C| > 0,
Varah's bound gives |x|_inf <= |f|_inf/margin and every Thomas factor obeys
|cp_i| <= |A|/(|B - 1| - |C|) < 1. Stopping the forward sweep at row K and
back-substituting from x[K] = dp[K] then moves u[2] by at most
prod_{1 <= i <= K} |cp_i| * |f|_inf/margin. The sweep stops at the first K
where prod |cp_i| <= u*min(1, margin/|f|_inf), u = 2^-53 the unit roundoff,
so the neglected part stays under u*min(|f|_inf/margin, 1): half an ulp of
the largest value the level can take. The inverse decays geometrically away
from the diagonal (Demko, Moss & Smith, Math. Comp. 43, 1984), so K is a few
dozen rows at M = 800, and the bound on |cp_i| caps it before the sweep
starts. A candidate whose rows are not strictly dominant, or for which no row
before the last certifies, takes the full solve instead.

Level solve. The step constants build the full solve's level themselves
(the converged boundary, and the fallback above): they hand the three constant
bands as scalars to tridiag.solve_constant_bands, which writes the level
straight into u[1:-1]. The diagonal B - 1 <= -1 and the signs of A and C keep
every Thomas pivot at magnitude 1 or more, so that solve checks none. Its
right-hand side is
(S - v) - (A v[m+1] + B v[m] + C v[m-1]), built from the S - v and B v that
F0 is built from, not F0 - k*dv: the two round differently, and a level one
ulp off moves the boundary, which the Y-truncation acceptance check compares
to the last bit.

Classical mode is decay 0: its sums stay exact zeros, which the right-hand
side reads like any others, and no history is pushed.

State. A StepState is plain data: the level, its boundary, the memory's
weighted increment sums and the run's CFWeights. Nothing checks a state when
it is built; time_step checks v[0] = 1 - xf and v[M] = 0 where the state
enters, and returns a new state without writing into the one it was given.

March. march(p, g) yields the states from initial_state through the N
time_steps and keeps none of them. run_solver writes each level into the
surface; final_level keeps only the level in hand and the (N+1)-float
boundary path, which is all the studies read. Every price, from a surface or
from a last level, goes through level_price, and every price or study result
through _check_boundary_path, which refuses a boundary path that left (0, 1]
or fell below the perpetual put's boundary.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cfkernel import CFWeights, cf_weights, history_push
from .errors import (
    DenominatorNearZeroError,
    DomainError,
    NonConvergenceError,
    ValidationError,
)
from .model import (
    GridSpec,
    ModelParams,
    SolutionSurface,
    build_grid,
)
from .tridiag import solve_constant_bands

__all__ = [
    "StepState",
    "StepStats",
    "SolverRun",
    "initial_state",
    "time_step",
    "march",
    "run_solver",
    "final_level",
    "price_at",
    "level_price",
]

_DENOM_FLOOR = 1e-12
_DENOM_WARN = 1e-6
_UNIT_ROUNDOFF = 2.0**-53
_TOL_XF = 1e-10  # the inner iteration stops once |proposal - x| <= this
_MAX_ITER = 50
_MARGIN_FLOOR = 1e-14  # the truncated sweep takes rows dominant by more than this


@dataclass(frozen=True)
class StepStats:
    iterations: int
    closure_residual: float
    denominator_warning: bool
    min_abs_denominator: float


@dataclass(frozen=True)
class StepState:
    """Solver state at time level n: the level, its boundary, the memory's
    weighted increment sums (exact zeros at decay 0) and the run's weights."""

    v_curr: np.ndarray
    xf_curr: float
    sums: np.ndarray
    w: CFWeights
    n: int
    stats: StepStats | None = None


class _Rows:
    """The parts of the rows fixed by the row weight q and xf_curr: theta,
    beta, the diagonal B and the drift's denominator. Plain arithmetic, so an
    array of xf_curr gives every step's rows at once; callers refuse a zero."""

    __slots__ = ("q", "xf_curr", "theta", "beta", "b_diag", "den")

    def __init__(self, p: ModelParams, g: GridSpec, q: float, xf_curr: float | np.ndarray):
        sig2 = p.sigma * p.sigma
        self.q, self.xf_curr = q, xf_curr
        self.theta = q * sig2 / (4.0 * g.dy * g.dy)
        self.beta = q * (p.r - sig2 / 2.0) / (4.0 * g.dy)
        self.b_diag = -(q / 2.0) * (sig2 / (g.dy * g.dy) + p.r)
        self.den = 4.0 * g.dy * g.dtau * xf_curr

    def bands(self, x: float | np.ndarray) -> tuple:
        """Upper band A, lower band C and the drift for candidate boundary x."""
        drift = self.q * (x - self.xf_curr) / self.den
        return self.theta + self.beta + drift, self.theta - self.beta - drift, drift


class _StepConstants(_Rows):
    """What the candidates of one time step share.

    The row constants (the weights' row weight q_eff), the closure line
    v[1] = g0 + g1*xf_next and the candidate-free parts F0 and dv of the
    right-hand side (see the module docstring) are computed once per step, so
    a candidate costs a short scalar sweep.
    """

    __slots__ = (
        "omega", "g0", "g1", "hist1", "v0", "v1", "v2", "v_up", "v_down",
        "hv", "bv", "f0", "dv", "f0_max", "dv_max",
    )

    def __init__(self, state: StepState, p: ModelParams, g: GridSpec):
        if state.xf_curr == 0.0:
            raise ValidationError(["xf_curr must be nonzero"])
        super().__init__(p, g, state.w.row_weight, state.xf_curr)
        v = state.v_curr
        self.omega = self.q / self.den
        self.g1 = -(1.0 + g.dy) - g.dy * g.dy / 2.0
        self.g0 = 1.0 + (g.dy * g.dy / (p.sigma * p.sigma)) * p.r
        # classical mode reads its sums too: they are exact zeros
        self.hist1 = float(state.sums[1])
        self.v0, self.v1, self.v2 = v[:3].tolist()
        self.v_up, self.v_down = v[2:], v[:-2]
        # S - v and B v, shared by F0 and the level's right-hand side
        self.hv = state.sums[1:-1] - v[1:-1]
        self.bv = self.b_diag * v[1:-1]
        self.f0 = self.hv - (self.bv + self.theta * (self.v_up + self.v_down))
        self.dv = self.v_up - self.v_down
        self.f0_max = float(np.abs(self.f0).max())
        self.dv_max = float(np.abs(self.dv).max())

    def omega_parts(self, u0: float, u2: float) -> tuple[float, float, float]:
        """Numerator, denominator, and denominator scale of the boundary update
        for a candidate level with u[0] = u0 and u[2] = u2."""
        theta, beta, omega, b_diag = self.theta, self.beta, self.omega, self.b_diag
        up_pair = u2 + self.v2
        low_pair = u0 + self.v0
        diff = up_pair - low_pair
        total = up_pair + low_pair
        omega2 = omega * diff + (b_diag - 1.0) * self.g1
        omega1 = (
            self.hist1
            - theta * total
            - beta * diff
            + omega * self.xf_curr * diff
            - (b_diag - 1.0) * self.g0
            - (b_diag + 1.0) * self.v1
        )
        scale = max(1.0, abs(omega * diff), abs((b_diag - 1.0) * self.g1))
        return omega1, omega2, scale

    def level(self, x: float) -> np.ndarray:
        """The level for boundary x, its interior rows solved straight from
        their constant bands (v[0] = 1 - x, v[M] = 0)."""
        a, c, _ = self.bands(x)
        u = np.empty(self.hv.size + 2)
        u[0] = 1.0 - x
        u[-1] = 0.0
        rhs = self.hv - (a * self.v_up + self.bv + c * self.v_down)
        rhs[0] -= c * (1.0 - x)
        solve_constant_bands(c, self.b_diag - 1.0, a, rhs, u[1:-1])
        return u

    def truncated_node2(self, x: float) -> float | None:
        """u[2] of candidate x from the leading rows of the Thomas sweep.

        None when the rows are not strictly dominant or no row before the
        last certifies the truncation.
        """
        a, c, drift = self.bands(x)
        k = self.beta + drift
        d = self.b_diag - 1.0
        margin = abs(d) - abs(a) - abs(c)
        n = self.f0.size
        if not margin > _MARGIN_FLOOR or n < 3:
            return None
        f_bound = self.f0_max + abs(k) * self.dv_max + abs(c * (1.0 - x))
        limit = _UNIT_ROUNDOFF * margin / max(f_bound, margin)
        # every |cp_i| is at most rate < 1, so rate^K <= limit certifies by
        # row K; one spare row absorbs the rounding of the running product
        rate = abs(a) / (abs(d) - abs(c))
        rows = n - 1
        if rate > 0.0:
            rows = min(rows, math.ceil(math.log(limit) / math.log(rate)) + 2)
        f = (self.f0[:rows] - k * self.dv[:rows]).tolist()
        cp = a / d
        dp = (f[0] - c * (1.0 - x)) / d
        cps = [cp]
        dps = [dp]
        shrink = 1.0  # prod cp_i over rows 1..i
        for i in range(1, rows):
            piv = d - c * cp
            cp = a / piv
            dp = (f[i] - c * dp) / piv
            shrink *= cp
            if -limit <= shrink <= limit:
                xi = dp
                for j in range(i - 1, 0, -1):
                    xi = dps[j] - cps[j] * xi
                return xi
            cps.append(cp)
            dps.append(dp)
        return None

    def node2(self, x: float) -> float:
        """u[2] of candidate x: the truncated sweep, else the full solve."""
        u2 = self.truncated_node2(x)
        if u2 is None:
            u2 = float(self.level(x)[2])
        return u2


def initial_state(p: ModelParams, g: GridSpec) -> StepState:
    """All-zero value field with the boundary at the strike and an empty
    memory for order p.alpha."""
    return StepState(
        v_curr=np.zeros(g.M + 1),
        xf_curr=1.0,
        sums=np.zeros(g.M + 1),
        w=cf_weights(p.alpha, g.dtau),
        n=0,
    )


def time_step(state: StepState, p: ModelParams, g: GridSpec) -> StepState:
    """Advance one level: solve the coupled interior/boundary system.

    The scalar iterate starts at the current boundary, takes one plain
    fixed-point step, then secant steps on R(x) = Omega1 - x*Omega2 with a
    bisection safeguard once a sign change is bracketed. Each iterate reads
    u[2] from a truncated sweep; only the converged boundary gets a full solve.
    The memory, and with it the order alpha, enters through state.sums and
    state.w. The state must hold v[0] = 1 - xf and v[M] = 0; it is checked
    here, once per step, and left unchanged.
    """
    v = state.v_curr
    if v[0] != 1.0 - state.xf_curr:
        raise ValidationError(["state must satisfy v[0] = 1 - xf"])
    if v[-1] != 0.0:
        raise ValidationError(["state must satisfy v[M] = 0"])
    step = _StepConstants(state, p, g)
    x = state.xf_curr
    x_prev: float | None = None
    r_prev = 0.0
    lo: float | None = None
    hi: float | None = None
    warned = False
    min_abs_den = math.inf
    xf_next: float | None = None
    iterations = 0

    for k in range(_MAX_ITER):
        omega1, omega2, scale = step.omega_parts(1.0 - x, step.node2(x))
        if abs(omega2) < _DENOM_FLOOR * scale:
            raise DenominatorNearZeroError(state.n, omega2, _DENOM_FLOOR * scale)
        if abs(omega2) < _DENOM_WARN * scale:
            warned = True
        min_abs_den = min(min_abs_den, abs(omega2))
        proposal = omega1 / omega2
        residual = omega1 - x * omega2
        iterations = k + 1
        if abs(proposal - x) <= _TOL_XF:
            xf_next = proposal
            break
        if residual > 0.0:
            lo = x
        else:
            hi = x
        if x_prev is not None and residual != r_prev:
            x_new = x - residual * (x - x_prev) / (residual - r_prev)
        else:
            # not `proposal` itself: x + (proposal - x) rounds differently
            x_new = x + (proposal - x)
        if lo is not None and hi is not None:
            a, b = (lo, hi) if lo < hi else (hi, lo)
            if not a < x_new < b:
                x_new = 0.5 * (a + b)
        x_prev, r_prev = x, residual
        x = x_new
    if xf_next is None:
        raise NonConvergenceError(
            state.n, _MAX_ITER, (x_prev if x_prev is not None else x, x)
        )

    u = step.level(xf_next)
    stats = StepStats(
        iterations=iterations,
        closure_residual=abs(u[1] - (step.g0 + step.g1 * xf_next)),
        denominator_warning=warned,
        min_abs_denominator=min_abs_den,
    )
    # with decay 0 (classical) the sums stay zero, so nothing is pushed
    sums = history_push(state.sums, u, v, state.w) if state.w.decay else state.sums
    return StepState(
        v_curr=u,
        xf_curr=xf_next,
        sums=sums,
        w=state.w,
        n=state.n + 1,
        stats=stats,
    )


@dataclass(frozen=True)
class SolverRun:
    """Completed time march with per-step diagnostics."""

    surface: SolutionSurface
    params: ModelParams
    grid: GridSpec
    iterations: tuple[int, ...]
    closure_residuals: tuple[float, ...]
    denominator_warnings: tuple[int, ...]

    @property
    def achieved_horizon(self) -> float:
        return self.grid.N * self.grid.dtau

    @property
    def max_inner_iterations(self) -> int:
        return max(self.iterations) if self.iterations else 0


def march(p: ModelParams, g: GridSpec) -> Iterator[StepState]:
    """The states of one march: initial_state, then each of the N time_steps.

    Nothing is stored: a caller that keeps only the state in hand holds one
    level."""
    state = initial_state(p, g)
    yield state
    for _ in range(g.N):
        state = time_step(state, p, g)
        yield state


def run_solver(p: ModelParams, M: int, mu: float, Y: float | None = None) -> SolverRun:
    """March the scheme over the whole horizon and collect the surface.

    Step-level failures propagate as typed errors carrying the step index.
    """
    g = build_grid(p, M, mu, Y)  # validates p as well
    # each level is written into place, so the march never holds the surface
    # twice (a list of level copies stacked at the end peaks at double)
    v_levels = np.empty((g.N + 1, g.M + 1))
    xf_path: list[float] = []
    iterations: list[int] = []
    residuals: list[float] = []
    warned_steps: list[int] = []
    for state in march(p, g):
        v_levels[state.n] = state.v_curr
        xf_path.append(state.xf_curr)
        if state.stats is not None:
            iterations.append(state.stats.iterations)
            residuals.append(state.stats.closure_residual)
            if state.stats.denominator_warning:
                warned_steps.append(state.n - 1)
    surface = SolutionSurface(v=v_levels, xf=np.array(xf_path))
    return SolverRun(
        surface=surface,
        params=p,
        grid=g,
        iterations=tuple(iterations),
        closure_residuals=tuple(residuals),
        denominator_warnings=tuple(warned_steps),
    )


def final_level(
    p: ModelParams, M: int, mu: float, Y: float | None = None
) -> tuple[GridSpec, np.ndarray, np.ndarray]:
    """March holding one level: the grid, the boundary path xf[0..N] and the
    last level, for callers that read nothing else of the surface."""
    g = build_grid(p, M, mu, Y)
    xf = np.empty(g.N + 1)
    for state in march(p, g):
        xf[state.n] = state.xf_curr
    return g, xf, state.v_curr


def price_at(run: SolverRun, S: float) -> float:
    """Option price at spot S from the run's final level (see level_price)."""
    return level_price(run.params, run.grid, run.surface.xf, run.surface.v[-1], S)


def level_price(
    p: ModelParams, g: GridSpec, xf: np.ndarray, v_last: np.ndarray, S: float
) -> float:
    """Option price at spot S from the boundary path xf and the last level.

    Linear interpolation in y within the grid; below the exercise boundary
    the price is the intrinsic value E - S; beyond the truncation bound the
    far-field value 0 is used. A boundary path that _check_boundary_path
    refuses has no price.
    """
    if not S > 0:  # nan included
        raise ValidationError(["S must be positive"])
    _check_boundary_path(p, xf)
    boundary_price = p.E * xf[-1]
    if S <= boundary_price:
        return p.E - S
    y = math.log(S / boundary_price)
    if y >= g.Y:
        return 0.0
    idx = int(y // g.dy)
    idx = min(idx, g.M - 1)
    frac = (y - idx * g.dy) / g.dy
    return p.E * ((1.0 - frac) * v_last[idx] + frac * v_last[idx + 1])


def _check_boundary_path(p: ModelParams, xf: np.ndarray) -> None:
    """Raise DomainError, a numerical failure, naming the first level whose
    boundary left (0, 1] (xf <= 0 is no boundary; xf > 1 puts it above the
    strike) or fell below the perpetual put's x_perp = 2r/(2r + sigma^2)
    (Merton 1973), which every finite-horizon boundary lies above."""
    x_perp = 2.0 * p.r / (2.0 * p.r + p.sigma * p.sigma)
    for bad, where in (
        (~((xf > 0) & (xf <= 1)), "is outside (0, 1]"),
        (xf < x_perp, f"is below the perpetual boundary {x_perp:.6g}"),
    ):
        if bad.any():
            n = int(np.flatnonzero(bad)[0])
            raise DomainError(
                f"boundary xf = {xf[n]:.6g} at level {n} {where}; price undefined"
            )

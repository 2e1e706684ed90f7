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
computed once per step, and the first row also gets -C*(1 - x). Each step
lists as many leading rows of F0 and dv as the last step's candidates read,
and a candidate whose row cap (below) passes the lists' end extends them, so
a sweep is float arithmetic on list entries: f0[i] - k*dv[i] on two floats
has the bits of the array expression.

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

Level solve. _level builds the full solve's level (the converged boundary,
and the fallback above): it hands the three constant bands as scalars to
tridiag.solve_constant_bands, which writes the level straight into its
destination, in run_solver the surface row. The diagonal B - 1 <= -1 and the
signs of A and C keep every Thomas pivot at magnitude 1 or more, so that
solve checks none. Its right-hand side is
(S - v) - (A v[m+1] + B v[m] + C v[m-1]), built from the S - v and B v that
F0 is built from, not F0 - k*dv: the two round differently, and a level one
ulp off moves the boundary, which the Y-truncation acceptance check compares
to the last bit.

Classical mode is decay 0: its sums stay exact zeros, which the right-hand
side reads like any others, and no history is pushed.

March. Every march is one loop, _advance, that owns its constants and
buffers: it takes the run's constants from one _Rows, forms each step's
S - v, B v, F0 and dv once, runs each candidate's sweep and boundary update
on floats, and builds no object per step. Both entries start it from the
level at tau = 0 (zeros, the boundary at the strike, an empty memory):
run_solver runs it over the N steps into the surface rows; final_level runs
it over two level buffers and keeps only the (N+1)-float boundary path,
which is all the studies read. Every price, from a surface or from a last
level, goes through level_price, which refuses a spot beyond the truncation
bound, and every price or study result through _check_boundary_path, which
refuses a boundary path that left (0, 1] or fell below the perpetual put's
boundary.
"""

from __future__ import annotations

import math
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
    "SolverRun",
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


class _Rows:
    """The parts of the rows fixed by the row weight q and xf_curr: theta,
    beta, the diagonal B, the drift's denominator and the closure line
    v[1] = g0 + g1*xf_next. Plain arithmetic, so an array of xf_curr gives
    every step's rows at once; callers refuse a zero."""

    __slots__ = ("q", "xf_curr", "theta", "beta", "b_diag", "den", "g0", "g1")

    def __init__(self, p: ModelParams, g: GridSpec, q: float, xf_curr: float | np.ndarray):
        sig2 = p.sigma * p.sigma
        self.q, self.xf_curr = q, xf_curr
        self.theta = q * sig2 / (4.0 * g.dy * g.dy)
        self.beta = q * (p.r - sig2 / 2.0) / (4.0 * g.dy)
        self.b_diag = -(q / 2.0) * (sig2 / (g.dy * g.dy) + p.r)
        self.den = 4.0 * g.dy * g.dtau * xf_curr
        self.g1 = -(1.0 + g.dy) - g.dy * g.dy / 2.0
        self.g0 = 1.0 + (g.dy * g.dy / sig2) * p.r

    def bands(self, x: float | np.ndarray) -> tuple:
        """Upper band A, lower band C and the drift for candidate boundary x."""
        drift = self.q * (x - self.xf_curr) / self.den
        return self.theta + self.beta + drift, self.theta - self.beta - drift, drift


def _sweep(a, c, k, d, c0, f0, dv, f0_max, dv_max, fl, dl) -> float | None:
    """u[2] of a candidate from the leading rows of the Thomas sweep.

    a, c and d = B - 1 are the candidate's bands, k = beta + drift, and its
    first row also carries c0 = C*(1 - x). f0 and dv are the step's F0 and dv,
    f0_max and dv_max their largest magnitudes, and fl and dl lists of their
    leading rows, extended here when the row cap passes their end. None when
    the rows are not strictly dominant or no row before the last certifies
    the truncation.
    """
    margin = abs(d) - abs(a) - abs(c)
    n = f0.size
    if not margin > _MARGIN_FLOOR or n < 3:
        return None
    f_bound = f0_max + abs(k) * dv_max + abs(c0)
    limit = _UNIT_ROUNDOFF * margin / max(f_bound, margin)
    # every |cp_i| is at most rate < 1, so rate^K <= limit certifies by
    # row K; one spare row absorbs the rounding of the running product
    rate = abs(a) / (abs(d) - abs(c))
    rows = n - 1
    if rate > 0.0:
        rows = min(rows, math.ceil(math.log(limit) / math.log(rate)) + 2)
    if len(fl) < rows:
        fl += f0[len(fl):rows].tolist()
        dl += dv[len(dl):rows].tolist()
    cp = a / d
    dp = (fl[0] - k * dl[0] - c0) / d
    cps = [cp]
    dps = [dp]
    shrink = 1.0  # prod cp_i over rows 1..i
    for i in range(1, rows):
        piv = d - c * cp
        cp = a / piv
        dp = (fl[i] - k * dl[i] - c * dp) / piv
        shrink *= cp
        if -limit <= shrink <= limit:
            xi = dp
            for j in range(i - 1, 0, -1):
                xi = dps[j] - cps[j] * xi
            return xi
        cps.append(cp)
        dps.append(dp)
    return None


def _level(u, u0, a, c, c0, d, hv, bv, v_up, v_down) -> None:
    """Write boundary x's level into u: u[0] = u0 = 1 - x, u[M] = 0 and the
    interior rows solved straight from the constant bands a, c, d (c0 = c*u0)."""
    u[0] = u0
    u[-1] = 0.0
    rhs = hv - (a * v_up + bv + c * v_down)
    rhs[0] -= c0
    solve_constant_bands(c, d, a, rhs, u[1:-1])


def _advance(
    p: ModelParams,
    g: GridSpec,
    v: np.ndarray,
    xc: float,
    sums: np.ndarray,
    w: CFWeights,
    steps: int,
    out: np.ndarray | list,
) -> tuple:
    """March `steps` levels from level v with boundary xc, memory sums and
    the run's weights w: the one loop behind every march.

    Level j of this march (j = 1..steps) is written into out[j % len(out)],
    so out may be the surface, two buffers that alternate, or [one array].
    Each step starts the scalar iterate at the current boundary, takes one
    plain fixed-point step, then secant steps on R(x) = Omega1 - x*Omega2
    with a bisection safeguard once a sign change is bracketed. Each iterate
    reads u[2] from the truncated sweep; only the converged boundary gets a
    full solve. Failures name step j - 1. Nothing is written into v or sums.
    Returns the new levels' boundaries, inner iterations and closure
    residuals, the steps whose denominator warned and the last sums.
    """
    decay = w.decay
    rows = _Rows(p, g, w.row_weight, 1.0)
    q, theta, beta, b = rows.q, rows.theta, rows.beta, rows.b_diag
    up, low = theta + beta, theta - beta  # A = up + drift, C = low - drift
    g0, g1, den1, d = rows.g0, rows.g1, rows.den, b - 1.0  # den1 = 4 dy dtau
    dg0, dg1, b1 = d * g0, d * g1, b + 1.0
    scale_floor = max(1.0, abs(dg1))
    sweep, level, push = _sweep, _level, history_push
    tol, max_iter, floor, warn = _TOL_XF, _MAX_ITER, _DENOM_FLOOR, _DENOM_WARN
    path, iterations, residuals, warned_steps = [], [], [], []
    listed = 0  # leading rows of F0 and dv the last step's candidates read
    for n in range(steps):  # step n makes level j = n + 1
        if xc == 0.0:
            raise ValidationError(["xf_curr must be nonzero"])
        u = out[(n + 1) % len(out)]
        den = den1 * xc
        omega = q / den
        omega_xc = omega * xc
        # classical mode reads its sums too: they are exact zeros
        hist1 = float(sums[1])
        v0, v1, v2 = v[:3].tolist()
        b1v1 = b1 * v1
        v_up, v_mid, v_down = v[2:], v[1:-1], v[:-2]
        # S - v and B v, shared by F0 and the level's right-hand side
        hv = sums[1:-1] - v_mid
        bv = b * v_mid
        f0 = hv - (bv + theta * (v_up + v_down))
        dv = v_up - v_down
        f0_max = float(np.abs(f0).max())
        dv_max = float(np.abs(dv).max())
        fl, dl = f0[:listed].tolist(), dv[:listed].tolist()
        x = xc
        x_prev: float | None = None
        r_prev = 0.0
        lo: float | None = None
        hi: float | None = None
        warned = False
        for it in range(max_iter):
            drift = q * (x - xc) / den
            a, c, u0 = up + drift, low - drift, 1.0 - x
            c0 = c * u0
            u2 = sweep(a, c, beta + drift, d, c0, f0, dv, f0_max, dv_max, fl, dl)
            if u2 is None:
                level(u, u0, a, c, c0, d, hv, bv, v_up, v_down)
                u2 = float(u[2])
            up_pair = u2 + v2
            low_pair = u0 + v0
            diff = up_pair - low_pair
            total = up_pair + low_pair
            omega_diff = omega * diff
            omega2 = omega_diff + dg1
            omega1 = hist1 - theta * total - beta * diff + omega_xc * diff - dg0 - b1v1
            scale = abs(omega_diff)  # max(1, |omega diff|, |(B - 1) g1|)
            if not scale > scale_floor:
                scale = scale_floor
            abs_den = abs(omega2)
            if abs_den < floor * scale:
                raise DenominatorNearZeroError(n, omega2, floor * scale)
            if abs_den < warn * scale:
                warned = True
            proposal = omega1 / omega2
            residual = omega1 - x * omega2
            if abs(proposal - x) <= tol:
                x = proposal
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
                left, right = (lo, hi) if lo < hi else (hi, lo)
                if not left < x_new < right:
                    x_new = 0.5 * (left + right)
            x_prev, r_prev = x, residual
            x = x_new
        else:
            raise NonConvergenceError(n, max_iter, (x_prev if x_prev is not None else x, x))
        listed = len(fl)
        drift = q * (x - xc) / den
        a, c, u0 = up + drift, low - drift, 1.0 - x
        level(u, u0, a, c, c * u0, d, hv, bv, v_up, v_down)
        path.append(x)
        iterations.append(it + 1)
        residuals.append(abs(u[1] - (g0 + g1 * x)))
        if warned:
            warned_steps.append(n)
        # with decay 0 (classical) the sums stay zero, so nothing is pushed
        if decay:
            sums = push(sums, u, v, w)
        v, xc = u, x
    return path, iterations, residuals, warned_steps, sums


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


def run_solver(p: ModelParams, M: int, mu: float, Y: float | None = None) -> SolverRun:
    """March the scheme over the whole horizon and collect the surface.

    Step-level failures propagate as typed errors carrying the step index.
    """
    g = build_grid(p, M, mu, Y)  # validates p as well
    # each level is solved into its row, so the march never holds the surface
    # twice (a list of level copies stacked at the end peaks at double)
    v_levels = np.empty((g.N + 1, g.M + 1))
    v_levels[0] = 0.0
    path, iterations, residuals, warned, _ = _advance(
        p, g, v_levels[0], 1.0, np.zeros(g.M + 1), cf_weights(p.alpha, g.dtau), g.N, v_levels
    )
    return SolverRun(
        surface=SolutionSurface(v=v_levels, xf=np.array([1.0, *path])),
        params=p,
        grid=g,
        iterations=tuple(iterations),
        closure_residuals=tuple(residuals),
        denominator_warnings=tuple(warned),
    )


def final_level(
    p: ModelParams, M: int, mu: float, Y: float | None = None
) -> tuple[GridSpec, np.ndarray, np.ndarray]:
    """March holding one level: the grid, the boundary path xf[0..N] and the
    last level, for callers that read nothing else of the surface."""
    g = build_grid(p, M, mu, Y)
    out = np.zeros((2, g.M + 1))
    path = _advance(p, g, out[0], 1.0, np.zeros(g.M + 1), cf_weights(p.alpha, g.dtau), g.N, out)[0]
    return g, np.array([1.0, *path]), out[g.N % 2]


def price_at(run: SolverRun, S: float) -> float:
    """Option price at spot S from the run's final level (see level_price)."""
    return level_price(run.params, run.grid, run.surface.xf, run.surface.v[-1], S)


def level_price(
    p: ModelParams, g: GridSpec, xf: np.ndarray, v_last: np.ndarray, S: float
) -> float:
    """Option price at spot S from the boundary path xf and the last level.

    Linear interpolation in y within the grid; below the exercise boundary
    the price is the intrinsic value E - S. A spot at or beyond the
    truncation bound Y, where the grid holds only the far-field 0, and a
    boundary path that _check_boundary_path refuses have no price.
    """
    if not S > 0:  # nan included
        raise ValidationError(["S must be positive"])
    _check_boundary_path(p, xf)
    boundary_price = p.E * xf[-1]
    if S <= boundary_price:
        return p.E - S
    y = math.log(S / boundary_price)
    if y >= g.Y:
        raise DomainError(
            f"spot S = {S:.6g} lies at y = {y:.6g}, at or beyond the truncation "
            f"bound Y = {g.Y:.6g}; price undefined"
        )
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

"""Numerical validation of the scheme's theoretical properties.

Covers the coefficient-positivity step-size conditions, positivity and
monotonicity audits of computed surfaces, the von Neumann amplification
factor of the implemented three-level rows under a frozen boundary (the
larger root of their characteristic polynomial, as in Richtmyer & Morton,
Difference Methods for Initial-Value Problems, 1967), an observed-order
harness on nested grids, and a domain-truncation study.

The studies read one price and one boundary per grid, so they march through
scheme.final_level, which consumes the scheme.march generator holding one
level and the boundary path: a study's memory is O(M + N) per grid, not the
O(N*M) of a stored surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cfkernel import cf_weights
from .errors import ValidationError
from .model import GridSpec, ModelParams, SolutionSurface, validate_params
from .scheme import _check_boundary_path, _Rows, final_level, level_price

__all__ = [
    "Lemma1Report",
    "AuditReport",
    "AuditViolation",
    "OrderEstimate",
    "StudyRow",
    "lemma1_check",
    "monotonicity_audit",
    "amplification_factor",
    "observed_order",
    "y_truncation_study",
]


@dataclass(frozen=True)
class Lemma1Report:
    """Step-size conditions for nonnegative off-diagonal coefficients.

    cond_convection is None when r = sigma^2/2 (the condition is vacuous
    there). coefficient_signs holds sign(A), sign(B), sign(C) per step; with
    no boundary path supplied it holds the single stationary-boundary row.
    The diagonal B is negative for every admissible input as the scheme is
    written; its sign is recorded, never asserted.
    """

    cond_convection: bool | None
    cond_timestep: bool
    coefficient_signs: np.ndarray

    @property
    def satisfied(self) -> bool:
        conv = True if self.cond_convection is None else self.cond_convection
        return conv and self.cond_timestep


def lemma1_check(
    p: ModelParams, g: GridSpec, xf_path: np.ndarray | None = None
) -> Lemma1Report:
    """Evaluate the step-size inequalities exactly as stated.

    dy <= sigma^2*dtau/|r - sigma^2/2|   (skipped when r = sigma^2/2)
    dtau <= dy^2/(r*dy^2 + sigma^2)
    """
    sig2 = p.sigma * p.sigma
    drift = p.r - sig2 / 2.0
    cond_conv = None if drift == 0.0 else g.dy <= sig2 * g.dtau / abs(drift)
    cond_dt = g.dtau <= g.dy * g.dy / (p.r * g.dy * g.dy + sig2)
    if xf_path is None:
        pairs = [(1.0, 1.0)]
    else:
        xf_path = np.asarray(xf_path, dtype=float)
        pairs = list(zip(xf_path[1:], xf_path[:-1]))
    signs = np.empty((len(pairs), 3), dtype=int)
    # the stepper's rows are the paper's triple divided by rho > 0: the same
    # signs, and finite where the q-scaled triple overflows (alpha near 1)
    q_eff = cf_weights(p.alpha, g.dtau).row_weight
    for i, (xf_next, xf_curr) in enumerate(pairs):
        rows = _Rows(p, g, q_eff, xf_curr)
        upper, lower, _ = rows.bands(xf_next)
        signs[i] = (np.sign(upper), np.sign(rows.b_diag), np.sign(lower))
    return Lemma1Report(cond_conv, cond_dt, signs)


@dataclass(frozen=True)
class AuditViolation:
    kind: str
    level: int
    node: int
    magnitude: float


@dataclass(frozen=True)
class AuditReport:
    """Worst violations of boundary positivity/monotonicity and value
    nonnegativity/monotonicity, with counts and locations."""

    max_xf_positivity: float
    max_xf_increase: float
    max_v_negative: float
    max_v_increase_in_m: float
    violations: tuple[AuditViolation, ...]
    tolerance: float

    @property
    def clean(self) -> bool:
        return not self.violations


def monotonicity_audit(s: SolutionSurface, tolerance: float = 1e-9) -> AuditReport:
    """Check xf > 0 non-increasing and v >= 0 non-increasing in the node index."""
    found: list[AuditViolation] = []

    xf_pos = np.maximum(0.0, -s.xf)  # distance below zero (positivity wants xf > 0)
    for n in np.nonzero(s.xf <= 0)[0]:
        found.append(AuditViolation("xf_positivity", int(n), 0, float(max(xf_pos[n], 0.0))))
    max_xf_pos = float(xf_pos.max()) if xf_pos.size else 0.0

    xf_inc = np.diff(s.xf)
    for n in np.nonzero(xf_inc > tolerance)[0]:
        found.append(AuditViolation("xf_increase", int(n + 1), 0, float(xf_inc[n])))
    max_xf_inc = float(max(xf_inc.max(initial=0.0), 0.0))

    v_neg = -s.v
    bad = np.argwhere(v_neg > tolerance)
    for n, m in bad:
        found.append(AuditViolation("v_negative", int(n), int(m), float(v_neg[n, m])))
    max_v_neg = float(max(v_neg.max(initial=0.0), 0.0))

    v_inc = np.diff(s.v, axis=1)
    bad = np.argwhere(v_inc > tolerance)
    for n, m in bad:
        found.append(
            AuditViolation("v_increase_in_m", int(n), int(m + 1), float(v_inc[n, m]))
        )
    max_v_inc = float(max(v_inc.max(initial=0.0), 0.0))

    return AuditReport(
        max_xf_positivity=max_xf_pos,
        max_xf_increase=max_xf_inc,
        max_v_negative=max_v_neg,
        max_v_increase_in_m=max_v_inc,
        violations=tuple(found),
        tolerance=tolerance,
    )


def amplification_factor(p: ModelParams, g: GridSpec, b: float) -> float:
    """|G|, the larger root modulus of the stepper's rows for the mode
    exp(i*b*y) under a frozen boundary (no drift).

    On the mode the rows read S + u - v = l*(u + v), with
    l = B + (A + C) cos(b dy) + i (A - C) sin(b dy), and the push gives
    S' = rho*(S + u - v), so G solves (1 - l) G^2 - (1 + l - rho*l) G + rho*l
    = 0; at alpha = 1 (rho = 0) that is Crank-Nicolson's (1 + l)/(1 - l).
    """
    validate_params(p)
    if not math.isfinite(b):
        raise ValidationError(["b must be finite"])
    w = cf_weights(p.alpha, g.dtau)
    rows = _Rows(p, g, w.row_weight, 1.0)
    upper, lower, _ = rows.bands(1.0)
    ell = complex(
        rows.b_diag + (upper + lower) * math.cos(b * g.dy),
        (upper - lower) * math.sin(b * g.dy),
    )
    c2, c1, c0 = 1.0 - ell, -(1.0 + ell - w.decay * ell), w.decay * ell
    # roots (-c1 -+ disc)/(2 c2), from libm alone; the larger modulus has no
    # cancellation, since |c1 + disc|^2 + |c1 - disc|^2 = 2(|c1|^2 + |disc|^2)
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    return max(abs(c1 + disc), abs(c1 - disc)) / (2.0 * abs(c2))


@dataclass(frozen=True)
class OrderEstimate:
    """Observed-order estimates from nested grids.

    spatial_* halve dy at fixed grid ratio (so dtau quarters); temporal_*
    halve dtau at fixed dy. Rates are log2 of successive-difference ratios of
    the price at S = E and of the final boundary; price rates are the
    headline estimates, the boundary ones are reported alongside (they are
    superconvergent and noise-limited on fine grids).
    """

    spatial_price_rates: tuple[float, ...]
    spatial_xf_rates: tuple[float, ...]
    temporal_price_rates: tuple[float, ...]
    temporal_xf_rates: tuple[float, ...]
    spatial_table: tuple[tuple[int, float, float, float], ...]
    temporal_table: tuple[tuple[int, float, float, float], ...]

    @property
    def spatial_rate(self) -> float:
        return self.spatial_price_rates[-1]

    @property
    def temporal_rate(self) -> float:
        return self.temporal_price_rates[-1]


def _rates(values: list[float]) -> tuple[float, ...]:
    out = []
    for i in range(len(values) - 2):
        top = abs(values[i] - values[i + 1])
        bot = abs(values[i + 1] - values[i + 2])
        out.append(math.log2(top / bot) if top > 0 and bot > 0 else math.nan)
    return tuple(out)


def observed_order(
    p: ModelParams, base: GridSpec, refinements: int = 2
) -> OrderEstimate:
    """Run the solver on nested grids and estimate convergence rates.

    refinements >= 2: the spatial family is (M, 2M, ..) at fixed mu and Y,
    the temporal family keeps M and halves mu. Exact-horizon bases (T/dtau an
    integer at every level) give the cleanest ratios.
    """
    if refinements < 2:
        raise ValidationError(["refinements must be >= 2"])
    spatial_args = [(base.M * 2**i, base.mu) for i in range(refinements + 1)]
    temporal_args = [(base.M, base.mu / 2**i) for i in range(refinements + 1)]

    def one(args: tuple[int, float]) -> tuple[int, float, float, float]:
        g, xf, v_last = final_level(p, *args, base.Y)
        return (g.N, g.dtau, level_price(p, g, xf, v_last, p.E), float(xf[-1]))

    spatial = [one(args) for args in spatial_args]
    # both families start from the base grid: march it once
    temporal = spatial[:1] + [one(args) for args in temporal_args[1:]]
    sp_price = [row[2] for row in spatial]
    sp_xf = [row[3] for row in spatial]
    tm_price = [row[2] for row in temporal]
    tm_xf = [row[3] for row in temporal]
    return OrderEstimate(
        spatial_price_rates=_rates(sp_price),
        spatial_xf_rates=_rates(sp_xf),
        temporal_price_rates=_rates(tm_price),
        temporal_xf_rates=_rates(tm_xf),
        spatial_table=tuple(spatial),
        temporal_table=tuple(temporal),
    )


@dataclass(frozen=True)
class StudyRow:
    Y: float
    M: int
    xf_final: float


def y_truncation_study(
    p: ModelParams, M: int, mu: float, Ys: list[float]
) -> tuple[StudyRow, ...]:
    """Final boundary position for each truncation bound.

    The space step is held fixed across bounds (M is the node count at the
    largest Y; smaller domains use proportionally fewer nodes), so the rows
    differ only through the domain truncation. A march whose boundary path
    the prices refuse (scheme._check_boundary_path) raises DomainError.
    """
    if not Ys:
        raise ValidationError(["Ys must be nonempty"])
    if any(y <= 0 for y in Ys):
        raise ValidationError(["every Y must be positive"])
    y_ref = max(Ys)
    dy = y_ref / M

    def one(y_bound: float) -> StudyRow:
        m_nodes = max(4, round(y_bound / dy))
        _, xf, _ = final_level(p, m_nodes, mu, y_bound)
        _check_boundary_path(p, xf)
        return StudyRow(Y=y_bound, M=m_nodes, xf_final=float(xf[-1]))

    return tuple(one(y_bound) for y_bound in Ys)

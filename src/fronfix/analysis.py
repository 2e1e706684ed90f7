"""Numerical validation of the scheme's theoretical properties.

Covers the coefficient-positivity step-size conditions, positivity and
monotonicity audits of computed surfaces, the von Neumann amplification
factor of the implemented three-level rows under a frozen boundary (the
larger root of their characteristic polynomial, as in Richtmyer & Morton,
Difference Methods for Initial-Value Problems, 1967) and an exact test of
that polynomial's root condition, an observed-order
harness on nested grids, and a domain-truncation study.

The studies read one price and one boundary per grid, so they march through
scheme.final_level, which holds two level buffers and the boundary path: a
study's memory is O(M + N) per grid, not the O(N*M) of a stored surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

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
    "root_condition",
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
    xf = np.array([1.0, 1.0]) if xf_path is None else np.asarray(xf_path, dtype=float)
    if np.any(xf == 0.0):  # a zero boundary has no drift
        raise ValidationError(["xf_path must hold no zero boundary"])
    # the stepper's rows are the paper's triple divided by rho > 0: the same
    # signs, and finite where the q-scaled triple overflows (alpha near 1);
    # step n's rows take xf[n] as the current boundary and xf[n + 1] as the next
    rows = _Rows(p, g, cf_weights(p.alpha, g.dtau).row_weight, xf[:-1])
    upper, lower, _ = rows.bands(xf[1:])
    triple = np.column_stack((upper, np.full_like(upper, rows.b_diag), lower))
    if np.isnan(triple).any():  # a nan boundary, or a drift of 0/0 or inf/inf
        raise ValidationError(["xf_path gives a row that is not a number"])
    return Lemma1Report(cond_conv, cond_dt, np.sign(triple).astype(int))


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
    xf = s.xf[:, None]  # one column, so every check indexes (level, node)
    xf_inc, v_neg, v_inc = np.diff(xf, axis=0), -s.v, np.diff(s.v, axis=1)
    found: list[AuditViolation] = []
    worst: list[float] = []
    # kind, excess, flagged entries, and the level and node offsets of entry (0, 0)
    for kind, excess, flagged, dn, dm in (
        ("xf_positivity", np.maximum(0.0, -xf), xf <= 0, 0, 0),
        ("xf_increase", xf_inc, xf_inc > tolerance, 1, 0),
        ("v_negative", v_neg, v_neg > tolerance, 0, 0),
        ("v_increase_in_m", v_inc, v_inc > tolerance, 0, 1),
    ):
        found += [
            AuditViolation(kind, int(n + dn), int(m + dm), float(excess[n, m]))
            for n, m in np.argwhere(flagged)
        ]
        worst.append(float(max(excess.max(initial=0.0), 0.0)))
    return AuditReport(*worst, violations=tuple(found), tolerance=tolerance)


def _mode_symbol(p: ModelParams, g: GridSpec, b: float) -> tuple[complex, float]:
    """l and rho of the mode exp(i*b*y) under a frozen boundary (see
    amplification_factor)."""
    validate_params(p)
    if not math.isfinite(b):
        raise ValidationError(["b must be finite"])
    w = cf_weights(p.alpha, g.dtau)
    rows = _Rows(p, g, w.row_weight, 1.0)
    upper, lower, _ = rows.bands(1.0)
    cos = math.cos(b * g.dy)
    # B + A + C is -(q r)/2 exactly, which the float sum misses at r = 0
    real = -(rows.q * p.r) / 2.0 if cos == 1.0 else rows.b_diag + (upper + lower) * cos
    return complex(real, (upper - lower) * math.sin(b * g.dy)), w.decay


def amplification_factor(p: ModelParams, g: GridSpec, b: float) -> float:
    """|G|, the larger root modulus of the stepper's rows for the mode
    exp(i*b*y) under a frozen boundary (no drift).

    On the mode the rows read S + u - v = l*(u + v), with
    l = B + (A + C) cos(b dy) + i (A - C) sin(b dy), and the push gives
    S' = rho*(S + u - v), so G solves (1 - l) G^2 - (1 + l - rho*l) G + rho*l
    = 0; at alpha = 1 (rho = 0) that is Crank-Nicolson's (1 + l)/(1 - l).
    """
    ell, rho = _mode_symbol(p, g, b)
    c2, c1, c0 = 1.0 - ell, -(1.0 + ell - rho * ell), rho * ell
    # roots (-c1 -+ disc)/(2 c2), from libm alone; the larger modulus has no
    # cancellation, since |c1 + disc|^2 + |c1 - disc|^2 = 2(|c1|^2 + |disc|^2)
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    return max(abs(c1 + disc), abs(c1 - disc)) / (2.0 * abs(c2))


def root_condition(p: ModelParams, g: GridSpec, b: float) -> bool:
    """Whether the mode exp(i*b*y) is stable: every root of the polynomial of
    amplification_factor has |G| <= 1, and a root with |G| = 1 is simple, so
    the mode's powers stay bounded.

    Decided without rounding: the float l and rho are taken as the rationals
    they are, and the polynomial is tested as a simple von Neumann polynomial
    by one Schur-Cohn reduction (Strikwerda, Finite Difference Schemes and
    Partial Differential Equations, 2nd ed., 2004, section 4.3). A |G| that
    rounds to 1 gets the verdict of the polynomial itself: at rho = 1
    (alpha*dtau below about 1e-16) G = 1 is an exact, simple root.
    """
    ell, rho = _mode_symbol(p, g, b)
    lr, li, r = Fraction(ell.real), Fraction(ell.imag), Fraction(rho)
    # real and imaginary parts of c2 = 1 - l, c1 = (rho - 1) l - 1, c0 = rho l
    c2r, c2i, c1r, c1i, c0r, c0i = 1 - lr, -li, (r - 1) * lr - 1, (r - 1) * li, r * lr, r * li
    n2, n1, n0 = c2r**2 + c2i**2, c1r**2 + c1i**2, c0r**2 + c0i**2
    # the reduction conj(c2) p(z) - c0 p*(z) is z ((n2 - n0) z + beta) with
    # beta = conj(c2) c1 - c0 conj(c1)
    br = c2r * c1r + c2i * c1i - (c0r * c1r + c0i * c1i)
    bi = c2r * c1i - c2i * c1r - (c0i * c1r - c0r * c1i)
    if n0 < n2:  # the roots of p and of (n2 - n0) z + beta agree on the circle
        return br * br + bi * bi <= (n2 - n0) ** 2
    # a vanishing reduction pairs each root r with 1/conj(r): both lie on the
    # circle, simply, when the derivative's root -c1/(2 c2) lies inside it
    return n0 == n2 and br == bi == 0 and n1 < 4 * n2


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

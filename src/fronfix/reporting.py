"""CSV, JSON, and SVG emission for solver results.

Numbers are serialized with 17 significant digits so parsing a CSV back
reproduces the in-memory doubles bit for bit.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import Lemma1Report, StudyRow
from .scheme import SolverRun, price_at

__all__ = [
    "fmt",
    "emit_csv",
    "emit_boundary_csv",
    "emit_surface_csv",
    "emit_study_csv",
    "emit_summary",
    "emit_plot_script",
]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def emit_boundary_csv(run: SolverRun, path: Path) -> None:
    """Columns: n, tau, xf, Xstar (= E*xf); one row per time level."""
    E = run.params.E
    rows = (
        (str(n), fmt(n * run.grid.dtau), fmt(xf), fmt(E * xf))
        for n, xf in enumerate(run.surface.xf)
    )
    _write_rows(path, "n,tau,xf,Xstar", rows)


def emit_surface_csv(run: SolverRun, path: Path) -> None:
    """Columns: n, m, y, v, V (= E*v); n ascending then m ascending.

    Each level is one `%` call, streamed to a sibling file that replaces
    `path` only when complete, so a failed write leaves no truncated CSV."""
    E, v, nodes = run.params.E, run.surface.v, run.surface.nodes
    # compared as bits, since -0.0 == 0.0 as floats but prints differently
    reuse = np.array_equal((E * v).view(np.uint64), v.view(np.uint64))
    tails = [f",{m},{fmt(m * run.grid.dy)},%s,%s\n" for m in range(nodes)]
    values = "\n".join(["%.17g"] * nodes)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write("n,m,y,v,V\n")
            for n in range(run.surface.levels):
                vs = (values % tuple(v[n].tolist())).split("\n")
                Vs = vs if reuse else (values % tuple((E * v[n]).tolist())).split("\n")
                fh.write((str(n) + str(n).join(tails)) % tuple(chain.from_iterable(zip(vs, Vs))))
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a failed write


def emit_csv(run: SolverRun, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    boundary = out_dir / "boundary.csv"
    surface = out_dir / "surface.csv"
    emit_boundary_csv(run, boundary)
    emit_surface_csv(run, surface)
    return boundary, surface


def emit_study_csv(rows: tuple[StudyRow, ...], path: Path) -> None:
    _write_rows(
        path,
        "Y,M,xf_final",
        ((fmt(r.Y), str(r.M), fmt(r.xf_final)) for r in rows),
    )


def _lemma1_dict(rep: Lemma1Report) -> dict:
    return {
        "cond_convection": rep.cond_convection,
        "cond_timestep": rep.cond_timestep,
        "satisfied": rep.satisfied,
        "min_sign_upper": int(rep.coefficient_signs[:, 0].min()),
        "sign_diag": int(rep.coefficient_signs[:, 1].max()),
        "min_sign_lower": int(rep.coefficient_signs[:, 2].min()),
    }


def emit_summary(run: SolverRun, lemma1: Lemma1Report, path: Path) -> None:
    payload = {
        "params": {
            "r": run.params.r,
            "sigma": run.params.sigma,
            "E": run.params.E,
            "T": run.params.T,
            "alpha": run.params.alpha,
        },
        "grid": {
            "Y": run.grid.Y,
            "M": run.grid.M,
            "mu": run.grid.mu,
            "dy": run.grid.dy,
            "dtau": run.grid.dtau,
            "N": run.grid.N,
        },
        "achieved_horizon": run.achieved_horizon,
        "lemma1": _lemma1_dict(lemma1),
        "max_inner_iterations": run.max_inner_iterations,
        "denominator_warnings": list(run.denominator_warnings),
        "xf_final": float(run.surface.xf[-1]),
        "price_at_strike": price_at(run, run.params.E),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _polyline(xs: np.ndarray, ys: np.ndarray, x0, x1, y0, y1, width, height, pad) -> str:
    # map data coords to SVG pixel coords (y axis flipped)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = pad + (x - x0) / span_x * (width - 2 * pad)
        py = height - pad - (y - y0) / span_y * (height - 2 * pad)
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def emit_plot_script(run: SolverRun, path: Path) -> Path:
    """Write a self-contained SVG (boundary path and final value profile)
    and a companion python script that re-plots from the CSVs.

    Returns the script path (the SVG lands at `path`).
    """
    W, H, PAD = 480, 320, 45
    tau = run.grid.dtau * np.arange(run.surface.levels)
    xf = run.surface.xf
    y_lo = float(min(xf.min(), 1.0))
    y_hi = 1.0
    boundary_pts = _polyline(tau, xf, 0.0, float(tau[-1]), y_lo, y_hi, W, H, PAD)

    ys = run.grid.dy * np.arange(run.surface.nodes)
    v_last = run.surface.v[-1]
    profile_pts = _polyline(
        ys, v_last, 0.0, float(ys[-1]), float(min(v_last.min(), 0.0)),
        float(max(v_last.max(), 1e-12)), W, H, PAD,
    )

    svg = f"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="{2 * W}" height="{H}"
     viewBox="0 0 {2 * W} {H}" data-ymin="{fmt(y_lo)}" data-ymax="{fmt(y_hi)}"
     data-points="{len(xf)}">
  <rect width="{2 * W}" height="{H}" fill="white"/>
  <g>
    <rect x="{PAD}" y="{PAD}" width="{W - 2 * PAD}" height="{H - 2 * PAD}"
          fill="none" stroke="#999"/>
    <polyline points="{boundary_pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
    <text x="{W / 2}" y="{H - 8}" text-anchor="middle" font-size="12">tau</text>
    <text x="14" y="{H / 2}" text-anchor="middle" font-size="12"
          transform="rotate(-90 14 {H / 2})">free boundary</text>
  </g>
  <g transform="translate({W} 0)">
    <rect x="{PAD}" y="{PAD}" width="{W - 2 * PAD}" height="{H - 2 * PAD}"
          fill="none" stroke="#999"/>
    <polyline points="{profile_pts}" fill="none" stroke="#d62728" stroke-width="1.5"/>
    <text x="{W / 2}" y="{H - 8}" text-anchor="middle" font-size="12">y</text>
    <text x="14" y="{H / 2}" text-anchor="middle" font-size="12"
          transform="rotate(-90 14 {H / 2})">value profile at horizon</text>
  </g>
</svg>
"""
    path.write_text(svg)

    script = path.with_suffix(".py")
    script.write_text(
        """#!/usr/bin/env python3
# Re-plot the solver outputs from the CSVs next to this script.
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "boundary.csv") as fh:
    rows = list(csv.DictReader(fh))
tau = [float(r["tau"]) for r in rows]
xf = [float(r["xf"]) for r in rows]

with open(here / "surface.csv") as fh:
    surf = list(csv.DictReader(fh))
last_n = max(int(r["n"]) for r in surf)
prof = [(float(r["y"]), float(r["v"])) for r in surf if int(r["n"]) == last_n]

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.plot(tau, xf)
ax1.set_xlabel("tau")
ax1.set_ylabel("free boundary")
ax2.plot([p[0] for p in prof], [p[1] for p in prof])
ax2.set_xlabel("y")
ax2.set_ylabel("value profile at horizon")
fig.tight_layout()
fig.savefig(here / "plots.png", dpi=150)
"""
    )
    return script

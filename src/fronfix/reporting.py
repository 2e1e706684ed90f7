"""CSV and JSON emission for solver results.

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

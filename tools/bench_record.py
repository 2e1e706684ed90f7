"""Record the classical grid ladder and the CLI solve as one JSON file.

Every run is classical at r = 0.1, sigma = 0.2, E = 1, T = 1, mu = 20, Y = 4.

- Ladder, M in (200, 400, 800, 1600), or 200 alone with --quick. Each row
  holds N, the best of three `run_solver` wall times, the mean inner
  iterations per step, the full level solves per step and the price at S = E
  less the binomial-tree limit 0.0481628 (the 5000-, 10000- and 20000-step
  trees extrapolated by one Richardson step). The level solves are the calls
  of `scheme.solve_constant_bands`, counted in a separate untimed run.
- CLI, a fresh-process `fronfix solve --M 400` into a temporary directory:
  the best of three wall times and the child's own peak resident set. A
  small launcher process starts the solve and reads its peak with
  `os.wait4`. A child that this script started directly would inherit this
  script's high-water mark through vfork and exec, and report that instead.

Usage, from the repository root:

    PYTHONPATH=src python tools/bench_record.py [--quick] [--out BENCH.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import fronfix.scheme as scheme
from fronfix import ModelParams, price_at, run_solver

PARAMS = ModelParams(r=0.1, sigma=0.2, E=1.0, T=1.0, alpha=1.0)
MU, Y = 20.0, 4.0
TREE_LIMIT = 0.0481628
LADDER = (200, 400, 800, 1600)
CLI_M = 400
REPEATS = 3

# runs argv[1:] and prints "exit code, wall seconds, peak RSS in KiB" of that
# child alone; without numpy loaded the launcher's own peak stays below it
_LAUNCHER = """
import os, subprocess, sys, time
t0 = time.perf_counter()
_, status, usage = os.wait4(subprocess.Popen(sys.argv[1:]).pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage.ru_maxrss)
"""


def ladder_row(M: int) -> dict:
    walls = []
    for _ in range(REPEATS):  # each surface is dropped at once: one alive at a time
        t0 = time.perf_counter()
        run_solver(PARAMS, M, MU, Y)
        walls.append(time.perf_counter() - t0)
    solve = scheme.solve_constant_bands
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    scheme.solve_constant_bands = counted
    try:
        run = run_solver(PARAMS, M, MU, Y)
    finally:
        scheme.solve_constant_bands = solve
    N = run.grid.N
    price = price_at(run, PARAMS.E)
    return {
        "M": M,
        "N": N,
        "run_solver_best_s": min(walls),
        "inner_iters_per_step": sum(run.iterations) / N,
        "full_solves_per_step": calls / N,
        "price": price,
        "price_error": price - TREE_LIMIT,
    }


def cli_solve(M: int) -> dict:
    env = dict(os.environ)
    src = str(Path(scheme.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    walls, peaks = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(REPEATS):
            argv = [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "fronfix.cli",
                    "solve", "--M", str(M), "--out", str(Path(tmp) / str(i))]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            code, wall, peak_kib = done.stdout.split()[-3:]
            if int(code) != 0:
                raise SystemExit(f"fronfix solve --M {M} exited {code}")
            walls.append(float(wall))
            peaks.append(int(peak_kib) / 1024.0)
    return {"M": M, "wall_best_s": min(walls), "peak_rss_mb": max(peaks)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="ladder of M = 200 only")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    args = parser.parse_args()
    record = {
        "params": {"r": PARAMS.r, "sigma": PARAMS.sigma, "E": PARAMS.E, "T": PARAMS.T,
                   "alpha": PARAMS.alpha, "mu": MU, "Y": Y},
        "tree_limit": TREE_LIMIT,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "ladder": [ladder_row(M) for M in (LADDER[:1] if args.quick else LADDER)],
        "cli_solve": cli_solve(CLI_M),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for row in record["ladder"]:
        print(f"M={row['M']} N={row['N']} {row['run_solver_best_s']:.3f} s "
              f"{row['inner_iters_per_step']:.2f} its/step "
              f"{row['full_solves_per_step']:.2f} solves/step error {row['price_error']:+.1e}")
    cli = record["cli_solve"]
    print(f"fronfix solve --M {cli['M']}: {cli['wall_best_s']:.3f} s, "
          f"peak RSS {cli['peak_rss_mb']:.1f} MB")


if __name__ == "__main__":
    main()

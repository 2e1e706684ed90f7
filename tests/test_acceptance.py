"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion report.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fronfix.analysis import (
    amplification_factor,
    lemma1_check,
    monotonicity_audit,
    observed_order,
    y_truncation_study,
)
from fronfix.cfkernel import cf_weights, history_push, history_sum_naive
from fronfix.model import ModelParams, build_grid
from fronfix.oracles import binomial_american_put, psor_american_put
from fronfix.scheme import price_at, run_solver
from reference import reference_run

BASELINE = dict(r=0.1, sigma=0.2, E=1.0, T=1.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_agreement_classical_limit():
    t0 = time.time()
    p = ModelParams(**BASELINE, alpha=1.0)
    run = run_solver(p, 200, 20.0, 4.0)
    price = price_at(run, p.E)
    tree = binomial_american_put(p, p.E, 5000).price
    elapsed = time.time() - t0
    err = abs(price - tree)
    report(
        "criterion 1 (classical vs binomial)",
        err < 1e-2 and elapsed < 30.0,
        f"price={price:.6f} binomial={tree:.6f} |err|={err:.2e} (tol 1e-2), "
        f"runtime {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_brute_force_equivalence():
    from fronfix.errors import FronfixError
    from fronfix.model import build_grid as _bg

    t0 = time.time()
    lattice = []  # every grid on this lattice with M <= 16 and N <= 8
    for m_nodes in (4, 6, 8, 10, 12, 14, 16):
        for mu in (0.5, 1.0, 2.0, 3.0, 4.0):
            for y_bound in (1.0, 2.0, 4.0):
                for horizon in (0.25, 0.5, 1.0):
                    p0 = ModelParams(r=0.1, sigma=0.2, E=1.0, T=horizon)
                    g = _bg(p0, m_nodes, mu, y_bound)
                    if 2 <= g.N <= 8:
                        lattice.append((m_nodes, mu, y_bound, horizon))
    worst = 0.0
    compared = 0
    completed_everywhere = 0
    for m_nodes, mu, y_bound, horizon in lattice:
        all_alpha = True
        for alpha in (0.3, 0.6, 0.9):
            p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=horizon, alpha=alpha)
            try:
                run = run_solver(p, m_nodes, mu, y_bound)
            except FronfixError:
                # startup infeasibility surfaces as a typed error; such grids
                # are excluded from the equivalence sweep by construction
                all_alpha = False
                continue
            assert run.grid.M <= 16 and run.grid.N <= 8
            xf_ref, v_ref = reference_run(p, m_nodes, mu, y_bound)
            worst = max(
                worst,
                float(np.max(np.abs(run.surface.v - v_ref))),
                float(np.max(np.abs(run.surface.xf - xf_ref))),
            )
            compared += 1
        if all_alpha:
            completed_everywhere += 1
    elapsed = time.time() - t0
    report(
        "criterion 2 (production vs brute force)",
        worst < 1e-10 and compared >= 250 and completed_everywhere >= 90 and elapsed < 5.0,
        f"{compared} runs over {len(lattice)} lattice grids "
        f"({completed_everywhere} complete for every order), max dev {worst:.2e} "
        f"(tol 1e-10), runtime {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_3_stability_scan():
    # the symbol of the rows the stepper runs, at every order up to alpha = 1
    t0 = time.time()
    worst = 0.0
    count = 0
    for alpha in (0.3, 0.6, 0.9, 0.99, 1.0):
        p = ModelParams(**BASELINE, alpha=alpha)
        for M in (50, 100, 200):
            for mu in (5.0, 20.0, 40.0):
                g = build_grid(p, M, mu, 4.0)
                for k in range(1, 21):
                    b = k * math.pi / (20.0 * g.dy)  # 20 values in (0, pi/dy]
                    worst = max(worst, amplification_factor(p, g, b))
                    count += 1
    elapsed = time.time() - t0
    report(
        "criterion 3 (amplification scan)",
        worst < 1.0 and elapsed < 1.0,
        f"{count} queries, max |G| = {worst:.6f} (< 1), "
        f"runtime {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_4_monotonicity_theorem():
    cases = [
        (ModelParams(**BASELINE, alpha=1.0), 40, 22.0),   # both conditions hold
        (ModelParams(**BASELINE, alpha=1.0), 40, 24.0),
        (ModelParams(r=0.2 * 0.2 / 2.0, sigma=0.2, E=1.0, T=1.0, alpha=1.0), 100, 20.0),
    ]
    details = []
    ok = True
    for p, m_nodes, mu in cases:
        run = run_solver(p, m_nodes, mu, 4.0)
        rep = lemma1_check(p, run.grid, run.surface.xf)
        audit = monotonicity_audit(run.surface, tolerance=1e-9)
        ok = ok and rep.satisfied and audit.clean
        details.append(
            f"(M={m_nodes},mu={mu}: lemma1={rep.satisfied}, violations={len(audit.violations)})"
        )
    report("criterion 4 (monotonicity on compliant grids)", ok, " ".join(details))


def test_criterion_5_observed_order():
    t0 = time.time()
    p = ModelParams(**BASELINE, alpha=1.0)
    est = observed_order(p, build_grid(p, 100, 5.0, 4.0), refinements=2)
    elapsed = time.time() - t0
    temporal_ok = 0.7 <= est.temporal_rate <= 1.3
    spatial_ok = 1.5 <= est.spatial_rate <= 2.5
    report(
        "criterion 5 (observed order, classical)",
        temporal_ok and spatial_ok and elapsed < 120.0,
        f"temporal={est.temporal_rate:.3f} (in [0.7,1.3]), "
        f"spatial={est.spatial_rate:.3f} (in [1.5,2.5]), "
        f"runtime {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_6_history_recursion():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(2, 201))
        alpha = float(rng.uniform(0.05, 0.95))
        series = rng.uniform(-10.0, 10.0, length)
        w = cf_weights(alpha, 0.01)
        sums = np.zeros(1)
        for prev, new in zip(series, series[1:]):
            sums = history_push(sums, np.array([new]), np.array([prev]), w)
        naive = history_sum_naive(series, w)
        worst = max(worst, abs(sums[0] - naive) / (1.0 + abs(naive)))
    report(
        "criterion 6 (recursive history vs naive)",
        worst <= 1e-12,
        f"1000 series (length <= 200), max relative deviation {worst:.2e} (tol 1e-12)",
    )


def test_criterion_7_y_truncation_study():
    t0 = time.time()
    p = ModelParams(**BASELINE, alpha=1.0)
    rows = y_truncation_study(p, 200, 20.0, [1.0, 2.0, 4.0])
    by_y = {row.Y: row.xf_final for row in rows}
    gap_42 = abs(by_y[4.0] - by_y[2.0])
    gap_21 = abs(by_y[2.0] - by_y[1.0])
    elapsed = time.time() - t0
    report(
        "criterion 7 (truncation stabilization)",
        gap_42 <= gap_21 and elapsed < 60.0,
        f"|xf(4)-xf(2)|={gap_42:.2e} <= |xf(2)-xf(1)|={gap_21:.2e}, "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_8_cross_oracle():
    p = ModelParams(**BASELINE, alpha=1.0)
    tree = binomial_american_put(p, p.E, 5000)
    psor = psor_american_put(p, p.E, 400, 400)
    price_gap = abs(psor.price - tree.price)

    run = run_solver(p, 200, 20.0, 4.0)
    ff_boundary = p.E * run.surface.xf[-1]
    cell = 4.0 * p.E / 400
    boundary_gap = abs(psor.boundary_estimate - ff_boundary)
    report(
        "criterion 8 (PSOR vs binomial and boundary)",
        price_gap < 2e-3 and boundary_gap <= 2.0 * cell,
        f"|psor-binomial|={price_gap:.2e} (tol 2e-3); "
        f"|psor boundary - E*xf|={boundary_gap:.4f} (tol {2*cell:.3f})",
    )

#!/usr/bin/env python3
"""fronfix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are taken from this
file). With --trace 0 it times whole passes of the workload until S seconds
have gone and prints the end-to-end metrics; with --trace 1 it runs one
untraced pass and two traced passes and prints the per-layer metrics. Every
operation is checked. The metric names and units come from BENCHMARK.json;
the last line of standard output is the JSON result, the lines before it the
full report, and a record of the run is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_BATCH = 3  # set-up processes per batch; three batches a run
COVERAGE_FLOOR = 0.95
PERCENTILES = (99, 95, 90, 75)
# Counts that must repeat exactly between passes and runs at one seed.
EXACT = ("tridiag.solves", "scheme.steps", "scheme.inner_iters", "cfkernel.pushes",
         "reporting.bytes_written", "tridiag.bytes_computed", "model.surface_bytes",
         "scheme.wasted_solves")


def load_program():
    """Import fronfix from this checkout's src/, never from an installed copy."""
    if not (SRC / "fronfix" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fronfix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fronfix

    if Path(fronfix.__file__).resolve().parent != SRC / "fronfix":
        sys.exit(f"perfbench: imported fronfix from {fronfix.__file__}, not {SRC}")
    return fronfix


def environment() -> dict:
    import numpy

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fronfix").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def timing(samples: list[float], scale: float = 1.0) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(x * scale for x in samples)
    out = {"value": statistics.median(xs), "n": len(xs), "stat": "median"}
    for pct in PERCENTILES:
        if len(xs) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]
            break
    return out


def failures(outcomes) -> Counter:
    return Counter(o.fail for o in outcomes if o.fail is not None)


def measure(wl, seconds: float, setup_batch) -> tuple[list[list], list[float], float]:
    """Whole passes while another one fits in `seconds` (at least one), with
    set-up timed at the start, the middle and the end of the run so it sees
    the same host as the passes. Also returns the peak resident set after the
    first pass; later passes only add allocator noise to it."""
    from workloads import execute

    setup = setup_batch()
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append([execute(op) for op in wl.ops])
        if len(passes) == 1:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if len(setup) < 2 * SETUP_BATCH and now - start >= seconds / 2:
            setup += setup_batch()
        if time.perf_counter() - start + (now - begun) > seconds:
            break
    if len(setup) < 2 * SETUP_BATCH:
        setup += setup_batch()
    return passes, setup + setup_batch(), rss


def end_to_end(wl, passes: list[list], setup: list[float], rss: float) -> dict:
    """Medians over passes of each pass's time and rate, plus the workload's
    own figures as medians and percentiles of every sample."""
    pass_s, rates = [], []
    for p in passes:
        pass_s.append(sum(o.wall_s for o in p if o.kind == wl.primary))
        healthy = [o for o in p if o.kind == wl.rate_kind and o.fail is None]
        wall = sum(o.wall_s for o in healthy)
        rates.append(sum(o.node_steps for o in healthy) / wall if wall > 0 else 0.0)
    outcomes = [o for p in passes for o in p]
    if wl.rss == "children":
        rss = max(o.info.get("child_rss_mb", 0.0) for o in outcomes)
    rep = {
        "setup_s": dict(timing(setup), unit="s"),
        "pass_s": dict(timing(pass_s), unit="s"),
        "node_steps_per_s": {"value": statistics.median(rates), "unit": "1/s",
                             "n": len(rates), "stat": "median"},
        "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
        "failed_frac": {"value": sum(failures(outcomes).values()) / len(outcomes),
                        "unit": "ratio", "n": len(outcomes)},
    }
    errs = [o.info["price_err"] for o in outcomes if "price_err" in o.info]
    if errs:
        rep["price_err_max"] = {"value": max(errs), "unit": "1/E", "n": len(errs)}
    stepped = [o.info for o in outcomes if "inner_iters" in o.info]
    if stepped:
        steps = sum(i["steps"] for i in stepped)
        rep["inner_iters_per_step"] = {"value": sum(i["inner_iters"] for i in stepped) / steps,
                                       "unit": "iter/step", "n": steps}
    samples = [o.wall_s for o in outcomes if o.kind == wl.primary]
    if wl.name == "march-fine":
        rep["solve_s"] = dict(timing(samples), unit="s")
    elif wl.name == "quote-book":
        rep["quote_p50_ms"] = dict(timing(samples, 1e3), unit="ms")
        if len(samples) >= 100:  # ten samples beyond the 90th percentile
            rep["quote_p90_ms"] = {"value": 1e3 * statistics.quantiles(samples, n=10)[-1],
                                   "unit": "ms", "n": len(samples), "stat": "p90"}
        rep["quotes_per_s"] = {"value": len(samples) / sum(samples), "unit": "1/s",
                               "n": len(samples)}
    elif wl.name == "cli-export":
        rep["cli_solve_s"] = dict(timing(samples), unit="s")
        written = [o.info["bytes_written"] for o in outcomes if "bytes_written" in o.info]
        rep["reporting.bytes_written"] = {"value": max(written, default=0), "unit": "B",
                                          "n": len(written)}
    elif wl.name == "study-sweep":
        rep["study_s"] = dict(timing(pass_s), unit="s")
    return rep


def traced(wl, fronfix, spans_path: Path) -> tuple[dict, list, list[str]]:
    """Two traced passes around one untraced pass, over the same operations."""
    from tracing import Tracer, layer_metrics, write_spans
    from workloads import execute

    def traced_pass():
        tracer = Tracer()
        tracer.install(fronfix)
        try:
            outs = [execute(op) for op in wl.ops]
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.records)
        layers["reporting.bytes_written"] = sum(o.info.get("bytes_written", 0) for o in outs)
        layers["wall_s"] = sum(o.wall_s for o in outs)
        return outs, layers, tracer.records

    # traced, untraced, traced: the overhead estimate cancels a linear drift
    outs_a, a, records = traced_pass()
    write_spans(records, spans_path)
    del records
    untraced = [execute(op) for op in wl.ops]
    untraced_wall = sum(o.wall_s for o in untraced)
    outs_b, b, _ = traced_pass()

    problems = []
    for key in EXACT:
        if a[key] != b[key]:
            problems.append(f"{key} differs between traced passes: {a[key]} != {b[key]}")
    cats = [failures(untraced), failures(outs_a), failures(outs_b)]
    if not cats[0] == cats[1] == cats[2]:
        problems.append(f"failure counts differ between passes: {cats}")

    out = {}
    for key, val in a.items():
        if isinstance(val, float):
            out[key] = (val + b[key]) / 2.0
        else:
            out[key] = val
    out["layer_self_s"] = {k: (v + b["layer_self_s"].get(k, 0.0)) / 2.0
                           for k, v in a["layer_self_s"].items()}
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.wall_s"] = out.pop("wall_s")
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.coverage"] = (a["span_self_s"] / a["wall_s"] + b["span_self_s"] / b["wall_s"]) / 2.0
    if out["trace.coverage"] < COVERAGE_FLOOR:
        problems.append(f"layer self times cover {out['trace.coverage']:.4f} of the traced wall,"
                        f" below {COVERAGE_FLOOR}")
    out["failures"] = dict(cats[0])
    return out, untraced + outs_a + outs_b, problems


def check_repeat(name: str, seed: int, layers: dict) -> list[str]:
    """Compare exact counts with an earlier run of the same sources and seed."""
    counts = {key: layers[key] for key in EXACT}
    counts["failures"] = layers["failures"]
    path = WORK / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"exact counts differ from the earlier run in {path.name}: {before} != {counts}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return []


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fronfix = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    env = environment()
    env["load_before"] = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, root=ROOT, work=WORK,
                                           in_process=bool(args.trace))
    fronfix.run_solver(fronfix.ModelParams(0.1, 0.2, 1.0, 1.0), 8, 20.0, 4.0)  # warm-up

    problems = []
    if args.trace:
        spans = WORK / f"spans-{args.workload}.csv"
        report, outcomes, problems = traced(wl, fronfix, spans)
        problems += check_repeat(args.workload, args.seed, report)
        wanted = spec["per_layer"]
    else:
        passes, setup, rss = measure(
            wl, args.seconds, lambda: workloads.setup_times(ROOT, WORK, SETUP_BATCH))
        outcomes = [o for p in passes for o in p]
        report = end_to_end(wl, passes, setup, rss)
        wanted = spec["end_to_end"]
    env["load_after"] = os.getloadavg()

    # fractional runs have no independent reference; their failures are
    # counted in `failed` and by category, and do not make the run incorrect
    wrong = [o for o in outcomes if o.referenced and o.fail is not None]
    problems += [f"{o.kind} failed: {o.fail}" for o in wrong[:5]]
    cats = failures(outcomes)

    shape = "traced,untraced,traced" if args.trace else len(passes)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} passes={shape}")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(wl.inputs, sort_keys=True))
    for key, val in report.items():
        if isinstance(val, dict) and "value" in val:
            stat = "".join(f" {k}={v:.6g}" for k, v in val.items() if k[0] == "p" and k[1:].isdigit())
            print(f"metric {key} = {val['value']:.6g} {val['unit']} "
                  f"({val.get('stat', 'over')} n={val['n']}{stat})")
        elif isinstance(val, (int, float)):
            print(f"layer {key} = {val:.6g}")
    if args.trace:
        print("layer_self_s " + json.dumps(report["layer_self_s"], sort_keys=True))
        share = report["trace.overhead_s"] / report["trace.untraced_wall_s"]
        print(f"tracing overhead = {report['trace.overhead_s']:.4f} s ({share:+.2%} of untraced wall)")
    print(f"failures attempted={len(outcomes)} failed={sum(cats.values())} "
          + json.dumps(dict(sorted(cats.items()))))
    for problem in problems:
        print(f"problem: {problem}")

    metrics = {}
    for m in wanted:
        val = report[m["name"]]
        metrics[m["name"]] = {"value": val["value"] if isinstance(val, dict) else val,
                              "unit": m["unit"]}
    result = {"correct": not problems, "attempted": len(outcomes),
              "failed": sum(cats.values()), "metrics": metrics}
    record = {"args": vars(args), "env": env, "report": report, "result": result,
              "failures": dict(cats), "problems": problems,
              "walls": [o.wall_s for o in outcomes]}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

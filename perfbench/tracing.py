"""Span tracing of the fronfix layers, installed from outside the package.

`Tracer.install` wraps the public functions of every `fronfix` submodule (a
layer is a submodule) and rebinds each name wherever the package holds it, so
calls between modules and within one module both pass through the wrapper.
`uninstall` puts the original objects back. Nothing in `src/fronfix` changes.

Each call records one span: id, parent id, name, thread, start and end in
nanoseconds, whether it raised, and an optional size taken from its arguments
or result. Spans stay in memory until `layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import Counter

import numpy as np

# Per-value helpers called once per CSV field; a span each would cost more
# than the work it measures, so their time stays in the caller's self time.
UNTRACED = {"reporting.fmt"}

# Constructors traced as spans, named layer.Class.
TRACED_CLASSES = {"model.SolutionSurface"}


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


# What a span records beside its timing, by span name: (args, kwargs, result) -> int.
SIZES = {
    # rows of the system
    "tridiag.solve_tridiagonal": lambda a, k, r: int(a[0].diag.size),
    # inner iterations of the step
    "scheme.time_step": lambda a, k, r: int(r.stats.iterations),
    # bytes of the stored surface
    "model.SolutionSurface": lambda a, k, r: _nbytes(k.get("v")) + _nbytes(k.get("xf")),
}


class Tracer:
    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        records = self.records
        ids = self._ids
        local = self._local
        main_stack = self._main_stack
        main_thread = threading.main_thread()
        size = SIZES.get(name)
        clock = time.perf_counter_ns
        cpu = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                is_main = threading.current_thread() is main_thread
                stack = local.stack = main_stack if is_main else []
            # A root span on a worker thread belongs to the span the main
            # thread is blocked in (parallel.map_ordered); its CPU time is
            # kept so concurrency can be told from interleaving.
            cross = not stack and stack is not main_stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            c0 = cpu() if cross else 0
            t0 = clock()
            result = None
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                c1 = cpu() - c0 if cross else -1
                stack.pop()
                extra = 0
                if size is not None and not failed:
                    try:
                        extra = size(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # the program's objects changed shape; record no size
                records.append(
                    (sid, parent, name, threading.get_ident(), t0, t1, c1, failed, extra)
                )

        return traced

    def install(self, package) -> None:
        """Wrap every public function of every submodule of `package`."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for attr in public:
                obj = getattr(mod, attr, None)
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name not in UNTRACED:
                        wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and name in TRACED_CLASSES:
                    init = obj.__dict__["__init__"]
                    self._restore.append((obj, "__init__", init))
                    setattr(obj, "__init__", self._wrap(name, init))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: list[tuple]) -> dict:
    """Arrays per span, indexed by span id, with self time in seconds.

    Self time is the span's duration minus the part of it its children cover.
    Children that ran concurrently on worker threads cover the parent by the
    union of their intervals, and their own subtrees are scaled by
    union / summed durations, so the self times of all spans add up to the
    wall time the root spans cover.
    """
    n = len(records)
    parent = np.full(n, -1, dtype=np.int64)
    tid = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    end = np.zeros(n, dtype=np.int64)
    cpu = np.full(n, -1, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    extra = np.zeros(n, dtype=np.int64)
    names = [""] * n
    for sid, par, name, thread, t0, t1, c, err, x in records:
        parent[sid], tid[sid], start[sid], end[sid] = par, thread, t0, t1
        cpu[sid], failed[sid], extra[sid], names[sid] = c, err, x, name
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child_sum

    cross = has_parent.copy()
    cross[has_parent] = tid[has_parent] != tid[parent[has_parent]]
    scale = np.ones(n)
    for p in np.unique(parent[cross]):
        kids = np.nonzero(parent == p)[0]
        covered = _union_length([(int(start[k]), int(end[k])) for k in kids])
        self_ns[p] = dur[p] - covered
        summed = dur[kids].sum()
        if summed > 0:
            scale[kids] = covered / summed
    # spans are numbered when they start, so a parent precedes its children
    for sid in np.nonzero(has_parent & ~cross)[0]:
        scale[sid] = scale[parent[sid]]
    return {
        "names": np.array(names, dtype=object),
        "parent": parent,
        "tid": tid,
        "dur_s": dur / 1e9,
        "self_s": self_ns * scale / 1e9,
        "cpu_s": cpu / 1e9,
        "cross": cross,
        "failed": failed,
        "extra": extra,
    }


def layer_metrics(records: list[tuple]) -> dict:
    """Per-layer counts and times of one traced pass (see README.md)."""
    if not records:
        return {"spans": 0, "span_self_s": 0.0, "layer_self_s": {}}
    s = self_times(records)
    names, self_s, dur_s, extra = s["names"], s["self_s"], s["dur_s"], s["extra"]

    def mask(name):
        return names == name

    def self_of(name):
        return float(self_s[mask(name)].sum())

    def total_of(name):
        return float(dur_s[mask(name)].sum())

    solve = mask("tridiag.solve_tridiagonal")
    step = mask("scheme.time_step")
    done_step = step & ~s["failed"]
    solves = int(solve.sum())
    steps = int(step.sum())
    inner = int(extra[done_step].sum())

    # the run_solver span each span belongs to, for solves wasted in failed runs
    run_of = np.full(len(names), -1, dtype=np.int64)
    is_run = mask("scheme.run_solver")
    parent = s["parent"]
    for sid in range(len(names)):
        if is_run[sid]:
            run_of[sid] = sid
        elif parent[sid] >= 0:
            run_of[sid] = run_of[parent[sid]]
    in_failed_run = (run_of >= 0) & s["failed"][np.maximum(run_of, 0)]
    wasted = int((solve & in_failed_run).sum())

    rows = extra[solve & (extra > 0)]
    maps = np.nonzero(mask("parallel.map_ordered"))[0]
    map_wall = float(dur_s[maps].sum())
    # the work items map_ordered ran, not its own calls such as worker_count
    kids = np.isin(parent, maps) & np.array([not n.startswith("parallel.") for n in names])
    kid_busy = np.where(s["cpu_s"][kids] >= 0, s["cpu_s"][kids], dur_s[kids])
    layer_self = Counter()
    for name, t in zip(names, self_s):
        layer_self[name.split(".", 1)[0]] += float(t)

    return {
        "spans": len(names),
        "span_self_s": float(self_s.sum()),
        "layer_self_s": dict(layer_self),
        "tridiag.solves": solves,
        "tridiag.self_s": self_of("tridiag.solve_tridiagonal"),
        "tridiag.us_per_solve": 1e6 * self_of("tridiag.solve_tridiagonal") / solves if solves else 0.0,
        # bands read (sub, diag, super, rhs) plus the solution written, in doubles
        "tridiag.bytes_computed": int(8 * (5 * rows - 2).sum()),
        "scheme.steps": steps,
        "scheme.inner_iters": inner,
        "scheme.inner_iters_per_step": inner / int(done_step.sum()) if done_step.any() else 0.0,
        "scheme.solves_per_step": solves / steps if steps else 0.0,
        "scheme.useful_solve_ratio": inner / solves if solves else 0.0,
        "scheme.wasted_solves": wasted,
        "scheme.assemble_self_s": self_of("scheme.assemble_step"),
        "scheme.coefficients_self_s": self_of("scheme.coefficients"),
        "scheme.time_step_self_s": self_of("scheme.time_step"),
        "scheme.run_solver_self_s": self_of("scheme.run_solver"),
        "model.surface_self_s": self_of("model.SolutionSurface"),
        "model.surface_bytes": int(extra[mask("model.SolutionSurface")].max(initial=0)),
        "model.build_grid_s": total_of("model.build_grid"),
        "cfkernel.pushes": int(mask("cfkernel.history_push").sum()),
        "cfkernel.push_self_s": self_of("cfkernel.history_push"),
        "reporting.surface_csv_s": total_of("reporting.emit_surface_csv"),
        "reporting.boundary_csv_s": total_of("reporting.emit_boundary_csv"),
        "reporting.summary_s": total_of("reporting.emit_summary"),
        "reporting.plot_s": total_of("reporting.emit_plot_script"),
        "cli.run_cli_s": total_of("cli.run_cli"),
        "cli.self_s": self_of("cli.run_cli"),
        "analysis.observed_order_s": total_of("analysis.observed_order"),
        "analysis.truncation_study_s": total_of("analysis.y_truncation_study"),
        "analysis.lemma1_s": total_of("analysis.lemma1_check"),
        "oracles.psor_s": total_of("oracles.psor_american_put"),
        "oracles.binomial_s": total_of("oracles.binomial_american_put"),
        "parallel.map_calls": int(maps.size),
        "parallel.workers": max((np.unique(s["tid"][kids & (parent == m)]).size for m in maps),
                                default=0),
        "parallel.overlap_ratio": float(kid_busy.sum()) / map_wall if map_wall > 0 else 0.0,
    }


def write_spans(records: list[tuple], path) -> None:
    """One CSV line per span: id, parent, name, thread, start_ns, end_ns, failed."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,thread,start_ns,end_ns,failed\n")
        for sid, par, name, thread, t0, t1, _c, err, _x in sorted(records):
            fh.write(f"{sid},{par},{name},{thread},{t0},{t1},{int(err)}\n")

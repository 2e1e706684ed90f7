"""Command-line front end.

Subcommands: solve, truncation-study, order-study, stability-scan,
oracle-compare. Exit code 0 on success, 1 on validation problems (bad flags,
invalid parameters, unreadable config), 2 on numerical failure (with the
failing step in the message).

Flags can also come from a JSON config file (--config), whose keys must be
flags of the subcommand; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .analysis import (
    amplification_factor,
    lemma1_check,
    observed_order,
    root_condition,
    y_truncation_study,
)
from .errors import FronfixError, ValidationError
from .model import ModelParams, build_grid, validate_params
from .oracles import (
    binomial_american_put,
    check_oracle_inputs,
    european_put_closed_form,
    psor_american_put,
)
from .reporting import (
    emit_boundary_csv,
    emit_study_csv,
    emit_summary,
    emit_surface_csv,
    fmt,
    write_json,
    write_rows,
)
from .scheme import final_level, level_price, price_at, run_solver

__all__ = ["run_cli", "main"]


# (flag, type, default, help) of every subcommand; a flag's value comes from
# the command line, else the config file, else this default
_SHARED_FLAGS = (
    ("r", float, 0.1, "risk-free rate per year"),
    ("sigma", float, 0.2, "volatility per sqrt-year"),
    ("E", float, 1.0, "strike price"),
    ("T", float, 1.0, "expiry in years"),
    ("alpha", float, 1.0, "fractional order in (0,1]; 1 = classical scheme"),
    ("config", str, None, "JSON file with defaults for any flag"),
    ("out", str, "out", "output directory"),
    ("M", int, 100, "spatial node count"),
    ("mu", float, 20.0, "grid ratio dtau/dy^2"),
    ("Y", str, None, "truncation bound in y = ln(X/X*) (default 4); comma list for studies"),
)


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {name: default for name, _, default, _ in args.flags}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError([f"config file unreadable: {exc}"])
        if not isinstance(loaded, dict):
            raise ValidationError(["config file must hold a JSON object"])
        unknown = ", ".join(sorted(loaded.keys() - merged.keys()))
        if unknown:  # a mistyped key would leave its flag at its default
            raise ValidationError([f"config keys that are not flags of {args.command}: {unknown}"])
        merged.update(loaded)
    for key, val in vars(args).items():
        if key not in ("command", "config", "handler", "flags") and val is not None:
            merged[key] = val
    return merged


def _num(cfg: dict, key: str, kind=float, many: bool = False):
    """cfg[key] as a number, or as a list of them from a comma list when many;
    a malformed value, or one that int() would change, is a validation error
    that names the key."""
    val = cfg[key]
    try:
        nums = [kind(tok) for tok in str(val).split(",") if tok] if many else kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError([f"{key} must be numeric, got {val!r}"]) from None
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ValidationError([f"{key} must be an integer, got {val!r}"])
    return nums


def _params(cfg: dict) -> ModelParams:
    p = ModelParams(*(_num(cfg, key) for key in ("r", "sigma", "E", "T", "alpha")))
    validate_params(p)
    return p


def _single_Y(cfg: dict) -> float | None:
    if cfg["Y"] is None:
        return None  # build_grid's default
    # studies accept comma lists; single-run modes need one value
    vals = _num(cfg, "Y", many=True)
    if len(vals) != 1:
        raise ValidationError(["this mode expects a single Y"])
    return vals[0]


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(cfg: dict) -> int:
    p = _params(cfg)
    run = run_solver(p, _num(cfg, "M", int), _num(cfg, "mu"), _single_Y(cfg))
    price = price_at(run, p.E)  # a run with no price writes no file
    out = _out_dir(cfg)
    emit_boundary_csv(run, out / "boundary.csv")
    emit_surface_csv(run, out / "surface.csv")
    rep = lemma1_check(p, run.grid, run.surface.xf)
    emit_summary(run, rep, out / "summary.json")
    print(f"solved: N={run.grid.N} xf(T)={fmt(run.surface.xf[-1])} "
          f"price(S=E)={fmt(price)}")
    print(f"outputs in {out}")
    return 0


def _cmd_truncation(cfg: dict) -> int:
    p = _params(cfg)
    ys = [1.0, 2.0, 4.0] if cfg["Y"] is None else _num(cfg, "Y", many=True)
    rows = y_truncation_study(p, _num(cfg, "M", int), _num(cfg, "mu"), ys)
    emit_study_csv(rows, _out_dir(cfg) / "truncation.csv")
    for row in rows:
        print(f"Y={row.Y:g} M={row.M} xf(T)={fmt(row.xf_final)}")
    return 0


def _cmd_order(cfg: dict) -> int:
    p = _params(cfg)
    base = build_grid(p, _num(cfg, "M", int), _num(cfg, "mu"), _single_Y(cfg))
    est = observed_order(p, base, _num(cfg, "refinements", int))
    write_json(_out_dir(cfg) / "order.json", asdict(est))
    print(f"spatial rate (price): {est.spatial_rate:.3f}")
    print(f"temporal rate (price): {est.temporal_rate:.3f}")
    return 0


def _cmd_stability(cfg: dict) -> int:
    p_base = _params(cfg)
    n_b = _num(cfg, "wavenumbers", int)
    alphas = _num(cfg, "alphas", many=True)
    bad = [f"wavenumbers must be >= 1, got {n_b}"] if n_b < 1 else []
    bad += [] if alphas else ["alphas must list at least one order"]
    if bad:  # a scan of nothing would report itself stable
        raise ValidationError(bad)
    g = build_grid(p_base, _num(cfg, "M", int), _num(cfg, "mu"), _single_Y(cfg))
    bs = [k * math.pi / g.dy / n_b for k in range(1, n_b + 1)]
    rows = []
    worst = 0.0
    stable = True
    for alpha in alphas:
        p = ModelParams(p_base.r, p_base.sigma, p_base.E, p_base.T, alpha)
        for b in bs:
            lam = amplification_factor(p, g, b)
            worst = max(worst, lam)
            # decided exactly: a |lambda| that rounds to 1 may still be stable
            stable = stable and root_condition(p, g, b)
            rows.append((fmt(alpha), fmt(b), fmt(lam)))
    write_rows(_out_dir(cfg) / "stability.csv", "alpha,b,lambda", rows)
    print(f"max |lambda| over scan: {worst:.6f} ({'stable' if stable else 'UNSTABLE'})")
    return 0 if stable else 2


def _cmd_oracle_compare(cfg: dict) -> int:
    p = _params(cfg)
    s0 = _num(cfg, "S0") if cfg["S0"] is not None else p.E
    steps, M_s, N_t = _num(cfg, "steps", int), _num(cfg, "Ms", int), _num(cfg, "Nt", int)
    check_oracle_inputs(p, s0, steps=steps, M_s=M_s, N_t=N_t)  # before any march
    g, xf, v_last = final_level(p, _num(cfg, "M", int), _num(cfg, "mu"), _single_Y(cfg))
    ff_price = level_price(p, g, xf, v_last, s0)
    tree = binomial_american_put(p, s0, steps)
    psor = psor_american_put(p, s0, M_s, N_t)
    euro = european_put_closed_form(p, s0)
    payload = {
        "S0": s0,
        "front_fixing": ff_price,
        "front_fixing_boundary": float(p.E * xf[-1]),
        "binomial": tree.price,
        "psor": psor.price,
        "psor_boundary": psor.boundary_estimate,
        "european": euro,
    }
    write_json(_out_dir(cfg) / "oracle_compare.json", payload)
    for key in ("front_fixing", "binomial", "psor", "european"):
        print(f"{key:>13}: {payload[key]:.6f}")
    return 0


# name: (help, handler, the flags it adds to _SHARED_FLAGS)
_COMMANDS = {
    "solve": ("run the solver and write surface/boundary/summary", _cmd_solve, ()),
    "truncation-study": ("final boundary for several truncation bounds", _cmd_truncation, ()),
    "order-study": ("observed convergence order on nested grids", _cmd_order, (
        ("refinements", int, 2, None),
    )),
    "stability-scan": ("amplification-factor scan over Fourier modes", _cmd_stability, (
        ("alphas", str, "0.3,0.6,0.9", None),
        ("wavenumbers", int, 20, None),
    )),
    "oracle-compare": ("compare against binomial/obstacle/European oracles", _cmd_oracle_compare, (
        ("S0", float, None, None),
        ("steps", int, 5000, None),
        ("Ms", int, 400, None),
        ("Nt", int, 400, None),
    )),
}


def run_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="fronfix",
        description="American put pricing by the front-fixing Crank-Nicolson scheme",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, handler, extra) in _COMMANDS.items():
        sub = subs.add_parser(name, help=helptext)
        flags = _SHARED_FLAGS + extra
        for flag, kind, _, flaghelp in flags:
            sub.add_argument("--" + flag.replace("_", "-"), type=kind, help=flaghelp)
        sub.set_defaults(handler=handler, flags=flags)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = _merge_config(args)
        return args.handler(cfg)
    except (ValidationError, MemoryError) as exc:  # e.g. a grid of 1e14 levels
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except FronfixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

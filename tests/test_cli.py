from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fronfix.cli
import fronfix.reporting
import fronfix.scheme
from fronfix.cli import run_cli
from fronfix.model import ModelParams, SolutionSurface
from fronfix.reporting import emit_boundary_csv, emit_surface_csv
from fronfix.scheme import run_solver

SRC = str(Path(fronfix.cli.__file__).resolve().parents[1])


def solve_flags(alpha):
    return [
        "solve", "--r", "0.1", "--sigma", "0.2", "--E", "1", "--T", "1",
        "--alpha", alpha, "--M", "100", "--mu", "20", "--Y", "4",
    ]


class TestSolveMode:
    def test_fractional_solve_writes_outputs(self, tmp_path):
        code = run_cli(solve_flags("0.99") + ["--out", str(tmp_path)])
        assert code == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "boundary.csv", "summary.json", "surface.csv",
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid"]["N"] >= 1
        assert "achieved_horizon" in summary
        assert "lemma1" in summary
        assert "max_inner_iterations" in summary
        assert "denominator_warnings" in summary

    def test_readme_fractional_example_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # its boundary path goes 1, 0.632, 0.455, -0.480 (level 3), ...; the
        # march ends at xf = 5.5e-11 > 0, which once exited 0 with price 0
        out = tmp_path / "out"
        assert run_cli(solve_flags("0.9") + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: boundary xf = -0.479585 at level 3 is outside (0, 1]; "
            "price undefined\n"
        )
        assert not out.exists()

    def test_alpha_near_one_writes_lemma1(self, tmp_path):
        # the paper's q-scaled triple overflows at this order; lemma1 reads
        # the stepper's rows, whose row weight stays finite
        code = run_cli([
            "solve", "--alpha", "0.999999", "--M", "50", "--mu", "20", "--Y", "4",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["lemma1"]["sign_diag"] == -1

    def test_invalid_sigma_exits_one(self, tmp_path, capsys):
        code = run_cli(["solve", "--sigma", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "sigma must be positive" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path):
        assert run_cli(["solve", "--nonsense", "1"]) == 1

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        # fine fractional grids hit the startup infeasibility by design
        code = run_cli([
            "solve", "--alpha", "0.3", "--M", "200", "--mu", "20", "--Y", "4",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "step" in capsys.readouterr().err

    def test_boundary_below_the_perpetual_put_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # every level stays in (0, 1] and the march ends at xf = 3.5e-10,
        # which once exited 0 with price 0
        out = tmp_path / "out"
        argv = ["solve", "--alpha", "0.9", "--M", "100", "--mu", "10", "--out", str(out)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            "numerical failure: boundary xf = 0.386123 at level 1 is below the perpetual "
            "boundary 0.833333; price undefined\n"
        )
        assert not out.exists()

    def test_spot_beyond_the_truncation_bound_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # at r = 0 the boundary ends at xf = 0.543, so S = E lies at
        # y = ln(1/0.543) = 0.611, beyond Y = 0.5: this once exited 0 with price 0
        out = tmp_path / "out"
        assert run_cli(["solve", "--r", "0", "--Y", "0.5", "--M", "25", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: spot S = 1 lies at y = 0.61065, at or beyond the truncation "
            "bound Y = 0.5; price undefined\n"
        )
        assert not out.exists()

    def test_nonpositive_final_boundary_exits_two_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        run = classical_run(1.0)
        v, xf = run.surface.v.copy(), run.surface.xf.copy()
        xf[-1] = -1.5e-10
        v[-1, 0] = 1.0 - xf[-1]
        bad = dataclasses.replace(run, surface=SolutionSurface(v, xf))
        monkeypatch.setattr(fronfix.cli, "run_solver", lambda *args: bad)
        code = run_cli(["solve", "--M", "40", "--mu", "10", "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"at level {run.grid.N}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 40, "mu": 10.0, "alpha": 1.0, "out": str(tmp_path / "a")}))
        code = run_cli(["solve", "--config", str(cfg), "--M", "50"])
        assert code == 0
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["grid"]["M"] == 50  # flag wins
        assert summary["grid"]["mu"] == 10.0  # config fills the rest

    @pytest.mark.parametrize("argv, config, key", [
        (["solve", "--Y", "abc"], None, "Y"),
        (["stability-scan", "--alphas", "0.3,x"], None, "alphas"),
        (["solve"], {"M": "abc"}, "M"),
        (["solve"], {"r": None}, "r"),
        (["solve"], {"M": float("inf")}, "M"),
    ], ids=["Y-flag", "alphas-flag", "M-config", "r-config", "M-config-inf"])
    def test_malformed_number_exits_one_naming_the_key(self, tmp_path, argv, config, key):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", "cfg.json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "fronfix.cli", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"validation error: {key} must be numeric")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alphas", ["nan", "0", "1.5", "0.3,-0.3"])
    def test_scan_order_outside_model_exits_one(self, tmp_path, capsys, alphas):
        out = tmp_path / "out"
        code = run_cli(["stability-scan", "--M", "40", "--mu", "10",
                        "--alphas", alphas, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("validation error: alpha must")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("solve", "M"),
        ("order-study", "refinements"),
        ("oracle-compare", "steps"),
        ("oracle-compare", "Ms"),
        ("oracle-compare", "Nt"),
        ("stability-scan", "wavenumbers"),
    ])
    def test_non_integral_config_integer_exits_one(self, tmp_path, capsys, command, key):
        # int() would truncate 20.7 to 20; the value is refused instead
        config = {"M": 20, "mu": 5.0, "out": str(tmp_path / "out"), key: 20.7}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_cli([command, "--config", str(tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: {key} must be an integer, got 20.7"
        )
        assert not (tmp_path / "out").exists()

    def test_integral_float_config_integer_is_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 40.0, "mu": 10.0, "out": str(tmp_path / "a")}))
        assert run_cli(["solve", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["grid"]["M"] == 40

    @pytest.mark.parametrize("argv, config, message", [
        (["solve"], [{"M": 40}], "config file must hold a JSON object"),
        (["solve"], {"M": "abc"}, "M must be numeric, got 'abc'"),
        (["solve", "--Y", "1,2"], None, "this mode expects a single Y"),
    ], ids=["config-list", "M-config", "Y-list"])
    def test_refused_input_exits_one_in_process(
        self, tmp_path, monkeypatch, capsys, argv, config, message
    ):
        # the subprocess tests above see the exit code; this sees the message
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", "cfg.json"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_denominator_warnings_reach_the_run_and_summary(self, tmp_path, monkeypatch):
        # no step of the default run warns; a warning threshold above
        # |Omega2|/scale <= 2 makes every step warn, named by its index
        assert run_solver(ModelParams(0.1, 0.2, 1.0, 1.0), 20, 10.0).denominator_warnings == ()
        monkeypatch.setattr(fronfix.scheme, "_DENOM_WARN", 10.0)
        run = run_solver(ModelParams(0.1, 0.2, 1.0, 1.0), 20, 10.0)
        assert run.denominator_warnings == tuple(range(run.grid.N))
        assert run_cli(["solve", "--M", "20", "--mu", "10", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["denominator_warnings"] == list(range(run.grid.N))

    def test_unreadable_config_exits_one(self, tmp_path):
        assert run_cli(["solve", "--config", str(tmp_path / "nope.json")]) == 1

    def test_grid_too_large_to_allocate_exits_one(self, tmp_path, capsys):
        # N = 6.25e14 levels of 101 nodes is 449 PiB, beyond any address space,
        # so the allocation fails at once; it was once numpy's bare traceback
        out = tmp_path / "out"
        assert run_cli(["solve", "--M", "100", "--mu", "1e-12", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_grid_too_large_to_index_exits_one(self, tmp_path):
        # mu*dy^2 underflows to 0; it was once a ZeroDivisionError traceback
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "fronfix.cli", "solve", "--M", "100", "--mu", "5e-324"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("validation error: mu=5e-324 gives dtau=0.0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, keys", [
        ({"sigam": 0.3, "M": 50}, "sigam"),
        ({"alphas": 0.9, "wavenumbers": 5, "M": 50}, "alphas, wavenumbers"),
    ], ids=["typo", "other-subcommand"])
    def test_unknown_config_key_exits_one_naming_it(self, tmp_path, capsys, config, keys):
        # once ignored: the run exited 0 with the flag at its default
        out = tmp_path / "out"
        (tmp_path / "cfg.json").write_text(json.dumps(dict(config, out=str(out))))
        assert run_cli(["solve", "--config", str(tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err == (
            f"validation error: config keys that are not flags of solve: {keys}\n")
        assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        args = ["solve", "--alpha", "1.0", "--M", "40", "--mu", "10"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ("surface.csv", "boundary.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestOtherModes:
    def test_truncation_study_three_rows(self, tmp_path):
        code = run_cli([
            "truncation-study", "--Y", "1,2,4", "--mu", "20", "--M", "60",
            "--alpha", "1.0", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "truncation.csv")))
        assert [float(r["Y"]) for r in rows] == [1.0, 2.0, 4.0]

    def test_order_study_writes_rates(self, tmp_path):
        code = run_cli([
            "order-study", "--M", "20", "--mu", "10", "--alpha", "1.0",
            "--refinements", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "order.json").read_text())
        assert len(payload["spatial_table"]) == 3
        assert len(payload["temporal_price_rates"]) == 1

    def test_stability_scan(self, tmp_path):
        code = run_cli([
            "stability-scan", "--M", "100", "--mu", "20", "--out", str(tmp_path),
            "--alphas", "0.3,0.9,1", "--wavenumbers", "5",
        ])
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "stability.csv")))
        assert list(rows[0]) == ["alpha", "b", "lambda"]
        assert len(rows) == 3 * 5
        assert all(0.0 < float(r["lambda"]) < 1.0 for r in rows)

    @pytest.mark.parametrize("flag, value, message", [
        ("--wavenumbers", "0", "wavenumbers must be >= 1, got 0"),
        ("--wavenumbers", "-3", "wavenumbers must be >= 1, got -3"),
        ("--alphas", ",", "alphas must list at least one order"),
    ])
    def test_stability_scan_of_nothing_exits_one(self, tmp_path, capsys, flag, value, message):
        # once a header-only stability.csv and "0.000000 (stable)", exit 0
        out = tmp_path / "out"
        assert run_cli(["stability-scan", "--M", "50", flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--growth", "--history-terms"])
    def test_stability_scan_has_no_free_growth_flags(self, tmp_path, flag):
        out = tmp_path / "out"
        assert run_cli(["stability-scan", "--M", "40", flag, "1", "--out", str(out)]) == 1
        assert not out.exists()

    def test_stability_scan_unstable_mode_exits_two(self, tmp_path, monkeypatch, capsys):
        # the verdict is the exact root condition, not |lambda| < 1
        monkeypatch.setattr(fronfix.cli, "root_condition", lambda p, g, b: False)
        assert run_cli(["stability-scan", "--M", "40", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out.endswith("(UNSTABLE)\n")
        assert (tmp_path / "stability.csv").exists()

    @pytest.mark.parametrize("mu", ["1e-16", "1e-17"])
    def test_stability_scan_of_a_lambda_rounding_to_one_is_stable(self, tmp_path, capsys, mu):
        # |lambda| = 1 - O(dtau) prints as 1.000000; at alpha = 0.3 rho rounds
        # to exactly 1, so G = 1 is an exact simple root: bounded, not growing
        assert run_cli(["stability-scan", "--M", "4", "--mu", mu, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "max |lambda| over scan: 1.000000 (stable)\n"

    def test_truncation_study_below_the_perpetual_put_exits_two(self, tmp_path, capsys):
        # the alpha = 0.9 march ends at xf = 3.5e-10, which the study once wrote
        out = tmp_path / "out"
        argv = ["truncation-study", "--alpha", "0.9", "--M", "100", "--mu", "10", "--Y", "4"]
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: boundary xf = 0.386123 at level 1 is below the perpetual "
            "boundary 0.833333; price undefined\n"
        )
        assert not out.exists()

    def test_oracle_compare(self, tmp_path):
        code = run_cli([
            "oracle-compare", "--M", "100", "--mu", "20", "--alpha", "1.0",
            "--steps", "500", "--Ms", "200", "--Nt", "200", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "oracle_compare.json").read_text())
        assert payload["european"] <= payload["binomial"] + 1e-6
        assert abs(payload["front_fixing"] - payload["binomial"]) < 5e-3

    @pytest.mark.parametrize("flag, value", [
        ("--Nt", "0"), ("--Nt", "-3"), ("--Ms", "0"), ("--Ms", "1"), ("--Ms", "2"),
    ])
    def test_oracle_compare_unsolvable_psor_grid_exits_one(self, tmp_path, flag, value):
        # once a ZeroDivisionError or ValueError traceback, or (Nt < 0) exit 0
        # with a PSOR price from no time step at all
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "fronfix.cli", "oracle-compare", "--M", "20", "--mu", "5",
             "--steps", "50", flag, value],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"validation error: {flag[2:]} must be >= ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--Nt", "0", "Nt must be >= 1, got 0"),
        ("--Ms", "2", "Ms must be >= 3, got 2"),
        ("--steps", "0", "steps must be >= 1, got 0"),
        ("--S0", "-1", "S0 must be positive and finite, got -1.0"),
        ("--S0", "nan", "S0 must be positive and finite, got nan"),  # once a ValueError traceback
        ("--S0", "inf", "S0 must be positive and finite, got inf"),
        # once classical oracles written beside a fractional price
        ("--alpha", "0.99",
         "the oracles price the classical model only (alpha = 1), got alpha = 0.99"),
    ])
    def test_oracle_compare_refuses_before_any_work(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        # these were once checked only after the march and the tree had run
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the oracle inputs were checked")

        monkeypatch.setattr(fronfix.scheme, "_advance", no_work)  # every march's loop
        for name in ("binomial_american_put", "psor_american_put"):
            monkeypatch.setattr(fronfix.cli, name, no_work)
        out = tmp_path / "out"
        assert run_cli(["oracle-compare", flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    def test_oracle_compare_has_no_relaxation_flag(self, tmp_path, capsys):
        # each obstacle level is solved exactly: there is no relaxation factor to set
        out = tmp_path / "out"
        assert run_cli(["oracle-compare", "--omega", "2.5", "--out", str(out)]) == 1
        assert "unrecognized arguments: --omega 2.5" in capsys.readouterr().err
        assert not out.exists()


class TestOutputBytes:
    """Every file each subcommand writes, pinned by SHA-256. The digests were
    recorded on x86-64 Linux (glibc libm); every run takes exp, log or sin of
    finite arguments somewhere (the price, the weights, the oracles), so
    another libm may round one of them differently."""

    @pytest.mark.parametrize("argv, digests", [
        (["solve", "--M", "120"], {
            "boundary.csv": "0f7aeca758eff3b0b143407af537637a4287bb3db19febc48ac162701c369850",
            "summary.json": "69da8192b5fb7129bccea9d78b9735d0105fb80f6752807d25902ba73ad0624a",
            "surface.csv": "f8176919d8897fe1c05243cc405210d5e49e2da61d79e2a0696b43911dba1ed2",
        }),
        (["solve", "--alpha", "0.99", "--M", "60", "--E", "100"], {
            "boundary.csv": "3717d9684cbb7d6280e27f061d47666b59c9252e89286bbfdfe2e696eba7c1f7",
            "summary.json": "a02fd345bc1b937856e5f8f7da18b48415a0bc940c9e2be788b525ca97f02bd3",
            "surface.csv": "7b9c0e1a57677bf5addb7bacf82e99b2c33e9a206c5e907ff719cee15c51fea2",
        }),
        (["order-study", "--M", "50", "--mu", "5"], {
            "order.json": "ec97da20e7cd68c9d1c251577c48cbe0c6d27b2b784b0fab664f43aadae74ea1",
        }),
        (["truncation-study", "--M", "60"], {
            "truncation.csv": "90c8dc515d9832c8005a8b8cc26ca825684bc6eed18d35cd54ae1a536dc27fc0",
        }),
        (["stability-scan", "--M", "50"], {
            "stability.csv": "bdb2727c6012e6134ad71fc468f152dd1c6097c7a2b0cedecae699b2d61ef2b0",
        }),
        (["oracle-compare", "--M", "60", "--steps", "300", "--Ms", "51", "--Nt", "40"], {
            "oracle_compare.json": "665dd2c29c5fda3fe4901406b8d1c4ed645c9e983eaa013984cba7c68a504d79",
        }),
    ], ids=["solve", "solve-fractional-E100", "order-study", "truncation-study",
            "stability-scan", "oracle-compare"])
    def test_output_bytes_are_pinned(self, tmp_path, argv, digests):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 0
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert written == digests


def reference_surface_csv(run) -> bytes:
    """surface.csv formatted one field at a time, as the writer once did."""
    E, dy = run.params.E, run.grid.dy
    lines = ["n,m,y,v,V\n"]
    for n in range(run.surface.levels):
        for m in range(run.surface.nodes):
            v = run.surface.v[n, m]
            fields = (m * dy, v, E * v)
            lines.append(f"{n},{m}," + ",".join(format(float(x), ".17g") for x in fields) + "\n")
    return "".join(lines).encode()


def classical_run(E):
    return run_solver(ModelParams(r=0.1, sigma=0.2, E=E, T=1.0, alpha=1.0), 40, 10.0, 4.0)


def hand_built_run(E):
    # signed zeros, the smallest subnormal, a huge value and nan
    run = classical_run(E)
    v = np.array([
        [0.0, -0.0, 0.0, 0.0],
        [0.25, 5e-324, 1e300, -0.0],
        [0.5, np.nan, -0.0, 0.0],
    ])
    return dataclasses.replace(run, surface=SolutionSurface(v, np.array([1.0, 0.75, 0.5])))


class TestEmission:
    def run(self, base_params, M=8, mu=4.0, Y=1.0):
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.5, alpha=1.0)
        return run_solver(p, M, mu, Y)

    def test_seventeen_digit_round_trip(self, base_params, tmp_path):
        run = self.run(base_params)
        emit_boundary_csv(run, tmp_path / "boundary.csv")
        emit_surface_csv(run, tmp_path / "surface.csv")
        rows = list(csv.DictReader(open(tmp_path / "surface.csv")))
        for row in rows:
            n, m = int(row["n"]), int(row["m"])
            stored = run.surface.v[n, m]
            parsed = float(row["v"])
            assert struct.pack("<d", stored) == struct.pack("<d", parsed)
        brows = list(csv.DictReader(open(tmp_path / "boundary.csv")))
        for row in brows:
            n = int(row["n"])
            assert float(row["xf"]) == run.surface.xf[n]
            assert float(row["Xstar"]) == run.params.E * run.surface.xf[n]

    @pytest.mark.parametrize("make_run, E", [
        (classical_run, 1.0),  # V reuses the v strings
        (classical_run, 100.0),  # V formatted on its own
        (hand_built_run, 1.0),
        (hand_built_run, 3.0),
    ])
    def test_surface_bytes_match_field_by_field_reference(self, make_run, E, tmp_path):
        run = make_run(E)
        emit_surface_csv(run, tmp_path / "surface.csv")
        assert (tmp_path / "surface.csv").read_bytes() == reference_surface_csv(run)

    def test_failed_surface_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the writer slices blocks of levels; with one level per block the
        # slice of level 2 is taken after levels 0 and 1 were written
        seen = []

        class FailsAtLevel2(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, slice) and index.start == 2:
                    seen.append(sorted(f.name for f in tmp_path.iterdir()))
                    raise RuntimeError("interrupted at level 2")
                return super().__getitem__(index)

        run = classical_run(1.0)
        monkeypatch.setattr(fronfix.reporting, "_CHUNK_VALUES", run.surface.nodes)
        surface = types.SimpleNamespace(
            v=run.surface.v.view(FailsAtLevel2),
            levels=run.surface.levels,
            nodes=run.surface.nodes,
        )
        with pytest.raises(RuntimeError, match="level 2"):
            emit_surface_csv(dataclasses.replace(run, surface=surface), tmp_path / "surface.csv")
        assert seen == [["surface.csv.tmp"]]
        assert list(tmp_path.iterdir()) == []

    def test_row_counts_and_order(self, base_params, tmp_path):
        # one-step run on a 4-node grid: 2 boundary rows, 10 surface rows
        p = ModelParams(r=0.1, sigma=0.2, E=1.0, T=0.1, alpha=1.0)
        run = run_solver(p, 4, 16.0, 1.0)
        assert run.grid.N == 1
        emit_boundary_csv(run, tmp_path / "boundary.csv")
        emit_surface_csv(run, tmp_path / "surface.csv")
        surf = list(csv.DictReader(open(tmp_path / "surface.csv")))
        bnd = list(csv.DictReader(open(tmp_path / "boundary.csv")))
        assert len(bnd) == 2
        assert len(surf) == 10
        keys = [(int(r["n"]), int(r["m"])) for r in surf]
        assert keys == sorted(keys)

    def test_header_only_for_empty_table(self, tmp_path):
        from fronfix.reporting import emit_study_csv

        emit_study_csv(tuple(), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == "Y,M,xf_final\n"

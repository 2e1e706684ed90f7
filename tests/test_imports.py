from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import fronfix


def test_solving_imports_no_scipy():
    # scipy costs a fresh process about 0.3 s and 29 MB; the solver needs numpy only
    src = str(Path(fronfix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys, fronfix; "
        "fronfix.run_solver(fronfix.ModelParams(0.1, 0.2, 1.0, 1.0), 8, 20.0, 4.0); "
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"

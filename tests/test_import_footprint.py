"""The server's import path loads numpy as its only array dependency."""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = ("repro", "repro.cli", "repro.serve.api", "repro.shard", "repro.store")


def test_scipy_is_never_imported():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr

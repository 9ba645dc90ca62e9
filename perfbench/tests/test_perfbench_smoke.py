"""Tiny-scale smoke runs of every workload, plus the CLI and its missing-source exit."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
from e2e import inputs, spec, workloads

TINY = 1 / 10_000
PERFBENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def tiny_inputs(monkeypatch):
    monkeypatch.setattr(inputs, "SCALE", TINY)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(name, trace):
    outcome = workloads.WORKLOADS[name](seed=3, seconds=1.0, trace=trace)
    assert outcome.failed == 0, outcome.checks.results
    assert outcome.attempted > 0
    if trace:
        assert list(outcome.per_layer) == list(spec.PER_LAYER)
        assert outcome.tree
    else:
        assert set(outcome.e2e) == set(spec.E2E)
        assert all(value > 0 for value in outcome.e2e.values())
        detail = {row: value for row, value, _, _ in outcome.detail}
        if name != "replay-cold":
            assert outcome.e2e["setup_s"] == pytest.approx(detail["build_s"] + detail["restart_s"])
    assert not workloads.WORK_ROOT.exists() or not any(workloads.WORK_ROOT.iterdir())


def test_cli_prints_result_last(capsys):
    handler = signal.getsignal(signal.SIGTERM)
    try:
        code = run.main(
            ["--workload", "replay-cold", "--seed", "5", "--seconds", "0.1", "--trace", "0"]
        )
    finally:
        signal.signal(signal.SIGTERM, handler)
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(spec.E2E)
    assert all(entry["unit"] == spec.E2E[name] for name, entry in result["metrics"].items())
    assert "seed=5" in out


def test_layer_map_names_only_benchmark_metrics():
    layer_map = json.loads((PERFBENCH / "LAYERS.json").read_text())["layer_map"]
    mapped = [name for entry in layer_map for name in entry["layers"]]
    assert sorted(mapped) == sorted(spec.PER_LAYER)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""

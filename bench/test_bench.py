"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER, self_times  # noqa: E402
from workloads import WORKLOADS, make_config, singular_threshold  # noqa: E402


def test_quick_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[0] for line in lines] == list(WORKLOADS)
    for line in lines:
        result = json.loads(line.split(" ", 1)[1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)


def test_metric_lists_match_benchmark_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_configs_follow_the_seed(workload):
    assert make_config(workload, 7) == make_config(workload, 7)
    assert make_config(workload, 7) != make_config(workload, 8)


def test_singular_suite_stays_above_threshold():
    e_min = singular_threshold(0.0, -0.25)
    assert abs(e_min - 0.39052) < 1e-5
    for seed in range(200):
        assert make_config("singular-suite", seed)["prob"]["E_small"] > e_min


def test_self_time_subtracts_direct_children_only():
    spans = [{"start": 0.0, "end": 10.0, "parent": -1},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1},
             {"start": 5.0, "end": 7.0, "parent": 0}]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


@pytest.mark.parametrize("code, correct", [(3, True), (4, False)])
def test_failed_command_is_counted(monkeypatch, code, correct):
    """Exit 3 (integration failure) leaves no outputs and only counts as a
    failed operation; exit 4 (the program's experiment checks failed) has
    its outputs checked and makes the run incorrect."""
    def spawn(mode, config, out, trace=None):
        out.mkdir()
        return {"code": code, "wall": 1.0, "setup": 0.1, "main": 0.9,
                "rss_mb": 1.0}
    monkeypatch.setattr(run, "_spawn", spawn)
    op = run.Run("linear", 1, quick=True)
    try:
        assert op.operation(False) is None
    finally:
        op.close()
    assert (op.attempted, op.failed, op.correct) == (1, 1, correct)

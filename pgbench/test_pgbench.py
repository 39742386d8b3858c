"""Smoke tests of the benchmark itself, at a size that runs in seconds.

They check the benchmark's contract, not the program's speed: every metric
``BENCHMARK.json`` declares is emitted with its unit, traced self times are
consistent with their spans, and a checkout without sources is refused.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import REFERENCE_NOMINAL_S, SMOKE  # noqa: E402


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload in both modes, once per test module."""
    runs = {}
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            runs[name, trace] = run.measure(name, 7, 0.3, trace, sizes=SMOKE, workdir=str(workdir))
    return runs


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (False, True))
def test_every_metric_is_emitted_with_its_unit(smoke_runs, name, trace):
    result, record, _ = smoke_runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["checks"]
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert bool(record["errors"]) == bool(result["failed"])
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(declared)
    for metric, unit in declared.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert math.isfinite(entry["value"]) and entry["value"] >= 0
        if not trace:
            assert entry["value"] > 0, metric
    for key in ("git_sha", "source_sha256", "cpu_count", "python", "numpy", "scipy", "seed"):
        assert record[key] not in (None, "")
    assert record["samples"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_end_to_end_times_are_scaled_by_the_reference_alone(smoke_runs, name):
    result, record, _ = smoke_runs[name, False]
    speed = REFERENCE_NOMINAL_S / record["reference_median_s"]
    measured = record["metrics_as_measured"]
    reported = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    for metric in ("setup_s", "query_p50_ms", "query_p90_ms"):
        assert reported[metric] == pytest.approx(measured[metric] * speed)
    assert reported["queries_per_s"] == pytest.approx(measured["queries_per_s"] / speed)
    assert reported["peak_rss_mb"] == measured["peak_rss_mb"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_self_times_fit_inside_their_spans(smoke_runs, name):
    _, _, doc = smoke_runs[name, True]
    spans = doc["spans"]
    assert spans
    for span in spans:
        duration = span["end"] - span["start"]
        assert 0.0 <= span["self"] <= duration + 1e-12
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["self"] <= parent["end"] - parent["start"] + 1e-12


def test_traced_counters_cover_every_set_up_of_the_phase(smoke_runs):
    """A streaming replay replaces the session; its counts must not be lost."""
    result, record, _ = smoke_runs["streaming", True]
    traced_units = record["units"][1]
    set_ups = 1 + (traced_units - 1) // SMOKE.batches
    assert set_ups > 1
    # Each set-up constructs the k-hash and the Bloom sets once.
    assert result["metrics"]["engine.session.constructions"]["value"] == 2 * set_ups


def test_incomplete_checkout_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "pgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "pgbench/run.py", "--workload", "serving", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout

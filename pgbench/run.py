#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every metric by name and unit.

Run from the root of a checkout::

    python3 pgbench/run.py --workload serving --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their times
are put on the host-speed scale of :class:`workloads.Reference`.  ``--trace 1``
runs the loop untraced for half the time, replays the same units with span
tracing on (:mod:`spans`) and reports the per-layer metrics, including the
tracing overhead.  Both modes run the workload's output checks.  The last line
of standard output is the result object; the line before it, prefixed
``pgbench-record``, is the provenance record, which is also written with the
spans to ``.pgbench/`` in the checkout.  See ``README.md`` for the workloads
and the layer → metric → workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from spans import FAMILIES

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".pgbench"

#: The benchmark's declaration: workloads and metrics, each metric by name and unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}  # every workload reports all
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}  # from the traced run


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q)) if samples else 0.0


def end_to_end_metrics(
    workload: Any, loop: Any, rss_mb: float, speed: float = 1.0
) -> dict[str, float]:
    """The end-to-end metrics, with every time divided by the host ``speed``.

    ``speed`` is how many times faster than nominal the host ran the
    reference op during this run (``1.0`` reports the times as measured).
    """
    latencies = workload.latencies(loop)
    return {
        "setup_s": statistics.median(workload.setup_samples) * speed,
        "query_p50_ms": percentile(latencies, 50) * 1e3 * speed,
        "query_p90_ms": percentile(latencies, 90) * 1e3 * speed,
        "queries_per_s": len(workload.queries(loop)) / loop.seconds / speed,
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(
    workload: Any, base: Any, traced: Any, tracer: Any, reference: Any, pairs: int,
    chunks: int, rows_patched: int, counters: dict[str, float],
) -> dict[str, float]:
    own = tracer.self_time_by_name()
    total = tracer.total_time_by_name()
    counts = tracer.counts
    m: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    for f in FAMILIES:
        m[f"sketches.build_s.{f}"] = own.get(f"sketches.build.{f}", 0.0)
        pair_s = own.get(f"sketches.pair.{f}", 0.0)
        m[f"sketches.pair_s.{f}"] = pair_s
        if pair_s:
            m[f"sketches.pair_mpairs_per_s.{f}"] = counts[f"pairs.{f}"] / pair_s / 1e6
        m[f"algorithms.clique4_s.{f}"] = own.get(f"algorithms.clique4.{f}", 0.0)
    m["engine.batch.self_s"] = own.get("engine.batch", 0.0)
    m["engine.batch.chunks"] = float(chunks)
    m["engine.batch.pairs"] = float(pairs)
    m["engine.topk.scan_s"] = own.get("engine.topk", 0.0)
    m["engine.topk.candidates_scored"] = counts.get("topk.candidates_scored", 0.0)
    m["engine.lsh.build_s"] = own.get("engine.lsh.build", 0.0)
    m["engine.lsh.probe_s"] = own.get("engine.lsh.probe", 0.0)
    m["engine.lsh.apply_delta_s"] = own.get("engine.lsh.apply_delta", 0.0)
    m["engine.session.apply_delta_s"] = own.get("engine.session.apply_delta", 0.0)
    m["engine.sharded.build_s"] = total.get("engine.sharded.build", 0.0)
    m["engine.sharded.overhead_s"] = own.get("engine.sharded.request", 0.0)
    m["storage.open_s"] = own.get("storage.open", 0.0)
    m["storage.bytes_mapped"] = counts.get("storage.bytes_mapped", 0.0)
    m["dynamic.apply_s"] = own.get("dynamic.apply", 0.0)
    m["dynamic.rows_patched"] = float(rows_patched)
    for f in ("bloom", "khash"):
        m[f"core.apply_delta_s.{f}"] = own.get(f"core.apply_delta.{f}", 0.0)
    m["graph.edge_array_s"] = own.get("graph.edge_array", 0.0)
    m["graph.oriented_s"] = own.get("graph.oriented", 0.0)
    m["graph.prep_s"] = m["graph.edge_array_s"] + m["graph.oriented_s"]
    m["algorithms.jp_components_s"] = own.get("algorithms.jp", 0.0)
    m["algorithms.clique4_set_sketches"] = counts.get("clique4.set_sketches", 0.0)
    for kind in ("pair_jaccard", "top_k_scan", "lsh_topk"):
        m[f"request.{kind}_p50_ms"] = percentile(base.samples.get(kind, []), 50) * 1e3
    m["trace.overhead"] = traced.seconds / base.seconds
    m["host.reference_ms"] = reference.median() * 1e3
    attempted = base.attempted + traced.attempted
    m["error_rate"] = (base.failed + traced.failed) / attempted
    m.update(counters)
    m.update(workload.extra_layers(base))
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return m


def counter_deltas(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Public counters over one phase; the raw LSH counts become their mean."""
    delta = {name: after[name] - before.get(name, 0.0) for name in after}
    scored = delta.pop("lsh.candidates_scored", 0.0)
    probed = delta.pop("lsh.probed_sources", 0.0)
    if probed:
        delta["engine.lsh.mean_candidates"] = scored / probed
    return delta


def run_check(workload: Any, loop: Any) -> None:
    """Run the workload's output checks; a check that raises counts as failed."""
    try:
        workload.check(loop)
    except Exception as exc:  # the run still reports, with correct = false
        workload.checks[f"check_raised_{type(exc).__name__}"] = False


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over ``src/`` — identifies the measured code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(
    name: str, seed: int, seconds: float, trace: bool, sizes: Any = None,
    workdir: str | None = None,
) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any] | None]:
    """Run one workload; returns (result, provenance record, span document)."""
    import scipy

    from repro.engine.batch import engine_stats
    from spans import Tracer, install_layers
    from workloads import (
        FULL, REFERENCE_NOMINAL_S, WORKLOADS, Loop, Reference, peak_rss_mb, run_loop,
    )

    sizes = sizes or FULL
    workdir = workdir or str(OUT_DIR)
    os.makedirs(workdir, exist_ok=True)
    started = time.time()
    workload = WORKLOADS[name](seed, sizes, workdir)
    reference = Reference()
    spans_doc = None
    raw: dict[str, float] = {}
    try:
        # Set-ups run before the loop and again after the checks, so their
        # median spans the run rather than one phase of the host's speed.
        workload.timed_setups(sizes.setup_repeats, sizes.setup_seconds)
        if not trace:
            loop = run_loop(workload, seconds, workload.min_units, reference=reference)
            rss_mb = peak_rss_mb()
            run_check(workload, loop)
            workload.timed_setups(sizes.setup_repeats, sizes.setup_seconds)
            raw = end_to_end_metrics(workload, loop, rss_mb)
            speed = REFERENCE_NOMINAL_S / reference.median()
            metrics = end_to_end_metrics(workload, loop, rss_mb, speed)
            loops = [loop]
            declared = END_TO_END
        else:
            base = run_loop(workload, seconds / 2.0, 1, reference=reference)
            tracer = Tracer()
            install_layers(tracer)
            before = engine_stats().snapshot()
            counters_before = workload.counters()
            try:
                workload.timed_setup()
                traced = run_loop(workload, float("inf"), 0, replay=base.units)
            finally:
                tracer.uninstall()
            after = engine_stats().snapshot()
            counters = counter_deltas(counters_before, workload.counters())
            metrics = per_layer_metrics(
                workload, base, traced, tracer, reference,
                pairs=after.pairs - before.pairs, chunks=after.chunks - before.chunks,
                rows_patched=after.patched_rows - before.patched_rows,
                counters=counters,
            )
            merged = Loop(units=base.units + traced.units)
            for part in (base, traced):
                for op, values in part.outputs.items():
                    merged.outputs.setdefault(op, []).extend(values)
            run_check(workload, merged)
            loops = [base, traced]
            declared = PER_LAYER
            spans_doc = tracer.to_json()
    finally:
        workload.close()
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors: dict[str, str] = {}
    for loop in loops:
        errors.update(loop.errors)
    result = {
        "correct": bool(workload.checks) and all(workload.checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(metrics[metric]), "unit": unit}
            for metric, unit in declared.items()
        },
    }
    samples: dict[str, int] = {}
    for loop in loops:
        for kind, values in loop.samples.items():
            samples[kind] = samples.get(kind, 0) + len(values)
    by_name: dict[str, list[float]] = {}
    for loop in loops:
        for op, values in loop.by_name.items():
            by_name.setdefault(op, []).extend(values)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "started_unix": started,
        "units": [len(loop.units) for loop in loops],
        "samples": samples,
        "setup_samples_s": workload.setup_samples,
        "p50_ms_by_op": {op: statistics.median(v) * 1e3 for op, v in sorted(by_name.items())},
        "measured_s": [loop.seconds for loop in loops],
        "reference_median_s": reference.median(),
        "reference_samples": len(reference.samples),
        "metrics_as_measured": raw,  # before the host-speed scaling (``--trace 0``)
        "checks": workload.checks,
        "accuracy_ratios": getattr(workload, "accuracy_ratios", {}),
        "errors": errors,
        "result": result,
    }
    return result, record, spans_doc


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process shared memory starts (``sharded``)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"pgbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, record, spans_doc = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        stop_resource_tracker()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans_doc is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans_doc) + "\n")
    print("pgbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

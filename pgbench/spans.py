"""Span tracing for the benchmark's traced run, recorded from outside ``src/``.

A :class:`Tracer` replaces public callables of the ``repro`` package with thin
wrappers for the duration of one traced phase and restores them afterwards.
Each wrapped call records one span — name, start, end and the index of the
enclosing span — so a layer's *self time* is its spans' durations minus the
time their child spans cover.  Nothing in the program is edited: module
functions are re-bound in every ``repro`` module that imported them, and
methods are re-bound on their class.

The wrapped callables and the layer each one stands for are listed in
:func:`install_layers`; ``README.md`` maps each layer to the end-to-end metric
it should move.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: Sketch families in report order, and the container/family classes of each.
FAMILIES = ("bloom", "khash", "1hash", "kmv", "hll")
CONTAINER_CLASSES = {
    "bloom": ("repro.sketches.bloom", "BloomNeighborhoodSketches", "BloomFamily"),
    "khash": ("repro.sketches.minhash", "KHashNeighborhoodSketches", "KHashFamily"),
    "1hash": ("repro.sketches.minhash", "BottomKNeighborhoodSketches", "BottomKFamily"),
    "kmv": ("repro.sketches.kmv", "KMVNeighborhoodSketches", "KMVFamily"),
    "hll": ("repro.sketches.hll", "HLLNeighborhoodSketches", "HLLFamily"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """In-memory span recorder plus the patch bookkeeping to undo its wrappers."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    unwrapped: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # ----------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(
        self,
        original: Callable[..., Any],
        name: str | Callable[..., str] | None,
        on_call: Callable[["Tracer", tuple, dict, Any], None] | None,
    ) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is None:  # count-only wrapper for calls too frequent to span
                result = original(*args, **kwargs)
            else:
                label = name(*args, **kwargs) if callable(name) else name
                index = tracer._open(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # --------------------------------------------------------------- patches
    def wrap_method(
        self,
        module: str,
        cls: str,
        attr: str,
        name: str | Callable[..., str] | None,
        on_call: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> None:
        """Wrap ``module.cls.attr`` (a plain function in the class body)."""
        owner = getattr(sys.modules.get(module), cls, None)
        original = None if owner is None else owner.__dict__.get(attr)
        if not callable(original):
            self.unwrapped.append(f"{module}.{cls}.{attr}")
            return
        setattr(owner, attr, self._wrapper(original, name, on_call))
        self._patches.append((owner, attr, original))

    def wrap_function(
        self,
        module: str,
        attr: str,
        name: str | Callable[..., str] | None,
        on_call: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> None:
        """Wrap a module function and every ``repro`` module binding of it."""
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            self.unwrapped.append(f"{module}.{attr}")
            return
        wrapped = self._wrapper(original, name, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every patched binding (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(index, ())):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            out.append(max(span.end - span.start - covered, 0.0))
        return out

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] += own
        return dict(totals)

    def total_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return dict(totals)

    def to_json(self) -> dict[str, Any]:
        own = self.self_times()
        return {
            "unwrapped": self.unwrapped,
            "counts": dict(self.counts),
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "self": own[i]}
                for i, s in enumerate(self.spans)
            ],
        }


# ---------------------------------------------------------------------------
# the layer map: which public callable stands for which layer
# ---------------------------------------------------------------------------
def _count_pairs(family: str) -> Callable[[Tracer, tuple, dict, Any], None]:
    def on_call(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[f"pairs.{family}"] += len(args[1])  # args = (self, u, v)

    return on_call


def _count_topk_candidates(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # topk_per_source(graph, sources, k, candidates=None, ...): every source is
    # scored against the whole candidate pool.
    graph, sources = args[0], args[1]
    candidates = kwargs.get("candidates", args[3] if len(args) > 3 else None)
    pool = graph.num_vertices if candidates is None else len(candidates)
    tracer.counts["topk.candidates_scored"] += len(sources) * pool


def _count_sharded_topk(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # ShardedEngine._shard_topk(self, container, lookup, local_sources, sources, cand_s, ...)
    tracer.counts["topk.candidates_scored"] += len(args[4]) * len(args[5])


def _count_mapped_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.counts["storage.bytes_mapped"] += os.path.getsize(result[1].path)


def _count_set_sketch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["clique4.set_sketches"] += 1


def _family_of(pg: Any) -> str:
    representation = getattr(pg, "representation", None)
    return "exact" if representation is None else str(representation.value)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.engine.sharded  # noqa: F401 - make sure every module is loaded
    import repro.storage  # noqa: F401

    for family, (module, container, fam_cls) in CONTAINER_CLASSES.items():
        tracer.wrap_method(module, fam_cls, "sketch_neighborhoods", f"sketches.build.{family}")
        tracer.wrap_method(module, fam_cls, "sketch", None, _count_set_sketch)
        tracer.wrap_method(
            module, container, "pair_intersections", f"sketches.pair.{family}",
            _count_pairs(family),
        )
    for fn in (
        "batched_pair_intersections", "batched_pair_jaccard",
        "sum_pair_intersections", "scatter_add_pair_intersections",
    ):
        tracer.wrap_function("repro.engine.batch", fn, "engine.batch")
    tracer.wrap_function("repro.engine.topk", "topk_per_source", "engine.topk",
                         _count_topk_candidates)
    tracer.wrap_method("repro.engine.sharded", "ShardedEngine", "_shard_topk", "engine.topk",
                       _count_sharded_topk)

    tracer.wrap_method("repro.engine.lsh", "LSHIndex", "__init__", "engine.lsh.build")
    tracer.wrap_method("repro.engine.lsh", "LSHIndex", "query_candidates_batch", "engine.lsh.probe")
    tracer.wrap_method("repro.engine.lsh", "LSHIndex", "topk_similar_batch", "engine.lsh.probe")
    tracer.wrap_method("repro.engine.lsh", "LSHIndex", "apply_delta", "engine.lsh.apply_delta")
    tracer.wrap_method("repro.engine.sharded", "ShardedLSHIndex", "__init__", "engine.lsh.build")
    tracer.wrap_method("repro.engine.sharded", "ShardedLSHIndex", "query_candidates_batch",
                       "engine.lsh.probe")

    tracer.wrap_method("repro.engine.session", "PGSession", "apply_delta",
                       "engine.session.apply_delta")

    tracer.wrap_method("repro.engine.sharded", "ShardedEngine", "__init__", "engine.sharded.build")
    for method in ("pair_intersections", "pair_jaccard", "top_k_similar_batch"):
        tracer.wrap_method("repro.engine.sharded", "ShardedEngine", method,
                           "engine.sharded.request")
    tracer.wrap_method("repro.engine.sharded", "ShardedLSHIndex", "topk_similar_batch",
                       "engine.sharded.request")

    tracer.wrap_method("repro.storage.store", "SketchStore", "load", "storage.open",
                       _count_mapped_bytes)
    tracer.wrap_method("repro.dynamic.graph", "DynamicGraph", "apply", "dynamic.apply")
    tracer.wrap_method("repro.core.probgraph", "ProbGraph", "apply_delta",
                       lambda pg, *a, **k: f"core.apply_delta.{_family_of(pg)}")
    tracer.wrap_method("repro.graph.csr", "CSRGraph", "edge_array", "graph.edge_array")
    tracer.wrap_method("repro.graph.csr", "CSRGraph", "oriented", "graph.oriented")

    tracer.wrap_function("repro.algorithms.clustering", "jarvis_patrick_clustering",
                         "algorithms.jp")
    tracer.wrap_function("repro.algorithms.clique_count", "four_clique_count",
                         lambda pg, *a, **k: f"algorithms.clique4.{_family_of(pg)}")

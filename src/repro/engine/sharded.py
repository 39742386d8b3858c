"""Sharded engine: multiprocess sketch construction plus the §VIII-F meter.

:mod:`repro.parallel.distributed` *models* the paper's distributed claim
(shipping fixed-size sketches instead of CSR neighborhoods cuts communication
~4×).  This module runs the part of it that pays on one machine: vertices are
partitioned into shards (:mod:`repro.graph.partition`), each shard's sketch
rows are built in a separate **process** of a
:class:`concurrent.futures.ProcessPoolExecutor`, and the parent places the
worker blocks once into one global-row-order :class:`~repro.core.ProbGraph`.
Every query after the build runs the single-process kernels that
:class:`~repro.engine.PGSession` runs.

* **Bit-identity.**  A sketch row is a pure function of the neighborhood
  elements and the family seed, never of its position.  Shards build with the
  session seed over horizontal row blocks of the full adjacency (never
  induced subgraphs), so the assembled container equals a whole-graph build.
* **Shipment meter.**  Queries are counted as if routed: a cut pair ships its
  lower-degree endpoint's row to the other endpoint's shard, once per
  ``(vertex, destination shard)`` and query — the point-to-point model of
  :func:`repro.parallel.distributed.communication_volume`, which the test
  suite holds :class:`ShardCommStats` equal to.  No row is copied.
* **Worker transport.**  Workers receive pickled row blocks
  (``transport="pickle"``) or attach the full CSR zero-copy through
  :mod:`multiprocessing.shared_memory` (``"shm"``, the default when
  available) and slice their own rows.
* **Deltas and staleness.**  :meth:`ShardedEngine.apply_delta` is
  :meth:`repro.core.ProbGraph.apply_delta` plus partition growth and per-shard
  skew counters.  An engine built over a
  :class:`~repro.dynamic.graph.DynamicGraph` raises :class:`StaleShardError`
  from every query entry point once the source moved without the delta.
"""

from __future__ import annotations

import copy
import json
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..analysis import runtime as _san
from ..core.budget import DEFAULT_LSH_THRESHOLD
from ..core.estimators import EstimatorKind
from ..core.probgraph import (
    ProbGraph,
    Representation,
    SketchParams,
    resolve_sketch_params,
)
from ..dynamic.graph import DynamicGraph, GraphDelta
from ..graph.csr import CSRGraph
from ..graph.partition import ShardPartition, partition_graph, slice_row_block
from ..parallel.distributed import CommunicationVolume, communication_volume
from ..sketches.base import NeighborhoodSketches
from ..storage import (
    StoreFormatError,
    StoreHandle,
    load_graph,
    load_partition,
    load_sketches,
    save_graph,
    save_partition,
    save_sketches,
    sketch_params_from_meta,
    sketch_params_meta,
)
from .batch import _as_pair_arrays, batched_pair_intersections, batched_pair_jaccard
from .lsh import LSHIndex
from .topk import TopKResult, topk_per_source

__all__ = [
    "ShardCommStats",
    "ShardSkewStats",
    "ShardedEngine",
    "StaleShardError",
    "build_probgraph_sharded",
]


class StaleShardError(RuntimeError):
    """The engine's source graph changed without the delta being applied to the engine.

    Raised by every :class:`ShardedEngine` query entry point (and by every
    probe of an index from :meth:`ShardedEngine.lsh_index`) when the
    :class:`~repro.dynamic.graph.DynamicGraph` the engine was built over has
    applied batches the engine never saw.  Serving would silently return
    results for the *old* graph; instead, pass each
    :class:`~repro.dynamic.graph.GraphDelta` to
    :meth:`ShardedEngine.apply_delta` (or rebuild the engine).
    """


@dataclass
class ShardCommStats:
    """Bytes and rows a routed execution of the engine's queries would move.

    ``shipments`` counts unique ``(vertex, destination shard)`` row transfers —
    the same dedup unit as
    :attr:`repro.parallel.distributed.CommunicationVolume.shipments` — and
    ``sketch_bytes`` the corresponding sketch payload, so a pair query over a
    graph's edge list is directly comparable to the §VIII-F model.
    """

    queries: int = 0
    routed_pairs: int = 0
    cut_pairs: int = 0
    shipments: int = 0
    sketch_bytes: float = 0.0

    def reset(self) -> None:
        """Zero all counters (per-experiment accounting)."""
        self.queries = 0
        self.routed_pairs = 0
        self.cut_pairs = 0
        self.shipments = 0
        self.sketch_bytes = 0.0


@dataclass(frozen=True)
class ShardSkewStats:
    """Per-shard load snapshot of a :class:`ShardedEngine` under a stream.

    ``vertices[s]`` / ``edges[s]`` describe the static placement (owned rows
    and their directed adjacency slots — ``edges.sum() == 2m``); ``updates[s]``
    counts the sketch rows :meth:`ShardedEngine.apply_delta` touched on shard
    ``s`` since the build (or the last repartition), i.e. where the *stream*
    is landing.  Imbalance ratios are ``max / mean`` — 1.0 is perfectly
    balanced, and :meth:`needs_repartition` is the documented trigger for
    :meth:`ShardedEngine.repartition`.
    """

    vertices: np.ndarray
    edges: np.ndarray
    updates: np.ndarray

    @property
    def num_shards(self) -> int:
        """Number of shards described."""
        return int(self.vertices.shape[0])

    @staticmethod
    def _imbalance(counts: np.ndarray) -> float:
        mean = float(counts.mean()) if counts.size else 0.0
        if mean <= 0.0:
            return 1.0
        return float(counts.max()) / mean

    @property
    def vertex_imbalance(self) -> float:
        """``max / mean`` of per-shard vertex counts (1.0 = balanced)."""
        return self._imbalance(self.vertices)

    @property
    def edge_imbalance(self) -> float:
        """``max / mean`` of per-shard adjacency-slot counts (1.0 = balanced)."""
        return self._imbalance(self.edges)

    @property
    def update_imbalance(self) -> float:
        """``max / mean`` of per-shard patched-row counts (1.0 = balanced)."""
        return self._imbalance(self.updates)

    @property
    def max_imbalance(self) -> float:
        """The worst of the vertex/edge imbalance ratios (the placement skew)."""
        return max(self.vertex_imbalance, self.edge_imbalance)

    def needs_repartition(self, threshold: float = 1.5) -> bool:
        """Whether placement skew crossed ``threshold`` (the repartition trigger).

        A parallel build is gated by its most loaded shard, and the metered
        shipments follow the placement, so once one shard holds
        ``threshold×`` the mean vertex or adjacency load, redistributing
        ownership (:meth:`ShardedEngine.repartition` — no sketch row moves or
        is rebuilt) wins back the difference.  Update
        skew is reported but not part of the trigger: a hot vertex keeps its
        shard hot under any balanced placement.
        """
        return self.max_imbalance > float(threshold)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _attach_shared_memory(name: str) -> "SharedMemory":
    """Attach an existing shared-memory block; the parent owns and unlinks it.

    Fork-started workers (the Linux default this engine targets) share the
    parent's resource-tracker process, and registrations are per-name, so the
    parent's single ``unlink()`` after the build cleans the segment up exactly
    once — no per-child tracker bookkeeping is needed.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _build_shard_sketches(spec: tuple) -> NeighborhoodSketches:
    """Worker entry point: build one shard's sketch rows from its CSR row block.

    ``spec`` is ``(params, seed, payload)`` where ``payload`` is either
    ``("arrays", local_indptr, local_indices)`` (pickled row-block views) or
    ``("shm", indptr_name, indptr_len, indices_name, indices_len, owned)``
    (attach the full CSR via shared memory and slice the owned rows here).
    The returned container's row ``i`` is bit-identical to row ``owned[i]`` of
    a whole-graph build with the same family parameters and seed.
    """
    params, seed, payload = spec
    family = params.make_family(int(seed))
    if payload[0] == "arrays":
        _, local_indptr, local_indices = payload
        return family.sketch_neighborhoods(local_indptr, local_indices)
    _, indptr_name, indptr_len, indices_name, indices_len, owned = payload
    shm_indptr = _attach_shared_memory(indptr_name)
    try:
        shm_indices = _attach_shared_memory(indices_name)
    except BaseException:
        # A failed second attach (segment vanished, fd limit) must not leak
        # the first segment's mapping for the worker's lifetime.
        shm_indptr.close()
        raise
    try:
        indptr = np.ndarray((indptr_len,), dtype=np.int64, buffer=shm_indptr.buf)
        indices = np.ndarray((indices_len,), dtype=np.int64, buffer=shm_indices.buf)
        local_indptr, local_indices = slice_row_block(indptr, indices, owned)
        return family.sketch_neighborhoods(local_indptr, local_indices)
    finally:
        shm_indptr.close()
        shm_indices.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class ShardedEngine:
    """Per-shard sketch rows built in a process pool, served from one ProbGraph.

    Parameters mirror :class:`~repro.core.ProbGraph` (representation, budget,
    explicit sizes, ``oriented``, ``seed``, default ``estimator``), plus:

    num_shards:
        Number of vertex shards (= worker build tasks).
    partition:
        ``"hash"`` (random balanced, default) or ``"locality"`` (BFS chunks) —
        see :func:`repro.graph.partition.partition_graph`.
    partition_seed:
        Seed of the partitioner's RNG (defaults to ``seed``).  Only the
        *ownership* of rows depends on it — never the sketch contents, which
        are built with the session ``seed`` so that results stay bit-identical
        to the single-process path for any partitioning.
    pool:
        An existing :class:`~concurrent.futures.ProcessPoolExecutor` to reuse
        across builds (it is not shut down); when ``None``, a private pool of
        ``max_workers`` (default ``num_shards``) processes is created for the
        construction pass and torn down afterwards.
    transport:
        ``"shm"`` ships the full CSR through shared memory and lets each
        worker slice its rows, ``"pickle"`` sends per-shard row-block arrays,
        ``"auto"`` (default) tries shared memory and falls back to pickling.

    After the build, queries run the single-process kernels of
    :mod:`repro.engine.batch` and :mod:`repro.engine.topk` over the held
    ProbGraph under the default :class:`~repro.engine.EngineConfig` budget,
    and :attr:`comm` meters what a routed execution would ship.  Queries are
    safe to issue from concurrent threads: they only read the ProbGraph, and
    the :attr:`comm` counters are updated under a lock.

    ``graph`` may also be a :class:`~repro.dynamic.graph.DynamicGraph`: the
    engine shards its current snapshot and remembers the source, and every
    query entry point then verifies the source has not applied batches the
    engine never saw (raising :class:`StaleShardError` otherwise — pass each
    delta to :meth:`apply_delta` to keep serving).  The freshness check is
    ``O(1)`` (a version counter) unless the source actually moved.
    """

    def __init__(
        self,
        graph: CSRGraph | DynamicGraph,
        num_shards: int,
        representation: Representation | str = Representation.BLOOM,
        storage_budget: float = 0.25,
        num_hashes: int = 2,
        num_bits: int | None = None,
        k: int | None = None,
        precision: int | None = None,
        oriented: bool = False,
        seed: int = 0,
        estimator: EstimatorKind | str | None = None,
        partition: str = "hash",
        partition_seed: int | None = None,
        pool: ProcessPoolExecutor | None = None,
        max_workers: int | None = None,
        transport: str = "auto",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if transport not in ("auto", "shm", "pickle"):
            raise ValueError(f"unknown transport {transport!r}; expected 'auto', 'shm', or 'pickle'")
        source = graph if isinstance(graph, DynamicGraph) else None
        if source is not None:
            graph = source.snapshot()
        params = resolve_sketch_params(
            graph, representation, storage_budget, num_hashes, num_bits, k, precision
        )
        self.partition: ShardPartition = partition_graph(
            graph, num_shards, method=partition,
            seed=int(seed) if partition_seed is None else int(partition_seed),
        )
        base = graph.oriented() if oriented else graph
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        blocks = self._build(params, int(seed), base, pool, max_workers, transport)
        pg = ProbGraph.from_sketches(
            graph, self._assemble(blocks), params, oriented=oriented, seed=seed,
            estimator=estimator, storage_budget=storage_budget, base=base,
            construction_seconds=time.perf_counter() - start,  # reprolint: allow[determinism] -- timing stat only
        )
        self._attach(pg, source, [])

    def _attach(
        self, pg: ProbGraph, source: DynamicGraph | None, handles: list[StoreHandle]
    ) -> None:
        """Install the served ProbGraph and the per-engine runtime state."""
        self._pg = pg
        self.params: SketchParams = pg.sketch_params
        self.seed = pg.seed
        self.oriented = pg.oriented
        self.estimator = pg.estimator
        self.storage_budget = pg.storage_budget
        self.construction_seconds = pg.construction_seconds
        self._source = source
        self._source_version = source.version if source is not None else -1
        self.comm = ShardCommStats()
        # Instrumented under reprosan: the comm lock guards the stats
        # counters, the patch lock serializes the structural mutators
        # (apply_delta / repartition / save).
        self._comm_lock = _san.make_rlock("ShardedEngine.comm")
        self._patch_lock = _san.make_rlock("ShardedEngine.patch")
        self._closed = False
        self._handles = handles
        self._update_counts = np.zeros(self.num_shards, dtype=np.int64)
        self._lsh_indexes: "weakref.WeakSet[LSHIndex]" = weakref.WeakSet()

    # ------------------------------------------------------------ construction
    def _shard_specs(
        self, params: SketchParams, seed: int, base: CSRGraph, transport: str
    ) -> tuple[list[tuple], object | None]:
        """Build the per-shard worker specs; returns (specs, shm_handles)."""
        if transport == "pickle":
            specs = []
            for s in range(self.num_shards):
                local_indptr, local_indices = self.partition.row_block(
                    base.indptr, base.indices, s
                )
                specs.append((params, seed, ("arrays", local_indptr, local_indices)))
            return specs, None
        indptr = np.ascontiguousarray(base.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(base.indices, dtype=np.int64)
        # Segments go through the sanitizer's tracked allocator: under
        # reprosan each carries its allocation site and must be released by
        # engine close/build teardown; in production this is a plain
        # SharedMemory(create=True).
        shm_indptr = _san.create_segment(
            indptr.nbytes, owner=self, purpose="CSR indptr transport"
        )
        try:
            shm_indices = _san.create_segment(
                indices.nbytes, owner=self, purpose="CSR indices transport"
            )
        except BaseException:
            _san.release_segment(shm_indptr)
            raise
        try:
            np.ndarray(indptr.shape, dtype=np.int64, buffer=shm_indptr.buf)[:] = indptr
            np.ndarray(indices.shape, dtype=np.int64, buffer=shm_indices.buf)[:] = indices
        except BaseException:
            for shm in (shm_indptr, shm_indices):
                _san.release_segment(shm)
            raise
        specs = [
            (params, seed, ("shm", shm_indptr.name, indptr.shape[0], shm_indices.name,
                            indices.shape[0], self.partition.shard_vertices[s]))
            for s in range(self.num_shards)
        ]
        return specs, (shm_indptr, shm_indices)

    def _build(
        self,
        params: SketchParams,
        seed: int,
        base: CSRGraph,
        pool: ProcessPoolExecutor | None,
        max_workers: int | None,
        transport: str,
    ) -> list[NeighborhoodSketches]:
        if self.num_shards == 1:
            # Nothing to fan out — build the single row block in-process.
            return [_build_shard_sketches(self._shard_specs(params, seed, base, "pickle")[0][0])]
        if transport == "auto":
            try:
                specs, handles = self._shard_specs(params, seed, base, "shm")
            except (OSError, ImportError):
                # Shared memory unavailable (no /dev/shm, size limits, or no
                # _posixshmem) — pickled row blocks are always possible.
                specs, handles = self._shard_specs(params, seed, base, "pickle")
        else:
            specs, handles = self._shard_specs(params, seed, base, transport)
        try:
            if pool is not None:
                return list(pool.map(_build_shard_sketches, specs))
            with ProcessPoolExecutor(max_workers=max_workers or self.num_shards) as owned:
                return list(owned.map(_build_shard_sketches, specs))
        finally:
            if handles is not None:
                for shm in handles:
                    _san.release_segment(shm)

    def _assemble(self, blocks: list[NeighborhoodSketches]) -> NeighborhoodSketches:
        """Place every shard's rows at their global row IDs in one new container.

        The one-time gather after the build: each row array is allocated once
        at full size and every worker block is scattered into it, so the
        transient peak is one extra copy of the sketches, not two.
        """
        merged = copy.copy(blocks[0])
        for name in merged.storage_schema.row_arrays:
            first = getattr(blocks[0], name)
            rows = np.empty((self.partition.num_vertices,) + first.shape[1:], dtype=first.dtype)
            for block, owned in zip(blocks, self.partition.shard_vertices):
                rows[owned] = getattr(block, name)
            setattr(merged, name, rows)
        return merged

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the engine: the well-defined end of its resource lifetime.

        Idempotent.  Shared-memory transport segments are already released by
        the build's ``finally`` teardown, and store handles attached by
        :meth:`open` are closed here; ``close()`` is then where the reprosan
        lifecycle tracker audits that nothing owned by this engine is still
        live — a transport segment leaked by an error path or a store-opened
        mmap handle left unreleased becomes a ``SAN601`` finding here, with
        its acquisition site.  After close, query and patch entry points
        raise :class:`RuntimeError`.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
        _san.check_owner_segments(self)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this ShardedEngine is closed; build a new engine (or query "
                "before leaving the `with` block)"
            )

    # ------------------------------------------------------------ persistence
    def save(self, root: str | os.PathLike[str]) -> str:
        """Persist the engine into directory ``root`` for :meth:`open`.

        Layout (manifest ``format`` 2): ``manifest.json`` (session parameters
        and the graph fingerprint), ``graph.pgsk`` (CSR adjacency),
        ``partition.pgsk`` (vertex ownership), and ``sketches.pgsk`` (every
        sketch row in global row order) — each a checksummed versioned block
        file (:mod:`repro.storage.format`).  Saving is read-only with respect
        to the engine and serialized against concurrent delta patches; the
        files are byte-deterministic for a given engine state.  Returns
        ``root``.
        """
        self._ensure_open()
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        with self._patch_lock:
            fingerprint = self.graph.fingerprint()
            save_graph(os.path.join(root, "graph.pgsk"), self.graph)
            save_partition(os.path.join(root, "partition.pgsk"), self.partition)
            save_sketches(
                os.path.join(root, "sketches.pgsk"),
                self._pg.sketches,
                meta={"fingerprint": fingerprint},
            )
            manifest = {
                "format": 2,
                "kind": "sharded-engine",
                "num_shards": self.num_shards,
                "oriented": bool(self.oriented),
                "seed": int(self.seed),
                "storage_budget": float(self.storage_budget),
                "estimator": self.estimator.value,
                "sketch_params": sketch_params_meta(self.params),
                "fingerprint": fingerprint,
                "construction_seconds": float(self.construction_seconds),
            }
            tmp = os.path.join(root, "manifest.json.tmp")
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(manifest, f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(tmp, os.path.join(root, "manifest.json"))
        return root

    @classmethod
    def open(
        cls,
        root: str | os.PathLike[str],
        mode: str = "mmap",
        estimator: EstimatorKind | str | None = None,
    ) -> "ShardedEngine":
        """Attach an engine to a directory written by :meth:`save`.

        The cold-start counterpart of building: no process pool, no hashing —
        the CSR adjacency and the sketch rows come straight from the saved
        block files, zero-copy in ``"mmap"`` mode (``"eager"`` reads them
        into process memory).  The opened engine answers every query
        bit-identically to the engine that saved it; delta patches promote
        the mmap rows to writable copies lazily.  All store handles are owned
        by the engine and released by :meth:`close`, where the reprosan
        ledger audits them like shared-memory segments.

        ``estimator`` overrides the saved default estimator; everything else
        (representation, resolved sketch parameters, orientation, seed,
        partition) is restored from the manifest and verified against the
        per-file metadata and graph fingerprint
        (:class:`~repro.storage.StoreFormatError` on any mismatch, including
        a manifest of another ``format``).
        """
        root = os.fspath(root)
        # reprolint: allow[determinism] -- wall-clock timing stat only; never feeds hash/seed/sketch state
        start = time.perf_counter()
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("kind") != "sharded-engine" or manifest.get("format") != 2:
            raise StoreFormatError(
                f"{manifest_path}: not a v2 sharded-engine manifest "
                f"(kind={manifest.get('kind')!r}, format={manifest.get('format')!r})"
            )
        fingerprint = str(manifest["fingerprint"])
        engine = cls.__new__(cls)
        handles: list[StoreHandle] = []
        try:
            graph, graph_handle = load_graph(
                os.path.join(root, "graph.pgsk"), mode=mode, owner=engine
            )
            handles.append(graph_handle)
            if graph.fingerprint() != fingerprint:
                raise StoreFormatError(
                    f"{root}: stored adjacency fingerprint does not match the "
                    f"manifest ({graph.fingerprint()[:12]}... != {fingerprint[:12]}...)"
                )
            partition = load_partition(os.path.join(root, "partition.pgsk"))
            if (partition.num_shards, partition.num_vertices) != (
                int(manifest["num_shards"]), graph.num_vertices
            ):
                raise StoreFormatError(
                    f"{root}: partition ({partition.num_shards} shards over "
                    f"{partition.num_vertices} vertices) does not match the "
                    f"manifest ({manifest['num_shards']} shards) and adjacency "
                    f"({graph.num_vertices} vertices)"
                )
            sketches, handle = load_sketches(
                os.path.join(root, "sketches.pgsk"), mode=mode, owner=engine
            )
            handles.append(handle)
            if (
                handle.meta.get("fingerprint") != fingerprint
                or sketches.num_sets != graph.num_vertices
            ):
                raise StoreFormatError(
                    f"{root}/sketches.pgsk: {sketches.num_sets} rows stored for "
                    f"{graph.num_vertices} vertices, or the graph fingerprint "
                    "does not match the manifest"
                )
        except Exception:
            for handle in handles:
                handle.close()
            raise
        oriented = bool(manifest["oriented"])
        engine.partition = partition
        pg = ProbGraph.from_sketches(
            graph,
            sketches,
            sketch_params_from_meta(manifest["sketch_params"]),
            oriented=oriented,
            seed=int(manifest["seed"]),
            estimator=estimator if estimator is not None else manifest["estimator"],
            storage_budget=float(manifest["storage_budget"]),
            construction_seconds=time.perf_counter() - start,  # reprolint: allow[determinism] -- timing stat only
        )
        engine._attach(pg, None, handles)
        return engine

    # ------------------------------------------------------------- properties
    @property
    def graph(self) -> CSRGraph:
        """The graph the engine currently serves (advanced by :meth:`apply_delta`)."""
        return self._pg.graph

    @property
    def num_shards(self) -> int:
        """Number of vertex shards."""
        return self.partition.num_shards

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the underlying graph."""
        return self.graph.num_vertices

    @property
    def owners(self) -> np.ndarray:
        """Shard owning each vertex (the partitioning queries are metered by)."""
        return self.partition.owners

    @property
    def base_degrees(self) -> np.ndarray:
        """Degrees of the sketched base (oriented ``N+`` when oriented) — see
        :attr:`repro.core.ProbGraph.base_degrees`."""
        return self._pg.base_degrees

    @property
    def bits_per_set(self) -> int:
        """Fixed sketch size per vertex — the shipment payload of §VIII-F."""
        return self._pg.family.bits_per_set

    @property
    def representation(self) -> Representation:
        """The sketch family served by this engine."""
        return self.params.representation

    # ------------------------------------------------------------------ meter
    def _route(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions of the cut pairs, then the shipped endpoint and home shard of each.

        Mirrors :func:`repro.parallel.distributed.communication_volume`: a
        same-shard pair is evaluated where it lives and ships nothing; a cut
        pair ships the lower-degree endpoint's sketch row to the other
        endpoint's shard (ties ship the first endpoint), so the evaluation
        happens at the receiving shard.
        """
        owners = self.partition.owners
        ou = owners[u]
        ov = owners[v]
        cut = np.flatnonzero(ou != ov)  # positions: far cheaper than a mask gather
        u, v, ou, ov = u[cut], v[cut], ou[cut], ov[cut]
        degs = self.graph.degrees
        ship_u = degs[u] <= degs[v]
        return cut, np.where(ship_u, u, v), np.where(ship_u, ov, ou)

    def _meter(self, pairs: int = 0, cut: int = 0, shipments: int = 0) -> None:
        """Count one served query and the rows a routed execution would ship."""
        with self._comm_lock:
            self.comm.queries += 1
            self.comm.routed_pairs += pairs
            self.comm.cut_pairs += cut
            self.comm.shipments += shipments
            self.comm.sketch_bytes += shipments * self.bits_per_set / 8.0

    def _metered_pairs(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Check freshness, validate the pair arrays, and meter the pair query.

        A pair query ships one row per unique ``(shipped vertex, home shard)``
        over its cut pairs.
        """
        self._check_fresh()
        u, v = _as_pair_arrays(u, v, self.num_vertices)
        cut, shipped, home = self._route(u, v)
        # Sort-and-count, not np.unique: the count is all the meter needs, and
        # under NumPy 2.4 np.unique takes ~0.6 ms on 4k int64 keys, a sort ~0.03 ms.
        keys = np.sort(shipped * self.num_shards + home)
        shipments = int(keys.shape[0] and 1 + np.count_nonzero(keys[1:] != keys[:-1]))
        self._meter(u.shape[0], keys.shape[0], shipments)
        return u, v

    def _meter_topk(self, sources: np.ndarray, candidates: np.ndarray | None, k: int) -> None:
        """Meter a top-k query: every unique source ships once to each
        candidate-owning shard other than its own."""
        shipments = 0
        if sources.shape[0] and k:
            owners = self.partition.owners
            if candidates is None:
                holds = self.partition.shard_sizes() > 0
            else:
                holds = np.bincount(
                    owners[np.asarray(candidates).ravel()], minlength=self.num_shards
                ) > 0
            unique_sources = np.unique(sources)
            local = np.bincount(owners[unique_sources], minlength=self.num_shards)
            shipments = int(holds.sum()) * unique_sources.shape[0] - int(local[holds].sum())
        self._meter(shipments=shipments)

    def _meter_probe(self) -> None:
        """The hook installed on :meth:`lsh_index` indexes: freshness + one query."""
        self._check_fresh()
        self._meter()

    # ------------------------------------------------------------ freshness
    def _check_fresh(self) -> None:
        """Raise :class:`StaleShardError` if the source graph moved out-of-band.

        ``O(1)`` when the source's version counter matches the one recorded at
        build/patch time; on a mismatch the fingerprints decide (no-op batches
        bump nothing, and a structurally identical graph re-syncs the version
        instead of raising).
        """
        self._ensure_open()
        source = self._source
        if source is None or source.version == self._source_version:
            return
        if source.snapshot().fingerprint() != self.graph.fingerprint():
            raise StaleShardError(
                "the source DynamicGraph applied batch(es) this engine never "
                f"saw (source version {source.version}, engine saw "
                f"{self._source_version}); pass each GraphDelta to "
                "ShardedEngine.apply_delta instead of querying a stale engine"
            )
        self._source_version = source.version

    # ---------------------------------------------------------------- patching
    def apply_delta(self, delta: GraphDelta) -> int:
        """Apply one :class:`~repro.dynamic.graph.GraphDelta` to the engine.

        The held ProbGraph is patched in place by
        :meth:`repro.core.ProbGraph.apply_delta` (only the touched rows
        change; bit-identical to a fresh build on ``delta.graph``), grown
        vertices are assigned to the smallest shards
        (:meth:`ShardPartition.assign_balanced`), the touched rows are
        counted per owning shard in :meth:`skew_stats`, and every live index
        from :meth:`lsh_index` is re-keyed through
        :meth:`LSHIndex.apply_delta <repro.engine.lsh.LSHIndex.apply_delta>`.
        Returns the number of touched rows.

        Note the single-process caveat applies here too: budget-derived
        parameters re-resolve against the *grown* graph on a fresh build, so
        pass explicit ``num_bits``/``k``/``precision`` when bit-identity with
        later rebuilds matters.
        """
        self._ensure_open()
        with self._patch_lock:
            old_n = self.num_vertices
            old_base = self._pg._base
            _san.stamp_write(self._patch_lock, "ShardedEngine.sketches")
            self._pg.apply_delta(delta)
            if self.oriented:
                _, touched = delta.oriented_update(old_base)  # memoized by the patch
            else:
                touched = np.union1d(delta.ins_vertices, delta.dirty_vertices)
            grown = np.arange(old_n, self.num_vertices, dtype=np.int64)
            if grown.size:
                self.partition = self.partition.extend(
                    self.partition.assign_balanced(grown.shape[0])
                )
            touched = np.union1d(touched, grown)
            if touched.size:
                self._update_counts += np.bincount(
                    self.partition.owners[touched], minlength=self.num_shards
                )
            if self._source is not None and (
                self._source.snapshot() is delta.graph
                or self._source.snapshot().fingerprint() == delta.new_fingerprint
            ):
                self._source_version = self._source.version
            for index in list(self._lsh_indexes):
                index.apply_delta(delta)
            return int(touched.size)

    # ------------------------------------------------------------ skew / balance
    def skew_stats(self) -> ShardSkewStats:
        """Current per-shard placement and patch-activity counts."""
        edges = np.bincount(
            self.partition.owners,
            weights=self.graph.degrees.astype(np.float64),
            minlength=self.num_shards,
        ).astype(np.int64)
        return ShardSkewStats(
            vertices=self.partition.shard_sizes(),
            edges=edges,
            updates=self._update_counts.copy(),
        )

    def repartition(self, method: str = "hash", seed: int | None = None) -> ShardSkewStats:
        """Re-balance vertex ownership; no sketch row moves or is rebuilt.

        Only the partition (and so the communication meter) changes: every
        query keeps returning the same floats.  Call when :meth:`skew_stats`
        reports ``needs_repartition()`` (streams that grow the graph
        unevenly, or a locality partition whose regions drifted).  Resets
        the update counters and returns the fresh stats.
        """
        self._check_fresh()
        with self._patch_lock:
            self.partition = partition_graph(
                self.graph, self.num_shards, method=method,
                seed=self.seed if seed is None else int(seed),
            )
            self._update_counts = np.zeros(self.num_shards, dtype=np.int64)
            return self.skew_stats()

    # ----------------------------------------------------------------- queries
    def pair_intersections(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Estimate ``|N_u ∩ N_v|`` per pair, chunk-streamed and metered.

        Runs :func:`repro.engine.batch.batched_pair_intersections` on the held
        ProbGraph, so it is bit-identical to
        :meth:`repro.engine.PGSession.pair_intersections` for the same
        parameters and seed.
        """
        u, v = self._metered_pairs(u, v)
        return batched_pair_intersections(self._pg, u, v, estimator=estimator)

    def pair_jaccard(
        self,
        u: np.ndarray,
        v: np.ndarray,
        estimator: EstimatorKind | str | None = None,
    ) -> np.ndarray:
        """Approximate Jaccard per pair — intersections over base degrees."""
        u, v = self._metered_pairs(u, v)
        return batched_pair_jaccard(self._pg, u, v, estimator=estimator)

    def top_k_similar_batch(
        self,
        sources: np.ndarray,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
        exclude_self: bool = True,
    ) -> TopKResult:
        """Per-source top-k retrieval, streamed and metered.

        Runs :func:`repro.engine.topk.topk_per_source` on the held ProbGraph,
        so it is bit-identical to
        :meth:`repro.engine.PGSession.top_k_similar_batch` with the same
        ``measure`` (``"jaccard"`` or ``"intersection"``/``"common_neighbors"``).
        """
        self._check_fresh()
        result = topk_per_source(
            self._pg, sources, k, candidates=candidates, score=measure,
            estimator=estimator, exclude_self=exclude_self,
        )
        # topk_per_source has validated the IDs by now.
        self._meter_topk(np.asarray(sources).ravel(), candidates, result.indices.shape[1])
        return result

    def top_k_similar(
        self,
        u: int,
        k: int,
        measure: str = "jaccard",
        candidates: np.ndarray | None = None,
        estimator: EstimatorKind | str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-source convenience over :meth:`top_k_similar_batch`."""
        result = self.top_k_similar_batch(
            np.asarray([u]), k, measure=measure, candidates=candidates, estimator=estimator,
        )
        return result.indices[0], result.scores[0]

    def lsh_index(
        self,
        num_bands: int | None = None,
        rows_per_band: int | None = None,
        threshold: float = DEFAULT_LSH_THRESHOLD,
    ) -> LSHIndex:
        """An :class:`~repro.engine.lsh.LSHIndex` over the held ProbGraph.

        The index checks this engine's freshness and counts one
        :attr:`comm` query per probe, and :meth:`apply_delta` re-keys it for
        as long as it is alive (weak registration — dropping the index is
        enough to stop paying for its maintenance).
        """
        index = LSHIndex(
            self._pg, num_bands=num_bands, rows_per_band=rows_per_band, threshold=threshold
        )
        index.before_query = self._meter_probe
        self._lsh_indexes.add(index)
        return index

    # -------------------------------------------------------------- validation
    def communication_model(
        self, sketch_bits_per_vertex: int | None = None
    ) -> CommunicationVolume:
        """The §VIII-F communication model evaluated on *this* partitioning.

        Uses the engine's own ``owners`` and (by default) its actual
        ``bits_per_set``, so after one ``pair_intersections`` query over the
        graph's edge array the model's ``shipments`` and ``sketch_bytes``
        equal what :attr:`comm` just metered.
        """
        return communication_volume(
            self.graph,
            num_partitions=self.num_shards,
            sketch_bits_per_vertex=(
                self.bits_per_set if sketch_bits_per_vertex is None else sketch_bits_per_vertex
            ),
            owners=self.partition.owners,
        )

    # ------------------------------------------------------------------ gather
    def to_probgraph(self, estimator: EstimatorKind | str | None = None) -> ProbGraph:
        """An independent copy of the served sketch set as a :class:`ProbGraph`.

        Bit-identical to ``ProbGraph(graph, ...)`` with the same parameters
        and seed (asserted by the test suite), and independent of the engine:
        later deltas do not reach it.  Pass it to :func:`~repro.triangle_count`,
        :func:`~repro.knn_graph` or any other single-process path.
        """
        self._check_fresh()
        pg = self._pg
        return ProbGraph.from_sketches(
            pg.graph,
            pg.sketches.take_rows(np.arange(pg.num_vertices, dtype=np.int64)),
            self.params,
            oriented=self.oriented,
            seed=self.seed,
            estimator=estimator if estimator is not None else self.estimator,
            storage_budget=self.storage_budget,
            base=pg._base,
            construction_seconds=self.construction_seconds,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngine(n={self.num_vertices}, shards={self.num_shards}, "
            f"representation={self.params.representation.value}, seed={self.seed})"
        )


def build_probgraph_sharded(
    graph: CSRGraph,
    num_shards: int,
    representation: Representation | str = Representation.BLOOM,
    storage_budget: float = 0.25,
    num_hashes: int = 2,
    num_bits: int | None = None,
    k: int | None = None,
    precision: int | None = None,
    oriented: bool = False,
    seed: int = 0,
    estimator: EstimatorKind | str | None = None,
    partition: str = "hash",
    pool: ProcessPoolExecutor | None = None,
    max_workers: int | None = None,
    transport: str = "auto",
) -> ProbGraph:
    """Build a :class:`~repro.core.ProbGraph` with a multiprocess sharded pass.

    Construction cost is split over ``num_shards`` worker processes; the
    result is bit-identical to the in-process constructor.  This is what
    :meth:`repro.engine.PGSession.probgraph` uses when the session is created
    with ``shards=``.  The engine is discarded, so its ProbGraph is handed
    over as is.
    """
    with ShardedEngine(
        graph, num_shards, representation, storage_budget, num_hashes, num_bits, k,
        precision, oriented, seed, estimator, partition, pool=pool,
        max_workers=max_workers, transport=transport,
    ) as engine:
        return engine._pg

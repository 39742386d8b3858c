"""Vertex IDs are checked where queries enter the engine, never wrapped or truncated.

Sketch rows are gathered by NumPy indexing, so an unchecked ``-1`` reads
vertex ``n - 1``'s row and a float ``0.7`` reads vertex 0's.  Every query
path shares one normalizer (:func:`repro.engine.batch.as_vertex_ids`): a
non-integer dtype raises ``ValueError`` and an ID outside ``[0, n)`` raises
``IndexError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import LSHIndex, PGSession, ShardedEngine
from repro.graph import kronecker_graph


@pytest.fixture(scope="module")
def kmv():
    graph = kronecker_graph(8, 8)
    session = PGSession()
    pg = session.probgraph(graph, "kmv")
    with ShardedEngine(graph, 2, representation="kmv") as engine:
        yield session, pg, engine


@pytest.mark.parametrize("entry", ["PGSession", "ShardedEngine", "LSHIndex.topk_similar_batch"])
@pytest.mark.parametrize(
    "bad, error", [([-1], IndexError), ([256], IndexError), ([0.7], ValueError)]
)
def test_bad_vertex_ids_raise_typed_errors(kmv, entry, bad, error):
    session, pg, engine = kmv
    assert pg.num_vertices == 256
    bad = np.asarray(bad)
    good = np.asarray([0])
    if entry == "PGSession":
        pairs = lambda u, v: session.pair_intersections(pg, u, v)  # noqa: E731
        topk = lambda s, **kw: session.top_k_similar_batch(pg, s, 3, **kw)  # noqa: E731
    elif entry == "ShardedEngine":
        pairs = engine.pair_intersections
        topk = lambda s, **kw: engine.top_k_similar_batch(s, 3, **kw)  # noqa: E731
    else:
        pairs = None
        index = LSHIndex(pg)
        assert index.banded
        topk = lambda s, **kw: index.topk_similar_batch(s, 3, **kw)  # noqa: E731
    if pairs is not None:
        with pytest.raises(error):
            pairs(bad, good)
        with pytest.raises(error):
            pairs(good, bad)
    with pytest.raises(error):
        topk(bad)
    with pytest.raises(error):
        topk(good, candidates=bad)

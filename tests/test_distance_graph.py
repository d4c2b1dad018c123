"""Phase 2 (Local Min Dist. Edge): the packed-key distance-graph build
against the 4-key lexsort reference, and the per-partition memo of the
halo-exchange cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.distance_graph as dg_mod
from repro.core.distance_graph import (
    DistanceGraph,
    build_distance_graph,
    local_min_edge_costs,
)
from repro.core.solver import DistributedSteinerSolver
from repro.graph.csr import CSRGraph
from repro.runtime.cost_model import MachineModel
from repro.runtime.partition import PartitionedGraph, block_partition, hash_partition
from repro.shortest_paths.voronoi import NO_VERTEX, compute_voronoi_cells
from tests.conftest import component_seeds

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
FIELDS = ("seeds", "cell_s", "cell_t", "u", "v", "dprime")


def reference_build(graph, seeds, src, dist) -> DistanceGraph:
    """The original construction: one 4-key lexsort over all cross-cell
    edges, first row per cell pair."""
    eu, ev, ew = graph.edge_array()
    ok = (src[eu] != NO_VERTEX) & (src[ev] != NO_VERTEX)
    cross = ok & (src[eu] != src[ev])
    eu, ev, ew = eu[cross], ev[cross], ew[cross]
    if eu.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return DistanceGraph(seeds, empty, empty, empty, empty, empty)
    s_arr = np.minimum(src[eu], src[ev])
    t_arr = np.maximum(src[eu], src[ev])
    d_arr = dist[eu] + ew + dist[ev]
    swap = src[eu] != s_arr
    bu = np.where(swap, ev, eu)
    bv = np.where(swap, eu, ev)
    key = s_arr * np.int64(graph.n_vertices) + t_arr
    order = np.lexsort((bv, bu, d_arr, key))
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    pick = order[first]
    return DistanceGraph(seeds, s_arr[pick], t_arr[pick], bu[pick], bv[pick], d_arr[pick])


def reference_seed_indices(dg: DistanceGraph) -> tuple[np.ndarray, np.ndarray]:
    """The original dict-based lookup."""
    lookup = {int(s): i for i, s in enumerate(dg.seeds)}
    si = np.asarray([lookup[int(s)] for s in dg.cell_s], dtype=np.int64)
    ti = np.asarray([lookup[int(t)] for t in dg.cell_t], dtype=np.int64)
    return si, ti


def assert_same(got: DistanceGraph, want: DistanceGraph) -> None:
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name
    for a, b in zip(got.seed_indices(), reference_seed_indices(want)):
        assert np.array_equal(a, b)


@st.composite
def loose_graph(draw, max_vertices=18, weights=st.integers(1, 12)):
    """A weighted graph that may be disconnected (no backbone)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    edges = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
    w = [draw(weights) for _ in edges]
    return CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), w)


def unsorted_seeds(draw, n: int, *, min_size: int = 1) -> np.ndarray:
    """Distinct seeds in the drawn (generally unsorted) order."""
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=min_size, max_size=n, unique=True))
    return np.asarray(seeds, dtype=np.int64)


#: unit weights give many (pair, d') ties
SMALL_WEIGHTS = [st.just(1), st.integers(1, 12)]
#: large, but d' stays within int64 on graphs of up to 18 vertices
LARGE_WEIGHTS = st.integers(2**55, 2**56)


@PROPERTY
@given(data=st.data())
def test_packed_build_matches_lexsort_on_voronoi_diagrams(data):
    weights = data.draw(st.sampled_from([*SMALL_WEIGHTS, LARGE_WEIGHTS]))
    g = data.draw(loose_graph(weights=weights))
    seeds = unsorted_seeds(data.draw, g.n_vertices)
    # a disconnected graph leaves vertices that no seed reaches
    vd = compute_voronoi_cells(g, np.sort(seeds))
    got = build_distance_graph(g, seeds, vd.src, vd.dist)
    assert_same(got, reference_build(g, seeds, vd.src, vd.dist))


@PROPERTY
@given(data=st.data())
def test_packed_build_matches_lexsort_on_arbitrary_states(data):
    """Any (src, dist) labelling, not just a converged diagram: NO_VERTEX
    holes, all-equal distances, and distances big enough that the packed
    key must fall back to the lexsort."""
    g = data.draw(loose_graph(weights=data.draw(st.sampled_from(SMALL_WEIGHTS))))
    seeds = unsorted_seeds(data.draw, g.n_vertices)
    labels = [int(NO_VERTEX), *seeds.tolist()]
    src = np.asarray(
        [data.draw(st.sampled_from(labels)) for _ in range(g.n_vertices)], dtype=np.int64
    )
    # 2**61: a packed key over even two seeds would overflow int64
    dmax = data.draw(st.sampled_from([0, 3, 1000, 2**61]))
    dist = np.asarray(
        [data.draw(st.integers(0, dmax)) for _ in range(g.n_vertices)], dtype=np.int64
    )
    got = build_distance_graph(g, seeds, src, dist)
    assert_same(got, reference_build(g, seeds, src, dist))


def test_overflowing_packed_key_takes_the_lexsort_path(monkeypatch):
    g = CSRGraph.from_edges(
        4, np.asarray([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), [1, 2, 3, 4, 5]
    )
    seeds = np.asarray([3, 0, 2, 1], dtype=np.int64)
    src = np.asarray([0, 1, 2, 3], dtype=np.int64)
    dist = np.full(4, 2**60, dtype=np.int64)  # 4 * 4 * (dmax + 1) >= 2**62

    def refuse(*args, **kwargs):
        raise AssertionError("packed key used despite overflow")

    monkeypatch.setattr(dg_mod, "_packed_winners", refuse)
    got = build_distance_graph(g, seeds, src, dist)
    assert got.n_edges == 5
    assert_same(got, reference_build(g, seeds, src, dist))


def test_ties_break_by_bridge_ids_not_edge_order():
    # both edges bridge cells (10, 11) at d' = 1; edge (0, 5) comes first
    # in edge order, but oriented into (cell 10, cell 11) it reads
    # (u, v) = (5, 0), which loses to (1, 4)
    g = CSRGraph.from_edges(12, np.asarray([(0, 5), (1, 4)]), [1, 1])
    src = np.full(12, NO_VERTEX, dtype=np.int64)
    src[[0, 4]] = 11
    src[[1, 5]] = 10
    dist = np.zeros(12, dtype=np.int64)
    seeds = np.asarray([11, 10], dtype=np.int64)
    got = build_distance_graph(g, seeds, src, dist)
    assert (got.u.tolist(), got.v.tolist()) == ([1], [4])
    assert_same(got, reference_build(g, seeds, src, dist))


def test_seed_indices_for_unsorted_seeds(random_graph):
    seeds = component_seeds(random_graph, 6, seed=11)[::-1].copy()
    vd = compute_voronoi_cells(random_graph, np.sort(seeds))
    dg = build_distance_graph(random_graph, seeds, vd.src, vd.dist)
    si, ti = dg.seed_indices()
    assert dg.n_edges > 0
    assert np.array_equal(seeds[si], dg.cell_s)
    assert np.array_equal(seeds[ti], dg.cell_t)
    for a, b in zip((si, ti), reference_seed_indices(dg)):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------- #
# cost model
# ---------------------------------------------------------------------- #
def reference_costs(partition: PartitionedGraph, machine: MachineModel):
    """The original per-call formula, with its two ``np.unique`` passes."""
    u, v, _, arc_rank = partition.arc_arrays()
    owner = partition.owner
    remote_v = arc_rank != owner[v]
    remote_u = arc_rank != owner[u]
    halo_keys = np.concatenate(
        [
            v[remote_v] * np.int64(partition.n_ranks) + arc_rank[remote_v],
            u[remote_u] * np.int64(partition.n_ranks) + arc_rank[remote_u],
        ]
    )
    n_halo = int(np.unique(halo_keys).size) if halo_keys.size else 0
    arcs_per_rank = partition.local_arc_count()
    recv_per_rank = np.zeros(partition.n_ranks, dtype=np.int64)
    if halo_keys.size:
        dest = np.unique(halo_keys) % partition.n_ranks
        recv_per_rank = np.bincount(dest, minlength=partition.n_ranks)
    per_rank = arcs_per_rank * machine.t_edge_scan + recv_per_rank * machine.t_visit
    sim_time = float(per_rank.max()) if per_rank.size else 0.0
    if partition.n_ranks > 1 and n_halo:
        sim_time += machine.t_remote_latency
    return sim_time, n_halo, n_halo * 24


@pytest.mark.parametrize("partition_fn", [block_partition, hash_partition])
@pytest.mark.parametrize("delegates", [False, True])
@pytest.mark.parametrize("n_ranks", [1, 16])
def test_cost_model_matches_the_per_call_formula(skewed_graph, partition_fn, delegates,
                                                 n_ranks):
    threshold = int(skewed_graph.avg_degree * 3) if delegates else None
    part = partition_fn(skewed_graph, n_ranks, delegate_threshold=threshold)
    assert bool(part.delegates.size) == delegates
    for machine in (MachineModel(), MachineModel(t_edge_scan=1e-6, t_visit=3e-6)):
        assert local_min_edge_costs(part, machine) == reference_costs(part, machine)


def test_halo_counts_are_read_only(skewed_graph):
    _, arcs, recv = block_partition(skewed_graph, 4).halo_counts
    with pytest.raises(ValueError):
        recv[0] = 0
    with pytest.raises(ValueError):
        arcs[0] = 0


def test_two_solves_compute_the_halo_keys_once(skewed_graph, monkeypatch):
    calls = []
    halo_keys = PartitionedGraph.halo_keys

    def counting(self):
        calls.append(self)
        return halo_keys(self)

    monkeypatch.setattr(PartitionedGraph, "halo_keys", counting)
    solver = DistributedSteinerSolver(skewed_graph, n_ranks=8, engine="bsp-batched")
    first = solver.solve(component_seeds(skewed_graph, 4, seed=1))
    second = solver.solve(component_seeds(skewed_graph, 9, seed=2))
    assert calls == [solver.partition]
    a, b = first.phases[1], second.phases[1]
    assert a.n_messages_remote > 0
    assert (a.name, a.sim_time, a.n_messages_local, a.n_messages_remote, a.bytes_sent) == (
        b.name, b.sim_time, b.n_messages_local, b.n_messages_remote, b.bytes_sent
    )

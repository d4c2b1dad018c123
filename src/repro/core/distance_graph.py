"""Distance-graph construction — the paper's Algorithm 5 (min-distance
cross-cell edges) plus its cost model.

Semantics (Mehlhorn / paper §II):

    ``E'1 = {(s, t) : an edge (u, v) in E exists with u in N(s),
    v in N(t)}`` and
    ``d'1(s, t) = min(d1(s, u) + d(u, v) + d1(v, t))``.

The simulation computes the *global* result with one vectorised pass over
the unique undirected edges — element-for-element what the per-rank local
scans followed by ``MPI_Allreduce(MPI_MIN)`` would produce — and charges
the distributed cost separately:

* **Local Min Dist. Edge** (edge-centric, asynchronous in the paper):
  every rank scans its local arcs; boundary vertices' ``(src, dist)``
  states are pulled from their owner ranks, one message per
  (remote vertex, holding rank) pair — a halo exchange.
* **Global Min Dist. Edge** (collective): allreduce over the ``EN``
  buffer.  The paper allocates the full ``C(|S|, 2)`` buffer up front
  (Alg. 3 line 2) — the memory model accounts for that — but only the
  observed pairs can carry finite distances, so the simulation reduces
  over the observed-pair buffer.

Tie-breaking: among equal-distance cross-cell edges bridging the same
cell pair, the lexicographically smallest ``(u, v)`` wins — the effect of
the paper's second ``Allreduce(MPI_MIN)`` over source-vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

from repro.runtime.cost_model import MachineModel
from repro.runtime.partition import PartitionedGraph
from repro.shortest_paths.voronoi import NO_VERTEX

__all__ = ["DistanceGraph", "build_distance_graph", "local_min_edge_costs"]

_STATE_MSG_BYTES = 24  # (vertex, src, dist) halo-exchange record


@dataclass
class DistanceGraph:
    """``G'1`` plus the bridging edges of ``EN``.

    For row ``i``: cells ``(cell_s[i], cell_t[i])`` (seed vertex ids,
    ``s < t``) are bridged by graph edge ``(u[i], v[i])`` with
    ``u in N(s), v in N(t)`` and ``d1(s,t) = dprime[i]``.
    """

    seeds: np.ndarray
    cell_s: np.ndarray
    cell_t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dprime: np.ndarray

    @property
    def n_edges(self) -> int:
        """``|E'1|`` — observed cross-cell pairs."""
        return int(self.cell_s.size)

    def seed_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(si, ti)`` rows as indices into :attr:`seeds` (for MST).

        :attr:`seeds` need not be sorted: a stable argsort plus a binary
        search maps each cell id back to its position.
        """
        seeds = np.asarray(self.seeds, dtype=np.int64)
        order = np.argsort(seeds, kind="stable")
        ranked = seeds[order]

        def index_of(cells: np.ndarray) -> np.ndarray:
            return order[np.searchsorted(ranked, cells, side="right") - 1]

        return index_of(self.cell_s), index_of(self.cell_t)


def build_distance_graph(
    graph: "CSRGraph",
    seeds: np.ndarray,
    src: np.ndarray,
    dist: np.ndarray,
) -> DistanceGraph:
    """Vectorised global construction of ``G'1`` / ``EN``.

    Each cross-cell edge is keyed by its dense cell-pair index
    ``rank(s) * k + rank(t)`` (ranks in sorted seed order, so rows come
    out ordered by ``(s, t)``).  One argsort of the packed
    ``pair * (dmax + 1) + d'`` finds every pair's minimum ``d'``; only
    the rows that reach it are then ordered by ``(u, v)`` to pick the
    smallest bridge.  If the packed key could overflow int64, a 4-key
    lexsort over all candidates does the same selection.

    Every ``src`` entry must be one of ``seeds`` or ``NO_VERTEX``, as in
    any Voronoi diagram over ``seeds``; ``seeds`` may be in any order.
    """
    eu, ev, ew = graph.edge_array()
    su, sv = src[eu], src[ev]
    cross = (su != NO_VERTEX) & (sv != NO_VERTEX) & (su != sv)
    if not cross.any():
        empty = np.zeros(0, dtype=np.int64)
        return DistanceGraph(seeds, empty, empty, empty, empty, empty)
    eu, ev, ew, su, sv = eu[cross], ev[cross], ew[cross], su[cross], sv[cross]

    # orient the bridge so u lies in the smaller-id cell
    swap = su > sv
    s_arr = np.where(swap, sv, su)
    t_arr = np.where(swap, su, sv)
    bu = np.where(swap, ev, eu)
    bv = np.where(swap, eu, ev)
    d_arr = dist[eu] + ew + dist[ev]

    ranked = np.sort(np.asarray(seeds, dtype=np.int64))
    k = ranked.size
    dmax = int(d_arr.max())
    if k * k * (dmax + 1) >= 2**62:
        winners = _lexsort_winners(s_arr * np.int64(graph.n_vertices) + t_arr,
                                   d_arr, bu, bv)
    else:
        pair = np.searchsorted(ranked, s_arr) * np.int64(k) + np.searchsorted(ranked, t_arr)
        winners = _packed_winners(pair, d_arr, bu, bv, dmax + 1)
    return DistanceGraph(
        seeds=seeds,
        cell_s=s_arr[winners],
        cell_t=t_arr[winners],
        u=bu[winners],
        v=bv[winners],
        dprime=d_arr[winners],
    )


def _first_of_group(keys: np.ndarray) -> np.ndarray:
    """Mask of the first row of each run of equal ``keys`` (sorted)."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _packed_winners(
    pair: np.ndarray,
    d: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    span: int,
) -> np.ndarray:
    """Row of the smallest ``(d, u, v)`` per ``pair``, in ``pair`` order.

    Requires ``0 <= d < span`` and ``pair.max() * span`` within int64.
    """
    packed = pair * np.int64(span) + d
    order = np.argsort(packed)
    packed = packed[order]
    first = _first_of_group(packed // span)
    group_min = packed[first][np.cumsum(first) - 1]
    # rows at their pair's minimum d'; ties are broken by (u, v)
    cand = order[packed == group_min]
    cand = cand[np.lexsort((v[cand], u[cand], pair[cand]))]
    return cand[_first_of_group(pair[cand])]


def _lexsort_winners(
    key: np.ndarray,
    d: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """:func:`_packed_winners` by one 4-key lexsort (any magnitudes)."""
    order = np.lexsort((v, u, d, key))
    return order[_first_of_group(key[order])]


def local_min_edge_costs(
    partition: PartitionedGraph,
    machine: MachineModel,
) -> tuple[float, int, int]:
    """Simulated cost of the local min-distance-edge phase.

    Returns ``(sim_time, n_remote_messages, bytes_sent)``.

    Model: each rank scans its local arcs (``t_edge_scan`` each).  For
    every arc whose remote endpoint's state lives elsewhere, the owner
    must ship that endpoint's ``(src, dist)`` once per (vertex, holding
    rank) pair — the halo exchange.  Phase time is the slowest rank's
    scan-plus-send plus one network latency for the exchange wave.

    The halo counts depend on the partition alone, so
    :attr:`PartitionedGraph.halo_counts` computes them once per
    partition; each call only prices them under ``machine``.
    """
    n_halo, arcs_per_rank, recv_per_rank = partition.halo_counts
    per_rank = (
        arcs_per_rank * machine.t_edge_scan
        + recv_per_rank * machine.t_visit
    )
    sim_time = float(per_rank.max()) if per_rank.size else 0.0
    if partition.n_ranks > 1 and n_halo:
        sim_time += machine.t_remote_latency
    return sim_time, n_halo, n_halo * _STATE_MSG_BYTES

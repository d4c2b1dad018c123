"""Parity of the batched superstep's per-vertex reduction.

``VoronoiProgram.batch_visit`` takes, per target vertex, the
lexicographic-minimum improving ``(r, t, vp)`` candidate of a superstep.
It filters out non-improving rows, reduces a packed ``r * n + t`` key
with ``np.minimum.at``, breaks ties on ``vp`` with a second
``np.minimum.at`` and falls back to a 4-key lexsort when the packed key
could overflow int64.  This module keeps the plain lexsort formulation
(sort every non-bootstrap row by ``(tgt, r, t, vp)``, keep each vertex's
first row, then apply the improvement test) as the reference and
asserts that both leave the same state arrays and emit the same
``(src_ranks, targets, payload)`` arrays, element for element.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SolverConfig
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import DistributedSteinerSolver
from repro.core.voronoi_visitor import VoronoiProgram
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph
from repro.graph.weights import assign_uniform_weights
from repro.runtime.engine_batched import BatchEmitter, run_batch_superstep
from repro.runtime.partition import block_partition
from repro.shortest_paths.scipy_backend import compute_voronoi_cells_scipy
from repro.shortest_paths.voronoi import INF, NO_VERTEX

INT64_MAX = int(np.iinfo(np.int64).max)

#: far above the packed-key guard ``(INT64_MAX - n) // n`` for n >= 2
BIG = 2**62

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def lexsort_batch_visit(prog, targets, payload, emitter):
    """Reference superstep: the per-vertex lexsort reduction."""
    vp, t, r = payload[:, 0], payload[:, 1], payload[:, 2]
    boot = (vp == targets) & (t == targets) & (r == 0)
    cand = ~boot
    acc_v = acc_t = acc_r = np.zeros(0, dtype=np.int64)
    if cand.any():
        tgt_c, vp_c, t_c, r_c = targets[cand], vp[cand], t[cand], r[cand]
        order = np.lexsort((vp_c, t_c, r_c, tgt_c))
        tgt_s = tgt_c[order]
        first = np.ones(tgt_s.size, dtype=bool)
        first[1:] = tgt_s[1:] != tgt_s[:-1]
        sel = order[first]
        v, rv, tv, pv = tgt_c[sel], r_c[sel], t_c[sel], vp_c[sel]
        improve = (rv < prog.dist[v]) | ((rv == prog.dist[v]) & (tv < prog.src[v]))
        acc_v, acc_r, acc_t, acc_p = v[improve], rv[improve], tv[improve], pv[improve]
        prog.dist[acc_v] = acc_r
        prog.src[acc_v] = acc_t
        prog.pred[acc_v] = acc_p
    prog._batch_expand(
        np.concatenate([targets[boot], acc_v]),
        np.concatenate([t[boot], acc_t]),
        np.concatenate([r[boot], acc_r]),
        emitter,
    )


@st.composite
def superstep_case(draw):
    """A small weighted graph, a partition, a random per-vertex
    ``(dist, src, pred)`` state and a random superstep inbox.

    Targets, ``r`` and ``t`` come from narrow ranges so that duplicate
    targets and ``(r, t)`` ties with different ``vp`` are common.  With
    ``big`` set, distances sit near ``2**62`` so the packed key would
    overflow and the lexsort fallback runs; with ``saturated`` set every
    vertex already holds ``(0, 0)`` and no row can improve.
    """
    n = draw(st.integers(min_value=2, max_value=20))
    chords = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges = [(i, i + 1) for i in range(n - 1)] + [e for e in chords if e[0] != e[1]]
    weights = draw(st.lists(st.integers(1, 9), min_size=len(edges), max_size=len(edges)))
    graph = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), weights)
    partition = block_partition(
        graph,
        draw(st.integers(1, 4)),
        delegate_threshold=draw(st.sampled_from([None, 3])),
    )

    big = draw(st.booleans())
    offsets = [0, BIG] if big else [0]
    hot = draw(st.integers(0, n - 1))  # targets drawn from [0, hot]

    def distance():
        return draw(st.integers(0, 4)) + draw(st.sampled_from(offsets))

    dist = np.full(n, INF, dtype=np.int64)
    src = np.full(n, NO_VERTEX, dtype=np.int64)
    pred = np.full(n, NO_VERTEX, dtype=np.int64)
    saturated = draw(st.booleans())
    if saturated:
        dist[:] = 0
        src[:] = 0
        pred[:] = 0
    else:
        for v in range(n):
            if draw(st.booleans()):
                dist[v] = distance()
                src[v] = draw(st.integers(0, n - 1))
                pred[v] = draw(st.integers(0, n - 1))

    rows = [
        (
            draw(st.integers(0, hot)),
            (draw(st.integers(0, n - 1)), draw(st.integers(0, min(n - 1, 3))), distance()),
        )
        for _ in range(draw(st.integers(0, 40)))
    ]
    boots = draw(st.lists(st.integers(0, n - 1), max_size=3))
    rows += [(s, (s, s, 0)) for s in boots]
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    targets = np.asarray([tg for tg, _ in rows], dtype=np.int64)
    payload = np.asarray([p for _, p in rows], dtype=np.int64).reshape(-1, 3)
    return partition, (dist, src, pred), targets, payload


def _program(partition, state):
    prog = VoronoiProgram(partition)
    prog.dist[:], prog.src[:], prog.pred[:] = state
    return prog


def run_both(partition, state, targets, payload):
    """Drive the reference and ``batch_visit`` from the same state over
    the same inbox; return both programs and both drained emissions."""
    ref, new = _program(partition, state), _program(partition, state)
    ref_out, new_out = BatchEmitter(3), BatchEmitter(3)
    lexsort_batch_visit(ref, targets, payload, ref_out)
    new.batch_visit(targets, payload, new_out)
    return ref, new, ref_out.drain(), new_out.drain()


def assert_parity(partition, state, targets, payload):
    ref, new, ref_out, new_out = run_both(partition, state, targets, payload)
    for attr in ("dist", "src", "pred"):
        assert np.array_equal(getattr(ref, attr), getattr(new, attr)), attr
    for name, a, b in zip(("src_ranks", "targets", "payload"), ref_out, new_out):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestBatchVisitParity:
    @PROPERTY
    @given(superstep_case())
    def test_random_state_and_inbox(self, case):
        assert_parity(*case)

    def _case(self, rows, state=None):
        n = 6
        partition = block_partition(grid_graph(2, 3), 2)
        if state is None:
            state = (
                np.full(n, INF, dtype=np.int64),
                np.full(n, NO_VERTEX, dtype=np.int64),
                np.full(n, NO_VERTEX, dtype=np.int64),
            )
        targets = np.asarray([tg for tg, _ in rows], dtype=np.int64)
        payload = np.asarray([p for _, p in rows], dtype=np.int64).reshape(-1, 3)
        return partition, state, targets, payload

    def test_rt_ties_break_on_vp(self):
        # three candidates for vertex 4 tie on (r, t); the smallest vp wins
        case = self._case([(4, (5, 1, 7)), (4, (3, 1, 7)), (4, (2, 1, 9)), (4, (0, 1, 7))])
        _, new, _, _ = run_both(*case)
        assert (new.dist[4], new.src[4], new.pred[4]) == (7, 1, 0)
        assert_parity(*case)

    def test_no_row_improves(self):
        n = 6
        state = (np.zeros(n, np.int64), np.zeros(n, np.int64), np.zeros(n, np.int64))
        case = self._case([(1, (0, 0, 0)), (2, (1, 3, 0)), (3, (2, 0, 5))], state)
        _, _, _, new_out = run_both(*case)
        assert new_out[1].size == 0
        assert_parity(*case)

    def test_bootstrap_rows_expand_unconditionally(self):
        n = 6
        dist = np.full(n, INF, dtype=np.int64)
        src = np.full(n, NO_VERTEX, dtype=np.int64)
        dist[[0, 5]] = 0
        src[[0, 5]] = [0, 5]
        case = self._case([(5, (5, 5, 0)), (3, (1, 0, 2)), (0, (0, 0, 0))], (dist, src, src.copy()))
        _, _, _, new_out = run_both(*case)
        assert new_out[1].size > 0
        assert_parity(*case)

    def test_overflowing_key_takes_the_lexsort_fallback(self, monkeypatch):
        rows = [(4, (5, 1, BIG + 3)), (4, (3, 1, BIG + 3)), (2, (1, 0, 5)), (4, (1, 0, BIG + 9))]
        case = self._case(rows)
        ref = _program(case[0], case[1])
        lexsort_batch_visit(ref, case[2], case[3], BatchEmitter(3))
        calls = []
        lexsort = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        new = _program(case[0], case[1])
        new.batch_visit(case[2], case[3], BatchEmitter(3))
        assert calls == [4]
        assert (new.dist[4], new.src[4], new.pred[4]) == (BIG + 3, 1, 3)
        for attr in ("dist", "src", "pred"):
            assert np.array_equal(getattr(ref, attr), getattr(new, attr)), attr

    def test_packed_path_does_not_sort(self, monkeypatch):
        case = self._case([(4, (5, 1, 7)), (4, (3, 1, 7)), (2, (1, 0, 5))])
        monkeypatch.setattr(np, "lexsort", None)
        _program(case[0], case[1]).batch_visit(case[2], case[3], BatchEmitter(3))


def test_vertex_only_inbox_is_passed_without_a_copy():
    partition = block_partition(grid_graph(2, 3), 2)
    prog = VoronoiProgram(partition)
    seen = []
    prog_visit = prog.batch_visit

    class Spy:
        batch_visit_rank = prog.batch_visit_rank

        def batch_visit(self, targets, payload, emitter):
            seen.append((targets, payload))
            prog_visit(targets, payload, emitter)

    targets = np.asarray([1, 2], dtype=np.int64)
    payload = np.asarray([[0, 0, 1], [1, 0, 2]], dtype=np.int64)
    run_batch_superstep(Spy(), targets, payload, 3)
    assert seen[0][0] is targets and seen[0][1] is payload


def test_huge_weights_solve_through_the_fallback():
    """Weights near ``2**62 // n``: the Voronoi distances pass the packed
    guard, so ``bsp-batched`` reduces through the lexsort fallback, and
    the tree still equals the sequential reference.  Weights are
    multiples of ``2**50`` so the float64 SciPy kernel stays exact."""
    g = grid_graph(8, 8)
    n = g.n_vertices
    unit = 2**50
    top = 2**62 // n // unit
    g = assign_uniform_weights(g, (top // 2, top), seed=3)
    g = g.reweighted(g.weights * unit)
    seeds = [0, 7, 27, 56, 63]
    ref = sequential_steiner_tree(g, seeds, voronoi_backend="scipy")
    res = DistributedSteinerSolver(g, SolverConfig(n_ranks=4, engine="bsp-batched")).solve(seeds)
    assert np.array_equal(ref.edges, res.edges)
    assert ref.total_distance == res.total_distance
    # some vertex settles farther than the packed guard allows, so the
    # superstep that accepted it had to take the fallback
    assert int(compute_voronoi_cells_scipy(g, seeds).dist.max()) > (INT64_MAX - n) // n

"""Workloads of the end-to-end benchmark: inputs, reference trees, drivers.

Each workload fixes a graph (built from fixed generator seeds).  The
closed-loop workloads draw their seed sets from the run's ``--seed``;
``serve-grid-100k`` fixes its request trace and lets ``--seed`` decide
which request asks for which of the trace's seed sets.  The program only
ever sees the generated graph and seed sets.  Every tree a run produces
is compared array for array with the ``scipy`` sequential reference for
its seed set; the references are computed before the timed loop, in
child processes.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.solver import DistributedSteinerSolver
from repro.core.sequential import sequential_steiner_tree
from repro.graph.connectivity import largest_component_vertices
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, rmat_graph
from repro.graph.weights import assign_uniform_weights
from repro.serve import SolverService
from repro.validation import validate_steiner_tree

from e2e_bench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: seed of the serve workload's request trace
TRACE_SEED = 20221
#: share of serve requests that repeat an earlier request's seed set
SERVE_REPEAT_SHARE = 0.25
#: seconds the open loop waits for its last answers before failing them
ANSWER_WAIT_S = 60.0
#: paired traced/untraced solves the serve workload adds for the overhead
SERVE_OVERHEAD_PAIRS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed": one caller waits for each solve; "open": Poisson arrivals
    build_graph: Callable[[], CSRGraph]
    seeds_per_solve: int
    config: dict[str, Any]
    latency_limit_ms: float  # goodput counts answers at or under this latency
    # set-ups per run (construction plus the warm-up solve, which the solve
    # metrics leave out); ``setup_s`` is their median, so the cheap ones repeat more
    setup_repeats: int
    pool: int = 0  # closed loop: distinct seed sets the caller cycles through
    rate_rps: float = 0.0  # open loop: offered load


def _rmat_w100(scale: int, edge_factor: int) -> CSRGraph:
    return assign_uniform_weights(
        rmat_graph(scale, edge_factor, seed=1), (1, 100), seed=2
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "backend-rmat-1m", "closed", lambda: _rmat_w100(17, 8), 50,
            {"voronoi_backend": "delta-numpy"}, latency_limit_ms=5000.0, setup_repeats=3,
            pool=4,
        ),
        Workload(
            "bsp-rmat-100k", "closed", lambda: _rmat_w100(14, 7), 30,
            {"engine": "bsp-batched"}, latency_limit_ms=1000.0, setup_repeats=7,
            pool=8,
        ),
        Workload(
            "async-rmat-100k", "closed", lambda: _rmat_w100(14, 7), 30,
            {"engine": "async-heap"}, latency_limit_ms=10000.0, setup_repeats=3,
            pool=4,
        ),
        Workload(
            "serve-grid-100k", "open", lambda: grid_graph(200, 250), 15,
            {}, latency_limit_ms=500.0, setup_repeats=9, rate_rps=3.0,
        ),
    )
}


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
@dataclass
class Inputs:
    graph: CSRGraph
    warmup: tuple[int, ...]  # seed set of the untimed warm-up solves
    seed_sets: list[tuple[int, ...]]  # closed: the pool; open: one per request
    due_s: np.ndarray | None = None  # open loop: arrival offsets


def make_inputs(wl: Workload, graph: CSRGraph, seed: int, seconds: float) -> Inputs:
    """Seed sets drawn from ``seed``; the open loop's request trace is
    fixed and ``seed`` permutes its seed sets."""
    rng = np.random.default_rng(seed)
    candidates = largest_component_vertices(graph)

    def draw_from(gen: np.random.Generator) -> tuple[int, ...]:
        picked = gen.choice(candidates, wl.seeds_per_solve, replace=False)
        return tuple(sorted(int(s) for s in picked))

    warmup = draw_from(rng)
    if wl.loop == "closed":
        return Inputs(graph, warmup, [draw_from(rng) for _ in range(wl.pool)])
    # the request trace is part of the workload, like its graph: arrivals
    # (a Poisson process conditioned on its count), which requests repeat
    # an earlier one, and the catalogue of distinct seed sets are drawn
    # from a fixed seed; ``seed`` only decides which request asks for
    # which catalogue entry
    trace = np.random.default_rng(TRACE_SEED)
    n = max(1, round(wl.rate_rps * seconds))
    due = np.sort(trace.uniform(0.0, seconds, n))
    repeat_of = [
        int(trace.integers(i)) if i and trace.random() < SERVE_REPEAT_SHARE else -1
        for i in range(n)
    ]
    catalogue = [draw_from(trace) for r in repeat_of if r < 0]
    order = iter(rng.permutation(len(catalogue)))
    sets: list[tuple[int, ...]] = []
    for i in range(n):
        sets.append(sets[repeat_of[i]] if repeat_of[i] >= 0 else catalogue[next(order)])
    return Inputs(graph, warmup, sets, due)


# --------------------------------------------------------------------- #
# reference trees
# --------------------------------------------------------------------- #
Reference = tuple[np.ndarray, int] | None  # None: no valid reference tree
#: child processes that generate the graph and share the reference trees
REFERENCE_CHILDREN = 2
#: seconds the children may take to generate the graph and references
PREPARE_TIMEOUT_S = 120.0


def reference_tree(graph: CSRGraph, seeds: tuple[int, ...]) -> Reference:
    """The scipy sequential tree, validated as a Steiner tree; ``None``
    when the reference fails, so every answer for the seed set fails."""
    try:
        ref = sequential_steiner_tree(graph, seeds, voronoi_backend="scipy")
        validate_steiner_tree(graph, seeds, ref.edges)
    except Exception:
        return None
    return ref.edges, ref.total_distance


def _references(inputs: Inputs, part: int = 0, parts: int = 1) -> dict:
    """References for every ``parts``-th distinct seed set from ``part``."""
    distinct = sorted(set(inputs.seed_sets))[part::parts]
    return {s: reference_tree(inputs.graph, s) for s in distinct}


def _prepare_child() -> None:
    """Child process of :func:`prepare`: writes its share of the
    references, pickled, to standard output, and child 0 the graph's
    arrays too (anything the program prints goes to standard error)."""
    name, seed, seconds, part, parts = sys.argv[1:6]
    out, sys.stdout = sys.stdout.buffer, sys.stderr
    wl = WORKLOADS[name]
    inputs = make_inputs(wl, wl.build_graph(), int(seed), float(seconds))
    g = inputs.graph
    arrays = (g.indptr, g.indices, g.weights) if part == "0" else None
    refs = _references(inputs, int(part), int(parts))
    pickle.dump((arrays, refs), out, pickle.HIGHEST_PROTOCOL)
    out.flush()


def prepare(
    wl: Workload, seed: int, seconds: float, isolated: bool = True
) -> tuple[Inputs, dict[tuple[int, ...], Reference]]:
    """The run's inputs and one reference tree per distinct seed set.

    With ``isolated`` child processes generate the graph and compute the
    references, and this process receives the finished graph, so the
    generator's temporaries stay out of its peak memory.  Every child
    has ended and been reaped when this returns or raises.
    """
    if not isolated:
        inputs = make_inputs(wl, wl.build_graph(), seed, seconds)
        return inputs, _references(inputs)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "from e2e_bench.workloads import _prepare_child; _prepare_child()"
    deadline = time.monotonic() + PREPARE_TIMEOUT_S
    children: list[subprocess.Popen] = []
    try:
        for part in range(REFERENCE_CHILDREN):
            children.append(subprocess.Popen(
                [sys.executable, "-c", code, wl.name, str(seed), repr(seconds),
                 str(part), str(REFERENCE_CHILDREN)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE,
            ))
        shares = []
        for child in children:
            out, _ = child.communicate(timeout=max(0.0, deadline - time.monotonic()))
            if child.returncode != 0:
                raise subprocess.CalledProcessError(child.returncode, child.args)
            shares.append(pickle.loads(out))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            if child.stdout is not None:
                child.stdout.close()
    refs: dict[tuple[int, ...], Reference] = {}
    for _, share in shares:
        refs.update(share)
    graph = CSRGraph(*shares[0][0])
    return make_inputs(wl, graph, seed, seconds), refs


# --------------------------------------------------------------------- #
# run records
# --------------------------------------------------------------------- #
def _phase_counts(result: Any) -> list[tuple]:
    return [
        (p.name, p.n_visits, p.n_messages_local, p.n_messages_remote, p.bytes_sent)
        for p in result.phases
    ]


@dataclass
class Outcome:
    """One solve or request: what was asked, what came back, how long."""

    seeds: tuple[int, ...]
    latency_s: float = float("nan")
    result: Any = None
    error: str | None = None
    traced: bool = False
    correct: bool = False


@dataclass
class RunRecord:
    setup_s: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    lag_s: list[float] = field(default_factory=list)
    partition_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    overhead_pairs: list[tuple[float, float]] = field(default_factory=list)
    traced_requests: int = 0  # requests whose layer calls the spans cover
    counts_match: bool = True  # traced and untraced phase counters agree
    serve_stats: dict[str, Any] = field(default_factory=dict)

    def check(self, refs: dict[tuple[int, ...], Reference]) -> None:
        """Mark each outcome correct iff its tree equals the reference."""
        for o in self.outcomes:
            ref = refs.get(o.seeds)
            o.correct = (
                o.error is None
                and ref is not None
                and o.result is not None
                and o.result.total_distance == ref[1]
                and np.array_equal(o.result.edges, ref[0])
            )


def _timed_solve(solve: Callable[[], Any], outcome: Outcome) -> Outcome:
    t0 = time.perf_counter()
    try:
        outcome.result = solve()
    except Exception as exc:  # counted as a failure, never as a timing
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.latency_s = time.perf_counter() - t0
    return outcome


def _traced(tracer: Tracer | None) -> Any:
    return tracer.installed() if tracer is not None else nullcontext()


def _end_setup(rec: RunRecord, tracer: Tracer | None) -> None:
    """Keep the set-ups' partition times; forget their other spans."""
    if tracer is not None:
        rec.partition_s = [s.duration for s in tracer.spans if s.name == "partition.build"]
        tracer.reset()


# --------------------------------------------------------------------- #
# closed loop
# --------------------------------------------------------------------- #
def run_closed(wl: Workload, inputs: Inputs, seconds: float,
               tracer: Tracer | None = None) -> RunRecord:
    """One caller, each solve issued when the previous one returns.

    Untraced (``tracer is None``), every solve counts toward the
    end-to-end metrics.  Traced, solves come in pairs on the same seed
    set, one traced and one not, alternating which goes first: the pairs
    give the tracing overhead and check that tracing leaves the phase
    counters alone.
    """
    rec = RunRecord()
    with _traced(tracer):
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            solver = DistributedSteinerSolver(inputs.graph, **wl.config)
            solver.solve(inputs.warmup)
            rec.setup_s.append(time.perf_counter() - t0)
    _end_setup(rec, tracer)

    pool = inputs.seed_sets
    start = due = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        seeds = pool[i % len(pool)]
        rec.lag_s.append(time.perf_counter() - due)
        if tracer is None:
            rec.outcomes.append(_timed_solve(lambda: solver.solve(seeds), Outcome(seeds)))
        else:
            _solve_pair(rec, solver, seeds, tracer, i)
        due = time.perf_counter()
        i += 1
    rec.elapsed_s = time.perf_counter() - start
    rec.traced_requests = len(rec.overhead_pairs)
    return rec


def _solve_pair(rec: RunRecord, solver: DistributedSteinerSolver,
                seeds: tuple[int, ...], tracer: Tracer, j: int) -> None:
    """One traced and one untraced solve of ``seeds``, alternating which
    goes first: the pair gives the tracing overhead and checks that
    tracing leaves the phase counters alone."""
    pair: dict[bool, Outcome] = {}
    for traced in ((True, False) if j % 2 == 0 else (False, True)):
        outcome = pair[traced] = Outcome(seeds, traced=traced)
        if traced:
            with tracer.installed(), tracer.request(f"p{j}"):
                _timed_solve(lambda: solver.solve(seeds), outcome)
        else:
            _timed_solve(lambda: solver.solve(seeds), outcome)
        rec.outcomes.append(outcome)
    rec.overhead_pairs.append((pair[True].latency_s, pair[False].latency_s))
    results = [pair[True].result, pair[False].result]
    if None not in results and _phase_counts(results[0]) != _phase_counts(results[1]):
        rec.counts_match = False


# --------------------------------------------------------------------- #
# open loop (serve)
# --------------------------------------------------------------------- #
class _Outstanding:
    """Request ids submitted but not answered, by seed set — how a span
    in the service's worker thread learns which requests it serves."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_seeds: dict[frozenset, list[str]] = {}

    def add(self, seeds: tuple[int, ...], rid: str) -> None:
        with self._lock:
            self._by_seeds.setdefault(frozenset(seeds), []).append(rid)

    def remove(self, seeds: tuple[int, ...], rid: str) -> None:
        with self._lock:
            self._by_seeds[frozenset(seeds)].remove(rid)

    def lookup(self, seed_sets: list) -> str | None:
        with self._lock:
            rids = [r for s in seed_sets for r in self._by_seeds.get(frozenset(s), ())]
        return ",".join(rids) or None

    def request_of(self, name: str, args: tuple, kwargs: dict) -> str | None:
        if name == "solve":  # DistributedSteinerSolver.solve(self, seeds, ...)
            return self.lookup([args[1]])
        if name == "serve.fused_sweep":  # fused_multisource(graph, seed_sets, ...)
            return self.lookup(list(args[1]))
        return None


def run_open(wl: Workload, inputs: Inputs, seconds: float,
             tracer: Tracer | None = None) -> RunRecord:
    """Requests submitted on the seeded arrival schedule, whatever the
    backlog; each is timed from its due time to its answer."""
    rec = RunRecord()
    outstanding = _Outstanding()
    if tracer is not None:
        tracer.request_of = outstanding.request_of
    service = None
    with _traced(tracer):
        for _ in range(wl.setup_repeats):
            if service is not None:
                service.close()
            t0 = time.perf_counter()
            service = SolverService(**wl.config)
            service.add_graph("g", inputs.graph)
            service.solve("g", inputs.warmup)
            rec.setup_s.append(time.perf_counter() - t0)
    assert service is not None and service.cache is not None
    service.cache.clear()  # the warm-up answer must not turn into a hit
    before = service.counters.as_dict()
    _end_setup(rec, tracer)

    n = len(inputs.seed_sets)
    done_at = [float("nan")] * n
    submitted_at = [float("nan")] * n
    outcomes = [Outcome(seeds, traced=tracer is not None) for seeds in inputs.seed_sets]

    def on_done(pending: Any, i: int) -> None:
        done_at[i] = time.perf_counter()
        outstanding.remove(inputs.seed_sets[i], f"r{i}")

    pendings: list[Any] = []
    try:
        with _traced(tracer):
            start = time.perf_counter()
            for i, (seeds, offset) in enumerate(zip(inputs.seed_sets, inputs.due_s)):
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submitted_at[i] = time.perf_counter()
                rec.lag_s.append(submitted_at[i] - (start + offset))
                outstanding.add(seeds, f"r{i}")
                try:
                    pendings.append(service.submit(
                        {"op": "solve", "id": f"r{i}", "graph": "g", "seeds": list(seeds)},
                        on_done=lambda p, i=i: on_done(p, i),
                    ))
                except Exception as exc:  # a refused request is a failed one
                    outstanding.remove(seeds, f"r{i}")
                    outcomes[i].error = f"{type(exc).__name__}: {exc}"
                    pendings.append(None)
            give_up = time.perf_counter() + ANSWER_WAIT_S
            for i, p in enumerate(pendings):
                o = outcomes[i]
                if p is None:
                    continue
                if not p.event.wait(max(0.0, give_up - time.perf_counter())):
                    o.error = "no answer within the wait limit"
                elif p.error is not None:
                    o.error = f"{type(p.error).__name__}: {p.error}"
                else:
                    o.result = p.result
                    o.latency_s = done_at[i] - (start + inputs.due_s[i])
            answered = [d for d in done_at if not math.isnan(d)]
            rec.elapsed_s = (max(answered) if answered else time.perf_counter()) - start
    finally:
        stats = service.stats()
        service.close()
    rec.outcomes = outcomes
    rec.serve_stats = {
        "counters": {k: v - before[k] for k, v in stats["counters"].items()},
        "cache": stats["cache"],
    }
    if tracer is not None:
        rec.traced_requests = n
        rec.queue_wait_s = _queue_waits(tracer, start, inputs.due_s, submitted_at)
        _serve_overhead_pairs(service.config, inputs, tracer, rec)
    return rec


def _queue_waits(tracer: Tracer, start: float, due_s: np.ndarray,
                 submitted_at: list[float]) -> list[float]:
    """Per request: due time to the first root span of the worker that
    serves it (a fused sweep or a solve), opened after its submission."""
    first: dict[str, float] = {}
    for span in tracer.spans:
        if span.parent >= 0 or not span.request:
            continue
        for rid in span.request.split(","):
            i = int(rid[1:])
            if span.start >= submitted_at[i] and rid not in first:
                first[rid] = span.start
    return [first[f"r{i}"] - (start + d) for i, d in enumerate(due_s) if f"r{i}" in first]


def _serve_overhead_pairs(config: Any, inputs: Inputs, tracer: Tracer,
                          rec: RunRecord) -> None:
    """Tracing overhead of the serve configuration: paired solves on a
    solver without cache, outside the open loop and its spans."""
    spans = tracer.spans
    tracer.reset()
    tracer.request_of = None
    solver = DistributedSteinerSolver(inputs.graph, config)
    distinct = list(dict.fromkeys(inputs.seed_sets))[:SERVE_OVERHEAD_PAIRS]
    for j, seeds in enumerate(distinct):
        _solve_pair(rec, solver, seeds, tracer, j)
    tracer.spans = spans

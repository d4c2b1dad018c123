"""In-memory span tracer that times the calls into each layer from outside.

The program carries no tracing of its own, so the benchmark records a span
around every call into a layer's public entry point by swapping the
attribute that the calling layer looks up (a module-level function name or
a class method) for a timing wrapper.  :meth:`Tracer.installed` patches the
attributes of :data:`LAYER_TARGETS` and restores every original on exit,
even when the traced code raises.

A span records its name, start, end, parent span and request id.  Parents
come from a per-thread stack, so the service's worker thread and the load
generator keep separate call trees.  Spans are kept in a list and written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: engine phase name -> span name (the two message-driven phases of Alg. 3)
PHASE_SPANS = {"Voronoi Cell": "voronoi", "Steiner Tree Edge": "tree_edge"}


def _phase_attrs(stats: Any) -> dict[str, float]:
    return {
        "visits": stats.n_visits,
        "messages_local": stats.n_messages_local,
        "messages_remote": stats.n_messages_remote,
        "peak_queue": stats.peak_queue_total,
        "sim_s": stats.sim_time,
    }


#: (module, attribute path, span name, result -> span counters).  The
#: module is the namespace the *caller* resolves the name in: the solver
#: imports most layer functions by name, so those are patched in
#: ``repro.core.solver``; methods are patched on their class.  The
#: ``make_engine`` entry (span name ``None``) records no span itself; it
#: wraps ``run_phase`` on each engine the solver creates.
LAYER_TARGETS: tuple[tuple[str, str, str | None, Callable[[Any], dict] | None], ...] = (
    ("repro.core.solver", "DistributedSteinerSolver.solve", "solve", None),
    ("repro.core.solver", "block_partition", "partition.build", None),
    ("repro.core.solver", "make_engine", None, None),
    ("repro.core.voronoi_visitor", "VoronoiProgram.batch_visit",
     "voronoi.batch_visit", None),
    ("repro.core.solver", "canonicalize_predecessors", "canon", None),
    ("repro.shortest_paths.backends", "compute_multisource", "sweep", None),
    ("repro.serve.batch", "compute_multisource", "sweep", None),
    ("repro.core.solver", "build_distance_graph", "distgraph",
     lambda dg: {"pairs": dg.n_edges}),
    ("repro.graph.csr", "CSRGraph.edge_array", "graph.edge_array", None),
    ("repro.core.solver", "local_min_edge_costs", "costmodel", None),
    ("repro.core.solver", "prim_mst", "mst", None),
    ("repro.serve.service", "fused_multisource", "serve.fused_sweep",
     lambda sweep: {"batch_size": sweep.batch_size}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    request: str | None
    thread: int
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def snapshot_targets() -> dict[tuple[str, str], Any]:
    """What each layer target's owner holds now (``None``: inherited)."""
    out = {}
    for module, path, _, _ in LAYER_TARGETS:
        owner, attr = _resolve(module, path)
        out[(module, path)] = vars(owner).get(attr)
    return out


class Tracer:
    """Records spans around layer calls while :meth:`installed` is active.

    A span takes its parent's request id.  A root span takes the id set by
    :meth:`request` on its thread or, failing that, the one the
    ``request_of(name, args, kwargs)`` hook names (the service's worker
    thread learns it from the seed set).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_of: Callable[[str, tuple, dict], str | None] | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, args: tuple, kwargs: dict) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if parent >= 0:
            request = self.spans[parent].request
        else:
            request = getattr(self._local, "request", None)
            if request is None and self.request_of is not None:
                request = self.request_of(name, args, kwargs)
        span = Span(name, time.perf_counter(), float("nan"), parent, request,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        attrs_of: Callable[[Any], dict] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call (``name`` may be
        computed from the call's arguments)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_name = name if isinstance(name, str) else name(args, kwargs)
            idx = self._open(span_name, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if attrs_of is not None:
                span.attrs.update(attrs_of(out))
            return out

        return traced

    def _traced_make_engine(self, make_engine: Callable) -> Callable:
        def phase_name(args: tuple, kwargs: dict) -> str:
            phase = args[0] if args else kwargs["name"]
            return PHASE_SPANS[phase]

        @functools.wraps(make_engine)
        def traced(*args: Any, **kwargs: Any) -> Any:
            engine = make_engine(*args, **kwargs)
            # an instance attribute: dies with the engine, nothing to restore
            engine.run_phase = self.wrap(engine.run_phase, phase_name, _phase_attrs)
            return engine

        return traced

    # ------------------------------------------------------------------ #
    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag root spans opened on this thread with ``request_id``."""
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = None

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer target; restore the originals on exit."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module, path, name, attrs_of in LAYER_TARGETS:
                owner, attr = _resolve(module, path)
                had_own = attr in vars(owner)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
                if name is None:
                    setattr(owner, attr, self._traced_make_engine(original))
                else:
                    setattr(owner, attr, self.wrap(original, name, attrs_of))
            yield self
        finally:
            while self._saved:
                owner, attr, had_own, original = self._saved.pop()
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def reset(self) -> None:
        """Forget recorded spans (between a run's set-up and its loop)."""
        with self._lock:
            self.spans = []


# --------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------- #
def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = children(spans)
    out = []
    for span, own in zip(spans, kids):
        covered = 0.0
        reach = span.start
        for k in sorted(own, key=lambda i: spans[i].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``busy_s``, ``self_s`` and the
    sum of every counter the spans carry."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += span.duration
        t["self_s"] += own
        for key, value in span.attrs.items():
            t[key] = t.get(key, 0) + value
    return totals


def spans_to_json(spans: list[Span]) -> list[dict[str, Any]]:
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "name": s.name,
            "start_s": s.start - t0,
            "end_s": s.end - t0,
            "parent": s.parent,
            "request": s.request,
            "thread": s.thread,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in spans
    ]

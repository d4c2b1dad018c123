"""End-to-end solve and serve benchmark with a traced per-layer breakdown.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload bsp-rmat-100k --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` runs the same workload with spans recorded around every
layer call and reports the per-layer metrics instead.  The metric names,
units and workloads are those of ``BENCHMARK.json``; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A full record (provenance, sample counts, failures and, for
traced runs, every span) is written to ``.bench_out/``.  ``NOTES.md`` in
this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: layers of a solve compared for the "largest solver layer" line
SOLVER_LAYERS = (
    "costmodel.busy_s", "distgraph.busy_s", "sweep.busy_s", "voronoi.busy_s",
    "canon.busy_s", "mst.busy_s", "tree_edge.busy_s", "solver.self_s",
)


def _use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    # a JIT tier, when present, caches compiled kernels inside the checkout
    os.environ.setdefault("NUMBA_CACHE_DIR", str(OUT_DIR / "numba-cache"))


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` (no git process; ``None`` when the
    checkout is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args: argparse.Namespace, outcomes: list) -> dict[str, Any]:
    import numpy
    import scipy

    from repro.native import native_status

    seen = sorted({
        (str(o.result.provenance.get("engine")), str(o.result.provenance.get("backend")))
        for o in outcomes if o.result is not None
    })
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native": native_status(),
        "engine_backend": [list(p) for p in seen],
    }


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def end_to_end_metrics(wl: Any, rec: Any) -> dict[str, float]:
    ok_ms = [o.latency_s * 1000 for o in rec.outcomes if o.correct]
    elapsed = rec.elapsed_s
    return {
        "setup_s": statistics.median(rec.setup_s),
        "solves_per_s": len(ok_ms) / elapsed,
        "latency_p50_ms": percentile(ok_ms, 50),
        "goodput_rps": sum(ms <= wl.latency_limit_ms for ms in ok_ms) / elapsed,
        "correct_frac": len(ok_ms) / len(rec.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(wl: Any, rec: Any, spans: list) -> dict[str, float]:
    """Per-layer metrics of a traced run.  Times and counts are per
    request (closed loop: per traced solve); serve counters are totals
    over the run."""
    from e2e_bench.tracer import layer_totals

    totals = layer_totals(spans)
    n = max(1, rec.traced_requests)

    def per(name: str, key: str = "busy_s") -> float:
        return totals.get(name, {}).get(key, 0) / n

    fused = totals.get("serve.fused_sweep", {})
    counters = rec.serve_stats.get("counters", {})
    cache = rec.serve_stats.get("cache", {})
    lookups = cache.get("solution_hits", 0) + cache.get("solution_misses", 0)
    ratios = [traced / plain - 1 for traced, plain in rec.overhead_pairs]
    return {
        "partition.build_s": statistics.median(rec.partition_s) if rec.partition_s else 0.0,
        "costmodel.busy_s": per("costmodel"),
        "distgraph.busy_s": per("distgraph"),
        "distgraph.pairs": per("distgraph", "pairs"),
        "graph.edge_array_s": per("graph.edge_array"),
        "sweep.calls": per("sweep", "calls"),
        "sweep.busy_s": per("sweep"),
        "voronoi.busy_s": per("voronoi"),
        "voronoi.visits": per("voronoi", "visits"),
        "voronoi.messages_local": per("voronoi", "messages_local"),
        "voronoi.messages_remote": per("voronoi", "messages_remote"),
        "voronoi.peak_queue": per("voronoi", "peak_queue"),
        # phase 1 of a backend or injected sweep stores host seconds as
        # sim_time, so model time is only reported where an engine ran it
        "model.sim_s": sum(
            o.result.sim_time() for o in rec.outcomes
            if o.traced and o.result and o.result.provenance.get("sweep") == "simulated"
        ) / n,
        "voronoi.batch_visit_calls": per("voronoi.batch_visit", "calls"),
        "voronoi.batch_visit_s": per("voronoi.batch_visit"),
        "canon.busy_s": per("canon"),
        "mst.busy_s": per("mst"),
        "tree_edge.busy_s": per("tree_edge"),
        "tree_edge.messages": per("tree_edge", "messages_local")
        + per("tree_edge", "messages_remote"),
        "solver.self_s": per("solve", "self_s"),
        "serve.queue_wait_ms.p50": percentile(rec.queue_wait_s, 50) * 1000,
        "serve.queue_wait_ms.p90": percentile(rec.queue_wait_s, 90) * 1000,
        "serve.fused_sweeps": fused.get("calls", 0),
        "serve.fused_batch_size": (
            fused["batch_size"] / fused["calls"] if fused else 0.0
        ),
        "serve.fused_sweep_s": per("serve.fused_sweep"),
        "cache.hit_ratio": cache.get("solution_hits", 0) / lookups if lookups else 0.0,
        "cache.evictions": cache.get("evictions", 0),
        "serve.shed": counters.get("shed", 0),
        "serve.retries": counters.get("retries", 0),
        "serve.timeouts": counters.get("timeouts", 0),
        "loadgen.lag_ms.p90": percentile(rec.lag_s, 90) * 1000,
        "trace.overhead_frac": statistics.median(ratios) if ratios else 0.0,
    }


# --------------------------------------------------------------------- #
def run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from e2e_bench.tracer import Tracer, snapshot_targets, spans_to_json
    from e2e_bench.workloads import (
        WORKLOADS,
        prepare,
        run_closed,
        run_open,
    )

    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    inputs, refs = prepare(wl, args.seed, args.seconds)
    graph = inputs.graph
    print(f"# {wl.name}: {graph.n_vertices} vertices, {graph.n_edges} edges, "
          f"{len(set(inputs.seed_sets))} seed sets, inputs+references "
          f"{time.perf_counter() - t0:.1f}s", flush=True)

    before = snapshot_targets()
    tracer = Tracer() if args.trace else None
    driver = run_closed if wl.loop == "closed" else run_open
    rec = driver(wl, inputs, args.seconds, tracer)
    rec.check(refs)
    restored = snapshot_targets() == before

    outcomes = rec.outcomes
    failed = sum(not o.correct for o in outcomes)
    if args.trace:
        spans = tracer.spans
        values = per_layer_metrics(wl, rec, spans)
        kind = "per_layer"
    else:
        values = end_to_end_metrics(wl, rec)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    correct = failed == 0 and rec.counts_match and restored

    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    ok_ms = [o.latency_s * 1000 for o in outcomes if o.correct]
    ok = len(ok_ms)
    print(f"# {ok}/{len(outcomes)} correct over {rec.elapsed_s:.2f}s; setups "
          + ", ".join(f"{s:.3f}s" for s in rec.setup_s))
    if args.trace:
        largest = max(SOLVER_LAYERS, key=values.__getitem__)
        print(f"# largest solver layer: {largest}; traced phase counters match "
              f"untraced: {rec.counts_match}; targets restored: {restored}")
    errors = sorted({o.error for o in outcomes if o.error})
    for err in errors[:5]:
        print(f"# error: {err}")

    prov = provenance(args, outcomes)
    record = {
        "provenance": prov,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "failed_frac": failed / len(outcomes),
        "latency_samples": ok,
        # not an end-to-end metric: no workload's run has the 100 samples
        # a 90th percentile needs
        "latency_p90_ms": percentile(ok_ms, 90),
        "latency_ms": ok_ms,
        "setup_s": rec.setup_s,
        "errors": errors,
        "serve_stats": rec.serve_stats,
    }
    if args.trace:
        record["spans"] = spans_to_json(spans)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print("# provenance " + json.dumps(prov, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())

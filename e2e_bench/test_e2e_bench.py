"""Tests of the benchmark itself, on graphs small enough to run in seconds.

Run from the root of the checkout: ``python -m pytest e2e_bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from e2e_bench import run as bench
from e2e_bench.tracer import Tracer, children, self_times, snapshot_targets
from e2e_bench.workloads import (
    WORKLOADS,
    make_inputs,
    prepare,
    run_closed,
    run_open,
)
from repro.graph.generators import grid_graph, rmat_graph
from repro.graph.weights import assign_uniform_weights

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_rmat():
    return assign_uniform_weights(rmat_graph(7, 4, seed=1), (1, 10), seed=2)


def tiny(name: str, build_graph=tiny_rmat, **changes):
    return replace(WORKLOADS[name], seeds_per_solve=4, build_graph=build_graph, **changes)


@pytest.fixture(scope="module")
def traced_bsp():
    wl = tiny("bsp-rmat-100k", pool=2)
    inputs, refs = prepare(wl, seed=3, seconds=0.3, isolated=False)
    tracer = Tracer()
    rec = run_closed(wl, inputs, 0.3, tracer)
    rec.check(refs)
    return wl, rec, tracer


def test_self_times_are_non_negative_and_children_fit_in_the_solve(traced_bsp):
    _, rec, tracer = traced_bsp
    spans = tracer.spans
    assert min(self_times(spans)) >= -1e-9
    kids = children(spans)
    roots = [i for i, s in enumerate(spans) if s.name == "solve" and s.parent < 0]
    traced = [o for o in rec.outcomes if o.traced]
    assert len(roots) == len(traced) >= 1
    for i, outcome in zip(roots, traced):
        child_sum = sum(spans[k].duration for k in kids[i])
        assert child_sum <= spans[i].duration <= outcome.latency_s
        assert {spans[k].name for k in kids[i]} >= {"voronoi", "costmodel", "mst"}


def test_traced_run_is_correct_and_reports_every_per_layer_metric(traced_bsp):
    wl, rec, tracer = traced_bsp
    assert all(o.correct for o in rec.outcomes)
    assert rec.counts_match
    values = bench.per_layer_metrics(wl, rec, tracer.spans)
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert values["voronoi.batch_visit_calls"] > 0
    assert values["sweep.calls"] == 0


def test_every_wrapped_attribute_is_restored():
    before = snapshot_targets()
    tracer = Tracer()
    with tracer.installed():
        assert snapshot_targets() != before
    assert snapshot_targets() == before
    with pytest.raises(RuntimeError, match="boom"), tracer.installed():
        raise RuntimeError("boom")
    assert snapshot_targets() == before


def test_a_tampered_tree_is_counted_as_failed():
    wl = tiny("backend-rmat-1m", pool=2)
    inputs, refs = prepare(wl, seed=5, seconds=0.2, isolated=False)
    rec = run_closed(wl, inputs, 0.2)
    rec.check(refs)
    assert all(o.correct for o in rec.outcomes)

    victim = rec.outcomes[0].result
    edges = victim.edges.copy()
    edges[0, 2] += 1
    rec.outcomes[0].result = replace(victim, edges=edges)
    rec.check(refs)
    assert not rec.outcomes[0].correct
    values = bench.end_to_end_metrics(wl, rec)
    assert values["correct_frac"] == pytest.approx(1 - 1 / len(rec.outcomes))


def test_open_loop_answers_every_request_and_tags_its_spans():
    wl = tiny("serve-grid-100k", build_graph=lambda: grid_graph(8, 8), rate_rps=40.0)
    inputs, refs = prepare(wl, seed=2, seconds=0.5, isolated=False)
    tracer = Tracer()
    rec = run_open(wl, inputs, 0.5, tracer)
    rec.check(refs)
    assert all(o.correct for o in rec.outcomes)
    assert rec.counts_match
    assert len(rec.queue_wait_s) == len(inputs.seed_sets)
    assert min(rec.queue_wait_s) >= 0
    values = bench.per_layer_metrics(wl, rec, tracer.spans)
    assert values["sweep.calls"] > 0
    assert values["model.sim_s"] == 0.0
    e2e = bench.end_to_end_metrics(wl, rec)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]


def test_inputs_depend_only_on_the_seed():
    wl = tiny("serve-grid-100k")
    graph = grid_graph(8, 8)
    a, b = (make_inputs(wl, graph, seed=7, seconds=2) for _ in range(2))
    assert a.seed_sets == b.seed_sets and np.array_equal(a.due_s, b.due_s)
    assert make_inputs(wl, graph, seed=8, seconds=2).seed_sets != a.seed_sets


def test_workloads_match_the_benchmark_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2e_bench", tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", "bsp-rmat-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

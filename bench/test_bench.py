"""Tests of the benchmark itself: metric names, the closed forms that check
sparse-scaling, the tracer's bindings, how failed attempts are counted, and
a short run of each workload."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from z5color import families, gcg, propcheck, solver  # noqa: E402
from z5color.families import BrokenWheel, Wheel  # noqa: E402
from z5color.group_color import PhiAssignment  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_plain():
    names = [*spec.END_TO_END, *spec.PER_LAYER, "failed_share"]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad


def test_benchmark_json_lists_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == spec.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER


def _enumerated(graph) -> int:
    phi = PhiAssignment.zero(graph.edges())
    counted = solver.count_colorings(graph, phi)
    assert counted == sum(1 for _ in solver.enumerate_colorings(graph, phi))
    return counted


@pytest.mark.parametrize("n", range(3, 9))
def test_broken_wheel_closed_form(n):
    assert _enumerated(families.build(BrokenWheel(n))[0]) == workloads.broken_wheel_count(n)


@pytest.mark.parametrize("k", range(3, 8))
def test_wheel_closed_form(k):
    assert _enumerated(families.build(Wheel(k))[0]) == workloads.wheel_count(k)


@pytest.mark.parametrize("n,k", [(3, 3), (5, 3), (7, 4), (8, 5), (9, 6), (9, 9)])
def test_near_triangulation_closed_form(n, k):
    graph = propcheck.random_near_triangulation(n, k, seed=n * 10 + k)
    assert _enumerated(graph) == workloads.near_tri_count(n, k)


def test_tracer_wraps_every_binding_and_restores_it():
    bindings = [(solver, "built_family"), (propcheck, "count_colorings"), (gcg, "validate"),
                (families, "built_family"), (solver, "count_colorings")]
    originals = [getattr(mod, attr) for mod, attr in bindings]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(bindings, originals))
        g = families.build(Wheel(5))[0]
        propcheck.count_colorings(g, PhiAssignment.zero(g.edges()))
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr in bindings] == originals
    names = [span[0] for span in tracer.spans]
    assert names == ["solver.count_colorings", "solver.marginal_counts"]
    assert tracer.spans[1][3] == 0  # marginal_counts is a child of count_colorings
    stats = tracing.layer_stats(tracer.spans, lambda i: True)
    assert stats["solver.count_colorings"]["self_s"] <= stats["solver.count_colorings"]["durations"][0]


def test_later_answers_on_new_inputs_are_checked():
    def ladder(shift):
        def call():
            if shift == 3:
                raise RecursionError
            return shift

        return [workloads.Op("op/0", "k", call, lambda out: ["wrong"] if out == 2 else [], lambda out: "ok")]

    measured = worker.Pass(workloads.Workload("fake", ladder(0), pass_ops=ladder))
    measured.run(passes=4)
    problems, failed = measured.check()
    assert not problems
    assert failed == 2  # the wrong answer of shift 2 and the raise of shift 3


def test_repeated_inputs_count_each_failed_attempt_once():
    outcomes = iter(["a", "b", RecursionError(), "a"])

    def call():
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out

    op = workloads.Op("op/0", "k", call, lambda out: [], lambda out: out)
    measured = worker.Pass(workloads.Workload("fake", [op]))
    measured.run(passes=4)
    assert measured.check()[1] == 2  # the changed answer and the raise


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_short_run_reports_every_end_to_end_metric(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(spec.END_TO_END)
    assert set(report["metrics"]) == set(spec.END_TO_END) | {"failed_share"}
    assert report["metrics"]["failed_share"] < 1
    assert result["correct"], report["problems"]

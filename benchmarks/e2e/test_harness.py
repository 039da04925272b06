"""Unit tests of the benchmark harness itself (fast; tier-1 collects them).

The harness is the instrument every later perf claim is read from, so
its own arithmetic is pinned here: the percentile rule, span self-time
subtraction, failure accounting, generator determinism, and — on a
scaled-down workload that runs in well under a second — that each class
of output mismatch is counted, named on stderr and turns the exit code
non-zero.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import Failures, highest_percentile, spread  # noqa: E402


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (40, 75.0), (50, 80.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (20000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected
    if expected is not None:
        assert n * (1000 - round(expected * 10)) >= 10 * 1000


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0]) == 0.0
    # Too few values for quartiles: the full range over the median.
    assert spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 9.5, 10.5, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)


# -- span self time -------------------------------------------------------------


class _Clock:
    """A scripted ``perf_counter``: each call returns the next tick."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children(monkeypatch):
    #            a: 0 ........................ 10
    #              b: 2 ...... 5     b: 6 .. 8
    #                c: 3 . 4
    monkeypatch.setattr(tracing, "perf_counter", _Clock([0, 2, 3, 4, 5, 6, 8, 10]))
    tracer = tracing.Tracer()
    tracer.begin("a")
    tracer.begin("b")
    tracer.begin("c")
    assert tracer.end() == 1
    assert tracer.end() == 3
    tracer.begin("b")
    assert tracer.end() == 2
    assert tracer.end() == 10
    table = tracer.table()
    assert table["a"] == {"count": 1, "total_s": 10, "self_s": 5}
    assert table["b"] == {"count": 2, "total_s": 5, "self_s": 4}
    assert table["c"] == {"count": 1, "total_s": 1, "self_s": 1}
    # Self times partition the root's wall: nothing is counted twice.
    assert sum(row["self_s"] for row in table.values()) == table["a"]["total_s"]
    assert tracer.self_seconds("b", "c") == 5


def test_patches_wrap_and_restore(monkeypatch):
    class Layer:
        def work(self, x):
            return self.helper(x) + 1

        def helper(self, x):
            return 2 * x

    original = Layer.__dict__["work"]
    monkeypatch.setattr(tracing, "perf_counter", _Clock([0, 1, 4, 6]))
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    seen = []
    patches.wrap(Layer, "work", "layer.work")
    patches.wrap(
        Layer, "helper", lambda self, args: f"layer.helper.{args[0]}",
        after=lambda t, self, args, result: seen.append(result),
    )
    assert Layer().work(3) == 7
    patches.restore()
    assert Layer.__dict__["work"] is original
    assert seen == [6]
    assert tracer.table() == {
        "layer.helper.3": {"count": 1, "total_s": 3, "self_s": 3},
        "layer.work": {"count": 1, "total_s": 6, "self_s": 3},
    }


# -- failure accounting ------------------------------------------------------------


def test_failures_count_and_name_the_first_of_a_kind():
    failures = Failures()
    failures.attempt("readings", 100)
    failures.attempt("queries", 10)
    assert failures.correct and failures.failed == 0
    failures.add("queries", 2, "first differing answer")
    failures.add("queries", 1, "second differing answer")
    assert (failures.attempted, failures.failed, failures.correct) == (110, 3, False)
    # Only the first failure of a kind is named; all are counted.
    assert failures.messages == ["[queries] first differing answer"]


_COMPARE_SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "latency", "better": "lower", "bound": 0.1},
        {"name": "rate", "better": "higher", "bound": 0.1},
        {"name": "noisy", "better": "lower", "bound": 0.25},
        {"name": "alert_f1", "better": "higher", "bound": 0.1},
    ],
}


def _side(latency, rate, noisy, f1=(0.9,), failed=0, seed=7):
    def metric(samples):
        return {"value": sorted(samples)[len(samples) // 2], "samples": list(samples)}

    return {
        "seed": seed,
        "seconds": 24.0,
        "workloads": {
            "w": {
                "end_to_end": {
                    "latency": metric(latency), "rate": metric(rate),
                    "noisy": metric(noisy), "alert_f1": metric(f1),
                },
                "runs": [{"failed": failed, "attempted": 100}],
            }
        },
    }


_BASE = _side([1.0, 1.01, 0.99], [100.0, 101.0, 99.0], [1.0, 1.3, 0.8])


def test_compare_applies_bounds_and_flags_unsteady_metrics():
    same = _side([1.05, 1.04, 1.06], [95.0, 96.0, 94.0], [1.0, 1.2, 0.9])
    lines, regressions = compare.compare(_BASE, same, _COMPARE_SPEC)
    assert regressions == 0
    assert any("noisy" in line and "unresolved" in line for line in lines)
    assert any("latency" in line and line.endswith("ok") for line in lines)
    slower = _side([1.2, 1.21, 1.19], [80.0, 81.0, 79.0], [1.0, 1.2, 0.9], failed=1)
    lines, regressions = compare.compare(_BASE, slower, _COMPARE_SPEC)
    # latency +20 %, rate -20 %, and more failed operations.
    assert regressions == 3


def test_compare_tightens_the_bounds_when_both_sides_ran_the_same_seed():
    # F1 a hair lower, the wide-bounded timing 20 % slower.
    steady = ([1.0, 1.01, 0.99], [100.0, 101.0, 99.0], [1.2, 1.2, 1.2])
    drifted = _side(*steady, f1=(0.89,))
    lines, regressions = compare.compare(_BASE, drifted, _COMPARE_SPEC)
    assert regressions == 2
    assert any("alert_f1" in line and " 0% " in line and "REGRESSION" in line for line in lines)
    assert any("noisy" in line and " 10% " in line and "REGRESSION" in line for line in lines)
    # Another seed is another input: BENCHMARK.json's bounds apply.
    other_seed = _side(*steady, f1=(0.89,), seed=8)
    assert compare.compare(_BASE, other_seed, _COMPARE_SPEC)[1] == 0


def test_compare_counts_what_a_crashed_run_leaves_out_as_a_regression():
    crashed = _side([1.0], [100.0], [1.0])
    # What run.py writes when a workload's child dies before reporting.
    crashed["workloads"]["w"] = {"end_to_end": {}, "per_layer": {}, "runs": []}
    lines, regressions = compare.compare(_BASE, crashed, _COMPARE_SPEC)
    assert regressions == 5  # four metrics and the failed-ops row
    assert sum("missing from the change" in line for line in lines) == 4
    gone = _side([1.0], [100.0], [1.0])
    del gone["workloads"]["w"]
    lines, regressions = compare.compare(_BASE, gone, _COMPARE_SPEC)
    assert regressions == 1 and "workload missing from the change" in lines[-1]
    # The other way round nothing got worse.
    assert compare.compare(gone, _BASE, _COMPARE_SPEC)[1] == 0


def test_one_at_fork_hook_resets_only_the_active_tracer():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, workloads.INTERVAL)
    try:
        assert tracing._active is tracer
        tracer.begin("parent.span")
        tracer.add("parent.counter")
        tracing._reset_in_child()  # what a forked worker runs first
        assert not tracer.spans and not tracer.counters and not tracer._stack
    finally:
        patches.restore()
    assert tracing._active is None
    tracing._reset_in_child()  # no tracer installed: nothing to do


# -- generator determinism ------------------------------------------------------------


def readings_digest(traces: list) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(repr((trace.site, trace.horizon, trace.tag_table)).encode())
        for column in (trace.times, trace.tag_ids, trace.readers):
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def queries_digest(slices: list) -> str:
    digest = hashlib.sha256()
    for piece in slices:
        digest.update(repr((piece.after, piece.tenant, piece.batch, piece.shed)).encode())
        for request in piece.requests:
            digest.update(repr(tuple(request)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (workload.generate(seed, 24) for seed in (3, 3, 4))
    digest = lambda inputs: (  # noqa: E731
        readings_digest(inputs.traces),
        queries_digest(inputs.queries),
    )
    assert digest(first) == digest(again)
    assert first.expected_alerts == again.expected_alerts
    assert digest(first)[0] != digest(other)[0]
    assert digest(first)[1] != digest(other)[1]


# -- mismatches are loud ----------------------------------------------------------------


class _TinyColdChain(workloads.ColdChainMonitor):
    """The cold-chain workload at a size that runs in under a second."""

    FREEZER_CASES = ROOM_CASES = 2
    ITEMS = 3
    HORIZON = MIN_HORIZON = 600
    LEAVE = 300
    EXPOSURES = 1
    SHORT = 0
    EXPOSURE_START = 60
    SLICE = 60


class _TinyChain(workloads.ChainMigration):
    """Two pallets, the first of which reaches the second site."""

    ITEMS = 3
    INJECTION = 450
    HORIZON = MIN_HORIZON = 900
    AUDIT_ITEMS = 4
    AUDIT_STEP = 300


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "coldchain-monitor", _TinyColdChain())
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    return ["--workload", "coldchain-monitor", "--seed", "5", "--seconds", "0.01"]


def _last_json(capsys):
    import json

    out, err = capsys.readouterr()
    return json.loads(out.strip().splitlines()[-1]), err


def test_clean_run_exits_zero_and_prints_the_contract_line(tiny, capsys):
    assert run.main(tiny + ["--trace", "0"]) == 0
    line, err = _last_json(capsys)
    spec = run.load_spec()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [e["name"] for e in spec["end_to_end"]]
    assert "FAILED" not in err


def test_traced_run_reports_every_layer_metric_and_accounts_for_the_wall(tiny, capsys):
    assert run.main(tiny + ["--trace", "1"]) == 0
    line, _ = _last_json(capsys)
    spec = run.load_spec()
    assert list(line["metrics"]) == [e["name"] for e in spec["per_layer"]]
    assert line["metrics"]["trace.unaccounted_pct"]["value"] <= 5.0
    shares = sum(
        line["metrics"][f"trace.share.{layer}_pct"]["value"] for layer in tracing.LAYERS
    )
    assert 95.0 <= shares <= 100.5


def test_lost_reading_fails_the_run(tiny, capsys, monkeypatch):
    real = pipeline.run_ingest

    def lossy(traces, *args, **kwargs):
        rebuilt, report = real(traces, *args, **kwargs)
        trace = rebuilt[0]
        keep = np.ones(len(trace.times), dtype=bool)
        keep[len(keep) // 2] = False
        rebuilt[0] = type(trace).from_columns(
            trace.site, trace.layout, trace.model, trace.times[keep],
            trace.tag_ids[keep], trace.readers[keep], trace.tag_table, trace.horizon,
        )
        return rebuilt, report

    monkeypatch.setattr(pipeline, "run_ingest", lossy)
    assert run.main(tiny + ["--trace", "0"]) == 1
    line, err = _last_json(capsys)
    assert line["correct"] is False and line["failed"] >= 1
    assert "FAILED coldchain-monitor: [readings] site 0: reading (" in err


def test_wrong_answer_fails_the_run(tiny, capsys, monkeypatch):
    real = pipeline.oracle_answer
    monkeypatch.setattr(
        pipeline, "oracle_answer",
        lambda cluster, request: real(cluster, request)[:2] + ((("bogus",),),),
    )
    assert run.main(tiny + ["--trace", "0"]) == 1
    line, err = _last_json(capsys)
    assert line["correct"] is False and line["failed"] >= 1
    assert "FAILED coldchain-monitor: [queries] HistoryRequest(" in err


def test_unplanned_rejection_fails_the_run(tiny, capsys, monkeypatch):
    from repro.serving import Backpressure, QueryFrontend

    real = QueryFrontend.execute
    calls = {"n": 0}

    def flaky(self, request, tenant=None):
        calls["n"] += 1
        if calls["n"] == 7:
            raise Backpressure("injected")
        return real(self, request, tenant)

    monkeypatch.setattr(QueryFrontend, "execute", flaky)
    assert run.main(tiny + ["--trace", "0"]) == 1
    line, err = _last_json(capsys)
    assert line["failed"] == 1
    assert "[queries]" in err and "rejected: injected" in err


def test_diverged_replica_fails_the_run(tiny, capsys, monkeypatch):
    from repro.serving import ArchiveReplica

    real = pipeline.encode_archive
    replica_archives = set()
    real_init = ArchiveReplica.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        replica_archives.add(id(self.archive))

    monkeypatch.setattr(ArchiveReplica, "__init__", init)
    monkeypatch.setattr(
        pipeline, "encode_archive",
        lambda archive: real(archive) + (b"x" if id(archive) in replica_archives else b""),
    )
    assert run.main(tiny + ["--trace", "0"]) == 1
    line, err = _last_json(capsys)
    assert line["failed"] == 2  # one replica per site
    assert "FAILED coldchain-monitor: [replicas] replica -100 (" in err
    assert "differs from primary 0" in err and "at byte " in err


# -- hosted sites report through their workers ---------------------------------------------


def test_worker_spans_counts_and_memory_reach_the_parent(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "chain-migration", _TinyChain())
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    detail = run.run_workload("chain-migration", 5, 0.01, trace=True)
    assert detail["correct"], detail["failure_messages"]
    metrics = {name: entry["value"] for name, entry in detail["metrics"].items()}
    # The audit runs after the last boundary; its worker-side spans
    # still have to arrive.
    assert detail["spans"]["worker:serving.site_serve"]["count"] >= detail["samples"]["queries"]
    assert metrics["serving.site_serve_busy_s"] > 0
    assert metrics["serving.history_answer_busy_s"] > 0
    assert metrics["core.events_emitted"] > 0
    assert metrics["queries.tuples_in"] >= metrics["core.events_emitted"]
    assert metrics["trace.worker_busy_s"] > 0
    # Two workers forked from this process: each counts about as much again.
    assert metrics["peak_rss_mb"] > 1.5 * pipeline.vm_hwm_mb()


@pytest.mark.parametrize("fails", [False, True])
def test_no_process_outlives_the_run(monkeypatch, tmp_path, fails):
    import multiprocessing
    from multiprocessing import resource_tracker

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    tracker = resource_tracker._resource_tracker
    tracker._stop()  # another test's tracker would be left alone
    others = multiprocessing.active_children()
    monkeypatch.setitem(workloads.WORKLOADS, "chain-migration", _TinyChain())
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    if fails:  # after the workers have forked
        monkeypatch.setattr(pipeline, "_run_boundaries", boom)
        with pytest.raises(RuntimeError, match="injected"):
            run.run_workload("chain-migration", 5, 0.01, trace=False)
    else:
        run.run_workload("chain-migration", 5, 0.01, trace=False)
    assert multiprocessing.active_children() == others
    # The workers' shared resource tracker was stopped and waited for.
    assert tracker._pid is None

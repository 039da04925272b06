"""End-to-end benchmark: vendor line -> alert -> queryable answer.

One workload (what the benchmark driver runs)::

    python3 benchmarks/e2e/run.py --workload flaky-edge --seed 7 --seconds 24 --trace 0

pushes seeded inputs through the whole pipeline once — the horizon is
sized so that this takes about ``--seconds`` — checks the outputs,
and prints, after a table of every metric by name with unit and sample
count, one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``
(untraced run), the per-layer metrics with ``--trace 1`` (traced run).

Without ``--workload``, or with ``--output``, the selected workloads
run untraced, then traced, each run in its own child process (so
``peak_rss_mb`` is per workload), and one result JSON is written; the
ratio of the two runs' walls is the reported tracing overhead::

    python3 benchmarks/e2e/run.py --output benchmarks/e2e/results/e2e.json

Any identity or oracle mismatch is named on stderr and makes the command
exit non-zero. See README.md beside this file for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(HERE, ".work")
DEFAULT_OUTPUT = os.path.join(HERE, "results", "e2e.json")

# The load model is one thread per process. Left alone, the BLAS pool
# behind numpy starts a thread per core, and on the 2-core reference box
# those threads fighting the driver (and, on chain-migration, the two
# workers) were the largest source of run-to-run noise: the worst
# coldchain-monitor step ranged over 8 % in five runs of one seed with
# the pool, 0.3 % without.
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_pool, "1")

if HERE not in sys.path:
    sys.path.insert(0, HERE)
SRC = os.path.join(REPO_ROOT, "src")
if os.path.isdir(os.path.join(SRC, "repro")) and SRC not in sys.path:
    sys.path.insert(0, SRC)


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def machine_block(workers: int) -> dict:
    import numpy

    sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
    from _common import calibration_seconds

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_seconds": calibration_seconds(),
        "workers_used": workers,
    }


# -- one workload ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload, sized for ``seconds`` of measured wall."""
    from pipeline import run_once, stage_warnings
    from stats import highest_percentile
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    # Whatever ran before (an earlier run deletes thousands of spool and
    # tier files when it ends) has left the filesystem deferred work that
    # this run's ingest would pay for: four back-to-back runs of
    # history-serving ranged over 12 % in readings/s without this, 3 % with.
    os.sync()
    began = perf_counter()
    try:
        result = run_once(workload, seed, seconds, run_dir, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run_s = perf_counter() - began

    samples, failures = result.samples, result.failures
    counts = {
        "interval_latency_p50_s": samples["boundaries"],
        "interval_latency_max_s": samples["boundaries"],
        "query_qps": samples["queries"],
        "query_latency_p50_ms": samples["query_latencies"],
        "query_latency_p99_ms": samples["query_latencies"],
        "pipeline_readings_per_s": samples["readings"],
    }
    values = {**result.timing, **result.exact, **result.layer, "run_s": run_s}
    metrics = {
        key: {"value": value, "n": counts.get(key, 1)} for key, value in values.items()
    }
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "run_s": run_s,
        "workers_used": workload.workers,
        "correct": failures.correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures_by_class": failures.by_class,
        "failure_messages": failures.messages,
        "metrics": metrics,
        "samples": samples,
        # Highest percentile of the boundary-step wall that still has ten
        # samples beyond it (None below 20 boundaries: quote p50 and max).
        "interval_latency_highest_percentile": highest_percentile(samples["boundaries"]),
        "query_latency_highest_percentile": highest_percentile(
            samples["query_latencies"]
        ),
        "stages_s": result.stages,
        "warnings": stage_warnings(result.stages, name),
        "spans": result.spans,
    }


def result_line(detail: dict, spec: dict) -> str:
    """The contract's last stdout line for one workload run."""
    wanted = spec["per_layer"] if detail["traced"] else spec["end_to_end"]
    metrics = {
        entry["name"]: {
            "value": detail["metrics"][entry["name"]]["value"],
            "unit": entry["unit"],
        }
        for entry in wanted
    }
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def print_table(detail: dict, spec: dict) -> None:
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"== {detail['workload']} seed={detail['seed']} "
        f"{'traced' if detail['traced'] else 'untraced'}: "
        f"{detail['stages_s']['measured_s']:.1f}s measured, {detail['run_s']:.1f}s in all =="
    )
    for name, entry in detail["metrics"].items():
        if name not in units:
            continue
        print(f"{name:<40} {entry['value']:>16.6g} {units[name]:<8} n={entry['n']}")
    print(
        f"failed ops: {detail['failed']} of {detail['attempted']} "
        f"{ {k: tuple(v) for k, v in detail['failures_by_class'].items()} }"
    )
    for warning in detail["warnings"]:
        print(f"WARNING {warning}", file=sys.stderr)
    for message in detail["failure_messages"]:
        print(f"FAILED {detail['workload']}: {message}", file=sys.stderr)


# -- result files ---------------------------------------------------------------


def run_children(
    seed: int, seconds: float, traces: list[int], names: list[str], repeat: int
) -> tuple[dict, bool]:
    """Every selected (workload, trace mode) ``repeat`` times, each run
    in its own child process, folded into one result file."""
    from stats import median

    spec = load_spec()
    groups = {0: "end_to_end", 1: "per_layer"}
    workloads: dict[str, dict] = {}
    ok = True
    workers = 0
    os.makedirs(WORK_ROOT, exist_ok=True)
    for name in names:
        runs: list[dict] = []
        for _ in range(repeat):
            for trace in traces:
                fd, path = tempfile.mkstemp(suffix=".json", dir=WORK_ROOT)
                os.close(fd)
                try:
                    code = subprocess.run(
                        [
                            sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace),
                            "--detail", path,
                        ],
                        timeout=900,
                    ).returncode
                    ok = ok and code == 0
                    # An empty file: the child died before it could report
                    # (its stderr has said why); the workload's metrics
                    # stay missing, which compare.py counts as a regression.
                    if os.path.getsize(path):
                        with open(path) as fh:
                            runs.append(json.load(fh))
                finally:
                    os.unlink(path)
        section: dict = {"end_to_end": {}, "per_layer": {}}
        for trace in traces:
            mine = [run for run in runs if run["traced"] == bool(trace)]
            if not mine:
                continue
            for entry in spec[groups[trace]]:
                samples = [run["metrics"][entry["name"]]["value"] for run in mine]
                section[groups[trace]][entry["name"]] = {
                    "value": median(samples),
                    "unit": entry["unit"],
                    "samples": samples,
                    "n": mine[0]["metrics"][entry["name"]]["n"],
                }
        walls = {
            traced: [r["stages_s"]["measured_s"] for r in runs if r["traced"] == traced]
            for traced in (False, True)
        }
        if walls[False] and walls[True]:
            # Same inputs, same work: the ratio of the two walls is what
            # the wrappers cost.
            ratio = median(walls[True]) / median(walls[False])
            section["per_layer"]["trace.overhead_ratio"] = {
                "value": ratio, "unit": "ratio", "samples": [ratio], "n": len(walls[True]),
            }
            print(f"{name}: trace.overhead_ratio {ratio:.4f} ratio n={len(walls[True])}")
        # One span table per workload (the last traced run's) is enough to
        # read; three of them triple the file.
        section["spans"] = next((r["spans"] for r in reversed(runs) if r["traced"]), {})
        section["runs"] = [
            {k: v for k, v in run.items() if k not in ("metrics", "spans")} for run in runs
        ]
        workers = max([workers] + [run["workers_used"] for run in runs])
        workloads[name] = section
    payload = {
        "schema_version": 2,
        "bench": "e2e",
        "seed": seed,
        "seconds": seconds,
        "repeat": repeat,
        "machine": machine_block(workers),
        "workloads": workloads,
    }
    return payload, ok


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="only this workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics "
        "(default: 0 for a single run, both when a result file is written)",
    )
    parser.add_argument(
        "--output",
        help="run the selected workloads in child processes and write the result "
        f"JSON here (default without --workload: {os.path.relpath(DEFAULT_OUTPUT)})",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per (workload, trace mode) behind each median in the result file",
    )
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload is None or args.output:
        traces = [0, 1] if args.trace is None else [args.trace]
        selected = names if args.workload is None else [args.workload]
        payload, ok = run_children(args.seed, args.seconds, traces, selected, args.repeat)
        output = args.output or DEFAULT_OUTPUT
        write_json(output, payload)
        print(f"wrote {output}")
        return 0 if ok else 1

    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(detail, spec)
    if args.detail:
        write_json(args.detail, detail)
    # The contract's result line goes last.
    print(result_line(detail, spec), flush=True)
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Render per-plane latency/throughput breakdowns from a telemetry dump.

Usage::

    python -m repro.obs.summary flight.jsonl [--plane edge] [--top 20]

Reads the JSONL produced by :func:`repro.obs.write_jsonl` (or a bare
flight-recorder dump) and prints three tables: per-plane span totals
with latency percentiles and span throughput, the hottest
``(plane, name)`` span groups, and the registry metrics from the
closing record if present.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_dump(path: str) -> tuple[list[dict], dict | None, dict | None]:
    spans: list[dict] = []
    meta: dict | None = None
    metrics: dict | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.get("type")
            if kind == "meta":
                meta = entry
            elif kind == "metrics":
                metrics = entry.get("registry")
            else:
                spans.append(entry)
    return spans, meta, metrics


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def _span_table(spans: list[dict], key) -> list[tuple]:
    groups: dict = {}
    for s in spans:
        groups.setdefault(key(s), []).append(s["duration"])
    rows = []
    for group, durations in groups.items():
        durations.sort()
        total = sum(durations)
        rows.append(
            (
                group,
                len(durations),
                total,
                total / len(durations),
                _percentile(durations, 0.50),
                _percentile(durations, 0.95),
            )
        )
    rows.sort(key=lambda r: -r[2])
    return rows


def _print_rows(title: str, header: str, rows: list[str], out) -> None:
    print(f"== {title} ==", file=out)
    print(header, file=out)
    for row in rows:
        print(row, file=out)
    print(file=out)


def summarize(path: str, plane: str | None = None, top: int = 20, out=None) -> int:
    out = out or sys.stdout
    entries, meta, metrics = load_dump(path)
    spans = [e for e in entries if e.get("type") == "span" and "duration" in e]
    states = [e for e in entries if e.get("type") == "state"]
    if plane:
        spans = [s for s in spans if s.get("plane") == plane]
        states = [s for s in states if s.get("plane") == plane]

    header = f"telemetry summary: {path}"
    if meta:
        header += (
            f"  (window {meta.get('entries')}/{meta.get('capacity')} entries, "
            f"{meta.get('total_recorded')} recorded"
        )
        if meta.get("reason"):
            header += f", reason={meta['reason']}"
        header += ")"
    print(header, file=out)
    print(file=out)

    fmt = "{:<14} {:>7} {:>10} {:>9} {:>9} {:>9} {:>10}"
    rows = []
    for group, n, total, mean, p50, p95 in _span_table(spans, lambda s: s.get("plane", "?")):
        rate = n / total if total > 0 else 0.0
        rows.append(
            fmt.format(
                group, n, f"{total:.4f}", f"{mean * 1e3:.3f}",
                f"{p50 * 1e3:.3f}", f"{p95 * 1e3:.3f}", f"{rate:.1f}",
            )
        )
    _print_rows(
        "per-plane spans",
        fmt.format("plane", "spans", "total_s", "mean_ms", "p50_ms", "p95_ms", "spans/s"),
        rows or ["(no spans)"],
        out,
    )

    fmt2 = "{:<40} {:>7} {:>10} {:>9} {:>9} {:>9}"
    rows = []
    table = _span_table(spans, lambda s: (s.get("plane", "?"), s.get("name", "?")))
    for (group_plane, name), n, total, mean, p50, p95 in table[:top]:
        rows.append(
            fmt2.format(
                f"{group_plane}/{name}", n, f"{total:.4f}", f"{mean * 1e3:.3f}",
                f"{p50 * 1e3:.3f}", f"{p95 * 1e3:.3f}",
            )
        )
    _print_rows(
        f"hottest span groups (top {top})",
        fmt2.format("plane/name", "spans", "total_s", "mean_ms", "p50_ms", "p95_ms"),
        rows or ["(no spans)"],
        out,
    )

    # Spans that ship state say how many bytes went in and came out, so
    # the bundle compression ratio (§4.2) reads off per directed link.
    links: dict = {}
    for s in spans:
        if "raw_bytes" in s and "wire_bytes" in s:
            key = (f"{s.get('plane', '?')}/{s.get('name', '?')}", s.get("src"), s.get("dst"))
            n, n_states, raw, wire = links.get(key, (0, 0, 0, 0))
            links[key] = (
                n + 1, n_states + s.get("states", 0),
                raw + s["raw_bytes"], wire + s["wire_bytes"],
            )
    if links:
        fmt3 = "{:<32} {:>9} {:>6} {:>7} {:>10} {:>10} {:>6}"
        rows = [
            fmt3.format(
                name, f"{src}->{dst}", n, n_states, raw, wire,
                f"{wire / raw:.3f}" if raw else "-",
            )
            for (name, src, dst), (n, n_states, raw, wire) in sorted(
                links.items(), key=lambda kv: -kv[1][3]
            )[:top]
        ]
        _print_rows(
            "state bundles per link",
            fmt3.format("plane/name", "link", "spans", "states", "raw_B", "wire_B", "ratio"),
            rows,
            out,
        )

    if states:
        counts: dict = {}
        for s in states:
            key = (s.get("plane", "?"), s.get("name", "?"))
            counts[key] = counts.get(key, 0) + 1
        rows = [
            "{:<40} {:>7}".format(f"{p}/{n}", c)
            for (p, n), c in sorted(counts.items(), key=lambda kv: -kv[1])[:top]
        ]
        _print_rows(
            "state transitions",
            "{:<40} {:>7}".format("plane/name", "count"),
            rows,
            out,
        )

    if metrics:
        rows = []
        for name, labels, value in metrics.get("counters", []):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            rows.append("{:<50} {:>14}".format(f"{name}{{{label_str}}}", f"{value:g}"))
        for name, labels, value in metrics.get("gauges", []):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            rows.append(
                "{:<50} {:>14}".format(f"{name}{{{label_str}}} (gauge)", f"{value:g}")
            )
        for name, labels, bounds, bucket_counts, total, count in metrics.get(
            "histograms", []
        ):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            mean = total / count if count else 0.0
            rows.append(
                "{:<50} {:>14}".format(
                    f"{name}{{{label_str}}} (hist)", f"n={count} mean={mean:.2g}"
                )
            )
        if rows:
            _print_rows("metrics", "{:<50} {:>14}".format("series", "value"), rows, out)

    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("dump", help="telemetry JSONL dump")
    parser.add_argument("--plane", help="restrict to one plane")
    parser.add_argument("--top", type=int, default=20, help="rows per table")
    args = parser.parse_args(argv)
    return summarize(args.dump, plane=args.plane, top=args.top)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Validate qra_run telemetry exports for CI.

Checks a Chrome trace-event JSON file (``--trace``), and optionally a
JSON-lines event stream (``--jsonl``) and a metrics snapshot
(``--metrics``), against the schema qra_run emits:

* the trace parses as JSON and holds a ``traceEvents`` array;
* every event has name/cat/ph/pid/tid/ts with the right types and
  a complete ('X') or async ('b'/'e') phase;
* async begin ('b') and end ('e') events pair up by id;
* per-thread timestamps are monotonic (non-decreasing);
* each ``--require SUBSTR`` matches at least one event name
  (``pass:`` style prefixes match by substring);
* the JSON-lines file parses line-by-line with the same event count;
* the metrics snapshot has counters/histograms maps, every
  histogram is internally consistent (buckets = bounds + 1, count =
  sum of buckets), and every ``--require-counter NAME[>=N]`` holds.

Exit status: 0 = all checks pass, 1 = a check failed, 2 = bad usage.
"""

import argparse
import json
import sys
from collections import defaultdict

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def ok(msg):
    print(f"  ok: {msg}")


def check_trace(path, require):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not parseable JSON: {e}")
        return None
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents array")
        return None
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents is empty")
        return None
    ok(f"{path}: {len(events)} events parsed")

    last_ts = {}
    async_open = defaultdict(int)
    names = set()
    for i, ev in enumerate(events):
        for key, types in (
            ("name", str),
            ("cat", str),
            ("ph", str),
            ("pid", int),
            ("tid", int),
            ("ts", (int, float)),
        ):
            if not isinstance(ev.get(key), types):
                fail(f"{path}: event {i} bad/missing '{key}': {ev}")
                return None
        ph = ev["ph"]
        if ph not in ("X", "b", "e"):
            fail(f"{path}: event {i} unexpected phase '{ph}'")
            return None
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            fail(f"{path}: complete event {i} missing 'dur'")
            return None
        if ph in ("b", "e"):
            if not isinstance(ev.get("id"), int):
                fail(f"{path}: async event {i} missing 'id'")
                return None
            async_open[ev["id"]] += 1 if ph == "b" else -1
            if async_open[ev["id"]] < 0:
                fail(f"{path}: async id {ev['id']} ends before begin")
                return None
        tid = ev["tid"]
        if tid in last_ts and ev["ts"] < last_ts[tid]:
            fail(
                f"{path}: event {i} breaks per-thread timestamp "
                f"monotonicity (tid {tid}: {ev['ts']} < {last_ts[tid]})"
            )
            return None
        last_ts[tid] = ev["ts"]
        names.add(ev["name"])

    unclosed = {k: v for k, v in async_open.items() if v != 0}
    if unclosed:
        fail(f"{path}: unmatched async begin/end pairs: {unclosed}")
        return None
    ok(f"{path}: phases valid, async pairs matched, "
       f"per-thread timestamps monotonic over {len(last_ts)} threads")

    for substr in require:
        if not any(substr in name for name in names):
            fail(
                f"{path}: no event name contains '{substr}' "
                f"(have: {sorted(names)})"
            )
        else:
            ok(f"{path}: span '{substr}' present")
    return len(events)


def check_jsonl(path, expected_count):
    try:
        with open(path) as f:
            lines = [line for line in f if line.strip()]
    except OSError as e:
        fail(f"{path}: {e}")
        return
    count = 0
    for i, line in enumerate(lines):
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}: line {i + 1} not JSON: {e}")
            return
        for key in ("type", "name", "cat", "tid", "ts_ns"):
            if key not in ev:
                fail(f"{path}: line {i + 1} missing '{key}'")
                return
        count += 1
    if expected_count is not None and count != expected_count:
        fail(
            f"{path}: {count} events but the Chrome trace has "
            f"{expected_count}"
        )
        return
    ok(f"{path}: {count} JSON-lines events parsed")


def check_metrics(path, require_counters):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not parseable JSON: {e}")
        return
    for section in ("counters", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing '{section}' object")
            return
    for name, hist in doc["histograms"].items():
        bounds = hist.get("bounds")
        buckets = hist.get("buckets")
        if not isinstance(bounds, list) or not isinstance(buckets, list):
            fail(f"{path}: histogram {name} missing bounds/buckets")
            return
        if len(buckets) != len(bounds) + 1:
            fail(
                f"{path}: histogram {name} has {len(buckets)} buckets "
                f"for {len(bounds)} bounds (want bounds+1)"
            )
            return
        if sum(buckets) != hist.get("count"):
            fail(
                f"{path}: histogram {name} count {hist.get('count')} "
                f"!= bucket sum {sum(buckets)}"
            )
            return
        if bounds != sorted(bounds):
            fail(f"{path}: histogram {name} bounds not ascending")
            return
    ok(
        f"{path}: {len(doc['counters'])} counters, "
        f"{len(doc['histograms'])} histograms, all consistent"
    )
    for req in require_counters:
        if ">=" in req:
            name, _, minimum = req.partition(">=")
            minimum = int(minimum)
        else:
            name, minimum = req, 1
        value = doc["counters"].get(name)
        if value is None:
            fail(f"{path}: counter '{name}' absent")
        elif value < minimum:
            fail(f"{path}: counter '{name}' = {value} < {minimum}")
        else:
            ok(f"{path}: counter {name} = {value} (>= {minimum})")


def main():
    parser = argparse.ArgumentParser(
        description="validate qra_run telemetry exports"
    )
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--jsonl", help="JSON-lines event stream")
    parser.add_argument("--metrics", help="metrics snapshot JSON")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="SUBSTR",
        help="require an event name containing SUBSTR (repeatable)",
    )
    parser.add_argument(
        "--require-counter",
        action="append",
        default=[],
        metavar="NAME[>=N]",
        help="require a counter at or above N (default 1, repeatable)",
    )
    args = parser.parse_args()

    count = check_trace(args.trace, args.require)
    if args.jsonl:
        check_jsonl(args.jsonl, count)
    if args.metrics:
        check_metrics(args.metrics, args.require_counter)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed")
        return 1
    print("\nall telemetry checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

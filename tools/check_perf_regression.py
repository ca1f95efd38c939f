#!/usr/bin/env python3
"""Warn-only perf-regression check for the bench JSON records.

Usage: check_perf_regression.py BASELINE.json CURRENT.json...

Both inputs are JSON-lines files as emitted by `perf_simulator --json`
and `perf_engine --json` (the committed baseline may concatenate
several). Each record describes itself:

  {"bench":..,"section":..,<identity>..,
   "metrics":{NAME:{"value":V,"better":"higher"|"lower","min"|"max":X}}}

Every top-level key except "metrics" identifies the record; records
that exist on one side only (e.g. extra-lane rows on wider hosts, or
rows measured at a SIMD tier the other host lacks) are skipped. A
metric that got worse than its baseline by more than THRESHOLD in its
declared direction, or a current value past its declared min/max
bound, prints a GitHub Actions warning annotation plus a summary
table.

The exit code is always 0: shared CI runners are noisy neighbours, so
this step documents drift instead of gating merges.
"""

import json
import sys

THRESHOLD = 0.25


def load_records(paths):
    records = {}
    for path in paths:
        try:
            handle = open(path, encoding="utf-8")
        except OSError as error:
            # Warn-only: a missing artifact (failed bench step) must
            # not turn this step red on top of the real failure.
            print(f"perf-regression: skipping {path}: {error}")
            continue
        with handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                identity = {
                    k: v for k, v in record.items() if k != "metrics"
                }
                label = "/".join(
                    str(v) for k, v in identity.items() if k != "bench"
                )
                key = tuple(sorted(identity.items()))
                records[key] = (label, record.get("metrics", {}))
    return records


def number(value):
    return value if isinstance(value, (int, float)) else None


def worsening(better, base, cur):
    """Fractional change of @p cur vs @p base in the bad direction."""
    if better == "higher":
        return 1.0 - cur / base
    if better == "lower":
        return cur / base - 1.0
    return None


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 0  # warn-only even on usage errors in CI

    baseline = load_records([argv[1]])
    current = load_records(argv[2:])

    findings = []
    compared = 0
    for key, (label, metrics) in current.items():
        _, base_metrics = baseline.get(key, (None, {}))
        for name, metric in metrics.items():
            cur = number(metric.get("value"))
            if cur is None:
                continue
            # Bounds read the *current* record alone, so a section
            # absent from the committed baseline is still checked.
            for bound, sign in (("max", 1), ("min", -1)):
                limit = number(metric.get(bound))
                if limit is None:
                    continue
                compared += 1
                if sign * (cur - limit) > 0:
                    findings.append((label, name, f"{bound} {limit:g}",
                                   cur, "past bound"))
            base = number(base_metrics.get(name, {}).get("value"))
            if base is None or base <= 0:
                continue
            change = worsening(metric.get("better"), base, cur)
            if change is None:
                continue
            compared += 1
            if change > THRESHOLD:
                findings.append((label, name, f"{base:.4g}", cur,
                               f"{change:.0%} worse"))

    if not findings:
        print(f"perf-regression: {compared} metrics compared, none "
              f"dropped more than {THRESHOLD:.0%} vs baseline or past "
              f"a bound")
        return 0

    print(f"perf-regression: {len(findings)} of {compared} metrics "
          f"dropped more than {THRESHOLD:.0%} vs baseline or past a "
          f"bound")
    print(f"{'record':<56} {'metric':<22} {'baseline':>12} "
          f"{'current':>12}  change")
    for label, name, reference, cur, change in findings:
        print(f"{label:<56} {name:<22} {reference:>12} {cur:>12.4g}  "
              f"{change}")
    summary = "; ".join(
        f"{label} {name} {change}"
        for label, name, _, _, change in findings[:5]
    )
    print(f"::warning title=perf regression vs committed baseline::"
          f"{summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

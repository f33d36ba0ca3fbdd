#!/usr/bin/env python3
"""perf_gate: stage-timing regression gate for the relay hot path.

`table3_throughput --lanes=N --stage-json=FILE` dumps the telemetry registry
(including the per-stage mopeye_relay_stage_*_ms histograms) after the
48-client scaling run. This gate compares each stage's p95 against the
checked-in reference and fails when any stage regressed by more than
--max-ratio (default 2x).

The stage costs are *simulated* (virtual time drawn from seeded cost models),
so they are deterministic for a given seed and identical across build types
and host machines: a drift here means the relay's code path changed — extra
queue hops, lost batching, a stage running on the wrong actor — not that CI
got a slow runner. That is what makes a tight ratio safe to enforce.

Usage:
    python3 tools/perf_gate.py STAGE_JSON [--ref bench/baselines/stage_p95.json]
                               [--max-ratio 2.0] [--update]

Exit status: 0 when every stage is within bounds, 1 otherwise.
--update rewrites the reference from STAGE_JSON instead of gating.
"""

import argparse
import json
import os
import sys

STAGE_PREFIX = "mopeye_relay_stage_"
STAGE_SUFFIX = "_ms"


def load_stages(path):
    """p95 and count per relay-stage histogram in a registry JSON dump."""
    try:
        with open(path, encoding="utf-8") as f:
            registry = json.load(f)
    except FileNotFoundError:
        raise SystemExit(f"perf_gate: run JSON not found: {path} — did "
                         "table3_throughput --stage-json run?")
    except json.JSONDecodeError as e:
        raise SystemExit(f"perf_gate: {path} is not valid JSON ({e})")
    if not isinstance(registry, dict):
        raise SystemExit(f"perf_gate: {path}: expected a registry object at "
                         f"top level, got {type(registry).__name__}")
    stages = {}
    for name, entry in registry.items():
        if not (name.startswith(STAGE_PREFIX) and name.endswith(STAGE_SUFFIX)):
            continue
        if entry.get("type") != "histogram":
            continue
        count = int(entry.get("count", 0))
        if count == 0 or "p95" not in entry:
            continue
        stages[name] = {"p95": float(entry["p95"]), "count": count}
    return stages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage_json",
                        help="registry dump from table3_throughput --stage-json")
    parser.add_argument(
        "--ref",
        default=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "bench", "baselines", "stage_p95.json"),
        help="checked-in reference (default: bench/baselines/stage_p95.json)")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current p95 > ref p95 * RATIO (default 2.0)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the reference from STAGE_JSON and exit")
    args = parser.parse_args(argv)

    current = load_stages(args.stage_json)
    if not current:
        print(f"perf_gate: no {STAGE_PREFIX}*{STAGE_SUFFIX} histograms with "
              f"samples in {args.stage_json}", file=sys.stderr)
        return 1

    if args.update:
        with open(args.ref, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"perf_gate: reference updated with {len(current)} stages "
              f"-> {args.ref}")
        return 0

    try:
        with open(args.ref, encoding="utf-8") as f:
            ref = json.load(f)
    except FileNotFoundError:
        print(f"perf_gate: no reference at {args.ref} — run with --update to "
              "create it", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"perf_gate: reference {args.ref} is not valid JSON ({e}) — "
              "fix or regenerate it with --update", file=sys.stderr)
        return 1
    if not isinstance(ref, dict):
        print(f"perf_gate: reference {args.ref}: expected a stage map at top "
              f"level, got {type(ref).__name__}", file=sys.stderr)
        return 1

    failures = []
    rows = []
    for name in sorted(set(ref) | set(current)):
        short = name[len(STAGE_PREFIX):-len(STAGE_SUFFIX)]
        ref_entry = ref.get(name)
        if ref_entry is not None and (
                not isinstance(ref_entry, dict)
                or not isinstance(ref_entry.get("p95"), (int, float))):
            failures.append(f"{short}: reference entry has no numeric p95 — "
                            f"the reference {args.ref} is malformed; "
                            "regenerate it with --update")
            rows.append((short, None, None, None, "BAD REF"))
            continue
        if name not in current:
            failures.append(f"{short}: stage present in reference but absent "
                            "from this run (instrumentation lost?)")
            rows.append((short, float(ref_entry["p95"]), None, None, "MISSING"))
            continue
        if ref_entry is None:
            # New instrumentation is not a regression; it just needs a ref.
            rows.append((short, None, current[name]["p95"], None,
                         "new (run --update)"))
            continue
        ref_p95 = float(ref_entry["p95"])
        cur_p95 = current[name]["p95"]
        ratio = cur_p95 / ref_p95 if ref_p95 > 0 else float("inf")
        verdict = "ok"
        if ratio > args.max_ratio:
            verdict = "REGRESSED"
            failures.append(f"{short}: p95 {cur_p95:.4f}ms vs reference "
                            f"{ref_p95:.4f}ms ({ratio:.2f}x > "
                            f"{args.max_ratio:.2f}x)")
        elif ratio < 1.0 / args.max_ratio:
            # A big improvement means the reference is stale, not broken.
            verdict = "improved (run --update)"
        rows.append((short, ref_p95, cur_p95, ratio, verdict))

    width = max(len(r[0]) for r in rows)
    print(f"{'stage':<{width}}  {'ref p95':>10}  {'cur p95':>10}  "
          f"{'ratio':>6}  verdict")
    for short, ref_p95, cur_p95, ratio, verdict in rows:
        ref_s = f"{ref_p95:.4f}ms" if ref_p95 is not None else "-"
        cur_s = f"{cur_p95:.4f}ms" if cur_p95 is not None else "-"
        ratio_s = f"{ratio:.2f}x" if ratio is not None else "-"
        print(f"{short:<{width}}  {ref_s:>10}  {cur_s:>10}  {ratio_s:>6}  {verdict}")

    if failures:
        print(f"perf_gate: {len(failures)} stage(s) out of bounds:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"perf_gate: {len(rows)} stages within {args.max_ratio:.1f}x of "
          "reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())

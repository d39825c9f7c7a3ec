#!/usr/bin/env python3
"""Summarize a hivesim Chrome trace: top spans by total simulated time.

Usage:
    python3 scripts/trace_summary.py tour.trace.json [--top N]
                                     [--lane LANE]

Reads the Chrome `trace_event` JSON written by `--trace-out=` (CLI,
benches), aggregates the "X" (complete) spans by
(lane, name), and prints the top N rows by total duration. Instant
events are tallied separately. Pure stdlib; output order is
deterministic (duration desc, then lane/name asc) so it can be diffed
across runs.
"""

import argparse
import json
import sys


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    lanes = {}  # tid -> lane name, from thread_name metadata.
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            lanes[ev.get("tid")] = ev.get("args", {}).get("name", "?")
    return events, lanes


def summarize(events, lanes, lane_filter=None):
    spans = {}  # (lane, name) -> [count, total_us, max_us]
    instants = {}  # (lane, name) -> count
    for ev in events:
        lane = lanes.get(ev.get("tid"), str(ev.get("tid")))
        if lane_filter and lane != lane_filter:
            continue
        key = (lane, ev.get("name", "?"))
        if ev.get("ph") == "X":
            entry = spans.setdefault(key, [0, 0.0, 0.0])
            dur = float(ev.get("dur", 0.0))
            entry[0] += 1
            entry[1] += dur
            entry[2] = max(entry[2], dur)
        elif ev.get("ph") == "i":
            instants[key] = instants.get(key, 0) + 1
    return spans, instants


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace JSON file")
    parser.add_argument("--top", type=int, default=15,
                        help="rows to print (default 15)")
    parser.add_argument("--lane", default=None,
                        help="only spans on this lane (e.g. trainer)")
    args = parser.parse_args()

    try:
        events, lanes = load_events(args.trace)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {args.trace}: {err}", file=sys.stderr)
        return 1

    spans, instants = summarize(events, lanes, args.lane)
    if not spans and not instants:
        print("no span or instant events found", file=sys.stderr)
        return 1

    ranked = sorted(spans.items(), key=lambda kv: (-kv[1][1], kv[0]))
    print(f"{'lane':<14} {'span':<28} {'count':>6} "
          f"{'total_s':>10} {'mean_s':>9} {'max_s':>9}")
    for (lane, name), (count, total_us, max_us) in ranked[:args.top]:
        print(f"{lane:<14} {name:<28} {count:>6} "
              f"{total_us / 1e6:>10.1f} {total_us / 1e6 / count:>9.2f} "
              f"{max_us / 1e6:>9.2f}")
    if len(ranked) > args.top:
        print(f"... {len(ranked) - args.top} more span series")

    if instants:
        print()
        print(f"{'lane':<14} {'instant':<28} {'count':>6}")
        for (lane, name), count in sorted(
                instants.items(), key=lambda kv: (-kv[1], kv[0]))[:args.top]:
            print(f"{lane:<14} {name:<28} {count:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

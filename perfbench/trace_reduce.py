#!/usr/bin/env python3
"""Reduce a Chrome trace_event capture to "where did the time go".

The program records complete ('X') spans per thread: experiment ->
sweep -> phase -> burst in a run. The benchmark adds its own: an api
span around each experiment (result assembly and report rendering), and
client and scheduler spans in the serve workload. This script turns one capture
into self time per span category (a span's duration minus the part its
direct children cover), per-thread busy time, the longest span of a
category and span-duration percentiles.

Self times are summed over threads and divided by the number of lanes
(threads that could do the work), so that the categories plus
`unattributed` add up to the wall of the window exactly.

    python3 perfbench/trace_reduce.py capture.json [--lanes N]
                                      [--window START_US,END_US]
"""

import argparse
import json
import sys
from collections import defaultdict


def load_spans(path):
    """Complete spans as (tid, category, name, start_us, end_us)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [(e["tid"], e["cat"], e["name"], e["ts"], e["ts"] + e["dur"])
            for e in events if e.get("ph") == "X"]


def clip(spans, window):
    """Spans cut to the [start, end] window; empty ones dropped."""
    if window is None:
        return list(spans)
    lo, hi = window
    out = []
    for tid, cat, name, s, e in spans:
        s, e = max(s, lo), min(e, hi)
        if e > s:
            out.append((tid, cat, name, s, e))
    return out


def self_times(spans):
    """(self seconds per category, busy seconds per tid).

    Spans of one thread nest (they are RAII scopes), so a stack walk in
    start order finds each span's direct parent.
    """
    by_tid = defaultdict(list)
    for span in spans:
        by_tid[span[0]].append(span)
    self_us = defaultdict(float)
    busy_us = {}
    for tid, items in by_tid.items():
        items.sort(key=lambda x: (x[3], -x[4]))
        child_us = [0.0] * len(items)
        stack = []
        busy = 0.0
        for i, (_, _, _, s, e) in enumerate(items):
            while stack and items[stack[-1]][4] <= s:
                stack.pop()
            if stack:
                parent = stack[-1]
                child_us[parent] += min(e, items[parent][4]) - s
            else:
                busy += e - s
            stack.append(i)
        for i, (_, cat, _, s, e) in enumerate(items):
            self_us[cat] += max(0.0, (e - s) - child_us[i])
        busy_us[tid] = busy
    return ({c: v * 1e-6 for c, v in self_us.items()},
            {t: v * 1e-6 for t, v in busy_us.items()})


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list, q in [0, 1]."""
    s = sorted(values)
    x = q * (len(s) - 1)
    i = int(x)
    if i + 1 >= len(s):
        return s[-1]
    return s[i] + (s[i + 1] - s[i]) * (x - i)


def tail_quantile(n):
    """The highest percentile with at least ten samples beyond it."""
    for p in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5):
        if n * (1 - p) >= 10:
            return p
    return 1.0  # under twenty samples: the maximum


def reduce(spans, window, lanes):
    """Self time per category, scaled to lanes, plus the leftover."""
    spans = clip(spans, window)
    wall = (window[1] - window[0]) * 1e-6 if window else (
        (max(s[4] for s in spans) - min(s[3] for s in spans)) * 1e-6
        if spans else 0.0)
    per_cat, busy = self_times(spans)
    layers = {c: v / lanes for c, v in per_cat.items()}
    return {
        "wall_s": wall,
        "lanes": lanes,
        "self_s": layers,
        "unattributed_s": wall - sum(layers.values()),
        "busy_share": (sum(busy.values()) / (lanes * wall)) if wall else 0,
    }


def durations(spans, category):
    """Durations (s) of one category's spans."""
    return [(e - s) * 1e-6 for _, c, _, s, e in spans if c == category]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("capture")
    ap.add_argument("--lanes", type=int, default=1)
    ap.add_argument("--window", help="START_US,END_US")
    args = ap.parse_args()
    window = (tuple(float(x) for x in args.window.split(","))
              if args.window else None)
    spans = load_spans(args.capture)
    r = reduce(spans, window, args.lanes)
    print(f"wall {r['wall_s']:.3f} s over {r['lanes']} lane(s), "
          f"busy share {r['busy_share']:.3f}")
    for cat, v in sorted(r["self_s"].items(), key=lambda kv: -kv[1]):
        share = v / r["wall_s"] if r["wall_s"] else 0
        print(f"  {cat:12s} {v:9.3f} s  {100 * share:5.1f}%")
    share = r["unattributed_s"] / r["wall_s"] if r["wall_s"] else 0
    print(f"  {'unattributed':12s} {r['unattributed_s']:9.3f} s  "
          f"{100 * share:5.1f}%")
    top = sorted(((e - s) * 1e-6, n) for _, c, n, s, e in clip(
        spans, window) if c == "experiment")[-5:]
    for d, n in reversed(top):
        print(f"  experiment {n}: {d:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Helpers of the repository benchmark: trace self time per layer.

The benchmark binary dumps its traced run as Chrome trace-event JSON
(telemetry::dumpTrace). A span's self time is its duration minus the
part of it that its child spans on the same thread cover; a layer's
self time is the sum over the spans that belong to it. Only spans that
lie inside a timed phase (between the "phase_begin" and "phase_end"
instants the workloads emit) count, so set-up and the layer ladder do
not dilute the figures.
"""

import bisect

# Which layer each span belongs to. Spans from the benchmark's own
# files: kv_op, halloc, hfree, maintain, daemon_window, and submit (in
# the layer ladder, outside the timed phase). The rest come from the
# library.
LAYER_OF = {
    "kv_op": "kv",
    "halloc": "core",
    "hfree": "core",
    "grace_wait": "core",
    # The barrier span wraps the stop-the-world mechanism's moves, which
    # are nearly all of its time.
    "barrier": "anchorage",
    "maintain": "anchorage",
    "controller_tick": "anchorage",
    "policy_decision": "anchorage",
    "campaign": "anchorage",
    "mesh": "anchorage",
    "limbo_stall": "anchorage",
    "split": "anchorage",
}

LAYERS = ("core", "anchorage", "kv")

# Spans recorded for one call in this many (bench.h kSpanSample); their
# self time is scaled back up.
SAMPLED = {"kv_op": 256, "halloc": 256, "hfree": 256}


def complete_spans(events):
    """(name, begin_us, end_us, tid) of every complete ("X") event."""
    return [(e["name"], e["ts"], e["ts"] + e["dur"], e["tid"])
            for e in events if e.get("ph") == "X"]


def phase_windows(events):
    """(begin_us, end_us) pairs from the phase_begin/phase_end instants."""
    marks = sorted((e["ts"], e["name"]) for e in events
                   if e.get("ph") == "i"
                   and e["name"] in ("phase_begin", "phase_end"))
    windows, begin = [], None
    for ts, name in marks:
        if name == "phase_begin":
            begin = ts
        elif begin is not None:
            windows.append((begin, ts))
            begin = None
    return windows


def self_times(spans):
    """Self time of each span, in span order.

    Spans nest per thread; a child's cover is clipped to its parent so
    rounding in the dump cannot make a self time negative.
    """
    out = [0.0] * len(spans)
    by_tid = {}
    for i, (_, begin, end, tid) in enumerate(spans):
        by_tid.setdefault(tid, []).append(i)
    for indices in by_tid.values():
        indices.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        stack = []  # indices of open spans, innermost last
        for i in indices:
            _, begin, end, _ = spans[i]
            out[i] = end - begin
            while stack and spans[stack[-1]][2] <= begin:
                stack.pop()
            if stack:
                parent = stack[-1]
                out[parent] -= min(end, spans[parent][2]) - begin
            stack.append(i)
    return [max(0.0, t) for t in out]


def inside(windows, begin, end):
    """True if [begin, end] lies within one of the sorted windows."""
    k = bisect.bisect_right([w[0] for w in windows], begin) - 1
    return k >= 0 and end <= windows[k][1]


def overlap_fraction(windows, intervals):
    """Share of windows that overlap at least one interval."""
    if not windows:
        return 0.0
    intervals = sorted(intervals)
    starts = [b for b, _ in intervals]
    # Latest end among intervals starting at or before each index.
    reach, best = [], float("-inf")
    for _, end in intervals:
        best = max(best, end)
        reach.append(best)
    hit = 0
    for begin, end in windows:
        k = bisect.bisect_right(starts, end) - 1
        if k >= 0 and reach[k] > begin:
            hit += 1
    return hit / len(windows)


def trace_metrics(trace):
    """Per-layer metrics of one dumped trace (a parsed JSON object)."""
    events = trace.get("traceEvents", [])
    spans = complete_spans(events)
    windows = phase_windows(events)
    if not windows and spans:
        windows = [(min(s[1] for s in spans), max(s[2] for s in spans))]
    phase_us = sum(end - begin for begin, end in windows)
    kept = [s for s in spans if inside(windows, s[1], s[2])]
    selfs = self_times(kept)
    layer_us = dict.fromkeys(LAYERS, 0.0)
    for (name, _, _, _), t in zip(kept, selfs):
        layer = LAYER_OF.get(name)
        if layer:
            layer_us[layer] += t * SAMPLED.get(name, 1)
    dropped = 0
    for e in events:
        if e.get("ph") == "i" and e["name"].startswith("dropped_events:"):
            dropped += int(e["name"].split(":")[1])
    daemon_windows = [(s[1], s[2]) for s in kept if s[0] == "daemon_window"]
    campaigns = [(s[1], s[2]) for s in spans if s[0] == "campaign"]
    metrics = {
        "trace.%s_self" % layer: (layer_us[layer] / phase_us if phase_us
                                  else 0.0, "s/s")
        for layer in LAYERS
    }
    metrics["trace.spans"] = (len(kept), "count")
    metrics["trace.dropped"] = (dropped, "count")
    metrics["trace.daemon_active_frac"] = (
        overlap_fraction(daemon_windows, campaigns), "fraction")
    return metrics

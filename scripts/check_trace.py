#!/usr/bin/env python3
"""Validates a Chrome trace_event JSON file written by the profiler.

Usage: scripts/check_trace.py [--require-remote] [--require-reduce-fusion] \
    [--require-allocator] [--require-dag-fusion] [--require-batching] \
    [--require-loop] [--require-memory-plan] <trace.json>

Checks that the file is loadable the way chrome://tracing / Perfetto loads
it, that every event carries the required keys, and that complete ("X")
spans were recorded from at least two threads — dispatch on the host thread
plus drain/kernel work on the queue's pool thread.

With --require-remote the trace must additionally contain the remote
dispatch spans: a "remote_enqueue" on the client issuing the op over the
pending-handle protocol and a "remote_resolve" where the worker completion
resolves the client's pending handles.

With --require-reduce-fusion the trace must contain at least one
"fused_reduce_run" instant — emitted by the fused kernel each time a
reduction epilogue executes as a blocked map-reduce pass.

With --require-allocator the trace must contain the memory subsystem's
instants: an "allocator_slab" (the arena acquiring a fresh slab from the
system) and a "buffer_donation" (a fused run writing its output in place
into a uniquely-owned input buffer).

With --require-dag-fusion the trace must contain a "dag_fused_run" instant
(a fused window that was a true DAG segment — multi-output or an in-run
value consumed more than once) and a "program_cache_hit" instant (a fused
window that resolved its compiled program from the program cache instead of
recompiling).

With --require-batching the trace must contain the serving subsystem's
evidence that cross-request coalescing actually happened: a "batched_run"
instant (one execution serving a window of >= 2 sessions' calls) and a
"session_open" instant.

With --require-loop the trace must contain a "staged_loop" instant — the
While kernel completing a loop (its arg carries the iteration count), the
evidence that a staged while_loop actually iterated instead of unrolling.
"""
import json
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    require_remote = "--require-remote" in args
    require_reduce_fusion = "--require-reduce-fusion" in args
    require_allocator = "--require-allocator" in args
    require_dag_fusion = "--require-dag-fusion" in args
    require_batching = "--require-batching" in args
    require_loop = "--require-loop" in args
    args = [a for a in args
            if a not in ("--require-remote", "--require-reduce-fusion",
                         "--require-allocator", "--require-dag-fusion",
                         "--require-batching", "--require-loop")]
    if len(args) != 1:
        fail(f"usage: {sys.argv[0]} [--require-remote] "
             "[--require-reduce-fusion] [--require-allocator] "
             "[--require-dag-fusion] [--require-batching] "
             "[--require-loop] <trace.json>")
    path = args[0]
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    span_tids = set()
    categories = set()
    instant_names = set()
    for i, ev in enumerate(events):
        for key in ("ph", "pid", "tid"):
            if key not in ev:
                fail(f"event {i} missing '{key}': {ev}")
        ph = ev["ph"]
        if ph in ("X", "i") and "ts" not in ev:
            fail(f"event {i} missing 'ts': {ev}")
        if ph == "X":
            if "dur" not in ev or "name" not in ev:
                fail(f"X event {i} missing dur/name: {ev}")
            span_tids.add(ev["tid"])
            categories.add(ev.get("cat", ""))
        elif ph == "i":
            instant_names.add(ev.get("name", ""))

    if len(span_tids) < 2:
        fail(f"X spans on {len(span_tids)} thread(s); expected >= 2 "
             "(host dispatch + queue pool)")
    wanted = ["dispatch", "kernel", "queue_drain"]
    if require_remote:
        wanted += ["remote_enqueue", "remote_resolve"]
    for want in wanted:
        if want not in categories:
            fail(f"no '{want}' spans (categories seen: {sorted(categories)})")
    if require_reduce_fusion and "fused_reduce_run" not in instant_names:
        fail("no 'fused_reduce_run' instant — no fused map-reduce pass ran "
             f"(instants seen: {sorted(instant_names)})")
    if require_allocator:
        for want in ("allocator_slab", "buffer_donation"):
            if want not in instant_names:
                fail(f"no '{want}' instant — the memory subsystem left no "
                     f"trace (instants seen: {sorted(instant_names)})")
    if require_dag_fusion:
        if "dag_fused_run" not in instant_names:
            fail("no 'dag_fused_run' instant — no DAG segment executed "
                 f"fused (instants seen: {sorted(instant_names)})")
        if "program_cache_hit" not in instant_names:
            fail("no 'program_cache_hit' instant — every fused window "
                 "recompiled its program "
                 f"(instants seen: {sorted(instant_names)})")

    if require_batching:
        if "batched_run" not in instant_names:
            fail("no 'batched_run' instant — no window coalesced calls from "
                 f"concurrent sessions (instants seen: {sorted(instant_names)})")
        if "session_open" not in instant_names:
            fail("no 'session_open' instant — the serving front end left no "
                 f"trace (instants seen: {sorted(instant_names)})")

    if require_loop and "staged_loop" not in instant_names:
        fail("no 'staged_loop' instant — no While kernel completed a loop "
             f"(instants seen: {sorted(instant_names)})")

    print(f"check_trace: OK: {len(events)} events, "
          f"{len(span_tids)} span threads, categories {sorted(categories)}")


if __name__ == "__main__":
    main()

"""Benchmark child: one workload's ops, single-threaded, in a closed loop.

Reads the payload built by run.py from stdin, sets up (imports
``gammaforms`` and, for a warm workload, runs the payload's warm-up
queries), then runs ops one after another until ``--seconds`` have passed
or ``--max-ops`` are done.  Cold workloads clear every package cache
before each op.  Writes one JSON line per op to stdout as it goes (latency
and encoded output), then one report line: the time set-up ended on the
system-wide monotonic clock, the reference time around set-up and around
each op, and the peak RSS.  ``--mode setup`` stops after set-up.

Shared machines change speed with their neighbours' load: on a shared
2-core VM the same work took up to twice as long from one second to the
next.  So the child also times a fixed reference computation
(``reference_ns``) before the first op, after each op once REF_INTERVAL_NS
has passed, and after the last; run.py scales each op by the reference
times measured around it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import arith

REF_INTERVAL_NS = 50_000_000


def _reference_pairs() -> list[tuple[tuple, tuple]]:
    rng = random.Random(0)

    def word(k: int) -> tuple:
        g = arith.IDENTITY
        for _ in range(k):
            g = arith.mat_mul(g, rng.choice((arith.S, arith.T, arith.T_INV)))
        return g

    pairs = []
    for r in arith.reduced_forms(-2999)[:64]:
        f = arith.act(r, word(16))
        pairs.append((f, arith.act(f, word(12))))
    return pairs


REF_PAIRS = _reference_pairs()


def reference_ns() -> int:
    """Time of a fixed computation in the benchmark's own arithmetic (no
    gammaforms code, so a change to the library cannot move it): the
    fastest of three runs of 64 Gamma0(7)-equivalence tests."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        for f, g in REF_PAIRS:
            arith.gamma0_equivalent(f, g, 7)
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


def find_caches() -> dict[str, object]:
    """Every package attribute with a ``cache_clear``, by qualified name."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "gammaforms":
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = (f"{obj.__module__}.{obj.__qualname__}", obj)
    return dict(sorted(found.values(), key=lambda item: item[0]))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "setup"), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args()

    ref_start = reference_ns()
    payload = json.load(sys.stdin)
    sys.path.insert(0, args.src)
    import gammaforms

    if not os.path.abspath(gammaforms.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"gammaforms imported from {gammaforms.__file__}, not {args.src}", file=sys.stderr)
        return 2
    import ops

    for argv in payload["warm"]:
        code, _ = ops.run_cli(argv)
        if code != 0:
            print(f"warm-up query {argv} exited {code}", file=sys.stderr)
            return 1
    caches = find_caches()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    setup_ref_ns = (ref_start + reference_ns()) / 2
    if args.mode == "setup":
        json.dump({"ready_ns": ready_ns, "setup_ref_ns": setup_ref_ns}, sys.stdout)
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(gammaforms.GammaFormsError)
        tracer.install()

    specs = payload["ops"]
    cold = payload["cold"]
    extra = (payload["primes"],) if "primes" in payload else ()  # genus ops only
    clock = time.perf_counter_ns
    starts = []
    refs = [(clock(), reference_ns())]
    begin = clock()
    deadline = begin + int(args.seconds * 1e9)
    i = 0
    while (i < args.max_ops) if args.max_ops else (i == 0 or clock() < deadline):
        spec = specs[i % len(specs)]
        run, encode = ops.OPS[spec[0]]
        if cold:
            for cache in caches.values():
                cache.cache_clear()
        if tracer:
            tracer.begin_op(i)
        start = clock()
        try:
            out, error = run(*spec[1:], *extra), None
        except Exception as exc:  # the op failed; it is counted, the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        if tracer:
            tracer.end_op(end - start)
        print(json.dumps([end - start, None if error else encode(out), error]))
        starts.append(start)
        if clock() - refs[-1][0] >= REF_INTERVAL_NS:
            refs.append((clock(), reference_ns()))
        i += 1
    elapsed_ns = clock() - begin
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    refs.append((clock(), reference_ns()))
    report = {
        "ready_ns": ready_ns,
        "setup_ref_ns": setup_ref_ns,
        "elapsed_ns": elapsed_ns,
        "rss_kb": rss_kb,
        "caches": list(caches),
        "op_start_ns": starts,
        "ref_samples": refs,
    }
    if tracer:
        tracer.uninstall()
        report["trace"] = {
            "left_installed": tracer.check_clean(),
            "metrics": tracer.metrics(),
            "ops_checked": tracer.ops_checked,
            "self_over_wall": tracer.self_over_wall,
            "max_self_share": tracer.max_self_share,
            "spans_written": tracer.write_spans(args.spans),
            "spans_dropped": tracer.dropped,
        }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of ``gammaforms`` from outside the package.

``Tracer.install`` wraps every public function and ``lru_cache`` object of
the seven layer modules and rebinds each name in every package module
that holds a reference to it (``from .core import act`` copies ``act``
into ``reduction``, ``classgroup`` and ``genus``).  A span wrapper records
name, start, end, parent span and op id; a layer's self time is its span
time minus the time of the spans nested in it.  The hottest primitives get
counting wrappers only, so their time stays in their caller's self time.
``uninstall`` puts every original object back and ``check_clean`` proves
that nothing of the tracer is left.

There is one thread and no queue or lock in the traced program, so no
span ever waits: the trace has no waiting time to report.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from array import array

import arith

LAYERS = ("core", "reduction", "fundomain", "classgroup", "ideals", "genus", "cli")

# Counted, not timed: a span would cost more than the body of these.
COUNT_ONLY = {
    "core.xgcd", "core.crt", "core.is_prime", "core.prime_factors", "core.is_square",
    "core.search_bound", "core.kronecker", "core.validate_discriminant", "core.translation",
    "core.require_qf", "core.act", "core.units_mod", "core.ker_chi", "core.cm_point",
    "fundomain.sym_residues", "fundomain.sym_rep", "fundomain.sym_inverse",
    "fundomain.elliptic_data", "fundomain.orbit3",
    "reduction.level_supported", "reduction.is_reduced_sl2", "reduction.is_reduced_gamma0_small",
}  # fmt: skip

# Spans kept in memory for the span file; later spans are only aggregated.
SPAN_CAP = 200_000


def _grid_pairs(n: int, modulus: int) -> int:
    """Residue pairs representation_values(q, n, modulus) visits:
    lcm/n values of y times lcm * phi(n)/n values of x."""
    side = modulus * n // math.gcd(modulus, n) // n
    return side * side * arith.phi(n)


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# name -> (stat, count taken from (args, kwargs, result), is a ratio over calls)
EXTRAS = {
    "reduction.equivalent_gamma0": ("hit_ratio", lambda a, k, result: result is not None, True),
    "classgroup.prepare_coprime": ("moved_ratio", lambda a, k, result: result != _arg(a, k, 0, "q"), True),
    "core.representation_values": (
        "pairs", lambda a, k, result: _grid_pairs(_arg(a, k, 1, "n"), _arg(a, k, 2, "modulus")), False
    ),
}


class Stat:
    __slots__ = ("calls", "self_ns", "errors", "extra", "cache_hits", "timed", "cached")

    def __init__(self, timed: bool, cached: bool) -> None:
        self.calls = self.self_ns = self.errors = self.extra = self.cache_hits = 0
        self.timed, self.cached = timed, cached


class Tracer:
    def __init__(self, error_type: type) -> None:
        self.error_type = error_type
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.stack: list[list[int]] = []
        self.patched: list[tuple[object, str, object]] = []
        self.next_span = 0
        self.dropped = 0
        self.spans = {k: array("q") for k in ("span", "parent", "op", "name", "start", "end")}
        self.op = -1
        self.op_self_ns = 0
        self.ops_checked = 0
        self.self_over_wall = 0
        self.max_self_share = 0.0

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str, timed: bool, cached: bool) -> Stat:
        stat = self.stats[name] = Stat(timed, cached)
        self.names.append(name)
        return stat

    def _wrap(self, name: str, fn):
        cached = hasattr(fn, "cache_info")
        timed = name not in COUNT_ONLY
        stat = self._stat(name, timed, cached)
        extra = EXTRAS.get(name)
        post = cached or extra is not None
        error_type = self.error_type
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns
        name_id = len(self.names) - 1

        def finish(args, kwargs, result, misses):
            if cached and fn.cache_info().misses == misses:
                stat.cache_hits += 1
            if extra:
                stat.extra += extra[1](args, kwargs, result)

        if not timed:

            def wrapper(*args, **kwargs):
                misses = fn.cache_info().misses if cached else 0
                stat.calls += 1
                try:
                    result = fn(*args, **kwargs)
                except error_type:
                    stat.errors += 1
                    raise
                if post:
                    finish(args, kwargs, result, misses)
                return result

        else:

            def wrapper(*args, **kwargs):
                misses = fn.cache_info().misses if cached else 0
                parent = stack[-1][1] if stack else -1
                frame = [0, tracer.next_span]
                tracer.next_span += 1
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except error_type:
                    stat.errors += 1
                    raise
                finally:
                    end = clock()
                    stack.pop()
                    if stack:
                        stack[-1][0] += end - start
                    own = end - start - frame[0]
                    stat.calls += 1
                    stat.self_ns += own
                    tracer.op_self_ns += own
                    tracer._record(frame[1], parent, name_id, start, end)
                if post:
                    finish(args, kwargs, result, misses)
                return result

        functools.update_wrapper(wrapper, fn)
        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        wrapper._perfbench_wrapper = True
        return wrapper

    def _record(self, span: int, parent: int, name_id: int, start: int, end: int) -> None:
        spans = self.spans
        if len(spans["span"]) >= SPAN_CAP:
            self.dropped += 1
            return
        spans["span"].append(span)
        spans["parent"].append(parent)
        spans["op"].append(self.op)
        spans["name"].append(name_id)
        spans["start"].append(start)
        spans["end"].append(end)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "gammaforms"]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"gammaforms.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.patched.append((mod, attr, obj))
        group_element = sys.modules["gammaforms.core"].GroupElement
        original = group_element.__post_init__
        stat = self._stat("core.GroupElement", False, False)

        def post_init(obj):
            stat.calls += 1
            original(obj)

        post_init._perfbench_wrapper = True
        group_element.__post_init__ = post_init
        self.patched.append((group_element, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def check_clean(self) -> list[str]:
        """Names that still hold a wrapper after uninstall (expected: none)."""
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.patched if getattr(o, a) is not orig]
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "gammaforms":
                for attr, obj in vars(mod).items():
                    if getattr(obj, "_perfbench_wrapper", False):
                        left.append(f"{name}.{attr}")
        return left

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_self_ns = 0

    def end_op(self, wall_ns: int) -> None:
        """The self times of an op's spans tile part of its wall time, so
        their sum can never exceed it."""
        self.ops_checked += 1
        if self.op_self_ns > wall_ns:
            self.self_over_wall += 1
        if wall_ns:
            self.max_self_share = max(self.max_self_share, self.op_self_ns / wall_ns)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            if stat.timed:
                out[f"{name}.self_s"] = stat.self_ns / 1e9
            if stat.cached:
                out[f"{name}.cache_hit_ratio"] = stat.cache_hits / stat.calls if stat.calls else 0.0
            if name in EXTRAS:
                label, _, ratio = EXTRAS[name]
                out[f"{name}.{label}"] = (stat.extra / stat.calls if stat.calls else 0.0) if ratio else stat.extra
            out[f"{name.split('.')[0]}.errors"] += stat.errors
        return out

    def write_spans(self, path: str) -> int:
        """Spans as gzipped TSV, one line per span, times in ns."""
        cols = ("span", "parent", "op", "name", "start", "end")
        with gzip.open(path, "wt") as handle:
            handle.write("\t".join(cols) + "\n")
            data = [self.spans[c] for c in cols]
            for row in zip(*data):
                handle.write("\t".join(str(v) for v in row[:3]) + f"\t{self.names[row[3]]}\t{row[4]}\t{row[5]}\n")
        return len(self.spans["span"])

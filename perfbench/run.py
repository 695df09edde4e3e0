"""gammaforms benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs them in a child
process (``child.py``) as a single-threaded closed loop, checks every
output after the child has exited, and prints the metrics: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run plus the tracing overhead against an untraced
replay of the same ops.  The last line of stdout is one JSON object.
Run from the root of a source checkout; the library is imported from its
``src/``.

Times are scaled to a fixed machine speed: each op's latency is
multiplied by REF_NOMINAL_NS over the mean time of the child's reference
computation (see child.py) in the samples taken just before and just after
the op, and set-up likewise by the reference time around set-up.
Unscaled values are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_STATS = (
    "reduction.equivalent_gamma0.calls", "reduction.equivalent_gamma0.self_s",
    "reduction.equivalent_gamma0.hit_ratio",
    "reduction.reduce_sl2.calls", "reduction.reduce_sl2.self_s", "reduction.automorphs.calls",
    "reduction.gamma0_class_representatives.self_s",
    "reduction.enumerate_reduced.self_s", "reduction.enumerate_reduced.cache_hit_ratio",
    "reduction.is_reduced_gamma0_p.calls", "reduction.is_reduced_gamma0_p.self_s",
    "fundomain.sym_residues.calls", "fundomain.elliptic_data.cache_hit_ratio",
    "reduction.coset_reps.self_s", "reduction.coset_reps.cache_hit_ratio",
    "reduction.p1_label.calls", "reduction.p1_label.self_s",
    "reduction.canonical_rep.calls", "reduction.canonical_rep.self_s",
    "classgroup.class_group.self_s", "classgroup.compose_classes.calls",
    "classgroup.compose_classes.self_s", "classgroup.dirichlet_compose.calls",
    "classgroup.dirichlet_compose.self_s", "classgroup.verify_iso_with_scaled.self_s",
    "classgroup.prepare_coprime.calls", "classgroup.prepare_coprime.self_s",
    "classgroup.prepare_coprime.moved_ratio",
    "ideals.ideal_mul.calls", "ideals.ideal_mul.self_s", "ideals.ideal_from_form.calls",
    "ideals.hnf_rows.calls",
    "core.representation_values.calls", "core.representation_values.self_s",
    "core.representation_values.pairs",
    "genus.genus_table.self_s", "genus.genus_table.cache_hit_ratio",
    "genus.classify_prime.calls", "genus.classify_prime.self_s",
    "genus.find_representations.calls", "genus.find_representations.self_s",
    "core.act.calls", "core.GroupElement.calls", "core.xgcd.calls", "core.kronecker.calls",
    "core.ker_chi.cache_hit_ratio",
    "cli.run.calls", "cli.run.self_s", "cli.build_parser.self_s",
    "core.errors", "reduction.errors", "fundomain.errors", "classgroup.errors",
    "ideals.errors", "genus.errors", "cli.errors",
)  # fmt: skip
# Work counts computed by the tracer from call arguments, not by the program.
COMPUTED = {"core.representation_values.pairs"}

SETUP_RUNS = 5  # set-up is timed in this many child launches; the median is reported
REF_NOMINAL_NS = 400_000  # reference time at the machine speed the metrics are scaled to
TIME_LIMIT_S = 170  # the whole run, children included, ends within this


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    return {"self_s": "s", "calls": "count", "pairs": "count", "errors": "count"}.get(stat, "ratio")


PER_LAYER = tuple((name, unit_of(name)) for name in PER_LAYER_STATS)


class ChildFailed(RuntimeError):
    pass


class Launcher:
    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.deadline = deadline

    def launch(self, payload: bytes, mode: str, seconds: float = 0, max_ops: int = 0, spans: Path | None = None):
        """Run one child to completion; returns its set-up seconds, unscaled
        and scaled, and its report with the op results under "results"."""
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--src", str(self.root / "src")]
        cmd += ["--seconds", str(seconds), "--max-ops", str(max_ops)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before launching a child")
        launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, input=payload, capture_output=True, timeout=timeout, cwd=self.root)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child ran past the {TIME_LIMIT_S} s limit") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}")
        *ops, last = proc.stdout.splitlines()
        report = json.loads(last)
        report["results"] = [json.loads(line) for line in ops]
        setup_s = (report["ready_ns"] - launched) / 1e9
        return setup_s, setup_s * REF_NOMINAL_NS / report["setup_ref_ns"], report


def check_results(inputs: gen.Inputs, results: list) -> list[str]:
    """One entry per op: None if it completed with a correct output, else why not."""
    import check  # imports gammaforms, so only once the checkout is known to have it

    ops = inputs.payload["ops"]
    verdicts = []
    for i, (_, out, error) in enumerate(results):
        if error is not None:
            verdicts.append(f"raised {error}")
            continue
        try:
            verdicts.append(check.check_op(inputs.payload, ops[i % len(ops)], inputs.meta[i % len(ops)], out))
        except (LookupError, TypeError, ValueError) as exc:
            verdicts.append(f"malformed output: {type(exc).__name__}: {exc}")
    return verdicts


def op_scales(report: dict) -> list[float]:
    """Per op, REF_NOMINAL_NS over the mean of the last reference sample
    before it and the first after it."""
    at = [t for t, _ in report["ref_samples"]]
    took = [ref for _, ref in report["ref_samples"]]
    scales = []
    for (lat, _, _), start in zip(report["results"], report["op_start_ns"]):
        before = bisect.bisect_right(at, start) - 1
        after = bisect.bisect_left(at, start + lat)
        scales.append(2 * REF_NOMINAL_NS / (took[before] + took[after]))
    return scales


def latency_summary(report: dict, verdicts: list, scaled: bool) -> dict:
    """Throughput over the summed op time of all ops and percentiles of the
    correct ops, scaled to the reference speed or not."""
    scales = op_scales(report) if scaled else [1.0] * len(verdicts)
    lats = [lat * scale / 1e6 for (lat, _, _), scale in zip(report["results"], scales)]
    ok = sorted(lat for lat, bad in zip(lats, verdicts) if bad is None)
    if not ok:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0, "samples": 0}
    p90 = statistics.quantiles(ok, n=10, method="inclusive")[8] if len(ok) > 1 else ok[0]
    return {
        "ops_per_s": len(ok) / (sum(lats) / 1e3),
        "op_p50_ms": statistics.median(ok),
        "op_p90_ms": p90,
        "samples": len(ok),
    }


def report_failures(verdicts: list, label: str) -> int:
    bad = [(i, v) for i, v in enumerate(verdicts) if v is not None]
    for i, why in bad[:5]:
        print(f"FAILED {label} op {i}: {why}")
    return len(bad)


def run_untraced(launcher: Launcher, inputs: gen.Inputs, payload: bytes, seconds: float, corrupt=None) -> dict:
    setups = [launcher.launch(payload, "setup")[:2] for _ in range(SETUP_RUNS - 1)]
    *setup, report = launcher.launch(payload, "run", seconds=seconds)
    setups.append(tuple(setup))
    if corrupt:
        corrupt(report["results"])
    print(f"caches found ({len(report['caches'])}): {', '.join(report['caches'])}")
    verdicts = check_results(inputs, report["results"])
    failed = report_failures(verdicts, "timed")
    attempted = len(verdicts)
    lat = latency_summary(report, verdicts, scaled=True)
    raw = latency_summary(report, verdicts, scaled=False)
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "ops_per_s": lat["ops_per_s"],
        "op_p50_ms": lat["op_p50_ms"],
        "op_p90_ms": lat["op_p90_ms"],
        "peak_rss_mb": report["rss_kb"] / 1024,
    }
    print(f"timed phase: {report['elapsed_ns'] / 1e9:.3f} s, {len(report['ref_samples'])} reference samples")
    print(
        f"setup_s: {values['setup_s']:.4f} s (median of {SETUP_RUNS} launches; "
        f"unscaled {statistics.median(s for s, _ in setups):.4f} s)"
    )
    print(f"ops_per_s: {values['ops_per_s']:.4f} 1/s (unscaled {raw['ops_per_s']:.4f}; {lat['samples']} correct ops)")
    print(f"op_p50_ms: {values['op_p50_ms']:.4f} ms (unscaled {raw['op_p50_ms']:.4f})")
    tail = "" if lat["samples"] >= 100 else "; under 100 samples, so not a tail percentile"
    print(f"op_p90_ms: {values['op_p90_ms']:.4f} ms (unscaled {raw['op_p90_ms']:.4f}; n = {lat['samples']}{tail})")
    print(f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    print(f"peak_rss_mb: {values['peak_rss_mb']:.4f} MB")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(launcher: Launcher, inputs: gen.Inputs, payload: bytes, seconds: float, spans: Path) -> dict:
    *_, traced = launcher.launch(payload, "run", seconds=seconds, spans=spans)
    print(f"caches found ({len(traced['caches'])}): {', '.join(traced['caches'])}")
    trace = traced["trace"]
    *_, replay = launcher.launch(payload, "run", max_ops=len(traced["results"]))
    traced_verdicts = check_results(inputs, traced["results"])
    replay_verdicts = check_results(inputs, replay["results"])
    failed = report_failures(traced_verdicts, "traced") + report_failures(replay_verdicts, "replay")
    attempted = len(traced_verdicts) + len(replay_verdicts)
    n = len(traced["results"])
    traced_rate = latency_summary(traced, [None] * n, scaled=True)["ops_per_s"]
    replay_rate = latency_summary(replay, [None] * n, scaled=True)["ops_per_s"]
    print(
        f"tracing overhead: x{replay_rate / traced_rate:.3f} "
        f"(traced {traced_rate:.3f} ops/s, untraced {replay_rate:.3f} ops/s on the same {n} ops)"
    )
    print(
        f"self-time check: sum of span self times <= op wall time on "
        f"{trace['ops_checked'] - trace['self_over_wall']} of {trace['ops_checked']} ops "
        f"(largest share {trace['max_self_share']:.4f})"
    )
    print(f"wrappers left after uninstall: {trace['left_installed'] or 'none'}")
    print(f"spans: {trace['spans_written']} written to {spans.relative_to(launcher.root)}, {trace['spans_dropped']} past the cap")
    print("waiting time: not applicable (one thread, no queue or lock)")
    stats = trace["metrics"]
    for name in sorted(stats):
        if stats[name]:
            note = " (computed from call arguments)" if name in COMPUTED else ""
            print(f"  {name}: {stats[name]:.6g} {unit_of(name)}{note}")
    print(f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    clean = not trace["left_installed"] and trace["self_over_wall"] == 0
    metrics = {name: {"value": stats.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    return {"correct": failed == 0 and clean, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    """Generate, run, check; returns the result object (the last output line)."""
    launcher = Launcher(root, time.monotonic() + TIME_LIMIT_S)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    inputs = gen.generate(workload, seed, seconds)
    ops = inputs.payload["ops"]
    print(f"workload {workload}, seed {seed}: {len(ops)} ops generated, inputs digest {inputs.digest()}")
    payload = json.dumps(inputs.payload).encode()
    if not trace:
        return run_untraced(launcher, inputs, payload, seconds, corrupt)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    return run_traced(launcher, inputs, payload, seconds, out_dir / f"spans-{workload}-{seed}.tsv.gz")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "gammaforms" / "__init__.py").is_file():
        print(f"error: no gammaforms sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

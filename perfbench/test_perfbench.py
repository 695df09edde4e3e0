"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Short smoke runs of every workload, metric names against BENCHMARK.json,
and corrupted outputs that the checks must catch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_inputs_follow_the_seed():
    for workload in run.WORKLOADS:
        a, b, c = (gen.generate(workload, s, 1) for s in (7, 7, 8))
        assert a.payload == b.payload and a.digest() == b.digest()
        assert a.digest() != c.digest()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, capsys):
    result = run.run_workload(ROOT, workload, seed=3, seconds=0.5, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "caches found" in capsys.readouterr().out


def test_traced_run_reports_every_layer(capsys):
    result = run.run_workload(ROOT, "classgroup_oracle", seed=3, seconds=0.5, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert result["metrics"]["classgroup.compose_classes.calls"]["value"] > 0
    out = capsys.readouterr().out
    assert "wrappers left after uninstall: none" in out and "tracing overhead" in out


def test_dropped_form_counts_as_error(capsys):
    def drop_form(results):
        for _, out, _ in results:
            if isinstance(out, list) and len(out) > 1 and all(len(f) == 3 for f in out):
                out.pop()
                return
        raise AssertionError("no enumeration to corrupt")

    result = run.run_workload(ROOT, "reduce_cold", seed=3, seconds=0.5, trace=False, corrupt=drop_form)
    assert not result["correct"] and result["failed"] >= 1
    assert "error_rate: 0.0000" not in capsys.readouterr().out


def _first(workload: str, kind_pred=lambda meta: True):
    inputs = gen.generate(workload, 5, 1)
    for spec, meta in zip(inputs.payload["ops"], inputs.meta):
        if kind_pred(meta):
            run_op, encode = ops.OPS[spec[0]]
            extra = (inputs.payload["primes"],) if spec[0] == "genus" else ()
            out = encode(run_op(*spec[1:], *extra))
            assert check.check_op(inputs.payload, spec, meta, out) is None
            return inputs.payload, spec, meta, out
    raise AssertionError("no matching op")


def test_flipped_equiv_answer_is_caught():
    payload, spec, meta, out = _first("cli_warm", lambda m: m["kind"] == "equiv" and m["built"])
    code, text = out
    data = json.loads(text)
    data["equivalent"], data["gamma"] = False, None
    assert check.check_op(payload, spec, meta, [code, json.dumps(data)]) is not None


def test_corrupted_group_and_genus_are_caught():
    payload, spec, meta, out = _first("classgroup_oracle", lambda m: True)
    bad = dict(out, agree=out["agree"] - 1)
    assert check.check_op(payload, spec, meta, bad) is not None
    payload, spec, meta, out = _first("genus_primes")
    bad = dict(out, primes=out["primes"][1:])
    assert check.check_op(payload, spec, meta, bad) is not None


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

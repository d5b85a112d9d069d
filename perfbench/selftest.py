"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the package's own test run: they
spawn processes and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import multivalley as mv  # noqa: E402
import multivalley.cli  # noqa: E402,F401

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from runner import Runner  # noqa: E402

DOCS_GE4 = (ROOT / workloads.DOCS_GE4).read_text()
DOCS_SI6 = (ROOT / workloads.DOCS_SI6).read_text()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    first = workloads.generate(workload, 7, ROOT)
    again = workloads.generate(workload, 7, ROOT)
    other = workloads.generate(workload, 8, ROOT)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    texts = [op["config"] for ops in first["rounds"] for op in ops]
    assert texts != [op["config"] for ops in other["rounds"] for op in ops]
    for text in texts:
        mv.parse_config(text)


def test_cli_round_has_one_refusal_and_one_cold_acoustic_absorption():
    for ops in workloads.generate("cli-closed-form", 3, ROOT)["rounds"]:
        labels = [op["label"] for op in ops]
        assert labels.count("acoustic-general-cold") == 1
        assert sum(op["expect_exit"] == 3 for op in ops) == 1


def _sweep(text: str, **changes):
    config = replace(mv.parse_config(text), **changes)
    result = mv.run_sweep(config)
    return config, list(result.columns), [list(row) for row in result.rows]


def test_checker_passes_correct_output_and_flags_planted_wrong_values():
    config, columns, rows = _sweep(DOCS_SI6)  # acoustic emission, phi sweep
    assert checks.sweep_problems(config, columns, rows) == []
    col = columns.index("dW_dOmega_cgs")

    nudged = [row[:] for row in rows]
    nudged[5][col] *= 1.0 + 1e-10  # within the fit tolerance, not the formula's
    assert [p for p in checks.sweep_problems(config, columns, nudged)
            if "acoustic emission" in p]
    nudged[5][col] *= 1.0 + 1e-7
    assert [p for p in checks.sweep_problems(config, columns, nudged) if "cos 2phi fit" in p]

    negative = [row[:] for row in rows]
    negative[0][col] = -negative[0][col]
    assert any("finite and >= 0" in p for p in checks.sweep_problems(config, columns, negative))


def test_oracle_check_flags_planted_wrong_value():
    text = json.dumps(dict(json.loads(DOCS_GE4), sweep={
        "kind": "omega", "min": 1e13, "max": 1e14, "points": 3, "scale": "log"}))
    config, columns, rows = _sweep(text)
    for check in ("emission", "kirchhoff"):
        problems, index = checks.oracle_problems(config, columns, rows, check, 0.5)
        assert problems == [] and index is not None
        col = columns.index("dW_dOmega_cgs" if check == "emission" else "K_per_cm")
        planted = [row[:] for row in rows]
        planted[index][col] *= 1.0 + 1e-6
        assert checks.oracle_problems(config, columns, planted, check, 0.5)[0]


def _runner(tmp_path: Path, ops: list[dict]) -> Runner:
    (tmp_path / "cfg").mkdir()
    (tmp_path / "out").mkdir()
    for op in ops:
        (tmp_path / "cfg" / f"{op['id']}.json").write_text(op["config"])
        op["parsed"] = mv.parse_config(op["config"])
    return Runner(mv, str(ROOT / "src"), str(tmp_path), {"rounds": [ops], "oracle": []})


def test_planted_crash_counts_as_failed_not_as_wrong(tmp_path, monkeypatch):
    op = {"id": "r00-00", "kind": "inproc", "label": "docs-Ge4", "config": DOCS_GE4,
          "points": 40, "expect_exit": 0}
    runner = _runner(tmp_path, [op])

    def crash(config):
        raise ValueError("planted")

    monkeypatch.setattr(mv, "run_sweep", crash)
    _latency, outcome = runner.run_op(op)
    assert outcome == "ValueError"
    assert not runner.check_op(op, outcome)
    assert runner.failures and not runner.problems


def test_refused_config_must_not_write_a_csv(tmp_path):
    doc = json.loads(DOCS_GE4)
    doc.update(regime="classical")   # 300 K and 1e13-1e15 rad/s: out of window
    op = {"id": "r00-00", "kind": "cli", "label": "refused", "config": json.dumps(doc),
          "points": 40, "expect_exit": 3}
    runner = _runner(tmp_path, [op])
    _latency, outcome = runner.run_op(op, in_process_cli=True)
    assert outcome == 3 and runner.check_op(op, outcome)
    (tmp_path / "out" / "r00-00.csv").write_text("planted\n")
    assert not runner.check_op(op, outcome) and runner.problems


@pytest.mark.parametrize("text, overrides, calls", [
    (DOCS_GE4, {}, 200),
    (DOCS_SI6, {"mechanism": mv.Mechanism.IMPURITY, "observable": mv.Observable.BOTH}, 296),
])
def test_traced_spectral_endpoint_counts(text, overrides, calls):
    config = replace(mv.parse_config(text), **overrides)
    for _ in range(2):
        with tracing.Tracer() as tracer:
            mv.run_sweep(config)
        metrics, missing = tracing.layer_metrics(tracer)
        assert missing == []
        assert metrics["impurity.spectral_endpoints.calls"] == calls
    assert mv.impurity.spectral_endpoints.__module__ == "multivalley.impurity"  # unwrapped


def test_unresolved_target_is_missing_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", [
        *tracing.TARGETS[:-1], ("special.bessel_k2e", "special", "no_such_function", "count")])
    with tracing.Tracer() as tracer:
        mv.run_sweep(mv.parse_config(DOCS_SI6))
    metrics, missing = tracing.layer_metrics(tracer)
    assert "special.bessel.calls" in missing and "special.bessel.calls" not in metrics
    assert metrics["emission.acoustic.calls"] == 37


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = _bench("--workload", "phi-hot", "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "phi-hot", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

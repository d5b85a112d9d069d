"""Runs, times and checks the ops of one workload process.

Imported by ``worker.py`` only after set-up has been timed, so nothing here
counts towards ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import checks
import tracing
from calibration import calibration_s, scaled
from workloads import DOCS_GE4


class Runner:
    """Runs and checks ops; one instance per workload process."""

    def __init__(self, mv, src: str, workdir: str, manifest: dict):
        self.mv = mv
        self.workdir = workdir
        self.rounds = manifest["rounds"]
        self.oracle = manifest["oracle"]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.problems: list[str] = []   # wrong outputs: any makes "correct" false
        self.failures: list[str] = []   # crashes and unexpected exit codes
        self.outputs: dict[str, tuple] = {}  # op id -> (columns, rows)
        with open(os.path.join(os.path.dirname(src), DOCS_GE4)) as handle:
            self.docs_ge4 = handle.read()

    # -- one op -----------------------------------------------------------

    def _paths(self, op: dict) -> tuple[str, str]:
        return (os.path.join(self.workdir, "cfg", op["id"] + ".json"),
                os.path.join(self.workdir, "out", op["id"] + ".csv"))

    def run_op(self, op: dict, in_process_cli: bool = False) -> tuple[float, int | str]:
        """Run one op; return its latency (s) and outcome (exit code or error)."""
        cfg_path, out_path = self._paths(op)
        if os.path.exists(out_path):
            os.remove(out_path)
        if op["kind"] == "inproc":
            start = time.perf_counter()
            try:
                result = self.mv.run_sweep(op["parsed"])
                self.mv.write_csv(result, out_path)
                outcome = 0
            except Exception as exc:  # the op failed; record it and go on
                result, outcome = None, type(exc).__name__
            latency = time.perf_counter() - start
            if result is not None:
                self.outputs[op["id"]] = (result.columns, result.rows)
            return latency, outcome
        argv = ["--config", cfg_path, "--output", out_path]
        if in_process_cli:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    outcome = self.mv.cli.main(argv)
            except Exception as exc:  # uncaught, it would end the CLI with exit 1
                outcome = type(exc).__name__
            return time.perf_counter() - start, outcome
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "multivalley.cli", *argv],
                              env=self.env, cwd=self.workdir, capture_output=True,
                              timeout=120)
        return time.perf_counter() - start, proc.returncode

    def check_op(self, op: dict, outcome) -> bool:
        """Check one op's outcome and output; return True when it passed."""
        _cfg, out_path = self._paths(op)
        tag = f"{op['id']} {op['label']}"
        wrote = os.path.exists(out_path)
        if op["expect_exit"] != 0 and wrote:
            self.problems.append(f"{tag}: wrote a CSV where none was expected")
            return False
        if outcome != op["expect_exit"]:
            self.failures.append(f"{tag}: outcome {outcome!r}, expected exit {op['expect_exit']}")
            return False
        if op["expect_exit"] != 0:
            return True
        from_csv = op["kind"] == "cli"
        if from_csv:
            try:
                self.outputs[op["id"]] = checks.read_csv(out_path)
            except (OSError, ValueError, StopIteration) as exc:
                self.problems.append(f"{tag}: CSV does not parse: {exc!r}")
                return False
        columns, rows = self.outputs[op["id"]]
        problems = checks.sweep_problems(op["parsed"], columns, rows, from_csv=from_csv)
        self.problems += [f"{tag}: {p}" for p in problems]
        return not problems

    def oracle_checks(self, ops: list[dict]) -> set[str]:
        """Seeded oracle comparisons on ops that ran; returns the ids that failed."""
        by_id = {op["id"]: op for op in ops}
        failed = set()
        for pick in self.oracle:
            op = by_id.get(pick["op"])
            if op is None or pick["op"] not in self.outputs:
                continue
            columns, rows = self.outputs[pick["op"]]
            problems, _index = checks.oracle_problems(
                op["parsed"], list(columns), rows, pick["check"], pick["u"])
            self.problems += [f"{op['id']} {op['label']}: {p}" for p in problems]
            if problems:
                failed.add(op["id"])
        return failed

    # -- modes --------------------------------------------------------------

    def timed_loop(self, seconds: float) -> dict:
        """Whole rounds, stopping at the round boundary nearest ``seconds`` of op
        wall time.  Latencies are scaled to the reference CPU (calibration.py)."""
        is_cli = self.rounds[0][0]["kind"] == "cli"
        self.run_op(self.rounds[0][0])  # warm-up, untimed and unchecked
        oracle_ids = {pick["op"] for pick in self.oracle}
        latencies, wall, failed_ids = [], [], set()
        elapsed, points, r = 0.0, 0, 0
        cal = calibration_s()
        while True:
            for op in self.rounds[r % len(self.rounds)]:
                latency, outcome = self.run_op(op)
                cal_after = calibration_s()
                latencies.append(scaled(latency, cal, cal_after))
                cal = cal_after
                wall.append(latency)
                if self.check_op(op, outcome):
                    points += op["points"] if op["expect_exit"] == 0 else 0
                else:
                    failed_ids.add((r, op["id"]))
                if r or op["id"] not in oracle_ids:
                    self.outputs.pop(op["id"], None)  # keeps RSS independent of the op count
            r += 1
            elapsed = sum(wall)
            if elapsed + 0.5 * elapsed / r >= seconds:
                break
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        # Oracle picks come from the first round, which ran as round 0.
        failed_ids |= {(0, op_id) for op_id in self.oracle_checks(self.rounds[0])}
        return {
            "latencies": latencies, "wall": wall, "points": points, "elapsed": elapsed,
            "rounds": r, "attempted": len(latencies), "failed": len(failed_ids),
            "peak_rss_mb": peak_rss_mb, "problems": self.problems,
            "failures": self.failures,
        }

    def _round(self, ops: list[dict], parse: bool) -> tuple[float, list]:
        """Run ``ops`` once (CLI ops in-process); return wall time and outcomes."""
        outcomes = []
        start = time.perf_counter()
        for op in ops:
            if parse:
                with open(self._paths(op)[0]) as handle:
                    op["parsed"] = self.mv.parse_config(handle.read())
            outcomes.append(self.run_op(op, in_process_cli=True)[1])
        return time.perf_counter() - start, outcomes

    def traced_round(self) -> dict:
        """The first round untraced, then traced; plus kernels and pool speed-up."""
        ops = self.rounds[0]
        is_cli = ops[0]["kind"] == "cli"
        self._round(ops, parse=not is_cli)                      # warm-up
        untraced, _ = self._round(ops, parse=not is_cli)
        self.outputs.clear()
        with tracing.Tracer() as tracer:
            traced, outcomes = self._round(ops, parse=not is_cli)
        metrics, missing = tracing.layer_metrics(tracer)
        failed = {op["id"] for op, out in zip(ops, outcomes) if not self.check_op(op, out)}
        failed |= self.oracle_checks(ops)
        exits = [out for out in outcomes if isinstance(out, int)] if is_cli else []
        metrics.update({
            "cli.exit.0": exits.count(0),
            "cli.exit.3": exits.count(3),
            "cli.exit.other": (len(ops) if is_cli else 0) - exits.count(0) - exits.count(3),
            "trace.overhead_frac": traced / untraced - 1.0,
            "config.pool_speedup": self.pool_speedup(),
        })
        metrics.update(self.kernel_metrics(missing))
        return {"metrics": metrics, "missing": missing, "attempted": len(ops),
                "failed": len(failed), "problems": self.problems,
                "failures": self.failures}

    def kernel_metrics(self, missing: list[str]) -> dict[str, float]:
        """Per-call times of the kernels on fixed argument grids (untraced)."""
        def per_call(fn, args, repeat=5, inner=3):
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                for _ in range(inner):
                    for a in args:
                        fn(*a)
                times.append((time.perf_counter() - start) / (inner * len(args)))
            return statistics.median(times)

        b_grid = [(10.0 ** (-2.0 + 4.0 * k / 399),) for k in range(400)]
        x_grid = [(1e-6 * (700.0 / 1e-6) ** (k / 199),) for k in range(200)]
        material = self.mv.parse_config(self.docs_ge4).material
        e_grid = [(material, self.mv.theta_from_kelvin(t), w)
                  for t in (77.0, 300.0, 3000.0) for w in (1e12, 1e13, 1e14, 1e15)]
        result = {}
        for metric, module, attr, args, repeat, inner, scale in (
            ("kernel.shape_b1_ns", "special", "shape_b1", b_grid, 5, 3, 1e9),
            ("kernel.shape_b2_ns", "special", "shape_b2", b_grid, 5, 3, 1e9),
            ("kernel.bessel_k2e_ns", "special", "bessel_k2e", x_grid, 5, 3, 1e9),
            ("kernel.spectral_endpoints_us", "impurity", "spectral_endpoints", e_grid, 3, 1, 1e6),
        ):
            fn = getattr(getattr(self.mv, module), attr, None)
            if fn is None:
                missing.append(metric)
            else:
                result[metric] = per_call(fn, args, repeat, inner) * scale
        return result

    def pool_speedup(self) -> float:
        """workers=1 time over workers=2 time on the docs Ge4 absorption sweep."""
        base = replace(self.mv.parse_config(self.docs_ge4),
                       observable=self.mv.Observable.ABSORPTION)
        times = {}
        for workers in (1, 2):
            config = replace(base, workers=workers)
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                self.mv.run_sweep(config)
                samples.append(time.perf_counter() - start)
            times[workers] = statistics.median(samples)
        return times[1] / times[2]

"""The multivalley benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  Workloads are described in
``workloads.py``.  The parent (this process) generates the workload's config
documents from ``--seed`` with ``random.Random`` and writes them as JSON; a
workload process (``worker.py``) imports ``multivalley``, parses them and
runs the ops.  Nothing here imports ``multivalley``.

``--trace 0`` prints the end-to-end metrics of an untraced run:

setup_s       spawn of the workload process until multivalley is imported
              and all configs are parsed; median of SETUP_SPAWNS spawns.
op_ms.p50     median op latency: run_sweep plus write_csv in-process, the
              subprocess wall time for a CLI op.
op_ms.p90     90th percentile; printed only when the run has >= 100 ops.
points_per_s  grid points of passed ops per second of op time.

An untraced run pins itself and its children to one CPU, and op times (so
op_ms.* and points_per_s) are scaled to a reference CPU speed measured
between ops; see ``calibration.py``.  The raw wall figures are printed too.
failed_frac   failed ops / attempted ops, printed with its base.
peak_rss_mb   peak RSS of the workload process (cli-closed-form: of its
              largest child).

op_ms.p90 and failed_frac are printed but not in the final JSON line: the
cli-closed-form loop never reaches 100 ops, and failed_frac is 0 on the
in-process workloads; the JSON carries ``failed`` and ``attempted`` instead.

``--trace 1`` prints the per-layer metrics of a traced run (see
``tracing.py`` and ``runner.py``), plus the import costs from
``python -X importtime`` in fresh interpreters and the ``src`` line count.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when any output the
program produced is wrong; crashes and unexpected exit codes count in
``failed``.  The run exits non-zero, printing no result, when the checkout
has no ``src/multivalley`` or when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibration import pin_to_one_cpu  # noqa: E402
from workloads import DOCS_GE4, DOCS_SI6, WORKLOADS, generate  # noqa: E402

SETUP_SPAWNS = 7
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 170.0
IMPORT_MODULES = {
    "import.multivalley_ms": "multivalley",
    "import.scipy_integrate_ms": "scipy.integrate",
    "import.scipy_special_ms": "scipy.special",
    "import.numpy_ms": "numpy",
    "import.concurrent_futures_ms": "concurrent.futures",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_cmd(workdir: Path, mode: str, seconds: float = 0.0) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), str(SRC), str(workdir), mode, str(seconds)]


def _spawn(workdir: Path, mode: str, seconds: float = 0.0) -> tuple[float, dict | None]:
    """Run one workload process; return its set-up time and its result."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(workdir, mode, seconds), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=workdir)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(
            f"workload process ({mode}) exited {proc.returncode}: {err.strip()[-2000:]}")
    if mode == "setup":
        return ready, None
    return ready, json.loads((workdir / "result.json").read_text())


def _prepare(workload: str, seed: int, workdir: Path) -> dict:
    manifest = generate(workload, seed, ROOT)
    (workdir / "cfg").mkdir()
    (workdir / "out").mkdir()
    for ops in manifest["rounds"]:
        for op in ops:
            (workdir / "cfg" / f"{op['id']}.json").write_text(op["config"])
    slim = dict(manifest, rounds=[[{k: v for k, v in op.items() if k != "config"} for op in ops]
                                  for ops in manifest["rounds"]])
    (workdir / "manifest.json").write_text(json.dumps(slim))
    return manifest


def untraced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[str]]:
    _prepare(workload, seed, workdir)
    pin_to_one_cpu()
    _spawn(workdir, "setup")  # fills the page cache and the bytecode cache
    # Half the set-up spawns before the timed run and half after it, so that
    # the median spans two moments of a CPU whose speed drifts.
    setups = [_spawn(workdir, "setup")[0] for _ in range(SETUP_SPAWNS // 2)]
    ready, res = _spawn(workdir, "run", seconds)
    setups.append(ready)
    setups += [_spawn(workdir, "setup")[0] for _ in range(SETUP_SPAWNS - len(setups))]
    lat_ms = [x * 1e3 for x in res["latencies"]]
    wall_ms = [x * 1e3 for x in res["wall"]]
    n = len(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (statistics.median(lat_ms), "ms"),
        "points_per_s": (res["points"] / sum(res["latencies"]), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = [
        f"workload {workload}  seed {seed}  {n} ops in {res['rounds']} rounds, "
        f"{res['elapsed']:.2f} s of op time",
        f"  setup_s       {metrics['setup_s'][0]:10.4f} s      (median of {len(setups)} spawns)",
        f"  op_ms.p50     {metrics['op_ms.p50'][0]:10.3f} ms     "
        f"(n={n}; wall {statistics.median(wall_ms):.3f} ms)",
        f"  op_ms.p90     {_p90(lat_ms):10.3f} ms     (n={n}; wall {_p90(wall_ms):.3f} ms)"
        if n >= 100 else
        f"  op_ms.p90            n/a        (n={n} < 100 ops)",
        f"  points_per_s  {metrics['points_per_s'][0]:10.1f} 1/s    "
        f"({res['points']} points; wall {res['points'] / res['elapsed']:.1f} 1/s)",
        f"  failed_frac   {res['failed'] / n:10.4f} ratio  ({res['failed']}/{n} ops)",
        f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:10.1f} MB",
    ]
    return _result(res, metrics), lines + _notes(res)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _import_times() -> dict[str, float]:
    """Median cumulative import time per module from ``-X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import multivalley"],
                              env=env, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"import multivalley failed: {proc.stderr.strip()[-2000:]}")
        entries = []  # (indent, module, cumulative ms)
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _self, cum, module = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    indent = len(module) - len(module.lstrip())
                    entries.append((indent, module.strip(), int(cum) / 1e3))
        for name, module in IMPORT_MODULES.items():
            samples[name].append(_cumulative_ms(entries, module))
    return {name: statistics.median(values) for name, values in samples.items()}


def _cumulative_ms(entries: list[tuple[int, str, float]], module: str) -> float:
    """Cumulative import time of ``module``; 0 if it was not imported.

    scipy loads subpackages through a module ``__getattr__``, and then
    ``-X importtime`` prints no line for the subpackage itself: its time is
    the sum of its outermost submodule lines.
    """
    for _indent, name, cum in entries:
        if name == module:
            return cum
    subs = [(indent, cum) for indent, name, cum in entries if name.startswith(module + ".")]
    if not subs:
        return 0.0
    top = min(indent for indent, _cum in subs)
    return sum(cum for indent, cum in subs if indent == top)


def traced(workload: str, seed: int, workdir: Path) -> tuple[dict, list[str]]:
    _prepare(workload, seed, workdir)
    _ready, res = _spawn(workdir, "trace")
    layer = dict(res["metrics"])
    layer.update(_import_times())
    layer["src.lines"] = sum(len(p.read_text().splitlines())
                             for p in (SRC / "multivalley").glob("*.py"))
    units = _per_layer_units()
    metrics = {name: (value, units.get(name, "")) for name, value in sorted(layer.items())
               if name in units}
    lines = [f"workload {workload}  seed {seed}  traced round of {res['attempted']} ops"]
    lines += [f"  {name:38s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    if res["missing"]:
        lines.append(f"  missing (target no longer resolves): {', '.join(res['missing'])}")
    return _result(res, metrics), lines + _notes(res)


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _notes(res: dict) -> list[str]:
    return ([f"  FAILED   {msg}" for msg in res["failures"]]
            + [f"  WRONG    {msg}" for msg in res["problems"]])


def _result(res: dict, metrics: dict) -> dict:
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root))
    try:
        if trace:
            return traced(workload, seed, workdir)
        return untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/multivalley/__init__.py", DOCS_GE4, DOCS_SI6)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a multivalley checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = []
        for workload in workloads:
            result, lines = run_one(workload, args.seed, seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

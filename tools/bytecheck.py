"""Same-numbers check: run one CLI corpus on a git revision and on the
working tree, and report every difference.

    python tools/bytecheck.py REV

The corpus is 297 runs of ``multivalley.cli.main``: every op of rounds 0-2
of seeds 1-3 of the three benchmark workloads (``perfbench/workloads.py``'s
``generate``, read from the working tree), plus the 18 combinations of
``--mechanism``, ``--regime`` and ``--observable`` on each docs config.
A library section adds 306 calls that no CLI run makes, compared by
``repr`` (or by the exception they raise): the four public observables
(``dW_dOmega`` of the emissions) for both mechanisms in the three regimes,
and ``impurity.p_plus`` for every valley, on the docs Ge4 and Si6 valleys, at
three frequencies inside each regime's window and three polarizations.
REV is ``git archive``d into a temporary directory, and the working tree's
files (tracked and untracked, not ignored) are copied into another.  Each
tree runs the whole corpus in one child process that imports ``multivalley``
from the tree's ``src``.

The script prints every CSV cell, exit code, stdout and stderr line and
library value that differs, then a summary, and exits 1 if anything differs,
0 if nothing does.
It changes nothing outside its temporary directories.  Needs git and the
standard library; the children need what the trees import (numpy).
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SEEDS = (1, 2, 3)
ROUNDS = 3
DOCS = {"ge4": "docs/config_ge4_spectrum.json", "si6": "docs/config_si6_hot_polarization.json"}
SELECTORS = [
    ["--mechanism", mechanism, "--regime", regime, "--observable", observable]
    for mechanism in ("impurity", "acoustic")
    for regime in ("general", "classical", "quantum")
    for observable in ("absorption", "emission", "both")
]
# Library calls: frequencies (rad/s) inside each regime's window for the docs
# valleys of both configs (300 K; 350 and 520 K), and polarizations.
WINDOWS = {"general": (1e11, 1e13, 1e15), "classical": (1e10, 1e11, 1e12),
           "quantum": (2e15, 5e15, 2e16)}
POLARIZATIONS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 2.0, 3.0))
OBSERVABLES = ("absorption_impurity", "absorption_acoustic", "emission_impurity",
               "emission_acoustic")

# Runs in each tree: argv is SRC RUNS CALLS OUT; writes OUT/results.json.
CHILD = r"""
import contextlib, io, json, os, sys
src, runs, calls, out = sys.argv[1:5]
sys.path.insert(0, src)
import multivalley
from multivalley.cli import main
from multivalley.impurity import p_plus
if not multivalley.__file__.startswith(src):
    sys.exit(f"multivalley imported from {multivalley.__file__}, not {src}")
configs, values = {}, {}
for call_id, config, function, regime, omega, vector in json.loads(open(calls).read()):
    if config not in configs:
        configs[config] = multivalley.parse_config(open(config).read())
    run, pol = configs[config], multivalley.Polarization.from_vector(vector)
    if function == "p_plus":
        cases = [(f"{call_id}[{k}]", p_plus, (v, run.material, omega, pol, 1.0))
                 for k, v in enumerate(run.valleys)]
    else:
        args = (run.valleys, run.material, omega, pol, regime)
        cases = [(call_id, getattr(multivalley, function), args)]
    for case, call, args in cases:
        try:
            value = call(*args)
            values[case] = repr(getattr(value, "dW_dOmega", value))
        except Exception as exc:  # a refusal is a result too
            values[case] = f"raised {type(exc).__name__}: {exc}"
os.chdir(out)
results = {}
for run_id, argv in json.loads(open(runs).read()):
    csv = run_id.replace("/", "_") + ".csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--output", csv])
        except (Exception, SystemExit) as exc:  # a traceback or SystemExit is a result too
            code = f"{type(exc).__name__}: {exc}"
    text = open(csv).read() if os.path.exists(csv) else None
    results[run_id] = {"exit": code, "stdout": stdout.getvalue(),
                       "stderr": stderr.getvalue(), "csv": text}
with open("results.json", "w") as handle:
    json.dump({"cli": results, "library": values}, handle)
"""


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def archive(repo: Path, rev: str, dest: Path) -> None:
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git(repo, "archive", rev), check=True)


def copy_worktree(repo: Path, dest: Path) -> None:
    listed = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = repo / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def corpus(tree: Path, configs: Path) -> list[tuple[str, list[str]]]:
    """(run id, argv without --output) of every run, configs written under ``configs``."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            manifest = workloads.generate(workload, seed, tree)
            for ops in manifest["rounds"][:ROUNDS]:
                for op in ops:
                    path = configs / f"{workload}-s{seed}-{op['id']}.json"
                    path.write_text(op["config"])
                    runs.append((f"{workload}/s{seed}/{op['id']}", ["--config", str(path)]))
    for name, doc in DOCS.items():
        path = configs / Path(doc).name
        shutil.copy2(tree / doc, path)
        for flags in SELECTORS:
            runs.append((f"docs-{name}/{'-'.join(flags[1::2])}", ["--config", str(path), *flags]))
    return runs


def library(configs: Path) -> list[tuple]:
    """(call id, config, function, regime, omega, polarization) of every
    library call, on the docs configs copied under ``configs``; the child
    calls ``p_plus`` for every valley of the config."""
    calls = []
    for name, doc in DOCS.items():
        config = str(configs / Path(doc).name)
        for regime, omegas in WINDOWS.items():
            functions = OBSERVABLES + (("p_plus",) if regime == "general" else ())
            for omega in omegas:
                for vector in POLARIZATIONS:
                    calls += [(f"{name}/{function}/{regime}/{omega:g}/{vector}", config,
                               function, regime, omega, vector) for function in functions]
    return calls


def run_tree(tree: Path, runs_path: Path, calls_path: Path) -> dict:
    out = tree / "bytecheck-out"
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "-c", CHILD, str(tree / "src"), str(runs_path), str(calls_path),
            str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the corpus did not run in {tree.name}:\n{proc.stderr}")
    return json.loads((out / "results.json").read_text())


def compare_lines(run_id: str, what: str, old: str, new: str) -> int:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    count = 0
    for k in range(max(len(old_lines), len(new_lines))):
        a = old_lines[k] if k < len(old_lines) else "<none>"
        b = new_lines[k] if k < len(new_lines) else "<none>"
        if a != b:
            print(f"{run_id} {what} line {k}: {a!r} -> {b!r}")
            count += 1
    return count


def compare_csv(run_id: str, old: str | None, new: str | None, cells: Counter) -> int:
    if old is None or new is None:
        if old != new:
            print(f"{run_id} CSV: {'none' if old is None else 'written'} -> "
                  f"{'none' if new is None else 'written'}")
            return 1
        return 0
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        print(f"{run_id} CSV shape: header {old_rows[:1]} with {len(old_rows) - 1} rows -> "
              f"{new_rows[:1]} with {len(new_rows) - 1} rows")
        return 1
    header, count = old_rows[0], 0
    for r, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:])):
        for column, a, b in zip(header, a_row, b_row):
            if a != b:
                print(f"{run_id} row {r} {column}: {a} -> {b}")
                cells[column] += 1
                count += 1
    return count


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/bytecheck.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    try:
        repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
        label = git(repo, "rev-parse", "--short", "--verify", rev + "^{commit}").decode().strip()
    except subprocess.CalledProcessError as exc:
        print(f"not a revision of this repository: {rev}\n{exc.stderr.decode()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        old_tree, new_tree, configs = tmp / "rev", tmp / "worktree", tmp / "configs"
        archive(repo, rev, old_tree)
        copy_worktree(repo, new_tree)
        configs.mkdir()
        runs = corpus(new_tree, configs)
        runs_path, calls_path = tmp / "runs.json", tmp / "calls.json"
        runs_path.write_text(json.dumps(runs))
        calls_path.write_text(json.dumps(library(configs)))
        old = run_tree(old_tree, runs_path, calls_path)
        new = run_tree(new_tree, runs_path, calls_path)

    cells, exits, lines, csvs = Counter(), 0, 0, 0
    for run_id, _argv in runs:
        a, b = old["cli"][run_id], new["cli"][run_id]
        if a["exit"] != b["exit"]:
            print(f"{run_id} exit: {a['exit']} -> {b['exit']}")
            exits += 1
        lines += compare_lines(run_id, "stdout", a["stdout"], b["stdout"])
        lines += compare_lines(run_id, "stderr", a["stderr"], b["stderr"])
        csvs += compare_csv(run_id, a["csv"], b["csv"], cells)
    values = 0
    for case in sorted(old["library"].keys() | new["library"].keys()):
        a, b = (side["library"].get(case, "<none>") for side in (old, new))
        if a != b:
            print(f"library {case}: {a} -> {b}")
            values += 1
    codes = Counter(str(new["cli"][run_id]["exit"]) for run_id, _ in runs)
    raised = sum(value.startswith("raised ") for value in new["library"].values())
    print(f"{len(runs)} runs, {label} -> working tree; exit codes of the working tree: "
          + ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items())))
    print(f"{len(new['library'])} library calls; {raised} raised in the working tree")
    print(f"differing: {exits} exit codes, {lines} stdout/stderr lines, {csvs} CSV cells or shapes"
          + "".join(f", {n} {column}" for column, n in sorted(cells.items()))
          + f", {values} library values")
    return 1 if exits or lines or csvs or values else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Same-numbers check: run one CLI corpus on a git revision and on the
working tree, and report every difference.

    python tools/bytecheck.py REV

The corpus is 297 runs of ``multivalley.cli.main``: every op of rounds 0-2
of seeds 1-3 of the three benchmark workloads (``perfbench/workloads.py``'s
``generate``, read from the working tree), plus the 18 combinations of
``--mechanism``, ``--regime`` and ``--observable`` on each docs config.
REV is ``git archive``d into a temporary directory, and the working tree's
files (tracked and untracked, not ignored) are copied into another.  Each
tree runs the whole corpus in one child process that imports ``multivalley``
from the tree's ``src``.

The script prints every CSV cell, exit code, stdout and stderr line that
differs, then a summary, and exits 1 if anything differs, 0 if nothing does.
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

# Runs in each tree: argv is SRC RUNS OUT; writes OUT/results.json.
CHILD = r"""
import contextlib, io, json, os, sys
src, runs, out = sys.argv[1:4]
sys.path.insert(0, src)
import multivalley
from multivalley.cli import main
if not multivalley.__file__.startswith(src):
    sys.exit(f"multivalley imported from {multivalley.__file__}, not {src}")
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
    json.dump(results, handle)
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


def run_tree(tree: Path, runs_path: Path) -> dict:
    out = tree / "bytecheck-out"
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "-c", CHILD, str(tree / "src"), str(runs_path), str(out)]
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
        runs_path = tmp / "runs.json"
        runs_path.write_text(json.dumps(runs))
        old, new = run_tree(old_tree, runs_path), run_tree(new_tree, runs_path)

    cells, exits, lines, csvs = Counter(), 0, 0, 0
    for run_id, _argv in runs:
        a, b = old[run_id], new[run_id]
        if a["exit"] != b["exit"]:
            print(f"{run_id} exit: {a['exit']} -> {b['exit']}")
            exits += 1
        lines += compare_lines(run_id, "stdout", a["stdout"], b["stdout"])
        lines += compare_lines(run_id, "stderr", a["stderr"], b["stderr"])
        csvs += compare_csv(run_id, a["csv"], b["csv"], cells)
    codes = Counter(str(new[run_id]["exit"]) for run_id, _ in runs)
    print(f"{len(runs)} runs, {label} -> working tree; exit codes of the working tree: "
          + ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items())))
    print(f"differing: {exits} exit codes, {lines} stdout/stderr lines, {csvs} CSV cells or shapes"
          + "".join(f", {n} {column}" for column, n in sorted(cells.items())))
    return 1 if exits or lines or csvs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

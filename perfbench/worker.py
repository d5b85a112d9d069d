"""The workload process: ``python3 worker.py SRC WORKDIR MODE [SECONDS]``.

It imports ``multivalley`` from SRC before anything else the package would
import, parses every config of the manifest in WORKDIR, then prints
``ready``; the parent times set-up from spawn to that line.  MODE is

* ``setup``: exit right after ``ready``;
* ``run``: the timed closed loop, whole rounds for about SECONDS of op time;
* ``trace``: one round untraced and the same round traced, the kernel
  microbenchmarks and the pool speed-up.

Results go to WORKDIR/result.json.  Every op's output is checked after its
timer stops; an op fails if it raises, exits with an unexpected code or
fails a check.
"""

import sys


def main() -> int:
    src, workdir, mode = sys.argv[1:4]
    sys.path.insert(0, src)
    import multivalley

    import json
    import os

    if os.path.dirname(os.path.abspath(multivalley.__file__)) != os.path.join(src, "multivalley"):
        print(f"error: multivalley imported from {multivalley.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with open(os.path.join(workdir, "manifest.json")) as handle:
        manifest = json.load(handle)
    ops = [op for ops in manifest["rounds"] for op in ops]
    for op in ops:
        with open(os.path.join(workdir, "cfg", op["id"] + ".json")) as handle:
            op["parsed"] = multivalley.parse_config(handle.read())
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import multivalley.cli  # noqa: F401  (in-process CLI ops of the traced run)
    from runner import Runner

    runner = Runner(multivalley, src, workdir, manifest)
    result = runner.timed_loop(float(sys.argv[4])) if mode == "run" else runner.traced_round()
    with open(os.path.join(workdir, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

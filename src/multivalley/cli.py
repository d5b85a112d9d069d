"""Command-line entry point.

Batch tool: read a JSON config, evaluate the sweep, write CSV.  It parses
arguments, calls the library and maps its exceptions to exit codes; the
checks and the floating-point policy are the library's, so the library and
the CLI accept, refuse and compute the same.

Exit codes: 0 success, 2 usage or configuration error, 3 regime-validity
error, 4 numerical failure (quadrature or floating-point arithmetic).
"""

from __future__ import annotations

import sys
from dataclasses import replace

from .config import parse_config, run_sweep, write_csv
from .errors import ConfigError, QuadratureError, RegimeError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

USAGE = """\
multivalley --config run.json --output spectrum.csv \\
    [--observable absorption|emission|both] \\
    [--mechanism impurity|acoustic] [--regime general|classical|quantum] \\
    [--workers N]"""

# Each flag but --config overrides the config key of its name; RunConfig
# checks the selectors' values.
_FLAGS = ("--config", "--output", "--observable", "--mechanism", "--regime", "--workers")


def _parse_args(argv: list[str]) -> dict:
    """The flags of ``argv`` by name, each ``--flag value`` or ``--flag=value``
    with the last of a repeat winning, and ``workers`` as an int >= 1.
    ValueError for anything else."""
    args, rest = {}, iter(argv)
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            raise ValueError(f"unrecognized argument {arg!r}")
        value = value if eq else next(rest, "")
        if not value or value.startswith("--"):
            raise ValueError(f"{flag} expects a value")
        args[flag[2:]] = value
    if "config" not in args:
        raise ValueError("--config is required")
    if "workers" in args:
        if not args["workers"].isdecimal() or int(args["workers"]) < 1:
            raise ValueError(f"--workers must be an integer >= 1, got {args['workers']!r}")
        args["workers"] = int(args["workers"])
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(f"usage: {USAGE}")
        return EXIT_OK
    try:
        args = _parse_args(argv)
    except ValueError as exc:
        print(f"usage error: {exc} (see multivalley --help)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.pop("config"), "rb") as handle:
            config = parse_config(handle.read())
        output = args.pop("output", None) or config.output
        config = replace(config, **args)
        if not output:
            raise ConfigError("no output path: give --output or set 'output' in the config")

        result = run_sweep(config)
        write_csv(result, output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    print(f"wrote {len(result.rows)} rows to {output}")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

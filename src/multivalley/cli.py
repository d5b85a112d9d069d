"""Command-line entry point.

Batch tool: read a JSON config, evaluate the sweep, write CSV.  It parses
arguments, calls the library and maps its exceptions to exit codes; the
checks and the floating-point policy are the library's, so the library and
the CLI accept, refuse and compute the same.

Exit codes: 0 success, 2 configuration error, 3 regime-validity error,
4 numerical failure (quadrature or floating-point arithmetic).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import parse_config, run_sweep, write_csv
from .errors import ConfigError, QuadratureError, RegimeError
from .modes import Mechanism, Observable, Regime

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

# The selector flags, each overriding the config key of its name.
_SELECTORS = {
    "observable": (Observable, "observable"),
    "mechanism": (Mechanism, "scattering mechanism"),
    "regime": (Regime, "frequency regime"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multivalley",
        description=(
            "Free-carrier absorption and hot-electron emission spectra for "
            "multivalley semiconductors with anisotropic impurity or "
            "acoustic scattering."
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", help="CSV output path (overrides config)")
    for key, (selector, what) in _SELECTORS.items():
        parser.add_argument(
            f"--{key}",
            choices=[member.value for member in selector],
            help=f"override the config {what}",
        )
    parser.add_argument(
        "--workers",
        type=int,
        help="accepted and validated (>= 1); no effect on values or output bytes",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as handle:
            config = parse_config(handle.read())
        overrides = {key: getattr(args, key) for key in _SELECTORS if getattr(args, key)}
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError(f"--workers must be >= 1, got {args.workers}")
            overrides["workers"] = args.workers
        config = replace(config, **overrides)

        output = args.output or config.output
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

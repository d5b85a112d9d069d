"""Command-line entry point.

Batch tool: read a JSON config, evaluate the sweep, write CSV.

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
    parser.add_argument(
        "--observable",
        choices=[o.value for o in Observable],
        help="override the config observable",
    )
    parser.add_argument(
        "--mechanism",
        choices=[m.value for m in Mechanism],
        help="override the config scattering mechanism",
    )
    parser.add_argument(
        "--regime",
        choices=[r.value for r in Regime],
        help="override the config frequency regime",
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
        with open(args.config) as handle:
            config = parse_config(handle.read())
        if args.observable:
            config = replace(config, observable=Observable(args.observable))
        if args.mechanism:
            config = replace(config, mechanism=Mechanism(args.mechanism))
        if args.regime:
            config = replace(config, regime=Regime(args.regime))
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError(f"--workers must be >= 1, got {args.workers}")
            config = replace(config, workers=args.workers)

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

"""Command-line harness.

Subcommands: ``run <config>`` (named experiments from a JSON config: the
``fig4`` efficiency curves, the ``loss-bounds`` tolerable-absorption solver
and the ``purity-audit`` Monte Carlo shot campaign), ``verify`` (invariant
suites) and ``cascade`` (chained setups).

Exit codes: 0 success, 1 configuration or file error (a request too large
to allocate included), 2 invariant failure, 3 truncation failure.  Every
route truncates at the one default tolerance, which no probe below the
bright-probe threshold fails, so no input reaches code 3; it stays as a guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import __version__
from .cascade import CascadeConfig, simulate_cascade
from .errors import ConfigurationError, TruncationError, check_real
from .experiments import ExperimentConfig, ResultTable, run_experiment
from .verify import all_passed, format_report, run_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_TRUNCATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xpmherald",
        description="Heralded single-photon purification simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment from a config file")
    p_run.add_argument("config", help="JSON config file")
    p_run.add_argument("--out", help="output CSV path (overrides config)")
    p_run.add_argument("--seed", type=int, help="seed (overrides config)")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--suite", choices=("fast", "full"), default="fast")

    p_casc = sub.add_parser("cascade", help="chained setups sharing one probe")
    p_casc.add_argument(
        "--scheme", choices=("reused-probe", "shared-probe"), default="reused-probe"
    )
    p_casc.add_argument("--setups", type=int, default=10)
    p_casc.add_argument("--alpha-sq", type=float, default=4.0)
    p_casc.add_argument("--phi-chi", type=float, default=math.pi / 2.0)
    p_casc.add_argument("--p", type=float, default=0.6)
    p_casc.add_argument("--shots", type=int, help="Monte Carlo shots (default: exact)")
    p_casc.add_argument("--seed", type=int, help="required with --shots")
    p_casc.add_argument("--out", help="output CSV path")
    return parser


def _emit(table: ResultTable, out: str | None) -> None:
    if out:
        table.write(out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(table.to_csv_text())


def _cmd_run(args) -> int:
    overrides = {
        name: getattr(args, name) for name in ("out", "seed") if getattr(args, name) is not None
    }
    # replace() runs the config's validation on the overridden fields too
    cfg = dataclasses.replace(ExperimentConfig.from_file(args.config), **overrides)
    _emit(run_experiment(dataclasses.replace(cfg, out=None)), cfg.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    print(format_report(results))
    return EXIT_OK if all_passed(results) else EXIT_INVARIANT


def _cmd_cascade(args) -> int:
    if args.shots is not None and args.seed is None:
        raise ConfigurationError("--shots requires --seed")
    check_real("--alpha-sq", args.alpha_sq, 0.0)
    scheme = args.scheme.replace("-", "_")
    cfg = CascadeConfig(
        scheme, args.setups, math.sqrt(args.alpha_sq), args.phi_chi, args.p
    )
    result = simulate_cascade(cfg, shots=args.shots, seed=args.seed)
    rows = [(n + 1, float(pn)) for n, pn in enumerate(result.per_setup)]
    manifest = {
        "experiment": "cascade",
        "version": __version__,
        "scheme": scheme,
        "alpha_sq": repr(args.alpha_sq),
        "phi_chi": repr(args.phi_chi),
        "p": repr(args.p),
        "total": repr(result.total),
        "residual_amp": repr(result.residual_amp),
    }
    if args.shots is not None:
        manifest["shots"] = args.shots
        manifest["seed"] = args.seed
    table = ResultTable(columns=["setup", "p_first_click"], rows=rows, manifest=manifest)
    _emit(table, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are config errors here
        if exc.code not in (0, None):
            return EXIT_CONFIG
        return EXIT_OK
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "cascade": _cmd_cascade,
    }
    try:
        return handlers[args.command](args)
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (ConfigurationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: request too large to allocate ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``suite`` runs a full verification configuration and writes a
report; ``cmi`` / ``ucmi`` / ``ecmi`` / ``gap`` / ``auroc`` run one
computation for a single-experiment config; ``bound`` evaluates a bound
formula directly from parameters.

Exit codes: 0 success and every checked inequality satisfied; 2 config or
component-resolution error, including a theorem that does not apply to the
experiment, bound parameters outside the formula's domain or not read by
it, and an unreadable config or unwritable ``--out``; 3 exact mode
infeasible at the requested size; 4 at least one inequality unsatisfied;
5 Blahut-Arimoto did not converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algkernel import ConvergenceError, ExactEnumerationError
from .bounds import (
    bound_agnostic,
    bound_auroc,
    bound_nonlinear,
    bound_nonlinear_expectation,
    bound_normalized,
    bound_realizable,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    bundled_suite_path,
    emit,
    load_config,
    run_suite,
    single_auroc,
    single_cmi,
    single_ecmi,
    single_gap,
    single_ucmi,
    write_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_UNSATISFIED = 4
EXIT_NO_CONVERGENCE = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument("--seed-override", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmi-lab",
        description="Information diagnostics and generalization-bound checks "
        "for learning algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="run a full verification suite")
    _add_common(suite)

    for name, help_text in (
        ("cmi", "selection information of one experiment"),
        ("ucmi", "worst-selector-law information on sampled candidates"),
        ("ecmi", "loss-evaluated information on sampled candidates"),
        ("gap", "Monte-Carlo generalization gap of one experiment"),
        ("auroc", "ranking-quality generalization check"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)
        if name in ("ucmi", "ecmi"):
            cmd.add_argument("--candidates", type=int, default=8)

    bound = sub.add_parser("bound", help="evaluate one bound formula")
    bound.add_argument("--config", required=True, help="JSON with {family, params}")
    bound.add_argument("--out", default=None)

    sub.add_parser("suite-path", help="print the bundled reference suite path")
    return parser


def _single_config(path: str) -> ExperimentConfig:
    _, configs = load_config(path)
    if len(configs) != 1:
        raise ConfigError(f"expected exactly one experiment, found {len(configs)}")
    return configs[0]


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(text, out)


#: each family's formula, called with the spec's params as keywords, so a
#: missing or unknown parameter is a TypeError and each default lives in
#: the formula's signature
_BOUND_FAMILIES = {
    "agnostic": bound_agnostic,
    "realizable": functools.partial(bound_realizable, empirical_mean=0.0),
    "nonlinear": bound_nonlinear,
    "nonlinear-expectation": bound_nonlinear_expectation,
    "auroc": bound_auroc,
    "normalized": bound_normalized,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            report = run_suite(args.config, seed_override=args.seed_override)
            text = emit(report, args.format, args.out)
            if args.out is not None:
                sys.stdout.write(f"report written to {args.out}\n")
            else:
                sys.stdout.write(text)
            return EXIT_OK if report.all_satisfied else EXIT_UNSATISFIED
        if args.command == "suite-path":
            sys.stdout.write(bundled_suite_path() + "\n")
            return EXIT_OK
        if args.command == "bound":
            with open(args.config) as fh:
                spec = json.load(fh)
            if not isinstance(spec, dict):
                raise ConfigError("bound config must be a JSON object with 'family' and 'params'")
            family = spec.get("family")
            if family not in _BOUND_FAMILIES:
                raise ConfigError(f"unknown bound family {family!r}")
            try:
                value = _BOUND_FAMILIES[family](**spec.get("params", {}))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bound family {family!r}: {exc}") from exc
            _write(json.dumps({"family": family, "value": value}) + "\n", args.out)
            return EXIT_OK

        single = {"cmi": single_cmi, "ucmi": single_ucmi, "ecmi": single_ecmi,
                  "gap": single_gap, "auroc": single_auroc}[args.command]
        extra = {"candidates": args.candidates} if args.command in ("ucmi", "ecmi") else {}
        payload = single(_single_config(args.config), args.seed_override, **extra)
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    except ExactEnumerationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except (ConfigError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

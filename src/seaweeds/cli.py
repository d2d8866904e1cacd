"""Command-line front end.

Subcommands: index, meander, sweep, delta, spectrum.  A seaweed is named
by its compact spec string ("C14:7|7/11").
Exit codes: 0 success, 1 cross-validation mismatch, 2 parse/validation
error, 3 I/O error (a closed stdout too), 4 precondition failure
(non-Frobenius input where a Frobenius one is required).  Sweeps refuse
n_max beyond the SEAWEED_MAX_N budget (default 8) so an exhaustive run
cannot be started by accident.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .delta import NotSinglePathError, delta_of_spec
from .formulas import RuleDisagreement, classify_frobenius
from .matrices import lie_from_structure_constants, parse_structure_constants, seaweed_basis
from .meander import build_meander, components
from .oracle import DEFAULT_TRIALS, NotFrobeniusError, ad_spectrum, index_oracle
from .render import FORMATS, RenderSpec, component_payload, render_meander
from .specs import (
    AlgebraType,
    InvalidSpecError,
    SpecSyntaxError,
    format_spec,
    parse_spec,
)
from .sweep import run_sweep

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_PRECONDITION = 4

DEFAULT_SWEEP_BUDGET = 8


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Whatever stays buffered goes to devnull, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_IO
    except (SpecSyntaxError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except RuleDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


@functools.cache  # built once per process; each parse_args call returns a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seaweed",
        description="Seaweed subalgebra index computation and Frobenius classification.",
    )
    sub = parser.add_subparsers(required=True)

    p_index = sub.add_parser("index", help="compute the index of a seaweed")
    p_index.add_argument("spec", help="compact spec string")
    p_index.add_argument(
        "--method",
        choices=("meander", "formula", "oracle", "all"),
        default="all",
        help="computation route; 'all' cross-checks every applicable route",
    )
    p_index.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    p_index.add_argument("--seed", type=int, default=0)
    p_index.add_argument("--explain", action="store_true", help="list the meander components")
    p_index.add_argument("--json", action="store_true", dest="as_json")
    p_index.set_defaults(handler=cmd_index)

    p_meander = sub.add_parser("meander", help="render the meander of a seaweed")
    p_meander.add_argument("spec", help="compact spec string")
    p_meander.add_argument("--format", choices=FORMATS, default="json")
    p_meander.add_argument("--out", help="output file (stdout when omitted)")
    p_meander.add_argument("--color-components", action="store_true")
    p_meander.set_defaults(handler=cmd_meander)

    p_sweep = sub.add_parser("sweep", help="exhaustively cross-validate a family")
    p_sweep.add_argument("--type", required=True, choices=[t.value for t in AlgebraType])
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--n-min", type=_positive_int, default=1)
    p_sweep.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--workers", type=_positive_int, default=1)
    p_sweep.add_argument("--out", help="write the JSON report here instead of stdout")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_delta = sub.add_parser("delta", help="permutation cycle and difference multiset")
    p_delta.add_argument("spec", help="compact spec string")
    p_delta.add_argument("--json", action="store_true", dest="as_json")
    p_delta.set_defaults(handler=cmd_delta)

    p_spectrum = sub.add_parser("spectrum", help="principal-element adjoint spectrum")
    p_spectrum.add_argument("spec", nargs="?", help="compact spec string")
    p_spectrum.add_argument("--sc-file", help="structure-constant table instead of a seaweed spec")
    p_spectrum.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    p_spectrum.add_argument("--seed", type=int, default=0)
    p_spectrum.add_argument("--json", action="store_true", dest="as_json")
    p_spectrum.set_defaults(handler=cmd_spectrum)

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_out(path: str | None, text: str) -> int:
    """Write ``text`` to the ``--out`` path, or to stdout without one; EXIT_IO if that fails."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_index(args) -> int:
    spec = parse_spec(args.spec)  # the library call that consumes it validates it
    verdict = classify_frobenius(spec)
    report = verdict.report
    closed = verdict.closed_form
    results: dict[str, int | None] = {}
    if args.method in ("meander", "all"):
        results["meander"] = report.index
    if args.method in ("formula", "all"):
        results["formula"] = None if closed is None else closed[0]
    if args.method in ("oracle", "all"):
        results["oracle"] = index_oracle(seaweed_basis(spec), trials=args.trials, seed=args.seed)

    stated = [v for v in results.values() if v is not None]
    agreement = all(v == stated[0] for v in stated)
    payload = {
        "schema": "seaweeds/index/v1",
        "spec": format_spec(spec),
        "index": stated[0] if stated and agreement else None,
        "methods": results,
        "rule": None if closed is None else closed[1],
        "cycles": report.cycles,
        "paths": report.paths,
        "tailed_paths": report.tailed_paths,
        "frobenius": verdict.frobenius,
        "justification": verdict.justification,
    }
    if args.explain:
        payload["components"] = component_payload(components(build_meander(spec))[1])
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for key in ("spec", "index", "rule", "cycles", "paths", "tailed_paths", "frobenius", "justification"):
            print(f"{key}: {payload[key]}")
        for method, value in results.items():
            print(f"index[{method}]: {value}")
        if args.explain:
            for comp in payload["components"]:
                vertices = " ".join(str(v) for v in comp["vertices"])
                print(f"component[{comp['kind']}, tail={comp['tail_count']}]: {vertices}")
    if not agreement:
        print("error: methods disagree", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_meander(args) -> int:
    spec = parse_spec(args.spec)
    options = RenderSpec(format=args.format, color_components=args.color_components)
    return _write_out(args.out, render_meander(build_meander(spec), options, label=format_spec(spec)))


def cmd_sweep(args) -> int:
    if args.n_max < args.n_min:
        print(f"error: n_max {args.n_max} is below n_min {args.n_min}", file=sys.stderr)
        return EXIT_SPEC
    budget_text = os.environ.get("SEAWEED_MAX_N", str(DEFAULT_SWEEP_BUDGET))
    try:
        budget = int(budget_text)
    except ValueError:
        print(f"error: SEAWEED_MAX_N must be an integer, got {budget_text!r}", file=sys.stderr)
        return EXIT_SPEC
    if args.n_max > budget:
        print(
            f"error: n_max {args.n_max} exceeds the SEAWEED_MAX_N budget {budget}",
            file=sys.stderr,
        )
        return EXIT_SPEC
    report = run_sweep(
        AlgebraType(args.type),
        n_max=args.n_max,
        n_min=args.n_min,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    status = _write_out(args.out, json.dumps(report.to_payload(), indent=2) + "\n")
    if status == EXIT_OK and not report.ok:
        return EXIT_MISMATCH
    return status


def cmd_delta(args) -> int:
    spec = parse_spec(args.spec)
    try:
        report = delta_of_spec(spec)
    except NotSinglePathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.as_json:
        payload = {
            "schema": "seaweeds/delta/v1",
            "spec": format_spec(spec),
            "sigma": list(report.sigma),
            "differences": list(report.differences),
            "distinct_values": [[v, c] for v, c in report.distinct_values],
            "delta": report.canonical_delta,
        }
        print(json.dumps(payload, indent=2))
    else:
        print("sigma: (" + " ".join(str(v) for v in report.sigma) + ")")
        print("differences: " + " ".join(str(d) for d in report.differences))
        print("distinct: " + " ".join(f"{v}:{c}" for v, c in report.distinct_values))
        print(f"delta: {report.canonical_delta if report.canonical_delta is not None else 'none'}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    has_spec = args.spec is not None
    if has_spec == bool(args.sc_file):
        both = ", not both" if has_spec else ""
        print(f"error: give a spec or --sc-file{both}", file=sys.stderr)
        return EXIT_SPEC
    if args.sc_file:
        try:
            with open(args.sc_file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.sc_file}: {exc}", file=sys.stderr)
            return EXIT_IO
        except UnicodeDecodeError as exc:
            print(f"error: {args.sc_file} is not UTF-8 text: {exc}", file=sys.stderr)
            return EXIT_SPEC
        try:
            lie = lie_from_structure_constants(parse_structure_constants(text))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SPEC
        label = args.sc_file
    else:
        spec = parse_spec(args.spec)
        lie = seaweed_basis(spec)
        label = format_spec(spec)

    try:
        report = ad_spectrum(lie, trials=args.trials, seed=args.seed)
    except NotFrobeniusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.as_json:
        payload = {
            "schema": "seaweeds/spectrum/v1",
            "input": label,
            "eigenvalues": {str(k): v for k, v in report.eigenvalues.items()},
            "integral": report.integral,
            "unbroken": report.unbroken,
            "symmetric_about_half": report.symmetric_about_half,
            "defect": report.defect,
        }
        print(json.dumps(payload, indent=2))
    else:
        pairs = " ".join(f"{k}:{v}" for k, v in report.eigenvalues.items())
        flags = [
            "integral" if report.integral else f"not-integral(defect={report.defect})",
            "unbroken" if report.unbroken else "broken",
            "symmetric" if report.symmetric_about_half else "asymmetric",
        ]
        print((pairs + " " if pairs else "") + " ".join(flags))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

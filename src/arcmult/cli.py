"""Batch command-line front-end.

Subcommands: nash, contact, ord-d, verify, corpus.  Exit codes: 0 for
success/PASS, 1 for a verification or expectation FAIL, 2 for input errors,
3 for engine errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import run_corpus, summarize
from .errors import (
    ArcNotOnVariety,
    CharDividesDegree,
    EngineError,
    FieldMismatch,
    InvalidArc,
    NotInSingularLocus,
    ParseError,
    VariableMismatch,
)
from .problems import OPTION_MINIMUM, Options, option_value, parse_problem, run

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3

_INPUT_ERRORS = (
    ParseError,
    VariableMismatch,
    FieldMismatch,
    InvalidArc,
    ArcNotOnVariety,
    CharDividesDegree,
    NotInSingularLocus,
)


def _option_type(key: str):
    """argparse type of run option `key`: option_value, a ParseError a usage error (exit 2)."""

    def convert(text: str) -> int:
        try:
            return option_value(key, text)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _add_common_flags(parser):
    for key in OPTION_MINIMUM:
        parser.add_argument(
            "--" + key.replace("_", "-"),
            type=_option_type(key),
            help=f"overrides the file's {key} (default {getattr(Options(), key)})",
        )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--trace", action="store_true", help="include blow-up traces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcmult",
        description="Exact Nash multiplicity sequences, contact orders and "
        "base-dimension order functions for hypersurface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("nash", "Nash multiplicity sequence of each arc via directed blow-ups"),
        ("contact", "order of contact of each arc with the max-multiplicity locus"),
        ("ord-d", "order function in base dimension via elimination"),
        ("verify", "check min(normalized contact orders) = ord_d by sampling"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("file", help="problem file")
        _add_common_flags(p)
    p = sub.add_parser("corpus", help="run bundled problems and compare golden values")
    p.add_argument("pattern", nargs="?", default="*", help="glob over problem names")
    _add_common_flags(p)
    return parser


def _load(args):
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    problem = parse_problem(text, name_hint=path.stem)
    problem.options = problem.options.overridden(vars(args))
    return problem


def _run_single(args) -> int:
    analysis = args.command.replace("-", "_")
    problem = _load(args)
    problem.analyses = (analysis,)
    payload = run(problem).to_json(include_trace=args.trace)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _print_human(payload, analysis)
    return EXIT_OK if payload["verdict"] == "PASS" else EXIT_FAIL


def _print_human(payload, analysis):
    """The human lines of a report: the fields of the dictionary that `--json` prints."""
    problem = payload["problem"]
    field = "Q" if problem["field"] == 0 else f"F_{problem['field']}"
    print(f"problem {problem['name']} over {field}: {problem['poly']}")
    data = payload["analyses"][analysis]
    if analysis == "nash":
        for arc_name, nash in data.items():
            sequence = ",".join(str(m) for m in nash["sequence"])
            status = "truncated" if nash["truncated"] else f"rho={nash['rho']}"
            print(f"  nash {arc_name}: [{sequence}] {status}")
            for step in nash.get("trace", ()):
                print(
                    f"    chart {step['chart']} center ({','.join(step['center'])}) "
                    f"m={step['multiplicity']} transform {step['transform']}"
                )
    elif analysis == "contact":
        for arc_name, result in data.items():
            print(
                f"  contact {arc_name}: r={result['r']} nu={result['nu']} "
                f"r_bar={result['r_bar']} rho={result['rho']}"
            )
    elif analysis == "ord_d":
        algebra = ", ".join(data["algebra"])
        print(f"  ord_d = {data['ord_d']} via {data['method']}; algebra [{algebra}]")
    elif analysis == "verify":
        print(
            f"  verify: {data['verdict']} (ord_d={data['ord_d']}, "
            f"min r_bar={data['min_r_bar']}, "
            f"arcs={data['arcs_checked']}, witness={data['witness']})"
        )
    for expectation in payload["expectations"]:
        mark = "ok" if expectation["match"] else "MISMATCH"
        print(
            f"  expect {expectation['key']}: {expectation['expected']} "
            f"-> {expectation['computed']} [{mark}]"
        )
    print(f"verdict: {payload['verdict']}")


def _run_corpus(args) -> int:
    results = run_corpus(args.pattern, overrides=vars(args))
    summary = summarize(results)
    if args.json:
        payload = {
            "summary": summary,
            "reports": {
                name: report.to_json(include_trace=args.trace)
                for name, report in results
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        if not results:
            print(f"warning: no bundled problem matches {args.pattern!r}")
        width = max((len(name) for name, _ in results), default=4)
        for row in summary["rows"]:
            print(f"{row['name']:<{width}}  {row['verdict']}")
            for mismatch in row["mismatches"]:
                print(f"    {mismatch}")
        print(f"{summary['passed']}/{summary['problems']} problems PASS")
    return EXIT_OK if summary["passed"] == summary["problems"] else EXIT_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            return _run_corpus(args)
        return _run_single(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())

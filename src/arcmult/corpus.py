"""Bundled example corpus: loading and batch execution."""

from __future__ import annotations

import fnmatch
from importlib import resources

from .problems import ProblemFile, parse_problem, run


def corpus_names() -> list:
    root = resources.files(__package__).joinpath("data")
    return sorted(
        entry.name[: -len(".problem")]
        for entry in root.iterdir()
        if entry.name.endswith(".problem")
    )


def load_problem(name: str) -> ProblemFile:
    root = resources.files(__package__).joinpath("data")
    text = root.joinpath(f"{name}.problem").read_text(encoding="utf-8")
    return parse_problem(text, name_hint=name)


def run_corpus(pattern: str = "*", overrides: dict | None = None) -> list:
    """Run every bundled problem matching the glob; deterministic order.

    `overrides` replaces per-problem options as `Options.overridden` does.
    """
    names = [n for n in corpus_names() if fnmatch.fnmatch(n, pattern)]
    problems = [load_problem(n) for n in names]
    for problem in problems:
        problem.options = problem.options.overridden(overrides or {})
    return [(name, run(problem)) for name, problem in zip(names, problems)]


def summarize(results) -> dict:
    """Summary table data: per problem, expectation matches and verdict."""
    rows = []
    for name, report in results:
        mismatches = [e for e in report.expectations if not e["match"]]
        rows.append(
            {
                "name": name,
                "verdict": report.verdict,
                "expectations": len(report.expectations),
                "mismatches": [
                    f"{e['key']}: expected {e['expected']}, got {e['computed']}"
                    for e in mismatches
                ],
            }
        )
    return {
        "problems": len(rows),
        "passed": sum(1 for r in rows if r["verdict"] == "PASS"),
        "rows": rows,
    }

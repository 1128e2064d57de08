"""Print two sha256 digests over every benchmark workload case at seeds 1-3.

For each seed 1, 2, 3 and each workload of ``bench/workloads.py``, every
case is built as the benchmark builds it and run.  One digest hashes each
``json.dumps(report.to_json(), sort_keys=True)``, or ``"<case>: <error
class>"`` when the engine raises, and a newline; the other hashes the same
with ``to_json(include_trace=True)``, so a fault that only a trace reads
moves only the second.  The checkout's ``src/`` goes first on ``sys.path``,
as ``bench/run.py`` puts it, so the digests are always of the checkout,
never of an older installed ``arcmult``.  Run from the repository root:

    python tests/workload_digest.py

CI compares both lines with pinned values under two hash seeds, so any
change to a default report or a trace over these 123 cases shows.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from arcmult.corpus import corpus_names  # noqa: E402
from arcmult.errors import EngineError  # noqa: E402
from arcmult.problems import run  # noqa: E402


def _line(case, report, include_trace: bool) -> bytes:
    """One case's line: its report as sorted JSON, or "<case>: <error class>" when the
    engine raised, in `run` (then `report` is the error) or in `to_json`."""
    try:
        if isinstance(report, EngineError):
            raise report
        text = json.dumps(report.to_json(include_trace=include_trace), sort_keys=True)
    except EngineError as error:
        text = f"{case.name}: {type(error).__name__}"
    return text.encode() + b"\n"


def digests() -> tuple:
    """(default, traced): the sha256 hex digests of every case's report."""
    default, traced = hashlib.sha256(), hashlib.sha256()
    names = corpus_names()
    for seed in (1, 2, 3):
        for workload in workloads.WORKLOADS:
            for case, problem in workloads.build(workloads.generate(workload, seed, names)):
                try:
                    report = run(problem)
                except EngineError as error:
                    report = error
                default.update(_line(case, report, False))
                traced.update(_line(case, report, True))
    return default.hexdigest(), traced.hexdigest()


if __name__ == "__main__":
    default, traced = digests()
    print(f"default {default}")
    print(f"traced {traced}")

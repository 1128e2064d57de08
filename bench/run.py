"""Benchmark of arcmult: the wait for a verdict, end to end and module by module.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

Each run is serial, in one thread of this process.  It makes whole passes
over the workload's problems; for each problem it times ``problems.run``
plus ``Report.to_json`` and ``json.dumps(sort_keys=True)``, which is what
``arcmult <cmd> --json`` does, and checks the report against the
workload's reference.  Every pass must reproduce the first pass's output
byte for byte.  A calibration loop runs before and after each problem, and
the end-to-end times are scaled by it to the reference machine's speed
(bench/calibration.py), since the speed of a shared machine drifts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pass
once untraced and once with every engine module wrapped, and prints the
per-layer metrics, per pass, and kernel timings.  Human-readable lines
come first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
answer is right and byte-identical, 1 otherwise, and 2 when the engine
source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibration_seconds, scale, warm_up

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: Seconds one pass takes on the reference machine (see bench/README.md).
#: A run makes enough whole passes to fill --seconds there, at least 2.
#: The count depends on --seconds only, so that the parent and a change
#: time the same samples and report the same percentile.
REFERENCE_PASS_SECONDS = {"corpus": 4.0, "deep-nash": 8.2, "surface": 10.8}
SETUP_REPEATS = 11
#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "contact.sample_arcs.s": "s",
    "contact.sample_arcs.self_s": "s",
    "contact.sample_arcs.candidates": "count",
    "contact.sample_arcs.candidates_s": "s",
    "contact.sample_arcs.admitted": "count",
    "contact.sample_arcs.admit_ratio": "ratio",
    "contact.normalized_contact.s": "s",
    "contact.normalized_contact.calls": "count",
    "series.arc_substitute.s": "s",
    "series.arc_substitute.calls": "count",
    "series.mul.q.n8_us": "us",
    "series.mul.q.n32_us": "us",
    "series.mul.q.n128_us": "us",
    "series.mul.f3.n8_us": "us",
    "series.mul.f3.n32_us": "us",
    "series.mul.f3.n128_us": "us",
    "series.arc_substitute.kernel_us": "us",
    "blowup.nash_sequence.s": "s",
    "blowup.steps": "count",
    "blowup.strict_transform.s": "s",
    "blowup.blowup_lift.s": "s",
    "rees.diff_closure.s": "s",
    "rees.diff_closure.calls": "count",
    "rees.generators": "count",
    "rees.diff_closure.kernel_us": "us",
    "elimination.ord_d.s": "s",
    "elimination.visible_elimination.s": "s",
    "elimination.minimizing_arc.s": "s",
    "elimination.verify_main_theorem.self_s": "s",
    "elimination.visible_elimination.kernel_us": "us",
    "problems.parse_problem.s": "s",
    "problems.run.self_s": "s",
    "problems.to_json.s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Outcomes and verdict times of the passes of one run."""

    def __init__(self):
        # Seconds per problem that reached a verdict, and per pass the
        # seconds spent on every attempted problem: as measured, and scaled
        # to the reference speed (bench/calibration.py).
        self.times = []
        self.pass_busy = []
        self.scaled_times = []
        self.scaled_pass_busy = []
        self.attempted = 0
        self.errors = 0  # EngineError, expected or not
        self.unexpected_errors = 0
        self.wrong = 0
        self.not_identical = 0
        self.messages = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def correct(self) -> bool:
        return not (self.wrong or self.not_identical or self.unexpected_errors)

    def note(self, message: str):
        if len(self.messages) < 20:
            self.messages.append(message)


def run_passes(cases, passes: int, tally: Tally, first_outputs: dict) -> None:
    """Run whole passes over the cases, checking answers and byte identity."""
    import workloads
    from arcmult.errors import EngineError
    from arcmult.problems import run

    clock = time.perf_counter
    warm_up()
    for _ in range(passes):
        tally.pass_busy.append(0.0)
        tally.scaled_pass_busy.append(0.0)
        for case, problem in workloads.build(cases):
            tally.attempted += 1
            gc.collect()  # start each problem from a similar heap, as a fresh CLI process would
            before = calibration_seconds()
            error = None
            start = clock()
            try:
                report = run(problem).to_json()
                text = json.dumps(report, sort_keys=True)
            except EngineError as exc:
                error = exc
            elapsed = clock() - start
            scaled = scale(elapsed, (before, calibration_seconds()))
            tally.pass_busy[-1] += elapsed
            tally.scaled_pass_busy[-1] += scaled
            if error is not None:
                tally.errors += 1
                if type(error).__name__ != case.known_error:
                    tally.unexpected_errors += 1
                    tally.note(f"{case.name}: unexpected {type(error).__name__}: {error}")
                continue
            tally.times.append(elapsed)
            tally.scaled_times.append(scaled)
            if first_outputs.setdefault(case.name, text) != text:
                tally.not_identical += 1
                tally.note(f"{case.name}: output differs from the first pass")
            mismatches = workloads.check(case, report, problem.expects)
            if mismatches:
                tally.wrong += 1
                tally.note(f"{case.name}: " + "; ".join(mismatches))


def setup_seconds(workload: str, seed: int) -> tuple:
    """Medians over fresh processes of importing arcmult and building the problems.

    Returns (scaled to the reference speed, as measured).
    """
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, *calibrations = (float(word) for word in done.stdout.split())
        scaled.append(scale(seconds, [statistics.median(calibrations)]))
        measured.append(seconds)
    return statistics.median(scaled), statistics.median(measured)


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload: str, seed: int, cases, passes: int) -> tuple:
    tally = Tally()
    run_passes(cases, passes, tally, {})
    if not tally.times:
        return tally, {}, []
    setup, measured_setup = setup_seconds(workload, seed)

    def timings(times, pass_busy):
        return (
            # Verdicts per pass over the median pass, so one slow stretch of
            # a shared machine does not set the rate.
            len(times) / passes / statistics.median(pass_busy),
            statistics.median(times),
            tail(times)[0],
        )

    rate, p50, tail_value = timings(tally.scaled_times, tally.scaled_pass_busy)
    metrics = {
        "setup_s": setup,
        "problems_per_s": rate,
        "verdict_s.p50": p50,
        "verdict_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = timings(tally.times, tally.pass_busy)
    notes = [
        f"verdict_s: {len(tally.times)} samples; tail is p{tail(tally.times)[1]:.1f}, "
        f"{TAIL_BEYOND} samples beyond it",
        "as measured, not scaled to the reference speed: "
        f"setup_s {measured_setup:.6g}, problems_per_s {measured[0]:.6g}, "
        f"verdict_s.p50 {measured[1]:.6g}, verdict_s.tail {measured[2]:.6g}",
        f"wrong_answers {tally.wrong} count",
        f"failed_share {tally.failed / tally.attempted:.4f} ratio "
        f"({tally.failed} of {tally.attempted}: {tally.errors} EngineError, {tally.wrong} wrong)",
    ]
    return tally, metrics, notes


def per_layer(cases, passes: int) -> tuple:
    from kernels import kernel_timings
    from tracer import Tracer

    tally = Tally()
    outputs = {}
    tracer = Tracer()
    # Alternate untraced and traced passes, so that the machine's drift in
    # speed falls on both sides of trace.overhead_s alike.
    for _ in range(passes):
        run_passes(cases, 1, tally, outputs)
        with tracer:
            run_passes(cases, 1, tally, outputs)
    untraced, traced = sum(tally.pass_busy[0::2]), sum(tally.pass_busy[1::2])
    stats, edges = tracer.stats, tracer.edges

    def each(value):
        return value / passes

    candidate_calls, candidate_seconds = edges.get(("contact.sample_arcs", "series.arc_substitute"), (0, 0.0))
    candidates = each(candidate_calls)
    admitted = each(stats["contact.sample_arcs"].size)
    metrics = {
        "contact.sample_arcs.self_s": each(stats["contact.sample_arcs"].self_time),
        "contact.sample_arcs.candidates": candidates,
        "contact.sample_arcs.candidates_s": each(candidate_seconds),
        "contact.sample_arcs.admitted": admitted,
        "contact.sample_arcs.admit_ratio": admitted / candidates if candidates else 0.0,
        "blowup.steps": each(stats["blowup.nash_sequence"].size),
        "rees.generators": each(stats["rees.diff_closure"].size),
        "elimination.verify_main_theorem.self_s": each(stats["elimination.verify_main_theorem"].self_time),
        "problems.run.self_s": each(stats["problems.run"].self_time),
        "trace.overhead_s": each(traced - untraced),
    }
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name not in metrics and kind in ("s", "calls"):
            stat = stats[layer]
            metrics[name] = each(stat.inclusive if kind == "s" else stat.calls)
    metrics.update(kernel_timings())
    ranked = sorted(stats.items(), key=lambda item: -item[1].self_time)
    notes = ["self time per pass: " + ", ".join(f"{n} {each(s.self_time):.4f}s" for n, s in ranked[:6])]
    return tally, metrics, notes


def machine() -> str:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"Python {platform.python_version()}, nproc {cores}, {platform.platform()}"


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "arcmult" / "__init__.py").is_file():
        print(f"bench: engine source {SRC / 'arcmult'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from arcmult.corpus import corpus_names

    cases = workloads.generate(args.workload, args.seed, corpus_names())
    passes = max(2, math.ceil(args.seconds / REFERENCE_PASS_SECONDS[args.workload]))
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of {len(cases)} problems")
    print(f"machine: {machine()}")
    if args.trace:
        tally, metrics, notes = per_layer(cases, passes)
        units = PER_LAYER
    else:
        tally, metrics, notes = end_to_end(args.workload, args.seed, cases, passes)
        units = END_TO_END
    for message in tally.messages:
        print(f"problem: {message}")
    for note in notes:
        print(note)
    if set(metrics) != set(units):
        print("bench: no problem reached a verdict", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())

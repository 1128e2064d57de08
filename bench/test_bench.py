"""Tests of the benchmark itself: inputs, reference checker, tracer, contract.

    python3 -m pytest bench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from arcmult import problems, rees  # noqa: E402
from arcmult.corpus import corpus_names  # noqa: E402


def _texts(workload, seed):
    return [(case.name, case.text) for case in workloads.generate(workload, seed, corpus_names())]


def _case(workload, name, seed=0):
    return next(c for c in workloads.generate(workload, seed, corpus_names()) if c.name == name)


def _report(case):
    ((_, problem),) = workloads.build([case])
    return problem, problems.run(problem).to_json()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_problem_texts(workload):
    assert _texts(workload, 7) == _texts(workload, 7)
    assert _texts(workload, 7) != _texts(workload, 8)


def test_every_surface_seed_keeps_the_known_f2_cases():
    known = {name for name, *_ in workloads.SURFACE_KNOWN}
    for seed in range(20):
        names = {case.name for case in workloads.generate("surface", seed)}
        assert known <= names


@pytest.mark.parametrize(
    "workload, name, path, wrong",
    [
        ("corpus", "cusp_char3", ("analyses", "ord_d", "ord_d"), "5/2"),
        ("corpus", "cusp_char3", ("analyses", "nash", "phi", "sequence"), [2, 2, 1]),
        ("deep-nash", "dn_y3_x5_f2", ("analyses", "nash", "n2", "rho"), 11),
        ("deep-nash", "dn_y3_x5_f2", ("analyses", "contact", "n4", "r_bar"), "5/2"),
        ("surface", "sf_z2_x5_y7_f3", ("analyses", "ord_d", "ord_d"), "7/2"),
        ("surface", "sf_z2_x5_y7_f3", ("analyses", "contact", "py", "r_bar"), "5/2"),
        ("surface", "sf_z2_x3_y4_f2", ("analyses", "verify", "verdict"), "INCONCLUSIVE"),
        ("surface", "known_f2_inside_locus", ("analyses", "contact", "phi", "rho"), 3),
    ],
)
def test_checker_accepts_the_engine_and_rejects_a_wrong_report(workload, name, path, wrong):
    case = _case(workload, name)
    problem, report = _report(case)
    assert workloads.check(case, report, problem.expects) == []
    forged = copy.deepcopy(report)
    *parents, leaf = path
    target = forged
    for key in parents:
        target = target[key]
    target[leaf] = wrong
    assert workloads.check(case, forged, problem.expects)


def test_checker_rejects_a_report_with_missing_analyses():
    case = _case("deep-nash", "dn_y3_x5_f2")
    problem, report = _report(case)
    del report["analyses"]["contact"]
    assert workloads.check(case, report, problem.expects)


def _engine_names():
    import arcmult

    modules = [m for n, m in sys.modules.items() if n == "arcmult" or n.startswith("arcmult.")]
    names = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (rees.ReesAlgebra, problems.Report):
        names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    assert arcmult.elimination.sample_arcs is arcmult.contact.sample_arcs
    return names


def test_tracer_wraps_every_binding_and_restores_the_originals():
    before = _engine_names()
    # Over F_2 with a = 2 the surface takes the visible-intersection route.
    cases = [_case("surface", "sf_z2_x3_y4_f2"), _case("deep-nash", "dn_y3_x5_f2")]
    with Tracer() as tracer:
        import arcmult

        assert arcmult.elimination.sample_arcs is not before[("arcmult.contact", "sample_arcs")]
        for case in cases:
            _report(case)
    assert _engine_names() == before
    assert all(tracer.stats[name].calls for name in TARGETS)
    assert tracer.edges[("contact.sample_arcs", "series.arc_substitute")][0] > 0
    assert tracer.stats["blowup.nash_sequence"].size > 0


def test_tracer_restores_the_originals_after_an_error():
    before = _engine_names()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _engine_names() == before


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)


def test_scaling_gives_the_time_at_the_reference_speed():
    reference = calibration.REFERENCE_SECONDS
    assert calibration.scale(2.0, (reference, reference)) == pytest.approx(2.0)
    # A machine running at half speed takes twice as long for both.
    assert calibration.scale(2.0, (2 * reference, 2 * reference)) == pytest.approx(1.0)
    assert calibration.scale(3.0, (reference, 2 * reference)) == pytest.approx(2.0)


def test_calibration_loop_does_not_use_the_engine():
    lines = (BENCH_DIR / "calibration.py").read_text().splitlines()
    assert not [line for line in lines if line.startswith(("import", "from")) and "arcmult" in line]
    assert calibration.calibration_seconds() > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

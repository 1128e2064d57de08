"""Set-up time of one workload in a fresh process.

    python3 bench/setup_probe.py WORKLOAD SEED

Times importing ``arcmult`` and building the workload's ``ProblemFile``s
(``corpus.load_problem`` or ``problems.parse_problem``) and prints the
seconds, then the times of ``CALIBRATIONS`` calibrations made after it
(bench/calibration.py).  Generated problem texts are made before the clock
starts.
"""

import sys
import time
from pathlib import Path

import workloads
from calibration import calibration_seconds, warm_up

CALIBRATIONS = 7


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cases = None if workload == "corpus" else workloads.generate(workload, seed)
    start = time.perf_counter()
    if cases is None:
        from arcmult.corpus import corpus_names

        cases = workloads.generate(workload, seed, corpus_names())
    workloads.build(cases)
    seconds = time.perf_counter() - start
    warm_up()
    print(seconds, *(calibration_seconds() for _ in range(CALIBRATIONS)))


if __name__ == "__main__":
    main()

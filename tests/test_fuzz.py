"""Seeded fuzzing of the command line on mutated bundled problems.

Each mutant is a bundled problem with one line dropped, one line
duplicated, or one key set to a value from a fixed list of hostile values.
Every command must end with an exit code of the contract (0 pass, 1 fail,
2 bad input, 3 engine or precision error) within a time limit; an escaping
exception or a timeout fails the test and names the mutant.
"""

import random
import signal
from importlib import resources

import pytest

from arcmult.cli import main
from arcmult.corpus import corpus_names

HOSTILE = (
    "0",
    "-1",
    "((",
    "x^1001",
    "99999999999",
    "y^2 - x",
    "(x + y + 1)^1000",
    "*".join(["x^999"] * 100),
)
COMMANDS = ("nash", "contact", "ord-d", "verify")
MUTANTS_PER_COMMAND = 75
SECONDS_PER_MUTANT = 5


class MutantTimeout(Exception):
    pass


def bundled_texts():
    data = resources.files("arcmult").joinpath("data")
    return [
        (name, data.joinpath(f"{name}.problem").read_text(encoding="utf-8"))
        for name in corpus_names()
    ]


def mutate(rng, text):
    """One mutant of a problem text, and a description of the mutation."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.choice(("drop", "duplicate", "set"))
    if kind == "drop":
        return "\n".join(lines[:i] + lines[i + 1 :]) + "\n", f"drop line {i + 1}"
    if kind == "duplicate":
        return "\n".join(lines[: i + 1] + lines[i:]) + "\n", f"duplicate line {i + 1}"
    key = lines[i].split(":", 1)[0]
    value = rng.choice(HOSTILE)
    lines[i] = f"{key}: {value}"
    return "\n".join(lines) + "\n", f"set {key!r} to {value[:40]!r}"


def _alarm(signum, frame):
    raise MutantTimeout


@pytest.mark.parametrize("command", COMMANDS)
def test_mutants_keep_the_exit_code_contract(command, tmp_path, capsys):
    rng = random.Random(f"fuzz-{command}")
    texts = bundled_texts()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for n in range(MUTANTS_PER_COMMAND):
            name, text = texts[rng.randrange(len(texts))]
            mutant, description = mutate(rng, text)
            label = f"mutant {n} of {command} on {name}: {description}"
            path = tmp_path / f"mutant{n}.problem"
            path.write_text(mutant, encoding="utf-8")
            signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_MUTANT)
            try:
                code = main([command, str(path)])
            except MutantTimeout:
                pytest.fail(f"{label}: no exit within {SECONDS_PER_MUTANT} s")
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{label}: {type(exc).__name__} escaped: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            capsys.readouterr()
            assert code in (0, 1, 2, 3), f"{label}: exit code {code}"
    finally:
        signal.signal(signal.SIGALRM, previous)

"""Seeded fuzzing of the command line on mutated bundled problems.

Each mutant is a bundled problem with one line dropped, one line
duplicated, one key set to a value from a fixed list of hostile values, one
key replaced by a near-miss from a fixed list, or one place inside a value
changed: a digit, an exponent, a parenthesis or an arc component.  Some
mutants also get one run-option flag with a hostile value.
Every command must end with an exit code of the contract (0 pass, 1 fail,
2 bad input, 3 engine error) within a time limit; an escaping
exception or a timeout fails the test and names the mutant.
"""

import random
import re
import signal
from importlib import resources

import pytest

from arcmult.cli import main
from arcmult.corpus import corpus_names
from arcmult.problems import OPTION_MINIMUM

HUGE_LITERAL = "9" * 5001
HOSTILE = (
    "0",
    "-1",
    "((",
    "x^1001",
    "99999999999",
    "y^2 - x",
    "(x + y + 1)^1000",
    "*".join(["x^999"] * 100),
    HUGE_LITERAL,
    "(1 + x)^999",
    "y^250 - x^251",
)
#: Keys close to valid ones: a misspelt kind or key, or the wrong number of words.
NEAR_MISS_KEYS = ("expect rbar phi", "expect nash", "expect ord_d x", "arcs phi", "budgets")
#: Places inside a value, each with its replacements; where a value has no
#: such place, the replacement is appended to it.
INSIDE = (
    ("digit", r"\d", ("0", "7", HUGE_LITERAL)),
    ("exponent", r"(?<=\^)\d+", ("0", "1", "1001", "99999999")),
    ("parenthesis", r"[()]", ("", "(", ")", "((")),
    ("arc component", r"[^,]+", ("0", "t^0", "1 + t", "", HUGE_LITERAL)),
)
#: The command-line flag of each run option.
FLAGS = tuple("--" + key.replace("_", "-") for key in OPTION_MINIMUM)
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
    kind = rng.choice(("drop", "duplicate", "set", "key", "inside"))
    if kind == "drop":
        return "\n".join(lines[:i] + lines[i + 1 :]) + "\n", f"drop line {i + 1}"
    if kind == "duplicate":
        return "\n".join(lines[: i + 1] + lines[i:]) + "\n", f"duplicate line {i + 1}"
    key, _, value = lines[i].partition(":")
    if kind == "set":
        value = rng.choice(HOSTILE)
        lines[i] = f"{key}: {value}"
        return "\n".join(lines) + "\n", f"set {key!r} to {value[:40]!r}"
    if kind == "key":
        new_key = rng.choice(NEAR_MISS_KEYS)
        lines[i] = f"{new_key}:{value}"
        return "\n".join(lines) + "\n", f"replace key {key!r} by {new_key!r}"
    place, pattern, replacements = rng.choice(INSIDE)
    spans = [m.span() for m in re.finditer(pattern, value)] or [(len(value), len(value))]
    start, end = rng.choice(spans)
    new = rng.choice(replacements)
    lines[i] = f"{key}:{value[:start]}{new}{value[end:]}"
    description = f"replace {place} {value[start:end]!r} of {key!r} by {new[:40]!r}"
    return "\n".join(lines) + "\n", description


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
            argv = [command, str(path)]
            if rng.random() < 0.25:
                flag, value = rng.choice(FLAGS), rng.choice(HOSTILE)
                argv += [flag, value]
                label += f", with {flag} {value[:40]!r}"
            signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_MUTANT)
            try:
                code = main(argv)
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

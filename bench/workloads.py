"""Benchmark workloads: seeded problem texts and their reference checkers.

Three workloads load different layers of the engine:

* ``corpus``: the bundled problems with their own options and ``expect``
  lines.  Arc sampling in ``contact`` dominates it.
* ``deep-nash``: plane curves ``y^a - x^b`` (gcd(a, b) = 1) with the arcs
  ``(t^(n a), t^(n b))`` for n in {1, 2, 4}, analyses ``nash contact``.
  Blow-up chains of up to 4 b steps load ``blowup`` and ``poly``; the
  sampler never runs.
* ``surface``: ``z^a - x^b - y^c`` over Q, F_2 and F_3 with all analyses.
  The width-3 sampling grid, three-variable closures and, when p divides a,
  the visible-intersection route load ``contact``, ``rees`` and
  ``elimination``.

The curve and surface shapes and the sampling seed of ``verify`` are fixed,
because the cost of a problem swings by 2x between neighbouring shapes and
by up to 30% between sampling seeds.  The benchmark seed picks each arc's
unit scale and the problem order, so every seed asks for the same amount
of work on different inputs.

Generating texts needs no engine import, so that set-up time measures only
the engine.  Checkers read the ``Report.to_json`` dictionary, so a hand-made
report can be checked as well as a computed one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("corpus", "deep-nash", "surface")

#: Arc reparametrization factors of the deep-nash arcs.
DEEP_NASH_FACTORS = (1, 2, 4)

#: (a, b, p) of the deep-nash curves y^a - x^b over F_p (p = 0 is Q), in
#: three cost groups.  As many problems cost less than the middle group of
#: similar cost as cost more, so the median verdict time falls among that
#: group's samples, where they are dense, and not in a gap between costs.
#: y^2 - x^21 gives chains of 84 blow-ups for n = 4.
DEEP_NASH_SHAPES = (
    (2, 21, 0), (3, 13, 0), (2, 21, 3), (3, 16, 7), (3, 10, 0),
    (3, 10, 11), (3, 10, 7), (3, 10, 5), (2, 13, 11), (3, 14, 11), (5, 12, 7), (4, 15, 11),
    (3, 5, 2), (3, 7, 2), (3, 8, 5), (4, 9, 5), (2, 7, 3),
)

#: (a, b, c, p) of the generated surfaces z^a - x^b - y^c over F_p: one
#: over Q, eight F_3 surfaces of similar cost, and one F_2 surface that with
#: the known cases below makes two cheaper problems with a verdict.  Both
#: the median and the tail then fall among the F_3 samples.  Over Q the
#: 15,624-candidate sampling grid makes one surface cost about as much as
#: six over F_3, so Q gets one shape.
SURFACE_SHAPES = (
    (2, 3, 4, 0),
    (3, 4, 5, 3), (2, 5, 7, 3), (3, 5, 7, 3), (2, 7, 9, 3),
    (3, 7, 8, 3), (2, 3, 5, 3), (2, 9, 11, 3), (4, 5, 7, 3),
    (2, 3, 4, 2),
)

#: Known F_2 defects, present in every seed so that they show in
#: failed_share.  The first raises NoRationalUnit in verify; the second has
#: an arc inside the maximal-multiplicity locus, whose correct answer is
#: r = inf with a truncated Nash sequence.
SURFACE_KNOWN = (
    (
        "known_f2_norationalunit",
        "z^2 - x^2*y - y^3",
        {"phi": "t, t^2, t^2 + t^3"},
        "t, t^2, t^2 + t^3",
        "NoRationalUnit",
    ),
    (
        "known_f2_inside_locus",
        "z^2 - x^3 - y^4",
        {"phi": "0, t, t^2", "px": "t^2, 0, t^3"},
        "t^2, 0, t^3",
        None,
    ),
)


@dataclass(frozen=True)
class Case:
    """One problem of a workload: its text (None for bundled files) and reference."""

    name: str
    text: str | None
    reference: dict
    known_error: str | None = None


def _unit(rng: random.Random, p: int) -> int:
    # Over Q only the sign varies: larger scales grow the coefficients and
    # with them the cost.
    return rng.choice((1, -1)) if p == 0 else rng.randrange(1, p)


def _monomial(coefficient: int, exponent: int, p: int) -> str:
    if p:
        coefficient %= p
    return f"{coefficient}*t^{exponent}"


def _deep_nash(seed: int) -> list:
    rng = random.Random(f"deep-nash:{seed}")
    cases = []
    for a, b, p in DEEP_NASH_SHAPES:
        scale = _unit(rng, p)
        name = f"dn_y{a}_x{b}_f{p}"
        arcs = "".join(
            f"arc n{n}: {_monomial(scale**a, n * a, p)}, {_monomial(scale**b, n * b, p)}\n"
            for n in DEEP_NASH_FACTORS
        )
        text = (
            f"name: {name}\nfield: {p}\nvariables: x y\npoly: y^{a} - x^{b}\n"
            f"{arcs}analyses: nash contact\nmax_steps: {4 * b + 4}\n"
        )
        cases.append(Case(name, text, {"kind": "deep-nash", "a": a, "b": b}))
    rng.shuffle(cases)
    return cases


def _surface_text(name, p, poly, arcs, parametrization) -> str:
    arc_lines = "".join(f"arc {arc}: {value}\n" for arc, value in arcs.items())
    return (
        f"name: {name}\nfield: {p}\nvariables: x y z\npoly: {poly}\nfiber: z\n"
        f"{arc_lines}parametrization: {parametrization}\n"
        f"analyses: nash contact ord_d verify\n"
    )


def _surface(seed: int) -> list:
    rng = random.Random(f"surface:{seed}")
    cases = []
    for a, b, c, p in SURFACE_SHAPES:
        lam, mu = _unit(rng, p), _unit(rng, p)
        name = f"sf_z{a}_x{b}_y{c}_f{p}"
        px = f"{_monomial(lam**a, a, p)}, 0, {_monomial(lam**b, b, p)}"
        py = f"0, {_monomial(mu**a, a, p)}, {_monomial(mu**c, c, p)}"
        text = _surface_text(name, p, f"z^{a} - x^{b} - y^{c}", {"px": px, "py": py}, px)
        reference = {"kind": "surface", "a": a, "b": b, "c": c, "p": p}
        cases.append(Case(name, text, reference))
    for name, poly, arcs, parametrization, known_error in SURFACE_KNOWN:
        text = _surface_text(name, 2, poly, arcs, parametrization)
        cases.append(Case(name, text, {"kind": "surface", "p": 2}, known_error))
    rng.shuffle(cases)
    return cases


def generate(workload: str, seed: int, corpus_names=()) -> list:
    """The workload's cases for one seed; the same seed gives the same cases.

    ``corpus`` takes the bundled problem names from the caller and only
    shuffles their order, since its problems keep their own options.
    """
    if workload == "corpus":
        names = sorted(corpus_names)
        random.Random(f"corpus:{seed}").shuffle(names)
        return [Case(name, None, {"kind": "corpus"}) for name in names]
    if workload == "deep-nash":
        return _deep_nash(seed)
    if workload == "surface":
        return _surface(seed)
    raise ValueError(f"unknown workload {workload!r}")


def build(cases) -> list:
    """Parse each case into a ``ProblemFile``, as ``arcmult`` does from a file."""
    from arcmult.corpus import load_problem
    from arcmult.problems import parse_problem

    return [
        (case, load_problem(case.name) if case.text is None else parse_problem(case.text, name_hint=case.name))
        for case in cases
    ]


# -- reference checking -----------------------------------------------------------------


def _nash_rho_agrees(nash: dict, contact: dict) -> bool:
    """rho from the blow-up oracle equals floor(r); truncated pairs with r = inf."""
    if nash["truncated"]:
        return contact["rho"] == "inf"
    return nash["rho"] == contact["rho"]


def _check_corpus(expects: dict, analyses: dict) -> list:
    problems = []
    for key, raw in expects.items():
        kind, *rest = key.split()
        arc = rest[0] if rest else None
        if kind == "ord_d":
            got = Fraction(analyses["ord_d"]["ord_d"])
            want = Fraction(raw)
        elif kind == "verify":
            got, want = analyses["verify"]["verdict"], raw
        elif kind == "nash":
            got = analyses["nash"][arc]["sequence"]
            want = [int(x) for x in raw.replace(",", " ").split()]
        elif kind == "rho":
            got = {analyses["nash"][arc]["rho"], analyses["contact"][arc]["rho"]}
            want = {int(raw)}
        elif kind == "r_bar":
            got = Fraction(analyses["contact"][arc]["r_bar"])
            want = Fraction(raw)
        else:
            problems.append(f"unknown expectation {key!r}")
            continue
        if got != want:
            problems.append(f"{key}: expected {want}, got {got}")
    return problems


def _check_deep_nash(reference: dict, analyses: dict) -> list:
    a, b = reference["a"], reference["b"]
    problems = []
    for n in DEEP_NASH_FACTORS:
        arc = f"n{n}"
        nash = analyses["nash"][arc]
        contact = analyses["contact"][arc]
        rho = n * b
        want_sequence = [a] * rho
        if nash["truncated"] or nash["sequence"][:-1] != want_sequence or nash["sequence"][-1] >= a:
            problems.append(f"nash {arc}: expected {rho} steps at multiplicity {a}, got {nash['sequence']}")
        if nash["rho"] != rho:
            problems.append(f"nash rho {arc}: expected {rho}, got {nash['rho']}")
        if Fraction(contact["r_bar"]) != Fraction(b, a) or contact["nu"] != n * a:
            problems.append(f"contact {arc}: expected r_bar {Fraction(b, a)} with nu {n * a}, got {contact}")
        if not _nash_rho_agrees(nash, contact):
            problems.append(f"rho {arc}: nash {nash['rho']} disagrees with floor(r) {contact['rho']}")
    return problems


def _check_surface(reference: dict, analyses: dict) -> list:
    problems = []
    for arc, nash in analyses["nash"].items():
        contact = analyses["contact"][arc]
        if not _nash_rho_agrees(nash, contact):
            problems.append(f"rho {arc}: nash {nash['rho']} disagrees with floor(r) {contact['rho']}")
    if analyses["verify"]["verdict"] != "PASS":
        problems.append(f"verify: expected PASS, got {analyses['verify']['verdict']}")
    # The closed forms hold when p does not divide a (the Tschirnhausen route).
    a, p = reference.get("a"), reference["p"]
    if a is not None and (p == 0 or a % p):
        b, c = reference["b"], reference["c"]
        want = {"ord_d": Fraction(min(b, c), a), "px": Fraction(b, a), "py": Fraction(c, a)}
        got = {
            "ord_d": Fraction(analyses["ord_d"]["ord_d"]),
            "px": Fraction(analyses["contact"]["px"]["r_bar"]),
            "py": Fraction(analyses["contact"]["py"]["r_bar"]),
        }
        problems.extend(
            f"{key}: expected {want[key]}, got {got[key]}" for key in want if got[key] != want[key]
        )
    return problems


def check(case: Case, report: dict, expects: dict | None = None) -> list:
    """Mismatches between a report (``Report.to_json()``) and the reference; [] when right.

    ``expects`` are the problem file's golden values, which the corpus
    reference uses.  A report missing a field it should have is a mismatch.
    """
    problems = []
    if report.get("verdict") != "PASS":
        problems.append(f"verdict: expected PASS, got {report.get('verdict')}")
    kind = case.reference["kind"]
    analyses = report.get("analyses", {})
    try:
        if kind == "corpus":
            problems.extend(_check_corpus(expects or {}, analyses))
        elif kind == "deep-nash":
            problems.extend(_check_deep_nash(case.reference, analyses))
        else:
            problems.extend(_check_surface(case.reference, analyses))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems

"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.  All comparisons are exact equality of rationals/integers.
"""

import math
from fractions import Fraction

from property_checks import (
    check_diff_closure_idempotence,
    check_hasse_leibniz,
    check_nash_monotonicity,
    check_order_multiplicativity,
    check_translation_composition,
    from_weighted,
    integral_invariance_check,
    observers_agree,
    persistence_oracle,
    run_many,
)

from arcmult.blowup import nash_sequence
from arcmult.contact import contact_order, normalized_contact
from arcmult.corpus import corpus_names, load_problem
from arcmult.elimination import minimizing_arc, ord_d, verify_main_theorem
from arcmult.fields import RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.problems import presentation_of
from arcmult.rees import presenting_algebra
from arcmult.series import Arc, parse_series

Q = RATIONALS
F2 = prime_field(2)
XY = ("x", "y")


def report(number, description):
    print(f"ACCEPTANCE {number}: PASS - {description}")


def rational_grid(field, width=2):
    span = [field.coerce(v) for v in (0, 1, -1, 2, -2)]
    if field.characteristic == 0:
        span.append(Fraction(1, 2))
    points = [()]
    for _ in range(width):
        points = [p + (s,) for p in points for s in span]
    return points


def test_criterion_1_cusp_over_q():
    problem = load_problem("cusp_char0")
    f = problem.poly
    closure = presenting_algebra(problem.poly)
    reference = from_weighted(XY, [("y", 1), ("x^2", 1), ("x^3", 2)], Q)

    points = rational_grid(Q)
    assert len(points) >= 20
    assert observers_agree(closure, reference, points)
    for arc in problem.arcs.values():
        assert contact_order(closure, arc) == contact_order(reference, arc)

    assert ord_d(presentation_of(problem)).ord_d == Fraction(3, 2)

    phi = problem.arcs["phi"]
    result = normalized_contact(closure, phi)
    assert (result.r, result.r_bar, result.rho) == (3, Fraction(3, 2), 3)
    assert persistence_oracle(f, phi) == 3
    assert list(nash_sequence(f, phi).sequence) == [2, 2, 2, 1]
    report(1, "cusp over Q: closure observers, ord^(1)=3/2, r=3, rho=3 both ways, [2,2,2,1]")


def test_criterion_2_cusp_over_f2():
    problem = load_problem("cusp_char2")
    f = problem.poly
    closure = presenting_algebra(problem.poly)
    printed = from_weighted(XY, [("x^2", 1), ("y^2 - x^3", 2)], F2)

    assert closure.generators == printed.generators
    all_points = [(a, b) for a in (0, 1) for b in (0, 1)]
    assert observers_agree(closure, printed, all_points)

    from arcmult.elimination import visible_elimination

    eliminated = visible_elimination(closure, {"y"})
    assert eliminated.generator_texts() == ["x^2 @ 1"]

    elimination = ord_d(presentation_of(problem))
    assert elimination.ord_d == 2

    phi = problem.arcs["phi"]
    result = normalized_contact(closure, phi)
    assert (result.r, result.r_bar, result.rho) == (4, 2, 4)
    assert persistence_oracle(f, phi) == 4
    assert list(nash_sequence(f, phi).sequence) == [2, 2, 2, 2, 1]
    report(2, "cusp over F_2: H^(2) observers, S[x^2 W], ord^(1)=2, r=4, rho=4 both ways")


def test_criterion_3_oracle_equivalence_on_corpus():
    instances = 0
    checked_arcs = 0
    for name in corpus_names():
        problem = load_problem(name)
        algebra = presenting_algebra(problem.poly)
        instances += 1
        assert len(problem.arcs) >= 3
        for arc in problem.arcs.values():
            rho_formula = normalized_contact(algebra, arc).rho
            rho_blowup = persistence_oracle(problem.poly, arc, max_steps=48)
            assert rho_blowup == rho_formula, (name, rho_blowup, rho_formula)
            checked_arcs += 1
    assert instances >= 8
    report(3, f"rho from blow-ups equals floor(r) on {instances} instances, {checked_arcs} arcs")


def test_criterion_4_theorem_on_corpus():
    for name in corpus_names():
        problem = load_problem(name)
        presentation = presentation_of(problem)
        result = verify_main_theorem(
            presentation, problem.arcs, 100, 0, parametrization=problem.parametrization
        )
        assert result.arcs_checked >= 100, (name, result.arcs_checked)
        assert result.lower_bound_holds, name
        assert result.min_r_bar == result.ord_d, name
        assert result.verdict == "PASS", name
        constructed = minimizing_arc(ord_d(presentation))
        achieved = normalized_contact(ord_d(presentation).algebra, constructed)
        assert achieved.r_bar == result.ord_d, name
    report(4, "sampled min of r_bar equals ord_d with >= 100 arcs per presentation")


def test_criterion_5_reparametrization_limit():
    for name, r in (("cusp_char0", Fraction(3)), ("cusp_char2", Fraction(4))):
        problem = load_problem(name)
        phi = problem.arcs["phi"]
        for n in range(1, 9):
            rho_n = persistence_oracle(problem.poly, phi.reparametrize(n), max_steps=40)
            assert rho_n == math.floor(n * r), (name, n, rho_n)
            assert abs(Fraction(rho_n, n) - r) < Fraction(1, n)
    report(5, "rho of reparametrized arcs equals floor(n*r) for n = 1..8, both characteristics")


def test_criterion_6_integral_invariance():
    def polys(text):
        return parse_poly(text, XY, Q)

    arcs = [
        Arc(XY, (parse_series(f"t^{i}", Q), parse_series(f"t^{j}", Q)), Q)
        for i in range(1, 5)
        for j in range(1, 4)
    ]
    assert len(arcs) >= 10

    cusp_closure = from_weighted(XY, [("y^2 - x^3", 2)], Q).diff_closure()
    # x^6 = f^2 - 2 f y^2 + y^4 lies in the weight-4 piece of the closure,
    # witnessing that x^3 W^2 is integral over it.
    triples = [
        (
            from_weighted(XY, [("x^2", 2), ("y^2", 2)], Q),
            (polys("x*y"), 1),
            [polys("0"), polys("-x^2*y^2")],
        ),
        (
            from_weighted(XY, [("x^2", 2)], Q),
            (polys("x"), 1),
            [polys("0"), polys("-x^2")],
        ),
        (
            cusp_closure,
            (polys("x^3"), 2),
            [polys("0"), polys("-x^6")],
        ),
        (
            from_weighted(XY, [("x", 1), ("y", 1)], Q),
            (polys("x"), 1),
            [polys("-x")],
        ),
    ]
    for algebra, extra, relation in triples:
        assert integral_invariance_check(algebra, extra, relation, arcs)
    report(6, f"contact orders unchanged by integral elements: {len(triples)} triples x {len(arcs)} arcs")


def test_criterion_7_property_suites():
    suites = [
        ("Hasse-Leibniz", check_hasse_leibniz),
        ("translation composition", check_translation_composition),
        ("order multiplicativity", check_order_multiplicativity),
        ("Nash-sequence monotonicity", check_nash_monotonicity),
        ("diff-closure idempotence", check_diff_closure_idempotence),
    ]
    for seed, (name, check) in enumerate(suites, start=700):
        run_many(check, 100, seed=seed)
    report(7, "five property suites, 100 randomized cases each, zero failures")

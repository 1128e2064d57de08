from fractions import Fraction

import pytest
from property_checks import from_weighted, observers_agree, odot

from arcmult.contact import normalized_contact
from arcmult.elimination import (
    EliminationResult,
    MonicPresentation,
    coefficient_algebra,
    minimizing_arc,
    ord_d,
    tschirnhausen,
    verify_main_theorem,
    visible_elimination,
)
from arcmult.errors import (
    CharDividesDegree,
    EngineError,
    NoRationalUnit,
    NotInSingularLocus,
    PrecisionExhausted,
)
from arcmult.fields import RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.rees import presenting_algebra
from arcmult.series import Arc, TruncatedSeries, parse_series

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
XY = ("x", "y")


def presentation(text, field=Q, base=("x",), fiber="y"):
    variables = base + (fiber,)
    return MonicPresentation(base, fiber, parse_poly(text, variables, field))


def arc(field, *texts, variables=XY):
    return Arc(variables[: len(texts)], tuple(parse_series(t, field) for t in texts), field)


class TestMonicPresentation:
    def test_accepts_cusp(self):
        p = presentation("y^2 - x^3")
        assert p.degree == 2

    def test_rejects_non_monic(self):
        with pytest.raises(EngineError):
            presentation("2*y^2 - x^3")

    def test_rejects_degree_one(self):
        with pytest.raises(EngineError):
            presentation("y - x^2")

    def test_degree_order_mismatch_detected(self):
        # order at the origin is 1, fiber degree is 2: the presentation exists
        # but does not realize the multiplicity, so the verifier rejects it
        p = presentation("y^2 - x")
        assert not p.realizes_multiplicity
        with pytest.raises(EngineError):
            verify_main_theorem(p, {}, BUDGET, SEED)


class TestTschirnhausen:
    def test_completes_the_square(self):
        p = presentation("x^2 + 2*s*x + s^3", base=("s",), fiber="x")
        reduced = tschirnhausen(p)
        assert reduced.poly == parse_poly("x^2 - s^2 + s^3", ("s", "x"), Q)

    def test_untouched_when_subleading_vanishes(self):
        p = presentation("y^2 - x^3")
        assert tschirnhausen(p).poly == p.poly

    def test_characteristic_divides_degree(self):
        with pytest.raises(CharDividesDegree):
            tschirnhausen(presentation("y^2 - x^3", field=F2))


class TestCoefficientAlgebra:
    def test_cusp_char0(self):
        algebra = coefficient_algebra(presentation("y^2 - x^3"))
        assert algebra.generator_texts() == ["x^2 @ 1", "x^3 @ 2"]

    def test_constant_coefficient_gives_trivial_algebra(self):
        p = presentation("y^2 + c", base=("c",), fiber="y")
        algebra = coefficient_algebra(p)
        assert algebra.is_trivial
        with pytest.raises(NotInSingularLocus):
            algebra.ord_at((Fraction(0),))

    def test_e34_char0(self):
        algebra = coefficient_algebra(presentation("y^3 - x^4"))
        assert algebra.ord_at((Fraction(0),)) == Fraction(4, 3)
        assert algebra.generator_texts() == ["x^2 @ 1", "x^3 @ 2", "x^4 @ 3"]


class TestVisibleElimination:
    def test_char2_cusp(self):
        closed = from_weighted(XY, [("y^2 - x^3", 2)], F2).diff_closure()
        eliminated = visible_elimination(closed, {"y"})
        assert eliminated.generator_texts() == ["x^2 @ 1"]

    def test_char0_cusp_recovers_weight_two_generator(self):
        closed = from_weighted(XY, [("y^2 - x^3", 2)], Q).diff_closure()
        eliminated = visible_elimination(closed, {"y"})
        assert eliminated.generator_texts() == ["x^2 @ 1", "x^3 @ 2"]

    def test_opening_example(self):
        g = from_weighted(XY, [("x", 1), ("y^3", 2)], Q)
        eliminated = visible_elimination(g, {"x"})
        expected = from_weighted(("y",), [("y^3", 2)], Q)
        points = [(Fraction(c),) for c in (0, 1, -1, 2, -2)]
        assert observers_agree(eliminated, expected, points)

    def test_agrees_with_coefficient_route_when_both_apply(self):
        for text in ("y^2 - x^3", "y^3 - x^4", "y^3 - x^5"):
            p = presentation(text)
            coefficient_route = coefficient_algebra(tschirnhausen(p))
            visible_route = visible_elimination(presenting_algebra(p.poly), {"y"})
            origin = (Fraction(0),)
            assert coefficient_route.ord_at(origin) == visible_route.ord_at(origin)


class TestOrdD:
    def test_cusp_char0(self):
        result = ord_d(presentation("y^2 - x^3"))
        assert result.ord_d == Fraction(3, 2)
        assert result.method == "Tschirnhausen"

    def test_invariant_under_monic_fiber_change(self):
        # substitute y -> y + x: same curve in sheared coordinates
        assert ord_d(presentation("y^2 + 2*x*y + x^2 - x^3")).ord_d == Fraction(3, 2)
        sheared = "y^3 + 3*x*y^2 + 3*x^2*y + x^3 - x^4"  # (y+x)^3 - x^4
        assert ord_d(presentation(sheared)).ord_d == Fraction(4, 3)

    def test_cusp_char2(self):
        result = ord_d(presentation("y^2 - x^3", field=F2))
        assert result.ord_d == 2
        assert result.method == "VisibleIntersection"

    def test_e34_char0(self):
        assert ord_d(presentation("y^3 - x^4")).ord_d == Fraction(4, 3)

    def test_e34_char3_uses_visible_route(self):
        result = ord_d(presentation("y^3 - x^4", field=F3))
        assert result.method == "VisibleIntersection"
        assert result.ord_d == Fraction(3, 2)

    def test_amalgam_of_independent_fiber_factors(self):
        # two monic factors in independent fiber variables over the same
        # base combine by odot; the order is the minimum of the factors
        first = ord_d(presentation("y^2 - x^3")).algebra
        second = ord_d(presentation("y^2 - x^5")).algebra
        joined = odot(first, second)
        origin = (Fraction(0),)
        assert joined.ord_at(origin) == min(
            first.ord_at(origin), second.ord_at(origin)
        )
        assert joined.ord_at(origin) == Fraction(3, 2)


class TestMinimizingArc:
    def test_cusp_char0(self):
        result = ord_d(presentation("y^2 - x^3"))
        built = minimizing_arc(result)
        assert built.component("x") == parse_series("t^2", Q)
        assert normalized_contact(result.algebra, built).r_bar == Fraction(3, 2)

    def test_cusp_char2(self):
        result = ord_d(presentation("y^2 - x^3", field=F2))
        built = minimizing_arc(result)
        assert built.component("x") == parse_series("t", F2)
        assert normalized_contact(result.algebra, built).r_bar == 2

    def test_coordinate_algebra(self):
        algebra = from_weighted(("x",), [("x", 1)], Q)
        result = EliminationResult(algebra, Fraction(1), "Tschirnhausen")
        built = minimizing_arc(result)
        assert normalized_contact(algebra, built).r_bar == 1

    def test_no_rational_unit_over_f2(self):
        # initial form (u + v)^2 vanishes at the only unit tuple of F_2
        p = presentation(
            "y^2 + u^3 + 3*u^2*v + 3*u*v^2 + v^3", field=F2, base=("u", "v"), fiber="y"
        )
        result = ord_d(p)
        with pytest.raises(NoRationalUnit):
            minimizing_arc(result)


BUDGET, SEED = 40, 0


class TestVerifyMainTheorem:
    def candidates(self, field):
        base = arc(field, "t^2", "t^3")
        return {"phi": base, "phi2": base.reparametrize(2), "phi3": base.reparametrize(3)}

    def test_cusp_char0_passes(self):
        report = verify_main_theorem(
            presentation("y^2 - x^3"),
            self.candidates(Q),
            BUDGET,
            SEED,
            parametrization=arc(Q, "t^2", "t^3"),
        )
        assert report.verdict == "PASS"
        assert report.ord_d == Fraction(3, 2)
        assert report.min_r_bar == Fraction(3, 2)
        assert report.witness_name == "phi"
        assert report.witness_matches_projection

    def test_cusp_char2_passes(self):
        report = verify_main_theorem(
            presentation("y^2 - x^3", field=F2),
            self.candidates(F2),
            BUDGET,
            SEED,
            parametrization=arc(F2, "t^2", "t^3"),
        )
        assert report.verdict == "PASS"
        assert report.ord_d == 2
        assert report.min_r_bar == 2

    def test_undecided_candidate_is_a_precision_error(self):
        # With y -> t^3 + O(t^5), y^2 - x^3 maps to O(t^8): whether the
        # candidate lies on the curve is undecided, which is not a refutation.
        undecided = Arc(XY, (parse_series("t^2", Q), TruncatedSeries.truncated(Q, (0, 0, 0, 1), 5)), Q)
        with pytest.raises(PrecisionExhausted):
            verify_main_theorem(presentation("y^2 - x^3"), {"phi": undecided}, BUDGET, SEED)

    def test_smooth_input_rejected(self):
        with pytest.raises(EngineError):
            presentation("y - x^2")

    def test_no_witness_is_inconclusive_not_refutation(self):
        # no monomial arc lies on y^2 = x^3 + x^4 and no candidates are given,
        # so nothing achieves the minimum; the verdict must not claim failure
        report = verify_main_theorem(
            presentation("y^2 - x^3 - x^4"), {}, BUDGET, SEED, parametrization=None
        )
        assert report.verdict == "INCONCLUSIVE"
        assert report.witness_name is None
        assert report.lower_bound_holds

    def test_projection_compatibility_on_corpus_arcs(self):
        # the contact order and the arc order both survive projection to the base
        from arcmult.contact import contact_order

        cases = [
            ("y^2 - x^3", Q, ("t^2", "t^3")),
            ("y^2 - x^3", F2, ("t^2", "t^3")),
            ("y^3 - x^4", Q, ("t^3", "t^4")),
        ]
        for text, field, texts in cases:
            p = presentation(text, field=field)
            phi = arc(field, *texts)
            ambient = presenting_algebra(p.poly)
            elimination = ord_d(p)
            projected = phi.project(("x",))
            assert contact_order(ambient, phi) == contact_order(
                elimination.algebra, projected
            )
            assert phi.order() == projected.order()

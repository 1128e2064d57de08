import random
from fractions import Fraction

import pytest
from property_checks import (
    from_weighted,
    observers_agree,
    odot,
    reference_visible_elimination,
    verify_presentation,
)

from arcmult import rees, series
from arcmult.contact import normalized_contact
from arcmult.corpus import load_problem
from arcmult.elimination import (
    EliminationResult,
    MonicPresentation,
    coefficient_algebra,
    minimizing_arc,
    ord_d,
    tschirnhausen,
    visible_elimination,
)
from arcmult.errors import (
    CharDividesDegree,
    EngineError,
    NoRationalUnit,
    NotInSingularLocus,
)
from arcmult.fields import RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.problems import presentation_of
from arcmult.rees import presenting_algebra
from arcmult.series import Arc, parse_series

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
XY = ("x", "y")
XYZ = ("x", "y", "z")


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
            verify_presentation(p, {}, BUDGET, SEED)


class TestPresentingAlgebra:
    def test_built_once_per_presentation(self, monkeypatch):
        # The first call builds G or keeps the one handed in; later calls read it.  Another
        # presentation object of the same polynomial keeps its own.
        built = []
        monkeypatch.setattr(
            "arcmult.elimination.presenting_algebra", lambda poly: built.append(poly) or presenting_algebra(poly)
        )
        first = presentation("y^2 - x^3", F2)
        g = first.presenting_algebra()
        assert first.presenting_algebra() is g and built == [first.poly]
        handed = presenting_algebra(first.poly)
        second = MonicPresentation(first.base_variables, first.fiber_variable, first.poly)
        assert second.presenting_algebra(handed) is handed and second.presenting_algebra() is handed
        assert second.presenting_algebra(g) is handed and len(built) == 1
        third = presentation("y^2 - x^3", F2)
        assert third.presenting_algebra() == g and len(built) == 2

    def test_visible_route_reads_the_presentations_algebra(self, monkeypatch):
        # ord_d eliminates on the presentation's G, closing only the route's result.
        p = presentation("y^2 - x^3", F2)
        g = p.presenting_algebra()
        closures = []
        diff_closure = rees.ReesAlgebra.diff_closure
        monkeypatch.setattr(rees.ReesAlgebra, "diff_closure", lambda a: closures.append(a) or diff_closure(a))
        result = ord_d(p)
        assert result.method == "VisibleIntersection" and result.ord_d == Fraction(2)
        assert len(closures) == 1 and closures[0] is not g
        assert result == ord_d(presentation("y^2 - x^3", F2))


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

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_an_unclosed_algebra_is_closed_first(self, monkeypatch, field):
        # A closure says it is closed, and the route eliminates on it with no second
        # closure; an algebra that is not closed is closed first, and gives the same result.
        for text, weight in (("y^2 - x^3", 2), ("y^3 - x^4 + x^2*y^2", 3)):
            unclosed = from_weighted(XY, [(text, weight)], field)
            closed = unclosed.diff_closure()
            assert closed.closed and not unclosed.closed
            closures = []
            diff_closure = rees.ReesAlgebra.diff_closure
            monkeypatch.setattr(rees.ReesAlgebra, "diff_closure", lambda g: closures.append(g) or diff_closure(g))
            on_closed = visible_elimination(closed, {"y"})
            assert len(closures) == 1  # the result's closure only
            assert visible_elimination(unclosed, {"y"}) == on_closed and on_closed.generators, (text, field)
            assert closures[1] is unclosed and len(closures) == 3
            monkeypatch.undo()

    def test_agrees_with_coefficient_route_when_both_apply(self):
        # Where p does not divide m both routes apply and give one order at the
        # origin: random curves y^a - u x^b and surfaces z^a - u x^b - v y^c with
        # units u, v, and y^3 + 3x^2 y^2 - x^5, whose subleading term Tschirnhausen removes.
        rng = random.Random("route-agreement")
        cases = [("y^3 + 3*x^2*y^2 - x^5", field, ("x",), "y") for field in (Q, F2, F5)]
        while len(cases) < 80:
            field = (Q, F2, F3, F5)[rng.randrange(4)]
            a = rng.randint(2, 5)
            if field.characteristic and a % field.characteristic == 0:
                continue
            u, v = (rng.choice(field.units(4)) for _ in range(2))
            b, c = rng.randint(a + 1, 9), rng.randint(a + 1, 9)
            if rng.random() < 0.5:
                cases.append((f"y^{a} - {u}*x^{b}", field, ("x",), "y"))
            else:
                cases.append((f"z^{a} - {u}*x^{b} - {v}*y^{c}", field, ("x", "y"), "z"))
        for text, field, base, fiber in cases:
            p = presentation(text, field, base, fiber)
            coefficient_route = coefficient_algebra(tschirnhausen(p))
            visible_route = visible_elimination(presenting_algebra(p.poly), {fiber})
            origin = tuple(field.zero for _ in base)
            assert coefficient_route.ord_at(origin) == visible_route.ord_at(origin), (text, field)


    def test_same_generators_as_the_dense_nullspace(self):
        # Reducing each product against the earlier ones of its weight finds the
        # generators that the dense nullspace of all of them gives: surfaces
        # z^a - x^b - y^c with and without a mixed term, and curves
        # y^a - x^b + x^a y, over all four fields and whether or not p divides a.
        rng = random.Random("visible-reduction")
        cases = []
        for i in range(96):
            field = (Q, F2, F3, F5)[i % 4]
            if rng.random() < 0.5:
                a = rng.randint(2, 4)
                b, c = rng.randint(a, a + 3), rng.randint(a, a + 4)
                mixed = rng.choice(["", " + x*y*z", " + x^2*z", f" + x*z^{a - 1}"])
                cases.append((f"z^{a} - x^{b} - y^{c}{mixed}", field, ("x", "y", "z"), "z"))
            else:
                a = rng.randint(2, 5)
                b = rng.randint(a + 1, a + 5)
                cases.append((f"y^{a} - x^{b} + x^{a}*y", field, XY, "y"))
        for text, field, variables, fiber in cases:
            algebra = presenting_algebra(parse_poly(text, variables, field))
            engine = visible_elimination(algebra, {fiber}).generator_texts()
            reference = reference_visible_elimination(algebra, {fiber}).generator_texts()
            assert engine == reference, (text, field)

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


class TestIntrinsicOrder:
    """The order function is intrinsic to the hypersurface, so ord_d may depend neither
    on the transversal fiber nor on the coordinates.  The visible route returns the
    order of a subalgebra of the elimination algebra, an upper bound that is strictly
    higher on these inputs over F_3."""

    @pytest.mark.xfail(strict=True, reason="the visible route gives 4 along z and 11/3 along x")
    def test_same_order_along_two_fibers(self):
        f = parse_poly("z^3 + x^3 + 2*y^4*z^2 + 2*y^3 + x^2*y^4*z^2", XYZ, F3)
        along_z = ord_d(MonicPresentation(("x", "y"), "z", f)).ord_d
        along_x = ord_d(MonicPresentation(("y", "z"), "x", f)).ord_d
        assert along_z == along_x

    @pytest.mark.xfail(strict=True, reason="the visible route gives 8/3, and 5 after the change")
    def test_same_order_after_a_coordinate_change(self):
        # verify already FAILs on f: a sampled arc has r_bar 3/2, below both values.
        f = parse_poly("z^3 - x^4 - y^7 + x*y^4*z^2", XYZ, F3)
        values = {
            "x": parse_poly("2*x + 2*y", XYZ, F3),
            "y": parse_poly("-2*x - y", XYZ, F3),
            "z": parse_poly("z + y + x*y", XYZ, F3),
        }
        before, after = (ord_d(MonicPresentation(("x", "y"), "z", g)).ord_d for g in (f, f.substitute(values)))
        assert before == after


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
        report = verify_presentation(
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
        report = verify_presentation(
            presentation("y^2 - x^3", field=F2),
            self.candidates(F2),
            BUDGET,
            SEED,
            parametrization=arc(F2, "t^2", "t^3"),
        )
        assert report.verdict == "PASS"
        assert report.ord_d == 2
        assert report.min_r_bar == 2

    @pytest.mark.parametrize("field", [Q, F2], ids=["tschirnhausen-q", "visible-f2"])
    @pytest.mark.parametrize("base", [("x", "y"), ("y", "x")], ids=["xy", "yx"])
    def test_base_variables_in_any_order(self, field, base):
        # The witness is projected onto the elimination algebra's variables,
        # which the visible route lists in the polynomial's order, not in base's.
        xyz = ("x", "y", "z")
        p = MonicPresentation(base, "z", parse_poly("z^2 - x^3 - y^5", xyz, field))
        phi = arc(field, "t^2", "0", "t^3", variables=xyz)
        report = verify_presentation(p, {"phi": phi}, BUDGET, SEED)
        assert report.verdict == "PASS"
        assert report.witness_name == "phi"
        assert report.ord_d == (Fraction(3, 2) if field is Q else 2)

    def test_smooth_input_rejected(self):
        with pytest.raises(EngineError):
            presentation("y - x^2")

    def test_no_witness_is_inconclusive_not_refutation(self):
        # no monomial arc lies on y^2 = x^3 + x^4 and no candidates are given,
        # so nothing achieves the minimum; the verdict must not claim failure
        report = verify_presentation(
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

    @pytest.mark.parametrize(
        "name, most", [("cusp_char0", 12), ("e35_char0", 20), ("e35_char3", 20)]
    )
    def test_verify_builds_few_series_products(self, monkeypatch, name, most):
        # Series products in one verify run, sampler and certification included;
        # the bounds are the measured counts.  Orders read from initial forms
        # cost none, composing the parametrization with a monomial c t^k is an
        # exponent map that costs none either, and verify evaluates only the
        # derivatives of f: on e35_char3 the characteristic divides
        # the fiber degree, so f's initial form vanishes on every sampled arc,
        # and its zero image cost 30 more.
        convolve = series._convolve
        calls = []

        def counted(*args):
            calls.append(args)
            return convolve(*args)

        monkeypatch.setattr(series, "_convolve", counted)
        problem = load_problem(name)
        report = verify_presentation(
            presentation_of(problem),
            problem.arcs,
            problem.options.budget,
            problem.options.seed,
            parametrization=problem.parametrization,
        )
        assert report.verdict == "PASS"
        assert len(calls) <= most

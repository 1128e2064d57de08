import itertools
import random
import signal
from fractions import Fraction

import pytest
from property_checks import from_weighted, observers_agree, odot, parse_rees, random_poly

from arcmult.blowup import ChartMap
from arcmult.errors import NotInSingularLocus, NotPermissible
from arcmult.fields import RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.rees import ReesAlgebra, presenting_algebra

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
XY = ("x", "y")


def algebra(weighted, field=Q, variables=XY):
    return from_weighted(variables, weighted, field)


def grid(field, span=(0, 1, -1, 2, -2)):
    return [(field.coerce(a), field.coerce(b)) for a in span for b in span]


REFERENCE_CHAR0 = [("y", 1), ("x^2", 1), ("x^3", 2)]
CUSP = [("y^2 - x^3", 2)]


class TestSingMember:
    def test_origin_is_singular(self):
        assert algebra(REFERENCE_CHAR0).sing_member((0, 0))

    def test_smooth_point_is_not(self):
        assert not algebra(REFERENCE_CHAR0).sing_member((1, 1))

    def test_single_coordinate(self):
        one_var = from_weighted(("x",), [("x", 1)], Q)
        assert one_var.sing_member((0,))
        assert not one_var.sing_member((1,))


class TestOrdAt:
    def test_char0_elimination_order(self):
        e = from_weighted(("x",), [("x^2", 1), ("x^3", 2)], Q)
        assert e.ord_at((0,)) == Fraction(3, 2)

    def test_char2_elimination_order(self):
        e = from_weighted(("x",), [("x^2", 1)], F2)
        assert e.ord_at((0,)) == 2

    def test_coordinate_has_order_one(self):
        e = from_weighted(("x",), [("x", 1)], Q)
        assert e.ord_at((0,)) == 1

    def test_outside_singular_locus_raises(self):
        with pytest.raises(NotInSingularLocus):
            algebra(REFERENCE_CHAR0).ord_at((1, 1))


class TestOdot:
    def test_concatenates_generators(self):
        joined = odot(algebra([("x", 1)]), algebra([("y", 1)]))
        assert joined == algebra([("x", 1), ("y", 1)])

    def test_intersection_law(self):
        a, b = algebra([("x", 1)]), algebra([("y^2 - x^3", 2)])
        joined = odot(a, b)
        assert joined.sing_member((0, 0))
        assert not joined.sing_member((1, 0))
        for point in grid(Q):
            assert joined.sing_member(point) == (
                a.sing_member(point) and b.sing_member(point)
            )

    def test_idempotent_for_observers(self):
        g = algebra(CUSP)
        doubled = odot(g, g)
        assert observers_agree(g, doubled, grid(Q))

    def test_associative_commutative_for_observers(self):
        a, b, c = algebra([("x", 1)]), algebra([("y", 1)]), algebra(CUSP)
        left = odot(odot(a, b), c)
        right = odot(c, odot(b, a))
        assert observers_agree(left, right, grid(Q))


class TestDiffClosure:
    def test_char0_cusp(self):
        closed = algebra(CUSP).diff_closure()
        texts = closed.generator_texts()
        assert texts == ["y @ 1", "x^2 @ 1", "y^2 - x^3 @ 2"]

    def test_char2_cusp_keeps_equation(self):
        closed = algebra(CUSP, field=F2).diff_closure()
        assert closed.generator_texts() == ["x^2 @ 1", "y^2 + x^3 @ 2"]

    def test_idempotent_as_normalized_sets(self):
        for field in (Q, F2):
            closed = algebra(CUSP, field=field).diff_closure()
            assert closed.diff_closure().generators == closed.generators

    def test_preserves_observers(self):
        g = algebra(CUSP)
        assert observers_agree(g, g.diff_closure(), grid(Q))

    def test_char0_closure_matches_reference_algebra_at_observers(self):
        closed = algebra(CUSP).diff_closure()
        assert observers_agree(closed, algebra(REFERENCE_CHAR0), grid(Q))

    @pytest.mark.parametrize("field", (Q, F2, F3), ids=("Q", "F2", "F3"))
    def test_matches_the_closure_over_every_multi_index(self, field):
        rng = random.Random(f"closure-{field.characteristic}")
        for _ in range(60):
            variables = ("x", "y", "z")[: rng.randint(1, 3)]
            generators = [
                (random_poly(rng, field, variables, max_degree=4, nonzero=True), rng.randint(1, 5))
                for _ in range(rng.randint(1, 3))
            ]
            g = ReesAlgebra.of(variables, generators, field)
            assert g.diff_closure() == _box_closure(g), str(g)

    def test_high_multiplicity_closure_is_fast(self):
        f = parse_poly("z^120 - x^121 - y^123", ("x", "y", "z"), Q)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            closed = presenting_algebra(f)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(closed.generators) == 358


def _box_closure(g):
    """Reference closure: the derivative by every alpha with 1 <= |alpha| < weight."""
    gens = []
    for poly, weight in g.generators:
        gens.append((poly.normalized(), weight))
        for alpha in itertools.product(range(weight), repeat=len(g.variables)):
            if 1 <= sum(alpha) < weight:
                derived = poly.hasse_derivative(alpha)
                if not derived.is_zero():
                    gens.append((derived.normalized(), weight - sum(alpha)))
    return ReesAlgebra.of(g.variables, gens, g.field)


def _alarm(signum, frame):
    raise TimeoutError("closure took over 5 s")


class TestWeightedTransform:
    def x_chart(self, variables=XY):
        return ChartMap(variables, 0, (Fraction(0),) * len(variables))

    def test_cusp_x_chart(self):
        g = algebra(CUSP)
        transformed = g.weighted_transform(self.x_chart(), (0, 0))
        assert transformed == algebra([("y^2 - x", 2)])

    def test_closure_x_chart(self):
        g = algebra(REFERENCE_CHAR0)
        transformed = g.weighted_transform(self.x_chart(), (0, 0))
        assert transformed == algebra([("y", 1), ("x", 1), ("x", 2)])

    def test_not_permissible_outside_sing(self):
        g = algebra(REFERENCE_CHAR0)
        with pytest.raises(NotPermissible):
            g.weighted_transform(self.x_chart(), (1, 1))

    def test_degenerate_line_chart_flags_trivial(self):
        line = from_weighted(("x",), [("x", 1)], Q)
        chart = ChartMap(("x",), 0, (Fraction(0),))
        transformed = line.weighted_transform(chart, (0,))
        assert transformed.is_trivial
        assert not transformed.sing_member((0,))

    def test_errors_exactly_when_center_not_singular(self):
        g = algebra(CUSP)
        for point in grid(Q):
            if g.sing_member(point):
                g.weighted_transform(self.x_chart(), point)
            else:
                with pytest.raises(NotPermissible):
                    g.weighted_transform(self.x_chart(), point)


def test_trivial_algebra_from_unit_generator():
    g = algebra([("1", 2)])
    assert g.is_trivial
    assert not g.sing_member((0, 0))


def test_parse_and_render_round_trip():
    text = "[y^2 - x^3 @ 2, x^2 @ 1]"
    parsed = parse_rees(text, XY, Q)
    assert parsed == algebra([("x^2", 1), ("y^2 - x^3", 2)])
    assert parse_rees(str(parsed), XY, Q) == parsed

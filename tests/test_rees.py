import itertools
import random
import signal
from fractions import Fraction

import pytest
from property_checks import (
    evaluate,
    from_weighted,
    observers_agree,
    odot,
    order_on_sing,
    parse_rees,
    random_poly,
    reference_hasse_derivative,
)

from arcmult.errors import EngineError, NotInSingularLocus
from arcmult.fields import INF, RATIONALS, prime_field
from arcmult.poly import MultiPoly, parse_poly
from arcmult.rees import ReesAlgebra, presenting_algebra

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
XY = ("x", "y")


def algebra(weighted, field=Q, variables=XY):
    return from_weighted(variables, weighted, field)


def grid(field, span=(0, 1, -1, 2, -2)):
    return [(field.coerce(a), field.coerce(b)) for a in span for b in span]


REFERENCE_CHAR0 = [("y", 1), ("x^2", 1), ("x^3", 2)]
CUSP = [("y^2 - x^3", 2)]


class TestSingMember:
    # A point is in Sing exactly where ord_at answers rather than raising.
    def test_origin_is_singular(self):
        assert order_on_sing(algebra(REFERENCE_CHAR0), (0, 0)) == 1

    def test_smooth_point_is_not(self):
        assert order_on_sing(algebra(REFERENCE_CHAR0), (1, 1)) is None

    def test_single_coordinate(self):
        one_var = from_weighted(("x",), [("x", 1)], Q)
        assert order_on_sing(one_var, (0,)) == 1
        assert order_on_sing(one_var, (1,)) is None


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

    def test_each_generator_is_translated_once(self, monkeypatch):
        # ord_at translates each generator once per point asked, for its Sing check and its value.
        e = algebra([("y", 1), ("x^2", 1), ("y^2 - x^3", 2)])
        translated = []
        order_at = MultiPoly.order_at
        monkeypatch.setattr(MultiPoly, "order_at", lambda g, point: translated.append(point) or order_at(g, point))
        assert e.ord_at((0, 0)) == 1 and translated == [(0, 0)] * 3
        with pytest.raises(NotInSingularLocus):
            e.ord_at((1, 0))
        assert algebra([("y^2", 1), ("(x - 1)^3", 1)]).ord_at((1, 0)) == 2
        assert translated == [(0, 0)] * 3 + [(1, 0)] * 5

    def test_trivial_algebra_raises_before_any_translation(self, monkeypatch):
        # A unit generator empties Sing, so no point needs a generator's local order.
        translated = []
        monkeypatch.setattr(MultiPoly, "order_at", lambda g, point: translated.append(point))
        with pytest.raises(NotInSingularLocus):
            algebra([("x", 1), ("1", 2)]).ord_at((0, 0))
        assert translated == []

    def test_empty_generator_list_has_no_observers(self):
        with pytest.raises(EngineError, match="empty generator list"):
            ReesAlgebra.of(XY, [], Q).ord_at((0, 0))

    @pytest.mark.parametrize("field", (Q, F2, F3, F5), ids=("Q", "F2", "F3", "F5"))
    def test_sing_is_where_every_generator_reaches_its_weight(self, field):
        # The local order of g at p read from its Taylor coefficients, the Hasse
        # derivatives evaluated at p, a route that ord_at, which translates g, does
        # not take: ord_at answers min(order / weight) exactly where every order
        # reaches its weight, and raises elsewhere.
        rng = random.Random(f"ord-at-sing-{field.characteristic}")
        points = grid(field, span=(0, 1, -1))
        answered = raised = 0
        for _ in range(25):
            generators = [
                (random_poly(rng, field, max_degree=2, nonzero=True), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
            ]
            rees = ReesAlgebra.of(XY, generators, field)
            if rees.is_trivial:
                continue
            for point in points:
                orders = [(_taylor_order(g, point), w) for g, w in rees.generators]
                if all(o >= w for o, w in orders):
                    assert rees.ord_at(point) == min(Fraction(o) / w for o, w in orders), (rees, point)
                    answered += 1
                else:
                    with pytest.raises(NotInSingularLocus):
                        rees.ord_at(point)
                    raised += 1
        assert answered >= 10 and raised >= 10, (answered, raised)


class TestOdot:
    def test_concatenates_generators(self):
        joined = odot(algebra([("x", 1)]), algebra([("y", 1)]))
        assert joined == algebra([("x", 1), ("y", 1)])

    def test_intersection_law(self):
        a, b = algebra([("x", 1)]), algebra([("y^2 - x^3", 2)])
        joined = odot(a, b)
        assert order_on_sing(joined, (0, 0)) == 1
        assert order_on_sing(joined, (1, 0)) is None
        for point in grid(Q):
            in_both = order_on_sing(a, point) is not None and order_on_sing(b, point) is not None
            assert (order_on_sing(joined, point) is not None) == in_both

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

    @pytest.mark.parametrize("field", (Q, F2, F3, F5), ids=("Q", "F2", "F3", "F5"))
    def test_matches_the_closure_over_every_multi_index(self, field):
        rng = random.Random(f"closure-{field.characteristic}")
        for _ in range(60):
            variables = ("x", "y", "z", "w")[: rng.randint(1, 4)]
            generators = [
                (random_poly(rng, field, variables, max_degree=4, nonzero=True), rng.randint(1, 5))
                for _ in range(rng.randint(1, 3))
            ]
            g = ReesAlgebra.of(variables, generators, field)
            closure = g.diff_closure()
            assert closure == _box_closure(g), str(g)
            # `closed` lets visible_elimination skip a second closure: it is a fixed point.
            assert closure.closed and not g.closed and closure.diff_closure() == closure, str(g)

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
    """Reference closure: the derivative by every alpha with 1 <= |alpha| < weight, each
    taken alone by `reference_hasse_derivative`."""
    gens = []
    for poly, weight in g.generators:
        gens.append((poly.normalized(), weight))
        for alpha in itertools.product(range(weight), repeat=len(g.variables)):
            if 1 <= sum(alpha) < weight:
                derived = reference_hasse_derivative(poly, alpha)
                if not derived.is_zero():
                    gens.append((derived.normalized(), weight - sum(alpha)))
    return ReesAlgebra.of(g.variables, gens, g.field)


def _taylor_order(poly, point):
    """Least |alpha| with D^alpha f (p) nonzero, INF when f = 0."""
    for total in range(poly.total_degree() + 1):
        for head in range(total + 1):
            if not poly.field.is_zero(evaluate(reference_hasse_derivative(poly, (head, total - head)), point)):
                return total
    return INF


def _alarm(signum, frame):
    raise TimeoutError("closure took over 5 s")


def test_trivial_algebra_from_unit_generator():
    g = algebra([("1", 2)])
    assert g.is_trivial
    assert order_on_sing(g, (0, 0)) is None


def test_parse_and_render_round_trip():
    text = "[y^2 - x^3 @ 2, x^2 @ 1]"
    parsed = parse_rees(text, XY, Q)
    assert parsed == algebra([("x^2", 1), ("y^2 - x^3", 2)])
    assert parse_rees(str(parsed), XY, Q) == parsed


@pytest.mark.parametrize("field", (Q, F2, F3, prime_field(5)), ids=("Q", "F2", "F3", "F5"))
def test_generator_order_matches_the_formatted_key(field):
    # `of` formats only the generators tied on (weight, order at the origin); the order
    # is the one of the key (weight, lowest degree, text) over all of them.
    rng = random.Random(f"generator-order-{field.characteristic}")
    tied = 0
    for _ in range(100):
        count = rng.randint(2, 8)
        generators = [(random_poly(rng, field, max_degree=2), rng.choice((0, 1, 1, 2))) for _ in range(count)]
        generators += rng.sample(generators, 2)  # repeats, which `of` drops
        kept = [g for g in dict.fromkeys(generators) if not g[0].is_zero() and g[1] >= 1]
        key = {g: (g[1], min(sum(e) for e in g[0].terms), str(g[0])) for g in kept}
        tied += len({k[:2] for k in key.values()}) < len(kept)
        assert ReesAlgebra.of(XY, generators, field).generators == tuple(sorted(kept, key=key.get))
    assert tied >= 30, "too few algebras with tied generators"

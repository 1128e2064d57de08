import itertools
import math
import random
from fractions import Fraction

import pytest
from property_checks import (
    assert_well_formed,
    random_point,
    random_poly,
    reference_hasse_derivative,
    reference_shift,
    ring_map_translate,
    time_limit,
)

from arcmult.errors import ParseError, VariableMismatch
from arcmult.fields import INF, RATIONALS, FieldSpec, prime_field
from arcmult.poly import MultiPoly, origin, parse_poly
from arcmult.series import Arc, TruncatedSeries, arc_image, arc_substitute, parse_series

XY = ("x", "y")
FIELDS = (RATIONALS, prime_field(2), prime_field(3))
FIELD_IDS = ("Q", "F2", "F3")


def P(text, variables=XY, field=RATIONALS):
    return parse_poly(text, variables, field)


class TestOrderAt:
    def test_cusp_at_origin(self):
        assert P("y^2 - x^3").order_at((0, 0)) == 2

    def test_unit_everywhere(self):
        one = P("1")
        assert one.order_at((0, 0)) == 0
        assert one.order_at((5, -2)) == 0

    def test_cusp_at_smooth_point(self):
        # f(x+1, y+1) has linear part -3x + 2y
        assert P("y^2 - x^3").order_at((1, 1)) == 1

    def test_zero_polynomial_is_infinite(self):
        zero = MultiPoly.zero(XY, RATIONALS)
        assert zero.order_at((0, 0)) == INF

    def test_point_length_checked(self):
        with pytest.raises(VariableMismatch):
            P("x").order_at((1, 2, 3))


XYZW = ("x", "y", "z", "w")


class TestHasseDerivative:
    def test_first_derivative(self):
        assert P("x^3").hasse_derivatives(2) == {(1, 0): P("3*x^2")}

    def test_char2_first_derivative_vanishes(self):
        f2 = prime_field(2)
        assert P("y^2", field=f2).hasse_derivatives(2) == {}

    def test_char2_divided_second_derivative(self):
        f2 = prime_field(2)
        assert P("y^2", field=f2).hasse_derivatives(3) == {(0, 2): P("1", field=f2)}

    def test_matches_scaled_partials_over_q(self):
        # a! * hasse(a) equals the iterated partial derivative
        f = P("x^3*y^2 - 2*x*y + 7")
        derivatives = f.hasse_derivatives(3)
        assert derivatives[(1, 0)] == P("3*x^2*y^2 - 2*y")
        # second iterated partial = 6xy^2; 2! * hasse = 2*(3xy^2)
        assert derivatives[(2, 0)].scale(2) == P("6*x*y^2")

    @pytest.mark.parametrize("field", FIELDS + (prime_field(5),), ids=FIELD_IDS + ("F5",))
    def test_one_walk_matches_the_reference_per_multi_index(self, field):
        # Every multi-index 1 <= |alpha| < order whose derivative is nonzero, and no
        # other: over F_p exponents up to 6 make binomials vanish mod p.
        rng = random.Random(f"hasse-derivatives-{field.characteristic}")
        for _ in range(80):
            variables = XYZW[: rng.randint(1, 4)]
            poly = random_poly(rng, field, variables, max_degree=6, max_terms=5)
            order = rng.randint(1, 6)
            expected = {}
            for alpha in itertools.product(range(order), repeat=len(variables)):
                if 1 <= sum(alpha) < order:
                    derived = reference_hasse_derivative(poly, alpha)
                    if not derived.is_zero():
                        expected[alpha] = derived
            derivatives = poly.hasse_derivatives(order)
            for derived in derivatives.values():
                assert_well_formed(derived)
            assert derivatives == expected, (str(poly), order)


class TestSparseView:
    @pytest.mark.parametrize("field", FIELDS + (prime_field(5),), ids=FIELD_IDS + ("F5",))
    def test_each_term_lists_its_nonzero_exponents(self, field):
        rng = random.Random(f"sparse-view-{field.characteristic}")
        for _ in range(100):
            poly = random_poly(rng, field, XYZW[: rng.randint(1, 4)], max_degree=3, max_terms=5)
            view = poly.sparse_terms()
            assert view is poly.sparse_terms()  # kept from the first read
            assert len(view) == len(poly.terms)
            for (exps, coeff), (pairs, c) in zip(poly.terms.items(), view, strict=True):
                assert c == coeff
                assert [i for i, _ in pairs] == [i for i in range(len(exps)) if exps[i] > 0], str(poly)
                assert all(exps[i] == e for i, e in pairs)

    def test_each_polynomial_reads_its_own_view(self):
        # A view read before a scale, a negation or a sum is never the result's.
        f = P("x^2 + 3*y")
        assert dict(f.sparse_terms()) == {((0, 2),): 1, ((1, 1),): 3}
        assert dict(f.scale(2).sparse_terms()) == {((0, 2),): 2, ((1, 1),): 6}
        assert dict((-f).sparse_terms()) == {((0, 2),): -1, ((1, 1),): -3}
        assert dict((f + P("y")).sparse_terms()) == {((0, 2),): 1, ((1, 1),): 4}

    def test_the_cleared_view_is_built_once(self, monkeypatch):
        # The lead sums, the arc images and the Hasse derivatives all read one cleared
        # view, made by one `FieldSpec.cleared` call on the polynomial's coefficients.
        f = P("x^2 + 3*y - x*y^2").scale(Fraction(1, 6))
        coefficients = list(f.terms.values())
        calls = []
        cleared = FieldSpec.cleared
        monkeypatch.setattr(FieldSpec, "cleared", lambda field, values: calls.append(list(values)) or cleared(field, values))
        scale, members = f.cleared_view()
        assert f.cleared_view() == (scale, members)
        along = Arc(("x", "y"), (parse_series("t + t^2", RATIONALS), parse_series("2*t", RATIONALS)))
        arc_image(f, along)
        leads = (TruncatedSeries.t_power(RATIONALS, 1, Fraction(1, 2)), TruncatedSeries.t_power(RATIONALS, 2, Fraction(3)))
        arc_substitute(f, Arc(("x", "y"), leads))
        f.hasse_derivatives(3)
        assert calls.count(coefficients) == 1
        assert [Fraction(c, scale) for c, _ in members] == coefficients
        assert [pairs for _, pairs in members] == [pairs for pairs, _ in f.sparse_terms()]


class TestTranslateSubstitute:
    def test_translate_by_origin_is_identity(self):
        f = P("y^2 - x^3")
        assert f.translate((0, 0)) == f

    def test_translate_expands_binomially(self):
        assert P("x^2", ("x",)).translate((1,)) == P("x^2 + 2*x + 1", ("x",))

    def test_translation_composition(self):
        f = P("y^2 - x^3 + 5*x*y")
        p = (Fraction(2), Fraction(-1, 2))
        minus = (Fraction(-2), Fraction(1, 2))
        assert f.translate(p).translate(minus) == f

    def test_substitute_is_ring_homomorphism(self):
        xyt = ("x", "y", "t")
        f = P("y^2 - x^3", xyt)
        values = {
            "x": P("x*t", xyt),
            "y": P("y*t", xyt),
        }
        assert f.substitute(values) == P("y^2*t^2 - x^3*t^3", xyt)

    def test_substitute_requires_matching_field(self):
        f = P("x")
        with pytest.raises(Exception):
            f.substitute({"x": P("x", field=prime_field(3))})


def test_order_multiplicative_spot():
    f = P("y^2 - x^3")
    g = P("x + y")
    point = (Fraction(0), Fraction(0))
    assert (f * g).order_at(point) == f.order_at(point) + g.order_at(point)


def test_coefficients_in_and_restrict():
    f = P("y^2 + x*y + x^3")
    coefficients = f.coefficients_in("y")
    assert coefficients[2] == P("1")
    assert coefficients[1] == P("x")
    assert coefficients[0] == P("x^3")
    assert coefficients[0].restrict(("x",)) == P("x^3", ("x",))
    with pytest.raises(VariableMismatch):
        f.restrict(("x",))


def test_extend_keeps_values():
    f = P("y^2 - x^3")
    g = f.extend(("x", "y", "w"))
    assert g.variables == ("x", "y", "w")
    assert g.order_at_origin() == 2
    assert g.restrict(XY) == f


def test_normalized_scales_lowest_term_to_one():
    f = P("2*y + 4*x^2")
    assert f.normalized() == P("y + 2*x^2")
    g = P("y^2 - x^3")
    assert g.normalized() == g


def test_str_round_trips_through_parser():
    for text in ("y^2 - x^3", "1 - x^3*y", "x^2 + 2*x + 1", "3*x*y - 7"):
        f = P(text)
        assert parse_poly(str(f), XY, RATIONALS) == f


def test_str_of_prime_field_polys():
    f2 = prime_field(2)
    assert str(P("y^2 - x^3", field=f2)) == "y^2 + x^3"


def reference_product(f, g):
    """Term-by-term product through the field operations."""
    field = f.field
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = field.add(terms.get(e, field.zero), field.mul(c1, c2))
    return MultiPoly(f.variables, terms, field)


def product_operands(rng, field):
    """A random polynomial, the zero polynomial, a constant and, over Q, non-integer scalings."""
    f = random_poly(rng, field)
    operands = [f, MultiPoly.zero(XY, field), MultiPoly.constant(rng.randint(-3, 3), XY, field)]
    if field.characteristic == 0:
        operands += [f.scale(Fraction(1, 3)), f.normalized()]
    return operands


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_product_matches_term_by_term_reference(field):
    rng = random.Random(f"product-{field.characteristic}")
    for _ in range(40):
        for f in product_operands(rng, field):
            for g in product_operands(rng, field):
                assert f * g == reference_product(f, g), f"{f} times {g}"


def one_term_bases(field):
    """c x^e in three variables, c = +-1, +-2 and over Q 1/3, e = 0 among the exponents."""
    coefficients = (1, -1, 2, -2) + ((Fraction(1, 3),) if field.characteristic == 0 else ())
    exponents = ((0, 0, 0), (1, 0, 0), (0, 2, 1), (3, 1, 2))
    return [MultiPoly(("x", "y", "z"), {e: c}, field) for c in coefficients for e in exponents]


@pytest.mark.parametrize("field", (*FIELDS, prime_field(5)), ids=(*FIELD_IDS, "F5"))
def test_power_matches_repeated_products(field):
    # Random bases take the repeated squaring; one-term bases, c^n x^(n e), do not.
    rng = random.Random(f"power-{field.characteristic}")
    bases = []
    for _ in range(4):
        f = random_poly(rng, field)
        if field.characteristic == 0:
            f = f.scale(Fraction(1, 3))
        bases.append(f)
    for f in bases + one_term_bases(field):
        expected = MultiPoly.constant(1, f.variables, field)
        for n in range(13):
            power = f**n
            assert power == expected, f"({f})^{n}"
            assert_well_formed(power)
            expected = expected * f


@pytest.mark.parametrize("field", (*FIELDS, prime_field(5)), ids=(*FIELD_IDS, "F5"))
def test_power_caps_are_checked_before_a_power_is_built(field, monkeypatch):
    assert P("x^1000", field=field).terms == {(1000, 0): field.one}
    monkeypatch.setattr(MultiPoly, "__pow__", lambda *args: pytest.fail("a power was built"))
    with pytest.raises(ParseError, match="power of total degree above 1000"):
        P("x^1001", field=field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_evaluate_is_the_constant_term_of_the_translate(field):
    rng = random.Random(f"evaluate-{field.characteristic}")
    for _ in range(60):
        f = random_poly(rng, field)
        point = random_point(rng, field)
        assert f.evaluate(point) == f.translate(point).constant_value(), f"{f} at {point}"


SHIFT_FIELDS = (*FIELDS, prime_field(5))
SHIFT_IDS = (*FIELD_IDS, "F5")


def shift_point(rng, field, width=3):
    """A point with at least two nonzero coordinates; halves and integers over Q."""
    units = field.units(4)
    coords = [rng.choice(units) for _ in range(2)]
    coords += [rng.choice((field.zero, *units)) for _ in range(width - 2)]
    rng.shuffle(coords)
    if field.characteristic == 0:
        coords = [c / rng.choice((1, 2)) for c in coords]
    return tuple(coords)


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=SHIFT_IDS)
def test_taylor_shift_matches_the_ring_map(field):
    rng = random.Random(f"shift-{field.characteristic}")
    xyz = ("x", "y", "z")
    for _ in range(40):
        f = random_poly(rng, field, xyz, max_degree=7, max_terms=6)
        point = shift_point(rng, field)
        shifted = f.translate(point)
        assert shifted == ring_map_translate(f, point), f"{f} at {point}"
        assert_well_formed(shifted)


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=SHIFT_IDS)
def test_sparse_taylor_shift_matches_the_dense_reference(field):
    # Widths 1-4, one or more nonzero coordinates.  A third of the polynomials leave
    # out the moved variables, and a third are h(x - p), so that shifting back by p
    # cancels expanded terms against the fixed ones.
    rng = random.Random(f"sparse-shift-{field.characteristic}")
    units = field.units(4)
    for width in (1, 2, 3, 4):
        variables = ("x", "y", "z", "w")[:width]
        for _ in range(30):
            moved = rng.sample(range(width), rng.randint(1, width))
            point = tuple(rng.choice(units) if i in moved else field.zero for i in range(width))
            kind = rng.randrange(3)
            f = random_poly(rng, field, variables, max_degree=5, max_terms=6)
            if kind == 0:
                f = MultiPoly(variables, {e: c for e, c in f.terms.items() if not any(e[i] for i in moved)}, field)
            elif kind == 1:
                f = f.translate(tuple(field.neg(c) for c in point))
            shifted = f.translate(point)
            assert shifted == reference_shift(f, point), f"{f} at {point}"
            assert_well_formed(shifted)
            if kind == 0:
                assert shifted == f


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=SHIFT_IDS)
def test_a_degree_bound_keeps_the_low_terms_of_the_whole_shift(field):
    # `nash_sequence` shifts with a total-degree bound: the result is the whole shift's
    # terms of degree at most the bound, also when a later coordinate's shift lowers
    # the degree of a term that an earlier one built.  It passes `caps` too: each capped
    # coordinate that the point moves keeps the terms of at most that degree in it, and
    # a capped coordinate that the point does not move keeps every term.
    rng = random.Random(f"bounded-shift-{field.characteristic}")
    cap_rng = random.Random(f"capped-shift-{field.characteristic}")
    units = field.units(4)
    lowered = capped = 0
    for width in (2, 3, 4):
        variables = ("x", "y", "z", "w")[:width]
        for _ in range(30):
            moved = rng.sample(range(width), rng.randint(1, width))
            point = tuple(rng.choice(units) if i in moved else field.zero for i in range(width))
            f = random_poly(rng, field, variables, max_degree=7, max_terms=6)
            whole = f.translate(point)
            bound = rng.randint(0, 6)
            low = {e: c for e, c in whole.terms.items() if sum(e) <= bound}
            assert f._shift(point, None, bound).terms == low, f"{f} at {point} to degree {bound}"
            lowered += any(sum(e) > bound for e in f.terms) and bool(low)
            caps = {i: cap_rng.randint(0, 4) for i in cap_rng.sample(range(width), cap_rng.randint(1, width))}
            kept = {
                e: c for e, c in low.items() if all(e[i] <= cap for i, cap in caps.items() if i in moved)
            }
            assert f._shift(point, caps, bound).terms == kept, f"{f} at {point} to degree {bound} under {caps}"
            capped += len(kept) < len(low)
    assert lowered > 20
    assert capped > 15


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=SHIFT_IDS)
def test_taylor_shift_cancels_an_expanded_term_against_a_fixed_one(field):
    # x*y - c*y + z at x -> x + c: the expanded c*y meets the fixed -c*y and vanishes.
    xyz = ("x", "y", "z")
    c = field.units(4)[-1]
    f = MultiPoly(xyz, {(1, 1, 0): 1, (0, 1, 0): field.neg(c), (0, 0, 1): 1}, field)
    point = (c, field.zero, field.zero)
    shifted = f.translate(point)
    assert shifted == P("x*y + z", xyz, field) == reference_shift(f, point)
    assert_well_formed(shifted)


@pytest.mark.parametrize("field, c", [(RATIONALS, Fraction(-2, 3)), (prime_field(5), 3)], ids=["Q", "F5"])
def test_taylor_shift_of_degree_999_is_the_binomial_expansion(field, c):
    f = P("x^999", ("x",), field)
    expected = {(k,): math.comb(999, k) * field.coerce(c) ** (999 - k) for k in range(1000)}
    assert f.translate((c,)) == MultiPoly(("x",), expected, field)


@pytest.mark.parametrize("p, k", [(2, 9), (3, 6), (5, 4)])
def test_taylor_shift_stays_sparse_in_characteristic_p(p, k):
    # Over F_p, (x + 1)^(p^k) = x^(p^k) + 1: every other binomial vanishes mod p.
    field, q = prime_field(p), p**k
    x, y = (MultiPoly.variable(v, XY, field) for v in XY)
    one = MultiPoly.constant(1, XY, field)
    f = (x + one) ** q * (y - one) ** q
    assert len(f.terms) == 4
    assert f.translate((-1, 1)) == (x * y) ** q


class TestParser:
    def test_rejects_double_caret(self):
        with pytest.raises(ParseError):
            P("y^^2")

    def test_rejects_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            P("y^2 - z^3")
        assert "z" in str(err.value)

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            P("x + ")

    def test_reports_column(self):
        with pytest.raises(ParseError) as err:
            P("x + %")
        assert err.value.column == 5

    def test_unary_minus_and_parentheses(self):
        assert P("-x + y") == P("y - x")
        assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")

    def test_integer_coefficients_reduce_mod_p(self):
        f3 = prime_field(3)
        assert P("3*x + 4*y", field=f3) == P("y", field=f3)

    @pytest.mark.parametrize(
        "text, expected",
        [("x - x", "0"), ("x - x + y", "y"), ("-x + x + x", "x"), ("x + y - (x + y) + 2*x", "2*x")],
    )
    def test_sums_cancel_and_refill(self, text, expected):
        assert P(text) == P(expected)

    def test_a_long_sum_parses_in_linear_time(self):
        # 16,000 summands (227 KB), each a new monomial, are merged into one term map
        # once, not copied into a growing sum once per summand.
        monomials = [(i, j) for i in range(179) for j in range(179 - i)][:16000]
        summands = [f"{k % 7 + 1}*x^{i}*y^{j}" for k, (i, j) in enumerate(monomials)]
        with time_limit(5):
            poly = P(" - ".join(summands))
        assert len(poly.terms) == 16000
        assert poly.terms[(0, 0)] == 1 and poly.terms[monomials[-1]] == -(15999 % 7 + 1)
        head = " + ".join(summands[:2000])
        assert P(f"({head}) - ({head})").is_zero()

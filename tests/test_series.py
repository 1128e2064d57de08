import hashlib
import random
from fractions import Fraction

import pytest
from property_checks import (
    XY,
    horner_compose,
    padded_quotient,
    random_poly,
    reference_lead_sums,
    reference_ring_map,
)

from arcmult.errors import ArcNotOnVariety, EngineError, InvalidArc
from arcmult import series
from arcmult.fields import INF, RATIONALS, FieldSpec, prime_field
from arcmult.poly import parse_poly
from arcmult.rees import presenting_algebra
from arcmult.series import (
    Arc,
    TruncatedSeries,
    arc_image,
    arc_substitute,
    certify_on_hypersurface,
    class_sum,
    cleared_leads,
    degree_classes,
    parse_series,
)

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def S(text, field=Q):
    return parse_series(text, field)


def arc(field, *texts, variables=("x", "y")):
    return Arc(variables[: len(texts)], tuple(S(t, field) for t in texts), field)


class TestSeriesOrder:
    def test_monomial(self):
        assert S("t^4").order() == 4

    def test_exact_zero_is_infinite(self):
        assert S("0").order() == INF

    def test_substitution_of_arc_on_curve_is_exact_zero(self):
        f = parse_poly("y^2 - x^3", ("x", "y"), F2)
        image = arc_substitute(f, arc(F2, "t^2", "t^3"))
        assert image.is_exactly_zero()
        assert image.order() == INF

    def test_every_coefficient_past_the_stored_ones_is_zero(self):
        series = TruncatedSeries.exact_series(F3, (0, 3, 6))  # 3 and 6 vanish in F_3
        assert series.is_exactly_zero() and series.order() == INF
        assert S("t^2", F3).coefficient(1000) == 0

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_t_power_is_the_padded_exact_series(self, field):
        for k in (0, 1, 5):
            for coeff in (1, 2, 3, Fraction(1, 5)):
                power = TruncatedSeries.t_power(field, k, coeff)
                assert power == TruncatedSeries.exact_series(field, [0] * k + [coeff])
                assert power.order() == (INF if power.is_exactly_zero() else k)


class TestArithmetic:
    def test_add_mul(self):
        assert S("t + t^2") + S("t^2") == S("t + 2*t^2")
        assert S("t") * S("t^2 + 1") == S("t + t^3")

    def test_pow(self):
        assert S("t + t^2") ** 2 == S("t^2 + 2*t^3 + t^4")

    def test_order_additive_under_mul(self):
        a = S("t^2 + t^5")
        b = S("3*t^3")
        assert (a * b).order() == a.order() + b.order()


def random_coeffs(rng, field, length):
    """Random coefficients with a run of zeros at one or both ends."""
    if field.characteristic == 0:
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(length)]
    else:
        values = [rng.randrange(field.characteristic) for _ in range(length)]
    head = rng.choice((0, 0, rng.randint(1, length)))
    tail = rng.choice((0, 0, rng.randint(0, length - head)))
    return [field.zero] * head + values[head : length - tail] + [field.zero] * tail


def random_series(rng, field):
    return TruncatedSeries.exact_series(field, random_coeffs(rng, field, rng.randint(1, 40)))


def reference_product(a, b):
    """Schoolbook convolution through the field operations."""
    field = a.field
    full = [field.zero] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            full[i + j] = field.add(full[i + j], field.mul(x, y))
    return TruncatedSeries.exact_series(field, full)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_product_matches_reference_convolution(field):
    rng = random.Random(f"{field.characteristic}-True-True")
    for _ in range(60):
        a = random_series(rng, field)
        b = random_series(rng, field)
        assert a * b == reference_product(a, b)


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_padded_quotient_inverts_the_product(field):
    # The stepwise Nash reference lifts by `padded_quotient`: a product a * b divided by
    # b, whose constant is a unit, gives back a's first n coefficients.
    rng = random.Random(f"padded-quotient-{field.characteristic}")
    for _ in range(60):
        a, b = random_series(rng, field), random_series(rng, field)
        b = TruncatedSeries.exact_series(field, [rng.choice(field.units(6)), *b.coeffs])
        n = rng.randint(1, 50)
        quotient = padded_quotient(field, (a * b).coeffs, b.coeffs, n)
        assert quotient == [a.coefficient(k) for k in range(n)], (a, b, n)


class TestReparametrize:
    def test_identity(self):
        phi = arc(Q, "t^2", "t^3")
        assert phi.reparametrize(1) == phi

    def test_exponent_scaling(self):
        assert arc(Q, "t^2", "t^3").reparametrize(3) == arc(Q, "t^6", "t^9")

    def test_order_scales(self):
        phi = arc(Q, "t^2", "t^3")
        assert phi.reparametrize(5).order() == 5 * phi.order()


class TestArc:
    def test_order_examples(self):
        assert arc(Q, "t^2", "t^3").order() == 2
        assert arc(Q, "t", "0").order() == 1
        assert arc(Q, "3*t^5 + t^7", "t^6").order() == 5

    def test_requires_zero_constant_term(self):
        with pytest.raises(InvalidArc):
            arc(Q, "1 + t", "t")

    def test_requires_some_nonzero_component(self):
        with pytest.raises(InvalidArc):
            arc(Q, "0", "0")

    def test_an_all_zero_arc_has_no_order(self):
        # An all-zero arc (built past the constructor's check) has no order.
        zero = Arc._of(("x", "y"), (S("0"), S("0")), Q)
        for _ in range(2):
            with pytest.raises(InvalidArc):
                zero.order()

    @staticmethod
    def random_arcs(rng, field, count):
        """Arcs of 1 to 3 components, each zero, a monomial c t^k or a polynomial
        without constant term; some component is nonzero."""
        arcs = []
        while len(arcs) < count:
            components = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(3)
                if kind == 0:
                    components.append(TruncatedSeries.zero(field))
                elif kind == 1:
                    components.append(TruncatedSeries.t_power(field, rng.randint(1, 6), rng.choice(field.units(6))))
                else:
                    components.append(TruncatedSeries.exact_series(field, [field.zero, *random_coeffs(rng, field, rng.randint(1, 8))]))
            if any(c.coeffs for c in components):
                arcs.append(Arc(("x", "y", "z")[: len(components)], tuple(components), field))
        return arcs

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
    def test_order_is_the_least_component_order(self, field):
        # nu_t of an arc: the first power of t at which some component has a nonzero
        # coefficient, found by a scan of every component one power at a time.
        for phi in self.random_arcs(random.Random(f"arc-order-{field.characteristic}"), field, 100):
            least = next(k for k in range(20) if any(c.coefficient(k) for c in phi.components))
            assert phi.order() == least, phi

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
    def test_leads_are_each_components_lowest_term(self, field):
        # Every component is a polynomial, so each lead is read off its coefficients: the
        # order and the coefficient there, None for a zero component, and whether every
        # component has at most one term.
        shapes = set()
        for phi in self.random_arcs(random.Random(f"arc-leads-{field.characteristic}"), field, 100):
            pattern, lows, monomial = phi.leads()
            for c, k, low in zip(phi.components, pattern, lows):
                nonzero = [i for i in range(len(c.coeffs)) if c.coefficient(i)]
                assert (k, low) == ((nonzero[0], c.coefficient(nonzero[0])) if nonzero else (None, None))
            assert monomial == all(sum(1 for x in c.coeffs if x) <= 1 for c in phi.components)
            assert phi.leads() is phi.leads()
            shapes.add(monomial)
            shapes.add(None in pattern)
        assert shapes == {True, False}

    def test_substitute_examples(self):
        assert arc_substitute(parse_poly("x^2", ("x", "y"), Q), arc(Q, "t^2", "t^3")) == S("t^4")
        on_curve = arc_substitute(parse_poly("y^2 - x^3", ("x", "y"), Q), arc(Q, "t^2", "t^3"))
        assert on_curve.is_exactly_zero()
        off_curve = arc_substitute(parse_poly("y^2 - x^3", ("x", "y"), Q), arc(Q, "t^3", "t^2"))
        assert off_curve == S("t^4 - t^9")

    def test_certificate_along_a_monomial_arc_builds_no_zero_padding(self, monkeypatch):
        # y^2 and x^21 both map to t^168 along (t^8, t^84); their sum vanishes, so the
        # image is the zero series with no list of 169 zeros to trim.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        phi = arc(Q, "t^8", "t^84")
        compared = []
        eq = Fraction.__eq__
        monkeypatch.setattr(Fraction, "__eq__", lambda a, b: compared.append(a) or eq(a, b))
        certify_on_hypersurface(f, phi, None)
        assert compared == []
        monkeypatch.undo()
        off = parse_poly("y^2 - x^21 - 2*x^3", ("x", "y"), Q)
        assert arc_substitute(off, phi) == arc_image(off, phi).series(Q) == S("-2*t^24")

    def test_a_certificate_is_kept_for_its_polynomial_only(self):
        # The arc keeps the f it was certified on; another f is checked afresh.
        phi = arc(Q, "t^2", "t^3")
        certify_on_hypersurface(parse_poly("y^2 - x^3", ("x", "y"), Q), phi, None)
        with pytest.raises(ArcNotOnVariety):
            certify_on_hypersurface(parse_poly("y^2 - x^5", ("x", "y"), Q), phi, None)

    def test_substitute_is_ring_homomorphism_spot(self):
        phi = arc(Q, "t^2 + t^3", "t^3")
        f = parse_poly("y^2 - x^3", ("x", "y"), Q)
        g = parse_poly("x + y", ("x", "y"), Q)
        assert arc_substitute(f * g, phi) == arc_substitute(f, phi) * arc_substitute(g, phi)
        assert arc_substitute(f + g, phi) == arc_substitute(f, phi) + arc_substitute(g, phi)

    def test_compose(self):
        phi = arc(Q, "t^2", "t^3")
        inner = S("t + t^2")
        composed = phi.compose(inner)
        assert composed.component("x") == inner * inner
        assert composed.component("y") == inner * inner * inner

    def test_projection(self):
        phi = arc(Q, "t^2", "t^3")
        projected = phi.project(("x",))
        assert projected.variables == ("x",)
        assert projected.order() == 2


def random_arc(rng, field):
    """An arc in x, y whose components are polynomials of up to 8 coefficients."""
    components = tuple(
        TruncatedSeries.exact_series(field, [field.zero] + random_coeffs(rng, field, rng.randint(1, 7))) for _ in XY
    )
    if all(c.is_exactly_zero() for c in components):
        return random_arc(rng, field)
    return Arc(XY, components, field)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_shared_powers_give_the_same_images(field):
    rng = random.Random(f"shared-powers-{field.characteristic}")
    for _ in range(20):
        f = random_poly(rng, field, nonzero=True)
        phi = random_arc(rng, field)
        shared = phi.powers()
        for poly, _ in presenting_algebra(f).generators:
            assert arc_image(poly, phi, shared).series(field) == arc_substitute(poly, phi), f"{poly} along {phi}"


def varied_series(rng, field, constant=False):
    """A polynomial, three times in four, or the zero series; the polynomial has a zero
    constant term unless `constant`, and runs of zeros at either end."""
    if rng.random() < 0.25:
        return TruncatedSeries.zero(field)
    coeffs = ([] if constant else [field.zero]) + random_coeffs(rng, field, rng.randint(1, 6))
    return TruncatedSeries.exact_series(field, coeffs)


def described(s):
    return s.coeffs, str(s), s.order()


FIELDS = pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])


@FIELDS
def test_arc_substitute_matches_the_generic_ring_map(field):
    # The integer kernel against the ring map folded by TruncatedSeries products and sums.
    rng = random.Random(f"cleared-image-{field.characteristic}")
    outcomes = set()
    for _ in range(400):
        components = (varied_series(rng, field), varied_series(rng, field))
        if all(c.is_exactly_zero() for c in components):
            continue
        phi = Arc(XY, components, field)
        f = random_poly(rng, field, max_degree=4, max_terms=5)
        if field.characteristic == 0:
            f = f + random_poly(rng, field).scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        one = TruncatedSeries.t_power(field, 0)
        expected = reference_ring_map(f, phi.components, one, TruncatedSeries.zero(field))
        image = arc_substitute(f, phi)
        assert described(image) == described(expected), f"{f} along {phi}"
        outcomes.add(image.is_exactly_zero())
    assert outcomes == {True, False}


#: Nonzero leads of a component: over Q some are not integers.
LEADS = {
    0: (1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3, 7)),
    2: (1,),
    3: (1, 2),
    5: (1, 2, 3, 4),
}


@FIELDS
def test_lead_sums_of_the_view_match_the_dense_reference(field):
    # Patterns with zero components (None), whose terms drop out, in 1-4 variables, and
    # over Q leads with denominators 2, 3, 4 and 7: each integer `class_sum` of a degree
    # class at the `cleared_leads`, read as sum / (scale * b^d), equals the dense loop's
    # fraction, zeros included.
    rng = random.Random(f"lead-sums-{field.characteristic}")
    for _ in range(300):
        variables = ("x", "y", "z", "w")[: rng.randint(1, 4)]
        poly = random_poly(rng, field, variables, max_degree=4, max_terms=6)
        pattern = tuple(None if rng.random() < 0.3 else rng.randint(1, 4) for _ in variables)
        choices = LEADS[field.characteristic]
        leads = tuple(None if a is None else field.coerce(rng.choice(choices)) for a in pattern)
        expected = reference_lead_sums(poly.terms.items(), pattern, leads, field.characteristic)
        units, b = cleared_leads(pattern, leads)
        scale = poly.cleared_view()[0]
        sums = {d: class_sum(members, units, field.characteristic) for d, members in degree_classes(poly, pattern)}
        assert sums.keys() == expected.keys(), (str(poly), pattern, leads)
        for degree, total in sums.items():
            num, den = expected[degree]
            assert (total == 0) == (num == 0), (str(poly), pattern, leads, degree)
            assert Fraction(total, scale * b**degree) == Fraction(num, den), (str(poly), pattern, leads, degree)


@FIELDS
def test_compose_matches_horner(field):
    rng = random.Random(f"compose-horner-{field.characteristic}")
    for _ in range(400):
        outer = varied_series(rng, field, constant=True)
        inner = varied_series(rng, field, constant=rng.random() < 0.1)
        try:
            expected = described(horner_compose(outer, inner))
        except EngineError as error:
            expected = type(error)
        try:
            composed = described(outer.compose(inner))
        except EngineError as error:
            composed = type(error)
        assert composed == expected, f"{outer} o {inner}"


#: The c of a monomial inner c t^k: small integers and 1/2 over Q, every unit over F_p.
MONOMIAL_COEFFICIENTS = {0: (1, -1, 2, -3, Fraction(1, 2)), 2: (1,), 3: (1, 2), 5: (1, 2, 3, 4)}


@FIELDS
def test_monomial_inner_is_an_exponent_map(field, monkeypatch):
    # t -> c t^k puts a_j c^j at t^(jk) with no ring-map kernel; the result is
    # Horner's, coefficient types included.
    monkeypatch.setattr(series, "_image", lambda *args: pytest.fail("monomial inner went through _image"))
    rng = random.Random(f"monomial-compose-{field.characteristic}")
    kinds = set()
    for c in MONOMIAL_COEFFICIENTS[field.characteristic]:
        for k in range(1, 5):
            inner = TruncatedSeries.t_power(field, k, c)
            for _ in range(12):
                outer = varied_series(rng, field, constant=True)
                composed = outer.compose(inner)
                expected = horner_compose(outer, inner)
                assert described(composed) == described(expected), f"{outer} o {inner}"
                assert list(map(type, composed.coeffs)) == list(map(type, expected.coeffs))
                kinds.add(outer.is_exactly_zero())
    assert kinds == {True, False}


@FIELDS
def test_arc_compose_matches_horner_per_component(field):
    rng = random.Random(f"arc-compose-horner-{field.characteristic}")
    for _ in range(100):
        phi = random_arc(rng, field)
        inner = varied_series(rng, field)
        if inner.is_exactly_zero():  # every component would be zero: not an arc
            continue
        composed = [described(c) for c in phi.compose(inner).components]
        assert composed == [described(horner_compose(c, inner)) for c in phi.components]


def test_arc_compose_builds_powers_only_for_a_non_monomial_inner(monkeypatch):
    # A monomial inner is an exponent map on each component and reads no power cache.
    built = []
    powers = series._powers
    monkeypatch.setattr(series, "_powers", lambda *args: built.append(args) or powers(*args))
    phi = arc(Q, "t^2 + t^5", "t^3 + t^4 + t^5")
    for inner, expected in ((S("2*t^3"), 0), (S("t + 2*t^2 - t^3"), 1)):
        built.clear()
        composed = phi.compose(inner)
        assert len(built) == expected, str(inner)
        assert composed.components == tuple(horner_compose(c, inner) for c in phi.components)


def test_arc_compose_computes_each_power_of_inner_once(monkeypatch):
    # The components need inner^2..inner^5, and each takes one product from a
    # power already cached: 4 products.  A cache per component would take 7.
    calls = []
    convolve = series._convolve
    monkeypatch.setattr(series, "_convolve", lambda *args: calls.append(1) or convolve(*args))
    phi = arc(Q, "t^2 + t^5", "t^3 + t^4 + t^5")
    composed = phi.compose(S("t + 2*t^2 - t^3"))
    assert len(calls) == 4
    assert composed.component("y") == horner_compose(S("t^3 + t^4 + t^5"), S("t + 2*t^2 - t^3"))


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_each_image_is_brought_back_into_the_field_once(monkeypatch, field):
    phi = arc(field, "t^2 + t^3", "t^3 - t^7")
    f = parse_poly("y^2 - x^3 + 2*x^2*y^3 - x*y", XY, field)
    inner = S("t - t^2", field)
    calls = []
    uncleared = FieldSpec.uncleared
    monkeypatch.setattr(
        FieldSpec, "uncleared", lambda self, *args: calls.append(1) or uncleared(self, *args)
    )
    arc_substitute(f, phi)
    assert len(calls) == 1
    phi.compose(inner)
    assert len(calls) == 3


def test_series_str_and_parse_round_trip():
    for text in ("t^2", "t^3 + 2*t^5", "0", "t - t^4"):
        s = S(text)
        assert parse_series(str(s), Q) == s


def golden_operands(field):
    """Polynomials with leading zeros, trailing zeros and the zero series."""
    rng = random.Random(f"golden-{field.characteristic}")
    exact = TruncatedSeries.exact_series
    return [
        TruncatedSeries.zero(field),
        TruncatedSeries.t_power(field, 2, 2),
        exact(field, [1, 1]),
        exact(field, random_coeffs(rng, field, 5)),
        exact(field, [0, 0] + random_coeffs(rng, field, 4)),
    ]


def golden_record():
    """Per operation: str and order, or the error class."""
    lines = []

    def record(label, thunk):
        try:
            s = thunk()
            lines.append(f"{label} {s} {s.order()!r}")
        except EngineError as error:
            lines.append(f"{label} {type(error).__name__}")

    for field in (Q, F2, F3):
        operands = golden_operands(field)
        for i, a in enumerate(operands):
            tag = f"{field.characteristic}:{i}"
            record(f"{tag} id", lambda: a)
            record(f"{tag} neg", lambda: -a)
            for value in (0, 1, 2, -1):
                record(f"{tag} scale {value}", lambda: a.scale(value))
            for n in range(4):
                record(f"{tag} pow {n}", lambda: a**n)
            for n in (1, 2, 3):
                record(f"{tag} reparametrize {n}", lambda: a.reparametrize(n))
            for j, b in enumerate(operands):
                pair = f"{tag},{j}"
                record(f"{pair} add", lambda: a + b)
                record(f"{pair} sub", lambda: a - b)
                record(f"{pair} mul", lambda: a * b)
                record(f"{pair} compose", lambda: a.compose(b))
    return "\n".join(lines)


def test_series_operations_golden_digest():
    # Pins every operation on polynomial operands, the zero series included.
    text = golden_record()
    assert len(text.splitlines()) == 3 * 5 * (2 + 4 + 4 + 3 + 5 * 4)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6cc93f640c3329203b855614613c62db68f8c6f3f30bea95d4dce7719c45402c"
    )

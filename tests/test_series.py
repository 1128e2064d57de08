import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from property_checks import PREFIX_LENGTH, XY, horner_compose, prefix, random_poly

from arcmult.errors import ArcNotOnVariety, DivisionOrderError, EngineError, InvalidArc
from arcmult import series
from arcmult.fields import INF, RATIONALS, FieldSpec, prime_field
from arcmult.poly import Powers, parse_poly
from arcmult.rees import presenting_algebra
from arcmult.series import (
    Arc,
    TruncatedSeries,
    arc_image,
    arc_substitute,
    certify_on_hypersurface,
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


class TestDivide:
    def test_exact_monomials(self):
        q = S("t^3").divide(S("t^2"))
        assert q.exact and q == S("t")

    def test_exact_with_unit(self):
        q = S("t^2 + t^3").divide(S("t^2"))
        assert q.exact and q == S("1 + t")

    def test_geometric_expansion_is_on_demand(self):
        q = S("t^3").divide(S("t^2 + t^3"))
        assert not q.exact
        assert prefix(q, 6) == (0, 1, -1, 1, -1, 1)  # t - t^2 + t^3 - ...

    def test_order_violation(self):
        with pytest.raises(DivisionOrderError):
            S("t").divide(S("t^2"))
        with pytest.raises(DivisionOrderError):
            S("t").divide(S("0"))

    def test_zero_dividend(self):
        assert S("0").divide(S("t")).is_exactly_zero()

    def test_an_on_demand_quotient_computes_what_is_read(self):
        # t / (t + t^2) does not terminate: its coefficients are computed as they are read,
        # each one exact, with no end.  It has no finite expansion.
        q = S("t").divide(S("t + t^2"))
        assert q.coefficient(2) == 1 and len(q._quotient.ints) == 3
        assert q.coefficient(50) == 1 and len(q._quotient.ints) == 51
        assert q != S("1 - t + t^2") and q == q
        for expand in (lambda: q.coeffs, lambda: S("t") * q, lambda: arc_substitute(parse_poly("x*y", XY, Q), Arc(XY, (S("t"), q.without_constant()), Q))):
            with pytest.raises(EngineError, match="^an on-demand series has no finite expansion"):
                expand()

    def test_an_on_demand_dividend_stays_on_demand(self):
        # t^3 / (t + t^2) = t^2 - t^3 + ..., divided by the monomial 2t and then by
        # t + t^2 again, is (1 - 2t + 3t^2 - ...) / 2: reading two coefficients computes
        # a few coefficients of each quotient.
        q = S("t^3").divide(S("t + t^2"))
        for divisor in (S("2*t"), S("t + t^2")):
            q = q.divide(divisor)
            assert type(q) is series._OnDemandSeries
        assert q.coefficient(0) == Fraction(1, 2) and q.coefficient(1) == -1
        assert len(q._quotient.ints) == 2

    def test_a_long_chain_of_on_demand_quotients_reads_without_recursion(self):
        # Each lift of a Nash chain divides the previous lift, as here 1500 times: reading
        # the last quotient extends every earlier one, and the walk must not recurse.
        # The reference drops the constant of 1 / (1 + t) and divides by t + t^2 on plain
        # integer lists, each step consuming one coefficient.
        q = S("t").divide(S("t + t^2"))
        steps = 1500
        for _ in range(steps):
            q = q.without_constant().divide(S("t + t^2"))
        assert type(q) is series._OnDemandSeries
        expected = [(-1) ** k for k in range(steps + 1)]
        for _ in range(steps):
            expected = expected[1:]
            for k in range(1, len(expected)):
                expected[k] -= expected[k - 1]
        assert q.coefficient(0) == expected[0]

    @pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
    def test_exact_quotient_iff_zero_remainder(self, field):
        rng = random.Random(field.characteristic)
        for _ in range(30):
            quotient = TruncatedSeries.exact_series(field, random_coeffs(rng, field, 8))
            shift = rng.randint(0, 3)
            unit = [field.one] + random_coeffs(rng, field, 5) + [field.one]
            divisor = TruncatedSeries.exact_series(field, [field.zero] * shift + unit)
            if quotient.is_exactly_zero():
                continue
            exact = (quotient * divisor).divide(divisor)
            assert exact.exact and exact == quotient
            # a nonconstant divisor does not divide q * divisor + t^shift
            remainder = TruncatedSeries.t_power(field, shift)
            blurred = (quotient * divisor + remainder).divide(divisor)
            assert not blurred.exact


def padded_quotient(field, a, b, n):
    """First n coefficients of a / b with both operands zero-padded to length n."""
    a = list(a) + [field.zero] * max(0, n - len(a))
    b = list(b) + [field.zero] * max(0, n - len(b))
    q = []
    for k in range(n):
        acc = a[k]
        for i in range(k):
            acc = field.sub(acc, field.mul(q[i], b[k - i]))
        q.append(field.mul(acc, field.inv(b[0])))
    return q


def reference_divide(a, b):
    """Division through the padded quotient: a polynomial when both operands are and
    the quotient times the shifted divisor gives back the shifted dividend, and
    otherwise the first PREFIX_LENGTH coefficients (`prefix`) of the quotient of the
    operands' coefficients, read one at a time.  Reads no divisor past PREFIX_LENGTH:
    None when its coefficients vanish there."""
    field = a.field
    if b.is_exactly_zero():
        raise DivisionOrderError("division by the zero series")
    if a.is_exactly_zero():
        return TruncatedSeries.zero(field)
    shift = next((k for k in range(PREFIX_LENGTH) if b.coefficient(k)), None)
    if shift is None:
        return None
    if any(a.coefficient(k) for k in range(shift)):
        raise DivisionOrderError("divisor order exceeds dividend order")
    if a.exact and b.exact:
        num, den = a.coeffs[shift:], b.coeffs[shift:]
        quotient = TruncatedSeries.exact_series(field, padded_quotient(field, num, den, len(num)))
        if quotient * TruncatedSeries.exact_series(field, den) == TruncatedSeries.exact_series(field, num):
            return quotient
    num, den = ([x.coefficient(k) for k in range(shift, shift + PREFIX_LENGTH)] for x in (a, b))
    return tuple(padded_quotient(field, num, den, PREFIX_LENGTH))


def division_operands(rng, field):
    """A dividend and a divisor: monomial, short, or longer than the dividend;
    sometimes a product with the divisor."""
    shift = rng.randint(0, 4)
    unit = rng.choice(field.units(6))
    tail = random_coeffs(rng, field, rng.choice((1, rng.randint(1, 6), rng.randint(20, 30))))
    if rng.random() < 0.3:
        tail = []  # the monomial unit * t^shift
    divisor = TruncatedSeries.exact_series(field, [field.zero] * shift + [unit] + tail)
    if rng.random() < 0.4:
        dividend = divisor * random_series(rng, field)
    else:
        dividend = TruncatedSeries.exact_series(
            field, [field.zero] * rng.randint(0, 6) + random_coeffs(rng, field, rng.randint(1, 15))
        )
    return dividend, divisor


def division_outcome(thunk, keep=False):
    """The quotient's `prefix`, or the error's type name; `keep` returns the quotient
    itself, and so does a reference that returns no series."""
    try:
        q = thunk()
    except EngineError as error:
        return type(error).__name__
    return q if keep or q is None or type(q) is tuple else prefix(q)


def division_shapes(a, b, outcome):
    """The shapes of one division that the reference test must cover."""
    if isinstance(outcome, str):
        return {outcome}
    shift = b.order()
    shapes = {"exact quotient" if type(outcome) is TruncatedSeries else "on demand"}
    if len(b.coeffs) == shift + 1:
        shapes.add("monomial divisor")
    if len(b.coeffs) > len(a.coeffs):
        shapes.add("divisor longer than dividend")
    if a.coeffs and a.order() > shift:
        shapes.add("dividend of higher order")
    if "on demand" in shapes and PREFIX_LENGTH < len(a.coeffs) - shift:
        shapes.add("prefix below len(a)")
    if b.field.characteristic == 0 and abs(b.coeffs[shift]) != 1:
        shapes.add("lead not ±1")  # the quotient is not integral on the cleared operands
    return shapes


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_divide_matches_padded_reference(field):
    rng = random.Random(f"divide-{field.characteristic}")
    seen = set()
    for _ in range(400):
        a, b = division_operands(rng, field)
        expected = division_outcome(lambda: reference_divide(a, b))
        assert division_outcome(lambda: a.divide(b)) == expected, (a, b)
        seen |= division_shapes(a, b, expected)
    assert seen == {
        "exact quotient",
        "on demand",
        "monomial divisor",
        "divisor longer than dividend",
        "dividend of higher order",
        "prefix below len(a)",
        "DivisionOrderError",
    } | ({"lead not ±1"} if field.characteristic == 0 else set())


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_on_demand_operands_match_the_padded_reference(field):
    # Quotients that do not terminate are divided again: by one another and by monomials,
    # with or without their constant term, after reads in a random order.  Each result
    # is the padded reference's quotient of the operands' coefficients.  A divisor whose
    # prefix vanishes (an on-demand constant less its constant term) is not divided by.
    rng = random.Random(f"on-demand-{field.characteristic}")
    shapes = set()
    for _ in range(60):
        pool = []
        while len(pool) < 3:
            a, b = division_operands(rng, field)
            q = division_outcome(lambda: a.divide(b), keep=True)
            if type(q) is series._OnDemandSeries:
                pool.append(q)
        for _ in range(6):
            a = rng.choice(pool)
            if rng.random() < 0.5:
                a = a.without_constant()
            b = rng.choice(pool + [TruncatedSeries.t_power(field, rng.randint(0, 2), rng.choice(field.units(6)))])
            for _ in range(rng.randint(0, 3)):
                rng.choice((a, b)).coefficient(rng.randrange(PREFIX_LENGTH))
            expected = division_outcome(lambda: reference_divide(a, b))
            if expected is None:
                continue
            got = division_outcome(lambda: a.divide(b), keep=True)
            if isinstance(got, str):
                assert got == expected
                shapes.add(got)
                continue
            assert prefix(got) == expected
            shapes.add(type(got).__name__)
            shapes.add("dropped, shift 0" if a._dropped and b.coefficient(0) else "")
            if type(got) is series._OnDemandSeries:
                pool.append(got)
    assert {"_OnDemandSeries", "DivisionOrderError", "dropped, shift 0"} <= shapes


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_least_order_matches_a_coefficient_scan(field):
    # Polynomials, zero or not, and quotients t^(k+1) (u + ...) / (t + c t^2) of order k,
    # on demand unless they terminate, at least one of them nonzero: `_least_order` gives
    # the first series whose coefficient at the least order is nonzero, as a scan of
    # every series one power of t at a time does, and keeps the order it read.
    rng = random.Random(f"least-order-{field.characteristic}")
    units = field.units(6)
    kinds = set()
    for _ in range(100):
        pool = []
        while not any(not s.exact or s.coeffs for s in pool):
            pool = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(0, 5)
                coeffs = [field.zero] * k + [rng.choice(units)] + random_coeffs(rng, field, rng.randint(1, 4))
                if rng.random() < 0.2:
                    pool.append(TruncatedSeries.zero(field))
                elif rng.random() < 0.4:
                    pool.append(TruncatedSeries.exact_series(field, coeffs))
                else:
                    divisor = TruncatedSeries.exact_series(field, [0, 1, rng.choice(units)])
                    pool.append(TruncatedSeries.exact_series(field, [field.zero, *coeffs]).divide(divisor))
        index, order = series._least_order(pool)
        least = next(k for k in itertools.count() if any(s.coefficient(k) for s in pool))
        assert (index, order) == (next(i for i, s in enumerate(pool) if s.coefficient(least)), least)
        if not pool[index].exact:
            assert pool[index]._order == order
        kinds.add(pool[index].exact)
    assert kinds == {True, False}


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

    def test_chart_is_the_first_component_of_least_order(self):
        assert arc(Q, "t^3", "t^2 + t^5", "2*t^2", variables=("x", "y", "z")).chart() == (1, 2)
        assert arc(Q, "0", "t^4").chart() == (1, 4)

    def test_on_demand_components_are_read_in_lockstep_to_the_least_order(self):
        # t^3 / (t + t^2) = t^2 - t^3 + ... on demand: a tie goes to the lower index, and
        # a read stops at the least order, t^2 here, and keeps the order it found.
        for first in (True, False):
            lift = S("t^3").divide(S("t + t^2"))
            components = (lift, S("t^2")) if first else (S("t^2"), lift)
            assert Arc(XY, components, Q).chart() == (0, 2)
            assert lift._order == (2 if first else None)
        # An on-demand zero, 1 - 1 on demand, never ends a read: the other component does.
        zero = S("t").divide(S("t")).divide(S("t^2").divide(S("t + t^2")).divide(S("t^2").divide(S("t + t^2"))))
        zero = zero.without_constant()
        assert type(zero) is series._OnDemandSeries
        assert Arc(XY, (zero, S("t^5")), Q).chart() == (1, 5)
        with pytest.raises(DivisionOrderError):
            S("t^5").divide(zero)

    def test_a_failed_chart_is_never_kept(self):
        # An all-zero arc (built past the constructor's check) has no chart.
        zero = Arc._of(("x", "y"), (S("0"), S("0")), Q)
        for _ in range(2):
            with pytest.raises(InvalidArc):
                zero.order()
        assert "_chart" not in vars(zero)

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
    # The integer kernel against MultiPoly.image over TruncatedSeries products and sums.
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
        expected = f.image(Powers(phi.components, one), TruncatedSeries.zero(field))
        image = arc_substitute(f, phi)
        assert described(image) == described(expected), f"{f} along {phi}"
        outcomes.add(image.is_exactly_zero())
    assert outcomes == {True, False}


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
    """Per operation: str and order, an on-demand quotient's `prefix`, or the error class."""
    lines = []

    def record(label, thunk):
        try:
            s = thunk()
            if s.exact:
                lines.append(f"{label} {s} {s.order()!r}")
            else:
                lines.append(f"{label} {TruncatedSeries.exact_series(s.field, prefix(s))} + ... on demand")
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
                record(f"{pair} divide", lambda: a.divide(b))
                record(f"{pair} divide-product", lambda: (a * b).divide(b))
    return "\n".join(lines)


def test_series_operations_golden_digest():
    # Pins every operation on polynomial operands, the zero series included.
    text = golden_record()
    assert len(text.splitlines()) == 3 * 5 * (2 + 4 + 4 + 3 + 5 * 6)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ffafb7c2da45a25203917e864a1170715154bf6a820f7dee9dc8f57dbe26391a"
    )

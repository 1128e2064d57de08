import hashlib
import random
from fractions import Fraction

import pytest
from property_checks import XY, horner_compose, random_poly

from arcmult.errors import (
    ArcNotOnVariety,
    DivisionOrderError,
    EngineError,
    InvalidArc,
    PrecisionExhausted,
)
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

    def test_truncated_all_zero_is_indeterminate(self):
        hidden = TruncatedSeries.truncated(Q, (), 8)
        with pytest.raises(PrecisionExhausted):
            hidden.order()

    def test_an_indeterminate_order_raises_on_every_read(self):
        hidden = TruncatedSeries.truncated(F3, (0, 3, 6), 5)
        for _ in range(2):
            assert hidden.known_order() is None
            assert hidden.order_lower_bound() == 5
            with pytest.raises(PrecisionExhausted):
                hidden.order()

    def test_no_coefficient_at_or_past_the_precision(self):
        # The precision is the first unknown power, so t^2 is not known at precision 2.
        with pytest.raises(EngineError, match="^series has 3 coefficients at precision 2$"):
            TruncatedSeries(Q, (0, 0, 1), 2)
        assert TruncatedSeries(Q, (0, 1), 2).known_order() == 1

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_t_power_is_the_padded_exact_series(self, field):
        for k in (0, 1, 5):
            for coeff in (1, 2, 3, Fraction(1, 5)):
                power = TruncatedSeries.t_power(field, k, coeff)
                assert power == TruncatedSeries.exact_series(field, [0] * k + [coeff])
                assert power.known_order() == (INF if power.is_exactly_zero() else k)


class TestArithmetic:
    def test_add_mul(self):
        assert S("t + t^2") + S("t^2") == S("t + 2*t^2")
        assert S("t") * S("t^2 + 1") == S("t + t^3")

    def test_pow(self):
        assert S("t + t^2") ** 2 == S("t^2 + 2*t^3 + t^4")

    def test_mul_precision_shifts_by_order(self):
        blur = TruncatedSeries.truncated(Q, (0, 1), 2)  # t + O(t^2)
        exact = S("t^3")
        product = blur * exact
        assert product.precision == 5  # 2 + 3
        assert product.coeffs[4] == 1

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


def random_series(rng, field, exact):
    coeffs = random_coeffs(rng, field, rng.randint(1, 40))
    if exact:
        return TruncatedSeries.exact_series(field, coeffs)
    return TruncatedSeries.truncated(field, coeffs, len(coeffs))


def reference_product(a, b):
    """Schoolbook convolution through the field operations, with the precision rule."""
    field = a.field
    full = [field.zero] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            full[i + j] = field.add(full[i + j], field.mul(x, y))
    if a.is_exactly_zero() or b.is_exactly_zero() or (a.exact and b.exact):
        return TruncatedSeries.exact_series(field, full)
    prec = max(
        int(
            min(
                a.precision + b.order_lower_bound(),
                b.precision + a.order_lower_bound(),
            )
        ),
        1,
    )
    return TruncatedSeries.truncated(field, full[:prec], prec)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize(
    "exact_a, exact_b",
    [(True, True), (True, False), (False, True), (False, False)],
    ids=["exact*exact", "exact*truncated", "truncated*exact", "truncated*truncated"],
)
def test_product_matches_reference_convolution(field, exact_a, exact_b):
    rng = random.Random(f"{field.characteristic}-{exact_a}-{exact_b}")
    for _ in range(60):
        a = random_series(rng, field, exact_a)
        b = random_series(rng, field, exact_b)
        product = a * b
        expected = reference_product(a, b)
        assert product.coeffs == expected.coeffs
        assert product.precision == expected.precision
        assert product.exact == expected.exact


class TestDivide:
    def test_exact_monomials(self):
        q = S("t^3").divide(S("t^2"))
        assert q.exact and q == S("t")

    def test_exact_with_unit(self):
        q = S("t^2 + t^3").divide(S("t^2"))
        assert q.exact and q == S("1 + t")

    def test_geometric_expansion_is_truncated(self):
        q = S("t^3").divide(S("t^2 + t^3"), fallback_precision=6)
        assert not q.exact
        assert q.precision == 6
        assert list(q.coeffs) == [0, 1, -1, 1, -1, 1]  # t - t^2 + t^3 - ...

    def test_order_violation(self):
        with pytest.raises(DivisionOrderError):
            S("t").divide(S("t^2"))
        with pytest.raises(DivisionOrderError):
            S("t").divide(S("0"))

    def test_precision_rule(self):
        blur = TruncatedSeries.truncated(Q, (0, 0, 1, 2, 3), 5)  # known mod t^5
        q = blur.divide(S("t^2"))
        assert not q.exact and q.precision == 3
        assert list(q.coeffs) == [1, 2, 3]

    def test_zero_dividend(self):
        assert S("0").divide(S("t")).is_exactly_zero()

    def test_an_on_demand_quotient_read_past_its_precision(self):
        # t / (t + t^2) does not terminate: its coefficients are computed as they are read,
        # and a read at the precision raises what the expanded series raises.
        q = S("t").divide(S("t + t^2"), fallback_precision=3)
        assert q.coefficient(2) == 1 and len(q._quotient.ints) == 3
        with pytest.raises(PrecisionExhausted, match="^coefficient 3 beyond precision 3$"):
            q.coefficient(3)
        expanded = TruncatedSeries.truncated(Q, (1, -1, 1), 3)
        with pytest.raises(PrecisionExhausted, match="^coefficient 3 beyond precision 3$"):
            expanded.coefficient(3)
        assert q == expanded and expanded == q and hash(q) == hash(expanded)
        assert str(q) == "1 - t + t^2 + O(t^3)" and len(q._quotient.ints) == 3

    def test_an_on_demand_dividend_stays_on_demand(self):
        # t^3 / (t + t^2) = t^2 - t^3 + ... to 10000 coefficients, divided by the monomial
        # 2t and then by t + t^2 again, is (1 - 2t + 3t^2 - ...) / 2: reading its order and
        # one coefficient computes a few coefficients of each quotient, not 10000.
        q = S("t^3").divide(S("t + t^2"), fallback_precision=10000)
        for divisor in (S("2*t"), S("t + t^2")):
            q = q.divide(divisor)
            assert type(q) is series._OnDemandSeries
        assert q.order() == 0 and q.coefficient(1) == -1
        assert q.precision == 9998 and len(q._quotient.ints) == 2

    def test_a_long_chain_of_on_demand_quotients_reads_without_recursion(self):
        # Each lift of a Nash chain divides the previous lift, as here 1500 times: reading
        # the last quotient extends every earlier one, and the walk must not recurse.
        # The reference drops the constant of 1 / (1 + t) and divides by t + t^2 on plain
        # integer lists, each step consuming one coefficient.
        q = S("t").divide(S("t + t^2"), fallback_precision=2000)
        steps = 1500
        for _ in range(steps):
            q = q.without_constant().divide(S("t + t^2"))
        assert type(q) is series._OnDemandSeries and q.precision == 2000 - steps
        expected = [(-1) ** k for k in range(steps + 1)]
        for _ in range(steps):
            expected = expected[1:]
            for k in range(1, len(expected)):
                expected[k] -= expected[k - 1]
        assert q.coefficient(0) == expected[0]

    @pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
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
            blurred = (quotient * divisor + remainder).divide(divisor, fallback_precision=12)
            assert not blurred.exact and blurred.precision == 12


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


def reference_divide(a, b, fallback_precision):
    """Division through the padded quotient; exact iff the quotient times the
    shifted divisor gives back the shifted dividend."""
    field = a.field
    if b.is_exactly_zero():
        raise DivisionOrderError("division by the zero series")
    shift = b.order()
    order = a.known_order()
    if order == INF:
        return TruncatedSeries.zero(field)
    if order is None:
        if a.precision - shift < 1:
            raise PrecisionExhausted("no precision left")
        return TruncatedSeries(field, (), a.precision - shift)
    if order < shift:
        raise DivisionOrderError("divisor order exceeds dividend order")
    num, den = a.coeffs[shift:], b.coeffs[shift:]
    prec = min(a.precision, b.precision) - shift
    if prec == INF:
        quotient = TruncatedSeries.exact_series(field, padded_quotient(field, num, den, len(num)))
        if quotient * TruncatedSeries.exact_series(field, den) == TruncatedSeries.exact_series(
            field, num
        ):
            return quotient
        prec = fallback_precision
    elif prec < 1:
        raise PrecisionExhausted("no precision left")
    return TruncatedSeries.truncated(field, padded_quotient(field, num, den, prec), prec)


def division_operands(rng, field):
    """A dividend and a divisor: monomial, short, or longer than the dividend;
    exact or truncated; sometimes a product with the divisor."""
    shift = rng.randint(0, 4)
    unit = rng.choice(field.units(6))
    tail = random_coeffs(rng, field, rng.choice((1, rng.randint(1, 6), rng.randint(20, 30))))
    if rng.random() < 0.3:
        tail = []  # the monomial unit * t^shift
    divisor = TruncatedSeries.exact_series(field, [field.zero] * shift + [unit] + tail)
    if rng.random() < 0.4:
        dividend = divisor * random_series(rng, field, True)
    else:
        dividend = TruncatedSeries.exact_series(
            field, [field.zero] * rng.randint(0, 6) + random_coeffs(rng, field, rng.randint(1, 15))
        )
    if rng.random() < 0.3:
        dividend = TruncatedSeries.truncated(field, dividend.coeffs, rng.randint(1, 45))
    if rng.random() < 0.2:
        divisor = TruncatedSeries.truncated(field, divisor.coeffs, rng.randint(1, 35))
    return dividend, divisor


def division_outcome(thunk, keep=False):
    """The quotient's coefficients, exactness and precision, or the error's type name;
    `keep` returns the quotient itself."""
    try:
        q = thunk()
    except EngineError as error:
        return type(error).__name__
    return q if keep else (q.coeffs, q.exact, q.precision)


def division_shapes(a, b, fallback, outcome):
    """The shapes of one division that the reference test must cover."""
    if isinstance(outcome, str):
        return {outcome}
    shift = b.order()
    if not (a.exact and b.exact):
        shapes = {"truncated operand"}
    else:
        shapes = {"exact quotient" if outcome[1] else "fallback"}
    if len(b.coeffs) == shift + 1:
        shapes.add("monomial divisor")
    if len(b.coeffs) > len(a.coeffs):
        shapes.add("divisor longer than dividend")
    if a.coeffs and a.known_order() > shift:
        shapes.add("dividend of higher order")
    if "fallback" in shapes and fallback < len(a.coeffs) - shift:
        shapes.add("fallback below len(a)")
    if b.field.characteristic == 0 and abs(b.coeffs[shift]) != 1:
        shapes.add("lead not ±1")  # the quotient is not integral on the cleared operands
    return shapes


@pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
def test_divide_matches_padded_reference(field):
    rng = random.Random(f"divide-{field.characteristic}")
    seen = set()
    for _ in range(400):
        a, b = division_operands(rng, field)
        fallback = rng.randint(1, 30)
        expected = division_outcome(lambda: reference_divide(a, b, fallback))
        assert division_outcome(lambda: a.divide(b, fallback)) == expected, (a, b, fallback)
        seen |= division_shapes(a, b, fallback, expected)
    assert seen == {
        "exact quotient",
        "fallback",
        "truncated operand",
        "monomial divisor",
        "divisor longer than dividend",
        "dividend of higher order",
        "fallback below len(a)",
        "DivisionOrderError",
        "PrecisionExhausted",
    } | ({"lead not ±1"} if field.characteristic == 0 else set())


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
def test_on_demand_operands_match_the_padded_reference(field):
    # Quotients that do not terminate are divided again: by one another and by monomials,
    # with or without their constant term, after reads in a random order.  Each result
    # is the padded reference's quotient of the expanded operands.
    rng = random.Random(f"on-demand-{field.characteristic}")
    shapes = set()
    for _ in range(60):
        pool = []
        while len(pool) < 3:
            a, b = division_operands(rng, field)
            q = division_outcome(lambda: a.divide(b, rng.randint(4, 20)), keep=True)
            if type(q) is series._OnDemandSeries:
                pool.append(q)
        for _ in range(6):
            a = rng.choice(pool)
            if rng.random() < 0.5:
                a = a.without_constant()
            b = rng.choice(pool + [TruncatedSeries.t_power(field, rng.randint(0, 2), rng.choice(field.units(6)))])
            for _ in range(rng.randint(0, 3)):
                rng.choice((a, b)).coefficient(rng.randrange(min(a.precision, b.precision)))
            fallback = rng.randint(1, 30)
            got = division_outcome(lambda: a.divide(b, fallback), keep=True)
            expanded = [TruncatedSeries(field, x.coeffs, x.precision) for x in (a, b)]
            expected = division_outcome(lambda: reference_divide(*expanded, fallback))
            if isinstance(got, str):
                assert got == expected
                shapes.add(got)
                continue
            assert (got.coeffs, got.exact, got.precision) == expected
            shapes.add(type(got).__name__)
            shapes.add("dropped, shift 0" if a._dropped and b.known_order() == 0 else "")
            if type(got) is series._OnDemandSeries:
                pool.append(got)
    assert {"_OnDemandSeries", "DivisionOrderError", "dropped, shift 0"} <= shapes


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
        truncated = Arc(("x", "y"), (S("t^2"), TruncatedSeries.truncated(Q, (0, 0, 1), 5)), Q)
        assert truncated.chart() == (0, 2)

    def test_a_failed_chart_is_never_kept(self):
        # A truncated zero below the least known order leaves the chart undecided,
        # and an all-zero arc (built past the constructor's check) has none.
        hidden = Arc(("x", "y"), (TruncatedSeries.truncated(Q, (), 3), S("t^5")), Q)
        zero = Arc._of(("x", "y"), (S("0"), S("0")), Q)
        for _ in range(2):
            with pytest.raises(PrecisionExhausted):
                hidden.chart()
            with pytest.raises(PrecisionExhausted):
                hidden.order()
            with pytest.raises(InvalidArc):
                zero.order()
        assert "_chart" not in vars(hidden) and "_chart" not in vars(zero)

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
    """An arc in x, y whose components are exact or truncated, of up to 8 coefficients."""
    components = []
    for _ in XY:
        coeffs = [field.zero] + random_coeffs(rng, field, rng.randint(1, 7))
        if rng.random() < 0.5:
            components.append(TruncatedSeries.exact_series(field, coeffs))
        else:
            components.append(TruncatedSeries.truncated(field, coeffs, len(coeffs)))
    if all(c.known_order() is INF for c in components):
        return random_arc(rng, field)
    return Arc(XY, tuple(components), field)


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
    """An exact, truncated, all-zero truncated or exactly zero series; the first two
    have a zero constant term unless `constant`, and runs of zeros at either end."""
    kind = rng.choice(("exact", "truncated", "all-zero", "zero"))
    coeffs = ([] if constant else [field.zero]) + random_coeffs(rng, field, rng.randint(1, 6))
    if kind == "exact":
        return TruncatedSeries.exact_series(field, coeffs)
    if kind == "truncated":
        return TruncatedSeries.truncated(field, coeffs, len(coeffs) + rng.randint(0, 2))
    if kind == "all-zero":
        return TruncatedSeries.truncated(field, (), rng.randint(1, 6))
    return TruncatedSeries.zero(field)


def described(s):
    return s.coeffs, s.precision, str(s), s.known_order(), s.order_lower_bound()


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
        outcomes.add((image.exact, image.known_order() is None))
    assert outcomes == {(True, False), (False, False), (False, True)}


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
    # Horner's, coefficient types included, cut at the lesser precision.
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
                assert composed.precision == min(outer.precision, inner.precision)
                kinds.add(outer.exact)
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
    for inner, expected in ((S("2*t^3"), 0), (S("t + 2*t^2 - t^3"), 1), (TruncatedSeries.truncated(Q, (0, 1), 4), 1)):
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
    """Exact and truncated series with leading zeros, trailing zeros and all-zero cases."""
    rng = random.Random(f"golden-{field.characteristic}")
    exact = TruncatedSeries.exact_series
    truncated = TruncatedSeries.truncated
    return [
        TruncatedSeries.zero(field),
        TruncatedSeries.t_power(field, 2, 2),
        exact(field, [1, 1]),
        exact(field, random_coeffs(rng, field, 5)),
        exact(field, [0, 0] + random_coeffs(rng, field, 4)),
        truncated(field, (), 6),
        truncated(field, [0, 1], 3),
        truncated(field, [0, 0, 1, 0], 7),
        truncated(field, [1] + random_coeffs(rng, field, 4), 5),
    ]


def golden_record():
    """Per operation: str, exact, known_order, order_lower_bound, or the error class."""
    lines = []

    def record(label, thunk):
        try:
            s = thunk()
            lines.append(f"{label} {s} {s.exact} {s.known_order()!r} {s.order_lower_bound()!r}")
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
                record(f"{pair} divide", lambda: a.divide(b, fallback_precision=12))
                record(f"{pair} divide-product", lambda: (a * b).divide(b, fallback_precision=12))
    return "\n".join(lines)


def test_series_operations_golden_digest():
    # Pins every operation on exact, truncated and all-zero operands.  The
    # precision of an exact series is left out; an all-zero truncated one
    # prints as "O(t^N)", and order_lower_bound repeats its precision.
    text = golden_record()
    assert len(text.splitlines()) == 3 * 9 * (2 + 4 + 4 + 3 + 9 * 6)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3a575e873ffdb3b15693c6c8e692f15fd5633a1516a27cc7d298fd3bc2728bdc"
    )

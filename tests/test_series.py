import hashlib
import random
from fractions import Fraction

import pytest

from arcmult.errors import (
    DivisionOrderError,
    EngineError,
    InvalidArc,
    PrecisionExhausted,
)
from arcmult.fields import INF, RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.series import (
    Arc,
    TruncatedSeries,
    arc_substitute,
    parse_series,
)

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)


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

    def test_substitute_examples(self):
        assert arc_substitute(parse_poly("x^2", ("x", "y"), Q), arc(Q, "t^2", "t^3")) == S("t^4")
        on_curve = arc_substitute(parse_poly("y^2 - x^3", ("x", "y"), Q), arc(Q, "t^2", "t^3"))
        assert on_curve.is_exactly_zero()
        off_curve = arc_substitute(parse_poly("y^2 - x^3", ("x", "y"), Q), arc(Q, "t^3", "t^2"))
        assert off_curve == S("t^4 - t^9")

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
    # precision of an exact series is left out; order_lower_bound shows the
    # precision of an all-zero truncated one, which prints as "0".
    text = golden_record()
    assert len(text.splitlines()) == 3 * 9 * (2 + 4 + 4 + 3 + 9 * 6)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fd617a8d864b34b6ad5c5d84a732ad1db34186e138c50fdfc45316d402b0b961"
    )

"""Truncated univariate power series in t, and arcs.

A TruncatedSeries stores its known coefficients, without trailing zeros, and
`precision`, the first power of t whose coefficient is unknown.  Precision INF
marks a polynomial: every coefficient past the stored ones is genuinely zero,
and the series is `exact`.  The distinction is load-bearing: order INF
requires exactness, while an all-zero truncated series has *indeterminate*
order and raises PrecisionExhausted instead of silently passing for zero.

An Arc assigns one series to each ambient variable; components always have
zero constant term (arcs are stored recentered at the current chart origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import (
    DivisionOrderError,
    EngineError,
    InvalidArc,
    PrecisionExhausted,
    VariableMismatch,
)
from .fields import INF, FieldSpec, ensure_same_field
from .poly import MultiPoly, parse_poly

#: Default coefficient budget for non-terminating divisions and expansions.
DEFAULT_PRECISION = 64


@dataclass(frozen=True)
class TruncatedSeries:
    field: FieldSpec
    coeffs: tuple
    precision: int | float

    def __post_init__(self):
        if self.precision < 1:
            raise EngineError("series precision must be at least 1")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def _of(cls, field: FieldSpec, values: list, precision=INF) -> "TruncatedSeries":
        # Internal: values are field elements; cut at a finite precision, trim zeros.
        n = min(len(values), precision)
        while n and values[n - 1] == 0:
            n -= 1
        return cls(field, tuple(values[:n]), precision)

    @classmethod
    def exact_series(cls, field: FieldSpec, coeffs) -> "TruncatedSeries":
        return cls._of(field, [field.coerce(c) for c in coeffs])

    @classmethod
    def truncated(cls, field: FieldSpec, coeffs, precision: int) -> "TruncatedSeries":
        return cls._of(field, [field.coerce(c) for c in coeffs], precision)

    @classmethod
    def zero(cls, field: FieldSpec) -> "TruncatedSeries":
        return cls(field, (), INF)

    @classmethod
    def t_power(cls, field: FieldSpec, k: int, coeff=1) -> "TruncatedSeries":
        return cls.exact_series(field, [field.zero] * k + [field.coerce(coeff)])

    # -- queries -----------------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.precision == INF

    def coefficient(self, i: int):
        if i < len(self.coeffs):
            return self.coeffs[i]
        if i < self.precision:
            return self.field.zero
        raise PrecisionExhausted(f"coefficient {i} beyond precision {self.precision}")

    def is_exactly_zero(self) -> bool:
        return self.exact and not self.coeffs

    def known_order(self):
        """First nonzero index, INF for exact zero, None when indeterminate."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        return INF if self.exact else None

    def order(self):
        """First nonzero index; raises PrecisionExhausted when indeterminate."""
        result = self.known_order()
        if result is None:
            raise PrecisionExhausted(
                f"series is zero up to t^{self.precision}; order indeterminate"
            )
        return result

    def order_lower_bound(self):
        result = self.known_order()
        return self.precision if result is None else result

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        ensure_same_field(self.field, other.field)
        field = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        coeffs = list(a)
        for i, c in enumerate(b):
            coeffs[i] = field.add(coeffs[i], c)
        return TruncatedSeries._of(field, coeffs, min(self.precision, other.precision))

    def __neg__(self):
        field = self.field
        return TruncatedSeries(field, tuple(field.neg(c) for c in self.coeffs), self.precision)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "TruncatedSeries":
        field = self.field
        value = field.coerce(value)
        if field.is_zero(value):
            return TruncatedSeries(field, (), self.precision)
        coeffs = tuple(field.mul(c, value) for c in self.coeffs)
        return TruncatedSeries(field, coeffs, self.precision)

    def __mul__(self, other):
        ensure_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        # Known coefficients of the product reach min(prec_a + ord_b, prec_b + ord_a);
        # for two polynomials that is INF, and the order scan is skipped.
        if self.exact and other.exact:
            prec = INF
        else:
            prec = min(
                self.precision + other.order_lower_bound(),
                other.precision + self.order_lower_bound(),
            )
        n = min(prec, len(a) + len(b) - 1)
        return TruncatedSeries._of(self.field, _convolve(self.field, a, b, n), prec)

    def __pow__(self, n: int):
        if n < 0:
            raise EngineError("negative series power")
        result = TruncatedSeries.t_power(self.field, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divide(self, other: "TruncatedSeries", fallback_precision: int = DEFAULT_PRECISION):
        """Series division; requires order(divisor) <= order(dividend)."""
        ensure_same_field(self.field, other.field)
        field = self.field
        if other.is_exactly_zero():
            raise DivisionOrderError("division by the zero series")
        divisor_order = other.order()  # PrecisionExhausted if indeterminate
        dividend_order = self.known_order()
        if dividend_order == INF:
            return TruncatedSeries.zero(field)
        if dividend_order is None:
            # All stored coefficients vanish: quotient is zero to reduced precision.
            prec = self.precision - divisor_order
            if prec < 1:
                raise PrecisionExhausted("no precision left after division")
            return TruncatedSeries(field, (), prec)
        if dividend_order < divisor_order:
            raise DivisionOrderError(
                f"divisor order {divisor_order} exceeds dividend order {dividend_order}"
            )
        a = list(self.coeffs[divisor_order:])
        b = list(other.coeffs[divisor_order:])
        prec = min(self.precision, other.precision) - divisor_order
        if prec == INF:
            # Exact inputs: polynomial division, exact result only on zero remainder.
            quotient = TruncatedSeries._of(field, _series_quotient(field, a, b, len(a)))
            q = quotient.coeffs
            if _convolve(field, q, b, len(q) + len(b) - 1) == a:
                return quotient
            prec = fallback_precision
        elif prec < 1:
            raise PrecisionExhausted("no precision left after division")
        return TruncatedSeries._of(field, _series_quotient(field, a, b, prec), prec)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute t -> inner(t); inner must have zero constant term."""
        ensure_same_field(self.field, inner.field)
        field = self.field
        if not field.is_zero(inner.coefficient(0)):
            raise EngineError("composition requires inner series with zero constant term")
        prec = min(self.precision, inner.precision)
        result = TruncatedSeries(field, (), prec)
        for c in reversed(self.coeffs):
            result = result * inner + TruncatedSeries._of(field, [c], prec)
        return result

    def reparametrize(self, n: int) -> "TruncatedSeries":
        """Substitute t -> t^n (n >= 1): every exponent is multiplied by n."""
        if n < 1:
            raise EngineError("reparametrization requires n >= 1")
        field = self.field
        coeffs = [field.zero] * (len(self.coeffs) * n)
        for i, c in enumerate(self.coeffs):
            coeffs[i * n] = c
        return TruncatedSeries._of(field, coeffs, self.precision * n)

    # -- display -----------------------------------------------------------------------

    def __str__(self):
        field = self.field
        parts = []
        for i, c in enumerate(self.coeffs):
            if field.is_zero(c):
                continue
            negative = field.characteristic == 0 and c < 0
            magnitude = -c if negative else c
            if i == 0:
                body = field.element_str(magnitude)
            else:
                t = "t" if i == 1 else f"t^{i}"
                body = t if magnitude == field.one else f"{field.element_str(magnitude)}*{t}"
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        if not parts:
            return "0"
        text = " ".join(parts)
        if not self.exact:
            text += f" + O(t^{self.precision})"
        return text

    def __repr__(self):
        return f"TruncatedSeries({self})"


def _pad(field, values, n):
    return list(values) + [field.zero] * max(0, n - len(values))


def _convolve(field, a, b, n):
    """First n coefficients of (sum a_i t^i) * (sum b_j t^j).

    Over Q denominators are cleared once so the loop runs on ints; over F_p
    each output coefficient is reduced once.
    """
    p = field.characteristic
    if p == 0:
        da = math.lcm(*(c.denominator for c in a))
        db = math.lcm(*(c.denominator for c in b))
        a = [c.numerator * (da // c.denominator) for c in a]
        b = [c.numerator * (db // c.denominator) for c in b]
    raw = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                if y:
                    raw[j] += x * y
    if p == 0:
        scale = da * db
        return [Fraction(v, scale) for v in raw]
    return [v % p for v in raw]


def _series_quotient(field, a, b, n):
    """First n coefficients of (sum a_i t^i) / (sum b_i t^i) with b_0 a unit."""
    a = _pad(field, a, n)
    b = _pad(field, b, n)
    inverse_lead = field.inv(b[0])
    q = []
    for k in range(n):
        acc = a[k]
        for i in range(k):
            acc = field.sub(acc, field.mul(q[i], b[k - i]))
        q.append(field.mul(acc, inverse_lead))
    return q


def parse_series(text: str, field: FieldSpec) -> TruncatedSeries:
    """Parse polynomial-in-t text like "t^3 + 2*t^5" into an exact series."""
    poly = parse_poly(text, ("t",), field)
    degree = poly.total_degree()
    coeffs = [field.zero] * (degree + 1 if degree >= 0 else 0)
    for exps, coeff in poly.terms.items():
        coeffs[exps[0]] = coeff
    return TruncatedSeries.exact_series(field, coeffs)


# -- arcs ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """An assignment of a series (zero constant term) to each ambient variable."""

    variables: tuple
    components: tuple
    field: FieldSpec = dataclass_field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "components", tuple(self.components))
        if self.field is None:
            if not self.components:
                raise InvalidArc("arc needs at least one component")
            object.__setattr__(self, "field", self.components[0].field)
        if len(self.variables) != len(self.components):
            raise VariableMismatch(
                f"{len(self.components)} components for variables {self.variables}"
            )
        for comp in self.components:
            ensure_same_field(comp.field, self.field)
            if not self.field.is_zero(comp.coefficient(0)):
                raise InvalidArc("arc components must have zero constant term")
        if all(comp.known_order() is INF for comp in self.components):
            raise InvalidArc("arc must have at least one nonzero component")

    def component(self, name: str) -> TruncatedSeries:
        return self.components[self.variables.index(name)]

    def order(self) -> int:
        """nu_t: minimal t-order over the components."""
        best = INF
        for comp in self.components:
            known = comp.known_order()
            if known is not None and known < best:
                best = known
        for comp in self.components:
            if comp.known_order() is None and comp.order_lower_bound() < best:
                raise PrecisionExhausted("arc order indeterminate at this precision")
        if best is INF:
            raise InvalidArc("arc must have at least one nonzero component")
        return best

    def reparametrize(self, n: int) -> "Arc":
        return Arc(self.variables, tuple(c.reparametrize(n) for c in self.components), self.field)

    def compose(self, inner: TruncatedSeries) -> "Arc":
        return Arc(self.variables, tuple(c.compose(inner) for c in self.components), self.field)

    def project(self, variables) -> "Arc":
        """Arc induced on a coordinate subspace (a smooth projection)."""
        return Arc(
            tuple(variables),
            tuple(self.component(name) for name in variables),
            self.field,
        )

    def __str__(self):
        return ", ".join(
            f"{name} -> {comp}" for name, comp in zip(self.variables, self.components)
        )


class ArcPowers:
    """Cache of component powers, shareable across generator evaluations."""

    def __init__(self, arc: Arc):
        self.arc = arc
        self._cache: dict = {}

    def power(self, index: int, exponent: int) -> TruncatedSeries:
        key = (index, exponent)
        cached = self._cache.get(key)
        if cached is None:
            if exponent == 1:
                cached = self.arc.components[index]
            else:
                half = self.power(index, exponent // 2)
                cached = half * half
                if exponent & 1:
                    cached = cached * self.arc.components[index]
            self._cache[key] = cached
        return cached


def arc_substitute(poly: MultiPoly, arc: Arc, powers: ArcPowers | None = None) -> TruncatedSeries:
    """Evaluate a polynomial along an arc: phi(f) in K[[t]]."""
    ensure_same_field(poly.field, arc.field)
    if poly.variables != arc.variables:
        raise VariableMismatch(
            f"polynomial variables {poly.variables} vs arc variables {arc.variables}"
        )
    field = poly.field
    if powers is None:
        powers = ArcPowers(arc)
    total = TruncatedSeries.zero(field)
    for exps, coeff in poly.terms.items():
        term = TruncatedSeries.exact_series(field, (coeff,))
        for i, e in enumerate(exps):
            if e:
                term = term * powers.power(i, e)
        total = total + term
    return total

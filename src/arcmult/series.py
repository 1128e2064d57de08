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

from dataclasses import dataclass, field as dataclass_field

from .errors import (
    ArcNotOnVariety,
    DivisionOrderError,
    EngineError,
    InvalidArc,
    PrecisionExhausted,
    VariableMismatch,
)
from .fields import INF, FieldSpec, ensure_same_field, format_terms
from .poly import MultiPoly, Powers, parse_poly

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
        return Powers((self,), TruncatedSeries.t_power(self.field, 0)).power(0, n)

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
            # Exact inputs.  Past len(a) the recurrence has order len(b) - 1, so a/b is a
            # polynomial exactly when q vanishes on the len(b) - 1 indices below len(a).
            q = _series_quotient(field, a, b, len(a))
            if all(field.is_zero(c) for c in q[max(0, len(a) - len(b) + 1) :]):
                return TruncatedSeries._of(field, q)
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
        powers = ("" if i == 0 else "t" if i == 1 else f"t^{i}" for i in range(len(self.coeffs)))
        text = format_terms(self.field, zip(self.coeffs, powers))
        if not self.exact:
            text = f"{text} + O(t^{self.precision})" if text else f"O(t^{self.precision})"
        return text or "0"

    def __repr__(self):
        return f"TruncatedSeries({self})"


def _convolve(field, a, b, n):
    """First n coefficients of (sum a_i t^i) * (sum b_j t^j).

    The loop runs on the integers of `field.cleared`, and each output
    coefficient is brought back into the field once.
    """
    a, da = field.cleared(a)
    b, db = field.cleared(b)
    raw = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                if y:
                    raw[j] += x * y
    return field.uncleared(raw, da * db)


def _series_quotient(field, a, b, n):
    """First n coefficients of (sum a_i t^i) / (sum b_j t^j) with b_0 a unit:
    q_k = (a_k - sum_{j=1}^{min(k, len(b)-1)} b_j q_{k-j}) / b_0, a_k zero past len(a)."""
    inverse_lead = field.inv(b[0])
    q = []
    for k in range(n):
        acc = a[k] if k < len(a) else field.zero
        for j in range(1, min(k, len(b) - 1) + 1):
            acc = field.sub(acc, field.mul(q[k - j], b[j]))
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


def arc_substitute(poly: MultiPoly, arc: Arc, powers: Powers | None = None) -> TruncatedSeries:
    """Evaluate a polynomial along an arc: phi(f) in K[[t]]; `powers` of the arc may be shared."""
    ensure_same_field(poly.field, arc.field)
    if poly.variables != arc.variables:
        raise VariableMismatch(
            f"polynomial variables {poly.variables} vs arc variables {arc.variables}"
        )
    if powers is None:
        powers = Powers(arc.components, TruncatedSeries.t_power(arc.field, 0))
    return poly.image(powers, TruncatedSeries.zero(arc.field))


def certify_on_hypersurface(poly: MultiPoly, arc: Arc, name: str) -> None:
    """Check that f vanishes exactly along the arc, which `name` names in errors:
    ArcNotOnVariety when it does not, PrecisionExhausted when that is undecided."""
    image = arc_substitute(poly, arc)
    if image.known_order() is None:
        raise PrecisionExhausted(
            f"{name} maps f to zero up to t^{image.precision}; "
            "whether it lies on the hypersurface is undecided"
        )
    if not image.is_exactly_zero():
        raise ArcNotOnVariety(f"{name} does not lie on the hypersurface")

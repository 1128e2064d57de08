"""Univariate power series in t, and arcs.

A TruncatedSeries is a polynomial in t: it stores its coefficients, without
trailing zeros, and every coefficient past them is zero.  So its order is
exact, INF for the zero series.  A quotient that does not terminate is an
on-demand series: every coefficient is exact, computed by a resumable
recurrence on integers when it is first read.  It has no finite expansion:
it is read one coefficient at a time, divided, and its constant dropped,
and its order is read only against other series (`_least_order`).

An Arc assigns one series to each ambient variable; components always have
zero constant term (arcs are stored recentered at the current chart origin).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import ArcNotOnVariety, DivisionOrderError, EngineError, InvalidArc, VariableMismatch
from .fields import INF, FieldSpec, ensure_same_field, format_terms
from .poly import MultiPoly, Powers, parse_poly

#: `TruncatedSeries._order` and `Arc._leads` before their first read.
_UNREAD = object()


@dataclass(frozen=True)
class TruncatedSeries:
    field: FieldSpec
    coeffs: tuple
    exact = True  # not a field: an `_OnDemandSeries` is not
    _order = _UNREAD  # not a field: `order` fills it on the first read

    # -- constructors ------------------------------------------------------------

    @classmethod
    def _of(cls, field: FieldSpec, values: list) -> "TruncatedSeries":
        # Internal: values are field elements; trim zeros.
        n = len(values)
        while n and values[n - 1] == 0:
            n -= 1
        return cls(field, tuple(values[:n]))

    @classmethod
    def exact_series(cls, field: FieldSpec, coeffs) -> "TruncatedSeries":
        return cls._of(field, [field.coerce(c) for c in coeffs])

    @classmethod
    def zero(cls, field: FieldSpec) -> "TruncatedSeries":
        return cls(field, ())

    @classmethod
    def t_power(cls, field: FieldSpec, k: int, coeff=1) -> "TruncatedSeries":
        coeff = field.coerce(coeff)
        return cls(field, (field.zero,) * k + (coeff,) if coeff else ())

    # -- queries -----------------------------------------------------------------

    def coefficient(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    def is_exactly_zero(self) -> bool:
        return not self.coeffs

    @property
    def monomial(self) -> bool:
        """Exactly one term c t^k."""
        return self.order() == len(self.coeffs) - 1

    def order(self):
        """First nonzero index, INF for the zero series.

        Scanned on the first read and kept, as `MultiPoly.order_at_origin` is."""
        order = self._order
        if order is _UNREAD:
            # the field's zeros are exactly its falsy elements
            order = self.__dict__["_order"] = next((i for i, c in enumerate(self.coeffs) if c), INF)
        return order

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
        return TruncatedSeries._of(field, coeffs)

    def __neg__(self):
        field = self.field
        return TruncatedSeries(field, tuple(field.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "TruncatedSeries":
        field = self.field
        value = field.coerce(value)
        if field.is_zero(value):
            return TruncatedSeries.zero(field)
        return TruncatedSeries(field, tuple(field.mul(c, value) for c in self.coeffs))

    def __mul__(self, other):
        ensure_same_field(self.field, other.field)
        return (ClearedSeries.of(self) * ClearedSeries.of(other)).series(self.field)

    def __pow__(self, n: int):
        if n < 0:
            raise EngineError("negative series power")
        return _powers((self,), self.field).power(0, n).series(self.field)

    def divide(self, other):
        """Series division; requires order(divisor) <= order(dividend).

        Either operand may be an on-demand series.  The divisor's order is
        read against the dividend's coefficients below it (`_least_order`).
        A quotient of two polynomials that does not terminate, and every
        quotient with an on-demand operand, is an on-demand series: its
        coefficients come from `_series_quotient` when first read."""
        ensure_same_field(self.field, other.field)
        field = self.field
        if other.is_exactly_zero():
            raise DivisionOrderError("division by the zero series")
        if self.is_exactly_zero():
            return TruncatedSeries.zero(field)
        first, divisor_order = _least_order((other, self))
        if first:
            raise DivisionOrderError(f"the dividend has order {divisor_order}, below the divisor's")
        if not self.exact:
            return _OnDemandSeries(_Quotient(self, other, divisor_order))
        if other.monomial:  # c t^k: the coefficients from t^k on, scaled by 1/c
            coeffs = self.coeffs[divisor_order:]
            c = other.coeffs[-1]
            if c != 1:
                inverse = field.inv(c)
                coeffs = tuple(field.mul(a, inverse) for a in coeffs)
            return TruncatedSeries(field, coeffs)
        quotient = _Quotient(self, other, divisor_order)
        if other.exact:
            # Past len(a) the recurrence has order len(b) - 1, so a/b is a polynomial
            # exactly when q vanishes on the len(b) - 1 indices below len(a).
            n, m = len(self.coeffs) - divisor_order, len(other.coeffs) - divisor_order
            _series_quotient(quotient, n)
            if not any(quotient.ints[max(0, n - m + 1) : n]):
                return TruncatedSeries._of(field, quotient.values(0, n))
        return _OnDemandSeries(quotient)

    def without_constant(self) -> "TruncatedSeries":
        """The series less its constant term."""
        return TruncatedSeries._of(self.field, [self.field.zero, *self.coeffs[1:]])

    def compose(self, inner: "TruncatedSeries", powers: Powers | None = None) -> "TruncatedSeries":
        """Substitute t -> inner(t); inner must have zero constant term.

        The image is the ring map sending t to inner; `powers` of inner may be
        shared, as `Arc.compose` shares them.  A monomial inner c t^k is an
        exponent map, a_j t^j -> a_j c^j t^(jk), as `reparametrize` is; every
        other inner goes through the `_image` kernel."""
        ensure_same_field(self.field, inner.field)
        field = self.field
        if not field.is_zero(inner.coefficient(0)):
            raise EngineError("composition requires inner series with zero constant term")
        if inner.monomial:
            c, scaled, power = inner.coeffs[-1], [], field.one
            for a in self.coeffs:
                scaled.append(field.mul(a, power))
                power = field.mul(power, c)
            return TruncatedSeries._of(field, _spread(field, scaled, len(inner.coeffs) - 1))
        if powers is None:
            powers = _powers((inner,), field)
        terms = (((k,), c) for k, c in enumerate(self.coeffs) if not field.is_zero(c))
        return _image(field, terms, powers).series(field)

    def reparametrize(self, n: int) -> "TruncatedSeries":
        """Substitute t -> t^n (n >= 1): every exponent is multiplied by n."""
        if n < 1:
            raise EngineError("reparametrization requires n >= 1")
        return TruncatedSeries._of(self.field, _spread(self.field, self.coeffs, n))

    # -- display -----------------------------------------------------------------------

    def __str__(self):
        powers = ("" if i == 0 else "t" if i == 1 else f"t^{i}" for i in range(len(self.coeffs)))
        return format_terms(self.field, zip(self.coeffs, powers)) or "0"

    def __repr__(self):
        return f"TruncatedSeries({self})"


class ClearedSeries:
    """A polynomial on integers: coefficient i is ints[i] / scale (over F_p the
    scale is 1, and the integers are reduced mod p after each product).  Arcs
    are evaluated on these, so an image is brought back into its field once.
    """

    __slots__ = ("ints", "scale", "p")

    def __init__(self, ints: list, scale: int, p: int):
        self.ints = ints
        self.scale = scale
        self.p = p

    @classmethod
    def of(cls, series: TruncatedSeries) -> "ClearedSeries":
        ints, scale = series.field.cleared(series.coeffs)
        return cls(list(ints), scale, series.field.characteristic)

    def __mul__(self, other: "ClearedSeries") -> "ClearedSeries":
        ints = _convolve(self.ints, other.ints)
        if self.p:
            ints = [v % self.p for v in ints]
        return ClearedSeries(ints, self.scale * other.scale, self.p)

    def order(self):
        """First nonzero index, INF for the zero polynomial."""
        return next((i for i, v in enumerate(self.ints) if v), INF)

    def series(self, field: FieldSpec) -> TruncatedSeries:
        return TruncatedSeries._of(field, field.uncleared(self.ints, self.scale))


def _spread(field: FieldSpec, coeffs, n: int) -> list:
    """The coefficients of sum c_i t^(i n): each exponent multiplied by n."""
    spread = [field.zero] * (len(coeffs) * n)
    spread[::n] = coeffs
    return spread


def _powers(series, field: FieldSpec) -> Powers:
    """A cache of the powers of each series, on integers."""
    return Powers(tuple(ClearedSeries.of(s) for s in series), ClearedSeries([1], 1, field.characteristic))


def _convolve(a, b):
    """The coefficients of (sum a_i t^i) * (sum b_j t^j), on integers."""
    raw = [0] * max(0, len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                raw[i + j] += x * y
    return raw


def _image(field: FieldSpec, terms, powers: Powers) -> ClearedSeries:
    """The sum of c * prod_i images[i]^(e_i) over `terms`, pairs (e, c) with c nonzero.

    `powers` caches the images as ClearedSeries.  Every term is summed at one
    common scale."""
    terms = list(terms)
    coeffs, scale = field.cleared([c for _, c in terms])
    products = []
    for exps, _ in terms:
        factors = [powers.power(i, e) for i, e in enumerate(exps) if e]
        products.append(reduce(mul, factors) if factors else powers.one)
    common = math.lcm(*(term.scale for term in products))
    raw = [0] * max([0] + [len(term.ints) for term in products])
    for c, term in zip(coeffs, products):
        c *= common // term.scale
        for k, v in enumerate(term.ints):
            if v:
                raw[k] += c * v
    p = field.characteristic
    if p:
        raw = [v % p for v in raw]
    return ClearedSeries(raw, scale * common, p)


def _least_order(series) -> tuple:
    """(index, order) of the first of `series` of least t-order, INF when all are zero.

    A polynomial's order is scanned once and kept, and so is an on-demand
    series' once a read has found it.  The other on-demand series are read
    one coefficient at a time, in lockstep, up to the least order: the read
    ends as soon as one of the series is known to be nonzero there."""
    known = [s.order() if s.exact else s._order for s in series]
    if None not in known:
        least = min(known)
        return known.index(least), least
    for i in itertools.count():
        for j, (s, order) in enumerate(zip(series, known)):
            if order == i or (order is None and s.coefficient(i)):
                if order is None:
                    s._order = i
                return j, i


class _Quotient:
    """The quotient a / b on integers, extended on demand by `_series_quotient`.

    A series is read on integers as x_i = num * X_i / (scale * ratio^i): an
    expanded series as `FieldSpec.cleared` clears it (num = ratio = 1), an
    on-demand one through its `_Quotient`, whose `ints` are the X_i computed so
    far.  With d the order of b, u and v the operands' ratios and w their lcm,
    A_k = A_(k+d) (w/u)^k and B_k = B_(k+d) (w/v)^k make a / b a constant times
    A(t/w) / B(t/w).  With c = |B_0|, the recurrence's R_k = c^(k+1) (A/B)_k
    are this quotient's `ints`, at num = num_a scale_b v^d, scale =
    num_b scale_a u^d c and ratio = c w.  Over F_p every num, scale and ratio
    is 1, and c is made 1 by the inverse of B_0.
    """

    __slots__ = (
        "field", "ints", "num", "scale", "ratio", "shift", "dividend", "divisor",
        "head", "head_step", "weights", "weight", "weight_step",
    )

    def __init__(self, a, b, d: int):
        self.field = field = a.field
        p = field.characteristic
        self.shift = d
        self.ints = []
        a_ints, a_num, a_scale, u, a_source = _operand(a)
        b_ints, b_num, b_scale, v, b_source = _operand(b)
        self.dividend, self.divisor = (a_ints, a_source), (b_ints, b_source)
        w = math.lcm(u, v)
        lead = b_ints[d]
        if p:
            c, sign = 1, pow(lead, p - 2, p)
        else:
            c, sign = abs(lead), (1 if lead > 0 else -1)
        self.num = a_num * b_scale * v**d
        self.scale = b_num * a_scale * u**d * c
        self.ratio = c * w
        # R_k = head_k A_(k+d) - sum_j weight_j R_(k-j), with head_k = sign (c w/u)^k and
        # weight_j = sign B_(j+d) (w/v) (c w/v)^(j-1); `head` and `weight` are the next powers.
        self.head, self.head_step = sign, c * (w // u)
        self.weights, self.weight, self.weight_step = [], sign * (w // v), c * (w // v)
        if d == 0 and type(a) is _OnDemandSeries and a._dropped:
            self.ints.append(0)  # A_0 is the dropped constant
            self.head *= self.head_step

    def values(self, start: int, stop: int) -> list:
        """Coefficients start to stop - 1 as field elements; the caller extends first."""
        ints, field = self.ints[start:stop], self.field
        if self.num != 1:
            ints = [self.num * v for v in ints]
        if self.ratio == 1:
            return field.uncleared(ints, self.scale)
        values, scale = [], self.scale * self.ratio**start
        for v in ints:
            values.append(Fraction(v, scale))
            scale *= self.ratio
        return values


def _operand(series) -> tuple:
    """(ints, num, scale, ratio, source) of an operand of `_Quotient`: an on-demand
    series reads its quotient's growing `ints`, and `source` is that quotient."""
    if type(series) is _OnDemandSeries:
        q = series._quotient
        return q.ints, q.num, q.scale, q.ratio, q
    ints, scale = series.field.cleared(series.coeffs)
    return ints, 1, scale, 1, None


def _series_quotient(q: _Quotient, n: int) -> None:
    """Extend the recurrence of q (`_Quotient`) to its first n coefficients.

    With c = |B_0| each R_k = c^(k+1) (A / B)_k stays integral:
    R_k = c^k A_k - sum_{j=1}^{k} B_j c^(j-1) R_{k-j}, with A and B negated when
    B_0 < 0.  Over F_p, A and B are first multiplied by the inverse of B_0, so
    c = 1 and R is reduced mod p.  An on-demand operand is extended first, to the
    n + d coefficients that the new entries read, and no further.  Each lift of a
    Nash chain divides the previous lift, so the operands are walked on an explicit
    stack: a chain of any length extends without recursion."""
    if n <= len(q.ints):
        return
    pending = [(q, n, False)]  # (quotient, length, whether its operands are extended)
    while pending:
        q, n, ready = pending.pop()
        R = q.ints
        if n <= len(R):
            continue
        d, p = q.shift, q.field.characteristic
        (A, a_source), (B, b_source) = q.dividend, q.divisor
        if not ready:
            m = n + d
            short = a_source is not None and len(A) < m, b_source is not None and len(B) < m
            if any(short):
                pending.append((q, n, True))  # extended once the operands above it are
                if short[0]:
                    pending.append((a_source, m, False))
                if short[1]:
                    pending.append((b_source, m, False))
                continue
        weights, power, step = q.weights, q.weight, q.weight_step
        for j in range(len(weights) + 1, min(n, len(B) - d)):
            weight = B[j + d] * power
            weights.append(weight % p if p else weight)
            power *= step
        q.weight = power
        power, step = q.head, q.head_step
        for k in range(len(R), n):
            a = A[k + d] * power if k + d < len(A) else 0
            v = a - sum(map(mul, weights, reversed(R)))
            R.append(v % p if p else v)
            power *= step
        q.head = power


class _OnDemandSeries:
    """A quotient (`TruncatedSeries.divide`) that does not terminate: coefficient
    i is exact, computed by `_series_quotient` when first read, and `dropped`
    reads the constant term as zero.  `_order` is its order once `_least_order`
    has read it."""

    exact = monomial = False

    def __init__(self, quotient: _Quotient, dropped: bool = False):
        self.field = quotient.field
        self._quotient = quotient
        self._dropped = dropped
        self._order = None

    def is_exactly_zero(self) -> bool:
        return False

    def coefficient(self, i: int):
        if i == 0 and self._dropped:
            return self.field.zero
        _series_quotient(self._quotient, i + 1)
        return self._quotient.values(i, i + 1)[0]

    divide = TruncatedSeries.divide

    def without_constant(self) -> "_OnDemandSeries":
        return _OnDemandSeries(self._quotient, True)

    @property
    def coeffs(self):
        raise EngineError("an on-demand series has no finite expansion: it is read one coefficient at a time")

    def __str__(self):
        return "(a quotient read on demand)"


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
    _chart = None  # not a field: `chart` fills it on the first read that succeeds
    _leads = _UNREAD  # not a field: `leads` fills it on the first read
    _certified = None  # not a field: the polynomial `certify_on_hypersurface` last certified it on

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
        if all(comp.is_exactly_zero() for comp in self.components):
            raise InvalidArc("arc must have at least one nonzero component")

    @classmethod
    def _of(cls, variables: tuple, components: tuple, field: FieldSpec) -> "Arc":
        # Internal: components are series over field with zero constant term, not all exactly zero.
        arc = cls.__new__(cls)
        object.__setattr__(arc, "variables", variables)
        object.__setattr__(arc, "components", components)
        object.__setattr__(arc, "field", field)
        return arc

    def component(self, name: str) -> TruncatedSeries:
        return self.components[self.variables.index(name)]

    def order(self) -> int:
        """nu_t: minimal t-order over the components."""
        return self.chart()[1]

    def chart(self) -> tuple:
        """(index, nu): nu = `order`, and index the first component of t-order nu,
        the chart of the blow-up of the arc's center.

        Read on the first call and kept: a blow-up reads it to pick its chart
        and to measure its run.  `_least_order` reads the on-demand components
        of a lift (`blowup_lift`) in lockstep up to nu, and a lift keeps its
        chart component, of known order, so the read ends.  InvalidArc when
        every component is zero, on every read."""
        chart = self._chart
        if chart is None:
            chart = _least_order(self.components)
            if chart[1] == INF:
                raise InvalidArc("arc must have at least one nonzero component")
            self.__dict__["_chart"] = chart
        return chart

    def leads(self):
        """(pattern, leads, monomial) for `lead_sums` along an arc of polynomials, None along any other:
        each component's t-order and lowest coefficient, None for a zero component, and
        whether every component is zero or one term c t^k, so that the sums are the whole image.
        Scanned on the first read and kept, as `chart` is."""
        leads = self._leads
        if leads is _UNREAD:
            leads = None
            if all(c.exact for c in self.components):
                pattern = tuple(c.order() if c.coeffs else None for c in self.components)
                lows = tuple(None if k is None else c.coeffs[k] for c, k in zip(self.components, pattern))
                leads = pattern, lows, all(c.monomial or not c.coeffs for c in self.components)
            self.__dict__["_leads"] = leads
        return leads

    def reparametrize(self, n: int) -> "Arc":
        return Arc(self.variables, tuple(c.reparametrize(n) for c in self.components), self.field)

    def compose(self, inner: TruncatedSeries) -> "Arc":
        """Each component composed with inner, one cache of inner's powers for all;
        an exact monomial inner, an exponent map, reads none."""
        powers = None if inner.monomial else _powers((inner,), self.field)
        return Arc(self.variables, tuple(c.compose(inner, powers) for c in self.components), self.field)

    def powers(self) -> Powers:
        """A cache of the components' powers, on integers, that `arc_image` calls may share."""
        return _powers(self.components, self.field)

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


def ensure_arc_ring(owner, arc: Arc, kind: str) -> None:
    """FieldMismatch, then VariableMismatch, unless `owner`, a polynomial or an
    algebra that `kind` names in the error, has the arc's field and variables."""
    ensure_same_field(owner.field, arc.field)
    if owner.variables != arc.variables:
        raise VariableMismatch(f"{kind} variables {owner.variables} vs arc variables {arc.variables}")


def arc_image(poly: MultiPoly, arc: Arc, powers: Powers | None = None) -> ClearedSeries:
    """phi(f) on integers: `arc_substitute` before the image is brought back into the field.

    `powers` (`Arc.powers`) may be shared between calls."""
    ensure_arc_ring(poly, arc, "polynomial")
    if powers is None:
        powers = arc.powers()
    return _image(arc.field, poly.terms.items(), powers)


def arc_substitute(poly: MultiPoly, arc: Arc) -> TruncatedSeries:
    """Evaluate a polynomial along an arc: phi(f) in K[[t]].

    Along a monomial arc (`Arc.leads`) the image is read whole from the
    `lead_sums`, with no series product, up to the last degree whose sum is
    nonzero; any other arc is evaluated by `arc_image`."""
    pattern, leads, monomial = arc.leads() or (None, None, False)
    if not monomial:
        return arc_image(poly, arc).series(arc.field)
    ensure_arc_ring(poly, arc, "polynomial")
    field = arc.field
    sums = lead_sums(poly.terms.items(), pattern, leads, field.characteristic)
    nonzero = {degree: (num, den) for degree, (num, den) in sums.items() if num}
    if not nonzero:
        return TruncatedSeries.zero(field)
    values = [field.zero] * (max(nonzero) + 1)
    for degree, (num, den) in nonzero.items():
        values[degree] = field.uncleared([num], den)[0]
    return TruncatedSeries(field, tuple(values))


def _term_degree(exps, pattern):
    """The t-degree <a, e> of x^e along x_i -> u_i t^(a_i), or None when it uses an x_i -> 0."""
    degree = 0
    for a, e in zip(pattern, exps):
        if e:
            if a is None:
                return None
            degree += a * e
    return degree


def lead_sums(terms, pattern, leads, p) -> dict:
    """{d: (num, den)}: the sum of c * prod lead_i^(e_i) over the terms c x^e of
    t-degree d, as a cleared fraction, num reduced mod p when p > 0.

    Along an arc with component t-orders `pattern` (None for a zero
    component) and lowest coefficients `leads`, a term c x^e maps to t-order
    at least d = <e, pattern>, with that product as its coefficient there, or
    to 0 when it uses a zero component.  At L = min d the sum is the initial
    form at the leads: ord_t(f(arc)) = L when its num is nonzero, else at
    least L + 1.  Along a monomial arc x_i -> lead_i t^(pattern_i)
    (`Arc.leads`) they are the whole image: ord_t(f(arc)) is the least d
    with a nonzero num, and f maps to exactly zero when every num vanishes.
    """
    sums = {}
    for exps, coeff in terms:
        degree = _term_degree(exps, pattern)
        if degree is None:
            continue
        n, d = coeff.numerator, coeff.denominator
        for lead, e in zip(leads, exps):
            if e:
                n *= pow(lead.numerator, e, p or None)
                d *= lead.denominator ** e
        num, den = sums.get(degree, (0, 1))
        sums[degree] = num * d + n * den, den * d
    return {degree: (num % p if p else num, den) for degree, (num, den) in sums.items()}


def certify_on_hypersurface(poly: MultiPoly, arc: Arc, name: str | None) -> None:
    """Check that f vanishes exactly along the arc, which `name` names in errors
    (None: `arc <arc>`, formatted only then): ArcNotOnVariety when it does not.
    A success is recorded on the arc, so a second call with the same polynomial
    object is a read."""
    if arc._certified is poly:
        return
    if not arc_substitute(poly, arc).is_exactly_zero():
        raise ArcNotOnVariety(f"{name or f'arc {arc}'} does not lie on the hypersurface")
    arc.__dict__["_certified"] = poly

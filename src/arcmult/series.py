"""Univariate series in t, and arcs.

Every series is a polynomial in t.  A TruncatedSeries stores its
coefficients without trailing zeros, and every coefficient past them is
zero, so its order is exact, INF for the zero series.  Series are added,
multiplied, raised to powers, composed and reparametrized; none is divided.
A Nash chain lifts its arc in the chart of the graph coordinate t, where a
lift is a slice of each component's coefficients (`blowup.blowup_lift`).

An Arc assigns one series to each ambient variable; components always have
zero constant term (arcs are stored recentered at the current chart origin).

Leading terms along an arc have one rule on integers: a polynomial's kept cleared view
is grouped into `degree_classes` along the arc's exponent pattern, each summed by
`class_sum` at integer units, leads cleared by t -> b t (`cleared_leads`); `arc_substitute`,
the contact walk, the grid and `minimizing_arc` read these sums.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import mul

from .errors import ArcNotOnVariety, EngineError, InvalidArc, VariableMismatch
from .fields import INF, FieldSpec, Record, ensure_same_field, format_terms
from .poly import MultiPoly, Powers, parse_poly

#: `TruncatedSeries._order` and `Arc._leads` before their first read.
_UNREAD = object()


class TruncatedSeries(Record):
    _fields = ("field", "coeffs")
    _order = _UNREAD  # not a field: `order` fills it on the first read

    def __init__(self, field: FieldSpec, coeffs: tuple):
        vars(self).update(field=field, coeffs=coeffs)

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
        ints, scale = field.cleared(self.coeffs)
        members = [(c, ((0, k),) if k else ()) for k, c in enumerate(ints) if c]
        return _image(field, scale, members, powers).series(field)

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


def _image(field: FieldSpec, scale, members, powers: Powers) -> ClearedSeries:
    """The sum of c / scale * prod_i images[i]^(e_i) over a cleared view (`MultiPoly.cleared_view`):
    a member (c, pairs) per term, pairs its nonzero (i, e_i), c a nonzero integer.

    `powers` caches the images as ClearedSeries.  Every term is summed at one
    common scale."""
    products = []
    for _, pairs in members:
        factors = [powers.power(i, e) for i, e in pairs]
        products.append(reduce(mul, factors) if factors else powers.one)
    common = math.lcm(*(term.scale for term in products))
    raw = [0] * max([0] + [len(term.ints) for term in products])
    for (c, _), term in zip(members, products):
        c *= common // term.scale
        for k, v in enumerate(term.ints):
            if v:
                raw[k] += c * v
    p = field.characteristic
    if p:
        raw = [v % p for v in raw]
    return ClearedSeries(raw, scale * common, p)


def parse_series(text: str, field: FieldSpec) -> TruncatedSeries:
    """Parse polynomial-in-t text like "t^3 + 2*t^5" into an exact series."""
    poly = parse_poly(text, ("t",), field)
    degree = poly.total_degree()
    coeffs = [field.zero] * (degree + 1 if degree >= 0 else 0)
    for exps, coeff in poly.terms.items():
        coeffs[exps[0]] = coeff
    series = TruncatedSeries(field, tuple(coeffs))
    series.__dict__["_order"] = min((exps[0] for exps in poly.terms), default=INF)
    return series


# -- arcs ---------------------------------------------------------------------------------


class Arc(Record):
    """An assignment of a series (zero constant term) to each ambient variable."""

    _fields = ("variables", "components", "field")
    _leads = _UNREAD  # not a field: `leads` fills it on the first read
    _certified = None  # not a field: the polynomial `certify_on_hypersurface` last certified it on
    _contact = None  # not a field: (algebra, result) of the last `contact.normalized_contact` on it

    def __init__(self, variables: tuple, components: tuple, field: FieldSpec = None):
        variables, components = tuple(variables), tuple(components)
        if field is None:
            if not components:
                raise InvalidArc("arc needs at least one component")
            field = components[0].field
        if len(variables) != len(components):
            raise VariableMismatch(f"{len(components)} components for variables {variables}")
        for comp in components:
            ensure_same_field(comp.field, field)
            if not field.is_zero(comp.coefficient(0)):
                raise InvalidArc("arc components must have zero constant term")
        if all(comp.is_exactly_zero() for comp in components):
            raise InvalidArc("arc must have at least one nonzero component")
        vars(self).update(variables=variables, components=components, field=field)

    @classmethod
    def _of(cls, variables: tuple, components: tuple, field: FieldSpec) -> "Arc":
        # Internal: components are series over field with zero constant term, not all exactly zero.
        arc = cls.__new__(cls)
        vars(arc).update(variables=variables, components=components, field=field)
        return arc

    def component(self, name: str) -> TruncatedSeries:
        return self.components[self.variables.index(name)]

    def order(self) -> int:
        """nu_t: the least t-order of the components.  InvalidArc when every
        component is zero, as only an arc built past the constructor can be."""
        order = min(c.order() for c in self.components)
        if order == INF:
            raise InvalidArc("arc must have at least one nonzero component")
        return order

    def leads(self) -> tuple:
        """(pattern, leads, monomial) for the lead sums: each component's t-order and
        lowest coefficient, None for a zero component, and whether every component is
        zero or one term c t^k, so that the sums are the whole image.  Scanned on the
        first read and kept."""
        leads = self._leads
        if leads is _UNREAD:
            pattern = tuple(c.order() if c.coeffs else None for c in self.components)
            lows = tuple(None if k is None else c.coeffs[k] for c, k in zip(self.components, pattern))
            leads = pattern, lows, all(c.monomial or not c.coeffs for c in self.components)
            self.__dict__["_leads"] = leads
        return leads

    def reparametrize(self, n: int) -> "Arc":
        return Arc(self.variables, tuple(c.reparametrize(n) for c in self.components), self.field)

    def compose(self, inner: TruncatedSeries) -> "Arc":
        """Each component composed with inner, one cache of inner's powers for all;
        a monomial inner, an exponent map, reads none."""
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
    return _image(arc.field, *poly.cleared_view(), powers)


def arc_substitute(poly: MultiPoly, arc: Arc) -> TruncatedSeries:
    """Evaluate a polynomial along an arc: phi(f) in K[[t]].

    Along a monomial arc x_i -> lead_i t^(a_i) (`Arc.leads`) the image is read whole from
    the lead sums, with no series product: the coefficient of t^d is s_d / (scale * b^d),
    s_d the `class_sum` of f's degree-d class at the `cleared_leads` and scale that of
    f's cleared view, up to the last nonzero s_d; any other arc is evaluated by `arc_image`."""
    pattern, leads, monomial = arc.leads()
    if not monomial:
        return arc_image(poly, arc).series(arc.field)
    ensure_arc_ring(poly, arc, "polynomial")
    field = arc.field
    units, b = cleared_leads(pattern, leads)
    scale, p = poly.cleared_view()[0], field.characteristic
    sums = [(degree, class_sum(members, units, p)) for degree, members in degree_classes(poly, pattern)]
    nonzero = [(degree, total) for degree, total in sums if total]  # by increasing degree
    values = [field.zero] * (nonzero[-1][0] + 1 if nonzero else 0)
    for degree, total in nonzero:
        values[degree] = field.uncleared([total], scale * b**degree)[0]
    return TruncatedSeries(field, tuple(values))


def degree_along(pairs, pattern):
    """The t-degree <a, e> of the term whose nonzero (i, e_i) are `pairs` (`MultiPoly.sparse_terms`)
    along x_i -> u_i t^(a_i), or None when it uses an x_i -> 0: the one rule that places a term."""
    degree = 0
    for i, e in pairs:
        a = pattern[i]
        if a is None:
            return None
        degree += a * e
    return degree


def degree_classes(poly: MultiPoly, pattern) -> list:
    """[(d, members)] by increasing d: the members (c, pairs) of f's cleared view by t-degree (`degree_along`)."""
    classes = {}
    for member in poly.cleared_view()[1]:
        if (degree := degree_along(member[1], pattern)) is not None:
            classes.setdefault(degree, []).append(member)
    return sorted(classes.items())


def cleared_leads(pattern, leads) -> tuple:
    """(units, b): units_i = lead_i * b^(a_i), the leads after t -> b t for b the lcm of their
    denominators, integers as a_i >= 1 (None for a zero component; b = 1 over F_p)."""
    b = math.lcm(*[u.denominator for u in leads if u is not None])
    return [None if u is None else u.numerator * b**a // u.denominator for a, u in zip(pattern, leads)], b


def class_sum(members, units, p) -> int:
    """The sum of c * prod units[i]^(e_i) over a degree class's members (c, pairs), mod p if p > 0."""
    total = 0
    for c, pairs in members:
        for i, e in pairs:
            c *= units[i] ** e
        total += c
    return total % p if p else total


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

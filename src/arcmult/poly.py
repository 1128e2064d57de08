"""Exact multivariate polynomial arithmetic over Q or F_p.

Polynomials are sparse maps from dense exponent tuples to nonzero field
elements, aligned with an ordered variable list, with one sparse view of the terms
(`MultiPoly.sparse_terms`, on integers `MultiPoly.cleared_view`) that every walk over
the variables a term uses reads.  Everything here is exact: order at a point is computed by
translating the point to the origin, and derivatives are divided-power
(Hasse) derivatives, which stay correct in positive characteristic where
iterated partials can vanish.

Values are immutable after construction; all operations return new objects.
"""

from __future__ import annotations

import math
import re

from .errors import EngineError, ParseError, VariableMismatch
from .fields import INF, FieldSpec, ensure_same_field, format_terms

Point = tuple  # coordinates: one field element per ambient variable


def origin(variables, field: FieldSpec) -> Point:
    return tuple(field.zero for _ in variables)


def check_point(point, variables, field: FieldSpec) -> Point:
    if len(point) != len(variables):
        raise VariableMismatch(
            f"point has {len(point)} coordinates, expected {len(variables)}"
        )
    return tuple(field.coerce(c) for c in point)


class MultiPoly:
    """Sparse exact polynomial in an ordered tuple of variables."""

    __slots__ = ("variables", "terms", "field", "_hash", "_order", "_sparse", "_cleared")

    def __init__(self, variables, terms, field: FieldSpec):
        self.variables = tuple(variables)
        width = len(self.variables)
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise VariableMismatch(
                    f"exponent vector {exps} has wrong length for {self.variables}"
                )
            value = field.coerce(coeff)
            if not field.is_zero(value):
                clean[tuple(exps)] = value
        self.terms = clean
        self.field = field
        self._hash = self._order = self._sparse = self._cleared = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _of(cls, variables: tuple, terms: dict, field: FieldSpec) -> "MultiPoly":
        # Internal: terms map exponent tuples of the right width to nonzero field elements.
        poly = cls.__new__(cls)
        poly.variables = variables
        poly.terms = terms
        poly.field = field
        poly._hash = poly._order = poly._sparse = poly._cleared = None
        return poly

    @classmethod
    def zero(cls, variables, field):
        return cls(variables, {}, field)

    @classmethod
    def constant(cls, value, variables, field):
        return cls(variables, {(0,) * len(variables): value}, field)

    @classmethod
    def variable(cls, name, variables, field):
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r} in {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: field.one}, field)

    # -- basic queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.variables), self.field.zero)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        return max((e[i] for e in self.terms), default=-1)

    def order_at_origin(self):
        """Minimal total degree of a nonzero term; INF for the zero polynomial.

        Computed once: a blow-up step asks for it in the strict transform, in
        the chart's divisibility check and for the next multiplicity."""
        if self._order is None:
            self._order = min((sum(e) for e in self.terms), default=INF)
        return self._order

    def sparse_terms(self) -> tuple:
        """(pairs, coefficient) per term in the order of `terms`, pairs its nonzero (index, exponent)s;
        kept from the first read, as `order_at_origin` is.  `image` walks it, and
        `cleared_view` clears it."""
        if self._sparse is None:
            self._sparse = tuple((tuple((i, e) for i, e in enumerate(x) if e), c) for x, c in self.terms.items())
        return self._sparse

    def cleared_view(self) -> tuple:
        """(scale, members): the sparse view on integers, a member (c, pairs) per term, its coefficient
        c / scale; kept from the first read.  Lead sums, arc images and Hasse derivatives read it."""
        if self._cleared is None:
            ints, scale = self.field.cleared([c for _, c in self.sparse_terms()])
            self._cleared = scale, tuple(zip(ints, [pairs for pairs, _ in self._sparse]))
        return self._cleared

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise VariableMismatch(f"unknown variable {name!r} in {self.variables}")

    # -- ring arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        ensure_same_field(self.field, other.field)
        if self.variables != other.variables:
            raise VariableMismatch(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        return self._of(self.variables, _sum_terms(self.field, (self.terms, other.terms)), self.field)

    def __neg__(self):
        field = self.field
        return self._of(self.variables, {e: field.neg(c) for e, c in self.terms.items()}, field)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        field = self.field
        a, da = field.cleared(self.terms.values())
        b, db = field.cleared(other.terms.values())
        raw = {}
        for e1, x in zip(self.terms, a):
            for e2, y in zip(other.terms, b):
                e = tuple(i + j for i, j in zip(e1, e2))
                raw[e] = raw.get(e, 0) + x * y
        return self._of(self.variables, {e: c for e, c in zip(raw, field.uncleared(raw.values(), da * db)) if c}, field)

    def __pow__(self, n: int):
        if n < 0:
            raise EngineError("negative polynomial power")
        if len(self.terms) == 1:  # (c x^e)^n = c^n x^(n e) in one step, as the parser reads t^84
            [(e, c)] = self.terms.items()
            p = self.field.characteristic
            return self._of(self.variables, {tuple(n * i for i in e): pow(c, n, p) if p else c**n}, self.field)
        one = MultiPoly.constant(self.field.one, self.variables, self.field)
        return Powers((self,), one).power(0, n)

    def scale(self, value):
        field = self.field
        value = field.coerce(value)
        if field.is_zero(value):
            return self.zero(self.variables, field)
        return self._of(self.variables, {e: field.mul(c, value) for e, c in self.terms.items()}, field)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.variables, self.field, frozenset(self.terms.items()))
            )
        return self._hash

    # -- substitution, translation, evaluation ------------------------------------

    def substitute(self, values: dict) -> "MultiPoly":
        """Ring homomorphism sending each named variable to a polynomial.

        Unmapped variables map to themselves; every value must share one
        variable tuple and the coefficient field.
        """
        if not values:
            return self
        target = next(iter(values.values()))
        for poly in values.values():
            ensure_same_field(poly.field, self.field)
            if poly.variables != target.variables:
                raise VariableMismatch("substitution values disagree on variables")
        images = []
        for name in self.variables:
            if name in values:
                images.append(values[name])
            else:
                images.append(MultiPoly.variable(name, target.variables, self.field))
        return self.image(Powers(images, MultiPoly.constant(self.field.one, target.variables, self.field)))

    def image(self, powers: "Powers") -> "MultiPoly":
        """f under the ring map sending variable i to the polynomial powers.images[i].

        Each term of the view starts from its coefficient times powers.one, the
        shortest factor to scale, and the terms are merged in one `_sum_terms`."""
        one = powers.one
        parts = []
        for pairs, coeff in self.sparse_terms():
            term = one.scale(coeff)
            for i, e in pairs:
                term = term * powers.power(i, e)
            parts.append(term.terms)
        return MultiPoly._of(one.variables, _sum_terms(self.field, parts), self.field)

    def translate(self, point) -> "MultiPoly":
        """f(x + p), by a Taylor shift per coordinate: x_i^e -> sum_k binom(e, k) p_i^(e-k) x_i^k.

        Terms free of x_i are fixed by the shift and kept as they are.  The others are
        expanded; binomials vanishing mod p drop out, as in `hasse_derivatives`, and the
        sums are taken in ints through `FieldSpec.cleared`, as in `__mul__`.  They are
        then merged into the fixed terms by `_add_into`, which drops the sums that vanish."""
        return self._shift(check_point(point, self.variables, self.field))

    def _shift(self, point, caps=None, bound=INF) -> "MultiPoly":
        # Internal: `translate` by a point whose coordinates are already field elements.
        # `caps` maps a coordinate to a degree: its shift builds only the terms of at most
        # that degree in it, as `nash_sequence` works modulo a power of that coordinate.
        # `bound` drops the terms of total degree above it from the result.
        field = self.field
        p = field.characteristic
        shifted = self
        for i, c in enumerate(point):
            if field.is_zero(c):
                continue
            fixed = {}
            moving = []
            for exps, a in shifted.terms.items():
                if exps[i]:
                    moving.append((exps, a))
                else:
                    fixed[exps] = a
            if not moving:
                continue
            # c = u / d, so c^j = u^j d^(n-j) / d^n: the powers on integers, mod p over F_p,
            # made only for the rows that read them.
            (u,), d = field.cleared([c])
            n = max(exps[i] for exps, _ in moving)
            top = caps.get(i, n) if caps else n
            rows = {}  # e -> the (k, binom(e, k) c^(e-k)), k <= top, whose binomial is nonzero in the field
            power_scale = d**n
            coeffs, scale = field.cleared([a for _, a in moving])
            raw = {}
            for (exps, _), a in zip(moving, coeffs):
                e = exps[i]
                if e not in rows:
                    binoms = ((k, math.comb(e, k)) for k in range(min(e, top) + 1))
                    rows[e] = [
                        (k, b * (pow(u, e - k, p) if p else u ** (e - k) * d ** (n - e + k)))
                        for k, b in binoms
                        if not p or b % p
                    ]
                for k, b in rows[e]:
                    key = exps[:i] + (k,) + exps[i + 1 :]
                    raw[key] = raw.get(key, 0) + a * b
            # Only a k = 0 key, free of x_i, can meet a fixed term.
            _add_into(field, fixed, zip(raw, field.uncleared(raw.values(), scale * power_scale)))
            shifted = MultiPoly._of(self.variables, fixed, field)
        if bound < INF:
            shifted = MultiPoly._of(self.variables, {e: a for e, a in shifted.terms.items() if sum(e) <= bound}, field)
        return shifted

    def evaluate(self, point):
        point = check_point(point, self.variables, self.field)
        values = {
            name: MultiPoly.constant(c, (), self.field) for name, c in zip(self.variables, point)
        }
        return self.substitute(values).constant_value()

    def order_at(self, point):
        """Order of f in the local ring at a rational point; INF iff f = 0."""
        return self.translate(point).order_at_origin()

    # -- divided-power derivatives ---------------------------------------------------

    def hasse_derivatives(self, order: int) -> dict:
        """{alpha: D^alpha f} for each multi-index 1 <= |alpha| < order with a nonzero
        divided-power derivative, in one walk over the kept cleared view (`cleared_view`):
        c x^e adds prod_i binom(e_i, alpha_i) c x^(e - alpha) to D^alpha f for each alpha <= e
        on its nonzero exponents.  Binomials that vanish mod p drop out, no two terms of one
        derivative merge, and the products are taken in ints, as in `__mul__`."""
        field, top, p = self.field, order - 1, self.field.characteristic
        scale, members = self.cleared_view()
        derived = {}  # alpha -> {e - alpha: int}
        for exps, (c, pairs) in zip(self.terms, members):
            below = [((0,) * len(exps), c, top)]  # (alpha, binom(e, alpha) c, top - |alpha|)
            for i, e in pairs:
                row = [(a, math.comb(e, a)) for a in range(min(e, top) + 1)]
                below = [(alpha[:i] + (a,) + alpha[i + 1 :], value * b, left - a)
                         for alpha, value, left in below for a, b in row if a <= left and (not p or b % p)]
            for alpha, value, left in below[1:]:  # below[0] is alpha = 0
                derived.setdefault(alpha, {})[tuple(e - a for e, a in zip(exps, alpha))] = value
        return {
            alpha: MultiPoly._of(self.variables, dict(zip(terms, field.uncleared(terms.values(), scale))), field)
            for alpha, terms in derived.items()
        }

    # -- variable bookkeeping -----------------------------------------------------------

    def restrict(self, variables) -> "MultiPoly":
        """Reinterpret over a sub-tuple of variables (the rest must not occur)."""
        variables = tuple(variables)
        keep = [self._index(name) for name in variables]
        drop = [i for i in range(len(self.variables)) if i not in keep]
        terms = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] for i in drop):
                raise VariableMismatch(
                    f"polynomial involves dropped variable(s); cannot restrict to {variables}"
                )
            terms[tuple(exps[i] for i in keep)] = coeff
        return MultiPoly(variables, terms, self.field)

    def extend(self, variables) -> "MultiPoly":
        """Reinterpret over a super-tuple of variables."""
        variables = tuple(variables)
        positions = [variables.index(name) for name in self.variables]
        width = len(variables)
        terms = {}
        for exps, coeff in self.terms.items():
            e_new = [0] * width
            for pos, e in zip(positions, exps):
                e_new[pos] = e
            terms[tuple(e_new)] = coeff
        return MultiPoly._of(variables, terms, self.field)

    def coefficients_in(self, name: str) -> dict:
        """Coefficients of powers of one variable, as polynomials (that variable removed)."""
        i = self._index(name)
        buckets: dict = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            rest = exps[:i] + (0,) + exps[i + 1 :]
            buckets.setdefault(k, {})[rest] = coeff
        return {k: self._of(self.variables, t, self.field) for k, t in buckets.items()}

    def normalized(self) -> "MultiPoly":
        """Scale so the coefficient of the minimal term (deglex) is one."""
        if not self.terms:
            return self
        lead = min(self.terms, key=lambda e: (sum(e), e))
        return self.scale(self.field.inv(self.terms[lead]))

    # -- display ----------------------------------------------------------------------

    def __str__(self):
        terms = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            factors = (name if e == 1 else f"{name}^{e}" for name, e in zip(self.variables, exps) if e)
            terms.append((self.terms[exps], "*".join(factors)))
        return format_terms(self.field, terms) or "0"

    def __repr__(self):
        return f"MultiPoly({self})"


def _add_into(field: FieldSpec, terms: dict, pairs) -> dict:
    """Add (exponents, coefficient) pairs into the term map `terms` in place and return it: the one
    sum rule, `field.add` only on a key already present, a sum that vanishes dropped.  `_sum_terms`,
    the Taylor shift's merge and the visible route's pivot reduction read it."""
    for e, c in pairs:
        if e in terms:
            c = field.add(terms[e], c)
        if c:
            terms[e] = c
        else:
            terms.pop(e, None)
    return terms


def _sum_terms(field: FieldSpec, parts) -> dict:
    """The term map of a sum of term maps, merged in order by `_add_into`, the first copied:
    the sum of `MultiPoly.__add__`, `MultiPoly.image` and the parser, one pass for n summands."""
    terms = {}
    for part in parts:
        terms = _add_into(field, terms, part.items()) if terms else dict(part)
    return terms


class Powers:
    """images[i]^e (polynomials or series) by repeated squaring, every power cached for reuse.

    An odd power is the even one below it times the image, so the squares that
    odd powers pass through are cached too."""

    def __init__(self, images, one):
        self.images = tuple(images)
        self.one = one
        self._cache: dict = {}

    def power(self, index: int, exponent: int):
        if exponent == 0:
            return self.one
        if exponent == 1:
            return self.images[index]
        key = (index, exponent)
        cached = self._cache.get(key)
        if cached is None:
            if exponent & 1:
                cached = self.power(index, exponent - 1) * self.images[index]
            else:
                half = self.power(index, exponent // 2)
                cached = half * half
            self._cache[key] = cached
        return cached


# -- parsing ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*^()]))"
)


#: Digits of one integer literal in input text (int() refuses more than 4,300).
MAX_LITERAL_DIGITS = 1000


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            column = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", column=column)
        if match.group("int") is not None:
            digits, column = match.group("int"), match.start("int") + 1
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(f"literal of more than {MAX_LITERAL_DIGITS} digits", column=column)
            tokens.append(("int", int(digits), column))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name") + 1))
        else:
            tokens.append(("op", match.group("op"), match.start("op") + 1))
        pos = match.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


#: Caps on each power and product in input text, checked before it is computed:
#: its total degree, over Q the bit size of its coefficients, and its term count.
MAX_POWER_DEGREE = 1000
MAX_POWER_BITS = 1 << 16
MAX_TERMS = 1000


def _height_bits(poly: MultiPoly) -> int:
    # Parsed coefficients are integers, and |coefficients of a*b| <= |a|_1 * |b|_1.
    return sum(abs(c.numerator) for c in poly.terms.values()).bit_length()


def _check_size(kind: str, poly: MultiPoly, degree: int, bits: int, terms: int, column: int):
    """Refuse a power or product of polynomials in the ring of `poly` before it is computed."""
    if degree > MAX_POWER_DEGREE:
        raise ParseError(f"{kind} of total degree above {MAX_POWER_DEGREE}", column=column)
    if poly.field.characteristic == 0 and bits > MAX_POWER_BITS:
        raise ParseError(f"{kind} whose coefficients may exceed {MAX_POWER_BITS} bits", column=column)
    width = len(poly.variables)
    if min(terms, math.comb(width + max(degree, 0), width)) > MAX_TERMS:
        raise ParseError(f"{kind} of possibly more than {MAX_TERMS} terms", column=column)


def _check_power(base: MultiPoly, exponent: int, column: int):
    # base^e has at most as many terms as there are degree-e monomials in len(base) symbols.
    terms = math.comb(len(base.terms) + exponent - 1, exponent) if exponent else 1
    bits = exponent * _height_bits(base)
    _check_size("power", base, base.total_degree() * exponent, bits, terms, column)


def _check_product(left: MultiPoly, right: MultiPoly, column: int):
    degree = left.total_degree() + right.total_degree()
    bits = _height_bits(left) + _height_bits(right)
    _check_size("product", left, degree, bits, len(left.terms) * len(right.terms), column)


class _PolyParser:
    """Recursive-descent parser for `y^2 - x^3` style expressions."""

    def __init__(self, text, variables, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op):
        kind, value, col = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", column=col)

    def parse(self) -> MultiPoly:
        poly = self.expression()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", column=col)
        return poly

    def expression(self) -> MultiPoly:
        """A sum, its summands merged into one term map by `_sum_terms`."""
        summands, sign = [], "+"
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                sign = value
            elif summands:
                return MultiPoly._of(self.variables, _sum_terms(self.field, summands), self.field)
            summand = self.term()
            summands.append((-summand if sign == "-" else summand).terms)

    def term(self) -> MultiPoly:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                _, _, col = self.peek()
                factor = self.factor()
                _check_product(poly, factor, col)
                poly = poly * factor
            else:
                return poly

    def factor(self) -> MultiPoly:
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, exponent, col = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", column=col)
            _check_power(base, exponent, col)
            return base**exponent
        return base

    def atom(self) -> MultiPoly:
        kind, value, col = self.take()
        if kind == "int":
            return MultiPoly.constant(value, self.variables, self.field)
        if kind == "name":
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", column=col)
            return MultiPoly.variable(value, self.variables, self.field)
        if kind == "op" and value == "(":
            poly = self.expression()
            self.expect_op(")")
            return poly
        raise ParseError(f"unexpected token {value!r}", column=col)


def parse_poly(text: str, variables, field: FieldSpec) -> MultiPoly:
    """Parse integer-coefficient polynomial text over the given variables."""
    try:
        return _PolyParser(text, variables, field).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None

"""Exact multivariate polynomial arithmetic over Q or F_p.

Polynomials are sparse maps from dense exponent tuples to nonzero field
elements, aligned with an ordered variable list.  Everything here is exact:
order at a point is computed by translating the point to the origin, and
derivatives are divided-power (Hasse) derivatives, which stay correct in
positive characteristic where iterated partials can vanish.

Values are immutable after construction; all operations return new objects.
"""

from __future__ import annotations

import math
import re

from .errors import EngineError, ParseError, VariableMismatch
from .fields import INF, FieldSpec, ensure_same_field

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

    __slots__ = ("variables", "terms", "field", "_hash")

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
        self._hash = None

    # -- constructors ----------------------------------------------------------

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

    def _new(self, terms):
        return MultiPoly(self.variables, terms, self.field)

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
        """Minimal total degree of a nonzero term; INF for the zero polynomial."""
        if not self.terms:
            return INF
        return min(sum(e) for e in self.terms)

    def initial_form(self) -> "MultiPoly":
        """Lowest-degree homogeneous part (the initial form at the origin)."""
        if not self.terms:
            return self
        low = min(sum(e) for e in self.terms)
        return self._new({e: c for e, c in self.terms.items() if sum(e) == low})

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
        field = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(terms.get(e, field.zero), c)
            if field.is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
        return self._new(terms)

    def __neg__(self):
        field = self.field
        return self._new({e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        field = self.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = field.add(terms.get(e, field.zero), field.mul(c1, c2))
                if field.is_zero(s):
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return self._new(terms)

    def __pow__(self, n: int):
        if n < 0:
            raise EngineError("negative polynomial power")
        result = MultiPoly.constant(self.field.one, self.variables, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, value):
        field = self.field
        value = field.coerce(value)
        if field.is_zero(value):
            return self.zero(self.variables, field)
        return self._new({e: field.mul(c, value) for e, c in self.terms.items()})

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
        result = MultiPoly.zero(target.variables, self.field)
        power_cache = {}
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(coeff, target.variables, self.field)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                key = (i, e)
                if key not in power_cache:
                    power_cache[key] = images[i] ** e
                term = term * power_cache[key]
            result = result + term
        return result

    def translate(self, point) -> "MultiPoly":
        """f(x + p): moves the point p to the origin."""
        point = check_point(point, self.variables, self.field)
        if all(self.field.is_zero(c) for c in point):
            return self
        values = {}
        for name, c in zip(self.variables, point):
            if not self.field.is_zero(c):
                var = MultiPoly.variable(name, self.variables, self.field)
                values[name] = var + MultiPoly.constant(c, self.variables, self.field)
        return self.substitute(values)

    def evaluate(self, point):
        point = check_point(point, self.variables, self.field)
        field = self.field
        total = field.zero
        for exps, coeff in self.terms.items():
            value = coeff
            for c, e in zip(point, exps):
                if e:
                    value = field.mul(value, field.coerce(c**e))
            total = field.add(total, value)
        return total

    def order_at(self, point):
        """Order of f in the local ring at a rational point; INF iff f = 0."""
        return self.translate(point).order_at_origin()

    # -- divided-power derivatives ---------------------------------------------------

    def hasse_derivative(self, alpha) -> "MultiPoly":
        """Divided-power derivative: sends x^m to binom(m, alpha) x^(m-alpha)."""
        alpha = tuple(alpha)
        if len(alpha) != len(self.variables):
            raise VariableMismatch(
                f"multi-index {alpha} has wrong length for {self.variables}"
            )
        field = self.field
        terms = {}
        for exps, coeff in self.terms.items():
            if any(e < a for e, a in zip(exps, alpha)):
                continue
            scale = 1
            for e, a in zip(exps, alpha):
                scale *= math.comb(e, a)
            value = field.mul(coeff, field.coerce(scale))
            if field.is_zero(value):
                continue
            e_new = tuple(e - a for e, a in zip(exps, alpha))
            s = field.add(terms.get(e_new, field.zero), value)
            if field.is_zero(s):
                terms.pop(e_new, None)
            else:
                terms[e_new] = s
        return self._new(terms)

    # -- variable bookkeeping -----------------------------------------------------------

    def restrict(self, variables) -> "MultiPoly":
        """Reinterpret over a sub-tuple of variables (the rest must not occur)."""
        variables = tuple(variables)
        keep = []
        for name in variables:
            keep.append(self._index(name))
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
        return MultiPoly(variables, terms, self.field)

    def coefficients_in(self, name: str) -> dict:
        """Coefficients of powers of one variable, as polynomials (that variable removed)."""
        i = self._index(name)
        buckets: dict = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            rest = exps[:i] + (0,) + exps[i + 1 :]
            buckets.setdefault(k, {})[rest] = coeff
        return {k: self._new(t) for k, t in buckets.items()}

    def divide_by_power(self, name: str, k: int) -> "MultiPoly":
        """Exact division by x^k; raises if any term has a smaller exponent."""
        if k == 0:
            return self
        i = self._index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] < k:
                raise EngineError(
                    f"{self} is not divisible by {name}^{k}"
                )
            terms[exps[:i] + (exps[i] - k,) + exps[i + 1 :]] = coeff
        return self._new(terms)

    def normalized(self) -> "MultiPoly":
        """Scale so the coefficient of the minimal term (deglex) is one."""
        if not self.terms:
            return self
        lead = min(self.terms, key=lambda e: (sum(e), e))
        return self.scale(self.field.inv(self.terms[lead]))

    # -- display ----------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.field
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            ]
            negative = field.characteristic == 0 and coeff < 0
            magnitude = -coeff if negative else coeff
            if not factors:
                body = field.element_str(magnitude)
            elif magnitude == field.one:
                body = "*".join(factors)
            else:
                body = field.element_str(magnitude) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


# -- parsing ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-z][a-z0-9]*)|(?P<op>[-+*^()]))"
)


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
            tokens.append(("int", int(match.group("int")), match.start("int") + 1))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name") + 1))
        else:
            tokens.append(("op", match.group("op"), match.start("op") + 1))
        pos = match.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


#: Caps on one power `base^e` in input text, checked before it is computed: its
#: total degree, and over Q a bound on the bit size of its coefficients.
MAX_POWER_DEGREE = 1000
MAX_POWER_BITS = 1 << 16


def _check_power(base: MultiPoly, exponent: int, column: int):
    if base.total_degree() * exponent > MAX_POWER_DEGREE:
        raise ParseError(f"power of total degree above {MAX_POWER_DEGREE}", column=column)
    if base.field.characteristic == 0:
        # Parsed coefficients are integers, and |coefficients of base^e| <= (sum |c|)^e.
        height = int(sum(abs(c) for c in base.terms.values())).bit_length()
        if exponent * height > MAX_POWER_BITS:
            raise ParseError(
                f"power whose coefficients may exceed {MAX_POWER_BITS} bits", column=column
            )


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
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.take()
            negate = value == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                poly = poly * self.factor()
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

"""Exact coefficient fields: the rationals and prime fields F_p.

Rational elements are `fractions.Fraction` (arbitrary precision, always in
lowest terms); prime-field elements are plain ints in ``range(p)``.  Every
value in a computation carries one FieldSpec, and all arithmetic is routed
through it so reductions mod p happen exactly once per operation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EngineError, FieldMismatch

#: Shared infinity marker for orders (compares correctly against Fraction/int).
INF = float("inf")

#: Characteristics from here on are refused: the primality check is trial division.
MAX_CHARACTERISTIC = 1 << 40


def format_order(value) -> str:
    """An order or rational as report text: "inf", or "p/q" in lowest terms."""
    return "inf" if value == INF else str(Fraction(value))


def format_terms(field, terms) -> str:
    """Text of a sum of (coefficient, factor) terms, such as "-x + 2*x^2", or "".

    A constant term has factor "", and terms with a zero coefficient are skipped."""
    parts = []
    for coeff, factor in terms:
        if field.is_zero(coeff):
            continue
        negative = field.characteristic == 0 and coeff < 0
        magnitude = -coeff if negative else coeff
        if not factor:
            body = str(magnitude)
        elif magnitude == field.one:
            body = factor
        else:
            body = f"{magnitude}*{factor}"
        sign = ("- " if negative else "+ ") if parts else ("-" if negative else "")
        parts.append(sign + body)
    return " ".join(parts)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


class Record:
    """A value class: `==`, `hash` and `repr` read the fields that `_fields` names.

    `__init__` writes each field once, through `__dict__`; assigning or
    deleting an attribute raises AttributeError, unless a class says it is
    mutable.  These are plain methods, not generated ones, since every CLI
    run pays for what its imports build."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(Record):
    """A perfect coefficient field: Q (characteristic 0) or F_p (p prime)."""

    _fields = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        p = characteristic
        if p >= MAX_CHARACTERISTIC:
            raise EngineError(f"characteristic must be below 2^40, got {p}")
        if p != 0 and not _is_prime(p):
            raise EngineError(f"characteristic must be 0 or prime, got {p}")
        vars(self).update(characteristic=p, zero=Fraction(0) if p == 0 else 0, one=Fraction(1) if p == 0 else 1)

    # -- element construction -------------------------------------------------

    def coerce(self, value):
        """Bring an int, Fraction or same-field element into this field."""
        if type(value) is Fraction and self.characteristic == 0:
            return value
        p = self.characteristic
        if p == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise FieldMismatch(f"cannot coerce {value!r} into Q")
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise FieldMismatch(f"denominator of {value} vanishes mod {p}")
            return (value.numerator % p) * self.inv(value.denominator % p) % p
        raise FieldMismatch(f"cannot coerce {value!r} into F_{p}")

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b):
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def neg(self, a):
        p = self.characteristic
        return -a if p == 0 else (-a) % p

    def mul(self, a, b):
        p = self.characteristic
        return a * b if p == 0 else (a * b) % p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        p = self.characteristic
        return 1 / Fraction(a) if p == 0 else pow(a, p - 2, p)

    def cleared(self, values):
        """(integers, scale) with values = integers / scale: over Q the lcm of the
        denominators clears them once, read with the numerators in one pass of
        `as_integer_ratio`; over F_p the values themselves and 1."""
        if self.characteristic:
            return values, 1
        ratios = [c.as_integer_ratio() for c in values]
        scale = math.lcm(*[d for _, d in ratios])
        return [n * (scale // d) for n, d in ratios], scale

    def uncleared(self, integers, scale) -> list:
        """The field elements integers / scale, for scale a product of scales from `cleared`."""
        p = self.characteristic
        if p:
            return [v % p for v in integers]
        if scale == 1:
            return list(map(Fraction, integers))
        return [Fraction(v, scale) for v in integers]

    def is_zero(self, a) -> bool:
        return a == 0

    # -- small deterministic pools (search / sampling) --------------------------

    def units(self, limit: int = 6) -> tuple:
        """Small nonzero elements, deterministic order."""
        if self.characteristic == 0:
            pool = []
            for n in range(1, limit // 2 + 2):
                pool.extend([Fraction(n), Fraction(-n)])
            return tuple(pool[:limit])
        p = self.characteristic
        return tuple(range(1, min(p, limit + 1)))


#: The rationals, shared instance.
RATIONALS = FieldSpec(0)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


def ensure_same_field(a: FieldSpec, b: FieldSpec):
    if a is not b and a != b:  # one shared object is the common case, and `is` is cheaper than `==`
        raise FieldMismatch(f"field mismatch: {a} vs {b}")

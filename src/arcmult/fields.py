"""Exact coefficient fields: the rationals and prime fields F_p.

Rational elements are `fractions.Fraction` (arbitrary precision, always in
lowest terms); prime-field elements are plain ints in ``range(p)``.  Every
value in a computation carries one FieldSpec, and all arithmetic is routed
through it so reductions mod p happen exactly once per operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineError, FieldMismatch

#: Shared infinity marker for orders (compares correctly against Fraction/int).
INF = float("inf")

#: Characteristics from here on are refused: the primality check is trial division.
MAX_CHARACTERISTIC = 1 << 40


def format_order(value) -> str:
    """An order or rational as report text: "inf", or "p/q" in lowest terms."""
    return "inf" if value == INF else str(Fraction(value))


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


@dataclass(frozen=True)
class FieldSpec:
    """A perfect coefficient field: Q (characteristic 0) or F_p (p prime)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= MAX_CHARACTERISTIC:
            raise EngineError(f"characteristic must be below 2^40, got {p}")
        if p != 0 and not _is_prime(p):
            raise EngineError(f"characteristic must be 0 or prime, got {p}")

    @property
    def kind(self) -> str:
        return "Rationals" if self.characteristic == 0 else "PrimeField"

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

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b):
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def sub(self, a, b):
        p = self.characteristic
        return a - b if p == 0 else (a - b) % p

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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def element_str(self, a) -> str:
        return str(a)

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

    def random_element(self, rng, bound: int = 3, nonzero: bool = False):
        while True:
            value = self.coerce(rng.randint(-bound, bound))
            if not (nonzero and self.is_zero(value)):
                return value


#: The rationals, shared instance.
RATIONALS = FieldSpec(0)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


def ensure_same_field(a: FieldSpec, b: FieldSpec):
    if a != b:
        raise FieldMismatch(f"field mismatch: {a} vs {b}")

"""Rees algebras as finite weighted-generator lists.

An algebra R[f_1 W^{n_1}, ..., f_r W^{n_r}] is stored extensionally by its
generators; the graded pieces are never materialized.  The observers the
rest of the engine relies on (singular-locus membership, order at a point,
contact order along an arc) all factor through generators, and integral
closure is deliberately not computed: "up to integral closure" statements
are checked at observer level only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EngineError,
    NotInSingularLocus,
    NotPermissible,
    VariableMismatch,
)
from .fields import FieldSpec, ensure_same_field
from .poly import MultiPoly, Point, check_point, parse_poly


def _generator_key(poly: MultiPoly, weight: int):
    low = min((sum(e) for e in poly.terms), default=0)
    return (weight, low, str(poly))


@dataclass(frozen=True)
class ReesAlgebra:
    variables: tuple
    generators: tuple  # of (MultiPoly, weight >= 1) pairs
    field: FieldSpec
    trivial: bool = False  # a unit acquired weight 0 in some construction

    @classmethod
    def of(cls, variables, generators, field: FieldSpec, trivial: bool = False) -> "ReesAlgebra":
        """Build with cleanup: drop zero polynomials and weight-0 entries, dedupe."""
        variables = tuple(variables)
        seen = set()
        kept = []
        for poly, weight in generators:
            ensure_same_field(poly.field, field)
            if poly.variables != variables:
                raise VariableMismatch(
                    f"generator variables {poly.variables} vs ambient {variables}"
                )
            if poly.is_zero():
                continue
            if weight < 1:
                if poly.is_constant():
                    trivial = True
                continue
            key = (poly, weight)
            if key in seen:
                continue
            seen.add(key)
            kept.append(key)
        kept.sort(key=lambda g: _generator_key(*g))
        return cls(variables, tuple(kept), field, trivial)

    @classmethod
    def from_weighted(cls, variables, weighted, field: FieldSpec) -> "ReesAlgebra":
        """Convenience: weighted is an iterable of (polynomial text or MultiPoly, weight)."""
        gens = []
        for poly, weight in weighted:
            if isinstance(poly, str):
                poly = parse_poly(poly, variables, field)
            gens.append((poly, weight))
        return cls.of(variables, gens, field)

    # -- basic facts -----------------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """True when the singular locus is empty for structural reasons."""
        if self.trivial:
            return True
        return any(g.is_constant() for g, _ in self.generators)

    def _require_generators(self):
        if not self.generators and not self.trivial:
            raise EngineError("Rees algebra with empty generator list has no observers")

    def sing_member(self, point: Point) -> bool:
        """Point of Sing: every generator has local order >= its weight."""
        if self.is_trivial:
            return False
        self._require_generators()
        point = check_point(point, self.variables, self.field)
        return all(g.order_at(point) >= w for g, w in self.generators)

    def ord_at(self, point: Point) -> Fraction:
        """Hironaka order: min over generators of order/weight (on Sing only)."""
        if not self.sing_member(point):
            raise NotInSingularLocus(f"point {point} is not in Sing")
        point = check_point(point, self.variables, self.field)
        return min(Fraction(g.order_at(point)) / w for g, w in self.generators)

    # -- algebra operations -----------------------------------------------------------

    def odot(self, other: "ReesAlgebra") -> "ReesAlgebra":
        """Smallest Rees algebra containing both: concatenated generators."""
        ensure_same_field(self.field, other.field)
        if self.variables != other.variables:
            raise VariableMismatch(
                f"ambient mismatch: {self.variables} vs {other.variables}"
            )
        return ReesAlgebra.of(
            self.variables,
            self.generators + other.generators,
            self.field,
            trivial=self.trivial or other.trivial,
        )

    def diff_closure(self) -> "ReesAlgebra":
        """Differential closure via divided-power derivatives.

        Adds hasse_derivative(f_i, a) with weight n_i - |a| for every
        multi-index 1 <= |a| < n_i; generators are scalar-normalized so a
        second application is a set-level fixed point.
        """
        gens = []
        for poly, weight in self.generators:
            gens.append((poly.normalized(), weight))
            for total in range(1, weight):
                for alpha in _multi_indices(len(self.variables), total):
                    derived = poly.hasse_derivative(alpha)
                    if not derived.is_zero():
                        gens.append((derived.normalized(), weight - total))
        return ReesAlgebra.of(self.variables, gens, self.field, trivial=self.trivial)

    def weighted_transform(self, chart, center: Point) -> "ReesAlgebra":
        """Transform under a point blow-up chart: pull back, divide by e^weight.

        Divisibility of each pullback by the exceptional coordinate to the
        weight power is exactly permissibility of the center; failure raises
        NotPermissible.
        """
        center = check_point(center, self.variables, self.field)
        gens = []
        trivial = self.trivial
        for poly, weight in self.generators:
            shifted = poly.translate(center)
            if shifted.order_at_origin() < weight:
                raise NotPermissible(
                    f"center {center} is not in Sing: {poly} W^{weight} does not transform"
                )
            transformed = chart.transform(shifted, weight)
            trivial = trivial or transformed.is_constant()  # transforms are nonzero
            gens.append((transformed, weight))
        return ReesAlgebra.of(self.variables, gens, self.field, trivial=trivial)

    # -- display ----------------------------------------------------------------------

    def generator_texts(self) -> list:
        return [f"{g} @ {w}" for g, w in self.generators]

    def __str__(self):
        return "[" + ", ".join(self.generator_texts()) + "]"

    def __repr__(self):
        return f"ReesAlgebra({self})"


def presenting_algebra(poly: MultiPoly) -> ReesAlgebra:
    """Diff closure of R[f W^m], m = ord_0(f): it presents the locus of multiplicity m."""
    if poly.is_zero():
        raise EngineError("polynomial is zero")
    return ReesAlgebra.of(poly.variables, [(poly, poly.order_at_origin())], poly.field).diff_closure()


def _multi_indices(width: int, total: int):
    """All exponent tuples of the given width summing to total."""
    if width == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(width - 1, total - head):
            yield (head,) + rest


def parse_rees(text: str, variables, field: FieldSpec) -> ReesAlgebra:
    """Parse "[y^2-x^3 @ 2, x^2 @ 1]" style algebra text."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    gens = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise EngineError(f"generator {chunk!r} missing '@ weight'")
        poly_text, weight_text = chunk.rsplit("@", 1)
        gens.append((parse_poly(poly_text.strip(), variables, field), int(weight_text)))
    return ReesAlgebra.of(variables, gens, field)


def observers_agree(a: ReesAlgebra, b: ReesAlgebra, points) -> bool:
    """Same sing_member everywhere and same ord_at on the common singular locus."""
    for point in points:
        in_a = a.sing_member(point)
        if in_a != b.sing_member(point):
            return False
        if in_a and a.ord_at(point) != b.ord_at(point):
            return False
    return True

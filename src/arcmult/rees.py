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
from .poly import MultiPoly, Point, check_point


def _generator_key(poly: MultiPoly, weight: int):
    low = min((sum(e) for e in poly.terms), default=0)
    return (weight, low, str(poly))


@dataclass(frozen=True)
class ReesAlgebra:
    variables: tuple
    generators: tuple  # of (MultiPoly, weight >= 1) pairs
    field: FieldSpec

    @classmethod
    def of(cls, variables, generators, field: FieldSpec) -> "ReesAlgebra":
        """Build with cleanup: drop zero polynomials and entries of weight below 1, dedupe."""
        variables = tuple(variables)
        seen = set()
        kept = []
        for poly, weight in generators:
            ensure_same_field(poly.field, field)
            if poly.variables != variables:
                raise VariableMismatch(
                    f"generator variables {poly.variables} vs ambient {variables}"
                )
            if poly.is_zero() or weight < 1:
                continue
            key = (poly, weight)
            if key in seen:
                continue
            seen.add(key)
            kept.append(key)
        kept.sort(key=lambda g: _generator_key(*g))
        return cls(variables, tuple(kept), field)

    # -- basic facts -----------------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """True when the singular locus is empty because a generator is a unit."""
        return any(g.is_constant() for g, _ in self.generators)

    def _require_generators(self):
        if not self.generators:
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

    def diff_closure(self) -> "ReesAlgebra":
        """Differential closure via divided-power derivatives.

        Adds hasse_derivative(f_i, a) with weight n_i - |a| for every
        multi-index 1 <= |a| < n_i; generators are scalar-normalized so a
        second application is a set-level fixed point.
        """
        gens = []
        for poly, weight in self.generators:
            gens.append((poly.normalized(), weight))
            # The derivative by alpha is zero unless alpha <= e for some term
            # exponent e: enumerate those, not every alpha with |alpha| < weight.
            alphas = {a for e in poly.terms for a in _indices_below(e, weight - 1) if any(a)}
            for alpha in alphas:
                derived = poly.hasse_derivative(alpha)
                if not derived.is_zero():
                    gens.append((derived.normalized(), weight - sum(alpha)))
        return ReesAlgebra.of(self.variables, gens, self.field)

    def weighted_transform(self, chart, center: Point) -> "ReesAlgebra":
        """Transform under a point blow-up chart: pull back, divide by e^weight.

        Divisibility of each pullback by the exceptional coordinate to the
        weight power is exactly permissibility of the center; failure raises
        NotPermissible.
        """
        center = check_point(center, self.variables, self.field)
        gens = []
        for poly, weight in self.generators:
            shifted = poly.translate(center)
            if shifted.order_at_origin() < weight:
                raise NotPermissible(
                    f"center {center} is not in Sing: {poly} W^{weight} does not transform"
                )
            gens.append((chart.transform(shifted, weight), weight))
        return ReesAlgebra.of(self.variables, gens, self.field)

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


def _indices_below(exps, budget: int):
    """Exponent tuples alpha <= exps entry by entry with |alpha| <= budget."""
    if not exps:
        yield ()
        return
    for head in range(min(exps[0], budget) + 1):
        for rest in _indices_below(exps[1:], budget - head):
            yield (head,) + rest

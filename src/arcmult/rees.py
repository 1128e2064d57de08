"""Rees algebras as finite weighted-generator lists.

An algebra R[f_1 W^{n_1}, ..., f_r W^{n_r}] is stored extensionally by its
generators; the graded pieces are never materialized.  The observers the
rest of the engine relies on (the order at a point of the singular locus,
the contact order along an arc) factor through generators, and integral
closure is deliberately not computed: "up to integral closure" statements
are checked at observer level only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .errors import EngineError, NotInSingularLocus, VariableMismatch
from .fields import FieldSpec, Record, ensure_same_field
from .poly import MultiPoly, Point, check_point


def _rank(generator) -> tuple:
    poly, weight = generator
    return weight, poly.order_at_origin()


class ReesAlgebra(Record):
    _fields = ("variables", "generators", "field")  # generators: (MultiPoly, weight >= 1) pairs
    closed = False  # not a field: true on a `diff_closure` result

    def __init__(self, variables: tuple, generators: tuple, field: FieldSpec):
        vars(self).update(variables=variables, generators=generators, field=field)

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
        ordered = []  # by (weight, order at the origin), ties by text: only tied generators are formatted
        for _, run in groupby(sorted(kept, key=_rank), _rank):
            run = list(run)
            ordered += sorted(run, key=lambda g: str(g[0])) if len(run) > 1 else run
        return cls(variables, tuple(ordered), field)

    # -- basic facts -----------------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """True when the singular locus is empty because a generator is a unit."""
        return any(g.is_constant() for g, _ in self.generators)

    def ord_at(self, point: Point) -> Fraction:
        """Hironaka order at a point of Sing: min over generators of order/weight.

        Sing is where every generator's local order reaches its weight, so it is
        empty when a generator is a unit.  Each generator is translated to the
        point once; a point off Sing raises NotInSingularLocus.
        """
        if not self.is_trivial:
            if not self.generators:
                raise EngineError("Rees algebra with empty generator list has no observers")
            at = check_point(point, self.variables, self.field)
            orders = [(g.order_at(at), w) for g, w in self.generators]
            if all(o >= w for o, w in orders):
                return min(Fraction(o) / w for o, w in orders)
        raise NotInSingularLocus(f"point {point} is not in Sing")

    # -- algebra operations -----------------------------------------------------------

    def diff_closure(self) -> "ReesAlgebra":
        """Differential closure via divided-power derivatives.

        Adds D^a f_i with weight n_i - |a| for every multi-index 1 <= |a| < n_i
        whose derivative is nonzero, all of one generator's derivatives in one
        walk over its sparse view (`MultiPoly.hasse_derivatives`): each term
        c x^e reaches only the a <= e on its nonzero exponents.  Generators are
        scalar-normalized so a second application is a set-level fixed point,
        which `closed` marks.
        """
        gens = []
        for poly, weight in self.generators:
            gens.append((poly.normalized(), weight))
            gens += [(d.normalized(), weight - sum(a)) for a, d in poly.hasse_derivatives(weight).items()]
        closure = ReesAlgebra.of(self.variables, gens, self.field)
        closure.__dict__["closed"] = True
        return closure

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


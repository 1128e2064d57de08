"""Elimination algebras for monic hypersurface presentations.

Two constructive routes to an algebra on the base whose order at the
projected center is the dimension-d order function:

* the Tschirnhausen route (characteristic not dividing the degree): kill
  the subleading coefficient, then take the differential closure of the
  remaining coefficients with their natural weights;
* the visible route (any characteristic): differentially close, saturate
  with products of generators, and keep every k-linear combination that is
  free of the eliminated variables.

The visible route produces a subalgebra of the true elimination algebra,
so its order is an upper bound; on the bundled examples equality is
established by the arc-side verifier, which also exhibits a minimizing arc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .contact import contact_order, lead_sums, normalized_contact, sample_arcs
from .errors import (
    CharDividesDegree,
    EngineError,
    NoRationalUnit,
    NotInSingularLocus,
)
from .fields import INF, FieldSpec, format_order
from .poly import MultiPoly, origin
from .rees import ReesAlgebra, presenting_algebra
from .series import Arc, TruncatedSeries, certify_on_hypersurface


@dataclass(frozen=True)
class MonicPresentation:
    """A hypersurface f, monic of degree >= 2 in one fiber variable.

    `realizes_multiplicity` says whether the fiber degree equals the order
    of f at the origin; ord_d, and so the theorem verifier, require it.
    """

    base_variables: tuple
    fiber_variable: str
    poly: MultiPoly

    def __post_init__(self):
        object.__setattr__(self, "base_variables", tuple(self.base_variables))
        expected = self.base_variables + (self.fiber_variable,)
        if tuple(sorted(expected)) != tuple(sorted(self.poly.variables)):
            raise EngineError(
                f"presentation variables {expected} do not match polynomial over {self.poly.variables}"
            )
        degree = self.poly.degree_in(self.fiber_variable)
        lead = self.poly.coefficients_in(self.fiber_variable).get(degree)
        if degree < 2:
            raise EngineError(
                f"monic presentation needs fiber degree >= 2, got {degree}"
            )
        if lead is None or not lead.is_constant() or lead.constant_value() != self.field.one:
            raise EngineError("presentation polynomial is not monic in the fiber variable")

    @property
    def field(self) -> FieldSpec:
        return self.poly.field

    @property
    def degree(self) -> int:
        return self.poly.degree_in(self.fiber_variable)

    @property
    def realizes_multiplicity(self) -> bool:
        """True when the fiber degree equals the order at the origin."""
        return self.poly.order_at_origin() == self.degree

    def presenting_algebra(self) -> ReesAlgebra:
        """`rees.presenting_algebra` of the polynomial; bench/kernels.py calls it."""
        return presenting_algebra(self.poly)


@dataclass(frozen=True)
class EliminationResult:
    algebra: ReesAlgebra
    ord_d: Fraction
    method: str  # "Tschirnhausen" | "VisibleIntersection"

    def to_json(self) -> dict:
        return {
            "ord_d": str(self.ord_d),
            "method": self.method,
            "algebra": self.algebra.generator_texts(),
        }


def tschirnhausen(presentation: MonicPresentation) -> MonicPresentation:
    """Kill the degree-(m-1) fiber coefficient by x -> x - a_1/m."""
    field = presentation.field
    m = presentation.degree
    if field.characteristic != 0 and m % field.characteristic == 0:
        raise CharDividesDegree(
            f"characteristic {field.characteristic} divides the degree {m}"
        )
    coefficients = presentation.poly.coefficients_in(presentation.fiber_variable)
    subleading = coefficients.get(m - 1)
    if subleading is None or subleading.is_zero():
        return presentation
    fiber = MultiPoly.variable(
        presentation.fiber_variable, presentation.poly.variables, field
    )
    shift = subleading.scale(field.neg(field.inv(field.coerce(m))))
    transformed = presentation.poly.substitute(
        {presentation.fiber_variable: fiber + shift}
    )
    return MonicPresentation(
        presentation.base_variables, presentation.fiber_variable, transformed
    )


def coefficient_algebra(presentation: MonicPresentation) -> ReesAlgebra:
    """Differential closure of the coefficient generators a_i W^i on the base.

    Requires the subleading coefficient to vanish (apply tschirnhausen
    first): f = x^m + a_2 x^(m-2) + ... + a_m.
    """
    field = presentation.field
    m = presentation.degree
    coefficients = presentation.poly.coefficients_in(presentation.fiber_variable)
    subleading = coefficients.get(m - 1)
    if subleading is not None and not subleading.is_zero():
        raise EngineError("coefficient algebra needs the degree-(m-1) coefficient to vanish")
    generators = []
    for i in range(2, m + 1):
        coefficient = coefficients.get(m - i)
        if coefficient is None or coefficient.is_zero():
            continue
        generators.append((coefficient.restrict(presentation.base_variables), i))
    base = ReesAlgebra.of(presentation.base_variables, generators, field)
    return base.diff_closure()


# -- visible elimination -----------------------------------------------------------------


def _nullspace(matrix, field: FieldSpec):
    """Basis of the right nullspace of a small exact matrix (rows of field elements)."""
    if not matrix:
        return []
    rows = [list(row) for row in matrix]
    n_cols = len(rows[0])
    pivots = {}
    row_index = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row_index, len(rows)):
            if not field.is_zero(rows[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row_index], rows[pivot_row] = rows[pivot_row], rows[row_index]
        inv = field.inv(rows[row_index][col])
        rows[row_index] = [field.mul(v, inv) for v in rows[row_index]]
        for r in range(len(rows)):
            if r != row_index and not field.is_zero(rows[r][col]):
                factor = rows[r][col]
                rows[r] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(rows[r], rows[row_index])
                ]
        pivots[col] = row_index
        row_index += 1
    basis = []
    free_columns = [c for c in range(n_cols) if c not in pivots]
    for free in free_columns:
        vector = [field.zero] * n_cols
        vector[free] = field.one
        for col, r in pivots.items():
            vector[col] = field.neg(rows[r][free])
        basis.append(vector)
    return basis


def _weighted_products(generators, max_weight: int):
    """All products of generators with total weight <= max_weight, by weight."""
    pool = {w: [] for w in range(1, max_weight + 1)}
    state = [((), 0)]
    for idx, (_, weight) in enumerate(generators):
        new_state = list(state)
        for chosen, total in state:
            count = 1
            while total + count * weight <= max_weight:
                new_state.append((chosen + ((idx, count),), total + count * weight))
                count += 1
        state = new_state
    for chosen, total in state:
        if not chosen:
            continue
        product = None
        for idx, count in chosen:
            factor = generators[idx][0] ** count
            product = factor if product is None else product * factor
        pool[total].append(product)
    return pool


def visible_elimination(algebra: ReesAlgebra, eliminated) -> ReesAlgebra:
    """Constructive trace of the algebra on the coordinate subspace.

    Differential closure first, then per-weight k-linear elimination of
    every monomial containing an eliminated variable, over the pool of
    generator products.  The result is (a subalgebra of) the elimination
    algebra, diff-closed over the remaining variables.
    """
    eliminated = set(eliminated)
    closed = algebra.diff_closure()
    remaining = tuple(v for v in algebra.variables if v not in eliminated)
    if not remaining:
        raise EngineError("cannot eliminate every ambient variable")
    drop_indices = [i for i, v in enumerate(algebra.variables) if v in eliminated]

    def is_visible(poly: MultiPoly) -> bool:
        return all(not any(e[i] for i in drop_indices) for e in poly.terms)

    def bad_split(poly: MultiPoly):
        good, bad = {}, {}
        for exps, coeff in poly.terms.items():
            (bad if any(exps[i] for i in drop_indices) else good)[exps] = coeff
        return good, bad

    max_weight = max((w for _, w in closed.generators), default=0)
    pool = _weighted_products(closed.generators, max_weight)
    found = []
    for poly, weight in closed.generators:
        if is_visible(poly):
            found.append((poly.restrict(remaining), weight))
    field = algebra.field
    for weight, entries in pool.items():
        # Deduplicate normalized pool members; keep only columns with a bad part.
        columns = []
        seen = set()
        for poly in entries:
            if poly.is_zero():
                continue
            normal = poly.normalized()
            if normal in seen:
                continue
            seen.add(normal)
            good, bad = bad_split(normal)
            if bad:
                columns.append((good, bad))
        if len(columns) < 2:
            continue
        bad_monomials = sorted({e for _, bad in columns for e in bad})
        matrix = [
            [bad.get(monomial, field.zero) for _, bad in columns]
            for monomial in bad_monomials
        ]
        for vector in _nullspace(matrix, field):
            combined = MultiPoly.zero(algebra.variables, field)
            for coefficient, (good, _) in zip(vector, columns):
                if field.is_zero(coefficient):
                    continue
                combined = combined + MultiPoly(algebra.variables, good, field).scale(
                    coefficient
                )
            if not combined.is_zero():
                found.append((combined.restrict(remaining), weight))
    result = ReesAlgebra.of(remaining, found, field)
    return result.diff_closure()


def ord_d(presentation: MonicPresentation) -> EliminationResult:
    """Hironaka's order function in base dimension at the projected origin.

    NotInSingularLocus unless the fiber degree is the multiplicity of f.
    """
    if not presentation.realizes_multiplicity:
        raise NotInSingularLocus(
            "presentation does not realize the maximal multiplicity at the origin"
        )
    field = presentation.field
    m = presentation.degree
    if field.characteristic == 0 or m % field.characteristic != 0:
        reduced = tschirnhausen(presentation)
        algebra = coefficient_algebra(reduced)
        method = "Tschirnhausen"
    else:
        # R[f W^m] unclosed: visible_elimination closes it.
        generator = ReesAlgebra.of(presentation.poly.variables, [(presentation.poly, m)], field)
        algebra = visible_elimination(generator, {presentation.fiber_variable})
        method = "VisibleIntersection"
    if not algebra.generators:
        # Nothing survives elimination (f = z^m): the whole hypersurface has
        # multiplicity m, so no order bounds the base algebra.
        return EliminationResult(algebra, INF, method)
    value = algebra.ord_at(origin(presentation.base_variables, field))
    return EliminationResult(algebra, value, method)


def minimizing_arc(result: EliminationResult) -> Arc:
    """Arc on the base achieving r_bar = ord_d, built from an achieving generator.

    Picks a generator g W^l with ord(g)/l = ord_d, sets alpha = l (clearing
    the denominator) and searches small field units u with the initial form
    of g nonvanishing at u; the arc is y_i -> u_i t^alpha.  Along it the
    `lead_sums` sum at t-degree alpha * ord(g) is that initial form at u.
    """
    algebra = result.algebra
    field = algebra.field
    if result.ord_d == INF:
        raise EngineError("minimizing arc requires finite ord_d")
    achievers = [
        (weight, poly)
        for poly, weight in algebra.generators
        if Fraction(poly.order_at_origin()) / weight == result.ord_d
    ]
    if not achievers:
        raise EngineError("no generator achieves ord_d; inconsistent result")
    weight, poly = min(achievers, key=lambda pair: (pair[0], str(pair[1])))
    pattern = (weight,) * len(algebra.variables)
    low = weight * poly.order_at_origin()
    terms, p = poly.terms.items(), field.characteristic
    candidates = itertools.product(field.units(6), repeat=len(pattern))
    chosen = next((u for u in candidates if lead_sums(terms, pattern, u, p)[low]), None)
    if chosen is None:
        raise NoRationalUnit(
            "no unit tuple over the base field avoids the initial form's zero set"
        )
    components = tuple(TruncatedSeries.t_power(field, weight, u) for u in chosen)
    arc = Arc(algebra.variables, components, field)
    achieved = normalized_contact(algebra, arc)
    if achieved.r_bar != result.ord_d:
        raise EngineError(
            f"minimizing arc achieves {achieved.r_bar}, expected {result.ord_d}"
        )
    return arc


# -- the end-to-end verifier ------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Sampled verdict for min(normalized contact orders) = ord_d."""

    ord_d: Fraction
    method: str
    arcs_checked: int
    min_r_bar: object
    lower_bound_holds: bool
    witness_name: str | None
    witness_matches_projection: bool | None
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    details: dict

    def to_json(self) -> dict:
        data = {
            "ord_d": str(self.ord_d),
            "method": self.method,
            "arcs_checked": self.arcs_checked,
            "min_r_bar": format_order(self.min_r_bar),
            "checks": {
                "no_sample_below_ord_d": self.lower_bound_holds,
                "witness_achieves_ord_d": self.witness_name is not None,
                "witness_projection_compatible": self.witness_matches_projection,
            },
            "witness": self.witness_name,
            "verdict": self.verdict,
        }
        data.update(self.details)
        return data


def verify_main_theorem(
    presentation: MonicPresentation,
    elimination: EliminationResult,
    algebra: ReesAlgebra,
    candidates: dict,
    budget: int,
    seed: int,
    parametrization: Arc | None = None,
    candidates_certified: bool = False,
) -> TheoremReport:
    """Check both directions of min(Phi) = ord_d on candidates plus samples.

    (a) no arc's normalized contact order falls below ord_d, (b) some arc
    achieves it, and (c) for the achiever the contact order and arc order
    survive projection to the base.  A missing witness is reported as
    INCONCLUSIVE, never as a refutation.  The caller builds `elimination`, the
    `ord_d` of the presentation, and `algebra`, its presenting algebra G.
    Each candidate is certified unless `candidates_certified` says the caller has.

    Candidates and grid arcs are evaluated one by one.  An arc composed through
    the parametrization, phi o s, is counted and named like any other but
    neither built nor evaluated: G(phi o s) = G(phi) o s, so r(phi o s) =
    r(phi) * ord(s) and nu(phi o s) = nu(phi) * ord(s), and its r_bar is
    r_bar(phi), which one contact order on phi gives.  It is built only when
    it is the witness.
    """
    poly = presentation.poly

    for name, arc in () if candidates_certified else candidates.items():
        certify_on_hypersurface(poly, arc, f"candidate {name}")
    sampled = sample_arcs(poly, budget, seed, parametrization)
    named = [
        *((name, arc, None) for name, arc in candidates.items()),
        *((f"sample_{i}", arc, inner) for i, (arc, inner) in enumerate(sampled)),
    ]

    def r_bar_of(arc):
        r = contact_order(algebra, arc)
        return INF if r == INF else r / arc.order()

    composed_r_bar = r_bar_of(parametrization) if any(inner is not None for _, inner in sampled) else None
    min_r_bar = INF
    witness = None
    lower_bound_holds = True
    for name, arc, inner in named:
        r_bar = r_bar_of(arc) if inner is None else composed_r_bar
        # With ord_d = INF (f = z^m up to a shift) an arc with r = INF achieves it.
        if r_bar == elimination.ord_d and witness is None:
            witness = (name, arc if inner is None else parametrization.compose(inner))
        min_r_bar = min(min_r_bar, r_bar)
        if r_bar < elimination.ord_d:
            lower_bound_holds = False

    # minimizing_arc raises unless its r_bar is ord_d; no arc has a finite one at INF.
    constructed = None if elimination.ord_d == INF else minimizing_arc(elimination)

    witness_matches = None
    if witness is not None:
        _, arc = witness
        # The witness's r_bar is ord_d, so its r is ord_d * nu.
        r = INF if elimination.ord_d == INF else elimination.ord_d * arc.order()
        projected = arc.project(elimination.algebra.variables)
        base_contact = contact_order(elimination.algebra, projected)
        witness_matches = base_contact == r and projected.order() == arc.order()

    if not lower_bound_holds:
        verdict = "FAIL"
    elif witness is None:
        verdict = "INCONCLUSIVE"
    elif not witness_matches:
        verdict = "FAIL"
    else:
        verdict = "PASS"

    details = {
        "constructed_arc": None if constructed is None else str(constructed),
        "constructed_r_bar": str(elimination.ord_d),
        "witness_arc": str(witness[1]) if witness else None,
    }
    return TheoremReport(
        ord_d=elimination.ord_d,
        method=elimination.method,
        arcs_checked=len(named),
        min_r_bar=min_r_bar,
        lower_bound_holds=lower_bound_holds,
        witness_name=witness[0] if witness else None,
        witness_matches_projection=witness_matches,
        verdict=verdict,
        details=details,
    )

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
so its order is an upper bound.  Equality is shown only on the bundled
corpus, by the arc-side verifier, which also exhibits a minimizing arc.
Over F_3 the bound is strictly higher on z^3 + x^3 + 2*y^4*z^2 + 2*y^3 +
x^2*y^4*z^2 along one of the fibers z and x (4 against 11/3), and on
z^3 - x^4 - y^7 + x*y^4*z^2 (8/3, where an arc on it has r_bar 3/2).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .contact import contact_order, draw_key, grid_arc, grid_r_bars, normalized_contact, sample_arcs
from .errors import (
    CharDividesDegree,
    EngineError,
    NoRationalUnit,
    NotInSingularLocus,
    ParseError,
)
from .fields import INF, FieldSpec, Record, format_order
from .poly import MultiPoly, Powers, _add_into, origin
from .rees import ReesAlgebra, presenting_algebra
from .series import Arc, TruncatedSeries, certify_on_hypersurface, class_sum, cleared_leads, degree_classes


class MonicPresentation(Record):
    """A hypersurface f, monic of degree >= 2 in one fiber variable.

    `realizes_multiplicity` says whether the fiber degree equals the order
    of f at the origin; ord_d, and so the theorem verifier, require it.
    """

    _fields = ("base_variables", "fiber_variable", "poly")
    _algebra = None  # not a field: `presenting_algebra` fills it on the first call

    def __init__(self, base_variables: tuple, fiber_variable: str, poly: MultiPoly):
        base_variables = tuple(base_variables)
        expected = base_variables + (fiber_variable,)
        if tuple(sorted(expected)) != tuple(sorted(poly.variables)):
            raise EngineError(
                f"presentation variables {expected} do not match polynomial over {poly.variables}"
            )
        degree = poly.degree_in(fiber_variable)
        lead = poly.coefficients_in(fiber_variable).get(degree)
        if degree < 2:
            raise EngineError(
                f"monic presentation needs fiber degree >= 2, got {degree}"
            )
        if lead is None or not lead.is_constant() or lead.constant_value() != poly.field.one:
            raise EngineError("presentation polynomial is not monic in the fiber variable")
        vars(self).update(base_variables=base_variables, fiber_variable=fiber_variable, poly=poly)

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

    def presenting_algebra(self, algebra: ReesAlgebra | None = None) -> ReesAlgebra:
        """`rees.presenting_algebra` of the polynomial, kept from the first call, which
        `problems.run` makes with the algebra it built for the same polynomial object."""
        if self._algebra is None:
            self.__dict__["_algebra"] = algebra or presenting_algebra(self.poly)
        return self._algebra


class EliminationResult(Record):
    _fields = ("algebra", "ord_d", "method")  # method: "Tschirnhausen" | "VisibleIntersection"

    def __init__(self, algebra: ReesAlgebra, ord_d: Fraction, method: str):
        vars(self).update(algebra=algebra, ord_d=ord_d, method=method)

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


#: Most generator products the visible route builds; a pool above it is an input error.
POOL_CAP = 50000


def _pool_size(weights, max_weight: int) -> int:
    """How many products _weighted_products builds: the coin-change count of
    nonempty generator multisets of total weight <= max_weight."""
    ways = [1] + [0] * max_weight
    for weight in weights:
        for total in range(weight, max_weight + 1):
            ways[total] += ways[total - weight]
    return sum(ways) - 1


def _weighted_products(generators, max_weight: int) -> list:
    """(product, weight) for every product of generators of weight <= max_weight.

    Each product is built once, as the product before it in the enumeration
    (its prefix) times one cached power of the next generator.
    """
    powers = Powers([poly for poly, _ in generators], None)
    state = [(None, 0)]
    for idx, (_, weight) in enumerate(generators):
        for prefix, total in state[:]:
            for count in range(1, (max_weight - total) // weight + 1):
                factor = powers.power(idx, count)
                state.append((factor if prefix is None else prefix * factor, total + count * weight))
    return state[1:]


def visible_elimination(algebra: ReesAlgebra, eliminated) -> ReesAlgebra:
    """Constructive trace of the algebra on the coordinate subspace.

    Differential closure first, unless the algebra is `closed`, then
    per-weight k-linear elimination of the bad monomials, those containing
    an eliminated variable, over the pool of generator products; a pool
    above POOL_CAP products is refused before any is built.  The result is
    a subalgebra of the elimination algebra, diff-closed over the remaining
    variables, so its order is an upper bound, shown equal only on the
    bundled corpus and strictly higher on the two F_3 inputs of the module
    docstring.

    Each weight keeps an echelon basis of the bad parts met so far, keyed by
    leading bad monomial.  A product whose bad part reduces to zero against
    it is a combination of the earlier independent products, a unique one,
    so its reduced good part is, up to a scalar that the closure normalizes
    away, the one a nullspace of the matrix of bad parts would give.
    """
    eliminated = set(eliminated)
    closed = algebra if algebra.closed else algebra.diff_closure()
    remaining = tuple(v for v in algebra.variables if v not in eliminated)
    if not remaining:
        raise EngineError("cannot eliminate every ambient variable")
    drop_indices = [i for i, v in enumerate(algebra.variables) if v in eliminated]
    field = algebra.field

    def bad_split(poly: MultiPoly):
        good, bad = {}, {}
        for exps, coeff in poly.terms.items():
            (bad if any(exps[i] for i in drop_indices) else good)[exps] = coeff
        return good, bad

    weights = [w for _, w in closed.generators]
    max_weight = max(weights, default=0)
    if _pool_size(weights, max_weight) > POOL_CAP:
        raise ParseError(f"{len(weights)} generators make more than {POOL_CAP} elimination products")
    found = [(poly.restrict(remaining), w) for poly, w in closed.generators if not bad_split(poly)[1]]
    pivots = {}  # (weight, leading bad monomial) -> (good, bad) term maps, that coefficient 1
    for product, weight in _weighted_products(closed.generators, max_weight):
        good, bad = bad_split(product)
        if not bad:
            continue
        while bad:
            lead = max(bad)
            pivot = pivots.get((weight, lead))
            if pivot is None:
                inverse = field.inv(bad[lead])
                scaled = ({e: field.mul(c, inverse) for e, c in part.items()} for part in (good, bad))
                pivots[weight, lead] = tuple(scaled)
                break
            factor = field.neg(bad[lead])
            for part, pivot_part in zip((good, bad), pivot):
                _add_into(field, part, ((e, field.mul(factor, c)) for e, c in pivot_part.items()))
        else:
            if good:
                found.append((MultiPoly._of(algebra.variables, good, field).restrict(remaining), weight))
    return ReesAlgebra.of(remaining, found, field).diff_closure()


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
        # m is the order of f, so the presenting algebra is the closure of R[f W^m].
        algebra = visible_elimination(presentation.presenting_algebra(), {presentation.fiber_variable})
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
    of g nonvanishing at u; the arc is y_i -> u_i t^alpha.  The least of g's
    `degree_classes`, built once, is that initial form: each u is tried by its `class_sum`.
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
    form = degree_classes(poly, pattern)[0][1]  # the terms of g's initial form
    candidates = itertools.product(field.units(6), repeat=len(pattern))
    chosen = next((u for u in candidates if class_sum(form, cleared_leads(pattern, u)[0], field.characteristic)), None)
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


class TheoremReport(Record):
    """Sampled verdict for min(normalized contact orders) = ord_d; `verdict` is
    PASS, FAIL or INCONCLUSIVE."""

    _fields = (
        "ord_d", "method", "arcs_checked", "min_r_bar", "lower_bound_holds",
        "witness_name", "witness_matches_projection", "verdict", "details",
    )

    def __init__(
        self, ord_d: Fraction, method: str, arcs_checked: int, min_r_bar, lower_bound_holds: bool,
        witness_name: str | None, witness_matches_projection: bool | None, verdict: str, details: dict,
    ):
        vars(self).update(
            ord_d=ord_d, method=method, arcs_checked=arcs_checked, min_r_bar=min_r_bar,
            lower_bound_holds=lower_bound_holds, witness_name=witness_name,
            witness_matches_projection=witness_matches_projection, verdict=verdict, details=details,
        )

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
) -> TheoremReport:
    """Check both directions of min(Phi) = ord_d on candidates plus samples.

    (a) no arc's normalized contact order falls below ord_d, (b) some arc
    achieves it, and (c) for the achiever the contact order and arc order
    survive projection to the base.  A missing witness is reported as
    INCONCLUSIVE, never as a refutation.  The caller builds `elimination`, the
    `ord_d` of the presentation, and `algebra`, its presenting algebra G.
    Each candidate is certified (a read when the caller has certified it on
    f): the contact orders rely on every candidate lying on f.

    Every arc checked lies on f (a certified candidate, a grid arc, or an arc
    through the certified parametrization), so f W^m, which `diff_closure`
    keeps as (f.normalized(), m), maps to 0 and never attains r.  Every arc
    is evaluated on G, where f reads INF: from the leading terms, which
    vanish on a grid arc, or from the certificate recorded on a candidate
    or on the parametrization.  A candidate's r_bar is its
    `normalized_contact` on G, a read when `run`'s contact analysis
    recorded it there.

    Grid arcs, the (grid, None) entries of `sample_arcs`, stay exponent
    patterns: `grid_r_bars` reads their r_bars through one plan per pattern,
    and only a grid arc that is the witness is built (`grid_arc`), for its
    string and base projection.  The arcs composed through the
    parametrization, the (None, index) entries after the grid, are counted
    and named like any other but neither built nor evaluated: G(phi o s) =
    G(phi) o s, so r(phi o s) = r(phi) * ord(s) and nu(phi o s) = nu(phi) *
    ord(s), and every one has the r_bar of phi, which one contact order on
    phi gives.  They are compared as one group, named by its first index,
    and its first arc is built, from the series that `draw_key` decodes,
    only when the group holds the witness.
    """
    poly = presentation.poly

    for name, arc in candidates.items():
        certify_on_hypersurface(poly, arc, f"candidate {name}")
    sampled = sample_arcs(poly, budget, seed, parametrization)
    grid = next((i for i, (entry, _) in enumerate(sampled) if entry is None), len(sampled))

    # r_bar of each candidate, each grid arc and, as one, the composed arcs.
    r = contact_order(algebra, parametrization) if grid < len(sampled) else None
    composed = [] if r is None else [INF if r == INF else r / parametrization.order()]
    r_bars = [
        *(normalized_contact(algebra, arc).r_bar for arc in candidates.values()),
        *grid_r_bars(algebra, [entry for entry, _ in sampled[:grid]]),
        *composed,
    ]
    min_r_bar = min(r_bars, default=INF)
    lower_bound_holds = min_r_bar >= elimination.ord_d
    # With ord_d = INF (f = z^m up to a shift) an arc with r = INF achieves it.
    at = next((k for k, r_bar in enumerate(r_bars) if r_bar == elimination.ord_d), None)
    if at is None:
        witness = None
    elif at < len(candidates):
        witness = list(candidates.items())[at]
    elif (i := at - len(candidates)) < grid:
        witness = (f"sample_{i}", grid_arc(poly.variables, poly.field, sampled[i][0]))
    else:
        inner = TruncatedSeries.exact_series(poly.field, draw_key(poly.field, sampled[grid][1]))
        witness = (f"sample_{grid}", parametrization.compose(inner))

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
        arcs_checked=len(candidates) + len(sampled),
        min_r_bar=min_r_bar,
        lower_bound_holds=lower_bound_holds,
        witness_name=witness[0] if witness else None,
        witness_matches_projection=witness_matches,
        verdict=verdict,
        details=details,
    )

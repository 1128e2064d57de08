"""Order of contact of an arc with the maximum-multiplicity locus.

The order of contact r is the t-order of the image of the presenting Rees
algebra along the arc: min over generators of ord_t(phi(f_i)) / n_i.  Its
normalization r / nu_t(phi) is the quantity whose infimum over arcs the
theorem verifier compares against the elimination order, and its integral
part is the persistence computed independently by the blow-up oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DependenceInvalid, ParseError, PrecisionExhausted
from .fields import INF, format_order
from .poly import MultiPoly, Powers
from .rees import ReesAlgebra
from .series import Arc, TruncatedSeries, arc_substitute, certify_on_hypersurface


@dataclass(frozen=True)
class ContactResult:
    """Contact data of one arc: r, nu, r_bar = r/nu, rho = floor(r)."""

    r: object  # Fraction or INF
    nu: int
    r_bar: object  # Fraction or INF
    rho: object  # int or INF
    generator_orders: tuple  # of (generator index, order, INF or ">=N" beyond precision)

    def to_json(self) -> dict:
        return {
            "r": format_order(self.r),
            "nu": self.nu,
            "r_bar": format_order(self.r_bar),
            "rho": self.rho if self.rho != INF else "inf",
            "generator_orders": [
                [i, "inf" if o == INF else o] for i, o in self.generator_orders
            ],
        }


def _generator_orders(algebra: ReesAlgebra, arc: Arc):
    """t-order of each generator image; PrecisionExhausted when one is needed but unknown."""
    known = []
    pending = []
    powers = Powers(arc.components, TruncatedSeries.t_power(arc.field, 0))
    for i, (poly, weight) in enumerate(algebra.generators):
        image = arc_substitute(poly, arc, powers)
        order = image.known_order()
        if order is None:
            pending.append((i, weight, image.order_lower_bound()))
        else:
            known.append((i, weight, order))
    finite = [Fraction(o) / w for _, w, o in known if o != INF]
    best = min(finite) if finite else INF
    for i, weight, lower_bound in pending:
        if Fraction(lower_bound) / weight <= best:
            raise PrecisionExhausted(
                f"order of generator {i} indeterminate at this precision"
            )
    # Indeterminate orders provably exceed the minimum; report their lower bound.
    orders = {i: o for i, _, o in known}
    for i, _, lower_bound in pending:
        orders[i] = f">={lower_bound}"
    return best, tuple(sorted(orders.items()))


def contact_order(algebra: ReesAlgebra, arc: Arc):
    """r = ord_t(phi(G)); INF when the arc sits inside the singular locus."""
    best, _ = _generator_orders(algebra, arc)
    return best


def normalized_contact(algebra: ReesAlgebra, arc: Arc) -> ContactResult:
    best, orders = _generator_orders(algebra, arc)
    nu = arc.order()
    if best == INF:
        return ContactResult(INF, nu, INF, INF, orders)
    return ContactResult(best, nu, best / nu, math.floor(best), orders)


#: Largest exponent of a monomial grid arc, and largest degree of a random
#: series composed with the parametrization.
EXPONENT_BOUND = 8
DEGREE_BOUND = 8
#: Most assignments in the monomial grid.
GRID_CAP = 20000


def _monomial_grid(field, width: int, exponent_bound: int):
    """Assignments of the monomial arc grid, one (u, a) or None per variable.

    (u, a) stands for x_i -> u t^a and None for x_i -> 0; the all-None
    assignment is skipped.  Units and exponents are small, and the exponent
    bound shrinks in higher dimension to keep the grid within GRID_CAP arcs; a
    grid still above the cap at bound 1 is an input error.
    """
    units = field.units(6)
    bound = exponent_bound
    while bound > 1 and (1 + len(units) * bound) ** width > GRID_CAP:
        bound -= 1
    if (1 + len(units)) ** width > GRID_CAP:
        raise ParseError(f"{width} variables make more than {GRID_CAP} monomial grid arcs")
    choices = [None] + [(u, a) for a in range(1, bound + 1) for u in units]
    for assignment in itertools.product(choices, repeat=width):
        if any(c is not None for c in assignment):
            yield assignment


def _monomial_arc(variables, field, assignment) -> Arc:
    """The arc x_i -> u_i t^(a_i) of a grid assignment."""
    return Arc(
        variables,
        tuple(
            TruncatedSeries.zero(field)
            if choice is None
            else TruncatedSeries.t_power(field, choice[1], choice[0])
            for choice in assignment
        ),
        field,
    )


def _vanishes_on_monomial_arc(terms, field, assignment) -> bool:
    """Whether f maps to exactly zero along the monomial arc of a grid assignment.

    `terms` are the (exponents, coefficient) pairs of f.  A term c x^e maps
    to c * prod u_i^(e_i) * t^(<a, e>), or to 0 when it uses a variable set
    to 0, so f vanishes exactly when the coefficients cancel at every power
    of t.  This is arc_substitute(f, arc).is_exactly_zero() without series
    products.
    """
    sums = {}
    for exps, coeff in terms:
        degree = 0
        for choice, e in zip(assignment, exps):
            if e:
                if choice is None:
                    break
                u, a = choice
                coeff = field.mul(coeff, u**e)
                degree += a * e
        else:
            sums[degree] = field.add(sums.get(degree, field.zero), coeff)
    return all(field.is_zero(s) for s in sums.values())


def sample_arcs(poly: MultiPoly, budget: int, seed: int, parametrization: Arc | None = None) -> list:
    """Deterministic pool of arcs at the origin on which f vanishes exactly.

    Monomial grid arcs are admitted by exponent arithmetic.  The
    parametrization is checked once: f(phi) must be exactly zero
    (ArcNotOnVariety otherwise, PrecisionExhausted when its order is
    unknown).  Then f(phi o s) = f(phi) o s vanishes for every series s with
    zero constant term, so `budget` arcs composed through phi with random
    series drawn from `seed`, and reparametrizations of phi, are admitted
    without substitution.  Duplicate arcs are dropped.
    """
    field = poly.field
    terms = list(poly.terms.items())
    arcs = []
    for assignment in _monomial_grid(field, len(poly.variables), EXPONENT_BOUND):
        if _vanishes_on_monomial_arc(terms, field, assignment):
            # Distinct assignments give distinct arcs: the grid needs no dedup.
            arcs.append(_monomial_arc(poly.variables, field, assignment))
    if parametrization is None:
        return arcs

    certify_on_hypersurface(poly, parametrization, "the parametrization")
    seen = {arc.components for arc in arcs}

    def admit(arc: Arc) -> bool:
        if arc.components in seen:
            return False
        seen.add(arc.components)
        arcs.append(arc)
        return True

    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < budget and attempts < budget * 20:
        attempts += 1
        degree = rng.randint(1, DEGREE_BOUND)
        coeffs = [field.zero] + [field.random_element(rng, bound=3) for _ in range(degree)]
        if all(field.is_zero(c) for c in coeffs):
            continue
        produced += admit(parametrization.compose(TruncatedSeries.exact_series(field, coeffs)))
    for n in range(1, 9):
        admit(parametrization.reparametrize(n))
    return arcs


def integral_invariance_check(
    algebra: ReesAlgebra,
    extra: tuple,
    relation,
    arcs,
) -> bool:
    """Contact orders are unchanged by adjoining an integral element.

    `extra` is (h, n); `relation` lists the coefficients a_1 ... a_l of a
    monic dependence h^l + a_1 h^(l-1) + ... + a_l = 0 whose i-th entry is
    understood to carry weight n*i.  The identity is verified by polynomial
    arithmetic (DependenceInvalid otherwise); membership of the a_i in the
    algebra is the caller's assertion.
    """
    h, weight = extra
    relation = list(relation)
    if not relation:
        raise DependenceInvalid("empty dependence relation")
    length = len(relation)
    total = h**length
    for i, coefficient in enumerate(relation, start=1):
        total = total + coefficient * h ** (length - i)
    if not total.is_zero():
        raise DependenceInvalid(f"dependence relation sums to {total}, not 0")
    joined = algebra.odot(
        ReesAlgebra.of(algebra.variables, [(h, weight)], algebra.field)
    )
    return all(
        contact_order(algebra, arc) == contact_order(joined, arc) for arc in arcs
    )

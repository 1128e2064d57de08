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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PrecisionExhausted, VariableMismatch
from .fields import INF, ensure_same_field, format_order
from .poly import MultiPoly, Powers
from .rees import ReesAlgebra
from .series import Arc, TruncatedSeries, arc_image, certify_on_hypersurface


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


def _leading_terms(algebra: ReesAlgebra, arc: Arc):
    """(pattern, leads) of an exact arc: each component's t-order and lowest
    coefficient, None for a zero component."""
    ensure_same_field(algebra.field, arc.field)
    if algebra.variables != arc.variables:
        raise VariableMismatch(f"algebra variables {algebra.variables} vs arc variables {arc.variables}")
    pattern = tuple(None if c.is_exactly_zero() else c.known_order() for c in arc.components)
    return pattern, tuple(None if o is None else c.coeffs[o] for c, o in zip(arc.components, pattern))


def _initial_form(poly: MultiPoly, pattern, leads):
    """(L, c) for a generator along an exact arc with `_leading_terms` (pattern, leads).

    A term c x^e maps to t-order at least <e, pattern>, with c * prod lead_i^(e_i)
    as its coefficient there.  L is the least such order (INF when every term
    uses a zero component, and then the image is 0), and c is the numerator of
    the sum at degree L: ord_t(g(arc)) = L when c is nonzero, else at least L + 1.
    """
    p = poly.field.characteristic
    low, num, den = INF, 0, 1
    for exps, coeff in poly.terms.items():
        degree = _term_degree(exps, pattern)
        if degree is None or degree > low:
            continue
        n, d = coeff.numerator, coeff.denominator
        for lead, e in zip(leads, exps):
            if e:
                n *= pow(lead.numerator, e, p or None)
                d *= lead.denominator ** e
        if degree < low:
            low, num, den = degree, n, d
        else:
            num, den = num * d + n * den, den * d
    return low, num % p if p else num


def _generator_orders(algebra: ReesAlgebra, arc: Arc):
    """t-order of each generator image; PrecisionExhausted when one is needed but unknown.

    On an exact arc a generator's image is built only when its initial form
    vanishes at the leading coefficients (`_initial_form`)."""
    exact = all(component.exact for component in arc.components)
    if exact:
        pattern, leads = _leading_terms(algebra, arc)
    known = []
    pending = []
    powers = None
    for i, (poly, weight) in enumerate(algebra.generators):
        if exact:
            low, initial = _initial_form(poly, pattern, leads)
            if initial or low == INF:
                known.append((i, weight, low))
                continue
        powers = powers or arc.powers()
        image = arc_image(poly, arc, powers)
        order = image.known_order()
        if order is None:
            pending.append((i, weight, image.bound))
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
    """r = ord_t(phi(G)); INF when the arc sits inside the singular locus.

    On an exact arc only r is computed, as the integer pair best = num/den
    (1/0 for INF) compared by cross-multiplication.  A generator whose initial
    form does not vanish has order L(g) exactly and costs no series product.
    One whose initial form vanishes has order at least L(g) + 1: it is
    deferred, and the deferred ones are evaluated by (L(g)+1)/w, stopping once
    that reaches best, each on the arc cut at t^ceil(best*w).  An order the
    cut leaves unknown is at least that power, so it cannot lower best; while
    best is INF the image is exact, so INF means every exact image is zero.
    Arcs with a truncated component take the exact per-generator path and its
    PrecisionExhausted.
    """
    if not all(component.exact for component in arc.components):
        best, _ = _generator_orders(algebra, arc)
        return best
    pattern, leads = _leading_terms(algebra, arc)
    num, den = 1, 0
    deferred = []
    for poly, weight in algebra.generators:
        low, initial = _initial_form(poly, pattern, leads)
        if initial:
            if low * den < num * weight:
                num, den = low, weight
        elif low != INF:
            deferred.append((Fraction(low + 1, weight), poly, weight))
    cuts = {}
    for bound, poly, weight in sorted(deferred, key=lambda visit: visit[0]):
        if bound.numerator * den >= num * bound.denominator:
            break
        if not cuts:
            cuts[INF] = arc.powers()
        n = -(-num * weight // den) if den else INF  # ceil(best * w)
        if n not in cuts:
            cuts[n] = Powers(tuple(c.cut(n) for c in cuts[INF].images), cuts[INF].one)
        order = arc_image(poly, arc, cuts[n]).known_order()
        if order is not None and order != INF and order * den < num * weight:
            num, den = order, weight
    return Fraction(num, den) if den else INF


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


def _term_degree(exps, pattern):
    """The t-degree <a, e> of x^e along x_i -> u_i t^(a_i), or None when it uses an x_i -> 0."""
    degree = 0
    for a, e in zip(pattern, exps):
        if e:
            if a is None:
                return None
            degree += a * e
    return degree


def _vanishes_on_monomial_arc(terms, field, assignment) -> bool:
    """Whether f maps to exactly zero along the monomial arc of a grid assignment.

    `terms` are the (exponents, coefficient) pairs of f.  A term c x^e maps
    to c * prod u_i^(e_i) * t^(<a, e>), or to 0 when it uses a variable set
    to 0, so f vanishes exactly when the coefficients cancel at every power
    of t.  This is arc_substitute(f, arc).is_exactly_zero() without series
    products.
    """
    pattern = tuple(None if choice is None else choice[1] for choice in assignment)
    sums = {}
    for exps, coeff in terms:
        degree = _term_degree(exps, pattern)
        if degree is None:
            continue
        for choice, e in zip(assignment, exps):
            if e:
                coeff = field.mul(coeff, choice[0] ** e)
        sums[degree] = field.add(sums.get(degree, field.zero), coeff)
    return all(field.is_zero(s) for s in sums.values())


def _vanishing_grid(terms, field, width: int, exponent_bound: int) -> list:
    """Monomial grid assignments on which f vanishes, in grid order.

    An assignment gives each variable (u, a), for x_i -> u t^a, or None, for
    x_i -> 0; the all-None assignment is skipped.  Units and exponents are
    small, and the exponent bound shrinks in higher dimension to keep the grid
    within GRID_CAP arcs; a grid still above the cap at bound 1 is an input
    error.

    The exponent pattern decides most assignments alone: each surviving term
    maps to a nonzero multiple of one power of t, so a power that only one
    term reaches cannot cancel, whatever the units.  Units are tried only on
    the other patterns, and the admitted assignments are sorted by their
    index in itertools.product(choices), the order of the full grid.
    """
    units = field.units(6)
    bound = exponent_bound
    while bound > 1 and (1 + len(units) * bound) ** width > GRID_CAP:
        bound -= 1
    if (1 + len(units)) ** width > GRID_CAP:
        raise ParseError(f"{width} variables make more than {GRID_CAP} monomial grid arcs")
    admitted = []
    for pattern in itertools.product([None, *range(1, bound + 1)], repeat=width):
        if all(a is None for a in pattern):
            continue
        degrees = Counter(_term_degree(exps, pattern) for exps, _ in terms)
        degrees.pop(None, None)
        if 1 in degrees.values():
            continue
        # (index in choices, choice) per variable, where
        # choices = [None] + [(u, a) for a in 1..bound for u in units].
        options = [
            [(0, None)] if a is None
            else [(1 + (a - 1) * len(units) + k, (u, a)) for k, u in enumerate(units)]
            for a in pattern
        ]
        for indexed in itertools.product(*options):
            index, assignment = zip(*indexed)
            if _vanishes_on_monomial_arc(terms, field, assignment):
                admitted.append((index, assignment))
    admitted.sort(key=lambda pair: pair[0])
    return [assignment for _, assignment in admitted]


def _separates(parametrization: Arc) -> bool:
    """Whether phi o s = phi o s' forces s = s' for the exact parametrization phi.

    Let k_i be the orders of phi's nonzero components, g their gcd and p the
    characteristic.  If phi o s = phi o s' with s != s', then ord s = ord s',
    and zeta = lead(s) / lead(s') has zeta^(k_i) = 1 for every i, so zeta^g = 1.
    For a component c = a t^k + ..., c(s) - c(s') = (s - s') Q(s, s'), and the
    lowest term of Q is a (u^(k-1) + u^(k-2) v + ... + v^(k-1)) at u = lead s,
    v = lead s', which is k a u^(k-1) when zeta = 1: so zeta != 1 unless p
    divides every k_i.  phi separates when some k_i is prime to p and the
    field has no g-th root of unity but 1: over Q when g is odd, over F_p
    when gcd(g, p - 1) = 1.
    """
    orders = [c.known_order() for c in parametrization.components if not c.is_exactly_zero()]
    p = parametrization.field.characteristic
    prime_to_p = p == 0 or any(k % p for k in orders)
    return prime_to_p and math.gcd(*orders, p - 1 if p else 2) == 1


def sample_arcs(poly: MultiPoly, budget: int, seed: int, parametrization: Arc | None = None) -> list:
    """Deterministic pool of arcs at the origin on which f vanishes exactly, one
    (arc, inner) entry per arc: (arc, None) for a grid arc, and (None, s) for the
    arc phi o s composed through the parametrization phi, which
    `parametrization.compose(s)` builds.

    Monomial grid arcs are admitted by exponent arithmetic.  The
    parametrization is checked once: f(phi) must be exactly zero
    (ArcNotOnVariety otherwise, PrecisionExhausted when its order is
    unknown), and every component must be exact (PrecisionExhausted
    otherwise: a composition is cut at phi's precision, so its contact order
    would not follow phi's).  Then f(phi o s) = f(phi) o s vanishes for
    every series s with zero constant term, so `budget` arcs composed
    through phi with random series drawn from `seed`, and reparametrizations
    phi(t^n) = phi o t^n, are admitted without substitution.  A series drawn
    again is skipped, and an arc equal to an earlier one is dropped.  When
    phi separates (`_separates`), distinct series give distinct arcs, and
    phi o s is a monomial arc only when s is a monomial (its degree exceeds
    its order otherwise), so only monomial s are composed to be compared
    with the grid and with each other; through any other phi every s is.
    """
    field = poly.field
    terms = list(poly.terms.items())
    # Distinct assignments give distinct arcs: the grid needs no dedup.
    arcs = [
        (_monomial_arc(poly.variables, field, assignment), None)
        for assignment in _vanishing_grid(terms, field, len(poly.variables), EXPONENT_BOUND)
    ]
    if parametrization is None:
        return arcs

    certify_on_hypersurface(poly, parametrization, "the parametrization")
    if not all(component.exact for component in parametrization.components):
        raise PrecisionExhausted(
            "the parametrization has a truncated component; arcs composed through it "
            "need every component exact"
        )
    seen = {arc.components for arc, _ in arcs}
    separates = _separates(parametrization)

    def admit(inner: TruncatedSeries) -> bool:
        if not separates or sum(map(bool, inner.coeffs)) == 1:
            components = parametrization.compose(inner).components
            if components in seen:
                return False
            seen.add(components)
        arcs.append((None, inner))
        return True

    rng = random.Random(seed)
    drawn = set()
    produced = 0
    attempts = 0
    while produced < budget and attempts < budget * 20:
        attempts += 1
        degree = rng.randint(1, DEGREE_BOUND)
        coeffs = [field.zero] + [field.random_element(rng, bound=3) for _ in range(degree)]
        if all(field.is_zero(c) for c in coeffs):
            continue
        series = TruncatedSeries.exact_series(field, coeffs)
        if series.coeffs in drawn:
            continue  # its arc was seen when it was first drawn
        drawn.add(series.coeffs)
        produced += admit(series)
    for n in range(1, 9):
        admit(TruncatedSeries.t_power(field, n))
    return arcs

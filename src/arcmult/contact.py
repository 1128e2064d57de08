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

from .errors import ParseError, PrecisionExhausted
from .fields import INF, format_order
from .poly import MultiPoly
from .rees import ReesAlgebra
from .series import Arc, TruncatedSeries, arc_image, certify_on_hypersurface, ensure_arc_ring, lead_sums


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
    """(r, orders): r = min ord_t(phi(g))/w over the generators g W^w, and the
    sorted (index, order) pairs, ">=N" for an order beyond the arc's precision.

    On an exact arc an order is read from the generator's `lead_sums`
    (`Arc.leads`) when they decide it: on a monomial arc always, as the
    least degree with a nonzero sum (INF when none is), and on any other when
    the initial form, the sum at the least degree L(g), does not vanish.
    Every other generator, and on an arc with a truncated component every
    generator, is evaluated on one power cache of the arc, built at the first
    need.  PrecisionExhausted when an unknown order's lower bound, over its
    weight, does not exceed r.
    """
    exact = arc.leads()
    if exact:
        ensure_arc_ring(algebra, arc, "algebra")
        pattern, leads, monomial = exact
    orders = {}
    pending = []
    powers = None
    for i, (poly, weight) in enumerate(algebra.generators):
        if exact:
            sums = lead_sums(poly.terms.items(), pattern, leads, arc.field.characteristic)
            low = min((d for d, (num, _) in sums.items() if num), default=INF)
            if monomial or low == min(sums, default=INF):
                orders[i] = low
                continue
        if powers is None:
            powers = arc.powers()
        image = arc_image(poly, arc, powers)
        order = image.known_order()
        if order is None:
            pending.append((i, weight, image.bound))
        else:
            orders[i] = order
    best = min((Fraction(o, algebra.generators[i][1]) for i, o in orders.items() if o != INF), default=INF)
    for i, weight, lower_bound in pending:
        if Fraction(lower_bound, weight) <= best:
            raise PrecisionExhausted(f"order of generator {i} indeterminate at this precision")
        orders[i] = f">={lower_bound}"
    return best, tuple(sorted(orders.items()))


def contact_order(algebra: ReesAlgebra, arc: Arc):
    """r = ord_t(phi(G)), as `_generator_orders` walks it; INF when the arc lies in the singular locus."""
    return _generator_orders(algebra, arc)[0]


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


def _vanishes_on_monomial_arc(terms, field, assignment) -> bool:
    """Whether f, given by its (exponents, coefficient) `terms`, maps to exactly
    zero along the monomial arc of a grid assignment: whether every one of
    its `lead_sums` vanishes.  This is arc_substitute(f, arc).is_exactly_zero()
    without series products.
    """
    pattern = tuple(None if choice is None else choice[1] for choice in assignment)
    leads = tuple(None if choice is None else choice[0] for choice in assignment)
    return not any(num for num, _ in lead_sums(terms, pattern, leads, field.characteristic).values())


def _every_degree_twice(degrees) -> bool:
    """Whether every degree in `degrees` occurs at least twice: no power of t has only one term."""
    once, twice = set(), set()
    for d in degrees:
        (twice if d in once else once).add(d)
    return len(once) == len(twice)


def _vanishing_grid(terms, field, width: int) -> list:
    """Monomial grid assignments on which f vanishes, in grid order.

    An assignment gives each variable (u, a), for x_i -> u t^a, or None, for
    x_i -> 0; the all-None assignment is skipped.  Units and exponents are
    small, and the exponent bound, EXPONENT_BOUND, shrinks in higher dimension
    to keep the grid within GRID_CAP arcs; a grid still above the cap at bound
    1 is an input error.

    The exponent pattern decides most assignments alone: each surviving term
    maps to a nonzero multiple of one power of t, so a power that only one
    term reaches cannot cancel, whatever the units.  The last exponent is
    solved, not scanned: for each prefix of the other exponents, a term it
    keeps has partial degree d, summed over its nonzero exponents alone, and
    last exponent e.  A last exponent a gives the first kept term's degree to
    another only when their (d, e) are equal (every a) or a = (d' - d) / (e - e').
    Only None and those a are checked, units are tried only where every power
    is reached twice, and admitted assignments are sorted into the grid order.
    """
    units = field.units(6)
    bound = EXPONENT_BOUND
    while bound > 1 and (1 + len(units) * bound) ** width > GRID_CAP:
        bound -= 1
    if (1 + len(units)) ** width > GRID_CAP:
        raise ParseError(f"{width} variables make more than {GRID_CAP} monomial grid arcs")
    if not width:
        return []
    exponents = [None, *range(1, bound + 1)]
    sparse = [([(i, e) for i, e in enumerate(exps[:-1]) if e], exps[-1]) for exps, _ in terms]
    admitted = []
    for prefix in itertools.product(exponents, repeat=width - 1):
        kept = []  # (d, e) of each term the prefix keeps
        for pairs, e in sparse:
            d = 0
            for i, ei in pairs:
                if (a := prefix[i]) is None:
                    break
                d += a * ei
            else:
                kept.append((d, e))
        lasts = exponents
        if kept and kept[0] not in kept[1:]:
            d0, e0 = kept[0]
            solved = {(d - d0) // (e0 - e) for d, e in kept[1:] if e != e0 and (d - d0) % (e0 - e) == 0}
            lasts = [a for a in exponents if a is None or a in solved]
        for last in lasts:
            pattern = (*prefix, last)
            if last is None and all(a is None for a in prefix):
                continue
            if not _every_degree_twice(d + (last or 0) * e for d, e in kept if last or not e):
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
    (arc, key) entry per arc: (arc, None) for a grid arc, and (None, key) for the
    arc phi o s composed through the parametrization phi, where the key is s's
    tuple of integer coefficients, which `TruncatedSeries.exact_series(field,
    key)` builds.

    Monomial grid arcs are admitted by exponent arithmetic.  The
    parametrization is checked once: f(phi) must be exactly zero
    (ArcNotOnVariety otherwise, PrecisionExhausted when its order is
    unknown), and every component must be exact (PrecisionExhausted
    otherwise: a composition is cut at phi's precision, so its contact order
    would not follow phi's).  Then f(phi o s) = f(phi) o s vanishes for
    every series s with zero constant term, so arcs composed through phi are
    admitted without substitution: first those of min(budget, space) distinct
    nonzero series of degree <= DEGREE_BOUND with coefficients in -3..3,
    drawn without replacement from `seed` by one random.Random.sample over
    the `space` such series, then the eight reparametrizations phi(t^n) =
    phi o t^n.  An arc equal to an earlier one is dropped.  When phi separates
    (`_separates`), distinct series give distinct arcs, and phi o s is a
    monomial arc only when s is a monomial (its degree exceeds its order
    otherwise), so only monomial s are composed to be compared with the grid
    and with each other; through any other phi every s is.
    """
    field = poly.field
    terms = list(poly.terms.items())
    # Distinct assignments give distinct arcs: the grid needs no dedup.
    arcs = [
        (_monomial_arc(poly.variables, field, assignment), None)
        for assignment in _vanishing_grid(terms, field, len(poly.variables))
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

    def admit(key: tuple) -> None:
        if not separates or sum(map(bool, key)) == 1:
            components = parametrization.compose(TruncatedSeries.exact_series(field, key)).components
            if components in seen:
                return
            seen.add(components)
        arcs.append((None, key))

    # Index i >= 1 names the key whose coefficients of t^1, t^2, ... are its base-V
    # digits, least significant first, V the number of distinct values of -3..3
    # (mod p over F_p); only digit 0 names 0, so the key ends in a nonzero.
    p = field.characteristic
    values = list(dict.fromkeys(c % p if p else c for c in (0, -3, -2, -1, 1, 2, 3)))
    space = len(values) ** DEGREE_BOUND - 1  # the nonzero keys
    for index in random.Random(seed).sample(range(1, space + 1), min(budget, space)):
        key = [0]
        while index:
            index, digit = divmod(index, len(values))
            key.append(values[digit])
        admit(tuple(key))
    for n in range(1, 9):
        admit((0,) * n + (1,))
    return arcs

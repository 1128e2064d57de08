"""Order of contact of an arc with the maximum-multiplicity locus.

The order of contact r is the t-order of the image of the presenting Rees
algebra along the arc: min over generators of ord_t(phi(f_i)) / n_i.  Its
normalization r / nu_t(phi) is the quantity whose infimum over arcs the
theorem verifier compares against the elimination order, and its integral
part is the persistence computed independently by the blow-up oracle.  The
contact walk, `grid_r_bars` and the sampler's grid read orders and zeros from
the degree classes of one cleared view per polynomial (`series.degree_classes`);
the grid solves the last two exponents of each pattern on lines (`_line_points`).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import ParseError
from .fields import INF, Record, format_order
from .poly import MultiPoly
from .rees import ReesAlgebra
from .series import Arc, TruncatedSeries, arc_image, certify_on_hypersurface, class_sum, cleared_leads, degree_along
from .series import degree_classes, ensure_arc_ring


class ContactResult(Record):
    """Contact data of one arc: r, nu, r_bar = r/nu, rho = floor(r).

    r and r_bar are Fractions or INF, rho an int or INF, and generator_orders
    a tuple of (generator index, order or INF) pairs."""

    _fields = ("r", "nu", "r_bar", "rho", "generator_orders")

    def __init__(self, r, nu: int, r_bar, rho, generator_orders: tuple):
        vars(self).update(r=r, nu=nu, r_bar=r_bar, rho=rho, generator_orders=generator_orders)

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


def _lead_orders(algebra: ReesAlgebra, pattern, leads, monomial=True) -> dict:
    """{index: ord_t(phi(g))} for the generators g whose order the lead sums decide along an arc with
    t-orders `pattern` and lowest coefficients `leads` (`Arc.leads`): on a monomial arc every one, the
    least degree with a nonzero sum (INF if none), and on any other those whose least class, the initial
    form, does not vanish; the `degree_classes` at the `cleared_leads` by `_least_nonzero`, as in `grid_r_bars`."""
    units, p, orders = cleared_leads(pattern, leads)[0], algebra.field.characteristic, {}
    for i, (poly, _) in enumerate(algebra.generators):
        classes = degree_classes(poly, pattern)
        low = _least_nonzero(classes, units, p)
        if monomial or low == (classes[0][0] if classes else INF):
            orders[i] = low
    return orders


def _least_nonzero(classes, units, p):
    """The least degree of sorted `degree_classes` with a nonzero `class_sum` at the units, else INF."""
    for degree, members in classes:
        if class_sum(members, units, p):
            return degree
    return INF


def _least_ratio(algebra: ReesAlgebra, orders: dict):
    """min ord_t(phi(g))/w over the generators g W^w in `orders`, INF when each is INF;
    compared on integers, and one Fraction made."""
    least = None
    for i, o in orders.items():
        if o != INF:
            w = algebra.generators[i][1]
            if least is None or o * least[1] < least[0] * w:
                least = (o, w)
    return INF if least is None else Fraction(*least)


def _generator_orders(algebra: ReesAlgebra, arc: Arc):
    """(r, orders): r = min ord_t(phi(g))/w over the generators g W^w, and the
    sorted (index, order) pairs.

    The orders that the arc's `Arc.leads` decide are read by
    `_lead_orders`: on a monomial arc, every one.  An undecided generator
    that is f.normalized(), for the f that `certify_on_hypersurface` recorded
    on the arc, reads INF: the certificate found f's image zero, so along
    phi3 of a bundled problem f's image is built once per run.  Every other
    generator is evaluated on one power cache of the arc, built at the first
    need.
    """
    ensure_arc_ring(algebra, arc, "algebra")
    orders = _lead_orders(algebra, *arc.leads())
    powers = top = None
    for i, (poly, _) in enumerate(algebra.generators):
        if i not in orders:
            if powers is None:  # f, when the arc is certified on it, maps to 0
                powers, top = arc.powers(), arc._certified and arc._certified.normalized()
            orders[i] = INF if poly == top else arc_image(poly, arc, powers).order()
    return _least_ratio(algebra, orders), tuple(sorted(orders.items()))


def contact_order(algebra: ReesAlgebra, arc: Arc):
    """r = ord_t(phi(G)), as `_generator_orders` walks it; INF when the arc lies in the singular locus."""
    return _generator_orders(algebra, arc)[0]


def normalized_contact(algebra: ReesAlgebra, arc: Arc) -> ContactResult:
    """r, nu, r_bar and rho, recorded on the arc: a second call with the same algebra object is a read."""
    if arc._contact is None or arc._contact[0] is not algebra:
        best, orders = _generator_orders(algebra, arc)
        nu, rho = arc.order(), INF if best == INF else math.floor(best)
        arc.__dict__["_contact"] = algebra, ContactResult(best, nu, INF if best == INF else best / nu, rho, orders)
    return arc._contact[1]


def grid_r_bars(algebra: ReesAlgebra, entries) -> list:
    """r_bar along the monomial arc of each grid entry (pattern, leads) of `sample_arcs`, as
    `_lead_orders` reads it on the built arc: each generator's `degree_classes` are built
    once per exponent pattern and summed at each entry's `cleared_leads` by `_least_nonzero`."""
    p, plans, r_bars = algebra.field.characteristic, {}, []
    for pattern, leads in entries:
        if pattern not in plans:
            plans[pattern] = [degree_classes(poly, pattern) for poly, _ in algebra.generators]
        units, _ = cleared_leads(pattern, leads)
        r = _least_ratio(algebra, {i: _least_nonzero(classes, units, p) for i, classes in enumerate(plans[pattern])})
        r_bars.append(INF if r == INF else r / min(a for a in pattern if a is not None))
    return r_bars


#: Largest exponent of a monomial grid arc, and largest degree of a random
#: series composed with the parametrization.
EXPONENT_BOUND = 8
DEGREE_BOUND = 8
#: Most assignments in the monomial grid.
GRID_CAP = 20000


def _grid_entry(assignment) -> tuple:
    """(pattern, leads) of a grid assignment: each variable's exponent and unit, None for x_i -> 0."""
    return (
        tuple(None if choice is None else choice[1] for choice in assignment),
        tuple(None if choice is None else choice[0] for choice in assignment),
    )


def grid_arc(variables, field, entry) -> Arc:
    """The arc x_i -> u_i t^(a_i) of a grid entry (pattern, leads) of `sample_arcs`."""
    return Arc(
        variables,
        tuple(
            TruncatedSeries.zero(field) if a is None else TruncatedSeries.t_power(field, a, u)
            for a, u in zip(*entry)
        ),
        field,
    )


def _every_degree_twice(classes: dict) -> bool:
    """Whether every t-degree in `classes`, {degree: kept terms}, is reached by two terms or more."""
    return 1 not in map(len, classes.values())


def _solved_exponents(rows, values) -> list:
    """The exponents a of `values` (None or 1..bound) at which the first of `rows`, [(d, e)] for degrees
    d + a e, can share its degree: every a when another row equals it, else None and a = (d' - d) / (e - e')."""
    if rows and rows[0] not in rows[1:]:
        d0, e0 = rows[0]
        solved = {(d - d0) // (e0 - e) for d, e in rows[1:] if e != e0 and (d - d0) % (e0 - e) == 0}
        return [a for a in values if a is None or a in solved]
    return values


def _line_points(cp: int, cq: int, r: int, bound: int) -> list:
    """The points (a, b) of [1, bound]^2 on the line cp a + cq b = r: all when cp = cq = r = 0.  Divided by
    gcd(cp, cq), a runs through r cp^-1 mod |cq|, and b follows; a zero coefficient leaves its exponent free."""
    g = math.gcd(cp, cq)
    if not g or r % g:
        return [] if r else list(itertools.product(range(1, bound + 1), repeat=2))
    cp, cq, r = cp // g, cq // g, r // g
    if not cq:
        return [(a, b) for b, a in _line_points(cq, cp, r, bound)]
    m = abs(cq)
    first = r * pow(cp, -1, m) % m or m
    return [(a, b) for a in range(first, bound + 1, m) if 1 <= (b := (r - cp * a) // cq) <= bound]


def _vanishing_grid(poly: MultiPoly) -> list:
    """Monomial grid assignments on which f vanishes, in grid order.

    An assignment gives each variable (u, a), for x_i -> u t^a, or None, for
    x_i -> 0; the all-None assignment is skipped.  Units and exponents are
    small, and the exponent bound, EXPONENT_BOUND, shrinks in higher dimension
    to keep the grid within GRID_CAP arcs; a grid still above the cap at bound
    1 is an input error.

    The exponent pattern decides most assignments alone: each surviving term
    maps to a nonzero multiple of one power of t, so a power that only one
    term reaches cannot cancel, whatever the units.  The last two exponents
    (a, b) are solved, not scanned: for each prefix of the others, a kept term
    has partial degree d (`degree_along` at a = b = 0) and last exponents
    (e, f), and the first kept term shares its degree only at the a or b that
    `_solved_exponents` gives when the other is None, or on the lines
    (e0 - e) a + (f0 - f) b = d - d0 (`_line_points`).  Units are tried there
    only where every power is reached twice, on the kept terms' degree classes
    (`_vanishing_units`), and admitted assignments are sorted into grid order.
    """
    field, width = poly.field, len(poly.variables)
    units = field.units(6)
    bound = EXPONENT_BOUND
    while bound > 1 and (1 + len(units) * bound) ** width > GRID_CAP:
        bound -= 1
    if (1 + len(units)) ** width > GRID_CAP:
        raise ParseError(f"{width} variables make more than {GRID_CAP} monomial grid arcs")
    if not width:
        return []
    exponents = [None, *range(1, bound + 1)]
    sparse = [(x[-2] if width > 1 else 0, x[-1], member) for x, member in zip(poly.terms, poly.cleared_view()[1])]
    # (index, choice, integer unit) per exponent, the index in [None] + [(u, a) for a in 1..bound for u in units]
    options = {a: [(1 + (a - 1) * len(units) + k, (u, a), u.numerator) for k, u in enumerate(units)] for a in exponents[1:]}
    options[None] = [(0, None, None)]
    admitted = []
    for prefix in itertools.product(exponents, repeat=max(width - 2, 0)):
        kept, groups = [], {}  # (partial degree d, last two exponents e, f) of each kept term, and its members
        partial = prefix + (0, 0)
        for e, f, member in sparse:
            if (d := degree_along(member[1], partial)) is not None:
                kept.append((d, e, f))
                groups.setdefault((d, e, f), []).append(member)
        rows = [(d, f) for d, e, f in kept if not e]  # kept by a -> 0; b -> 0 after an all-None prefix is skipped
        pairs = [(None, b) for b in _solved_exponents(rows, exponents) if b or any(prefix)]
        if width > 1:
            pairs += [(a, None) for a in _solved_exponents([(d, e) for d, e, f in kept if not f], exponents[1:])]
            if kept and kept[0] not in kept[1:]:
                d0, e0, f0 = kept[0]
                pairs += {point for d, e, f in set(kept[1:]) for point in _line_points(e0 - e, f0 - f, d - d0, bound)}
            else:  # the first term ties everywhere, or no term is kept
                pairs += itertools.product(exponents[1:], repeat=2)
        for a, b in pairs:
            classes, na, nb = {}, a or 0, b or 0
            for (d, e, f), members in groups.items():
                if (na or not e) and (nb or not f):
                    classes.setdefault(d + na * e + nb * f, []).extend(members)
            if _every_degree_twice(classes):
                admitted += _vanishing_units(classes, [options[c] for c in (*prefix, a, b)][-width:], field.characteristic)
    admitted.sort(key=lambda pair: pair[0])
    return [assignment for _, assignment in admitted]


def _vanishing_units(classes, choices, p) -> list:
    """(index, assignment) for each pick of one (index, choice, integer unit) per variable from `choices`
    at which every degree class of f's kept terms, {degree: members}, has `class_sum` 0; one call per pattern."""
    admitted = []
    for indexed in itertools.product(*choices):
        index, assignment, units = zip(*indexed)
        if not any(class_sum(members, units, p) for members in classes.values()):
            admitted.append((index, assignment))
    return admitted


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
    when gcd(g, p - 1) = 1.  Through a separating phi, `sample_arcs` composes
    no draw: distinct indices are distinct arcs, and only the index of a
    monomial can name a monomial arc.
    """
    orders = [c.order() for c in parametrization.components if not c.is_exactly_zero()]
    p = parametrization.field.characteristic
    prime_to_p = p == 0 or any(k % p for k in orders)
    return prime_to_p and math.gcd(*orders, p - 1 if p else 2) == 1


def _draw_values(field) -> list:
    """The V distinct values of 0, -3, ..., 3 in the field (mod p over F_p), 0 first:
    the digits of a composed entry's index."""
    p = field.characteristic
    return list(dict.fromkeys(c % p if p else c for c in (0, -3, -2, -1, 1, 2, 3)))


def draw_key(field, index: int) -> tuple:
    """The integer coefficients of the series s that a composed entry (None, index)
    of `sample_arcs` names, constant term 0 first: the coefficients of t^1, t^2, ...
    are the base-V digits of the index, least significant first, read among
    `_draw_values`.  Only digit 0 names 0, so the key ends in a nonzero;
    `TruncatedSeries.exact_series(field, key)` builds s."""
    values = _draw_values(field)
    key = [0]
    while index:
        index, digit = divmod(index, len(values))
        key.append(values[digit])
    return tuple(key)


def sample_arcs(poly: MultiPoly, budget: int, seed: int, parametrization: Arc | None = None) -> list:
    """Deterministic pool of arcs at the origin on which f vanishes exactly, one
    entry per arc: (grid, None) for the monomial grid arc x_i -> u_i t^(a_i),
    where grid is its (pattern, leads) pair of exponents a_i and units u_i,
    None for x_i -> 0 (the first two items of its `Arc.leads`, which
    `grid_arc` builds it from and `grid_r_bars` reads r_bar from), and
    (None, index) for the arc phi o s composed through the parametrization
    phi, where the integer index names s (`draw_key`).  No arc is built
    here through a separating phi.

    Monomial grid arcs are admitted by exponent arithmetic.  The
    parametrization is checked once: f(phi) must be exactly zero
    (ArcNotOnVariety otherwise).  Then f(phi o s) = f(phi) o s vanishes for
    every series s with zero constant term, so arcs composed through phi are
    admitted without substitution: first those of min(budget, space) distinct
    nonzero series of degree <= DEGREE_BOUND with coefficients in -3..3,
    drawn without replacement from `seed` by one random.Random.sample over
    the indices 1..space of the `space` such series, then the eight
    reparametrizations phi(t^n) = phi o t^n, whose index is i_1 * V^(n-1),
    i_1 the digit of 1.  An arc equal to an earlier one is dropped.

    When phi separates (`_separates`), distinct indices give distinct arcs,
    and phi o s is a monomial arc only when phi is monomial and s is a
    monomial c t^k, the index d * V^(k-1) with c the value of digit d (its
    degree exceeds its order otherwise).  So nothing is composed: an index
    of such an s is checked (`new`), and dropped when its arc
    x_i -> u_i c^(a_i) t^(k a_i), for phi's x_i -> u_i t^(a_i), has a grid
    entry's (pattern, leads); a t^n that was drawn is dropped, and every
    other index is admitted with no check.  Through any other
    phi each index is decoded and composed, and compared by its (pattern,
    leads) when monomial, the grid's key, and by its components otherwise.
    """
    field = poly.field
    # Distinct assignments give distinct arcs: the grid needs no dedup.
    arcs = [(_grid_entry(assignment), None) for assignment in _vanishing_grid(poly)]
    if parametrization is None:
        return arcs

    certify_on_hypersurface(poly, parametrization, "the parametrization")
    seen = {grid for grid, _ in arcs}
    values = _draw_values(field)
    width = len(values)
    space = width**DEGREE_BOUND - 1  # the nonzero series
    drawn = random.Random(seed).sample(range(1, space + 1), min(budget, space))
    t_powers = [values.index(1) * width ** (n - 1) for n in range(1, 9)]  # the indices of t^1 ... t^8

    if not _separates(parametrization):
        for index in (*drawn, *t_powers):
            composed = parametrization.compose(TruncatedSeries.exact_series(field, draw_key(field, index)))
            pattern, leads, monomial = composed.leads()
            seen_as = (pattern, leads) if monomial else composed.components
            if seen_as not in seen:
                seen.add(seen_as)
                arcs.append((None, index))
        return arcs

    pattern, leads, monomial = parametrization.leads()
    # {index of c t^k: (k, c)}, each digit d != 0 at place k - 1, when phi is
    # monomial: only then can an index name a grid arc.
    places = range(1, DEGREE_BOUND + 1) if monomial else ()
    monomials = {d * width ** (k - 1): (k, c) for k in places for d, c in enumerate(values) if d}

    def new(index) -> bool:
        # index names the monomial c t^k: phi o c t^k is new unless it is a grid arc
        k, c = monomials[index]
        return (
            tuple(None if a is None else k * a for a in pattern),
            tuple(None if u is None else field.mul(u, field.coerce(c**a)) for a, u in zip(pattern, leads)),
        ) not in seen

    arcs.extend((None, index) for index in drawn if index not in monomials or new(index))
    drawn = set(drawn)  # a t^n that was drawn is not admitted twice
    arcs.extend((None, index) for index in t_powers if index not in drawn and (index not in monomials or new(index)))
    return arcs

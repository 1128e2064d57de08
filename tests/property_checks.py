"""Helpers and randomized property checks shared by the test suites.

The helpers build and compare Rees algebras and derive invariants by
routes that no run of the engine takes: `from_weighted` and `parse_rees`
build algebras from text, `odot` joins two, `observers_agree` compares
them at points, `integral_invariance_check` adjoins an integral element,
`reference_grid` lists the whole monomial arc grid,
`reference_lead_sums` sums leading terms over the dense exponent tuples,
`reference_vanishes` tests one grid assignment by them,
`reference_hasse_derivative` takes one divided-power derivative over the
dense exponent tuples, `reference_ring_map` folds a polynomial's image
through the images' own products and sums,
`reference_feasible_patterns` scans its exponent patterns for the ones that need unit tries,
`ring_map_translate` shifts a polynomial through the ring map,
`reference_shift` shifts it by the dense Taylor shift,
`horner_compose` composes two series by Horner's rule,
`padded_quotient` divides two coefficient lists by the schoolbook recurrence,
`time_limit` fails a block that runs too long,
`reference_generator_orders` builds every generator's exact image along an arc,
`random_monomial_arc` draws an arc x_i -> u_i t^(a_i) with a polynomial on it,
`reference_unit_choice` evaluates the initial form `minimizing_arc` reads,
`reference_visible_elimination` eliminates through a dense nullspace,
`reference_lift` lifts an arc, carried as coefficient prefixes, through a
blow-up in the chart of its first component of least order,
`stepwise_nash_sequence` makes one blow-up per iteration of the chain in that chart,
`persistence_oracle` counts blow-ups to the first multiplicity drop,
`verify_presentation` calls `verify_main_theorem` with the `ord_d` and
presenting algebra it takes, `derivatives_of` drops f W^m from f's
presenting algebra, as `verify_main_theorem` does, `sampled_arcs` builds the entries of
`sample_arcs`, `reference_sample_arcs` builds them by composing every
draw, `reference_verify` is `verify_main_theorem` evaluating every arc,
and `assert_well_formed` checks what `MultiPoly.__init__` would have
ensured.

Each check_* function draws one random case from a seeded Random and
asserts the property; the suites run them a few hundred times.  Everything
is exact arithmetic, so any failure is a real counterexample.
"""

import contextlib
import itertools
import math
import random
import signal
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from arcmult.blowup import (
    DEFAULT_MAX_STEPS,
    ChartMap,
    NashReport,
    fresh_variable,
    graph_arc,
    nash_sequence,
    strict_transform,
)
from arcmult.contact import (
    DEGREE_BOUND,
    GRID_CAP,
    _generator_orders,
    contact_order,
    draw_key,
    grid_arc,
    grid_r_bars,
    sample_arcs,
)
from arcmult.elimination import MonicPresentation, TheoremReport, minimizing_arc, ord_d, verify_main_theorem
from arcmult.errors import (
    ArcNotOnVariety,
    EngineError,
    FieldMismatch,
    ParseError,
    VariableMismatch,
)
from arcmult.fields import INF, RATIONALS, ensure_same_field, prime_field
from arcmult.poly import MultiPoly, parse_poly
from arcmult.rees import ReesAlgebra, presenting_algebra
from arcmult.series import (
    Arc,
    TruncatedSeries,
    arc_image,
    arc_substitute,
    certify_on_hypersurface,
)


class SequenceTruncated(EngineError):
    """Nash sequence hit max_steps before the multiplicity dropped."""


class DependenceInvalid(EngineError):
    """Supplied integral-dependence relation does not vanish identically."""


def from_weighted(variables, weighted, field):
    """ReesAlgebra.of from (polynomial text or MultiPoly, weight) pairs."""
    gens = []
    for poly, weight in weighted:
        if isinstance(poly, str):
            poly = parse_poly(poly, variables, field)
        gens.append((poly, weight))
    return ReesAlgebra.of(variables, gens, field)


def parse_rees(text, variables, field):
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


def odot(a, b):
    """Smallest Rees algebra containing both: concatenated generators."""
    ensure_same_field(a.field, b.field)
    if a.variables != b.variables:
        raise VariableMismatch(f"ambient mismatch: {a.variables} vs {b.variables}")
    return ReesAlgebra.of(a.variables, a.generators + b.generators, a.field)


def observers_agree(a, b, points):
    """Same sing_member everywhere and same ord_at on the common singular locus."""
    for point in points:
        in_a = a.sing_member(point)
        if in_a != b.sing_member(point):
            return False
        if in_a and a.ord_at(point) != b.ord_at(point):
            return False
    return True


def integral_invariance_check(algebra, extra, relation, arcs):
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
    joined = odot(algebra, ReesAlgebra.of(algebra.variables, [(h, weight)], algebra.field))
    return all(
        contact_order(algebra, arc) == contact_order(joined, arc) for arc in arcs
    )


def _grid_box(field, width, exponent_bound):
    """(units, bound) of the sampler's grid: the exponent bound shrinks to keep the
    grid within GRID_CAP, and a grid still above the cap at bound 1 is a ParseError."""
    units = field.units(6)
    bound = exponent_bound
    while bound > 1 and (1 + len(units) * bound) ** width > GRID_CAP:
        bound -= 1
    if (1 + len(units)) ** width > GRID_CAP:
        raise ParseError(f"{width} variables make more than {GRID_CAP} monomial grid arcs")
    return units, bound


def reference_grid(field, width, exponent_bound):
    """Every assignment of the monomial arc grid, one (u, a) or None per variable.

    (u, a) stands for x_i -> u t^a and None for x_i -> 0; the all-None
    assignment is skipped.  This is the sampler's grid before pattern-first
    filtering, in the order the sampler must keep: itertools.product of the
    choices, with the same exponent bound shrinking and GRID_CAP error.
    """
    units, bound = _grid_box(field, width, exponent_bound)
    choices = [None] + [(u, a) for a in range(1, bound + 1) for u in units]
    for assignment in itertools.product(choices, repeat=width):
        if any(c is not None for c in assignment):
            yield assignment


def reference_lead_sums(terms, pattern, leads, p) -> dict:
    """{d: (num, den)}, the sums that `series.class_sum` gives on integers as
    s_d / (scale * b^d), over the (exponents, coefficient) `terms`, as fractions
    on each dense exponent tuple, where the engine sums degree classes of the
    polynomial's cleared view."""
    sums = {}
    for exps, coeff in terms:
        if any(e and a is None for a, e in zip(pattern, exps)):
            continue
        degree = sum(a * e for a, e in zip(pattern, exps) if e)
        n, d = coeff.numerator, coeff.denominator
        for lead, e in zip(leads, exps):
            if e:
                n *= pow(lead.numerator, e, p or None)
                d *= lead.denominator ** e
        num, den = sums.get(degree, (0, 1))
        sums[degree] = num * d + n * den, den * d
    return {degree: (num % p if p else num, den) for degree, (num, den) in sums.items()}


def reference_vanishes(terms, field, assignment) -> bool:
    """Whether f, given by its (exponents, coefficient) `terms`, maps to exactly
    zero along the monomial arc of a grid assignment: whether every one of its
    `reference_lead_sums` vanishes, one assignment at a time, where the sampler
    tests the unit tuples of an exponent pattern on its degree classes."""
    pattern = tuple(None if choice is None else choice[1] for choice in assignment)
    leads = tuple(None if choice is None else choice[0] for choice in assignment)
    return not any(num for num, _ in reference_lead_sums(terms, pattern, leads, field.characteristic).values())


def reference_hasse_derivative(poly, alpha):
    """The divided-power derivative D^alpha f for one multi-index, walking every
    term's dense exponent tuple: x^e -> binom(e, alpha) x^(e - alpha), where
    `MultiPoly.hasse_derivatives` takes every alpha in one walk over the view."""
    field, terms = poly.field, {}
    for exps, coeff in poly.terms.items():
        if any(e < a for e, a in zip(exps, alpha)):
            continue
        value = field.mul(coeff, field.coerce(math.prod(math.comb(e, a) for e, a in zip(exps, alpha))))
        if not field.is_zero(value):  # binomials vanish mod p
            terms[tuple(e - a for e, a in zip(exps, alpha))] = value
    return MultiPoly(poly.variables, terms, field)


def reference_ring_map(poly, images, one, zero):
    """f under the ring map sending variable i to images[i] (polynomials or series),
    each term folded from `one` and `zero` by the images' own products and sums."""
    total = zero
    for exps, coeff in poly.terms.items():
        term = one.scale(coeff)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        total = total + term
    return total


def reference_feasible_patterns(terms, field, width, exponent_bound):
    """The exponent patterns on which the sampler's grid must try units, by scanning the box.

    A pattern gives each variable an exponent in 1..bound or None, the
    all-None pattern skipped, with the bound of `reference_grid`.  It is
    feasible when every t-degree that a term of `terms` reaches along it is
    reached by two or more terms; a term using a None variable reaches none.
    Every pattern of the box gets its own count, a route the sampler, which
    solves the last exponent, does not take."""
    _, bound = _grid_box(field, width, exponent_bound)
    for pattern in itertools.product([None, *range(1, bound + 1)], repeat=width):
        if all(a is None for a in pattern):
            continue
        degrees = Counter(
            sum(a * e for a, e in zip(pattern, exps) if e)
            for exps, _ in terms
            if not any(e and a is None for a, e in zip(pattern, exps))
        )
        if 1 not in degrees.values():
            yield pattern


def ring_map_translate(poly, point):
    """f(x + p) through the general ring map `substitute`, a route `translate` does not take."""
    field = poly.field
    return poly.substitute(
        {
            name: MultiPoly.variable(name, poly.variables, field)
            + MultiPoly.constant(c, poly.variables, field)
            for name, c in zip(poly.variables, point)
        }
    )


def reference_shift(poly, point):
    """f(x + p) by the dense Taylor shift: per coordinate, every term is cleared and
    expanded, the fixed ones too, and the polynomial is rebuilt from the sums.
    A route `MultiPoly.translate`, which keeps the terms free of x_i, does not take."""
    field = poly.field
    p = field.characteristic
    shifted = poly
    for i, c in enumerate(point):
        if field.is_zero(c):
            continue
        terms = shifted.terms
        c_powers = [field.one]
        for _ in range(max((e[i] for e in terms), default=0)):
            c_powers.append(field.mul(c_powers[-1], c))
        c_powers, power_scale = field.cleared(c_powers)
        coeffs, scale = field.cleared(terms.values())
        raw = {}
        for exps, a in zip(terms, coeffs):
            e = exps[i]
            for k in range(e + 1):
                b = math.comb(e, k)
                if not p or b % p:
                    key = exps[:i] + (k,) + exps[i + 1 :]
                    raw[key] = raw.get(key, 0) + a * b * c_powers[e - k]
        values = field.uncleared(raw.values(), scale * power_scale)
        shifted = MultiPoly(poly.variables, {e: v for e, v in zip(raw, values) if v}, field)
    return shifted


def assert_well_formed(poly):
    """Every key is an exponent tuple of the polynomial's width, and every coefficient a
    nonzero element of its field: a Fraction over Q, an int in range(p) over F_p."""
    p = poly.field.characteristic
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == len(poly.variables), (poly, exps)
        if p:
            assert type(coeff) is int and 0 < coeff < p, (poly, exps, coeff)
        else:
            assert type(coeff) is Fraction and coeff != 0, (poly, exps, coeff)


def horner_compose(outer, inner):
    """outer(inner(t)) by Horner's rule on TruncatedSeries.

    A route `TruncatedSeries.compose`, a ring map on integers, does not take."""
    field = outer.field
    if not field.is_zero(inner.coefficient(0)):
        raise EngineError("composition requires inner series with zero constant term")
    result = TruncatedSeries.zero(field)
    for c in reversed(outer.coeffs):
        result = result * inner + TruncatedSeries.exact_series(field, [c])
    return result


def padded_quotient(field, a, b, n):
    """First n coefficients of a / b with both operands zero-padded to length n, by the
    schoolbook recurrence q_k = (a_k - sum_j b_j q_(k-j)) / b_0 over the nonzero b_j."""
    a = list(a) + [field.zero] * max(0, n - len(a))
    terms = [(j, c) for j, c in enumerate(b[1:n], 1) if c]
    inverse = field.inv(b[0])
    q = []
    for k in range(n):
        acc = a[k]
        for j, c in terms:
            if j > k:
                break
            acc = field.add(acc, field.neg(field.mul(q[k - j], c)))
        q.append(field.mul(acc, inverse))
    return q


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test when the block runs longer than `seconds` (SIGALRM)."""

    def expire(signum, frame):
        pytest.fail(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_generator_orders(algebra, arc):
    """(r, orders) as `contact._generator_orders` reports them, from every generator's image.

    Each image is built in full through `arc_substitute`, a route the engine,
    which reads most orders from initial forms, does not take."""
    orders = {i: arc_substitute(poly, arc).order() for i, (poly, _) in enumerate(algebra.generators)}
    weights = [weight for _, weight in algebra.generators]
    r = min((Fraction(o, weights[i]) for i, o in orders.items() if o != INF), default=INF)
    return r, tuple(sorted(orders.items()))


def reference_unit_choice(elimination):
    """(weight, units) that `minimizing_arc` builds its arc y_i -> u_i t^weight from.

    The generator is the achieving one of least weight, as there; its
    lowest-degree homogeneous part is built from its terms and evaluated with
    `MultiPoly.evaluate`, a route the engine, which sums its least degree
    class (`series.class_sum`), does not take.  units is the first `field.units(6)`
    tuple where that part is nonzero, or None when there is none."""
    algebra = elimination.algebra
    field = algebra.field
    achievers = [
        (weight, poly)
        for poly, weight in algebra.generators
        if Fraction(poly.order_at_origin(), weight) == elimination.ord_d
    ]
    weight, poly = min(achievers, key=lambda pair: (pair[0], str(pair[1])))
    low = poly.order_at_origin()
    initial = MultiPoly(poly.variables, {e: c for e, c in poly.terms.items() if sum(e) == low}, field)
    candidates = itertools.product(field.units(6), repeat=len(poly.variables))
    return weight, next((u for u in candidates if not field.is_zero(initial.evaluate(u))), None)


def _nullspace(matrix, field):
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
                    field.add(v, field.neg(field.mul(factor, w)))
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


def _reference_weighted_products(generators, max_weight):
    """All products of generators with total weight <= max_weight, by weight, each built from scratch."""
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


def reference_visible_elimination(algebra, eliminated):
    """`elimination.visible_elimination` through one dense matrix per weight.

    The pool's products are built from scratch, each weight's distinct
    normalized products with a bad part (a monomial in an eliminated
    variable) are the columns of a dense matrix over the bad monomials, and
    every vector of its nullspace, from a row reduction, combines the good
    parts into one visible polynomial.  The engine reduces each product
    against the earlier ones instead and has no pool cap."""
    eliminated = set(eliminated)
    closed = algebra.diff_closure()
    remaining = tuple(v for v in algebra.variables if v not in eliminated)
    drop_indices = [i for i, v in enumerate(algebra.variables) if v in eliminated]

    def bad_split(poly):
        good, bad = {}, {}
        for exps, coeff in poly.terms.items():
            (bad if any(exps[i] for i in drop_indices) else good)[exps] = coeff
        return good, bad

    max_weight = max((w for _, w in closed.generators), default=0)
    pool = _reference_weighted_products(closed.generators, max_weight)
    found = [
        (poly.restrict(remaining), weight) for poly, weight in closed.generators if not bad_split(poly)[1]
    ]
    field = algebra.field
    for weight, entries in pool.items():
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
        matrix = [[bad.get(monomial, field.zero) for _, bad in columns] for monomial in bad_monomials]
        for vector in _nullspace(matrix, field):
            combined = MultiPoly.zero(algebra.variables, field)
            for coefficient, (good, _) in zip(vector, columns):
                if not field.is_zero(coefficient):
                    combined = combined + MultiPoly(algebra.variables, good, field).scale(coefficient)
            if not combined.is_zero():
                found.append((combined.restrict(remaining), weight))
    return ReesAlgebra.of(remaining, found, field).diff_closure()


class PrefixExhausted(Exception):
    """`reference_lift` would read a coefficient past the prefixes it carries."""


@dataclass(frozen=True)
class Prefixes:
    """An arc carried as the first `length` coefficients of each component."""

    variables: tuple
    field: object
    components: tuple  # tuples of `length` field elements each

    @classmethod
    def of(cls, arc, length):
        return cls(arc.variables, arc.field, tuple(tuple(c.coefficient(k) for k in range(length)) for c in arc.components))

    @property
    def length(self):
        return len(self.components[0])


def reference_lift(arc):
    """One blow-up of `Prefixes` in the chart of the first component of least
    order, the chart rule `blowup_lift` does not take: every other component is
    divided by the chart component through `padded_quotient` and its constant, the
    next center, is dropped.  A chart component of order nu leaves nu fewer known
    coefficients; PrefixExhausted when a read would pass the prefixes."""
    field, n = arc.field, arc.length
    nu = next((k for k in range(n) if any(comp[k] for comp in arc.components)), None)
    if nu is None or nu >= n - 1:
        raise PrefixExhausted(f"a lift reads past {n} coefficients")
    index = next(i for i, comp in enumerate(arc.components) if comp[nu])
    divisor = arc.components[index][nu:]
    lifted, constants = [], []
    for i, comp in enumerate(arc.components):
        if i == index:
            lifted.append(comp[: n - nu])
            constants.append(field.zero)
            continue
        quotient = padded_quotient(field, comp[nu:], divisor, n - nu)
        constants.append(quotient[0])
        lifted.append((field.zero, *quotient[1:]))
    return ChartMap(arc.variables, index, tuple(constants)), Prefixes(arc.variables, field, tuple(lifted))


def stepwise_nash_sequence(poly, arc, max_steps=DEFAULT_MAX_STEPS):
    """`nash_sequence` one blow-up per iteration, every transform built whole when its
    step is made and every lift taken by `reference_lift`.

    A route `nash_sequence`, which blows up in the chart of the graph coordinate,
    makes a run of blow-ups at once, lifts by slicing and drops the terms of degree
    above m_0 in a coordinate along which the arc is exactly zero, does not take.  The
    chart component always has order 1 (the graph coordinate starts as t, and a chart
    component is kept), so each lift consumes one coefficient of the `max_steps` + 2
    that are carried."""
    if poly.is_zero():
        raise EngineError("hypersurface polynomial must be nonzero")
    certify_on_hypersurface(poly, arc, f"arc {arc}")
    m0 = poly.order_at_origin()
    if m0 < 2:
        return NashReport((m0,), 0, poly, (), False, below_threshold=True)
    extra = fresh_variable(arc.variables)
    start = current_poly = poly.extend(arc.variables + (extra,))
    current_arc = Prefixes.of(graph_arc(arc, extra), max_steps + 2)
    sequence = [m0]
    runs = []
    for _ in range(max_steps):
        chart, current_arc = reference_lift(current_arc)
        current_poly = strict_transform(current_poly, chart)
        m = current_poly.order_at_origin()
        if m > sequence[-1]:
            raise EngineError("Nash multiplicity increased; this is a bug")
        sequence.append(m)
        runs.append((chart, 1))
        if m < m0:
            return NashReport(tuple(sequence), len(sequence) - 1, start, tuple(runs), False)
    return NashReport(tuple(sequence), None, start, tuple(runs), True)


def assert_chain_matches_stepwise(poly, arc, max_steps=DEFAULT_MAX_STEPS):
    """`nash_sequence` and `stepwise_nash_sequence`, which blow up in other charts, give
    the same sequence, rho and truncation, or raise the same error.  Their traces
    record their charts, so they are not compared."""

    def outcome(chain):
        try:
            return chain(poly, arc, max_steps).to_json()
        except EngineError as error:
            return type(error), str(error)

    assert outcome(nash_sequence) == outcome(stepwise_nash_sequence), (poly, arc, max_steps)


def persistence_oracle(poly, arc, max_steps=DEFAULT_MAX_STEPS):
    """Number of directed blow-ups before the multiplicity first drops."""
    report = nash_sequence(poly, arc, max_steps)
    if report.truncated:
        raise SequenceTruncated(
            f"no multiplicity drop within {max_steps} blow-ups; raise max_steps"
        )
    return report.rho


def verify_presentation(presentation, candidates, budget, seed, **options):
    """`verify_main_theorem` given its `ord_d` and presenting algebra, built as `problems.run` does."""
    elimination = ord_d(presentation)  # NotInSingularLocus unless f realizes m
    algebra = presenting_algebra(presentation.poly)
    return verify_main_theorem(presentation, elimination, algebra, candidates, budget, seed, **options)


def sampled_arcs(poly, budget, seed, parametrization=None):
    """`sample_arcs` with each entry built: (arc, composed) pairs, where composed
    marks an arc phi o s built from the integer coefficients of s that its
    index names (`draw_key`), and a grid arc is built from its (pattern,
    leads) by `grid_arc`."""
    return [
        (grid_arc(poly.variables, poly.field, grid), False)
        if index is None
        else (parametrization.compose(TruncatedSeries.exact_series(poly.field, draw_key(poly.field, index))), True)
        for grid, index in sample_arcs(poly, budget, seed, parametrization)
    ]


def reference_sample_arcs(poly, budget, seed, parametrization=None):
    """`sampled_arcs` by composing every draw and every phi(t^n) and
    deduplicating the built arcs, which `sample_arcs` does only where the
    separation rule cannot prove an arc new."""
    field = poly.field
    arcs = sampled_arcs(poly, 0, seed)
    if parametrization is None:
        return arcs
    seen = {arc.components for arc, _ in arcs}

    def admit(arc):
        if arc.components not in seen:
            seen.add(arc.components)
            arcs.append((arc, True))

    # Index i >= 1 of the nonzero series: its base-V digits, least significant
    # first, name the coefficients of t^1 ... t^DEGREE_BOUND among the V
    # distinct values of 0, -3, ..., 3 in the field.
    values = []
    for c in (0, *range(-3, 4)):
        if field.coerce(c) not in values:
            values.append(field.coerce(c))
    width = len(values)
    space = width**DEGREE_BOUND - 1
    for index in random.Random(seed).sample(range(1, space + 1), min(budget, space)):
        digits = [index // width**j % width for j in range(DEGREE_BOUND)]
        admit(parametrization.compose(TruncatedSeries.exact_series(field, [field.zero] + [values[d] for d in digits])))
    for n in range(1, 9):
        admit(parametrization.reparametrize(n))
    return arcs


def reference_verify(presentation, elimination, algebra, candidates, budget, seed, parametrization=None):
    """`verify_main_theorem`'s report with `contact_order` run on every arc.

    A route `verify_main_theorem`, which gives each arc composed through the
    parametrization the parametrization's r_bar, does not take.  The
    candidates are certified here."""
    poly = presentation.poly
    for name, arc in candidates.items():
        certify_on_hypersurface(poly, arc, f"candidate {name}")
    sampled = sampled_arcs(poly, budget, seed, parametrization)
    named = [*candidates.items(), *((f"sample_{i}", arc) for i, (arc, _) in enumerate(sampled))]
    r_bars = []
    witness = None
    for name, arc in named:
        r = contact_order(algebra, arc)
        r_bars.append(INF if r == INF else r / arc.order())
        if r_bars[-1] == elimination.ord_d and witness is None:
            witness = (name, arc, r)
    lower_bound_holds = all(r_bar >= elimination.ord_d for r_bar in r_bars)
    witness_matches = None
    if witness is not None:
        _, arc, r = witness
        projected = arc.project(elimination.algebra.variables)
        witness_matches = (
            contact_order(elimination.algebra, projected) == r and projected.order() == arc.order()
        )
    if not lower_bound_holds or witness_matches is False:
        verdict = "FAIL"
    else:
        verdict = "INCONCLUSIVE" if witness is None else "PASS"
    constructed = None if elimination.ord_d == INF else minimizing_arc(elimination)
    return TheoremReport(
        ord_d=elimination.ord_d,
        method=elimination.method,
        arcs_checked=len(named),
        min_r_bar=min(r_bars, default=INF),
        lower_bound_holds=lower_bound_holds,
        witness_name=witness[0] if witness else None,
        witness_matches_projection=witness_matches,
        verdict=verdict,
        details={
            "constructed_arc": None if constructed is None else str(constructed),
            "constructed_r_bar": str(elimination.ord_d),
            "witness_arc": str(witness[1]) if witness else None,
        },
    )


FIELDS = (RATIONALS, prime_field(2), prime_field(3), prime_field(5))
XY = ("x", "y")


def random_field(rng):
    return FIELDS[rng.randrange(len(FIELDS))]


def random_poly(rng, field, variables=XY, max_degree=3, max_terms=4, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = field.coerce(rng.randint(-3, 3))
    poly = MultiPoly(variables, terms, field)
    if nonzero and poly.is_zero():
        return random_poly(rng, field, variables, max_degree, max_terms, nonzero)
    return poly


def random_point(rng, field, width=2):
    return tuple(field.coerce(rng.randint(-2, 2)) for _ in range(width))


def random_multi_index(rng, width=2, max_total=3):
    total = rng.randint(1, max_total)
    head = rng.randint(0, total)
    return (head, total - head) if width == 2 else (total,)


def _hasse(poly, alpha):
    """D^alpha f read from `MultiPoly.hasse_derivatives`, f itself at alpha = 0."""
    if not any(alpha):
        return poly
    return poly.hasse_derivatives(sum(alpha) + 1).get(alpha, MultiPoly.zero(poly.variables, poly.field))


def check_hasse_leibniz(rng):
    """hasse(a)(f*g) = sum over b+c=a of hasse(b)(f) * hasse(c)(g), for the one-walk derivatives."""
    field = random_field(rng)
    f = random_poly(rng, field)
    g = random_poly(rng, field)
    alpha = random_multi_index(rng)
    left = _hasse(f * g, alpha)
    assert_well_formed(left)
    right = MultiPoly.zero(XY, field)
    for b0 in range(alpha[0] + 1):
        for b1 in range(alpha[1] + 1):
            beta = (b0, b1)
            gamma = (alpha[0] - b0, alpha[1] - b1)
            df, dg = _hasse(f, beta), _hasse(g, gamma)
            assert_well_formed(df)
            assert_well_formed(dg)
            right = right + df * dg
    assert left == right, f"Leibniz fails for {f}, {g}, alpha={alpha}"


def check_translation_composition(rng):
    """translate(translate(f, p), -p) = f."""
    field = random_field(rng)
    f = random_poly(rng, field)
    point = random_point(rng, field)
    back = tuple(field.neg(c) for c in point)
    assert f.translate(point).translate(back) == f


def check_order_multiplicativity(rng):
    """order_at(f*g, p) = order_at(f, p) + order_at(g, p)."""
    field = random_field(rng)
    f = random_poly(rng, field, nonzero=True)
    g = random_poly(rng, field, nonzero=True)
    point = random_point(rng, field)
    assert (f * g).order_at(point) == f.order_at(point) + g.order_at(point)


_CURVES = ((2, 3), (2, 5), (3, 4), (3, 5))


def random_curve_and_arc(rng):
    """A plane curve y^q - x^p with an arc on it through the normalization."""
    q, p = _CURVES[rng.randrange(len(_CURVES))]
    field = random_field(rng)
    degree = rng.randint(1, 3)
    coeffs = [field.zero] + [field.coerce(rng.randint(-2, 2)) for _ in range(degree)]
    inner = TruncatedSeries.exact_series(field, coeffs)
    if inner.is_exactly_zero():
        return random_curve_and_arc(rng)
    f = MultiPoly(XY, {(p, 0): field.coerce(-1), (0, q): field.one}, field)
    arc = Arc(XY, (inner**q, inner**p), field)
    return f, arc


def derivatives_of(f):
    """The presenting algebra of f without f W^m: the algebra `verify_main_theorem` evaluates arcs on f on."""
    g = presenting_algebra(f)
    top = (f.normalized(), f.order_at_origin())
    return ReesAlgebra(g.variables, tuple(gen for gen in g.generators if gen != top), g.field)


def check_contact_without_f(rng):
    """Along an arc on f, contact_order of G = Diff(f W^m) equals that of G without f W^m:
    f maps to 0, so only its derivatives can attain r."""
    f, arc = random_curve_and_arc(rng)
    g = presenting_algebra(f)
    derivatives = derivatives_of(f)
    assert len(derivatives.generators) == len(g.generators) - 1, f
    assert contact_order(g, arc) == contact_order(derivatives, arc), f"{f} along {arc}"


def check_nash_monotonicity(rng):
    """Nash multiplicity sequences never increase."""
    f, arc = random_curve_and_arc(rng)
    report = nash_sequence(f, arc, max_steps=40)
    sequence = report.sequence
    assert all(a >= b for a, b in zip(sequence, sequence[1:])), sequence
    assert sequence[0] == f.order_at_origin()
    if not report.truncated:
        assert sequence[report.rho] < sequence[0]


#: Fields and step limits of `check_lift_chain`.
_LIFT_FIELDS = FIELDS + (prime_field(7),)
_LIFT_MAX_STEPS = (0, 1, 5, 32, 100)
#: (f, arc, max_steps, rho) over Q: chains along composed arcs, where the stepwise
#: reference's chart leaves the graph coordinate and its lifts stop terminating.  Along
#: (t + t^2, (t + t^2)^20) the reference reads the last of its carried coefficients at
#: max_steps 19 and 20.
LIFT_CHAIN_CASES = (
    ("y^2 - x^21", "(t + t^2)^8, (t + t^2)^84", 100, 84),
    ("y^2 - x^40", "t + t^2, (t + t^2)^20", 0, None),
    ("y^2 - x^40", "t + t^2, (t + t^2)^20", 1, None),
    ("y^2 - x^40", "t + t^2, (t + t^2)^20", 19, None),
    ("y^2 - x^40", "t + t^2, (t + t^2)^20", 20, 20),
    ("y^2 - x^40", "t + t^2, (t + t^2)^20", 30, 20),
)


def check_lift_chain(rng):
    """Along a composed arc, `nash_sequence` answers at every max_steps of
    `_LIFT_MAX_STEPS` and gives the report of `stepwise_nash_sequence`, whose lifts
    divide by a chart component that is not t.  The arc is (s^q, s^p) on y^q - x^p,
    or (s, s^k) on y^2 - x^(2k) with k within one of max_steps, whose chain, when s has
    order 1, ends within one blow-up of max_steps and reads its prefixes to the last."""
    field = _LIFT_FIELDS[rng.randrange(len(_LIFT_FIELDS))]
    coeffs = [field.zero] + [field.coerce(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
    inner = TruncatedSeries.exact_series(field, coeffs)
    if inner.is_exactly_zero():
        return check_lift_chain(rng)
    max_steps = rng.choice(_LIFT_MAX_STEPS)
    if rng.random() < 0.5:
        q = rng.choice((2, 3))
        p = rng.randint(q + 1, 12)
        components = (inner**q, inner**p)
    else:
        q, k = 2, max(2, max_steps + rng.choice((-1, 0, 1)))
        p = 2 * k
        components = (inner, inner**k)
    f = MultiPoly(XY, {(p, 0): field.coerce(-1), (0, q): field.one}, field)
    arc = Arc(XY, components, field)
    nash_sequence(f, arc, max_steps)  # raises nothing
    assert_chain_matches_stepwise(f, arc, max_steps)


def random_chain_case(rng, field):
    """(f, arc, in_locus): an arc x -> s, y -> g(s) and, in width 3, z -> h(s), with s
    of order 1 or 2 and g, h polynomials without constant term, and an f of order at
    least 2 that vanishes along it, built from A = y - g(x) and B = z - h(x).  Inside
    the locus f is A^2, or A^2 + c B^2 in width 3, of multiplicity 2 along the whole
    curve A = B = 0, so the chain never drops; otherwise f = A (A + r) (+ B q in width
    3), with r and q of order at least 1.  When s has order 1, x has order 1 and the
    stepwise reference blows up in the chart of x, not of the graph coordinate."""
    variables = XYZ[: rng.randint(2, 3)]
    units = field.units(4)
    tail = [field.coerce(rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))]
    s = TruncatedSeries.exact_series(field, [field.zero] * rng.randint(1, 2) + [rng.choice(units), *tail])
    x = MultiPoly.variable("x", variables, field)
    components, curve = [s], []
    for name in variables[1:]:
        coeffs = [field.zero] + [field.coerce(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        components.append(TruncatedSeries.exact_series(field, coeffs).compose(s))
        g = MultiPoly.zero(variables, field)
        for k, c in enumerate(coeffs):
            g = g + (x**k).scale(c)
        curve.append(MultiPoly.variable(name, variables, field) - g)
    in_locus = rng.random() < 0.4
    if in_locus:
        f = curve[0] ** 2
        if len(curve) > 1:
            f = f + (curve[1] ** 2).scale(rng.choice(units))
    else:
        def of_order_one_or_more():
            return random_poly(rng, field, variables, 2, 3) * MultiPoly.variable(rng.choice(variables), variables, field)

        f = curve[0] * (curve[0] + of_order_one_or_more())
        if len(curve) > 1:
            f = f + curve[1] * of_order_one_or_more()
        if f.is_zero():  # r = -A
            return random_chain_case(rng, field)
    return f, Arc(variables, tuple(components), field), in_locus


#: Leads of monomial arcs: small units, and over Q two with a denominator.
_MONOMIAL_LEADS = {0: (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)), 2: (1,), 3: (1, 2), 5: (1, 2, 3, 4)}


def random_monomial_arc(rng, field, width, max_degree=2):
    """(arc, on): a monomial arc x_i -> u_i t^(a_i) over `width` variables, each
    component zero with chance 1/4 but not all, and a nonzero polynomial that
    vanishes on it, or None when only 0 does (a single nonzero component).

    The polynomial is a random combination of x_k for each zero component and
    of the binomial u_j^(a_i) x_i^(a_j) - u_i^(a_j) x_j^(a_i) for each pair of
    nonzero components, both of which map to exactly 0, with factors whose
    exponents are at most `max_degree`."""
    variables = ("x", "y", "z")[:width]
    leads = _MONOMIAL_LEADS[field.characteristic]
    choices = [None] * width
    while not any(choices):
        choices = [None if rng.random() < 0.25 else (rng.choice(leads), rng.randint(1, 4)) for _ in variables]
    zero, t_power = TruncatedSeries.zero, TruncatedSeries.t_power
    arc = Arc(variables, tuple(zero(field) if c is None else t_power(field, c[1], c[0]) for c in choices), field)
    vanishing = []
    for i, j in itertools.combinations_with_replacement(range(width), 2):
        left, right = [0] * width, [0] * width
        if i == j and choices[i] is None:
            left[i] = 1
            vanishing.append(MultiPoly(variables, {tuple(left): field.one}, field))
        elif i != j and choices[i] and choices[j]:
            (u, a), (v, b) = choices[i], choices[j]
            left[i], right[j] = b, a
            terms = {tuple(left): field.coerce(v**a), tuple(right): field.coerce(-(u**b))}
            vanishing.append(MultiPoly(variables, terms, field))
    on = MultiPoly.zero(variables, field)
    for g in vanishing:
        on = on + g * random_poly(rng, field, variables, max_degree=max_degree, max_terms=3, nonzero=True)
    return arc, None if on.is_zero() else on


def _outcome(call):
    """(exception type, message) that call raises, or ("ok", its result)."""
    try:
        return "ok", call()
    except EngineError as error:
        return type(error), str(error)


def check_monomial_leads(rng):
    """Along a monomial arc, the lead sums are the whole image: `arc_substitute`
    equals the image that `arc_image` builds, and `_generator_orders` (INF
    included) and `certify_on_hypersurface` agree with it, on polynomials on
    and off the arc.  On a mismatched ring the
    certificate raises what `arc_image` raises, FieldMismatch before
    VariableMismatch, and `_generator_orders` does likewise."""
    field = random_field(rng)
    width = rng.randint(1, 3)
    arc, on = random_monomial_arc(rng, field, width)
    variables = arc.variables
    off = random_poly(rng, field, variables, nonzero=True)
    weighted = [
        (random_poly(rng, field, variables, nonzero=True), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
    ]
    for poly in (on, off):
        if poly is None:
            continue
        weighted.append((poly, rng.randint(1, 3)))
        image = arc_image(poly, arc).series(field)
        assert arc_substitute(poly, arc) == image, (poly, str(arc))
        expected = image.is_exactly_zero()
        got = _outcome(lambda: certify_on_hypersurface(poly, arc, "the arc"))
        refused = (ArcNotOnVariety, "the arc does not lie on the hypersurface")
        assert got == (("ok", None) if expected else refused), (poly, str(arc))
        if not expected:
            unnamed = _outcome(lambda: certify_on_hypersurface(poly, arc, None))
            assert unnamed == (ArcNotOnVariety, f"arc {arc} does not lie on the hypersurface")
    assert on is None or arc_image(on, arc).order() == INF
    algebra = from_weighted(variables, weighted, field)
    assert _generator_orders(algebra, arc) == reference_generator_orders(algebra, arc), (algebra, str(arc))

    other_field = FIELDS[(FIELDS.index(field) + 1) % len(FIELDS)]
    other_variables = ("u", "v", "w")[:width]
    mismatches = ((other_field, other_variables, FieldMismatch), (field, other_variables, VariableMismatch))
    for ring, names, error in mismatches:
        poly = MultiPoly(names, {(1,) * width: ring.one}, ring)
        reference = _outcome(lambda: arc_image(poly, arc))
        assert reference[0] is error
        assert _outcome(lambda: certify_on_hypersurface(poly, arc, "the arc")) == reference
        assert _outcome(lambda: arc_substitute(poly, arc)) == reference
        assert _outcome(lambda: _generator_orders(ReesAlgebra.of(names, [(poly, 1)], ring), arc))[0] is error


def check_grid_r_bar(rng, field, width):
    """For every grid entry (pattern, leads) of `sample_arcs` on a random
    product f of two polynomials without constant term in `width` variables
    (a square half the time), the r_bar that `verify_main_theorem`
    reads, `grid_r_bars` on the derivatives of f, is contact_order / arc.order()
    on the arc that `grid_arc` builds from the entry, INF included, and both
    are the least ord_t(phi(g))/w of every generator's full image
    (`reference_generator_orders`) over the least t-order of the entry's
    components.  Returns the number of entries checked."""
    variables = ("x", "y", "z", "u")[:width]

    def factor():
        # A nonzero polynomial with no constant term, of at most three terms.
        while True:
            poly = random_poly(rng, field, variables, max_degree=1, max_terms=3)
            poly = MultiPoly(variables, {e: c for e, c in poly.terms.items() if any(e)}, field)
            if not poly.is_zero():
                return poly

    # A product, a square half the time: along an arc on a square factor the
    # first derivatives vanish or cancel at their least degree.
    p = factor()
    f = p * (p if rng.random() < 0.5 else factor())
    derivatives = derivatives_of(f)
    grid_entries = [grid for grid, _ in sample_arcs(f, 0, 0)]
    for grid, r_bar in zip(grid_entries, grid_r_bars(derivatives, grid_entries), strict=True):
        arc = grid_arc(variables, field, grid)
        r = contact_order(derivatives, arc)
        expected = INF if r == INF else r / arc.order()
        assert r_bar == expected, (str(f), str(arc))
        reference, _ = reference_generator_orders(derivatives, arc)
        nu = min(c.order() for c in arc.components)
        assert expected == (INF if reference == INF else reference / nu), (str(f), str(arc))
    return len(grid_entries)


#: Fields with the fiber degrees m they do not divide: ord_d takes the Tschirnhausen route.
TSCHIRNHAUSEN_DEGREES = (
    (RATIONALS, (2, 3, 4)), (prime_field(2), (3,)), (prime_field(3), (2, 4)), (prime_field(5), (2, 3, 4)),
)
XYZ = ("x", "y", "z")


def random_tschirnhausen_surface(rng):
    """z^m - x^a - y^b plus up to two terms of order >= m and degree < m in z, over
    a field whose characteristic does not divide m: monic in z, of order m."""
    field, degrees = TSCHIRNHAUSEN_DEGREES[rng.randrange(len(TSCHIRNHAUSEN_DEGREES))]
    m = degrees[rng.randrange(len(degrees))]
    f = parse_poly(f"z^{m} - x^{rng.randint(m, m + 3)} - y^{rng.randint(m, m + 4)}", XYZ, field)
    for _ in range(rng.randint(0, 2)):
        i, k = rng.randint(0, m + 2), rng.randint(0, m - 1)
        j = rng.randint(max(m - k - i, 0), m + 2)
        f = f + MultiPoly(XYZ, {(i, j, k): field.coerce(rng.choice((-2, -1, 1, 2)))}, field)
    return f


def check_ord_d_coordinate_invariance(rng):
    """ord_d is unchanged by x -> a x + b y, y -> c x + d y with ad - bc a unit, and
    z -> z + h(x, y) with h(0) = 0, on Tschirnhausen-route surfaces."""
    f = random_tschirnhausen_surface(rng)
    field = f.field
    x, y, z = (MultiPoly.variable(v, XYZ, field) for v in XYZ)
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if not field.is_zero(field.coerce(a * d - b * c)):
            break
    shift = MultiPoly.zero(XYZ, field)
    for monomial in (x, y, x * x, x * y, y * y):
        shift = shift + monomial.scale(rng.randint(-2, 2))
    values = {"x": x.scale(a) + y.scale(b), "y": x.scale(c) + y.scale(d), "z": z + shift}
    moved = f.substitute(values)
    before = ord_d(MonicPresentation(("x", "y"), "z", f)).ord_d
    after = ord_d(MonicPresentation(("x", "y"), "z", moved)).ord_d
    assert before == after, f"{f}: ord_d {before}, but {after} for {moved}"


def check_diff_closure_idempotence(rng):
    """diff_closure(diff_closure(G)) = diff_closure(G), as sets and observers."""
    field = random_field(rng)
    generators = [
        (random_poly(rng, field, nonzero=True), rng.randint(1, 3))
        for _ in range(rng.randint(1, 2))
    ]
    algebra = ReesAlgebra.of(XY, generators, field)
    closed = algebra.diff_closure()
    twice = closed.diff_closure()
    assert twice.generators == closed.generators
    points = [random_point(rng, field) for _ in range(5)]
    assert observers_agree(algebra, closed, points)


def run_many(check, cases, seed):
    rng = random.Random(seed)
    for _ in range(cases):
        check(rng)

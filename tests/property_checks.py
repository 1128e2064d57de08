"""Helpers and randomized property checks shared by the test suites.

The helpers build and compare Rees algebras and derive invariants by
routes that no run of the engine takes: `from_weighted` and `parse_rees`
build algebras from text, `odot` joins two, `observers_agree` compares
them at points, `integral_invariance_check` adjoins an integral element,
and `persistence_oracle` counts blow-ups to the first multiplicity drop.

Each check_* function draws one random case from a seeded Random and
asserts the property; the suites run them a few hundred times.  Everything
is exact arithmetic, so any failure is a real counterexample.
"""

import random

from arcmult.blowup import DEFAULT_MAX_STEPS, nash_sequence
from arcmult.contact import contact_order
from arcmult.errors import EngineError, VariableMismatch
from arcmult.fields import RATIONALS, ensure_same_field, prime_field
from arcmult.poly import MultiPoly, parse_poly
from arcmult.rees import ReesAlgebra
from arcmult.series import DEFAULT_PRECISION, Arc, TruncatedSeries


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


def persistence_oracle(poly, arc, max_steps=DEFAULT_MAX_STEPS, precision=DEFAULT_PRECISION):
    """Number of directed blow-ups before the multiplicity first drops."""
    report = nash_sequence(poly, arc, max_steps, precision)
    if report.truncated:
        raise SequenceTruncated(
            f"no multiplicity drop within {max_steps} blow-ups; raise max_steps"
        )
    return report.rho


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


def check_hasse_leibniz(rng):
    """hasse(a)(f*g) = sum over b+c=a of hasse(b)(f) * hasse(c)(g)."""
    field = random_field(rng)
    f = random_poly(rng, field)
    g = random_poly(rng, field)
    alpha = random_multi_index(rng)
    left = (f * g).hasse_derivative(alpha)
    right = MultiPoly.zero(XY, field)
    for b0 in range(alpha[0] + 1):
        for b1 in range(alpha[1] + 1):
            beta = (b0, b1)
            gamma = (alpha[0] - b0, alpha[1] - b1)
            right = right + f.hasse_derivative(beta) * g.hasse_derivative(gamma)
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


def check_nash_monotonicity(rng):
    """Nash multiplicity sequences never increase."""
    f, arc = random_curve_and_arc(rng)
    report = nash_sequence(f, arc, max_steps=40)
    sequence = report.sequence
    assert all(a >= b for a, b in zip(sequence, sequence[1:])), sequence
    assert sequence[0] == f.order_at_origin()
    if not report.truncated:
        assert sequence[report.rho] < sequence[0]


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

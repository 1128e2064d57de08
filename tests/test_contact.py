import hashlib
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from property_checks import (
    DependenceInvalid,
    derivatives_of,
    from_weighted,
    horner_compose,
    integral_invariance_check,
    random_monomial_arc,
    random_poly,
    reference_feasible_patterns,
    reference_generator_orders,
    reference_grid,
    reference_lead_sums,
    reference_sample_arcs,
    reference_unit_choice,
    reference_vanishes,
    reference_verify,
    sampled_arcs,
)

from arcmult import contact, elimination, series
from arcmult.contact import (
    DEGREE_BOUND,
    EXPONENT_BOUND,
    _generator_orders,
    _grid_entry,
    _lead_orders,
    _separates,
    _vanishing_grid,
    contact_order,
    draw_key,
    grid_arc,
    grid_r_bars,
    normalized_contact,
    sample_arcs,
)
from arcmult.corpus import corpus_names, load_problem
from arcmult.elimination import (
    EliminationResult,
    MonicPresentation,
    minimizing_arc,
    ord_d,
    verify_main_theorem,
)
from arcmult.errors import (
    ArcNotOnVariety,
    EngineError,
    NoRationalUnit,
    VariableMismatch,
)
from arcmult.fields import INF, RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.problems import MAX_OPTION, presentation_of
from arcmult.rees import presenting_algebra
from arcmult.series import Arc, TruncatedSeries, arc_substitute, certify_on_hypersurface, parse_series

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
XY = ("x", "y")
XYZ = ("x", "y", "z")


def arc(field, *texts, variables=XY):
    return Arc(variables[: len(texts)], tuple(parse_series(t, field) for t in texts), field)


def algebra(weighted, field=Q, variables=XY):
    return from_weighted(variables, weighted, field)


G_CHAR0 = algebra([("y", 1), ("x^2", 1), ("x^3", 2)])
H_CHAR2 = algebra([("x^2", 1), ("y^2 - x^3", 2)], field=F2)


class TestContactOrder:
    def test_char0_cusp(self):
        # min(3/1, 4/1, 6/2) over the generators
        assert contact_order(G_CHAR0, arc(Q, "t^2", "t^3")) == 3

    def test_char2_cusp(self):
        # the defining equation vanishes along the arc; min(4/1, inf)
        assert contact_order(H_CHAR2, arc(F2, "t^2", "t^3")) == 4

    def test_arc_inside_singular_locus_is_infinite(self):
        inside = algebra([("y^2 - x^3", 2)])
        assert contact_order(inside, arc(Q, "t^2", "t^3")) == INF


class TestNormalizedContact:
    def test_char0(self):
        result = normalized_contact(G_CHAR0, arc(Q, "t^2", "t^3"))
        assert (result.r, result.nu, result.r_bar, result.rho) == (
            3,
            2,
            Fraction(3, 2),
            3,
        )

    def test_char2(self):
        result = normalized_contact(H_CHAR2, arc(F2, "t^2", "t^3"))
        assert (result.r, result.nu, result.r_bar, result.rho) == (4, 2, 2, 4)

    def test_reparametrized_scales_r_not_r_bar(self):
        result = normalized_contact(G_CHAR0, arc(Q, "t^10", "t^15"))
        assert (result.r, result.r_bar, result.rho) == (15, Fraction(3, 2), 15)

    def test_r_bar_invariant_under_reparametrization(self):
        base = arc(Q, "t^2", "t^3")
        expected = normalized_contact(G_CHAR0, base).r_bar
        for n in range(1, 7):
            assert normalized_contact(G_CHAR0, base.reparametrize(n)).r_bar == expected

    @pytest.mark.parametrize("name", corpus_names())
    def test_composed_arcs_repeat_the_parametrization_r_bar(self, name):
        # g(phi(s)) = g(phi)(s) has order ord(g(phi)) * ord(s), and so has each
        # arc component: r and nu scale by ord(s), and r_bar stays.
        problem = load_problem(name)
        field, phi = problem.field, problem.parametrization
        algebra = presenting_algebra(problem.poly)
        base = normalized_contact(algebra, phi)
        rng = random.Random(f"compose-{name}")
        for _ in range(20):
            coeffs = [field.coerce(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
            s = TruncatedSeries.exact_series(field, [field.zero] + coeffs)
            if s.is_exactly_zero():
                continue
            composed = normalized_contact(algebra, phi.compose(s))
            k = s.order()
            assert (composed.r, composed.nu, composed.r_bar) == (
                base.r * k,
                base.nu * k,
                base.r_bar,
            ), (name, str(s))

    def test_generator_orders_reported(self):
        result = normalized_contact(G_CHAR0, arc(Q, "t^2", "t^3"))
        assert result.generator_orders == ((0, 3), (1, 4), (2, 6))


def _verify_sampler_inputs(problem):
    """The arguments `verify` passes to sample_arcs for a problem."""
    presentation = presentation_of(problem)
    options = problem.options
    return presentation.poly, options.budget, options.seed, problem.parametrization


SURFACE_CONSTRAINTS = [
    (f"z2_x3_y4_f{p}", parse_poly("z^2 - x^3 - y^4", ("x", "y", "z"), field))
    for p, field in ((0, Q), (2, F2), (3, F3))
]
SURFACES = dict(SURFACE_CONSTRAINTS)
BUNDLED_CONSTRAINTS = [(name, load_problem(name).poly) for name in corpus_names()]

#: Sampled arc list of each bundled problem's verify run: (length, SHA-256 of
#: the newline-joined str of each arc).  Witness names sample_<i> index it.
SAMPLED_ARCS = {
    "cusp_char0": (110, "e326af791ad7154f11949bac1b3854c201ccde0230da11b66421bf2ba822f8ff"),
    "cusp_char2": (104, "7635fdb404bbd0d3ac1d1980d904a539b8bcfb9106ff4d3ad4d0bfe86565bf30"),
    "cusp_char3": (110, "b8e23c2602f0c317a5bbaa814d40339f838d16f35350c12aacedeb9c48028118"),
    "e25_char0": (109, "48ec86d443ecc875e8f004fd9ccfed0041f3d73d6aaa758803facc618af7cb7d"),
    "e25_char2": (104, "9eb066e10c71d9774827e85ab8b1d32ac4a3837dc488fb74c2fb2be0b4bbf1c9"),
    "e25_char3": (109, "2d05d8242cdab6777875e1cf8880275e3f9edd725b216a1c3ab6f01b315b48a6"),
    "e34_char0": (110, "c871f3e85fd1ad98fa249e161c09a039302138455d2da1c275228b2267ad66f2"),
    "e34_char2": (104, "33c2d4c4a2f1d2f93b0f7074a647d34212a5ca9d7ef86fdceb33973f99ed79d8"),
    "e34_char3": (110, "1c6085ab87a2a808d09491953b97483fb4fbb641600cf301f5de09bc1625cf70"),
    "e35_char0": (109, "2d4be18761c7d2cc58f7f795028d62b186d9a1fdd46a98a5a776b645bad44a03"),
    "e35_char2": (104, "e24a474cd5adef34a309d8d4d23998eb17da584339af73e09169bc29c8b336ce"),
    "e35_char3": (109, "7174bd7755512e60d96e261b9e427c0cb1c17dc778e98f31876c3ac4aefd856b"),
}


#: Shapes whose terms cancel along some monomial arcs: the node, x*y (y -> 0
#: kills every term), x^2 + y^2 (cancels over F_2, not over Q or F_3), a
#: binomial in three variables and a trinomial.
GRID_CANCELLING_SHAPES = (
    "y^2 - x^2 - x^3",
    "x*y",
    "x^2 + y^2",
    "z^2 - x*y",
    "z^2 - x^2*y - y^3",
)


#: Shapes at the edges of the last-exponent solve: one term (every pattern that
#: kills it is feasible), ties of terms with the same z exponent and the same
#: degree in x, y (they tie whatever z's exponent), and a term, z^3, that only
#: z -> 0 kills.
GRID_EDGE_SHAPES = {
    "one-term": "x*y^2*z",
    "tie-square": "x^2*z - y^2*z",
    "tie-linear": "x*z + y*z",
    "last-only-kills": "x^2 - y^2 + z^3",
}
XYZUV = ("x", "y", "z", "u", "v")


def _grid_with_tries(monkeypatch, constraint):
    """`_vanishing_grid`'s list, and {pattern: unit tuples tried} for each exponent pattern it tries:
    `_vanishing_units` tries every tuple of its per-variable choices."""
    tried = Counter()
    rule = contact._vanishing_units

    def counted(classes, choices, p):
        pattern = tuple(None if options[0][1] is None else options[0][1][1] for options in choices)
        tried[pattern] += math.prod(map(len, choices))
        return rule(classes, choices, p)

    monkeypatch.setattr(contact, "_vanishing_units", counted)
    grid = _vanishing_grid(constraint)
    monkeypatch.setattr(contact, "_vanishing_units", rule)
    return grid, dict(tried)


class TestSampleArcs:
    @pytest.mark.parametrize(
        "constraint",
        [poly for _, poly in BUNDLED_CONSTRAINTS + SURFACE_CONSTRAINTS],
        ids=[name for name, _ in BUNDLED_CONSTRAINTS + SURFACE_CONSTRAINTS],
    )
    def test_exponent_rule_matches_substitution_on_the_grid(self, constraint):
        field, variables = constraint.field, constraint.variables
        grid = set(_vanishing_grid(constraint))
        admitted = 0
        for assignment in reference_grid(field, len(variables), EXPONENT_BOUND):
            by_rule = assignment in grid
            monomial = grid_arc(variables, field, _grid_entry(assignment))
            assert by_rule == arc_substitute(constraint, monomial).is_exactly_zero(), monomial
            admitted += by_rule
        assert admitted == len(grid) > 0

    def test_pattern_first_grid_matches_the_full_grid(self, monkeypatch):
        # The shapes whose terms cancel along some monomial arcs, the edge
        # shapes of the last-exponent solve, then two random polynomials in
        # each of 1-5 variables over each field: the sampler's grid must
        # admit exactly the full grid's vanishing assignments, in the full
        # grid's order, and try units on exactly the patterns that scanning
        # the whole box finds feasible.
        constraints = [
            parse_poly(text, XYZ if "z" in text else XY, field)
            for text in GRID_CANCELLING_SHAPES + tuple(GRID_EDGE_SHAPES.values())
            for field in (Q, F2, F3, F5)
        ]
        rng = random.Random("pattern-first-grid")
        for field, width, _ in itertools.product((Q, F2, F3, F5), range(1, 6), range(2)):
            constraints.append(random_poly(rng, field, XYZUV[:width], nonzero=True))
        for constraint in constraints:
            field, width = constraint.field, len(constraint.variables)
            terms = list(constraint.terms.items())
            expected = [
                assignment
                for assignment in reference_grid(field, width, EXPONENT_BOUND)
                if reference_vanishes(terms, field, assignment)
            ]
            grid, tried = _grid_with_tries(monkeypatch, constraint)
            assert grid == expected, (str(constraint), field.characteristic)
            units = len(field.units(6))
            feasible = {
                pattern: units ** sum(a is not None for a in pattern)
                for pattern in reference_feasible_patterns(terms, field, width, EXPONENT_BOUND)
            }
            assert tried == feasible, (str(constraint), field.characteristic)

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
    @pytest.mark.parametrize("text", ["x*y^2", "z^3", "x^2*y*z^4"])
    def test_one_term_vanishes_where_a_variable_of_it_is_zero(self, field, text):
        # No power of t has two terms, so the grid is every assignment that
        # sends a variable of the term to zero, whatever its other exponents.
        constraint = parse_poly(text, XYZ, field)
        (exps,) = constraint.terms
        killing = [
            assignment
            for assignment in reference_grid(field, 3, EXPONENT_BOUND)
            if any(e and choice is None for e, choice in zip(exps, assignment))
        ]
        assert _vanishing_grid(constraint) == killing

    def test_filter_runs_on_few_of_the_box_patterns(self, monkeypatch):
        # Over F_3 the box is {None, 1..8}^3, 729 patterns, and scanning it
        # counts degrees on the 728 that are not all None.  Solving z's
        # exponent counts them on 107: for each of the 80 prefixes (x, y)
        # other than (None, None), once with z -> 0, and 27 times with the z
        # exponent that gives z^3, the first term, the degree of x^4
        # (x = 3 or 6, 18 prefixes: z = 4 or 8) or of y^5 (y = 3, 9 prefixes:
        # z = 5).
        counts = []
        check = contact._every_degree_twice
        monkeypatch.setattr(contact, "_every_degree_twice", lambda degrees: counts.append(1) or check(degrees))
        constraint = parse_poly("z^3 - x^4 - y^5", XYZ, F3)
        assert _vanishing_grid(constraint)
        assert len(counts) == 107

    @pytest.mark.parametrize(
        "text, field, calls",
        # The full grid applies the rule 15,624 and 4,912 times; scanning every
        # pattern of the box for feasible ones gives these counts too.
        [("z^2 - x^3 - y^4", Q, 144), ("z^3 - x^4 - y^5", F3, 16)],
        ids=["q", "f3"],
    )
    def test_grid_tries_units_only_on_feasible_patterns(self, monkeypatch, text, field, calls):
        constraint = parse_poly(text, XYZ, field)
        _, tried = _grid_with_tries(monkeypatch, constraint)
        assert sum(tried.values()) == calls
        assert sample_arcs(constraint, 0, 0)

    def test_constraint_over_other_variables_rejected(self):
        constraint = parse_poly("y^2 - x^3", ("x", "y", "z"), Q)
        with pytest.raises(VariableMismatch):
            sample_arcs(constraint, 100, 0, arc(Q, "t^2", "t^3"))

    @pytest.mark.parametrize(
        "name", [name for name, _ in BUNDLED_CONSTRAINTS + SURFACE_CONSTRAINTS]
    )
    def test_every_sampled_arc_lies_on_the_hypersurface(self, name):
        # The sampler checks the parametrization once and admits its
        # compositions unchecked; here every returned arc is substituted.
        if name in SURFACES:
            poly = SURFACES[name]
            budget, seed = 20, 0
            phi = arc(poly.field, "t^2", "0", "t^3", variables=poly.variables)
        else:
            poly, budget, seed, phi = _verify_sampler_inputs(load_problem(name))
        arcs = sampled_arcs(poly, budget, seed, phi)
        assert len(arcs) > 8
        for sampled, _ in arcs:
            assert arc_substitute(poly, sampled).is_exactly_zero(), (name, str(sampled))

    def test_parametrization_checked_once(self):
        with pytest.raises(ArcNotOnVariety):
            sample_arcs(parse_poly("y^2 - x^3", XY, Q), 100, 0, arc(Q, "t^3", "t^2"))

    def test_sampled_arc_lists_are_pinned(self):
        assert set(SAMPLED_ARCS) == set(corpus_names())
        for name, (length, digest) in SAMPLED_ARCS.items():
            poly, budget, seed, phi = _verify_sampler_inputs(load_problem(name))
            arcs = sampled_arcs(poly, budget, seed, phi)
            text = "\n".join(str(a) for a, _ in arcs)
            assert (len(arcs), hashlib.sha256(text.encode()).hexdigest()) == (length, digest), name
            # The grid comes first and is not composed; every later arc is composed through phi.
            grid = len(sample_arcs(poly, budget, seed))
            assert [composed for _, composed in arcs] == [False] * grid + [True] * (length - grid)


#: Surfaces of the contact-walk tests, each with a parametrization,
#: over Q, F_2 and F_3.
ORDER_SURFACES = {
    f"{text}_f{field.characteristic}": (parse_poly(text, XYZ, field), phi)
    for text, phi in (
        ("z^2 - x^3 - y^4", ("t^2", "0", "t^3")),
        ("z^3 - x^4 - y^5", ("t^3", "0", "t^4")),
        ("z^2 - x^2*y - y^3", ("0", "t^2", "t^3")),
    )
    for field in (Q, F2, F3)
}


def _sampled_with_algebra(name):
    """The presenting algebra and sampled arcs of a bundled problem or an ORDER_SURFACES entry."""
    presentation, _, budget, seed, phi = _verify_inputs(name)
    arcs = sampled_arcs(presentation.poly, budget, seed, phi)
    return presenting_algebra(presentation.poly), [sampled for sampled, _ in arcs]


def _cut(sampled, n):
    """The arc with every component cut to its terms below t^n, None when none is left."""
    components = tuple(TruncatedSeries.exact_series(c.field, c.coeffs[:n]) for c in sampled.components)
    if all(c.is_exactly_zero() for c in components):
        return None
    return Arc(sampled.variables, components, sampled.field)


def _assert_orders_match_reference(g, along):
    """contact_order gives the reference r, and _generator_orders the reference r and
    every order.  Returns r."""
    expected = reference_generator_orders(g, along)
    assert _generator_orders(g, along) == expected, str(along)
    assert contact_order(g, along) == expected[0], str(along)
    return expected[0]


#: Generators whose initial forms cancel at an arc's leading coefficients, and
#: r over Q, F_2, F_3 and F_5.
INITIAL_FORM_CANCELLATIONS = {
    # (t^3 + t^4)^2 - (t^2)^3 = 2t^7 + t^8; over F_2 the t^7 term vanishes too.
    "cusp-order-7": ([("y^2 - x^3", 1)], ("t^2", "t^3 + t^4"), (7, 8, 7, 7)),
    # x -> 0 drops x*y and makes x's image exactly zero; z^2 - y^2 maps to 2t^3 + t^4.
    "zero-component": (
        [("z^2 - y^2 + x*y", 1), ("x", 1)], ("0", "t", "t + t^2"), (3, 4, 3, 3)
    ),
    # The leads of y + x cancel over F_3 only (over F_2 the lead of y is t^3).
    "cancel-mod-3": ([("y + x", 1)], ("t", "2*t + t^3"), (1, 1, 3, 1)),
    # ... and then x^2 gives r = 2, below the order 3 of y + x over F_3.
    "cancels-above-r": ([("y + x", 1), ("x^2", 1)], ("t", "2*t + t^3"), (1, 1, 2, 1)),
    # 16 - 1 = 15 vanishes over F_3 and F_5, and over F_2 the lead of y is t^2.
    "cancel-mod-15": (
        [("y^2 - x^2", 2)], ("t", "4*t + t^2"), (1, 1, Fraction(3, 2), Fraction(3, 2))
    ),
}


class TestContactWalk:
    """_generator_orders reads each order from its initial form where that does not
    vanish and from one exact image otherwise, and contact_order returns its r; the
    reference builds every image in full."""

    @pytest.mark.parametrize("name", [*corpus_names(), *ORDER_SURFACES])
    def test_same_orders_as_full_evaluation(self, name):
        algebra, arcs = _sampled_with_algebra(name)
        for sampled in arcs:
            _assert_orders_match_reference(algebra, sampled)

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["q", "f2", "f3", "f5"])
    def test_lead_orders_read_each_generators_own_view(self, field):
        # Along monomial arcs, zero components among them, every generator of an algebra
        # of several gets the least degree of its own dense reference lead sums.
        rng = random.Random(f"lead-orders-{field.characteristic}")
        for _ in range(100):
            weighted = [(random_poly(rng, field, XYZ, nonzero=True), rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
            g = algebra(weighted, field, XYZ)
            along, _ = random_monomial_arc(rng, field, 3)
            pattern, leads, monomial = along.leads()
            assert monomial
            expected = {}
            for i, (poly, _) in enumerate(g.generators):
                sums = reference_lead_sums(poly.terms.items(), pattern, leads, field.characteristic)
                expected[i] = min((d for d, (num, _) in sums.items() if num), default=INF)
            assert _lead_orders(g, pattern, leads) == expected, (str(g), str(along))

    def test_arc_inside_the_locus_is_infinite_over_f2(self):
        # Over F_2 every generator of z^2 - x^3 - y^4 vanishes along (0, t, t^2),
        # which the grid samples; over Q the derivative 2z does not.
        for field, expected in ((F2, INF), (Q, 2)):
            algebra, arcs = _sampled_with_algebra(f"z^2 - x^3 - y^4_f{field.characteristic}")
            inside = arc(field, "0", "t", "t^2", variables=XYZ)
            assert inside.components in {sampled.components for sampled in arcs}
            assert _assert_orders_match_reference(algebra, inside) == expected

    def test_grid_entry_inside_the_locus_reads_infinite_over_f2(self):
        # The same arc as a grid entry: verify reads r_bar = INF from its lead sums
        # on the derivatives of f, as contact_order gives on the built arc; over Q, 2z gives 2.
        entry = ((None, 1, 2), (None, 1, 1))
        for field, expected in ((F2, INF), (Q, 2)):
            poly = SURFACES[f"z2_x3_y4_f{field.characteristic}"]
            coerced = (entry[0], tuple(None if u is None else field.coerce(u) for u in entry[1]))
            assert (coerced, None) in sample_arcs(poly, 0, 0)
            derivatives = derivatives_of(poly)
            built = grid_arc(XYZ, field, coerced)
            assert built.components == arc(field, "0", "t", "t^2", variables=XYZ).components
            assert grid_r_bars(derivatives, [coerced]) == [contact_order(derivatives, built) / built.order()]
            assert grid_r_bars(derivatives, [coerced]) == [expected]

    def test_grid_r_bars_place_terms_once_per_pattern(self, monkeypatch):
        # Over Q an exponent pattern of the grid of z^2 - x^3 - y^4 carries several
        # unit tuples: the derivatives' terms are placed by degree once per pattern,
        # and each entry reads the r_bar of its built arc.  A placement is one
        # `degree_along` call, made by `series.degree_classes`, on a term's pairs
        # from the generator's sparse view.
        poly = SURFACES["z2_x3_y4_f0"]
        derivatives = derivatives_of(poly)
        entries = [grid for grid, _ in sample_arcs(poly, 0, 0)]
        views = {pairs for g, _ in derivatives.generators for pairs, _ in g.sparse_terms()}
        placed = []
        degree_along = series.degree_along
        monkeypatch.setattr(series, "degree_along", lambda *args: placed.append(args) or degree_along(*args))
        r_bars = grid_r_bars(derivatives, entries)
        patterns = {pattern for pattern, _ in entries}
        assert len(entries) > 2 * len(patterns)
        assert len(placed) == len(patterns) * sum(len(g.terms) for g, _ in derivatives.generators)
        assert {pairs for pairs, _ in placed} == views
        for entry, r_bar in zip(entries, r_bars, strict=True):
            built = grid_arc(XYZ, Q, entry)
            assert r_bar == contact_order(derivatives, built) / built.order()

    @pytest.mark.parametrize(
        "weighted, components, r",
        [
            # y - x has L = 1 along (t, t + t^2), but its image is t^2.
            ([("y - x", 1), ("x^3", 1)], ("t", "t + t^2"), 2),
            # y - x vanishes along (t, t): the exact image is zero, x^3 W^2 gives 3/2.
            ([("y - x", 1), ("x^3", 2)], ("t", "t"), Fraction(3, 2)),
            # x^4 gives 4 from its initial form; the images of y - x (L = 1) and
            # y^2 - x^2 (L = 2) are t^3 and 2t^4 + t^6: r = 3, and 4 is kept too.
            ([("y - x", 1), ("y^2 - x^2", 1), ("x^4", 1)], ("t", "t + t^3"), 3),
            # y - x gives 3, and y^3 - x^3 W^2 (L = 3), whose image is
            # 3t^5 + ..., gives 5/2.
            ([("y - x", 1), ("y^3 - x^3", 2)], ("t", "t + t^3"), Fraction(5, 2)),
            # y^2 - x^3 + x^4 along (t^2, t^3 + t^4): the class of t^6 cancels and the
            # class of t^8 does not, but the image is 2t^7 + 2t^8, so r is 7.
            ([("y^2 - x^3 + x^4", 1)], ("t^2", "t^3 + t^4"), 7),
        ],
        ids=["not-attained", "exact-zero", "cancels-above-r", "cancels-sets-r", "higher-class-not-read"],
    )
    def test_lowest_terms_cancel(self, weighted, components, r):
        assert _assert_orders_match_reference(algebra(weighted), arc(Q, *components)) == r

    @pytest.mark.parametrize("name", INITIAL_FORM_CANCELLATIONS)
    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["q", "f2", "f3", "f5"])
    def test_initial_form_cancels(self, name, field):
        weighted, components, rs = INITIAL_FORM_CANCELLATIONS[name]
        variables = XYZ if len(components) == 3 else XY
        g = algebra(weighted, field, variables)
        along = arc(field, *components, variables=variables)
        expected = rs[[Q, F2, F3, F5].index(field)]
        assert _assert_orders_match_reference(g, along) == expected

    def test_leads_with_denominators(self):
        # y^2 - 2x along (t^2/2 + t^3, t): 1 - 2 * (1/2) cancels, and the image is -2t^3;
        # the numerators of the leads alone would give 1 - 2.
        along = Arc(XY, (TruncatedSeries.exact_series(Q, [0, 0, Fraction(1, 2), 1]), parse_series("t", Q)), Q)
        assert _assert_orders_match_reference(algebra([("y^2 - 2*x", 1)]), along) == 3

    def test_random_algebras_and_arcs(self):
        # Arcs with coefficients in {-1, 0, 1} make the lowest terms of random
        # generators cancel often; a generator with a constant term gives r = 0.
        rng = random.Random("order-only-contact")
        for _ in range(300):
            field = (Q, F2, F3, F5)[rng.randrange(4)]
            weighted = [
                (random_poly(rng, field, nonzero=True), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
            components = [
                TruncatedSeries.exact_series(field, [0] + [rng.randint(-1, 1) for _ in range(4)])
                for _ in XY
            ]
            if all(c.is_exactly_zero() for c in components):
                continue
            _assert_orders_match_reference(algebra(weighted, field), Arc(XY, tuple(components), field))

    @pytest.mark.parametrize("name", ["cusp_char0", "e35_char2", "z^2 - x^3 - y^4_f2"])
    def test_cut_arcs_match_full_evaluation(self, name):
        # Sampled arcs cut to their terms below t^n, n in 1..8, most of them off the
        # hypersurface, where the initial forms may cancel.
        algebra, arcs = _sampled_with_algebra(name)
        rng = random.Random(f"cut-{name}")
        cut = 0
        for sampled in arcs:
            along = _cut(sampled, rng.randint(1, 8))
            if along is not None:
                _assert_orders_match_reference(algebra, along)
                cut += along != sampled
        assert cut > 0

    def test_no_image_where_no_initial_form_vanishes(self, monkeypatch):
        # y^2 - x^3 W^2 and its derivatives 2y W, 3x^2 W along arcs off the cusp,
        # a zero component, and the cusp's monomial arc, along which the leading
        # terms are the whole image: every order is read from the leading coefficients.
        images = []
        arc_image = contact.arc_image
        monkeypatch.setattr(contact, "arc_image", lambda *args: images.append(args) or arc_image(*args))
        g = presenting_algebra(parse_poly("y^2 - x^3", XY, Q))
        cusp = arc(Q, "t^2", "t^3")
        for along in (arc(Q, "t", "t"), arc(Q, "t^2", "2*t^3"), arc(Q, "t^2", "t^4 + t^5"), arc(Q, "0", "t"), cusp):
            contact_order(g, along)
            _generator_orders(g, along)
        assert images == []
        assert contact_order(g, cusp) == 3
        # On (t + t^2)^2, (t + t^2)^3, which is not monomial, the initial form of
        # y^2 - x^3 W^2 vanishes: contact_order, as _generator_orders, builds its image alone.
        on_cusp = arc(Q, "t^2 + 2*t^3 + t^4", "t^3 + 3*t^4 + 3*t^5 + t^6")
        f = parse_poly("y^2 - x^3", XY, Q)
        assert contact_order(g, on_cusp) == 3
        assert [poly for poly, *_ in images] == [f]
        images.clear()
        _generator_orders(g, on_cusp)
        assert [poly for poly, *_ in images] == [f]

    def test_a_certified_arc_reads_f_from_its_certificate(self, monkeypatch):
        # Certified on f, the arc above reads INF for f's generator with no image built.
        # The certificate is not read for another polynomial: along the same arc
        # y^2 - x^3 + x^4 has a vanishing initial form too, and its image, t^8 + ...,
        # is built.  An arc certified on nothing builds f's image, as above.
        images = []
        arc_image = contact.arc_image
        monkeypatch.setattr(contact, "arc_image", lambda *args: images.append(args) or arc_image(*args))
        f = parse_poly("y^2 - x^3", XY, Q)
        on_cusp = arc(Q, "t^2 + 2*t^3 + t^4", "t^3 + 3*t^4 + 3*t^5 + t^6")
        certify_on_hypersurface(f, on_cusp, None)
        r, orders = _generator_orders(presenting_algebra(f), on_cusp)
        assert (r, images) == (3, []) and INF in dict(orders).values()
        other = algebra([("y^2 - x^3 + x^4", 2)])
        assert _generator_orders(other, on_cusp) == (4, ((0, 8),))
        assert [poly for poly, *_ in images] == [other.generators[0][0]]

    def test_a_contact_result_is_read_only_for_its_algebra_object(self, monkeypatch):
        # normalized_contact records its result on the arc for the algebra object it
        # walked: the same object again walks nothing, and any other object, even an
        # equal one, is walked.
        walks = []
        walk = contact._generator_orders
        monkeypatch.setattr(contact, "_generator_orders", lambda g, along: walks.append(g) or walk(g, along))
        cusp = arc(Q, "t^2", "t^3")
        g = presenting_algebra(parse_poly("y^2 - x^3", XY, Q))
        first = normalized_contact(g, cusp)
        assert normalized_contact(g, cusp) is first and walks == [g]
        line = algebra([("x", 1)])
        assert (normalized_contact(line, cusp).r, first.r) == (2, 3)
        equal = presenting_algebra(parse_poly("y^2 - x^3", XY, Q))
        assert normalized_contact(equal, cusp) == first and walks == [g, line, equal]
        assert normalized_contact(g, cusp) == first and walks == [g, line, equal, g]

    def test_arc_over_other_variables_rejected(self):
        # No image is built here, so the variables are checked up front.
        with pytest.raises(VariableMismatch):
            contact_order(G_CHAR0, arc(Q, "t", "t^2", variables=("x", "z")))
        with pytest.raises(VariableMismatch):
            normalized_contact(G_CHAR0, arc(Q, "t", "t^2", variables=("x", "z")))


#: The law's edge cases: a parametrization inside the maximal-multiplicity locus
#: over F_2, so r = INF; (t^4, t^6) = (t^2, t^3) o t^2, through which s and -s
#: give one arc over Q; and a cusp that no grid arc lies on, where verify's
#: witness is a composed arc.
LAW_EDGE_CASES = {
    "inside_f2": (parse_poly("z^2 - x^3 - y^4", XYZ, F2), ("0", "t", "t^2")),
    "non_primitive_q": (parse_poly("y^2 - x^3", XY, Q), ("t^4", "t^6")),
    "no_grid_arc_q": (parse_poly("y^2 - 2*x^2*y - x^3 + x^4", XY, Q), ("t^2", "t^3 + t^4")),
}
PARAMETRIZED = [*corpus_names(), *ORDER_SURFACES, *LAW_EDGE_CASES]


def _verify_inputs(name):
    """(presentation, candidates, budget, seed, parametrization) of a bundled problem's
    verify run, or of an ORDER_SURFACES or LAW_EDGE_CASES entry with no candidates."""
    if name in SAMPLED_ARCS:
        problem = load_problem(name)
        options = problem.options
        return presentation_of(problem), problem.arcs, options.budget, options.seed, problem.parametrization
    poly, phi = {**ORDER_SURFACES, **LAW_EDGE_CASES}[name]
    presentation = MonicPresentation(poly.variables[:-1], poly.variables[-1], poly)
    return presentation, {}, 20, 13, arc(poly.field, *phi, variables=poly.variables)


class TestMinimizingArcUnits:
    """minimizing_arc reads the achieving generator's initial form at each unit
    tuple from its least degree class; the reference evaluates it as a polynomial."""

    @pytest.mark.parametrize("name", [*corpus_names(), *ORDER_SURFACES])
    def test_first_unit_tuple_off_the_initial_form(self, name):
        elimination = ord_d(_verify_inputs(name)[0])
        weight, units = reference_unit_choice(elimination)
        if units is None:  # over F_2, x^2 + y^2 = (x + y)^2 vanishes at (1, 1)
            with pytest.raises(NoRationalUnit):
                minimizing_arc(elimination)
            return
        field = elimination.algebra.field
        expected = tuple(TruncatedSeries.t_power(field, weight, u) for u in units)
        assert minimizing_arc(elimination).components == expected

    def test_first_tuples_skipped(self):
        # x^2 - y^2 vanishes at (1, 1) and (1, -1), the first unit tuples over Q.
        weighted = from_weighted(XY, [("x^2 - y^2", 2)], Q)
        built = minimizing_arc(EliminationResult(weighted, Fraction(1), "Tschirnhausen"))
        assert built.components == (parse_series("t^2", Q), parse_series("2*t^2", Q))

    @pytest.mark.parametrize(
        "field, text", [(Q, "x^2 - y^2"), (F3, "x^2 + x*y + y^2"), (F5, "x^2 - y^2")], ids=["q", "f3", "f5"]
    )
    def test_terms_placed_once_whatever_the_tuples_tried(self, field, text, monkeypatch):
        # The initial form vanishes at the first unit tuple, so several are tried: the
        # generator's terms are placed in degree classes once for the search and once
        # more by the contact check of the built arc, never once per tuple.
        weighted = from_weighted(XY, [(text, 2)], field)
        (poly, _), = weighted.generators
        tried = []
        cleared_leads = series.cleared_leads
        monkeypatch.setattr(elimination, "cleared_leads", lambda *args: tried.append(args) or cleared_leads(*args))
        placed = []
        degree_along = series.degree_along
        monkeypatch.setattr(series, "degree_along", lambda *args: placed.append(args) or degree_along(*args))
        minimizing_arc(EliminationResult(weighted, Fraction(1), "Tschirnhausen"))
        assert len(tried) > 1
        assert len(placed) == 2 * len(poly.terms)


class TestComposedPool:
    """G(phi o s) = G(phi) o s, so r(phi o s) = r(phi) * ord(s) and nu(phi o s) =
    nu(phi) * ord(s): `verify` gives every arc composed through phi the r_bar of phi."""

    @pytest.mark.parametrize("name", PARAMETRIZED)
    def test_contact_and_order_scale_by_the_inner_order(self, name):
        presentation, _, _, _, phi = _verify_inputs(name)
        g = presenting_algebra(presentation.poly)
        field = phi.field
        r, nu = contact_order(g, phi), phi.order()
        assert (r == INF) == (name == "inside_f2")
        rng = random.Random(f"law-{name}")
        for _ in range(20):
            coeffs = [0] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            s = TruncatedSeries.exact_series(field, coeffs)
            if s.is_exactly_zero():
                continue
            composed = Arc(phi.variables, tuple(horner_compose(c, s) for c in phi.components), field)
            k = s.order()
            assert contact_order(g, composed) == (INF if r == INF else r * k), str(s)
            assert composed.order() == nu * k, str(s)

    def test_one_arc_for_s_and_minus_s_through_a_non_primitive_parametrization(self, monkeypatch):
        # Over F_3 a budget of 3^8 - 1 draws every nonzero key, the eight t^n
        # among them, so s and -s are both drawn.
        poly, phi = parse_poly("y^2 - x^4", XY, F3), arc(F3, "t^2", "t^4")
        budget = 3**8 - 1
        inners = []
        compose = Arc.compose
        monkeypatch.setattr(Arc, "compose", lambda self, inner: inners.append(inner) or compose(self, inner))
        arcs = sampled_arcs(poly, budget, 0, phi)
        monkeypatch.undo()
        inners = {s.coeffs: s for s in inners}
        assert len(inners) == budget
        assert any(tuple(-c % 3 for c in coeffs) in inners for coeffs in inners)
        pool = [sampled.components for sampled, composed in arcs if composed]
        grid = {sampled.components for sampled, composed in arcs if not composed}
        reached = {compose(phi, s).components for s in inners.values()}
        reached |= {phi.reparametrize(n).components for n in range(1, 9)}
        assert len(pool) == len(set(pool)) and set(pool) == reached - grid

    @pytest.mark.parametrize("name", PARAMETRIZED)
    def test_report_matches_evaluating_every_arc(self, name):
        # Or the same error: over F_2, x^2*y + y^3 = y*(x + y)^2 vanishes at every
        # unit pair, so no minimizing arc is built on z^2 - x^2*y - y^3.
        presentation, candidates, budget, seed, phi = _verify_inputs(name)
        args = (presentation, ord_d(presentation), presenting_algebra(presentation.poly), candidates, budget, seed)

        def outcome(verify):
            try:
                return verify(*args, parametrization=phi).to_json()
            except EngineError as error:
                return type(error), str(error)

        assert outcome(verify_main_theorem) == outcome(reference_verify)

    @pytest.mark.parametrize("name", PARAMETRIZED)
    def test_verify_builds_no_image_of_f(self, monkeypatch, name):
        # Every arc that verify checks lies on f, so it evaluates only f's derivatives.
        presentation, candidates, budget, seed, phi = _verify_inputs(name)
        elimination, g = ord_d(presentation), presenting_algebra(presentation.poly)
        images = []
        arc_image = contact.arc_image
        monkeypatch.setattr(contact, "arc_image", lambda poly, *rest: images.append(poly) or arc_image(poly, *rest))
        try:
            verify_main_theorem(presentation, elimination, g, candidates, budget, seed, phi)
        except NoRationalUnit:  # z^2 - x^2*y - y^3 over F_2, once every arc is evaluated
            pass
        assert presentation.poly.normalized() not in images

    def test_contact_evaluations_do_not_grow_with_the_budget(self, monkeypatch):
        presentation, candidates, _, seed, phi = _verify_inputs("cusp_char0")
        algebra = presenting_algebra(presentation.poly)
        calls, reads = [], []
        evaluate, walk, read = elimination.contact_order, elimination.normalized_contact, elimination.grid_r_bars
        monkeypatch.setattr(elimination, "contact_order", lambda *args: calls.append(args) or evaluate(*args))

        def walked(g, arc):  # on G; minimizing_arc's check on the base algebra is not counted
            if g is algebra:
                calls.append(arc)
            return walk(g, arc)

        monkeypatch.setattr(elimination, "normalized_contact", walked)
        monkeypatch.setattr(elimination, "grid_r_bars", lambda g, entries: reads.extend(entries) or read(g, entries))
        counts = []
        for budget in (100, 1000):
            calls.clear()
            reads.clear()
            report = verify_main_theorem(presentation, ord_d(presentation), algebra, candidates, budget, seed, phi)
            assert report.verdict == "PASS"
            counts.append((len(calls), len(reads)))
        # Contact orders: each candidate's on G (`normalized_contact`), phi once, and
        # the witness's projection; each grid arc's r_bar is read from its entry.
        grid = len(sample_arcs(presentation.poly, 0, seed))
        assert counts == [(len(candidates) + 2, grid)] * 2


F7 = prime_field(7)
F11 = prime_field(11)

#: Parametrizations through which the rule cannot prove distinct series give
#: distinct arcs: g = 2 over Q (s and -s give one arc), p dividing every order
#: over F_2, and gcd(g, p - 1) = 2 over F_5.
NOT_SEPARATING = {
    "even_gcd_q": (parse_poly("y^2 - x^3", XY, Q), ("t^4", "t^6")),
    "even_gcd_subleading_q": (parse_poly("y^2 - 2*x^2*y + x^4 - x^5", XY, Q), ("t^2", "t^4 + t^5")),
    "p_divides_f2": (parse_poly("y^2 + x^4 + x^6", XY, F2), ("t^2", "t^4 + t^6")),
    "root_of_unity_f5": (parse_poly("y^2 - x^6", XY, F5), ("t^2", "t^6")),
}


class TestSkippedCompositions:
    """`sample_arcs` composes a draw only when the separation rule cannot prove its arc new;
    built, its entries are the arcs that composing every draw gives."""

    @pytest.mark.parametrize(
        "field, components, separates",
        [
            (Q, ("t^2", "t^3"), True),
            (Q, ("t^3", "t^6"), True),  # g = 3 is odd
            (Q, ("t^4", "t^6"), False),  # g = 2: zeta = -1
            (Q, ("0", "t", "t^2"), True),  # the zero component has no order
            (F2, ("t^2", "t^3"), True),
            (F2, ("t^3", "t^6"), True),  # F_2 has no root of unity but 1
            (F2, ("t^2", "t^4 + t^6"), False),  # 2 divides every order
            (F3, ("t^3", "t^4"), True),
            (F3, ("t^2", "t^4"), False),  # -1 is a square root of unity
            (F3, ("t^3", "t^6"), False),  # 3 divides every order
            (F5, ("t^3", "t^6"), True),  # gcd(3, 4) = 1
            (F5, ("t^2", "t^6"), False),  # gcd(2, 4) = 2
            (F5, ("t^5", "t^7"), True),
            (F5, ("t^5", "0", "t^10"), False),
            (F7, ("t^3", "t^6"), False),  # gcd(3, 6) = 3
            (F7, ("t^5", "t^10"), True),  # gcd(5, 6) = 1
        ],
        ids=lambda value: ",".join(value) if isinstance(value, tuple) else getattr(value, "characteristic", None),
    )
    def test_separation_truth_table(self, field, components, separates):
        assert _separates(arc(field, *components, variables=XYZ)) is separates

    def test_same_arcs_as_composing_every_draw(self):
        # phi = (w^a, w^b) lies on y^a - x^b for every series w, and on
        # y^a - x^b in x, y, z with any third component v; orders a * ord w,
        # b * ord w and ord v make every kind of gcd.
        cases = [(poly, arc(poly.field, *texts), 40, 0) for poly, texts in NOT_SEPARATING.values()]
        rng = random.Random("skipped-compositions")
        for _ in range(70):
            field = (Q, F2, F3, F5, F7)[rng.randrange(5)]
            a, b = rng.randint(2, 3), rng.randint(2, 5)
            w = TruncatedSeries.exact_series(field, [0] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
            if w.is_exactly_zero():
                continue
            components = [w**a, w**b]
            variables = XY
            if rng.random() < 0.3:
                variables = XYZ
                components.append(TruncatedSeries.exact_series(field, [0] + [rng.randint(-1, 1) for _ in range(3)]))
            poly = parse_poly(f"y^{a} - x^{b}", variables, field)
            cases.append((poly, Arc(variables, tuple(components), field), rng.randint(5, 80), rng.randrange(100)))
        # Through the separating monomial (t^2, t^3) the arcs of t and t^2 are grid arcs,
        # and so are those of other monomials, such as 2t over F_3, where (4, 8) = (1, 2).
        # Budgets of the whole key space, 2^8 - 1 over F_2 and 3^8 - 1 over F_3, draw
        # every monomial, each t^n among them.  No grid unit is a lead of (4t^2, 8t^3).
        cusps = {field: parse_poly("y^2 - x^3", XY, field) for field in (Q, F2, F3, F5)}
        cases += [(poly, arc(field, "t^2", "t^3"), 40, 0) for field, poly in cusps.items()]
        cases += [(cusps[F2], arc(F2, "t^2", "t^3"), 2**8 - 1, 0), (cusps[F3], arc(F3, "t^2", "t^3"), 3**8 - 1, 0)]
        cases.append((cusps[Q], arc(Q, "4*t^2", "8*t^3"), 40, 0))
        for poly, phi, budget, seed in cases:
            built = [(str(built), composed) for built, composed in sampled_arcs(poly, budget, seed, phi)]
            expected = [(str(built), composed) for built, composed in reference_sample_arcs(poly, budget, seed, phi)]
            assert built == expected, (str(poly), str(phi), budget)

    @pytest.mark.parametrize("name", ["cusp_char0", "even_gcd_q"])
    def test_series_built_only_for_the_draws_composed(self, monkeypatch, name):
        # Draws are kept as integer indices, and a series is built only to be composed:
        # through cusp_char0's separating (t^2, t^3) none, through (t^4, t^6) every draw.
        if name in SAMPLED_ARCS:
            poly, _, seed, phi = _verify_sampler_inputs(load_problem(name))
        else:
            (poly, texts), seed = NOT_SEPARATING[name], 0
            phi = arc(poly.field, *texts)
        calls = Counter()
        exact_series, compose = TruncatedSeries.exact_series.__func__, Arc.compose
        monkeypatch.setattr(
            TruncatedSeries, "exact_series", classmethod(lambda *args: calls.update(["series"]) or exact_series(*args))
        )
        monkeypatch.setattr(Arc, "compose", lambda *args: calls.update(["compose"]) or compose(*args))
        entries = sample_arcs(poly, 100, seed, phi)
        assert calls["series"] == calls["compose"]
        if name == "cusp_char0":
            assert calls["compose"] == 0
        else:
            assert calls["compose"] > 100
        indices = [index for built, index in entries if built is None]
        assert indices and all(type(index) is int for index in indices)

    def test_drawing_stops_once_every_series_is_drawn(self, monkeypatch):
        # Over F_2 a draw has 2^8 - 1 nonzero keys.  Once each has been drawn every
        # later draw would be skipped, so a larger budget adds neither entries nor draws.
        poly, _, seed, phi = _verify_sampler_inputs(load_problem("cusp_char2"))
        draws = []
        getrandbits = random.Random.getrandbits
        monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: draws.append(k) or getrandbits(self, k))
        runs = []
        for budget in (1000, 10000):
            draws.clear()
            runs.append((sample_arcs(poly, budget, seed, phi), len(draws)))
        assert runs[0] == runs[1]  # the same entries from the same number of draws
        entries = runs[0][0]
        # The 255 draws, less the two monomial arcs of the grid, (t^2, t^3) and (t^4, t^6).
        assert len(entries) - len(sample_arcs(poly, 0, seed)) == 2**8 - 1 - 2

    def test_every_key_drawn_in_few_draws(self, monkeypatch):
        # Over F_3 a draw has 3^8 - 1 = 6,560 nonzero keys.  A budget of 10,000 draws
        # each of them once, in one sample, and each index takes one getrandbits call
        # or, when its bits land past the range, a few.
        poly, _, seed, phi = _verify_sampler_inputs(load_problem("cusp_char3"))
        draws, samples = [], []
        getrandbits, sample = random.Random.getrandbits, random.Random.sample
        monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: draws.append(k) or getrandbits(self, k))
        monkeypatch.setattr(random.Random, "sample", lambda *args: samples.append(sample(*args)) or samples[-1])
        sample_arcs(poly, 10000, seed, phi)
        assert len(draws) < 2 * (3**8 - 1)
        assert [sorted(indices) for indices in samples] == [list(range(1, 3**8))]

    @pytest.mark.parametrize("name, checked", [("cusp_char0", 10012), ("cusp_char2", 258), ("cusp_char3", 6563)])
    def test_verify_at_the_largest_budget(self, name, checked):
        # ROADMAP item 8(d)'s inputs: a budget of MAX_OPTION draws 10,000 of 7^8 - 1
        # keys over Q, and every one of the 2^8 - 1 over F_2 and 3^8 - 1 over F_3.
        presentation, candidates, _, seed, phi = _verify_inputs(name)
        start = time.perf_counter()
        elimination = ord_d(presentation)
        algebra = presenting_algebra(presentation.poly)
        report = verify_main_theorem(presentation, elimination, algebra, candidates, MAX_OPTION, seed, phi)
        assert time.perf_counter() - start < 1
        assert (report.arcs_checked, report.verdict) == (checked, "PASS")

    def test_one_sample_of_distinct_nonzero_keys(self, monkeypatch):
        # Each field's V distinct values of -3..3 give V^8 - 1 nonzero keys; one sample
        # draws min(budget, V^8 - 1) of them.  Through the separating (t^2, t^3) every
        # drawn key that is not a monomial has its own entry.
        samples = []
        sample = random.Random.sample
        monkeypatch.setattr(random.Random, "sample", lambda self, *args: samples.append(args) or sample(self, *args))
        rng = random.Random("one-sample")
        for field, width in ((Q, 7), (F2, 2), (F3, 3), (F5, 5), (F7, 7), (F11, 7)):
            poly, phi = parse_poly("y^2 - x^3", XY, field), arc(field, "t^2", "t^3")
            space = width**DEGREE_BOUND - 1
            for budget in (0, 600, *(rng.randint(1, 599) for _ in range(4))):
                samples.clear()
                entries = sample_arcs(poly, budget, rng.randrange(100), phi)
                keys = [draw_key(field, index) for built, index in entries if built is None]
                assert samples == [(range(1, space + 1), min(budget, space))]
                assert len(keys) == len(set(keys)) >= min(budget, space) - DEGREE_BOUND * (width - 1)
                assert all(key[0] == 0 and key[-1] and len(key) <= DEGREE_BOUND + 1 for key in keys)

    def test_compositions_do_not_grow_with_the_budget(self, monkeypatch):
        # cusp_char0's (t^2, t^3) and no_grid_arc_q's (t^2, t^3 + t^4) separate, so the
        # sampler composes no draw.  cusp_char0's witness is the candidate phi;
        # no_grid_arc_q's is a composed arc, which verify builds.
        inners = []
        compose, sample = Arc.compose, elimination.sample_arcs
        monkeypatch.setattr(Arc, "compose", lambda self, inner: inners.append(inner) or compose(self, inner))
        in_sampler = []

        def counted(*args):
            entries = sample(*args)
            in_sampler.append(len(inners))
            return entries

        monkeypatch.setattr(elimination, "sample_arcs", counted)
        by_verify = []
        for name, budget in (("cusp_char0", 100), ("cusp_char0", 1000), ("no_grid_arc_q", 20)):
            presentation, candidates, _, seed, phi = _verify_inputs(name)
            inners.clear()
            report = verify_main_theorem(
                presentation, ord_d(presentation), presenting_algebra(presentation.poly), candidates, budget, seed, phi
            )
            assert report.verdict == "PASS"
            by_verify.append(len(inners) - in_sampler[-1])
        # Composing every draw made 108 and 1,008 on cusp_char0.
        assert in_sampler == [0, 0, 0]
        assert by_verify == [0, 0, 1]


GRID_ARCS =[arc(Q, f"t^{i}", f"t^{j}") for i in range(1, 5) for j in range(1, 5)]


class TestIntegralInvariance:
    def test_product_of_squares(self):
        g = algebra([("x^2", 2), ("y^2", 2)])
        extra = (parse_poly("x*y", XY, Q), 1)
        relation = [
            parse_poly("0", XY, Q),
            parse_poly("-x^2*y^2", XY, Q),
        ]
        arcs = [arc(Q, "t", "t"), arc(Q, "t^2", "t^3"), arc(Q, "t^3", "t")]
        assert integral_invariance_check(g, extra, relation, arcs)

    def test_extra_already_in_algebra(self):
        g = algebra([("x", 1), ("y", 1)])
        extra = (parse_poly("x", XY, Q), 1)
        relation = [parse_poly("-x", XY, Q)]
        assert integral_invariance_check(g, extra, relation, GRID_ARCS)

    def test_square_root_of_square(self):
        g = algebra([("x^2", 2)])
        extra = (parse_poly("x", XY, Q), 1)
        relation = [parse_poly("0", XY, Q), parse_poly("-x^2", XY, Q)]
        assert integral_invariance_check(g, extra, relation, GRID_ARCS)

    def test_invalid_dependence_rejected(self):
        g = algebra([("x^2", 2)])
        extra = (parse_poly("x", XY, Q), 1)
        relation = [parse_poly("-y", XY, Q)]
        with pytest.raises(DependenceInvalid):
            integral_invariance_check(g, extra, relation, GRID_ARCS)

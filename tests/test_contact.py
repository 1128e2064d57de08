import hashlib
import random
from fractions import Fraction

import pytest
from property_checks import DependenceInvalid, from_weighted, integral_invariance_check

from arcmult.contact import (
    EXPONENT_BOUND,
    _monomial_arc,
    _monomial_grid,
    _vanishes_on_monomial_arc,
    contact_order,
    normalized_contact,
    sample_arcs,
)
from arcmult.corpus import corpus_names, load_problem
from arcmult.errors import (
    ArcNotOnVariety,
    PrecisionExhausted,
    VariableMismatch,
)
from arcmult.fields import INF, RATIONALS, prime_field
from arcmult.poly import parse_poly
from arcmult.problems import presentation_of
from arcmult.rees import presenting_algebra
from arcmult.series import Arc, TruncatedSeries, arc_substitute, parse_series

Q = RATIONALS
F2 = prime_field(2)
XY = ("x", "y")


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
            coeffs = [field.random_element(rng) for _ in range(rng.randint(1, 4))]
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

    def test_order_beyond_precision_reported_as_lower_bound(self):
        # y -> O(t^5): the image of y is indeterminate, but its order is at
        # least 5, above the minimum 1 that x attains.
        beyond = Arc(XY, (parse_series("t", Q), TruncatedSeries.truncated(Q, (), 5)), Q)
        result = normalized_contact(algebra([("x", 1), ("y", 1)]), beyond)
        assert result.r == 1
        assert result.generator_orders == ((0, 1), (1, ">=5"))
        assert result.to_json()["generator_orders"] == [[0, 1], [1, ">=5"]]


def _verify_sampler_inputs(problem):
    """The arguments `verify` passes to sample_arcs for a problem."""
    presentation = presentation_of(problem)
    options = problem.options
    return presentation.poly, options.budget, options.seed, problem.parametrization


SURFACE_CONSTRAINTS = [
    (f"z2_x3_y4_f{p}", parse_poly("z^2 - x^3 - y^4", ("x", "y", "z"), field))
    for p, field in ((0, Q), (2, F2), (3, prime_field(3)))
]
SURFACES = dict(SURFACE_CONSTRAINTS)
BUNDLED_CONSTRAINTS = [(name, load_problem(name).poly) for name in corpus_names()]

#: Sampled arc list of each bundled problem's verify run: (length, SHA-256 of
#: the newline-joined str of each arc).  Witness names sample_<i> index it.
SAMPLED_ARCS = {
    "cusp_char0": (110, "6cef9913d73b964343333ade5433affb10da093e7e86e9cc787f2c2731c876c8"),
    "cusp_char2": (105, "0cd0cc101894ad40b56f45335401dab7e6c352c2234028df7f43896a53dd679d"),
    "cusp_char3": (107, "da3e303685b62f645969671692befbc7b42842ea8944241bbb543ed4e346176c"),
    "e25_char0": (109, "817844e2009ed54eabf52cccd8804c32eafb7763386cdbf756983e68012e0cae"),
    "e25_char2": (104, "355a227251c7ad989087173167a7de122583b906f5780d9198b09bc7a8d754ed"),
    "e25_char3": (105, "9f835300f8ee08ec8f3e913f63462eb51e6b57b7610664219e8a009ab1180622"),
    "e34_char0": (110, "18c34d43e635c228abc2e30501cd36790bbe2f786df1011995ef4d41449911a1"),
    "e34_char2": (105, "9ace8684c8189531477e70c7d3849f1f1712778718bbdd0b884fbd56e23107a7"),
    "e34_char3": (107, "72db3d41a8fdeabaf6820e21481fd953c2055949262f5f8a3e99c7a67b0b382f"),
    "e35_char0": (109, "dc012706adab9a76444357c3edf88926088b6ed0df1f951ab23decd6b4692bb0"),
    "e35_char2": (104, "afebef100ab7d7d2eabbf940d74456de74b67ed6adbf9a13d4b1fcbb512c5d36"),
    "e35_char3": (105, "d1cb539787645bde19d3c58ab57231c08022879fc0ad125a387784e9722c1ce7"),
}


class TestSampleArcs:
    @pytest.mark.parametrize(
        "constraint",
        [poly for _, poly in BUNDLED_CONSTRAINTS + SURFACE_CONSTRAINTS],
        ids=[name for name, _ in BUNDLED_CONSTRAINTS + SURFACE_CONSTRAINTS],
    )
    def test_exponent_rule_matches_substitution_on_the_grid(self, constraint):
        field, variables = constraint.field, constraint.variables
        terms = list(constraint.terms.items())
        admitted = 0
        for assignment in _monomial_grid(field, len(variables), EXPONENT_BOUND):
            by_rule = _vanishes_on_monomial_arc(terms, field, assignment)
            monomial = _monomial_arc(variables, field, assignment)
            assert by_rule == arc_substitute(constraint, monomial).is_exactly_zero(), monomial
            admitted += by_rule
        assert admitted > 0

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
        arcs = sample_arcs(poly, budget, seed, phi)
        assert len(arcs) > 8
        for sampled in arcs:
            assert arc_substitute(poly, sampled).is_exactly_zero(), (name, str(sampled))

    @pytest.mark.parametrize(
        "phi, error",
        [
            (arc(Q, "t^3", "t^2"), ArcNotOnVariety),
            # With y -> t^3 + O(t^5), y^2 - x^3 maps to O(t^8): its order is unknown.
            (Arc(XY, (parse_series("t^2", Q), TruncatedSeries.truncated(Q, (0, 0, 0, 1), 5)), Q),
             PrecisionExhausted),
        ],
        ids=["off-the-curve", "undecided"],
    )
    def test_parametrization_checked_once(self, phi, error):
        with pytest.raises(error):
            sample_arcs(parse_poly("y^2 - x^3", XY, Q), 100, 0, phi)

    def test_sampled_arc_lists_are_pinned(self):
        assert set(SAMPLED_ARCS) == set(corpus_names())
        for name, (length, digest) in SAMPLED_ARCS.items():
            arcs = sample_arcs(*_verify_sampler_inputs(load_problem(name)))
            text = "\n".join(str(a) for a in arcs)
            assert (len(arcs), hashlib.sha256(text.encode()).hexdigest()) == (length, digest), name


GRID_ARCS = [arc(Q, f"t^{i}", f"t^{j}") for i in range(1, 5) for j in range(1, 5)]


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

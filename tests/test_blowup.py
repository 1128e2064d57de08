import random
from collections import Counter
from fractions import Fraction

import pytest
from property_checks import (
    FIELDS,
    Prefixes,
    SequenceTruncated,
    assert_chain_matches_stepwise,
    assert_well_formed,
    persistence_oracle,
    random_chain_case,
    random_monomial_arc,
    reference_lift,
    ring_map_translate,
    stepwise_nash_sequence,
    time_limit,
)

from arcmult import blowup
from arcmult.blowup import (
    ChartMap,
    NashReport,
    NashStep,
    blowup_lift,
    graph_arc,
    nash_sequence,
    run_length,
    strict_transform,
)
from arcmult.corpus import corpus_names, load_problem
from arcmult.errors import (
    ArcNotOnVariety,
    EngineError,
    VariableMismatch,
)
from arcmult.fields import INF, RATIONALS, FieldSpec, prime_field
from arcmult.poly import MultiPoly, parse_poly
from arcmult.series import Arc, TruncatedSeries, parse_series

Q = RATIONALS
F2 = prime_field(2)
F3 = prime_field(3)
FIELD_IDS = ["Q", "F2", "F3", "F5"]


def arc(field, *texts, variables=("x", "y", "w")):
    return Arc(
        variables[: len(texts)], tuple(parse_series(t, field) for t in texts), field
    )


def cusp(field=Q):
    return parse_poly("y^2 - x^3", ("x", "y"), field)


class TestGraphArc:
    def test_appends_t(self):
        gamma = graph_arc(arc(Q, "t^2", "t^3"))
        assert gamma.variables == ("x", "y", "w")
        assert gamma.component("w") == parse_series("t", Q)

    def test_zero_component_kept(self):
        gamma = graph_arc(arc(Q, "t", "0"))
        assert gamma.component("y").is_exactly_zero()

    def test_graph_order_is_one(self):
        for texts in (("t^2", "t^3"), ("t", "0"), ("t^5", "t^9")):
            assert graph_arc(arc(Q, *texts)).order() == 1


class TestBlowupLift:
    def test_slices_in_the_graph_chart(self):
        chart, lifted = blowup_lift(arc(Q, "t^2", "t^3", "t"))
        assert chart.index == 2
        assert chart.translation == (0, 0, 0)
        assert lifted == arc(Q, "t", "t^2", "t")

    def test_second_step(self):
        # Orders (1, 2, 1): x = t ties with the graph coordinate, whose chart is taken.
        # x / t = 1 is the new center's x-coordinate, and x lifts to 0 after recentering.
        chart, lifted = blowup_lift(arc(Q, "t", "t^2", "t"))
        assert chart.index == 2
        assert chart.translation == (1, 0, 0)
        assert lifted == arc(Q, "0", "t", "t")

    def test_records_the_center_and_keeps_t(self):
        chart, lifted = blowup_lift(arc(Q, "t", "t + t^2", "t"))
        assert chart.index == 2
        assert chart.translation == (1, 1, 0)
        assert lifted == arc(Q, "0", "t", "t")

    def test_steps_slice_from_a_power_of_t(self):
        chart, lifted = blowup_lift(graph_arc(arc(Q, "2*t^5", "t^9 + t^11", "0", variables=("x", "y", "z"))), steps=3)
        assert chart.index == 3 and chart.translation == (0, 0, 0, 0)
        assert lifted == arc(Q, "2*t^2", "t^6 + t^8", "0", "t", variables=("x", "y", "z", "w"))

    @pytest.mark.parametrize(
        "texts, steps",
        [(("t^3", "t^9"), 4), (("t^2", "t^5"), 3)],
        ids=["center-off-the-origin", "order-below-the-run"],
    )
    def test_steps_reject_an_arc_without_that_run(self, texts, steps):
        # A run ends at the blow-up whose center leaves the origin: x = t^3 allows three.
        with pytest.raises(EngineError, match="a center leaves the origin$"):
            blowup_lift(graph_arc(arc(Q, *texts)), steps=steps)

    def test_a_run_ends_where_its_center_leaves_the_origin(self):
        chart, lifted = blowup_lift(graph_arc(arc(Q, "t^3", "t^9")), steps=3)
        assert chart.index == 2 and chart.translation == (1, 0, 0)
        assert lifted == arc(Q, "0", "t^6", "t", variables=("x", "y", "w"))

    @pytest.mark.parametrize("texts", [("t", "t^2"), ("t^2", "2*t"), ("t", "t + t^2")])
    def test_rejects_an_arc_whose_last_component_is_not_t(self, texts):
        phi = arc(Q, *texts, variables=("x", "y"))
        for steps in (1, 2):
            with pytest.raises(EngineError, match="its last component is not t$"):
                blowup_lift(phi, steps)
        with pytest.raises(EngineError, match="its last component is not t$"):
            run_length(cusp(), phi, 2, 10)


class TestStrictTransform:
    def x_chart(self):
        return ChartMap(("x", "y"), 0, (Fraction(0), Fraction(0)))

    def y_chart(self):
        return ChartMap(("x", "y"), 1, (Fraction(0), Fraction(0)))

    def test_cusp_x_chart(self):
        assert strict_transform(cusp(), self.x_chart()) == parse_poly(
            "y^2 - x", ("x", "y"), Q
        )

    def test_cusp_y_chart(self):
        assert strict_transform(cusp(), self.y_chart()) == parse_poly(
            "1 - x^3*y", ("x", "y"), Q
        )

    def test_smooth_divides_once(self):
        f = parse_poly("y - x^2", ("x", "y"), Q)
        assert strict_transform(f, self.x_chart()) == parse_poly(
            "y - x", ("x", "y"), Q
        )


def reference_transform(poly, chart, k):
    """Generic pull-back x_i -> x_i*x_j, exact division by x_j^k, recentering."""
    field, j = poly.field, chart.index
    exceptional = MultiPoly.variable(chart.exceptional, poly.variables, field)
    pulled = poly.substitute(
        {
            name: MultiPoly.variable(name, poly.variables, field) * exceptional
            for i, name in enumerate(poly.variables)
            if i != j
        }
    )
    if any(exps[j] < k for exps in pulled.terms):
        raise EngineError(f"{pulled} is not divisible by {chart.exceptional}^{k}")
    divided = MultiPoly(
        poly.variables,
        {exps[:j] + (exps[j] - k,) + exps[j + 1 :]: c for exps, c in pulled.terms.items()},
        field,
    )
    return ring_map_translate(divided, chart.translation)


class TestChartTransform:
    @pytest.mark.parametrize("field", [Q, F2, prime_field(3)], ids=["Q", "F2", "F3"])
    @pytest.mark.parametrize("variables", [("x", "y"), ("x", "y", "z")])
    def test_matches_the_generic_pull_back(self, field, variables):
        rng = random.Random(f"{field.characteristic}-{len(variables)}")
        width = len(variables)
        for _ in range(25):
            terms = {
                tuple(rng.randint(0, 4) for _ in variables): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 5))
            }
            poly = MultiPoly(variables, terms, field)
            order = poly.order_at_origin()
            top = 2 if poly.is_zero() else order + 1
            for index in range(width):
                for translation in (
                    (0,) * width,
                    tuple(rng.randint(-2, 2) for _ in variables),
                ):
                    chart = ChartMap(variables, index, tuple(map(field.coerce, translation)))
                    for k in range(top + 1):
                        try:
                            expected = reference_transform(poly, chart, k)
                        except EngineError:
                            with pytest.raises(EngineError):
                                chart.transform(poly, k)
                            continue
                        transformed = chart.transform(poly, k)
                        assert transformed == expected
                        assert_well_formed(transformed)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_steps_compose_single_transforms(self, field):
        # A run's exponent map equals the blow-ups one by one, while each divides by x_j^k.
        rng = random.Random(f"steps-{field.characteristic}")
        variables = ("x", "y", "z")
        for _ in range(40):
            terms = {tuple(rng.randint(0, 5) for _ in variables): rng.randint(1, 3) for _ in range(4)}
            poly = MultiPoly(variables, terms, field)
            if poly.is_zero():
                continue
            k = poly.order_at_origin()
            chart = ChartMap(variables, rng.randrange(3), (field.zero,) * 3)
            single = poly
            for steps in range(1, 6):
                try:
                    single = chart.transform(single, k)
                except EngineError:
                    with pytest.raises(EngineError):
                        chart.transform(poly, k, steps)
                    break
                transformed = chart.transform(poly, k, steps)
                assert transformed == single
                assert_well_formed(transformed)

    def test_rejects_a_polynomial_over_other_variables(self):
        chart = ChartMap(("x", "z"), 0, (0, 0))
        with pytest.raises(VariableMismatch):
            chart.transform(cusp(), 2)


class TestNashSequence:
    def test_cusp_char0(self):
        report = nash_sequence(cusp(), arc(Q, "t^2", "t^3", variables=("x", "y")))
        assert list(report.sequence) == [2, 2, 2, 1]
        assert report.rho == 3
        assert not report.truncated

    def test_cusp_char2(self):
        report = nash_sequence(
            cusp(F2), arc(F2, "t^2", "t^3", variables=("x", "y"))
        )
        assert list(report.sequence) == [2, 2, 2, 2, 1]
        assert report.rho == 4

    def test_smooth_hypersurface_flags_below_threshold(self):
        f = parse_poly("y - x^2", ("x", "y"), Q)
        report = nash_sequence(f, arc(Q, "t", "t^2", variables=("x", "y")))
        assert report.below_threshold
        assert report.rho == 0
        assert list(report.sequence) == [1]

    def test_sequence_is_non_increasing(self):
        report = nash_sequence(
            parse_poly("y^2 - x^5", ("x", "y"), Q),
            arc(Q, "t^2", "t^5", variables=("x", "y")),
        )
        assert all(a >= b for a, b in zip(report.sequence, report.sequence[1:]))

    def test_rejects_arc_off_the_hypersurface(self):
        with pytest.raises(ArcNotOnVariety):
            nash_sequence(cusp(), arc(Q, "t^3", "t^2", variables=("x", "y")))

    def test_names_the_arc_only_when_its_certificate_fails(self, monkeypatch):
        # The arc is formatted into the message of a failed certificate, monomial or
        # evaluated, and never for an arc on the hypersurface.
        with pytest.raises(ArcNotOnVariety) as off:
            nash_sequence(cusp(), arc(Q, "t^3", "t^2", variables=("x", "y")))
        assert str(off.value) == "arc x -> t^3, y -> t^2 does not lie on the hypersurface"
        monkeypatch.setattr(Arc, "__str__", lambda self: pytest.fail(f"formatted {self.components}"))
        for on in (("t^2", "t^3"), ("t^2 + 2*t^3 + t^4", "t^3 + 3*t^4 + 3*t^5 + t^6")):
            nash_sequence(cusp(), arc(Q, *on, variables=("x", "y")))

    def test_truncation_is_loud(self):
        report = nash_sequence(
            cusp(F2), arc(F2, "t^2", "t^3", variables=("x", "y")), max_steps=2
        )
        assert report.truncated and report.rho is None
        with pytest.raises(SequenceTruncated):
            persistence_oracle(
                cusp(F2), arc(F2, "t^2", "t^3", variables=("x", "y")), max_steps=2
            )

    def test_long_chain_makes_no_polynomial_products(self, monkeypatch):
        # y^2 - x^21 along (t^8, t^84) takes 84 blow-ups, two of them at a
        # shifted center.  Each strict transform is a map on exponents and a
        # Taylor shift, so the chain never multiplies two polynomials.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        phi = arc(Q, "t^8", "t^84", variables=("x", "y"))
        products = []
        multiply = MultiPoly.__mul__
        monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
        report = nash_sequence(f, phi, max_steps=100)
        assert report.rho == 84 and len(report.trace) == 84
        assert sum(1 for step in report.trace if any(step.center)) == 2
        assert products == []

    @staticmethod
    def watch_field_calls(monkeypatch):
        """(entered, calls): the labels of the lift and chart transform as they are
        entered, and the FieldSpec calls each makes that it should not."""
        watched = {"lift": {"mul", "add", "inv", "coerce"}, "transform": {"coerce"}}
        running = []
        entered = []
        calls = []

        def counted(name, method):
            def wrapper(self, *args):
                if running and name in watched[running[-1]]:
                    calls.append((running[-1], name))
                return method(self, *args)

            return wrapper

        def tagged(label, function):
            def wrapper(*args):
                running.append(label)
                entered.append(label)
                try:
                    return function(*args)
                finally:
                    running.pop()

            return wrapper

        for name in ("mul", "add", "inv", "coerce"):
            monkeypatch.setattr(FieldSpec, name, counted(name, getattr(FieldSpec, name)))
        monkeypatch.setattr(blowup, "blowup_lift", tagged("lift", blowup.blowup_lift))
        monkeypatch.setattr(ChartMap, "transform", tagged("transform", ChartMap.transform))
        return entered, calls

    @pytest.mark.parametrize("field", [Q, prime_field(3)], ids=["Q", "F3"])
    def test_long_chain_runs_without_field_calls(self, monkeypatch, field):
        # Each lift slices its components' coefficients, with no field arithmetic; the
        # chart transform builds its result without re-coercing each coefficient.  The 84
        # blow-ups come in runs of 8 and 76, one lift and one chart transform each, and
        # reading the trace replays each blow-up once more.
        entered, calls = self.watch_field_calls(monkeypatch)
        f = parse_poly("y^2 - x^21", ("x", "y"), field)
        phi = arc(field, "t^8", "t^84", variables=("x", "y"))
        report = nash_sequence(f, phi, max_steps=100)
        assert entered.count("transform") == entered.count("lift") == 2
        report.to_json(include_trace=True)
        assert len(report.trace) == 84 and any(any(step.center) for step in report.trace)
        assert entered.count("transform") == 2 + 84 and entered.count("lift") == 2
        assert calls == []

    @pytest.mark.parametrize("field", [Q, prime_field(3)], ids=["Q", "F3"])
    def test_lifts_along_a_composed_arc_make_no_field_calls(self, monkeypatch, field):
        # Along the corpus arc phi3 = ((t + t^2)^2, (t + t^2)^3) of the cusp the centers
        # leave the origin and every component has order 1, yet each lift is still a slice.
        entered, calls = self.watch_field_calls(monkeypatch)
        problem = load_problem("cusp_char0")
        f = parse_poly(problem.poly_text, problem.variables, field)
        phi = Arc(problem.variables, tuple(parse_series(text, field) for text in problem.arc_texts["phi3"].split(",")), field)
        nash_sequence(f, phi, max_steps=40)
        assert "lift" in entered
        assert calls == []

    def test_each_step_computes_its_order_once(self, monkeypatch):
        # The orders of f and of f on the graph's ambient space, then one per
        # run's strict transform, whose order is the next multiplicity and
        # divisibility check: 2 runs make the 84 steps.  Each step once
        # computed it three times, and then once.  Reading the trace replays every
        # blow-up from f on the graph's ambient space, whose order the chain has
        # computed: one more per replayed strict transform, which the replay checks.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        phi = arc(Q, "t^8", "t^84", variables=("x", "y"))
        computed = []
        order = MultiPoly.order_at_origin
        monkeypatch.setattr(MultiPoly, "order_at_origin", lambda g: computed.append(g._order is None) or order(g))
        report = nash_sequence(f, phi, max_steps=100)
        assert sum(computed) == 4
        report.to_json(include_trace=True)
        assert sum(computed) == 4 + 84

    @pytest.mark.parametrize("field, rho", zip(FIELDS, (999, 1996, 999, 999)), ids=FIELD_IDS)
    def test_a_chain_of_a_thousand_steps_makes_a_few_transforms(self, monkeypatch, field, rho):
        f = parse_poly("y^2 - x^999", ("x", "y"), field)
        phi = arc(field, "t^2", "t^999", variables=("x", "y"))
        transforms = []
        transform = ChartMap.transform
        monkeypatch.setattr(ChartMap, "transform", lambda *args: transforms.append(1) or transform(*args))
        report = nash_sequence(f, phi, max_steps=3000)
        assert report.rho == rho and not report.truncated
        assert len(transforms) <= 5

    def test_the_chain_carries_few_terms(self):
        # The first run ends where x = t^8 leaves the origin for the center 1; x is exactly
        # zero from then on, so the shift (x + 1)^N keeps only x-degrees <= 2.
        # The last run shifts to y = 1 with 16 of the 100 steps left, so it keeps only the
        # terms of degree at most 2 * 17: two of the four.  The trace, which replays every
        # blow-up on the whole polynomial, is not read.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        report, carried = carried_transforms(f, arc(Q, "t^8", "t^84", variables=("x", "y")), 100)
        assert [len(g.terms) for g in carried] == [4, 2]
        assert "trace" not in vars(report)
        for field in FIELDS:
            f = parse_poly("y^2 - x^999", ("x", "y"), field)
            report, carried = carried_transforms(f, arc(field, "t^2", "t^999", variables=("x", "y")), 3000)
            assert max(len(g.terms) for g in carried) <= 4
            assert "trace" not in vars(report)

    def test_trace_records_steps(self):
        report = nash_sequence(cusp(), arc(Q, "t^2", "t^3", variables=("x", "y")))
        assert len(report.trace) == 3
        assert [step.multiplicity for step in report.trace] == [2, 2, 1]


GOLDEN_CUSP_TRACE = {
    "sequence": [2, 2, 2, 1],
    "rho": 3,
    "truncated": False,
    "trace": [
        {
            "chart": "w",
            "chart_index": 2,
            "center": ["0", "0", "0"],
            "multiplicity": 2,
            "transform": "y^2 - x^3*w",
        },
        {
            "chart": "w",
            "chart_index": 2,
            "center": ["1", "0", "0"],
            "multiplicity": 2,
            "transform": "-w^2 + y^2 - 3*x*w^2 - 3*x^2*w^2 - x^3*w^2",
        },
        {
            "chart": "w",
            "chart_index": 2,
            "center": ["0", "1", "0"],
            "multiplicity": 1,
            "transform": "2*y + y^2 - 3*x*w - 3*x^2*w^2 - x^3*w^3",
        },
    ],
}


def test_trace_json_matches_golden():
    # Hand-derived chain, every blow-up in the graph chart w: the arc lifts to
    # (t, t^2, t), then to the center x = 1 with y^2 - (x + 1)^3 w^2, then to the
    # center y = 1 with (y + 1)^2 - (x w + 1)^3.  The final transform has a linear
    # term 2y, which is why the characteristic-2 sequence is one step longer.
    report = nash_sequence(cusp(), arc(Q, "t^2", "t^3", variables=("x", "y")))
    assert report.to_json(include_trace=True) == GOLDEN_CUSP_TRACE


class TestPersistence:
    def test_char0(self):
        assert persistence_oracle(cusp(), arc(Q, "t^2", "t^3", variables=("x", "y"))) == 3

    def test_char2(self):
        assert (
            persistence_oracle(cusp(F2), arc(F2, "t^2", "t^3", variables=("x", "y")))
            == 4
        )

    def test_reparametrized(self):
        assert persistence_oracle(cusp(), arc(Q, "t^4", "t^6", variables=("x", "y"))) == 6


class TestRuns:
    def test_run_length_reads_the_arc_and_the_polynomial(self):
        # The chart is w = t.  x = t^8 lets 8 blow-ups be made at the origin: the first 7
        # lifts stay there and the 8th leaves it, whatever follows x's lowest term.  And
        # y^2 - x^21 (r = 2 and 21 against m = 2) sets no bound.
        f = parse_poly("y^2 - x^21", ("x", "y", "w"), Q)
        assert run_length(f, graph_arc(arc(Q, "t^8", "t^84")), 2, 100) == 8
        assert run_length(f, graph_arc(arc(Q, "t^8", "t^84")), 2, 4) == 4
        assert run_length(f, graph_arc(arc(Q, "t^8 + t^9", "t^84")), 2, 100) == 8
        assert run_length(f, graph_arc(arc(Q, "t^30", "t^6")), 2, 100) == 6
        assert run_length(f, graph_arc(arc(Q, "t^2", "t^84")), 2, 100) == 2
        assert run_length(f, graph_arc(arc(Q, "t", "t^84")), 2, 100) == 1
        # A term w^21 (r = 0 against m = 2) drops below m at l = (21 - 2) // 2 + 1 = 10.
        g = parse_poly("y^2 - x^21 + w^21", ("x", "y", "w"), Q)
        assert run_length(g, graph_arc(arc(Q, "t^30", "t^84")), 2, 100) == 10

    def test_run_length_raises_the_chains_bug_error(self):
        # y^3 + x^6 has order 3, above the multiplicity 2 it is given: the first blow-up
        # in the w-chart would read order 4, and the step path raises this same error.
        f = parse_poly("y^3 + x^6", ("x", "y", "w"), Q)
        phi = graph_arc(arc(Q, "t^3", "t^5"))
        chart, _ = blowup_lift(phi)
        assert strict_transform(f, chart).order_at_origin() > 2
        with pytest.raises(EngineError, match="^Nash multiplicity increased; this is a bug$"):
            run_length(f, phi, 2, 10)


def random_lift_arc(rng, field):
    """A graph arc (`graph_arc`) over x and y or x, y and z, each component a monomial
    c t^k (non-unit leads over Q), a longer polynomial or exactly 0."""
    leads = field.units(4) + ((Fraction(-1, 2), Fraction(2, 3)) if field.characteristic == 0 else ())
    components = []
    for _ in range(rng.randint(2, 3)):
        kind, k = rng.randrange(3), rng.randint(1, 6)
        tail = [rng.choice((field.zero, *leads)) for _ in range(rng.randint(0, 4))]
        if kind == 0:
            components.append(TruncatedSeries.t_power(field, k, rng.choice(leads)))
        elif kind == 1:
            components.append(TruncatedSeries.exact_series(field, [0] * k + [rng.choice(leads)] + tail))
        else:
            components.append(TruncatedSeries.zero(field))
    variables = ("x", "y", "z")[: len(components)] + ("w",)
    return Arc(variables, (*components, TruncatedSeries.t_power(field, 1)), field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestSliceLifts:
    """`blowup_lift` against the blow-up it inverts, and against `reference_lift`."""

    def test_random_arcs(self, field):
        # Each lifted component x' gives back the component as t^steps (x' + c), with c
        # its center coordinate, the coefficient at t^steps, where the run may leave the
        # origin; the arcs it refuses have a nonzero coefficient at t^1 ... t^(steps - 1),
        # a center inside the run.  A lifted component's order, kept from the slice or
        # scanned, is its first nonzero index.  A single lift whose reference chart is the
        # graph coordinate, every other component of order 2 or more, is the reference's
        # lift of the arc's coefficient prefixes.
        rng = random.Random(f"lift-{field.characteristic}")
        t = TruncatedSeries.t_power(field, 1)
        shapes = set()
        for _ in range(300):
            phi = random_lift_arc(rng, field)
            for steps in (1, 2, 3):
                try:
                    chart, lifted = blowup_lift(phi, steps)
                except EngineError as error:
                    assert str(error) == f"no run of {steps} blow-ups along {phi}: a center leaves the origin"
                    assert any(c.coefficient(k) for c in phi.components for k in range(1, steps))
                    shapes.add("refused")
                    continue
                assert chart.index == len(phi.components) - 1
                assert lifted.components[-1] == phi.components[-1] == t
                for comp, new, c in zip(phi.components[:-1], lifted.components, chart.translation):
                    assert new.coefficient(0) == 0 and c == comp.coefficient(steps)
                    assert comp == t**steps * (new + TruncatedSeries.exact_series(field, [c]))
                    assert new.order() == next((k for k, a in enumerate(new.coeffs) if a), INF)
                shapes.add(f"{steps} {'off' if any(chart.translation) else 'at'} the origin")
                if steps == 1 and all(c.order() >= 2 for c in phi.components[:-1]):
                    reference_chart, reference = reference_lift(Prefixes.of(phi, 12))
                    assert reference_chart == chart
                    assert Prefixes.of(lifted, 11) == reference
                    shapes.add("reference")
        assert shapes == {"refused", "reference"} | {f"{steps} {where} the origin" for steps in (1, 2, 3) for where in ("at", "off")}


#: The arc and f of a chain whose lifts are exactly zero: at the second blow-up every
#: component but the graph coordinate's lifts to its center and then to 0.
ZERO_LIFT_VARIABLES = ("y", "z", "x")
ZERO_LIFT_ARC = ("t^2", "t^2", "t + t^2")
ZERO_LIFT_POLY = "(y - z)^2 + ((x - y)^2 - y)^2"


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestZeroLifts:
    """Lifts that are exactly zero are polynomials like any other: the chain ends."""

    def test_the_chain_ends(self, field):
        f = parse_poly(ZERO_LIFT_POLY, ZERO_LIFT_VARIABLES, field)
        phi = arc(field, *ZERO_LIFT_ARC, variables=ZERO_LIFT_VARIABLES)
        with time_limit(1):
            report = nash_sequence(f, phi, max_steps=40)
            assert report.sequence == (2,) * 41 and report.truncated
            assert_chain_matches_stepwise(f, phi, 40)

    def test_lifts_become_exactly_zero(self, field):
        lifted = graph_arc(arc(field, *ZERO_LIFT_ARC, variables=ZERO_LIFT_VARIABLES))
        for center in ((0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 0)):
            chart, lifted = blowup_lift(lifted)
            assert chart.index == 3 and chart.translation == center
        assert [comp.is_exactly_zero() for comp in lifted.components] == [True, True, True, False]


#: (variables, f, arc, rho) of chains along composed arcs, one of them inside the locus of
#: f's multiplicity, and of the zero-lift input; rho None is a truncated chain.
LONG_CHAINS = (
    (("x", "y"), "y^2 - x^21", ("(t + t^2)^8", "(t + t^2)^84"), 84),
    (("x", "y"), "y^2 - x^13", ("(t + t^2)^4", "(t + t^2)^26"), 26),
    (("x", "y", "z"), ZERO_LIFT_POLY, ("s + s^2", "s^2", "s^2"), None),
    (ZERO_LIFT_VARIABLES, ZERO_LIFT_POLY, ZERO_LIFT_ARC, None),
)


@pytest.mark.parametrize("variables, poly, texts, rho", LONG_CHAINS, ids=["x21", "x13", "in-locus", "zero-lifts"])
def test_chains_at_ten_thousand_steps_end_within_a_second(variables, poly, texts, rho):
    # Every lift is a slice of polynomials, so a chain costs no more than its blow-ups.
    f = parse_poly(poly, variables, Q)
    phi = arc(Q, *(text.replace("s", "(2*t + 7*t^2)") for text in texts), variables=variables)
    with time_limit(1):
        report = nash_sequence(f, phi, max_steps=10000)
    assert report.rho == rho and report.truncated == (rho is None)
    assert len(report.sequence) == (rho + 1 if rho else 10001)


def test_trace_is_built_when_first_read(monkeypatch):
    # The chain records its 2 runs; the 84 NashSteps of the trace wait for a reader.
    built = []
    init = NashStep.__init__
    monkeypatch.setattr(NashStep, "__init__", lambda step, *args: built.append(1) or init(step, *args))
    f = parse_poly("y^2 - x^21", ("x", "y"), Q)
    phi = arc(Q, "t^8", "t^84", variables=("x", "y"))
    report = nash_sequence(f, phi, max_steps=100)
    assert len(report.runs) == 2 and sum(steps for _, steps in report.runs) == 84
    assert report.to_json() == stepwise_nash_sequence(f, phi, 100).to_json()
    assert built == []
    trace = report.trace
    assert len(built) == 84 and report.trace is trace
    # The reference blows up in the chart of the first component of least order, and
    # reads the same multiplicities.
    reference = stepwise_nash_sequence(f, phi, 100).trace
    assert [step.multiplicity for step in trace] == [step.multiplicity for step in reference]
    assert {step.chart_variable for step in trace} == {"w"} != {step.chart_variable for step in reference}


@pytest.mark.parametrize(
    "blow_up, read",
    [
        pytest.param(3, 2, id="inside-the-first-run"),
        pytest.param(8, 2, id="end-of-the-first-run"),
        pytest.param(84, 1, id="end-of-the-second-run"),
    ],
)
def test_trace_replay_checks_every_blow_up(blow_up, read):
    # The runs are 8 and 76 blow-ups long, each ending at a center off the origin.  The
    # trace replays every blow-up on the whole polynomial and compares its order with
    # the recorded sequence; a report that recorded another value, inside a run or at
    # its end, is refused.
    f = parse_poly("y^2 - x^21", ("x", "y"), Q)
    report = nash_sequence(f, arc(Q, "t^8", "t^84", variables=("x", "y")), max_steps=100)
    sequence = list(report.sequence)
    sequence[blow_up] = 3
    forged = NashReport(tuple(sequence), report.rho, report.start, report.runs, report.truncated)
    with pytest.raises(EngineError, match=f"^trace replay reads multiplicity {read} at blow-up {blow_up}, not 3$"):
        forged.trace
    assert [steps for _, steps in report.runs] == [8, 76]
    assert [i for i, step in enumerate(report.trace, 1) if any(step.center)] == [8, 84]


def carried_transforms(poly, phi, max_steps):
    """`nash_sequence`'s report and the polynomial its chain carries after each run,
    read by wrapping `blowup.strict_transform`; the trace is not read."""
    carried = []
    transform = blowup.strict_transform
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blowup, "strict_transform", lambda *args: carried.append(transform(*args)) or carried[-1])
        return nash_sequence(poly, phi, max_steps=max_steps), carried


def _spy_runs(monkeypatch):
    runs = []
    measure = blowup.run_length
    monkeypatch.setattr(blowup, "run_length", lambda *args: runs.append(measure(*args)) or runs[-1])
    return runs


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestRunsMatchStepwise:
    """The chain, a run per iteration, against one blow-up per iteration."""

    def test_monomial_arcs_with_unit_scales(self, monkeypatch, field):
        runs = _spy_runs(monkeypatch)
        rng = random.Random(f"monomial-{field.characteristic}")
        for a, b in ((2, 3), (2, 9), (3, 5), (3, 7), (4, 9), (5, 6), (2, 21)):
            f = parse_poly(f"y^{a} - x^{b}", ("x", "y"), field)
            for n in (1, 2, 3):
                unit = rng.choice(field.units())
                phi = Arc(
                    ("x", "y"),
                    (TruncatedSeries.t_power(field, n * a, unit**a), TruncatedSeries.t_power(field, n * b, unit**b)),
                    field,
                )
                assert_chain_matches_stepwise(f, phi, max_steps=200)
        assert max(runs) > 1

    def test_surfaces_with_an_exactly_zero_component(self, monkeypatch, field):
        runs = _spy_runs(monkeypatch)
        for a, b, c in ((2, 3, 5), (2, 7, 3), (3, 4, 5), (3, 8, 4)):
            f = parse_poly(f"z^{a} - x^{b} - y^{c}", ("x", "y", "z"), field)
            for n in (1, 2):
                phi = arc(field, f"t^{n * a}", "0", f"t^{n * b}", variables=("x", "y", "z"))
                assert_chain_matches_stepwise(f, phi, max_steps=200)
        assert max(runs) > 1

    def test_corpus_phi3_arcs(self, field):
        # (t + t^2)^a, (t + t^2)^b: every component has order 1 after the first run, so
        # the reference's chart leaves the graph coordinate and its lifts stop terminating.
        for name in ("cusp_char0", "e25_char0", "e34_char0"):
            problem = load_problem(name)
            f = parse_poly(problem.poly_text, problem.variables, field)
            phi = Arc(
                problem.variables,
                tuple(parse_series(text, field) for text in problem.arc_texts["phi3"].split(",")),
                field,
            )
            assert_chain_matches_stepwise(f, phi, max_steps=100)

    def test_composed_arcs(self, field):
        # (t + t^2)^a, (t + t^2)^b: the shifts to centers off the origin make the whole
        # transform grow with every blow-up, and the chain's shifts keep only its terms of
        # degree at most m_0 (left + 1), with `left` blow-ups left before max_steps.
        dropped = 0
        for a, b in ((2, 7), (2, 9), (3, 8)):
            f = parse_poly(f"y^{a} - x^{b}", ("x", "y"), field)
            phi = arc(field, f"(t + t^2)^{a}", f"(t + t^2)^{b}", variables=("x", "y"))
            for max_steps in (3, 5, 8, 12):
                assert_chain_matches_stepwise(f, phi, max_steps=max_steps)
                report, carried = carried_transforms(f, phi, max_steps)
                dropped += len(carried[-1].terms) < len(report.trace[-1].transform.terms)
        assert dropped > 8

    def test_monomial_arcs_with_non_unit_leads(self, field):
        # Leads 2, -3, 1/2 and -2/3 over Q and every unit of F_p: the chain slices its
        # lifts where the stepwise reference divides.
        rng = random.Random(f"leads-{field.characteristic}")
        for _ in range(40):
            phi, on = random_monomial_arc(rng, field, rng.randint(2, 3))
            if on is not None:
                assert_chain_matches_stepwise(on, phi, max_steps=60)

    def test_a_component_that_f_does_not_involve(self, field):
        # f does not involve z, and z = t^3 - t^4 + ... - t^12 is not exactly zero, so the
        # chain keeps every term of f in z; it lifts z as a slice like any component.
        f = parse_poly("y^2 - x^9", ("x", "y", "z"), field)
        z = TruncatedSeries.exact_series(field, [0, 0, 0] + [(-1) ** k for k in range(10)])
        phi = Arc(("x", "y", "z"), (parse_series("t^2", field), parse_series("t^9", field), z), field)
        for max_steps in (2, 8, 40):
            assert_chain_matches_stepwise(f, phi, max_steps=max_steps)
        report = nash_sequence(f, phi, 40)
        assert not report.truncated and any(step.center[2] for step in report.trace)

    def test_max_steps_ending_inside_a_run(self, monkeypatch, field):
        runs = _spy_runs(monkeypatch)
        f = parse_poly("y^2 - x^21", ("x", "y"), field)
        phi = arc(field, "t^8", "t^84", variables=("x", "y"))
        for max_steps in (0, 1, 2, 5, 8, 9, 40, 83, 84, 85):
            assert_chain_matches_stepwise(f, phi, max_steps=max_steps)
        assert max(runs) > 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_sequence_does_not_depend_on_the_chart(field):
    # The chain blows up in the graph chart, the stepwise reference in the chart of the
    # first component of least order: along an arc whose x has order 1 the two differ
    # from the first blow-up on, and along an arc inside the locus of f's multiplicity
    # neither chain drops.  They read the same sequence.
    rng = random.Random(f"chart-{field.characteristic}")
    shapes = Counter()
    for _ in range(40):
        f, phi, in_locus = random_chain_case(rng, field)
        chain, stepwise = nash_sequence(f, phi, 30), stepwise_nash_sequence(f, phi, 30)
        assert chain.to_json() == stepwise.to_json(), f"{f} along {phi}"
        assert {chart.index for chart, _ in chain.runs} == {len(phi.components)}
        assert chain.truncated or not in_locus
        shapes["inside the locus" if in_locus else "truncated" if chain.truncated else "drops"] += 1
        shapes["charts differ"] += any(chart.index < len(phi.components) for chart, _ in stepwise.runs)
        shapes["x of order 1"] += phi.components[0].order() == 1
    assert min(shapes[shape] for shape in ("inside the locus", "drops", "charts differ", "x of order 1")) >= 5, shapes


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_chain_does_not_depend_on_the_order_of_the_variables(field):
    # The graph chart has no tie to break between components of least order, so listing
    # the variables of f and of the arc in reverse reverses every center and transform
    # of the trace and changes nothing else.
    rng = random.Random(f"variable-order-{field.characteristic}")
    moved = 0
    for _ in range(20):
        f, phi, _ = random_chain_case(rng, field)
        order, n = phi.variables[::-1], len(phi.variables)
        reversed_chain = nash_sequence(parse_poly(str(f), order, field), Arc(order, phi.components[::-1], field), 20)
        chain = nash_sequence(f, phi, 20)
        assert reversed_chain.to_json() == chain.to_json()
        for step, reversed_step in zip(chain.trace, reversed_chain.trace, strict=True):
            assert step.chart_index == reversed_step.chart_index == n
            assert reversed_step.center == (*step.center[:n][::-1], step.center[n])
            assert reversed_step.transform == parse_poly(str(step.transform), order + ("w",), field)
            moved += any(step.center)
    assert moved > 10


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_run_is_its_single_blow_ups(field):
    # `run_length` l along a graph arc: l single blow-ups in the graph chart keep every
    # center before the last at the origin and the multiplicity m until the last, and the
    # run's one lift and one transform are the ones they build.  Reparametrizing an arc
    # by t^n raises its order, so the runs grow.
    rng = random.Random(f"run-{field.characteristic}")
    lengths = Counter()
    for _ in range(40):
        f, phi, _ = random_chain_case(rng, field)
        phi = phi.reparametrize(rng.randint(1, 4))
        poly, lifted = f.extend(phi.variables + ("w",)), graph_arc(phi, "w")
        m = poly.order_at_origin()
        steps = run_length(poly, lifted, m, rng.randint(1, 12))
        run_chart, run_arc = blowup_lift(lifted, steps)
        run_poly = strict_transform(poly, run_chart, steps)
        for k in range(steps):
            chart, lifted = blowup_lift(lifted)
            poly = strict_transform(poly, chart)
            if k < steps - 1:
                assert not any(chart.translation) and poly.order_at_origin() == m
        assert (chart, lifted, poly) == (run_chart, run_arc, run_poly)
        lengths["run" if steps > 1 else "single"] += 1
    assert lengths["run"] >= 10 and lengths["single"] >= 5, lengths


def off_the_origin_case(rng, field, kind):
    """(f, arc) of one kind: a curve arc reparametrized by t^n, whose second component
    often ties with the first; a monomial arc, often with an exactly zero component; or
    a curve arc composed with a series of order 1 or 2.  f is None when only 0 vanishes."""
    if kind == "monomial":
        phi, f = random_monomial_arc(rng, field, rng.randint(2, 3))
        return f, phi
    f, phi, _ = random_chain_case(rng, field)
    if kind == "reparametrized":
        return f, phi.reparametrize(rng.randint(1, 4))
    lead = rng.choice(field.units(4))
    inner = [field.zero] * rng.randint(1, 2) + [lead, field.coerce(rng.randint(-2, 2))]
    return f, phi.compose(TruncatedSeries.exact_series(field, inner))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_runs_that_end_off_the_origin(field):
    # Each iteration of the chain taken by hand on the whole of f: a run of `run_length`
    # blow-ups, one lift and one strict transform, against that many single ones.  The
    # singles keep every center but the last at the origin and the multiplicity until
    # the last, and reach the run's center, arc and transform.  The report's runs and
    # trace are these blow-ups, and the stepwise reference reads the same sequence, rho
    # and truncation.  The arcs include ties (two nonzero center coordinates), exactly
    # zero components, composed arcs and max_steps that ends inside a run.
    rng = random.Random(f"off-the-origin-{field.characteristic}")
    shapes = Counter()
    for case in range(90):
        kind = ("reparametrized", "monomial", "composed")[case % 3]
        f, phi = off_the_origin_case(rng, field, kind)
        if f is None:
            continue
        max_steps = rng.randint(1, 24)
        poly, lifted = f.extend(phi.variables + ("w",)), graph_arc(phi, "w")
        m0 = m = poly.order_at_origin()
        lengths, centers, sequence = [], [], [m0]
        while m0 >= 2 and m == m0 and len(sequence) <= max_steps:
            limit = max_steps + 1 - len(sequence)
            steps = run_length(poly, lifted, m, limit)
            shapes["cut inside a run"] += steps == limit < run_length(poly, lifted, m, limit + 100)
            run_chart, run_arc = blowup_lift(lifted, steps)
            run_poly = strict_transform(poly, run_chart, steps)
            for k in range(steps):
                chart, lifted = blowup_lift(lifted)
                poly = strict_transform(poly, chart)
                assert k == steps - 1 or (not any(chart.translation) and poly.order_at_origin() == m)
                centers.append(chart.translation)
                sequence.append(poly.order_at_origin())
            assert (chart, lifted, poly) == (run_chart, run_arc, run_poly)
            m = sequence[-1]
            lengths.append(steps)
            shapes["run ending off the origin"] += steps > 1 and any(chart.translation)
            shapes["tie"] += sum(1 for c in chart.translation if c) >= 2
        report = nash_sequence(f, phi, max_steps)
        if m0 >= 2:
            assert [steps for _, steps in report.runs] == lengths
            assert report.sequence == tuple(sequence)
            assert [step.center for step in report.trace] == centers
        assert_chain_matches_stepwise(f, phi, max_steps)
        shapes[kind] += 1
        shapes["zero component"] += any(c.is_exactly_zero() for c in phi.components)
    assert min(shapes.values()) >= 5 and len(shapes) == 7, shapes


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_chains_blow_up_in_the_graph_chart(name):
    # Along every arc of every bundled problem the trace blows up in the chart of the
    # graph coordinate, whose center coordinate stays 0, the first center is the arc's
    # coefficients at t, and the chain reads the rho the problem expects and the
    # sequence that the stepwise reference reads in its own charts.
    problem = load_problem(name)
    for arc_name, phi in problem.arcs.items():
        report = nash_sequence(problem.poly, phi, problem.options.max_steps)
        n = len(phi.components)
        assert all(step.chart_index == n and step.center[n] == problem.field.zero for step in report.trace)
        assert report.trace[0].center[:n] == tuple(c.coefficient(1) for c in phi.components)
        assert str(report.rho) == problem.expects[f"rho {arc_name}"]
        assert_chain_matches_stepwise(problem.poly, phi, problem.options.max_steps)


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "poly, leads",
    [
        ("y^2 - 3*x^3", ((3, 2), (9, 3))),
        ("y^2 - 3*x^3", ((3, 4), (9, 6))),
        # x = -t/2 ties with the graph coordinate w = t and lifts to the center x = -1/2.
        ("y^2 - 64*x^6", ((-HALF, 1), (1, 3))),
        ("y^2 - 64*x^6", ((-HALF, 2), (1, 6))),
    ],
)
def test_chains_with_non_unit_leads_over_q(poly, leads):
    # The chain slices, the stepwise reference divides by 3t^2 or -t/2; the same again
    # with a component z that no chart ever picks.
    f = parse_poly(poly, ("x", "y"), Q)
    components = tuple(TruncatedSeries.t_power(Q, k, c) for c, k in leads)
    phi = Arc(("x", "y"), components, Q)
    assert_chain_matches_stepwise(f, phi, max_steps=60)
    z = TruncatedSeries.exact_series(Q, [0, 0, 0, 0, 5, 1])
    assert_chain_matches_stepwise(f.extend(("x", "y", "z")), Arc(("x", "y", "z"), (*components, z), Q), max_steps=60)
    if leads[0][1] == 1:
        assert nash_sequence(f, phi).trace[0].center == (-HALF, 0, 0)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestZeroComponents:
    """The chain drops the terms of degree above m_0 in each coordinate along which
    the arc is exactly zero; the stepwise reference keeps every term.  Their
    sequences must agree."""

    @staticmethod
    def compare(field, seed, zero_at_start, cases):
        rng = random.Random(f"{seed}-{field.characteristic}")
        dropped = 0
        for _ in range(cases):
            phi = on = None
            while on is None or on.order_at_origin() < 2 or zero_at_start != any(
                comp.is_exactly_zero() for comp in phi.components
            ):
                phi, on = random_monomial_arc(rng, field, rng.randint(2, 3), max_degree=4)
            assert_chain_matches_stepwise(on, phi, max_steps=40)
            report, carried = carried_transforms(on, phi, 40)
            if carried:
                dropped += len(carried[-1].terms) < len(report.trace[-1].transform.terms)
        return dropped

    def test_arcs_with_a_zero_component(self, field):
        assert self.compare(field, "zero-at-start", True, 60) > 10

    def test_arcs_that_gain_a_zero_component(self, field):
        # Every component is a monomial, so a center leaves the origin exactly when a
        # component has order 1, and that component becomes zero.
        assert self.compare(field, "zero-gained", False, 60) > 10

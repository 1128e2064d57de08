import dataclasses
import random
from fractions import Fraction

import pytest
from property_checks import (
    FIELDS,
    SequenceTruncated,
    assert_chain_matches_stepwise,
    assert_well_formed,
    persistence_oracle,
    prefix,
    random_monomial_arc,
    reference_lift,
    ring_map_translate,
    stepwise_nash_sequence,
    time_limit,
)

from arcmult import blowup, series
from arcmult.blowup import (
    ChartMap,
    NashStep,
    blowup_lift,
    graph_arc,
    nash_sequence,
    run_length,
    strict_transform,
)
from arcmult.corpus import load_problem
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
    def test_divides_by_minimal_order_component(self):
        chart, lifted = blowup_lift(arc(Q, "t^2", "t^3", "t"))
        assert chart.index == 2
        assert chart.translation == (0, 0, 0)
        assert lifted == arc(Q, "t", "t^2", "t")

    def test_second_step(self):
        # Orders (1, 2, 1): tie between x and w, broken to x.  Dividing the
        # w-component by the chart component gives t/t = 1, which is the new
        # center's w-coordinate after recentering.
        chart, lifted = blowup_lift(arc(Q, "t", "t^2", "t"))
        assert chart.index == 0
        assert chart.translation == (0, 0, 1)
        assert lifted == arc(Q, "t", "t", "0")

    def test_tie_breaks_to_lowest_index_and_records_center(self):
        chart, lifted = blowup_lift(arc(Q, "t", "t + t^2", "t"))
        assert chart.index == 0
        assert chart.translation == (0, 1, 1)
        assert lifted == arc(Q, "t", "t", "0")

    def test_steps_divide_by_a_power_of_the_monomial(self):
        chart, lifted = blowup_lift(arc(Q, "2*t^2", "t^9 + t^11", "0"), steps=3)
        assert chart.index == 0 and chart.translation == (0, 0, 0)
        eighth = Fraction(1, 8)
        y = TruncatedSeries.exact_series(Q, [0, 0, 0, eighth, 0, eighth])
        assert lifted == Arc(("x", "y", "w"), (parse_series("2*t^2", Q), y, parse_series("0", Q)), Q)

    @pytest.mark.parametrize(
        "texts",
        [("t^2 + t^3", "t^9"), ("t^2", "t^6"), ("t^2", "t^5")],
        ids=["not-a-monomial", "center-off-the-origin", "order-below-the-run"],
    )
    def test_steps_reject_an_arc_without_that_run(self, texts):
        with pytest.raises(EngineError):
            blowup_lift(arc(Q, *texts), steps=3)

    def test_steps_reject_an_on_demand_arc(self):
        y = parse_series("t^10", Q).divide(parse_series("t + t^2", Q))  # t^9 - t^10 + ... on demand
        on_demand = Arc(("x", "y"), (parse_series("t^2", Q), y), Q)
        with pytest.raises(EngineError, match="its chart component is not an exact monomial$"):
            blowup_lift(on_demand, steps=2)


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
        """(entered, calls): the labels of the quotient rule and chart transform as they
        are entered, and the FieldSpec calls each makes that it should not."""
        watched = {"quotient": {"mul", "sub", "inv"}, "transform": {"coerce"}}
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

        for name in ("mul", "sub", "inv", "coerce"):
            monkeypatch.setattr(FieldSpec, name, counted(name, getattr(FieldSpec, name)))
        monkeypatch.setattr(series, "_series_quotient", tagged("quotient", series._series_quotient))
        monkeypatch.setattr(ChartMap, "transform", tagged("transform", ChartMap.transform))
        return entered, calls

    @pytest.mark.parametrize("field", [Q, prime_field(3)], ids=["Q", "F3"])
    def test_long_chain_runs_without_field_calls(self, monkeypatch, field):
        # Every chart component is a monomial, so each lift slices and scales and the
        # quotient rule is never entered; the chart transform builds its result without
        # re-coercing each coefficient.  The 84 blow-ups come in runs of 7, 1, 75 and 1,
        # one chart transform each, and reading the trace replays each blow-up once more.
        entered, calls = self.watch_field_calls(monkeypatch)
        f = parse_poly("y^2 - x^21", ("x", "y"), field)
        phi = arc(field, "t^8", "t^84", variables=("x", "y"))
        report = nash_sequence(f, phi, max_steps=100)
        assert entered.count("transform") == 4 and "quotient" not in entered
        report.to_json(field, include_trace=True)
        assert len(report.trace) == 84 and any(any(step.center) for step in report.trace)
        assert entered.count("transform") == 4 + 84 and "quotient" not in entered
        assert calls == []

    @pytest.mark.parametrize("field", [Q, prime_field(3)], ids=["Q", "F3"])
    def test_lifts_off_a_monomial_chart_take_the_quotient_rule(self, monkeypatch, field):
        # Along the corpus arc phi3 = ((t + t^2)^2, (t + t^2)^3) of the cusp the chart
        # component leaves the graph coordinate and stops being a monomial, so its
        # lifts divide; the quotient rule works on cleared integers.
        entered, calls = self.watch_field_calls(monkeypatch)
        problem = load_problem("cusp_char0")
        f = parse_poly(problem.poly_text, problem.variables, field)
        phi = Arc(problem.variables, tuple(parse_series(text, field) for text in problem.arc_texts["phi3"].split(",")), field)
        nash_sequence(f, phi, max_steps=40)
        assert "quotient" in entered
        assert calls == []

    def test_each_step_computes_its_order_once(self, monkeypatch):
        # The orders of f and of f on the graph's ambient space, then one per
        # run's strict transform, whose order is the next multiplicity and
        # divisibility check: 4 runs make the 84 steps.  Each step once
        # computed it three times, and then once.  Reading the trace replays every
        # blow-up from f on the graph's ambient space, whose order the chain has
        # computed: one more per replayed strict transform, which the replay checks.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        phi = arc(Q, "t^8", "t^84", variables=("x", "y"))
        computed = []
        order = MultiPoly.order_at_origin
        monkeypatch.setattr(MultiPoly, "order_at_origin", lambda g: computed.append(g._order is None) or order(g))
        report = nash_sequence(f, phi, max_steps=100)
        assert sum(computed) == 6
        report.to_json(Q, include_trace=True)
        assert sum(computed) == 6 + 84

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

    def test_a_chain_reads_few_coefficients_of_its_lifts(self, monkeypatch):
        # Along (t^2, t^3) composed with 2t + 7t^2 (ROADMAP item 8(d)) the chart leaves
        # the graph coordinate and its lifts stop terminating.  Every chart component has
        # t-order 1, so each blow-up reads one more coefficient of each component: at
        # max_steps 10000 the 3 blow-ups compute at most 5 coefficients of any quotient.
        quotients = []

        class Kept(series._Quotient):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                quotients.append(self)

        monkeypatch.setattr(series, "_Quotient", Kept)
        phi = arc(Q, "(2*t + 7*t^2)^2", "(2*t + 7*t^2)^3", variables=("x", "y"))
        report = nash_sequence(cusp(), phi, max_steps=10000)
        assert report.sequence == (2, 2, 2, 1)
        assert len(quotients) == 4 and max(len(q.ints) for q in quotients) <= 5

    def test_the_chain_carries_few_terms(self):
        # After the first run w = t ties with the chart x = t, moves to the center 1 and
        # is exactly zero from then on, so the shift (w + 1)^N keeps only w-degrees <= 2.
        # The last run shifts to x = 1 with 16 of the 100 steps left, so it keeps only the
        # terms of degree at most 2 * 17: two of the four.  The trace, which replays every
        # blow-up on the whole polynomial, is not read.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        report, carried = carried_transforms(f, arc(Q, "t^8", "t^84", variables=("x", "y")), 100)
        assert [len(g.terms) for g in carried] == [2, 4, 4, 2]
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
            "chart": "x",
            "chart_index": 0,
            "center": ["0", "0", "1"],
            "multiplicity": 2,
            "transform": "y^2 - x^2 - x^2*w",
        },
        {
            "chart": "x",
            "chart_index": 0,
            "center": ["0", "1", "0"],
            "multiplicity": 1,
            "transform": "2*y + y^2 - x*w",
        },
    ],
}


def test_trace_json_matches_golden():
    # Hand-derived chain: the w-chart absorbs the graph coordinate, then two
    # x-charts; the final transform has a linear term 2y, which is why the
    # characteristic-2 sequence is one step longer.
    report = nash_sequence(cusp(), arc(Q, "t^2", "t^3", variables=("x", "y")))
    assert report.to_json(Q, include_trace=True) == GOLDEN_CUSP_TRACE


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
        # Chart x = t^8; y = t^84 lets ceil(84/8) - 1 = 10 lifts stay at the origin,
        # and y^2 - x^21 (r = 2, 0 against m = 2) drops at l = (21-2) // 2 + 1 = 10.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        assert run_length(f, arc(Q, "t^8", "t^84", variables=("x", "y")), 2, 100) == 10
        assert run_length(f, arc(Q, "t^8", "t^84", variables=("x", "y")), 2, 4) == 4
        assert run_length(f, arc(Q, "t^8", "t^60", variables=("x", "y")), 2, 100) == 7
        assert run_length(f, arc(Q, "t^8 + t^9", "t^84", variables=("x", "y")), 2, 100) == 1
        assert run_length(f, arc(Q, "t^8", "t^16", variables=("x", "y")), 2, 100) == 1

    def test_run_length_raises_the_chains_bug_error(self):
        # y^3 + x^6 has order 3, above the multiplicity 2 it is given: the first blow-up
        # in the x-chart would read order 3, and the step path raises this same error.
        f = parse_poly("y^3 + x^6", ("x", "y"), Q)
        phi = arc(Q, "t", "t^5", variables=("x", "y"))
        chart, _ = blowup_lift(phi)
        assert strict_transform(f, chart).order_at_origin() > 2
        with pytest.raises(EngineError, match="^Nash multiplicity increased; this is a bug$"):
            run_length(f, phi, 2, 10)


def random_lift_arc(rng, field):
    """An arc of 2 or 3 components, each a monomial c t^k (non-unit leads over Q), a
    longer polynomial, an on-demand quotient of order k, an on-demand zero (a constant
    quotient less its constant) or exactly 0; at least one is a polynomial or a
    quotient that is not zero."""
    leads = field.units(4) + ((Fraction(-1, 2), Fraction(2, 3)) if field.characteristic == 0 else ())
    components, nonzero = [], False
    while not nonzero:
        components = []
        for _ in range(rng.randint(2, 3)):
            kind, k = rng.randrange(5), rng.randint(1, 6)
            tail = [rng.choice((field.zero, *leads)) for _ in range(rng.randint(0, 4))]
            nonzero |= kind < 3
            if kind == 0:
                components.append(TruncatedSeries.t_power(field, k, rng.choice(leads)))
            elif kind == 1:
                components.append(TruncatedSeries.exact_series(field, [0] * k + [rng.choice(leads)] + tail))
            elif kind == 2:
                # t^(k + 1) (lead + ...) over t (1 + c t): a polynomial when 1 + c t divides
                dividend = TruncatedSeries.exact_series(field, [0] * (k + 1) + [rng.choice(leads)] + tail)
                components.append(dividend.divide(TruncatedSeries.exact_series(field, [0, 1, rng.choice(leads)])))
            elif kind == 3:
                q = TruncatedSeries.t_power(field, 1).divide(TruncatedSeries.exact_series(field, [0, 1, 1]))
                components.append(q.divide(q).without_constant())
            else:
                components.append(TruncatedSeries.zero(field))
    return Arc(("x", "y", "z")[: len(components)], tuple(components), field)


def lift_outcome(lift, *args):
    """(chart, the lifted components' `prefix`es), or the error's type and message."""
    try:
        chart, lifted = lift(*args)
    except EngineError as error:
        return type(error), str(error)
    return chart, [prefix(comp) for comp in lifted.components]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestSliceAndScaleLifts:
    """`blowup_lift` against `reference_lift`, which takes every quotient by `divide`."""

    def test_random_arcs(self, field):
        rng = random.Random(f"lift-{field.characteristic}")
        sliced = on_demand = 0
        for _ in range(300):
            phi = random_lift_arc(rng, field)
            for steps in (1, 2, 3):
                got = lift_outcome(blowup_lift, phi, steps)
                assert got == lift_outcome(reference_lift, phi, steps), (str(phi), steps)
                if not isinstance(got[0], type):
                    chart, lifted = blowup_lift(phi, steps)
                    chart_component = phi.components[chart.index]
                    sliced += chart_component.exact and len(chart_component.coeffs) == chart_component.order() + 1
                    on_demand += not chart_component.exact
                    # An on-demand component stays on demand: no lift reads a polynomial off a prefix.
                    assert all(old.exact or not new.exact for new, old in zip(lifted.components, phi.components))
        assert sliced > 100 and on_demand > 20

    def test_on_demand_components_lift_as_the_reference_does(self, field):
        # x = t + t^2 is the chart and w / x = 1 - t + t^2 - ... does not terminate, so the
        # lifted w is -t + t^2 - ..., computed on demand; every later lift divides it again.
        lifted = arc(field, "t + t^2", "t", variables=("x", "w"))
        for _ in range(4):
            assert lift_outcome(blowup_lift, lifted) == lift_outcome(reference_lift, lifted)
            _, lifted = blowup_lift(lifted)
            assert type(lifted.components[1]) is series._OnDemandSeries


#: The arc and f of a chain whose lifts are exactly zero on demand: at the second blow-up
#: the lifts of z and of the graph coordinate are the chart component's, up to sign.
ZERO_LIFT_VARIABLES = ("y", "z", "x")
ZERO_LIFT_ARC = ("t^2", "t^2", "t + t^2")
ZERO_LIFT_POLY = "(y - z)^2 + ((x - y)^2 - y)^2"


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestZeroLifts:
    """A lift that is exactly zero as an on-demand series is never known to be zero:
    a chart reads it only to the least order of the arc's other components."""

    def test_the_chain_ends(self, field):
        f = parse_poly(ZERO_LIFT_POLY, ZERO_LIFT_VARIABLES, field)
        phi = arc(field, *ZERO_LIFT_ARC, variables=ZERO_LIFT_VARIABLES)
        with time_limit(1):
            report = nash_sequence(f, phi, max_steps=40)
            assert report.sequence == (2,) * 41 and report.truncated
            assert report.to_json(field, True) == stepwise_nash_sequence(f, phi, 40).to_json(field, True)

    def test_a_third_lift_returns(self, field):
        lifted = graph_arc(arc(field, *ZERO_LIFT_ARC, variables=ZERO_LIFT_VARIABLES))
        for _ in range(2):
            _, lifted = blowup_lift(lifted)
        zeros = [comp for comp in lifted.components if not comp.exact and not any(prefix(comp))]
        assert len(zeros) == 2
        with time_limit(1):
            chart, lifted = blowup_lift(lifted)
        assert chart.index == 0 and lifted.order() == 1

    def test_each_lift_reads_at_most_max_steps_coefficients(self, monkeypatch, field):
        # Three components are lifted at each of the 40 blow-ups, each a quotient on
        # demand, and the zero lifts never make a read run on: the deepest reads reach
        # coefficient 39 of the first lifts.
        quotients = []

        class Kept(series._Quotient):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                quotients.append(self)

        monkeypatch.setattr(series, "_Quotient", Kept)
        f = parse_poly(ZERO_LIFT_POLY, ZERO_LIFT_VARIABLES, field)
        nash_sequence(f, arc(field, *ZERO_LIFT_ARC, variables=ZERO_LIFT_VARIABLES), max_steps=40)
        assert len(quotients) == 3 * 40 and max(len(q.ints) for q in quotients) == 40


def test_trace_is_built_when_first_read(monkeypatch):
    # The chain records its 4 runs; the 84 NashSteps of the trace wait for a reader,
    # and then say what the stepwise reference, one blow-up at a time, says.
    built = []
    init = NashStep.__init__
    monkeypatch.setattr(NashStep, "__init__", lambda step, *args: built.append(1) or init(step, *args))
    f = parse_poly("y^2 - x^21", ("x", "y"), Q)
    phi = arc(Q, "t^8", "t^84", variables=("x", "y"))
    report = nash_sequence(f, phi, max_steps=100)
    assert len(report.runs) == 4 and sum(steps for _, steps in report.runs) == 84
    assert report.to_json(Q) == stepwise_nash_sequence(f, phi, 100).to_json(Q)
    assert built == []
    trace = report.trace
    assert len(built) == 84 and report.trace is trace
    reference = stepwise_nash_sequence(f, phi, 100).trace
    assert [step.to_json(Q) for step in trace] == [step.to_json(Q) for step in reference]


@pytest.mark.parametrize(
    "blow_up", [pytest.param(3, id="inside-the-first-run"), pytest.param(8, id="end-of-the-second-run")]
)
def test_trace_replay_checks_every_blow_up(blow_up):
    # The runs are 7, 1, 75 and 1 blow-ups long.  The trace replays every blow-up on the
    # whole polynomial and compares its order with the recorded sequence; a report that
    # recorded another value, inside a run or at its end, is refused.
    f = parse_poly("y^2 - x^21", ("x", "y"), Q)
    report = nash_sequence(f, arc(Q, "t^8", "t^84", variables=("x", "y")), max_steps=100)
    sequence = list(report.sequence)
    sequence[blow_up] = 3
    forged = dataclasses.replace(report, sequence=tuple(sequence))
    with pytest.raises(EngineError, match=f"^trace replay reads multiplicity 2 at blow-up {blow_up}, not 3$"):
        forged.trace
    assert [steps for _, steps in report.runs] == [7, 1, 75, 1]


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
        # (t + t^2)^a, (t + t^2)^b: once the chart leaves the graph coordinate its
        # component is not a monomial, the lifts stop terminating, and no run applies.
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

    def test_an_on_demand_component_is_refused(self, field):
        # f does not involve z, but an on-demand z has no finite expansion to certify
        # the arc on f with: both chains raise the same EngineError.
        f = parse_poly("y^2 - x^9", ("x", "y", "z"), field)
        z = parse_series("t^4", field).divide(parse_series("t + t^2", field))
        phi = Arc(("x", "y", "z"), (parse_series("t^2", field), parse_series("t^9", field), z), field)
        for max_steps in (8, 40):
            assert_chain_matches_stepwise(f, phi, max_steps=max_steps)
            with pytest.raises(EngineError, match="^an on-demand series has no finite expansion"):
                nash_sequence(f, phi, max_steps)

    def test_monomial_arcs_with_non_unit_leads(self, field):
        # Leads 2, -3, 1/2 and -2/3 over Q and every unit of F_p: the chain slices and
        # scales its lifts where the stepwise reference divides.
        rng = random.Random(f"leads-{field.characteristic}")
        for _ in range(40):
            phi, on = random_monomial_arc(rng, field, rng.randint(2, 3))
            if on is not None:
                assert_chain_matches_stepwise(on, phi, max_steps=60)

    def test_max_steps_ending_inside_a_run(self, monkeypatch, field):
        runs = _spy_runs(monkeypatch)
        f = parse_poly("y^2 - x^21", ("x", "y"), field)
        phi = arc(field, "t^8", "t^84", variables=("x", "y"))
        for max_steps in (0, 1, 2, 5, 8, 9, 40, 83, 84, 85):
            assert_chain_matches_stepwise(f, phi, max_steps=max_steps)
        assert max(runs) > 1


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "poly, leads",
    [
        ("y^2 - 3*x^3", ((3, 2), (9, 3))),
        ("y^2 - 3*x^3", ((3, 4), (9, 6))),
        # x = -t/2 ties with the graph coordinate w = t, which lifts to the center w = -2.
        ("y^2 - 64*x^6", ((-HALF, 1), (1, 3))),
        ("y^2 - 64*x^6", ((-HALF, 2), (1, 6))),
    ],
)
def test_chains_with_non_unit_leads_over_q(poly, leads):
    # The chain slices and scales by 1/3 or -2, the stepwise reference divides; the
    # same again with a component z that no chart ever picks.
    f = parse_poly(poly, ("x", "y"), Q)
    components = tuple(TruncatedSeries.t_power(Q, k, c) for c, k in leads)
    phi = Arc(("x", "y"), components, Q)
    assert_chain_matches_stepwise(f, phi, max_steps=60)
    z = TruncatedSeries.exact_series(Q, [0, 0, 0, 0, 5, 1])
    assert_chain_matches_stepwise(f.extend(("x", "y", "z")), Arc(("x", "y", "z"), (*components, z), Q), max_steps=60)
    if leads[0][1] == 1:
        assert nash_sequence(f, phi).trace[0].center == (0, 0, -2)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestZeroComponents:
    """The chain drops the terms of degree above m_0 in each coordinate along which
    the arc is exactly zero; the stepwise reference keeps every term.  Their reports,
    the trace replayed on the whole polynomial included, must agree."""

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
        # component ties with the chart's order, and that component becomes zero.
        assert self.compare(field, "zero-gained", False, 60) > 10

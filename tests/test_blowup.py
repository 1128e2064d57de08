import random
from fractions import Fraction

import pytest
from property_checks import (
    SequenceTruncated,
    assert_well_formed,
    persistence_oracle,
    ring_map_translate,
)

from arcmult import series
from arcmult.blowup import (
    ChartMap,
    blowup_lift,
    graph_arc,
    nash_sequence,
    strict_transform,
)
from arcmult.errors import (
    ArcNotOnVariety,
    EngineError,
    PrecisionExhausted,
    VariableMismatch,
)
from arcmult.fields import RATIONALS, FieldSpec, prime_field
from arcmult.poly import MultiPoly, parse_poly
from arcmult.series import Arc, TruncatedSeries, parse_series

Q = RATIONALS
F2 = prime_field(2)


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

    def test_indeterminate_chart_raises(self):
        # x has order 3, but y is zero up to t^2: y may have order 2 and be the chart.
        y = TruncatedSeries.truncated(Q, (), 2)
        truncated = Arc(("x", "y"), (parse_series("t^3", Q), y), Q)
        with pytest.raises(PrecisionExhausted):
            blowup_lift(truncated)


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

    @pytest.mark.parametrize("field", [Q, prime_field(3)], ids=["Q", "F3"])
    def test_long_chain_runs_without_field_calls(self, monkeypatch, field):
        # The quotient rule works on cleared integers, and the chart transform
        # builds its result without re-coercing each coefficient.
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
        f = parse_poly("y^2 - x^21", ("x", "y"), field)
        phi = arc(field, "t^8", "t^84", variables=("x", "y"))
        report = nash_sequence(f, phi, max_steps=100)
        assert len(report.trace) == 84 and any(any(step.center) for step in report.trace)
        assert entered.count("transform") == 84 and "quotient" in entered
        assert calls == []

    def test_each_step_computes_its_order_once(self, monkeypatch):
        # The orders of f and of f on the graph's ambient space, then one per
        # strict transform, whose order is the next step's multiplicity and
        # divisibility check.  Each step computed it three times.
        f = parse_poly("y^2 - x^21", ("x", "y"), Q)
        phi = arc(Q, "t^8", "t^84", variables=("x", "y"))
        computed = []
        order = MultiPoly.order_at_origin
        monkeypatch.setattr(MultiPoly, "order_at_origin", lambda g: computed.append(g._order is None) or order(g))
        report = nash_sequence(f, phi, max_steps=100)
        assert len(report.trace) == 84
        assert sum(computed) == 86

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

"""Independent oracle for Nash multiplicity sequences.

Restricted, loudly, to hypersurfaces: the multiplicity of X = V(f) at a
rational point is the local order of f there, so the whole sequence can be
driven by exact polynomial and series arithmetic.  The machinery: append a
graph coordinate mapped to t, then repeatedly blow up the arc's center,
lift the arc by dividing components, and take the strict transform of the
defining polynomial, until the multiplicity first drops below its initial
value.  Both transforms of a point blow-up, the strict one here and the
weighted one of `rees`, go through `ChartMap.transform`, a map on exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import EngineError, VariableMismatch
from .poly import MultiPoly, Point
from .series import DEFAULT_PRECISION, Arc, TruncatedSeries, certify_on_hypersurface

DEFAULT_MAX_STEPS = 32


@dataclass(frozen=True)
class ChartMap:
    """The j-th affine chart of the blow-up of the origin.

    The chart sends x_i -> x_i * x_j for i != j and fixes the exceptional
    coordinate x_j, so it pulls a monomial x^e back to x^e with e_j
    replaced by |e|.  That exponent map is injective, so no two terms
    merge.  `translation` records where the lifted arc landed (the next
    center, in chart coordinates, as field elements); blow-ups themselves
    always happen at the origin of the current chart.
    """

    variables: tuple
    index: int
    translation: Point

    @property
    def exceptional(self) -> str:
        return self.variables[self.index]

    def transform(self, poly: MultiPoly, k: int) -> MultiPoly:
        """Pull back, divide by x_j^k, recenter; EngineError if a term has degree < k."""
        if poly.variables != self.variables:
            raise VariableMismatch(f"polynomial over {poly.variables}, chart over {self.variables}")
        if poly.order_at_origin() < k:
            raise EngineError(f"pull-back of {poly} is not divisible by {self.exceptional}^{k}")
        terms = {}  # the exponent map is injective: no terms merge, no coefficient vanishes
        for e, c in poly.terms.items():
            pulled = list(e)
            pulled[self.index] = sum(e) - k
            terms[tuple(pulled)] = c
        return MultiPoly._of(self.variables, terms, poly.field)._shift(self.translation)


@dataclass(frozen=True)
class NashStep:
    chart_index: int
    chart_variable: str
    center: Point
    multiplicity: int
    transform: MultiPoly

    def to_json(self, field) -> dict:
        return {
            "chart": self.chart_variable,
            "chart_index": self.chart_index,
            "center": [field.element_str(c) for c in self.center],
            "multiplicity": self.multiplicity,
            "transform": str(self.transform),
        }


@dataclass(frozen=True)
class NashReport:
    """The sequence m_0 >= m_1 >= ..., where it first drops, and how we got there."""

    sequence: tuple
    rho: int | None
    trace: tuple
    truncated: bool
    below_threshold: bool = dataclass_field(default=False)

    def to_json(self, field, include_trace: bool = False) -> dict:
        data = {
            "sequence": list(self.sequence),
            "rho": self.rho,
            "truncated": self.truncated,
        }
        if self.below_threshold:
            data["note"] = "already below threshold: initial multiplicity is 1"
        if include_trace:
            data["trace"] = [step.to_json(field) for step in self.trace]
        return data


def fresh_variable(variables) -> str:
    for name in ("w", "v", "u", "z", "s"):
        if name not in variables:
            return name
    k = 0
    while f"w{k}" in variables:
        k += 1
    return f"w{k}"


def graph_arc(arc: Arc, extra_variable: str | None = None) -> Arc:
    """Arc on X x A^1 induced by the graph: one extra component, mapped to t."""
    name = extra_variable or fresh_variable(arc.variables)
    if name in arc.variables:
        raise EngineError(f"graph variable {name!r} collides with {arc.variables}")
    t = TruncatedSeries.t_power(arc.field, 1)
    return Arc(arc.variables + (name,), arc.components + (t,), arc.field)


def blowup_lift(arc: Arc, precision: int = DEFAULT_PRECISION) -> tuple:
    """Lift an arc through the blow-up of its center (the origin).

    The chart is the component of minimal t-order (ties to the lowest
    index); the lifted components are quotients by that component.  The
    constant terms that appear are the next center: they are recorded in
    the ChartMap translation and dropped so the lifted arc is again
    centered at the origin.  `precision` bounds non-terminating divisions.
    """
    field = arc.field
    nu = arc.order()  # PrecisionExhausted when the chart choice is indeterminate
    best_index = next(i for i, comp in enumerate(arc.components) if comp.known_order() == nu)
    divisor = arc.components[best_index]
    lifted = []
    constants = []
    for i, comp in enumerate(arc.components):
        if i == best_index:
            lifted.append(comp)
            constants.append(field.zero)
            continue
        quotient = comp.divide(divisor, fallback_precision=precision)
        constant = quotient.coefficient(0)
        constants.append(constant)
        if constant:
            quotient = TruncatedSeries._of(field, [field.zero, *quotient.coeffs[1:]], quotient.precision)
        lifted.append(quotient)
    chart = ChartMap(arc.variables, best_index, tuple(constants))
    return chart, Arc(arc.variables, tuple(lifted), field)


def strict_transform(poly: MultiPoly, chart: ChartMap) -> MultiPoly:
    """Strict transform of a hypersurface under a point blow-up chart.

    The chart transform divides by the exceptional coordinate to the exact
    power of the multiplicity at the blown-up center.
    """
    if poly.is_zero():
        raise EngineError("strict transform of the zero polynomial")
    transformed = chart.transform(poly, poly.order_at_origin())
    if all(exps[chart.index] for exps in transformed.terms):
        raise EngineError("strict transform still divisible by the exceptional coordinate")
    return transformed


def nash_sequence(
    poly: MultiPoly,
    arc: Arc,
    max_steps: int = DEFAULT_MAX_STEPS,
    precision: int = DEFAULT_PRECISION,
) -> NashReport:
    """Nash multiplicity sequence of the blow-ups directed by an arc on V(f).

    The arc must lie on the hypersurface exactly; the sequence stops at the
    first multiplicity strictly below the initial one, or truncates at
    max_steps (reported, never silent).
    """
    if poly.is_zero():
        raise EngineError("hypersurface polynomial must be nonzero")
    certify_on_hypersurface(poly, arc, f"arc {arc}")
    m0 = poly.order_at_origin()
    if m0 < 2:
        return NashReport((m0,), 0, (), False, below_threshold=True)
    extra = fresh_variable(arc.variables)
    ambient = arc.variables + (extra,)
    current_poly = poly.extend(ambient)
    current_arc = graph_arc(arc, extra)
    sequence = [m0]
    trace = []
    for _ in range(max_steps):
        chart, current_arc = blowup_lift(current_arc, precision)
        current_poly = strict_transform(current_poly, chart)
        m = current_poly.order_at_origin()  # nonzero: a chart transform is injective
        if m > sequence[-1]:
            raise EngineError("Nash multiplicity increased; this is a bug")
        sequence.append(m)
        trace.append(
            NashStep(chart.index, chart.exceptional, chart.translation, m, current_poly)
        )
        if m < m0:
            return NashReport(tuple(sequence), len(sequence) - 1, tuple(trace), False)
    return NashReport(tuple(sequence), None, tuple(trace), True)


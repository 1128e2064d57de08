"""Independent oracle for Nash multiplicity sequences.

Restricted, loudly, to hypersurfaces: the multiplicity of X = V(f) at a
rational point is the local order of f there, so the whole sequence can be
driven by exact polynomial arithmetic.  The machinery: append a graph
coordinate mapped to t, then repeatedly blow up the arc's center, lift the
arc, and take the strict transform of the defining polynomial, until the
multiplicity first drops below its initial value.

Every blow-up is made in the chart of the graph coordinate.  Its component
is t, of order 1, and no component has a lower order, so that chart holds
the lifted arc's point, and the multiplicity there does not depend on the
chart that computes it.  A lift there is x_i -> (x_i - c_i t) / t: a slice
of each component's coefficients, whose dropped constant c_i is the next
center, and the graph component stays t.  Every lift of a polynomial arc is
a polynomial.  Both transforms of a point blow-up, the strict one here and
the weighted one of `rees`, go through `ChartMap.transform`, a map on
exponents.  Blow-ups are made a run at a time (`run_length`): every center
of a run is the origin, and the run ends at the blow-up whose lifted point
leaves it, so a run costs one slice of the arc, one exponent map of f and
one shift to the next center.  The chain carries f modulo x_i^(m_0+1) for
each coordinate x_i along which the arc is exactly zero, and without the
terms of degree too high to set a multiplicity in the blow-ups left.  The
report keeps one (chart, steps) pair per run, from which the trace is
replayed on the whole of f, one blow-up at a time, when it is read.
"""

from __future__ import annotations

from functools import cached_property

from .errors import EngineError, VariableMismatch
from .fields import INF, Record
from .poly import MultiPoly, Point
from .series import Arc, TruncatedSeries, certify_on_hypersurface

DEFAULT_MAX_STEPS = 32


class ChartMap(Record):
    """The j-th affine chart of the blow-up of the origin.

    The chart sends x_i -> x_i * x_j for i != j and fixes the exceptional
    coordinate x_j, so it pulls a monomial x^e back to x^e with e_j
    replaced by |e|.  That exponent map is injective, so no two terms
    merge.  `translation` records where the lifted arc landed (the next
    center, in chart coordinates, as field elements); blow-ups themselves
    always happen at the origin of the current chart.
    """

    _fields = ("variables", "index", "translation")

    def __init__(self, variables: tuple, index: int, translation: Point):
        vars(self).update(variables=variables, index=index, translation=translation)

    @property
    def exceptional(self) -> str:
        return self.variables[self.index]

    def transform(self, poly: MultiPoly, k: int, steps: int = 1, caps=None, bound=INF) -> MultiPoly:
        """Pull back, divide by x_j^k, recenter; EngineError if a term has degree < k.

        `steps` > 1 first pulls back and divides `steps` - 1 times at the origin.
        Each time e_j grows by |e| - e_j - k while the other exponents stay, so
        all of it is one map e_j -> e_j + steps * (|e| - e_j - k); EngineError
        if it leaves an exponent negative.  `caps` and `bound` go to the
        recentering `MultiPoly._shift`, made only off the origin."""
        if poly.variables != self.variables:
            raise VariableMismatch(f"polynomial over {poly.variables}, chart over {self.variables}")
        if poly.order_at_origin() < k:
            raise EngineError(f"pull-back of {poly} is not divisible by {self.exceptional}^{k}")
        j = self.index
        terms = {}  # the exponent map is injective: no terms merge, no coefficient vanishes
        for e, c in poly.terms.items():
            pulled = list(e)
            pulled[j] += steps * (sum(e) - e[j] - k)
            terms[tuple(pulled)] = c
        if steps > 1 and any(e[j] < 0 for e in terms):
            raise EngineError(f"{steps} pull-backs of {poly} are not each divisible by {self.exceptional}^{k}")
        transformed = MultiPoly._of(self.variables, terms, poly.field)
        return transformed._shift(self.translation, caps, bound) if any(self.translation) else transformed


class NashStep(Record):
    """One blow-up of the chain: its chart, center, multiplicity and strict transform."""

    _fields = ("chart_index", "chart_variable", "center", "multiplicity", "transform")

    def __init__(self, chart_index: int, chart_variable: str, center: Point, multiplicity: int, transform):
        vars(self).update(
            chart_index=chart_index, chart_variable=chart_variable, center=center,
            multiplicity=multiplicity, transform=transform,
        )

    def to_json(self) -> dict:
        return {
            "chart": self.chart_variable,
            "chart_index": self.chart_index,
            "center": [str(c) for c in self.center],
            "multiplicity": self.multiplicity,
            "transform": str(self.transform),
        }


class NashReport(Record):
    """The sequence m_0 >= m_1 >= ..., where it first drops, and how we got there.

    `runs` holds one `(chart, steps)` pair per iteration of the chain: `steps`
    blow-ups in `chart` (`run_length`), from `start`, the whole of f on the
    graph's ambient space, the last of which moves to the chart's translation.
    `trace`, one NashStep per blow-up with its own center, is built when it is
    first read: it replays every blow-up on `start`, one strict transform
    each, and raises EngineError if a replayed order is not the multiplicity
    the chain recorded."""

    _fields = ("sequence", "rho", "start", "runs", "truncated", "below_threshold")

    def __init__(self, sequence: tuple, rho, start: MultiPoly, runs: tuple, truncated: bool, below_threshold=False):
        vars(self).update(
            sequence=sequence, rho=rho, start=start, runs=runs, truncated=truncated, below_threshold=below_threshold
        )

    @cached_property
    def trace(self) -> tuple:
        trace = []
        transform = self.start
        for chart, steps in self.runs:
            origin = ChartMap(chart.variables, chart.index, (transform.field.zero,) * len(chart.variables))
            for blowup in [origin] * (steps - 1) + [chart]:
                transform = strict_transform(transform, blowup)
                m, done = transform.order_at_origin(), len(trace) + 1
                if m != self.sequence[done]:
                    raise EngineError(f"trace replay reads multiplicity {m} at blow-up {done}, not {self.sequence[done]}")
                trace.append(NashStep(chart.index, chart.exceptional, blowup.translation, m, transform))
        return tuple(trace)

    def to_json(self, include_trace: bool = False) -> dict:
        data = {
            "sequence": list(self.sequence),
            "rho": self.rho,
            "truncated": self.truncated,
        }
        if self.below_threshold:
            data["note"] = "already below threshold: initial multiplicity is 1"
        if include_trace:
            data["trace"] = [step.to_json() for step in self.trace]
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
    # the field's shared zero and one, which `_graph_index` compares by identity
    t = TruncatedSeries(arc.field, (arc.field.zero, arc.field.one))
    return Arc._of(arc.variables + (name,), arc.components + (t,), arc.field)


def _graph_index(arc: Arc) -> int:
    """The index of the graph coordinate, the arc's last component, which must be t."""
    j = len(arc.components) - 1
    if arc.components[j].coeffs != (arc.field.zero, arc.field.one):
        raise EngineError(f"no graph chart along {arc}: its last component is not t")
    return j


def blowup_lift(arc: Arc, steps: int = 1) -> tuple:
    """Lift a graph arc (`graph_arc`) through a run of `steps` blow-ups at the origin.

    The chart is the graph coordinate's, the last component, which is t; an
    arc whose last component is not t raises EngineError.  Each other
    component x_i = sum a_k t^k lifts to x_i / t^steps less its constant
    a_steps: the slice of its coefficients from t^(steps + 1).  The constants
    are the center the run ends at, recorded in the ChartMap translation, so
    the lifted arc is again centered at the origin, and the graph component
    stays t.  EngineError if a coefficient below t^steps is nonzero, since
    then a center inside the run leaves the origin (`run_length`).  A lifted
    component keeps its order, less `steps`, when the slice starts below it.
    """
    field = arc.field
    j = _graph_index(arc)
    lifted, constants = [], []
    for comp in arc.components[:j]:
        order, coeffs = comp.order(), comp.coeffs
        if order < steps:
            raise EngineError(f"no run of {steps} blow-ups along {arc}: a center leaves the origin")
        constants.append(coeffs[steps] if steps < len(coeffs) else field.zero)
        rest = coeffs[steps + 1 :]
        series = TruncatedSeries(field, (field.zero, *rest) if rest else ())
        if order > steps:
            series.__dict__["_order"] = order - steps
        lifted.append(series)
    chart = ChartMap(arc.variables, j, (*constants, field.zero))
    return chart, Arc._of(arc.variables, (*lifted, arc.components[j]), field)


def strict_transform(poly: MultiPoly, chart: ChartMap, steps: int = 1, caps=None, bound=INF) -> MultiPoly:
    """Strict transform of a hypersurface under a point blow-up chart.

    The chart transform divides by the exceptional coordinate to the exact
    power of the multiplicity at the blown-up center.  `steps` > 1 is a run
    (`run_length`): that many blow-ups in the chart at the origin, each of
    which keeps the multiplicity, so each divides by the same power.  `caps`
    and `bound` limit the recentering shift (`MultiPoly._shift`).
    """
    if poly.is_zero():
        raise EngineError("strict transform of the zero polynomial")
    transformed = chart.transform(poly, poly.order_at_origin(), steps, caps, bound)
    # Inside a run this holds at every step without a check: the pull-back of g is divisible
    # by x_j exactly to the power ord(g), and each step divides by that power, its order m.
    if steps == 1 and all(exps[chart.index] for exps in transformed.terms):
        raise EngineError("strict transform still divisible by the exceptional coordinate")
    return transformed


def run_length(poly: MultiPoly, arc: Arc, multiplicity: int, limit: int) -> int:
    """How many blow-ups, at most `limit`, the next iteration of `nash_sequence` makes.

    The chart is the graph coordinate's, x_j = t, as in `blowup_lift`.  The
    l-th blow-up is centered at the coefficients at t^(l - 1), so the first l
    are all at the origin while every other component has order at least l.
    That bounds the run by each ord_i: it ends where the arc leaves the origin.

    `multiplicity` is m, the order of `poly`.  After l blow-ups of the run a
    term x^e with r = |e| - e_j has degree |e| + l (r - m), so the order
    o_l, the least of these, is concave in l with o_0 = m.  A term with r < m
    first falls below m at l = (|e| - m) // (m - r) + 1, and the run ends at
    the first such drop.  Otherwise the iteration is a single blow-up.  By
    concavity o_1 <= m shows that no step of the run raises the multiplicity;
    if it fails, the same EngineError as `nash_sequence`'s.  EngineError too
    if the arc's last component is not t.
    """
    j = _graph_index(arc)
    steps = min([limit] + [comp.order() for comp in arc.components[:j]])
    if steps < 2:
        return 1
    m = multiplicity
    lowest = INF  # o_1
    for e in poly.terms:
        degree = sum(e)
        rest = degree - e[j]
        lowest = min(lowest, degree + rest - m)
        if rest < m:
            steps = min(steps, (degree - m) // (m - rest) + 1)
    if lowest > m:
        raise EngineError("Nash multiplicity increased; this is a bug")
    return steps


def nash_sequence(poly: MultiPoly, arc: Arc, max_steps: int = DEFAULT_MAX_STEPS) -> NashReport:
    """Nash multiplicity sequence of the blow-ups directed by an arc on V(f).

    The arc must lie on the hypersurface exactly; the sequence stops at the
    first multiplicity strictly below the initial one, or truncates at
    max_steps (reported, never silent).  Each iteration makes the blow-ups
    of one run (`run_length`), with one lift and one strict transform, and
    records it as one `(chart, steps)` pair.

    Every blow-up is made in the chart of the graph coordinate (`blowup_lift`),
    which holds the lifted arc's point: each lift of a polynomial arc is a
    slice of its coefficients, and the sequence does not depend on the chart.

    The chain works modulo x_i^(m_0+1) for each coordinate x_i along which
    the arc is exactly zero.  Such a component stays zero, so x_i is never
    the chart and its center coordinate is 0 from then on.  A chart
    transform changes only e_j, and a shift in another coordinate keeps e_i,
    so a term with e_i > m_0 meets only terms with the same e_i.  Its degree
    is above every multiplicity of the chain, so it never sets an order nor
    binds `run_length`.  Such terms are dropped at the start and from the
    shift that makes a component zero, which builds only its terms of degree
    at most m_0 in x_i from all of f's.

    A term of total degree above m_0 (left + 1), with `left` blow-ups left
    before max_steps, is dropped too.  A term of order D at one center has
    order at least D - m_0 at the next: its pull-back is divisible by x_j^D,
    the transform divides by x_j^m with m <= m_0, and every later center
    lies on x_j = 0.  So such a term never sets an order nor binds
    `run_length`, and one kept a while longer does no harm.  Terms are made
    only by a shift to a center off the origin (at the origin a transform is
    an injective map on exponents), so that shift drops them from its
    result (`MultiPoly._shift`'s `bound`).  Along a composed arc the whole
    transform grows at every such shift; the carried one does not.
    """
    if poly.is_zero():
        raise EngineError("hypersurface polynomial must be nonzero")
    certify_on_hypersurface(poly, arc, None)
    m0 = poly.order_at_origin()
    if m0 < 2:
        return NashReport((m0,), 0, poly, (), False, below_threshold=True)
    extra = fresh_variable(arc.variables)
    ambient = arc.variables + (extra,)
    start = current_poly = poly.extend(ambient)
    current_arc = graph_arc(arc, extra)
    zero = [i for i, comp in enumerate(arc.components) if comp.is_exactly_zero()]
    if zero:
        terms = {e: c for e, c in start.terms.items() if all(e[i] <= m0 for i in zero)}
        current_poly = MultiPoly._of(ambient, terms, poly.field)
    sequence = [m0]
    runs = []
    while len(sequence) <= max_steps:
        previous = sequence[-1]
        steps = run_length(current_poly, current_arc, previous, max_steps + 1 - len(sequence))
        chart, current_arc = blowup_lift(current_arc, steps)
        caps = {i: m0 for i, comp in enumerate(current_arc.components) if comp.is_exactly_zero()}
        left = max_steps + 1 - len(sequence) - steps  # blow-ups after this run
        current_poly = strict_transform(current_poly, chart, steps, caps, m0 * (left + 1))
        m = current_poly.order_at_origin()  # nonzero: a chart transform is injective
        if m > previous:
            raise EngineError("Nash multiplicity increased; this is a bug")
        runs.append((chart, steps))
        sequence += [previous] * (steps - 1) + [m]
        if m < m0:
            return NashReport(tuple(sequence), len(sequence) - 1, start, tuple(runs), False)
    return NashReport(tuple(sequence), None, start, tuple(runs), True)

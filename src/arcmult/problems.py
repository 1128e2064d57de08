"""Problem files and reports: the batch front-end's data layer.

A problem file is a self-describing line format (`key: value`, with named
`arc NAME:` entries and `expect ...:` golden values).  Reports are plain
dicts serialized as JSON: exact rationals as "p/q" strings in lowest terms,
infinity as "inf", and a provenance echo of the inputs, so repeated runs
with the same seed are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction

from . import __version__
from .blowup import DEFAULT_MAX_STEPS, nash_sequence
from .contact import normalized_contact
from .elimination import MonicPresentation, ord_d, verify_main_theorem
from .errors import EngineError, ParseError
from .fields import INF, FieldSpec, Record, format_order
from .poly import MAX_LITERAL_DIGITS, MultiPoly, parse_poly
from .rees import presenting_algebra
from .series import Arc, certify_on_hypersurface, parse_series

ANALYSES = ("nash", "contact", "ord_d", "verify")
#: Upper bound of the max_steps and budget options, which size the work.
MAX_OPTION = 10_000
#: Least value of each run option, 0 for those that size the work; None admits any integer.
OPTION_MINIMUM = {"max_steps": 0, "budget": 0, "seed": None}


class Options(Record):
    """Run options, set by the problem-file keys and command-line flags of the same names."""

    _fields = ("max_steps", "budget", "seed")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS, budget: int = 100, seed: int = 0):
        vars(self).update(max_steps=max_steps, budget=budget, seed=seed)

    def overridden(self, values) -> "Options":
        """A copy with each option that `values` maps to other than None; other keys are ignored."""
        return Options(**vars(self) | {k: values[k] for k in OPTION_MINIMUM if values.get(k) is not None})


def option_value(key: str, text: str) -> int:
    """The value of run option `key` written as `text`; ParseError when it is not allowed."""
    if len(text) > MAX_LITERAL_DIGITS:
        raise ParseError(f"option {key!r} must be an integer of at most {MAX_LITERAL_DIGITS} digits")
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"option {key!r} must be an integer, got {text!r}") from None
    minimum = OPTION_MINIMUM[key]
    if minimum is not None:
        if value < minimum:
            raise ParseError(f"option {key!r} must be nonnegative, got {value}")
        if value > MAX_OPTION:
            raise ParseError(f"option {key!r} must be at most {MAX_OPTION}, got {value}")
    return value


def _rational_text(raw: str) -> str:
    """An expected order, written as format_order writes it; an exponent (unbounded) is refused."""
    if "e" in raw.lower():
        raise ValueError(raw)
    return format_order(INF if raw == "inf" else Fraction(raw))


#: Each `expect` kind: the analyses that report it, its field in their reports, and the
#: text of an expected value as they write it (ValueError or ZeroDivisionError when it is
#: malformed).  A kind that the per-arc analyses, nash and contact, report names one arc.
_EXPECT = {
    "nash": (("nash",), "sequence", lambda raw: str([int(x) for x in raw.replace(",", " ").split()])),
    "rho": (("nash", "contact"), "rho", lambda raw: str(int(raw))),
    "r_bar": (("contact",), "r_bar", _rational_text),
    "ord_d": (("ord_d",), "ord_d", _rational_text),
    "verify": (("verify",), "verdict", str),
}


class ProblemFile(Record):
    """A parsed problem; equality ignores the text echoes and comments."""

    _fields = ("name", "field", "variables", "poly", "fiber", "arcs", "parametrization", "analyses", "options",
               "expects")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # mutable

    def __init__(
        self, name: str, field: FieldSpec, variables: tuple, poly_text: str, poly: MultiPoly, fiber: str | None,
        arc_texts: dict, arcs: dict, parametrization_text: str | None, parametrization: Arc | None,
        analyses: tuple, options: Options, expects: dict, comments: tuple = (),
    ):
        vars(self).update(
            name=name, field=field, variables=variables, poly_text=poly_text, poly=poly, fiber=fiber,
            arc_texts=arc_texts, arcs=arcs, parametrization_text=parametrization_text,
            parametrization=parametrization, analyses=analyses, options=options, expects=expects, comments=comments,
        )

    def render(self) -> str:
        """Problem-file text that `parse_problem` reads back to an equal ProblemFile."""
        lines = list(self.comments)
        lines.append(f"name: {self.name}")
        lines.append(f"field: {self.field.characteristic}")
        lines.append("variables: " + " ".join(self.variables))
        lines.append(f"poly: {self.poly_text}")
        if self.fiber is not None:
            lines.append(f"fiber: {self.fiber}")
        for arc_name, text in self.arc_texts.items():
            lines.append(f"arc {arc_name}: {text}")
        if self.parametrization_text is not None:
            lines.append(f"parametrization: {self.parametrization_text}")
        lines.append("analyses: " + " ".join(self.analyses))
        lines.extend(f"{key}: {value}" for key, value in vars(self.options).items())
        for key, value in self.expects.items():
            lines.append(f"expect {key}: {value}")
        return "\n".join(lines) + "\n"


def _parse_arc(text: str, variables, field: FieldSpec, line_number: int) -> Arc:
    chunks = [c.strip() for c in text.split(",")]
    if len(chunks) != len(variables):
        raise ParseError(
            f"arc has {len(chunks)} components for variables {' '.join(variables)}",
            line=line_number,
        )
    components = []
    for chunk in chunks:
        try:
            components.append(parse_series(chunk, field))
        except ParseError as exc:
            raise ParseError(f"in arc component {chunk!r}: {exc}", line=line_number)
    return Arc(tuple(variables), tuple(components), field)


def _check_expect_line(words, value: str, line_number: int) -> None:
    """ParseError unless `expect WORDS: VALUE` has a kind of `_EXPECT`, its arc and a readable value."""
    kind = words[0]
    if kind not in _EXPECT:
        raise ParseError(f"unknown expectation kind {kind!r}", line=line_number)
    sources, _, text = _EXPECT[kind]
    names_arc = sources[0] in ("nash", "contact")
    if len(words) != 1 + names_arc:
        raise ParseError(f"expect {kind} names {'one' if names_arc else 'no'} arc", line=line_number)
    try:
        text(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed expected value for {kind!r}", line=line_number) from None


def parse_problem(text: str, name_hint: str = "problem") -> ProblemFile:
    """Parse the structured-text problem format; errors carry line numbers."""
    entries = []
    comments = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", line=line_number)
        key, value = line.split(":", 1)
        entries.append((key.strip(), value.strip(), line_number))

    data = {}
    arcs_raw = []
    expects = {}
    for key, value, line_number in entries:
        if key.startswith("arc "):
            arcs_raw.append((key[4:].strip(), value, line_number))
        elif key.startswith("expect "):
            words = key[7:].split()
            _check_expect_line(words, value, line_number)
            key = " ".join(words)
            if key in expects:
                raise ParseError(f"duplicate expectation {key!r}", line=line_number)
            expects[key] = value
        elif key in data:
            raise ParseError(f"duplicate key {key!r}", line=line_number)
        else:
            data[key] = (value, line_number)

    def take(key, default=None, required=False):
        """The value of `key` and its line number (None when the key is absent)."""
        if key in data:
            return data.pop(key)
        if required:
            raise ParseError(f"missing required key {key!r}", line=1)
        return default, None

    name, _ = take("name", default=name_hint)
    characteristic_text, line = take("field", required=True)
    try:
        field = FieldSpec(int(characteristic_text))
    except (ValueError, EngineError) as exc:
        raise ParseError(f"bad field characteristic: {exc}", line=line)
    variables_text, line = take("variables", required=True)
    variables = tuple(variables_text.split())
    if len(set(variables)) != len(variables) or not variables:
        raise ParseError("variables must be distinct and nonempty", line=line)
    poly_text, poly_line = take("poly", required=True)
    try:
        poly = parse_poly(poly_text, variables, field)
    except ParseError as exc:
        raise ParseError(f"in poly: {exc}", line=poly_line)
    if poly.is_zero():
        raise ParseError("problem polynomial is zero", line=poly_line)
    fiber, line = take("fiber")
    if fiber is not None and fiber not in variables:
        raise ParseError(f"fiber variable {fiber!r} not among variables", line=line)

    arc_texts = {}
    arcs = {}
    for arc_name, value, line_number in arcs_raw:
        if arc_name in arcs:
            raise ParseError(f"duplicate arc {arc_name!r}", line=line_number)
        arc_texts[arc_name] = value
        arcs[arc_name] = _parse_arc(value, variables, field, line_number)

    parametrization_text, line = take("parametrization")
    parametrization = None
    if parametrization_text is not None:
        parametrization = _parse_arc(parametrization_text, variables, field, line)

    analyses_text, line = take("analyses", default="nash contact ord_d verify")
    analyses = tuple(analyses_text.split())
    for analysis in analyses:
        if analysis not in ANALYSES:
            raise ParseError(f"unknown analysis {analysis!r}", line=line)

    values = {}
    for key in OPTION_MINIMUM:
        text, line = take(key)
        if text is not None:
            try:
                values[key] = option_value(key, text)
            except ParseError as exc:
                raise ParseError(str(exc), line=line) from None
    options = Options(**values)
    if data:
        stray = sorted(data)[0]
        raise ParseError(f"unknown key {stray!r}", line=data[stray][1])
    return ProblemFile(
        name=name,
        field=field,
        variables=variables,
        poly_text=poly_text,
        poly=poly,
        fiber=fiber,
        arc_texts=arc_texts,
        arcs=arcs,
        parametrization_text=parametrization_text,
        parametrization=parametrization,
        analyses=analyses,
        options=options,
        expects=dict(expects),
        comments=tuple(comments),
    )


# -- running ---------------------------------------------------------------------------


class Report(Record):
    _fields = ("problem", "analyses", "expectations", "verdict")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # mutable
    _rendered = None  # not a field: `run`'s no-trace `_analyses_json`, which the first `to_json` takes over

    def __init__(self, problem: ProblemFile, analyses: dict, expectations: list, verdict: str):
        vars(self).update(problem=problem, analyses=analyses, expectations=expectations, verdict=verdict)

    def to_json(self, include_trace: bool = False) -> dict:
        """The report as JSON data; no dict it returns is shared with a later call's."""
        rendered = None if include_trace else self.__dict__.pop("_rendered", None)
        problem = {
            "name": self.problem.name,
            "field": self.problem.field.characteristic,
            "variables": list(self.problem.variables),
            "poly": self.problem.poly_text,
            "fiber": self.problem.fiber,
            "arcs": dict(self.problem.arc_texts),
            "parametrization": self.problem.parametrization_text,
            "analyses": list(self.problem.analyses),
            "options": dict(vars(self.problem.options)),
        }
        return {
            "engine": {"name": "arcmult", "version": __version__},
            "problem": problem,
            "analyses": rendered or _analyses_json(self.analyses, include_trace),
            "expectations": self.expectations,
            "verdict": self.verdict,
        }


def _analyses_json(analyses: dict, include_trace: bool = False) -> dict:
    """The report of each analysis that ran, as `Report.to_json` writes it."""
    data = {}
    for key, value in analyses.items():
        if key == "nash":
            data[key] = {arc: report.to_json(include_trace) for arc, report in value.items()}
        elif key == "contact":
            data[key] = {arc: result.to_json() for arc, result in value.items()}
        else:
            data[key] = value.to_json()
    return data


def presentation_of(problem: ProblemFile) -> MonicPresentation:
    if problem.fiber is None:
        raise ParseError(
            f"problem {problem.name} has no 'fiber:' line; ord_d and verify need a monic presentation"
        )
    base = tuple(v for v in problem.variables if v != problem.fiber)
    try:
        return MonicPresentation(base, problem.fiber, problem.poly)
    except EngineError as exc:
        raise ParseError(f"fiber {problem.fiber!r} of problem {problem.name}: {exc}")


def run(problem: ProblemFile) -> Report:
    """Execute the requested analyses; deterministic given (problem, seed)."""
    analyses = {}
    if "nash" in problem.analyses:
        analyses["nash"] = {
            name: nash_sequence(problem.poly, arc, problem.options.max_steps)
            for name, arc in problem.arcs.items()
        }
    needs_g = "contact" in problem.analyses or "verify" in problem.analyses
    algebra = presenting_algebra(problem.poly) if needs_g else None
    if "contact" in problem.analyses:
        analyses["contact"] = {}
        for name, arc in problem.arcs.items():
            certify_on_hypersurface(problem.poly, arc, f"arc {name}")
            analyses["contact"][name] = normalized_contact(algebra, arc)
    if "ord_d" in problem.analyses or "verify" in problem.analyses:
        presentation = presentation_of(problem)
        if algebra is not None:
            presentation.presenting_algebra(algebra)  # ord_d's visible route reads G: no second closure
        elimination = ord_d(presentation)
    if "ord_d" in problem.analyses:
        analyses["ord_d"] = elimination
    if "verify" in problem.analyses:
        analyses["verify"] = verify_main_theorem(
            presentation,
            elimination,
            algebra,
            problem.arcs,
            problem.options.budget,
            problem.options.seed,
            parametrization=problem.parametrization,
        )
    rendered = _analyses_json(analyses) if problem.expects else None
    expectations = _check_expectations(problem.expects, rendered)
    failed = any(not e["match"] for e in expectations)
    verify_failed = "verify" in analyses and analyses["verify"].verdict != "PASS"
    report = Report(problem, analyses, expectations, "FAIL" if failed or verify_failed else "PASS")
    report._rendered = rendered
    return report


def _check_expectations(expects: dict, reports: dict) -> list:
    """Each golden value against the no-trace reports; skipped when no analysis reporting it ran."""
    checks = []
    for key, raw in expects.items():
        kind, *arc = key.split()
        sources, field, text = _EXPECT[kind]
        ran = [reports[source] for source in sources if source in reports]
        if not ran:
            continue
        if arc:
            ran = [report[arc[0]] for report in ran if arc[0] in report]
        values = {str(report[field]) for report in ran} or {"missing arc"}
        computed = values.pop() if len(values) == 1 else "disagreement"
        expected = text(raw)
        checks.append(
            {"key": key, "expected": expected, "computed": computed, "match": expected == computed}
        )
    return checks

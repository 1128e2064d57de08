"""Problem files and reports: the batch front-end's data layer.

A problem file is a self-describing line format (`key: value`, with named
`arc NAME:` entries and `expect ...:` golden values).  Reports are plain
dicts serialized as JSON: exact rationals as "p/q" strings in lowest terms,
infinity as "inf", and a provenance echo of the inputs, so repeated runs
with the same seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field, replace
from fractions import Fraction

from . import __version__
from .blowup import DEFAULT_MAX_STEPS, nash_sequence
from .contact import normalized_contact
from .elimination import MonicPresentation, ord_d, verify_main_theorem
from .errors import EngineError, ParseError
from .fields import FieldSpec, format_order
from .poly import MAX_LITERAL_DIGITS, MultiPoly, parse_poly
from .rees import presenting_algebra
from .series import DEFAULT_PRECISION, Arc, parse_series

ANALYSES = ("nash", "contact", "ord_d", "verify")
#: Upper bound of the precision, max_steps and budget options, which size the work.
MAX_OPTION = 10_000
#: Least value of each run option; None admits any integer and no upper bound.
OPTION_MINIMUM = {"precision": 1, "max_steps": 0, "budget": 0, "seed": None}


@dataclass(frozen=True)
class Options:
    """Run options, set by the problem-file keys and command-line flags of the same names."""

    precision: int = DEFAULT_PRECISION
    max_steps: int = DEFAULT_MAX_STEPS
    budget: int = 100
    seed: int = 0

    def overridden(self, values) -> "Options":
        """A copy with each option that `values` maps to other than None; other keys are ignored."""
        return replace(self, **{k: values[k] for k in OPTION_MINIMUM if values.get(k) is not None})


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
            bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
            raise ParseError(f"option {key!r} must be {bound}, got {value}")
        if value > MAX_OPTION:
            raise ParseError(f"option {key!r} must be at most {MAX_OPTION}, got {value}")
    return value


@dataclass
class ProblemFile:
    """A parsed problem; equality ignores the text echoes and comments."""

    name: str
    field: FieldSpec
    variables: tuple
    poly_text: str = dataclass_field(compare=False)
    poly: MultiPoly
    fiber: str | None
    arc_texts: dict = dataclass_field(compare=False)
    arcs: dict
    parametrization_text: str | None = dataclass_field(compare=False)
    parametrization: Arc | None
    analyses: tuple
    options: Options
    expects: dict
    comments: tuple = dataclass_field(default=(), compare=False)

    def render(self) -> str:
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
        lines.extend(f"{key}: {value}" for key, value in asdict(self.options).items())
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
            expects[key[7:].strip()] = value
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


@dataclass
class Report:
    problem: ProblemFile
    analyses: dict
    expectations: list
    verdict: str

    def to_json(self, include_trace: bool = False) -> dict:
        problem = {
            "name": self.problem.name,
            "field": self.problem.field.characteristic,
            "variables": list(self.problem.variables),
            "poly": self.problem.poly_text,
            "fiber": self.problem.fiber,
            "arcs": dict(self.problem.arc_texts),
            "parametrization": self.problem.parametrization_text,
            "analyses": list(self.problem.analyses),
            "options": asdict(self.problem.options),
        }
        analyses = {}
        for key, value in self.analyses.items():
            if key == "nash":
                analyses[key] = {
                    arc: report.to_json(self.problem.field, include_trace)
                    for arc, report in value.items()
                }
            elif key == "contact":
                analyses[key] = {arc: result.to_json() for arc, result in value.items()}
            else:
                analyses[key] = value.to_json()
        return {
            "engine": {"name": "arcmult", "version": __version__},
            "problem": problem,
            "analyses": analyses,
            "expectations": self.expectations,
            "verdict": self.verdict,
        }


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
            name: nash_sequence(
                problem.poly, arc, problem.options.max_steps, problem.options.precision
            )
            for name, arc in problem.arcs.items()
        }
    if "contact" in problem.analyses:
        algebra = presenting_algebra(problem.poly)
        analyses["contact"] = {
            name: normalized_contact(algebra, arc)
            for name, arc in problem.arcs.items()
        }
    if "ord_d" in problem.analyses or "verify" in problem.analyses:
        presentation = presentation_of(problem)
    if "ord_d" in problem.analyses:
        analyses["ord_d"] = ord_d(presentation)
    if "verify" in problem.analyses:
        analyses["verify"] = verify_main_theorem(
            presentation,
            problem.arcs,
            problem.options.budget,
            problem.options.seed,
            parametrization=problem.parametrization,
        )
    expectations = _check_expectations(problem, analyses)
    failed = any(not e["match"] for e in expectations)
    verify_failed = (
        "verify" in analyses and analyses["verify"].verdict != "PASS"
    )
    verdict = "FAIL" if failed or verify_failed else "PASS"
    return Report(problem, analyses, expectations, verdict)


def _validate_expect_value(kind, raw):
    if kind in ("ord_d", "r_bar"):
        Fraction(raw)
    elif kind == "rho":
        int(raw)
    elif kind == "nash":
        [int(x) for x in raw.replace(",", " ").split()]


def _check_expectations(problem: ProblemFile, analyses: dict) -> list:
    checks = []

    def record(key, expected, computed):
        checks.append(
            {
                "key": key,
                "expected": str(expected),
                "computed": str(computed),
                "match": str(expected) == str(computed),
            }
        )

    # Expectations are checked only against analyses that actually ran, so a
    # single-analysis command does not trip golden values for the others.
    for key, raw in problem.expects.items():
        parts = key.split()
        kind = parts[0]
        try:
            _validate_expect_value(kind, raw)
        except (ValueError, ZeroDivisionError):
            record(key, raw, "malformed expected value")
            continue
        if kind == "ord_d":
            if "ord_d" not in analyses:
                continue
            record(key, str(Fraction(raw)), format_order(analyses["ord_d"].ord_d))
        elif kind == "verify":
            if "verify" not in analyses:
                continue
            record(key, raw, analyses["verify"].verdict)
        elif kind == "nash" and len(parts) == 2:
            arc = parts[1]
            if "nash" not in analyses:
                continue
            expected = [int(x) for x in raw.replace(",", " ").split()]
            computed = (
                list(analyses["nash"][arc].sequence) if arc in analyses["nash"] else "missing arc"
            )
            record(key, expected, computed)
        elif kind == "rho" and len(parts) == 2:
            arc = parts[1]
            values = set()
            if "nash" in analyses and arc in analyses["nash"]:
                values.add(analyses["nash"][arc].rho)
            if "contact" in analyses and arc in analyses["contact"]:
                values.add(analyses["contact"][arc].rho)
            if not values:
                continue
            expected = int(raw)
            computed = values.pop() if len(values) == 1 else "disagreement"
            record(key, expected, computed)
        elif kind == "r_bar" and len(parts) == 2:
            arc = parts[1]
            if "contact" not in analyses:
                continue
            computed = (
                format_order(analyses["contact"][arc].r_bar)
                if arc in analyses["contact"]
                else "missing arc"
            )
            record(key, str(Fraction(raw)), computed)
        else:
            record(key, raw, "unknown expectation key")
    return checks

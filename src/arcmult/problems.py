"""Problem files and reports: the batch front-end's data layer.

A problem file is a self-describing line format (`key: value`, with named
`arc NAME:` entries and `expect ...:` golden values).  Reports are plain
dicts serialized as JSON: exact rationals as "p/q" strings in lowest terms,
infinity as "inf", and a provenance echo of the inputs, so repeated runs
with the same seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from . import __version__
from .blowup import nash_sequence
from .contact import SampleBudget, normalized_contact
from .elimination import MonicPresentation, ord_d, verify_main_theorem
from .errors import EngineError, ParseError
from .fields import FieldSpec, format_order
from .poly import MultiPoly, parse_poly
from .rees import presenting_algebra
from .series import DEFAULT_PRECISION, Arc, parse_series

ANALYSES = ("nash", "contact", "ord_d", "verify")
#: Upper bound of the precision, max_steps and budget options, which size the work.
MAX_OPTION = 10_000


@dataclass
class Options:
    precision: int = DEFAULT_PRECISION
    max_steps: int = 32
    budget: int = 100
    seed: int = 0


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
        lines.append(f"precision: {self.options.precision}")
        lines.append(f"max_steps: {self.options.max_steps}")
        lines.append(f"budget: {self.options.budget}")
        lines.append(f"seed: {self.options.seed}")
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
        if key in data:
            return data.pop(key)[0]
        if required:
            raise ParseError(f"missing required key {key!r}", line=1)
        return default

    name = take("name", default=name_hint)
    characteristic_text = take("field", required=True)
    try:
        field = FieldSpec(int(characteristic_text))
    except (ValueError, EngineError) as exc:
        raise ParseError(f"bad field characteristic: {exc}", line=1)
    variables = tuple(take("variables", required=True).split())
    if len(set(variables)) != len(variables) or not variables:
        raise ParseError("variables must be distinct and nonempty", line=1)
    poly_text = take("poly", required=True)
    poly_line = next(n for k, v, n in entries if k == "poly")
    try:
        poly = parse_poly(poly_text, variables, field)
    except ParseError as exc:
        raise ParseError(f"in poly: {exc}", line=poly_line)
    if poly.is_zero():
        raise ParseError("problem polynomial is zero", line=poly_line)
    fiber = take("fiber")
    if fiber is not None and fiber not in variables:
        raise ParseError(f"fiber variable {fiber!r} not among variables", line=1)

    arc_texts = {}
    arcs = {}
    for arc_name, value, line_number in arcs_raw:
        if arc_name in arcs:
            raise ParseError(f"duplicate arc {arc_name!r}", line=line_number)
        arc_texts[arc_name] = value
        arcs[arc_name] = _parse_arc(value, variables, field, line_number)

    parametrization_text = take("parametrization")
    parametrization = None
    if parametrization_text is not None:
        parametrization = _parse_arc(parametrization_text, variables, field, 1)

    analyses = tuple(take("analyses", default="nash contact ord_d verify").split())
    for analysis in analyses:
        if analysis not in ANALYSES:
            raise ParseError(f"unknown analysis {analysis!r}", line=1)

    def integer_option(key, default, minimum=None):
        raw = take(key, default=default)
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"option {key!r} must be an integer, got {raw!r}", line=1)
        if minimum is not None and value < minimum:
            raise ParseError(f"option {key!r} must be at least {minimum}, got {value}", line=1)
        if minimum is not None and value > MAX_OPTION:
            raise ParseError(f"option {key!r} must be at most {MAX_OPTION}, got {value}", line=1)
        return value

    options = Options(
        precision=integer_option("precision", str(DEFAULT_PRECISION), minimum=1),
        max_steps=integer_option("max_steps", "32", minimum=0),
        budget=integer_option("budget", "100", minimum=0),
        seed=integer_option("seed", "0"),
    )
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
            "options": {
                "precision": self.problem.options.precision,
                "max_steps": self.problem.options.max_steps,
                "budget": self.problem.options.budget,
                "seed": self.problem.options.seed,
            },
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
        budget = SampleBudget(random_arcs=problem.options.budget, seed=problem.options.seed)
        analyses["verify"] = verify_main_theorem(
            presentation,
            problem.arcs,
            budget,
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

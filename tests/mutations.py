"""Mutation checks: each entry breaks `src/arcmult` on purpose, and its tests must fail.

An entry names a module of `src/arcmult`, an exact snippet of it, the
snippet's replacement, and the pytest ids that guard it.  For each entry the
script copies the repository's `src/`, `tests/`, `bench/` and
`pyproject.toml` to a temporary directory, so tests that read the source
read the copy, replaces the snippet (which must occur exactly once, so a
refactor that moves it has to update the entry), and runs only those tests
there in a subprocess.  An entry is killed when pytest reports failing
tests (exit code 1), survived when they pass, and an error otherwise, also
when the run takes more than TIMEOUT seconds (a mutation can make a loop
that never ends, such as a reduction whose lead never cancels).  The
tests of every entry first run once on an unmutated copy, where they must
pass.  Run from the repository root:

    python tests/mutations.py             # every entry
    python tests/mutations.py NAME ...    # the named entries

It exits 0 only when every entry run is killed.  Pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHIFT_TEST = "tests/test_poly.py::test_a_degree_bound_keeps_the_low_terms_of_the_whole_shift"
RUNS_TEST = "tests/test_blowup.py::test_runs_that_end_off_the_origin"
RECORD_TEST = "tests/test_fields.py::test_records_keep_value_semantics"
LEAD_SUMS_TEST = "tests/test_series.py::test_lead_sums_of_the_view_match_the_dense_reference"

#: Seconds one pytest run may take.
TIMEOUT = 120

#: name -> (module, snippet, replacement, test ids that must fail)
MUTATIONS = {
    # f's generator reads INF along an arc certified on f, and only f's.
    "certificate-read-for-any-generator": (
        "contact.py",
        "orders[i] = INF if poly == top else arc_image(poly, arc, powers).order()",
        "orders[i] = INF if top is not None else arc_image(poly, arc, powers).order()",
        ["tests/test_contact.py::TestContactWalk::test_a_certified_arc_reads_f_from_its_certificate"],
    ),
    # A contact result recorded on an arc is read only for the algebra object it was walked on.
    "contact-memo-ignores-the-algebra": (
        "contact.py",
        "if arc._contact is None or arc._contact[0] is not algebra:",
        "if arc._contact is None:",
        ["tests/test_contact.py::TestContactWalk::test_a_contact_result_is_read_only_for_its_algebra_object"],
    ),
    # visible_elimination closes an algebra that is not closed.
    "closure-skipped-on-an-unclosed-input": (
        "elimination.py",
        "closed = algebra if algebra.closed else algebra.diff_closure()",
        "closed = algebra",
        ["tests/test_elimination.py::TestVisibleElimination::test_an_unclosed_algebra_is_closed_first"],
    ),
    "every-algebra-reads-as-closed": (
        "rees.py",
        "    closed = False  # not a field",
        "    closed = True  # not a field",
        [
            "tests/test_elimination.py::TestVisibleElimination::test_an_unclosed_algebra_is_closed_first",
            "tests/test_rees.py::TestDiffClosure::test_matches_the_closure_over_every_multi_index",
        ],
    ),
    # The presentation builds its presenting algebra once.
    "presenting-algebra-rebuilt-per-call": (
        "elimination.py",
        "        if self._algebra is None:\n            self.__dict__[\"_algebra\"]",
        "        if True:\n            self.__dict__[\"_algebra\"]",
        ["tests/test_elimination.py::TestPresentingAlgebra::test_built_once_per_presentation"],
    ),
    # A dict that to_json returns is never returned again.
    "to-json-shares-its-rendering": (
        "problems.py",
        'self.__dict__.pop("_rendered", None)',
        'self.__dict__.get("_rendered")',
        ["tests/test_problems_cli.py::TestCli::test_to_json_returns_no_dict_that_a_later_call_shares"],
    ),
    # ord_at reads the orders that its Sing check computed.
    "ord-at-translates-again": (
        "rees.py",
        "return min(Fraction(o) / w for o, w in orders)",
        "return min(Fraction(g.order_at(check_point(point, self.variables, self.field))) / w"
        " for g, w in self.generators)",
        ["tests/test_rees.py::TestOrdAt::test_each_generator_is_translated_once"],
    ),
    # grid_r_bars places the generators' terms once per exponent pattern.
    "grid-plan-per-entry": (
        "contact.py",
        "        if pattern not in plans:\n            plans[pattern] = [degree_classes(",
        "        if True:\n            plans[pattern] = [degree_classes(",
        ["tests/test_contact.py::TestContactWalk::test_grid_r_bars_place_terms_once_per_pattern"],
    ),
    # A unit tuple is admitted only where every degree class sums to zero.
    "grid-units-skip-a-degree-class": (
        "contact.py",
        "if not any(class_sum(members, units, p) for members in classes.values()):",
        "if not any(class_sum(members, units, p) for members in list(classes.values())[1:]):",
        ["tests/test_contact.py::TestSampleArcs::test_pattern_first_grid_matches_the_full_grid"],
    ),
    # A run of blow-ups replays its first steps - 1 blow-ups at the origin.
    "run-replayed-with-its-center-at-every-blow-up": (
        "blowup.py",
        "for blowup in [origin] * (steps - 1) + [chart]:",
        "for blowup in [chart] * steps:",
        [RUNS_TEST],
    ),
    # A run ends where the arc leaves the origin: it is bounded by ord_i.
    "run-bounded-by-ord-plus-one": (
        "blowup.py",
        "steps = min([limit] + [comp.order() for comp in arc.components[:j]])",
        "steps = min([limit] + [comp.order() + 1 for comp in arc.components[:j]])",
        [RUNS_TEST],
    ),
    # Each trace step records its own center.
    "run-center-recorded-on-every-step": (
        "blowup.py",
        "NashStep(chart.index, chart.exceptional, blowup.translation, m, transform)",
        "NashStep(chart.index, chart.exceptional, chart.translation, m, transform)",
        [RUNS_TEST],
    ),
    # Records refuse assignment and deletion, and compare by class and fields.
    "record-assignment-allowed": (
        "fields.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")',
        "        object.__setattr__(self, name, value)",
        [RECORD_TEST],
    ),
    "record-deletion-allowed": (
        "fields.py",
        '        raise AttributeError(f"cannot delete field {name!r}")',
        "        object.__delattr__(self, name)",
        [RECORD_TEST],
    ),
    "record-equal-across-classes": (
        "fields.py",
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, Record):",
        [RECORD_TEST],
    ),
    "chart-map-field-dropped": (
        "blowup.py",
        '_fields = ("variables", "index", "translation")',
        '_fields = ("variables", "index")',
        [RECORD_TEST],
    ),
    "problem-file-field-dropped": (
        "problems.py",
        '"parametrization", "analyses", "options",',
        '"parametrization", "analyses",',
        [RECORD_TEST],
    ),
    "arc-field-dropped": (
        "series.py",
        '_fields = ("variables", "components", "field")',
        '_fields = ("variables", "components")',
        [RECORD_TEST],
    ),
    "series-field-dropped": (
        "series.py",
        '_fields = ("field", "coeffs")',
        '_fields = ("coeffs",)',
        [RECORD_TEST],
    ),
    # Tied generators are ordered by their text.
    "generator-ties-not-broken-by-text": (
        "rees.py",
        "ordered += sorted(run, key=lambda g: str(g[0])) if len(run) > 1 else run",
        "ordered += run",
        ["tests/test_rees.py::test_generator_order_matches_the_formatted_key"],
    ),
    # (c x^e)^n = c^n x^(n e).
    "one-term-power-exponent-map": (
        "poly.py",
        "{tuple(n * i for i in e): pow(c, n, p) if p else c**n}",
        "{tuple(n + i if i else 0 for i in e): pow(c, n, p) if p else c**n}",
        ["tests/test_poly.py::test_power_matches_repeated_products"],
    ),
    "one-term-power-sign": (
        "poly.py",
        "{tuple(n * i for i in e): pow(c, n, p) if p else c**n}",
        "{tuple(n * i for i in e): pow(c, n, p) if p else abs(c) ** n}",
        ["tests/test_poly.py::test_power_matches_repeated_products"],
    ),
    # The parser checks a power's size before building it.
    "power-caps-unchecked": (
        "poly.py",
        "            _check_power(base, exponent, col)\n",
        "",
        ["tests/test_poly.py::test_power_caps_are_checked_before_a_power_is_built"],
    ),
    # No module generates code at import.
    "dataclasses-imported": (
        "fields.py",
        "import math\n",
        "import dataclasses  # noqa: F401\nimport math\n",
        ["tests/test_definitions.py::test_no_module_generates_code_at_import"],
    ),
    "eval-called": (
        "fields.py",
        'INF = float("inf")',
        'INF = eval("float(\'inf\')")',
        ["tests/test_definitions.py::test_no_module_generates_code_at_import"],
    ),
    # The Taylor shift drops the terms above its degree bound from its result, and only then.
    "shift-final-filter-dropped": (
        "poly.py",
        "        if bound < INF:\n            shifted =",
        "        if False:\n            shifted =",
        [SHIFT_TEST],
    ),
    "shift-filters-before-shifting": (
        "poly.py",
        "        shifted = self\n        for i, c in enumerate(point):",
        "        low = {e: a for e, a in self.terms.items() if sum(e) <= bound}\n"
        "        shifted = MultiPoly._of(self.variables, low, field)\n"
        "        for i, c in enumerate(point):",
        [SHIFT_TEST],
    ),
    "shift-caps-an-unmoved-coordinate": (
        "poly.py",
        "            if field.is_zero(c):\n                continue\n            fixed = {}",
        "            if field.is_zero(c):\n"
        "                if caps and i in caps:\n"
        "                    kept = {e: a for e, a in shifted.terms.items() if e[i] <= caps[i]}\n"
        "                    shifted = MultiPoly._of(self.variables, kept, field)\n"
        "                continue\n"
        "            fixed = {}",
        [SHIFT_TEST],
    ),
    # The sparse view lists a term's nonzero exponents only: a zero one would place a
    # term that does not use a zero component as if it did.
    "sparse-view-keeps-zero-exponents": (
        "poly.py",
        "for i, e in enumerate(x) if e)",
        "for i, e in enumerate(x))",
        [
            "tests/test_poly.py::TestSparseView::test_each_term_lists_its_nonzero_exponents",
            "tests/test_series.py::test_lead_sums_of_the_view_match_the_dense_reference",
        ],
    ),
    # The closure takes the derivatives by 1 <= |alpha| < weight, never |alpha| = weight.
    "closure-takes-alpha-up-to-the-weight": (
        "poly.py",
        "field, top, p = self.field, order - 1, self.field.characteristic",
        "field, top, p = self.field, order, self.field.characteristic",
        ["tests/test_poly.py::TestHasseDerivative::test_one_walk_matches_the_reference_per_multi_index"],
    ),
    # A binomial that vanishes mod p drops its term out of the derivative.
    "vanishing-binomial-kept": (
        "poly.py",
        "if a <= left and (not p or b % p)]",
        "if a <= left]",
        ["tests/test_poly.py::TestHasseDerivative::test_one_walk_matches_the_reference_per_multi_index"],
    ),
    # Each generator's lead sums are read from its own view.
    "lead-sums-read-another-generators-view": (
        "contact.py",
        "classes = degree_classes(poly, pattern)",
        "classes = degree_classes(algebra.generators[0][0], pattern)",
        ["tests/test_contact.py::TestContactWalk::test_lead_orders_read_each_generators_own_view"],
    ),
    # A lead lead_i becomes the integer lead_i * b^(a_i) under t -> b t: its class sums
    # are then the true sums times b^d, one power of b per t-degree.
    "leads-cleared-by-b-not-b-to-the-a": (
        "series.py",
        "u.numerator * b**a // u.denominator",
        "u.numerator * b // u.denominator",
        [LEAD_SUMS_TEST],
    ),
    "arc-substitute-divides-by-one-b": (
        "series.py",
        "field.uncleared([total], scale * b**degree)",
        "field.uncleared([total], scale * b)",
        ["tests/test_properties.py::test_monomial_leads"],
    ),
    # Off a monomial arc a generator's order is read from its classes only when the
    # least class, its initial form, does not vanish.
    "lead-orders-accept-a-higher-class": (
        "contact.py",
        "if monomial or low == (classes[0][0] if classes else INF):",
        "if monomial or low != INF:",
        ["tests/test_contact.py::TestContactWalk::test_lowest_terms_cancel"],
    ),
    # A polynomial's cleared view is made once and kept.
    "cleared-view-rebuilt-per-read": (
        "poly.py",
        "        if self._cleared is None:\n",
        "        if True:\n",
        ["tests/test_poly.py::TestSparseView::test_the_cleared_view_is_built_once"],
    ),
    # The one sum rule drops a sum that vanishes.
    "sum-rule-keeps-a-vanished-sum": (
        "poly.py",
        "            terms.pop(e, None)",
        "            terms[e] = c",
        ["tests/test_poly.py::test_taylor_shift_matches_the_ring_map"],
    ),
    # The Taylor shift adds its moved terms to the fixed ones.
    "shift-overwrites-the-fixed-terms": (
        "poly.py",
        "_add_into(field, fixed, zip(raw, field.uncleared(raw.values(), scale * power_scale)))",
        "fixed.update(zip(raw, field.uncleared(raw.values(), scale * power_scale)))",
        ["tests/test_poly.py::TestTranslateSubstitute::test_translation_composition"],
    ),
    # A new pivot of the visible route scales its good part with its bad part.
    "pivot-keeps-its-good-part-unscaled": (
        "elimination.py",
        "pivots[weight, lead] = tuple(scaled)",
        "pivots[weight, lead] = (good, tuple(scaled)[1])",
        ["tests/test_elimination.py::TestVisibleElimination::test_same_generators_as_the_dense_nullspace"],
    ),
}


def _copy(mutation=None) -> tempfile.TemporaryDirectory:
    """A temporary copy of the repository, with the mutation's snippet replaced; ValueError unless it occurs once."""
    workdir = tempfile.TemporaryDirectory(prefix="arcmult-mutation-")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, Path(workdir.name) / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", workdir.name)
    if mutation is not None:
        module, snippet, replacement, _ = mutation
        path = Path(workdir.name) / "src" / "arcmult" / module
        text = path.read_text(encoding="utf-8")
        if text.count(snippet) != 1:
            workdir.cleanup()
            raise ValueError(f"snippet occurs {text.count(snippet)} times in {module}, not once")
        path.write_text(text.replace(snippet, replacement), encoding="utf-8")
    return workdir


def _pytest(workdir, tests) -> str:
    """The outcome of the tests, run in the copy in `workdir` on its src/: "passed", "failed" or an error."""
    env = dict(os.environ, PYTHONPATH=str(Path(workdir.name) / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        outcome = subprocess.run(
            command, cwd=workdir.name, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return f"error: timed out after {TIMEOUT} s"
    return {0: "passed", 1: "failed"}.get(outcome.returncode, f"error: pytest exit {outcome.returncode}")


def main(names) -> int:
    unknown = [name for name in names if name not in MUTATIONS]
    if unknown:
        print(f"unknown mutations: {', '.join(unknown)}")
        return 2
    chosen = names or list(MUTATIONS)
    started = time.perf_counter()
    tests = sorted({test for name in chosen for test in MUTATIONS[name][3]})
    workdir = _copy()
    try:
        outcome = _pytest(workdir, tests)
    finally:
        workdir.cleanup()
    if outcome != "passed":
        print(f"the tests do not pass on the unmutated source ({outcome})")
        return 1
    outcomes = {}
    for name in chosen:
        try:
            workdir = _copy(MUTATIONS[name])
        except ValueError as error:
            outcomes[name] = f"error: {error}"
        else:
            try:
                outcome = _pytest(workdir, MUTATIONS[name][3])
            finally:
                workdir.cleanup()
            outcomes[name] = {"passed": "SURVIVED", "failed": "killed"}.get(outcome, outcome)
        print(f"{outcomes[name]:>9}  {name}", flush=True)
    killed = sum(outcome == "killed" for outcome in outcomes.values())
    print(f"{killed} of {len(outcomes)} killed in {time.perf_counter() - started:.1f} s")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

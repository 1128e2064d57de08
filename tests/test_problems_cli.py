import hashlib
import json
import time
from importlib import resources

import pytest
from property_checks import time_limit

from arcmult import contact, elimination, problems, rees, series
from arcmult.cli import main
from arcmult.contact import sample_arcs
from arcmult.corpus import corpus_names, load_problem, run_corpus, summarize
from arcmult.errors import NotInSingularLocus, ParseError
from arcmult.problems import Options, parse_problem, run

CUSP_PROBLEM = """\
name: cusp_demo
field: 0
variables: x y
poly: y^2 - x^3
fiber: y
arc phi: t^2, t^3
parametrization: t^2, t^3
analyses: nash contact ord_d verify
expect ord_d: 3/2
expect nash phi: 2,2,2,1
expect rho phi: 3
expect r_bar phi: 3/2
expect verify: PASS
"""

NODE_PROBLEM = """\
name: node
field: 0
variables: x y
poly: y^2 - x^2 - x^3
arc a: 2*t + t^2, 2*t + 3*t^2 + t^3
analyses: nash
"""


CUSP_ARC_PROBLEM = """\
name: cusp_arc
field: 0
variables: x y
poly: y^2 - x^3
arc a: t^2 + 2*t^3 + t^4, t^3 + 3*t^4 + 3*t^5 + t^6
analyses: nash
"""

# ROADMAP item 8(d)'s former slow quotient: (t^2, t^3) composed with 2t + 7t^2, whose lifts
# once divided by a chart component with lead 4.  In the graph chart each lift is a slice
# of the arc's coefficients.
COMPOSED_ARC_PROBLEM = CUSP_ARC_PROBLEM.replace(
    "t^2 + 2*t^3 + t^4, t^3 + 3*t^4 + 3*t^5 + t^6", "(2*t + 7*t^2)^2, (2*t + 7*t^2)^3"
)

# y^2 - x^21 along ((t + t^2)^8, (t + t^2)^84): a chain of 84 blow-ups whose lifts are
# coefficient slices, and whose shifts to centers off the origin grow the whole transform.
LONG_COMPOSED_PROBLEM = CUSP_ARC_PROBLEM.replace("y^2 - x^3", "y^2 - x^21").replace(
    "t^2 + 2*t^3 + t^4, t^3 + 3*t^4 + 3*t^5 + t^6", "(t + t^2)^8, (t + t^2)^84"
)

MISSING_FIBER = (
    "problem cusp_demo has no 'fiber:' line; ord_d and verify need a monic presentation"
)

WIDE_PROBLEM = """\
name: wide
field: 0
variables: a b c d e f g z
poly: z^2 - a^3
fiber: z
analyses: verify
"""

#: Over F_2 the widest grid under the cap: (1 + 1)^14 = 16,384 assignments at
#: exponent bound 1, of which 7,167 lie on f.
WIDEST_F2_PROBLEM = (
    "name: widest_f2\nfield: 2\nvariables: " + " ".join(f"x{i}" for i in range(14))
    + "\npoly: " + " + ".join(f"x{i}^2" for i in range(14)) + " + x1*x2*x3\nfiber: x0\nanalyses: verify\n"
)


def exit_code(argv):
    """What main returns, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestProblemFormat:
    def test_parse_and_run_cusp(self):
        problem = parse_problem(CUSP_PROBLEM)
        report = run(problem)
        assert report.verdict == "PASS"
        payload = report.to_json()
        assert payload["analyses"]["ord_d"]["ord_d"] == "3/2"
        assert payload["analyses"]["nash"]["phi"]["sequence"] == [2, 2, 2, 1]
        assert payload["analyses"]["contact"]["phi"]["r_bar"] == "3/2"
        assert payload["analyses"]["verify"]["verdict"] == "PASS"
        assert all(e["match"] for e in payload["expectations"])

    def test_round_trip_through_render(self):
        problem = parse_problem(CUSP_PROBLEM)
        again = parse_problem(problem.render())
        assert again == problem

    def test_bundled_problems_round_trip(self):
        for name in corpus_names():
            problem = load_problem(name)
            assert parse_problem(problem.render(), name_hint=name) == problem

    def test_malformed_poly_reports_line(self):
        bad = CUSP_PROBLEM.replace("y^2 - x^3", "y^^2")
        with pytest.raises(ParseError) as err:
            parse_problem(bad)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("field: 0", "field: 4", 2),
            ("variables: x y", "variables: x x", 3),
            ("fiber: y", "fiber: w", 5),
            ("parametrization: t^2, t^3", "parametrization: t^2, t^^3", 7),
            ("analyses: nash contact ord_d verify", "analyses: nash dance", 8),
            ("expect verify: PASS", "expect verify: PASS\nprecision: 64", 14),
            ("expect verify: PASS", "expect verify: PASS\nmax_steps: -1", 14),
            ("expect verify: PASS", "expect verify: PASS\nbudget: abc", 14),
            ("expect verify: PASS", "expect verify: PASS\nseed: 1.5", 14),
            ("expect r_bar phi: 3/2", "expect rbar phi: 3/2", 12),
            ("expect nash phi: 2,2,2,1", "expect nash: 2,2", 10),
            ("expect ord_d: 3/2", "expect ord_d foo: 3/2", 9),
            ("expect ord_d: 3/2", "expect ord_d: abc", 9),
            ("expect r_bar phi: 3/2", "expect r_bar phi: 1/0", 12),
            ("expect rho phi: 3", "expect rho phi: 1.5", 11),
            ("expect ord_d: 3/2", "expect ord_d: 1e999999999", 9),
            ("expect ord_d: 3/2", "expect ord_d: 3/2\nexpect ord_d: 2", 10),
        ],
        ids=[
            "field", "variables", "fiber", "parametrization", "analyses",
            "precision", "max_steps", "budget", "seed",
            "expect-unknown-kind", "expect-nash-without-arc", "expect-ord_d-with-arc",
            "expect-ord_d-value", "expect-r_bar-value", "expect-rho-value",
            "expect-ord_d-exponent", "expect-duplicate",
        ],
    )
    def test_bad_key_reported_at_its_line(self, old, new, line):
        with pytest.raises(ParseError) as err:
            parse_problem(CUSP_PROBLEM.replace(old, new))
        assert err.value.line == line

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(CUSP_PROBLEM + "mystery: 1\n")

    @pytest.mark.parametrize(
        "key, value", [("max_steps", "-3"), ("budget", "-5")]
    )
    def test_negative_option_rejected(self, key, value):
        with pytest.raises(ParseError):
            parse_problem(CUSP_PROBLEM + f"{key}: {value}\n")

    def test_zero_poly_rejected_at_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_problem(CUSP_PROBLEM.replace("y^2 - x^3", "0"))
        assert err.value.line == 4

    def test_wrong_arity_arc_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(CUSP_PROBLEM.replace("arc phi: t^2, t^3", "arc phi: t^2"))

    def test_equality_ignores_comments_and_spacing(self):
        problem = parse_problem(CUSP_PROBLEM)
        respaced = "# a comment\n" + CUSP_PROBLEM.replace("y^2 - x^3", "y^2-x^3")
        assert parse_problem(respaced) == problem
        assert parse_problem(CUSP_PROBLEM + "seed: 9\n") != problem

    def test_rationals_serialized_in_lowest_terms(self):
        problem = parse_problem(CUSP_PROBLEM)
        problem.analyses = ("contact",)
        payload = run(problem).to_json()
        phi = payload["analyses"]["contact"]["phi"]
        assert phi["r"] == "3" and phi["r_bar"] == "3/2"


class TestCorpus:
    def test_names_cover_both_characteristics(self):
        names = corpus_names()
        assert "cusp_char0" in names and "cusp_char2" in names
        assert len(names) >= 8

    def test_bundled_cusp_char0_report_values(self):
        report = run(load_problem("cusp_char0"))
        payload = report.to_json()
        assert payload["analyses"]["ord_d"]["ord_d"] == "3/2"
        assert payload["analyses"]["nash"]["phi"]["rho"] == 3
        assert payload["analyses"]["nash"]["phi"]["sequence"] == [2, 2, 2, 1]
        assert payload["verdict"] == "PASS"

    def test_bundled_cusp_char2_report_values(self):
        report = run(load_problem("cusp_char2"))
        payload = report.to_json()
        assert payload["analyses"]["ord_d"]["ord_d"] == "2"
        assert payload["analyses"]["nash"]["phi"]["rho"] == 4
        assert payload["analyses"]["nash"]["phi"]["sequence"] == [2, 2, 2, 2, 1]
        assert payload["verdict"] == "PASS"

    def test_cusp_subset_passes(self):
        results = run_corpus("cusp*")
        summary = summarize(results)
        assert summary["problems"] == 3
        assert summary["passed"] == 3

    def test_no_match_is_empty(self):
        assert run_corpus("nomatch") == []


class TestCli:
    def write(self, tmp_path, text, name="problem.problem"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_nash_command(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        assert main(["nash", path]) == 0
        out = capsys.readouterr().out
        assert "[2,2,2,1]" in out and "rho=3" in out

    def test_ord_d_command_json(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        assert main(["ord-d", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analyses"]["ord_d"]["ord_d"] == "3/2"

    def test_verify_command(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        assert main(["verify", path, "--budget", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_contact_trace_determinism(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        outputs = []
        for _ in range(2):
            assert main(["verify", path, "--json", "--seed", "5", "--budget", "25"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM.replace("y^2 - x^3", "y^^2"))
        assert main(["nash", path]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--max-steps", "-3"), ("--budget", "-5")])
    def test_negative_budget_flag_exit_code(self, tmp_path, capsys, flag, value):
        path = self.write(tmp_path, CUSP_PROBLEM)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", path, flag, value])
        assert exit_info.value.code == 2
        assert "must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-steps", "--budget"])
    def test_unbounded_flag_exit_code(self, tmp_path, capsys, flag):
        path = self.write(tmp_path, CUSP_PROBLEM)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", path, flag, "99999999999"])
        assert exit_info.value.code == 2
        assert "must be at most 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["option", "flag"])
    def test_huge_option_exit_code(self, tmp_path, capsys, where):
        # int() refuses more than 4,300 digits; the option reader stops at the literal cap first.
        digits = "9" * 5001
        if where == "option":
            argv = ["verify", self.write(tmp_path, CUSP_PROBLEM + f"budget: {digits}\n")]
        else:
            argv = ["verify", self.write(tmp_path, CUSP_PROBLEM), "--budget", digits]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "1000 digits" in err and len(err.encode()) < 1000

    def test_non_integer_seed_flag_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", path, "--seed", "abc"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("key", Options._fields)
    @pytest.mark.parametrize("command", ["verify", "corpus"])
    def test_every_option_has_a_flag(self, tmp_path, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        if command == "corpus":
            argv = ["corpus", "cusp_char0", flag, "20", "--json"]
        else:
            argv = ["verify", self.write(tmp_path, CUSP_PROBLEM), flag, "20", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"]["cusp_char0"] if command == "corpus" else payload
        assert report["problem"]["options"][key] == 20

    def test_precision_is_not_an_option(self, tmp_path, capsys):
        # A Nash chain reads its lifts as far as it needs: a precision key or flag is refused.
        path = self.write(tmp_path, NODE_PROBLEM + "precision: 64\n")
        assert main(["nash", path]) == 2
        assert "unknown key 'precision' at line 7" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["nash", self.write(tmp_path, NODE_PROBLEM), "--precision", "64"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --precision 64" in capsys.readouterr().err

    def test_zero_poly_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM.replace("y^2 - x^3", "0"))
        assert main(["ord-d", path]) == 2
        assert "polynomial is zero" in capsys.readouterr().err

    def test_fiber_of_degree_one_exit_code(self, tmp_path, capsys):
        text = CUSP_PROBLEM.replace("y^2 - x^3", "y - x^2").replace("arc phi: t^2, t^3", "")
        path = self.write(tmp_path, text)
        assert main(["ord-d", path]) == 2
        assert "fiber degree >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ord-d", "verify"])
    def test_oversized_elimination_pool_exit_code(self, tmp_path, capsys, command):
        # Over F_2 the visible route would build 38,593,250,294,337 products;
        # counting them from the generator weights refuses the input first.
        text = "name: big\nfield: 2\nvariables: x y\npoly: y^250 - x^251\nfiber: y\n"
        start = time.perf_counter()
        assert main([command, self.write(tmp_path, text)]) == 2
        assert time.perf_counter() - start < 1
        assert f"more than {elimination.POOL_CAP} elimination products" in capsys.readouterr().err

    def test_non_monic_fiber_exit_code(self, tmp_path, capsys):
        # x -> 2*t^2, y -> 2*t^3 lies on 2*y^2 - x^3, so only the fiber is at fault.
        text = CUSP_PROBLEM.replace("y^2 - x^3", "2*y^2 - x^3")
        path = self.write(tmp_path, text.replace("arc phi: t^2, t^3", "arc phi: 2*t^2, 2*t^3"))
        assert main(["verify", path]) == 2
        assert "not monic" in capsys.readouterr().err
        # analyses that need no monic presentation still accept the file
        assert main(["contact", path]) == 0

    def test_fiber_not_realizing_the_multiplicity_exit_code(self, tmp_path, capsys):
        # y^2 - x has order 1 at the origin but fiber degree 2: the origin is
        # not in the singular locus, which is an input error, not an engine one.
        text = CUSP_PROBLEM.replace("y^2 - x^3", "y^2 - x").replace("t^2, t^3", "t^2, t")
        path = self.write(tmp_path, text)
        for command in ("ord-d", "verify"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert "does not realize the maximal multiplicity" in err

    def test_deeply_nested_poly_exit_code(self, tmp_path, capsys):
        nested = "(" * 2000 + "x" + ")" * 2000
        path = self.write(tmp_path, CUSP_PROBLEM.replace("y^2 - x^3", nested))
        assert main(["nash", path]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("nash", "y^2 - x^3", "y^2 - x^99999999", "total degree above 1000"),
            ("contact", "y^2 - x^3", "y^2 - x^99999999", "total degree above 1000"),
            ("verify", "y^2 - x^3", "y^2 - x^99999999", "total degree above 1000"),
            ("contact", "phi: t^2, t^3", "phi: t^99999999, t^3", "total degree above 1000"),
            ("nash", "y^2 - x^3", "y^2 - ((3^999)^999)^999*x^3", "exceed 65536 bits"),
            ("nash", "field: 0", "field: 1000000000000000003", "below 2^40"),
            ("ord-d", "y^2 - x^3", "y^2 - (x + y + 1)^1000", "more than 1000 terms"),
            pytest.param(
                "contact", "x^3", "*".join(["x^999"] * 100), "product of total degree above 1000",
                id="contact-chain-of-100-x^999",
            ),
            ("verify", "fiber: y", "fiber: y\nbudget: 99999999999", "at most 10000"),
            ("nash", "fiber: y", "fiber: y\nmax_steps: 99999999999", "at most 10000"),
        ],
    )
    def test_unbounded_input_exit_code(self, tmp_path, capsys, command, old, new, message):
        # Each input used to run without bound; it is now refused before any work.
        path = self.write(tmp_path, CUSP_PROBLEM.replace(old, new))
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, sequence",
        [
            (NODE_PROBLEM, "[2,1] rho=1"),
            (CUSP_ARC_PROBLEM, "[2,2,2,1] rho=3"),
            (COMPOSED_ARC_PROBLEM, "[2,2,2,1] rho=3"),
        ],
        ids=["node", "cusp", "composed-lead-4"],
    )
    def test_max_steps_does_not_size_the_division(self, tmp_path, capsys, text, sequence):
        # A lift is a slice of the arc's coefficients, and the chain ends where the
        # multiplicity drops, so the largest max_steps allowed still answers at once, with
        # the same text.
        path = self.write(tmp_path, text)
        assert main(["nash", path]) == 0
        expected = capsys.readouterr().out
        assert sequence in expected
        with time_limit(5):
            assert main(["nash", path, "--max-steps", "10000"]) == 0
        assert capsys.readouterr().out == expected

    def test_a_long_chain_along_a_composed_arc(self, tmp_path, capsys):
        # Every shift to a center off the origin grew the carried transform, and 32
        # blow-ups took minutes.  The chain drops the terms of degree above m_0 (left + 1),
        # which never set a multiplicity.
        path = self.write(tmp_path, LONG_COMPOSED_PROBLEM)
        with time_limit(5):
            assert main(["nash", path]) == 0
        assert f"[{','.join(['2'] * 33)}] truncated" in capsys.readouterr().out

    def test_a_long_chain_reads_its_lifts_to_the_end(self, tmp_path, capsys):
        # Blow-up 84 reads what the lifts since blow-up 1 left of the arc: each lift is a
        # slice of the coefficients, so every one that is read is exact.
        path = self.write(tmp_path, LONG_COMPOSED_PROBLEM)
        with time_limit(1):
            assert main(["nash", path, "--max-steps", "100"]) == 0
        assert f"[{','.join(['2'] * 84)},1] rho=84" in capsys.readouterr().out

    def test_wide_grid_exit_code(self, tmp_path, capsys):
        # (1 + 6)^8 grid arcs at exponent bound 1 are far above the 20000 cap.
        path = self.write(tmp_path, WIDE_PROBLEM)
        with time_limit(5):
            assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "8 variables" in err and "20000" in err and "Traceback" not in err

    def test_widest_f2_grid_verifies_in_time(self, tmp_path, capsys):
        # Each of the 7,167 grid arcs is read from its exponent pattern; only the witness is built.
        path = self.write(tmp_path, WIDEST_F2_PROBLEM)
        with time_limit(5):
            assert main(["verify", "--json", path]) == 0
        report = json.loads(capsys.readouterr().out)["analyses"]["verify"]
        assert (report["arcs_checked"], report["verdict"]) == (7167, "PASS")

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "binary.problem"
        path.write_bytes(b"name: x\xff\n")
        assert main(["nash", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_missing_file_exit_code(self, capsys):
        assert main(["nash", "/no/such/file.problem"]) == 2

    @pytest.mark.parametrize("command", ["ord-d", "verify"])
    def test_missing_fiber_exit_code(self, tmp_path, capsys, command):
        text = "\n".join(
            line for line in CUSP_PROBLEM.splitlines() if not line.startswith("fiber")
        )
        path = self.write(tmp_path, text)
        assert main([command, path]) == 2
        assert capsys.readouterr().err == f"input error: {MISSING_FIBER}\n"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (
                CUSP_PROBLEM.replace("fiber: y\n", "").replace(
                    "analyses: nash contact ord_d verify", "analyses: contact verify"
                ),
                ParseError,
                MISSING_FIBER,
            ),
            (
                "name: smooth\nfield: 0\nvariables: x y\npoly: y^2 - x\nfiber: y\n"
                "arc phi: t^2, t\nanalyses: verify\n",
                NotInSingularLocus,
                "presentation does not realize the maximal multiplicity at the origin",
            ),
        ],
        ids=["fiberless-contact-verify", "verify-off-singular-locus"],
    )
    def test_run_error_of_a_shared_artefact(self, text, error, message):
        # The presentation and ord_d are built once, after contact and before verify.
        with pytest.raises(error) as raised:
            run(parse_problem(text))
        assert str(raised.value) == message

    def test_arc_off_variety_exit_code(self, tmp_path, capsys):
        text = CUSP_PROBLEM.replace("arc phi: t^2, t^3", "arc phi: t^3, t^2")
        path = self.write(tmp_path, text)
        assert main(["nash", path]) == 2

    @pytest.mark.parametrize(
        "command, name",
        [("nash", "arc x -> t^3, y -> t^2"), ("contact", "arc phi"), ("verify", "candidate phi")],
    )
    def test_arc_off_variety_names_the_arc(self, tmp_path, capsys, command, name):
        # y^2 - x^3 maps to t^4 - t^9 along the arc; the message names the arc, not the image.
        path = self.write(tmp_path, CUSP_PROBLEM.replace("arc phi: t^2, t^3", "arc phi: t^3, t^2"))
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert f"{name} does not lie on the hypersurface" in err and "t^9" not in err

    @pytest.mark.parametrize(
        "analyses", ["nash contact", "contact", "nash contact ord_d verify", "contact verify", "verify"]
    )
    def test_each_arc_is_certified_once(self, monkeypatch, analyses):
        # A certificate builds f's image along the arc (`arc_substitute`, called by
        # certify_on_hypersurface alone); a second one on the same f is a read.
        # verify's sampler certifies the parametrization.
        certified = []
        substitute = series.arc_substitute
        monkeypatch.setattr(series, "arc_substitute", lambda poly, arc: certified.append(arc) or substitute(poly, arc))
        text = CUSP_PROBLEM.replace("analyses: nash contact ord_d verify", f"analyses: {analyses}")
        text += "arc psi: t^4, t^6\n"
        problem = parse_problem(text)
        assert run(problem).verdict == "PASS"
        assert certified == list(problem.arcs.values()) + [problem.parametrization] * ("verify" in analyses)

    def test_monomial_arcs_build_no_series_image(self, monkeypatch):
        # Along (t^(2n), t^(21n)) f's leading terms are its whole image, both for
        # the certificate and for the contact walk, where f's initial form vanishes.
        images = []
        image = series._image
        monkeypatch.setattr(series, "_image", lambda *args: images.append(args) or image(*args))
        arcs = "".join(f"arc n{n}: t^{2 * n}, t^{21 * n}\n" for n in (1, 2, 4))
        text = f"name: deep\nfield: 0\nvariables: x y\npoly: y^2 - x^21\n{arcs}analyses: nash contact\n"
        text += "max_steps: 88\n"
        report = run(parse_problem(text))
        assert [nash.rho for nash in report.analyses["nash"].values()] == [21, 42, 84]
        assert images == []

    def test_each_arc_and_series_is_scanned_once(self, monkeypatch):
        # A seed-1 deep-nash problem.  The certificate scans each named arc's leads, and
        # contact reads them.  No series has its order scanned twice.  The 6 named
        # components carry the order they were parsed with, and a lifted component keeps
        # its order less the run's length, unless the run ends at its lowest term: the x
        # lift of each arc's first run (runs of 2 and 19, 4 and 38, 8 and 76), which is
        # zero.  run_length scans those 3 and no other.  The graph coordinate's order is
        # never read: it is the chart.
        text = (
            "name: dn_y2_x21_f0\nfield: 0\nvariables: x y\npoly: y^2 - x^21\n"
            "arc n1: 1*t^2, -1*t^21\narc n2: 1*t^4, -1*t^42\narc n4: 1*t^8, -1*t^84\n"
            "analyses: nash contact\nmax_steps: 88\n"
        )
        scans = {"_order": [], "_leads": []}  # the objects whose read scans, by the attribute it fills

        def spied(read, attribute):
            def spy(value):
                if attribute not in vars(value):
                    scans[attribute].append(value)
                return read(value)

            return spy

        monkeypatch.setattr(series.Arc, "leads", spied(series.Arc.leads, "_leads"))
        monkeypatch.setattr(series.TruncatedSeries, "order", spied(series.TruncatedSeries.order, "_order"))
        problem = parse_problem(text)
        report = run(problem)
        iterations = sum(len(nash.runs) for nash in report.analyses["nash"].values())
        assert iterations == 6
        assert [id(arc) for arc in scans["_leads"]] == [id(arc) for arc in problem.arcs.values()]
        assert len({id(s) for s in scans["_order"]}) == len(scans["_order"]) == 3
        assert all(s.is_exactly_zero() for s in scans["_order"])

    @pytest.mark.parametrize("expects, builds", [(False, 1), (True, 1)])
    def test_the_analyses_report_is_built_for_expect_lines_and_output(self, monkeypatch, expects, builds):
        # run builds it only to check golden values, and to_json's output takes that one over;
        # without expect lines to_json builds it.
        text = CUSP_PROBLEM if expects else "".join(
            line + "\n" for line in CUSP_PROBLEM.splitlines() if not line.startswith("expect ")
        )
        built = []
        analyses_json = problems._analyses_json
        monkeypatch.setattr(problems, "_analyses_json", lambda *args: built.append(1) or analyses_json(*args))
        report = run(parse_problem(text))
        assert len(report.expectations) == 5 * expects
        assert report.to_json()["verdict"] == "PASS"
        assert len(built) == builds

    def test_to_json_returns_no_dict_that_a_later_call_shares(self):
        # The first to_json takes over the analyses that run rendered for the expect
        # lines; a caller that changes what it returned changes no later output.
        report = run(parse_problem(CUSP_PROBLEM))
        first = report.to_json()
        expected = json.dumps(first, sort_keys=True)
        first["analyses"]["ord_d"]["ord_d"] = "changed"
        for _ in range(2):
            again = report.to_json()
            assert json.dumps(again, sort_keys=True) == expected
            again["analyses"].clear()

    def test_verdict_reads_the_theorem_report(self, monkeypatch):
        # No arc on y^2 = x^3 + x^4 attains ord_d: verify is INCONCLUSIVE, so the run FAILs.
        text = "name: no_witness\nfield: 0\nvariables: x y\npoly: y^2 - x^3 - x^4\nfiber: y\nanalyses: verify\n"
        built = []
        analyses_json = problems._analyses_json
        monkeypatch.setattr(problems, "_analyses_json", lambda *args: built.append(1) or analyses_json(*args))
        report = run(parse_problem(text))
        assert report.verdict == "FAIL" and built == []
        assert report.to_json()["analyses"]["verify"]["verdict"] == "INCONCLUSIVE"

    def test_corpus_builds_images_only_along_phi3(self, monkeypatch):
        # phi3, the one arc of each bundled problem that is not monomial, has f's
        # image built once, for its certificate: its contact walk reads f's order
        # from that certificate, and verify reads phi3's contact result.
        images, along = [], []
        image, arc_image = series._image, series.arc_image
        monkeypatch.setattr(series, "_image", lambda *args: images.append(args) or image(*args))
        for module in (series, contact):
            monkeypatch.setattr(
                module, "arc_image", lambda poly, arc, *rest: along.append(arc) or arc_image(poly, arc, *rest)
            )
        loaded = [load_problem(name) for name in corpus_names()]
        for problem in loaded:
            run(problem)
        assert len(images) == len(along) == 12
        assert along == [problem.arcs["phi3"] for problem in loaded]

    def test_each_artefact_is_built_once_per_run(self, monkeypatch):
        # One G and one ord_d per problem.  The closures are each G, the 8
        # Tschirnhausen coefficient algebras and, for each of the 4 problems
        # whose degree the characteristic divides, the visible route's result:
        # the route eliminates on G itself.
        calls = dict.fromkeys(("presenting_algebra", "ord_d", "diff_closure"), 0)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for module in (problems, elimination, rees):
            for name in ("presenting_algebra", "ord_d"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        diff_closure = rees.ReesAlgebra.diff_closure
        monkeypatch.setattr(rees.ReesAlgebra, "diff_closure", counted("diff_closure", diff_closure))
        for name in corpus_names():
            problem = load_problem(name)
            assert problem.analyses == ("nash", "contact", "ord_d", "verify")
            assert run(problem).verdict == "PASS"
        assert calls == {"presenting_algebra": 12, "ord_d": 12, "diff_closure": 24}

    def test_parametrization_off_variety_exit_code(self, tmp_path, capsys):
        # x -> t^3, y -> t^2 maps y^2 - x^3 to t^4 - t^9, so none of its
        # compositions lies on the curve either: verify must refuse it.
        bundled = resources.files("arcmult").joinpath("data", "cusp_char0.problem")
        text = bundled.read_text(encoding="utf-8").replace(
            "parametrization: t^2, t^3", "parametrization: t^3, t^2"
        )
        path = self.write(tmp_path, text)
        assert main(["verify", path]) == 2
        assert "parametrization does not lie on the hypersurface" in capsys.readouterr().err

    def test_huge_literal_exit_code(self, tmp_path, capsys):
        # int() refuses more than 4,300 digits; the parser stops at its own cap first.
        literal = "9" * 5001
        path = self.write(tmp_path, CUSP_PROBLEM.replace("y^2 - x^3", f"y^2 - {literal}*x^3"))
        assert main(["nash", path]) == 2
        err = capsys.readouterr().err
        assert "literal of more than 1000 digits at column 7" in err and "Traceback" not in err

    def test_expect_mismatch_exit_code(self, tmp_path, capsys):
        text = CUSP_PROBLEM.replace("expect ord_d: 3/2", "expect ord_d: 2")
        path = self.write(tmp_path, text)
        assert main(["ord-d", path]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["nash", "contact"])
    def test_expect_rho_of_a_missing_arc_fails(self, tmp_path, capsys, command):
        path = self.write(tmp_path, CUSP_PROBLEM.replace("expect rho phi: 3", "expect rho psi: 3"))
        assert main([command, path]) == 1
        assert "expect rho psi: 3 -> missing arc [MISMATCH]" in capsys.readouterr().out

    @pytest.mark.parametrize("value, code", [("inf", 0), ("1", 1)])
    def test_expect_infinite_r_bar(self, tmp_path, capsys, value, code):
        # over F_2 the arc (0, t, t^2) lies in the singular locus: r_bar = inf
        text = (
            "field: 2\nvariables: x y z\npoly: z^2 - x^3 - y^4\narc phi: 0, t, t^2\n"
            f"analyses: contact\nexpect r_bar phi: {value}\n"
        )
        assert main(["contact", self.write(tmp_path, text)]) == code
        assert f"expect r_bar phi: {value} -> inf" in capsys.readouterr().out

    def test_engine_error_exit_code(self, tmp_path, capsys):
        # over F_2 the initial form (u+v)^2 vanishes at the only unit tuple,
        # so the minimizing-arc search fails with a rational-witness error
        text = """\
name: no_unit
field: 2
variables: u v y
poly: y^2 + u^3 + 3*u^2*v + 3*u*v^2 + v^3
fiber: y
arc gamma: t^2, t^2, 0
analyses: verify
"""
        path = self.write(tmp_path, text)
        assert main(["verify", path]) == 3
        assert "engine error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "poly, field, arcs",
        [("z^2", 0, 624), ("z^2", 2, 80), ("z^3", 3, 288)],
        ids=["tschirnhausen-q", "visible-f2", "visible-f3"],
    )
    def test_pure_fiber_power_has_infinite_ord_d(self, tmp_path, capsys, poly, field, arcs):
        # f = z^m has multiplicity m everywhere: elimination leaves no
        # generator, so ord_d is inf.  Every arc on z^m = 0 has z = 0, so
        # r = inf = ord_d: verify passes with no minimizing arc to build.
        # Each of those arcs is evaluated, so each counts in arcs_checked.
        text = (
            f"field: {field}\nvariables: x y z\npoly: {poly}\nfiber: z\n"
            "analyses: ord_d verify\nexpect ord_d: inf\n"
        )
        path = self.write(tmp_path, text)
        assert main(["ord-d", path]) == 0
        out = capsys.readouterr().out
        assert "ord_d = inf" in out and "expect ord_d: inf -> inf [ok]" in out
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert f"verify: PASS (ord_d=inf, min r_bar=inf, arcs={arcs}, witness=sample_0)" in out
        assert main(["verify", "--json", path]) == 0
        report = json.loads(capsys.readouterr().out)["analyses"]["verify"]
        problem = parse_problem(text)
        sampled = sample_arcs(problem.poly, problem.options.budget, problem.options.seed)
        assert report["arcs_checked"] == len(sampled) == arcs
        assert report["min_r_bar"] == "inf" and report["constructed_arc"] is None
        assert all(report["checks"].values())

    def test_corpus_command(self, capsys):
        assert main(["corpus", "cusp_char0"]) == 0
        out = capsys.readouterr().out
        assert "cusp_char0" in out and "1/1 problems PASS" in out

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--json"], "aceb2f24609393d33b44689d6c3534a639873fece0220343e1d8d34b8a6aa6b2"),
            (
                ["--json", "--trace"],
                "5d196d1995192008d05538dc8d639ab2cb04b848ea2dcfc6e6c2fa9354dd51f4",
            ),
        ],
    )
    def test_corpus_json_is_byte_identical(self, capsys, flags, digest):
        # Pins the whole bundled-corpus report; any change to it must be deliberate.
        assert main(["corpus", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "text, digest",
        [
            (
                "name: deep_chain\nfield: 0\nvariables: x y\npoly: y^2 - x^21\n"
                "arc phi: t^8, t^84\nmax_steps: 100\n",
                "2cc2356a08a873136e82263c0cb28079007c98d2394df4b07f0a77c404f9d08a",
            ),
            (
                "name: surface_char3\nfield: 3\nvariables: x y z\n"
                "poly: z^3 - x^4 - y^5\narc phi: t^3, 0, t^4\n",
                "2e217246ff6d842ce556a0a1cde0e06e3adb97802fd3f3cb54b564913716601b",
            ),
        ],
        ids=["y2-x21-84-blowups", "surface-char3"],
    )
    def test_nash_trace_is_byte_identical(self, tmp_path, capsys, text, digest):
        # Pins every chart, center and strict transform of a long blow-up chain.
        path = self.write(tmp_path, text)
        assert main(["nash", path, "--json", "--trace"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "field, poly, arc, digest",
        [
            (2, "z^2 - x^3 - y^4", "t^2, 0, t^3", "fb53b62be0c7f5ed9da55c45e15812453d7bbcf82ee83f94558f8617f5baaa8f"),
            (3, "z^3 - x^4 - y^5", "t^3, 0, t^4", "6496c49f46da4b516273e806ee9459d2c5f5713ff15a6bbdbcd69d43b13ae677"),
        ],
        ids=["visible-f2", "visible-f3"],
    )
    def test_surface_report_is_byte_identical(self, field, poly, arc, digest):
        # Pins all four analyses, traces included, on the three-variable visible route.
        text = (
            f"name: surface\nfield: {field}\nvariables: x y z\npoly: {poly}\nfiber: z\n"
            f"arc phi: {arc}\nanalyses: nash contact ord_d verify\n"
        )
        report = run(parse_problem(text)).to_json(include_trace=True)
        assert report["verdict"] == "PASS"
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, flag_sets, digest",
        [
            ("nash", ([], ["--trace"]), "f0ac98fc98e68c60c41fba61e34f1be261cf3284b2f0e11edbc635b956488692"),
            ("contact", ([], ["--trace"]), "1f397b9843ab8556bb9163b8e9c2dbe34b8e0dd0a3de4b9901b044946af4c93d"),
            ("ord-d", ([], ["--trace"]), "ccde1a4ad41dadfd46c6fe525cb7ff547f1f75a60a7fea58eaf2e88d77c89368"),
            ("verify", ([],), "5b0993bf1810fb7d1294432d842a35be855f1e23aab3dd814c8a04ecabbe31fb"),
        ],
        ids=["nash", "contact", "ord-d", "verify"],
    )
    def test_human_text_is_byte_identical(self, capsys, command, flag_sets, digest):
        # Pins the text, exit code included, that each command prints for every bundled problem.
        data = resources.files("arcmult").joinpath("data")
        outputs = []
        for name in corpus_names():
            for flags in flag_sets:
                code = main([command, str(data.joinpath(f"{name}.problem")), *flags])
                outputs.append(f"{code}\n{capsys.readouterr().out}")
        assert hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest() == digest

    def test_corpus_no_match_warns(self, capsys):
        assert main(["corpus", "nomatch"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_trace_flag_prints_steps(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        assert main(["nash", path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "chart" in out and "transform" in out

import contextlib
import dataclasses
import hashlib
import json
import signal
from importlib import resources

import pytest

from arcmult.cli import main
from arcmult.corpus import corpus_names, load_problem, run_corpus, summarize
from arcmult.errors import ParseError
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

WIDE_PROBLEM = """\
name: wide
field: 0
variables: a b c d e f g z
poly: z^2 - a^3
fiber: z
analyses: verify
"""


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test when the block runs longer than `seconds` (SIGALRM)."""

    def expire(signum, frame):
        pytest.fail(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
            ("expect verify: PASS", "expect verify: PASS\nprecision: 0", 14),
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
        "key, value", [("max_steps", "-3"), ("budget", "-5"), ("precision", "0")]
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

    @pytest.mark.parametrize("flag", ["--precision", "--max-steps", "--budget"])
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

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(Options)])
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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_precision_flag_exit_code(self, tmp_path, capsys, value):
        path = self.write(tmp_path, NODE_PROBLEM)
        with pytest.raises(SystemExit) as exit_info:
            main(["nash", path, "--precision", value])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_nonpositive_precision_option_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, NODE_PROBLEM + "precision: 0\n")
        assert main(["nash", path]) == 2
        assert "input error" in capsys.readouterr().err

    def test_zero_poly_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM.replace("y^2 - x^3", "0"))
        assert main(["ord-d", path]) == 2
        assert "polynomial is zero" in capsys.readouterr().err

    def test_fiber_of_degree_one_exit_code(self, tmp_path, capsys):
        text = CUSP_PROBLEM.replace("y^2 - x^3", "y - x^2").replace("arc phi: t^2, t^3", "")
        path = self.write(tmp_path, text)
        assert main(["ord-d", path]) == 2
        assert "fiber degree >= 2" in capsys.readouterr().err

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
            ("nash", "fiber: y", "fiber: y\nprecision: 99999999999", "at most 10000"),
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
        [(NODE_PROBLEM, "[2,1] rho=1"), (CUSP_ARC_PROBLEM, "[2,2,2,1] rho=3")],
        ids=["node", "cusp"],
    )
    def test_precision_does_not_size_the_division(self, tmp_path, capsys, text, sequence):
        # Each blow-up lift divides by a monomial, which costs O(precision), so
        # the largest precision allowed still answers at once, with the same text.
        path = self.write(tmp_path, text)
        assert main(["nash", path]) == 0
        expected = capsys.readouterr().out
        assert sequence in expected
        with time_limit(5):
            assert main(["nash", path, "--precision", "10000"]) == 0
        assert capsys.readouterr().out == expected

    def test_wide_grid_exit_code(self, tmp_path, capsys):
        # (1 + 6)^8 grid arcs at exponent bound 1 are far above the 20000 cap.
        path = self.write(tmp_path, WIDE_PROBLEM)
        with time_limit(5):
            assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "8 variables" in err and "20000" in err and "Traceback" not in err

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "binary.problem"
        path.write_bytes(b"name: x\xff\n")
        assert main(["nash", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_missing_file_exit_code(self, capsys):
        assert main(["nash", "/no/such/file.problem"]) == 2

    def test_missing_fiber_exit_code(self, tmp_path, capsys):
        text = "\n".join(
            line for line in CUSP_PROBLEM.splitlines() if not line.startswith("fiber")
        )
        path = self.write(tmp_path, text)
        assert main(["ord-d", path]) == 2

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

    def test_corpus_command(self, capsys):
        assert main(["corpus", "cusp_char0"]) == 0
        out = capsys.readouterr().out
        assert "cusp_char0" in out and "1/1 problems PASS" in out

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--json"], "c63b3baee2ea59d36f7325db37da7af7f1ebb89c9b6ab135c3b92e3adb54f53a"),
            (
                ["--json", "--trace"],
                "c583280e2d46ffcea72620c2c85654071ae3e8d8448a9b081f10ec2dba3c8704",
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
                "eaddce1089851c83f0e2d5906edc138cecf2dedfad38248b9c902f1c2f7a710f",
            ),
            (
                "name: surface_char3\nfield: 3\nvariables: x y z\n"
                "poly: z^3 - x^4 - y^5\narc phi: t^3, 0, t^4\n",
                "337106f199f1bca27bbb81ba1cfcd743f9b6b6249d0946240b0c5f5ee2b10b26",
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
        "command, flag_sets, digest",
        [
            ("nash", ([], ["--trace"]), "77586d5cf25fd611693c74fb2d2d9146cc1cd8906c103845d1fdb5b7847749c2"),
            ("contact", ([], ["--trace"]), "1f397b9843ab8556bb9163b8e9c2dbe34b8e0dd0a3de4b9901b044946af4c93d"),
            ("ord-d", ([], ["--trace"]), "ccde1a4ad41dadfd46c6fe525cb7ff547f1f75a60a7fea58eaf2e88d77c89368"),
            ("verify", ([],), "78208abac97889e375400794bd00692f38b31ab4edcbdc7c26048c19a9cf4fb1"),
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

import hashlib
import json

import pytest

from arcmult.cli import main
from arcmult.corpus import corpus_names, load_problem, run_corpus, summarize
from arcmult.errors import ParseError
from arcmult.problems import parse_problem, run

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
        path = self.write(tmp_path, CUSP_PROBLEM.replace("y^2 - x^3", "2*y^2 - x^3"))
        assert main(["verify", path]) == 2
        assert "not monic" in capsys.readouterr().err
        # analyses that need no monic presentation still accept the file
        assert main(["contact", path]) == 0

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
        ],
    )
    def test_unbounded_input_exit_code(self, tmp_path, capsys, command, old, new, message):
        # Each input used to run without bound; it is now refused before any work.
        path = self.write(tmp_path, CUSP_PROBLEM.replace(old, new))
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

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

    def test_expect_mismatch_exit_code(self, tmp_path, capsys):
        text = CUSP_PROBLEM.replace("expect ord_d: 3/2", "expect ord_d: 2")
        path = self.write(tmp_path, text)
        assert main(["ord-d", path]) == 1
        assert "MISMATCH" in capsys.readouterr().out

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

    def test_corpus_no_match_warns(self, capsys):
        assert main(["corpus", "nomatch"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_trace_flag_prints_steps(self, tmp_path, capsys):
        path = self.write(tmp_path, CUSP_PROBLEM)
        assert main(["nash", path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "chart" in out and "transform" in out

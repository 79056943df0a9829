import json

import pytest

from divset.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def yes_instance(tmp_path):
    return write(tmp_path / "yes.inst", "3 2 2\n000\n111\n")


@pytest.fixture
def no_instance(tmp_path):
    return write(tmp_path / "no.inst", "2 2 1\n00\n01\n")


class TestSolve:
    def test_yes_exit_zero_and_solution(self, yes_instance, tmp_path, capsys):
        out = tmp_path / "out.sol"
        assert main(["solve", yes_instance, "--output", str(out)]) == 0
        assert out.read_text() == "YES\n000\n111\nS: 0 1\n"

    def test_no_exit_one(self, no_instance):
        assert main(["solve", no_instance]) == 1

    def test_malformed_exit_two(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.inst", "2 1 0\n0x\n")
        assert main(["solve", bad]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["solve", "/nonexistent/file"]) == 2

    def test_oracle_flag(self, yes_instance):
        assert main(["solve", yes_instance, "--oracle"]) == 0

    def test_stdout_payload(self, yes_instance, capsys):
        main(["solve", yes_instance])
        assert capsys.readouterr().out == "YES\n000\n111\nS: 0 1\n"

    def test_override_marks_uncertified_and_cross_checks(self, yes_instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["solve", yes_instance, "--zeta-gate", "4", "--report", str(report_path)]
        )
        assert code == 0
        assert "NOT certified" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["certified"] is False
        assert report["oracle_agrees"] is True

    def test_report_reproducible_modulo_timings(self, yes_instance, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(["solve", yes_instance, "--report", str(p)])
        reports = [json.loads(p.read_text()) for p in paths]
        for report in reports:
            report.pop("timings")
        assert reports[0] == reports[1]


class TestVerify:
    def test_pipeline_round_trip(self, tmp_path):
        inst = write(tmp_path / "i.inst", "3 2 1\n0?0\n111\n")
        sol = tmp_path / "i.sol"
        assert main(["solve", inst, "--output", str(sol)]) == 0
        assert main(["verify", inst, str(sol)]) == 0

    def test_overwritten_entry_fails(self, tmp_path, capsys):
        inst = write(tmp_path / "i.inst", "2 2 1\n0?\n11\n")
        sol = write(tmp_path / "i.sol", "YES\n10\n11\nS: 0 1\n")
        assert main(["verify", inst, sol]) == 1
        assert "completion mismatch" in capsys.readouterr().out

    def test_wrong_selection_size(self, tmp_path):
        inst = write(tmp_path / "i.inst", "2 2 1\n00\n11\n")
        sol = write(tmp_path / "i.sol", "YES\n00\n11\nS: 0\n")
        assert main(["verify", inst, sol]) == 1

    def test_parse_error_exit_two(self, tmp_path):
        inst = write(tmp_path / "i.inst", "2 2 1\n00\n11\n")
        sol = write(tmp_path / "i.sol", "MAYBE\n")
        assert main(["verify", inst, sol]) == 2


class TestGenerate:
    def test_is_w1_p3(self, tmp_path, capsys):
        graph = write(tmp_path / "p3.graph", "3 2\n1 2\n2 3\n")
        assert main(["generate", "is-w1", graph, "-k", "2"]) == 0
        assert capsys.readouterr().out == "8 2 2\n10100000\n11000000\n01000010\n"

    def test_is_w1_needs_two_vertices(self, tmp_path, capsys):
        graph = write(tmp_path / "k1.graph", "1 0\n")
        assert main(["generate", "is-w1", graph, "-k", "1"]) == 2

    def test_embed_k2(self, tmp_path, capsys):
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["generate", "embed", graph]) == 0
        assert capsys.readouterr().out == "100\n010\n110\n111\n"

    def test_is_r2_disjoint_pairs(self, tmp_path, capsys):
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["generate", "is-r2", graph, "-k", "1", "--disjoint-pairs"]) == 0
        assert capsys.readouterr().out == "4 2 2\n1100\n0011\n1110\n1011\n"

    def test_missing_k(self, tmp_path):
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["generate", "is-r2", graph]) == 2


class TestFo:
    def test_check_true(self, tmp_path, capsys):
        formula = write(tmp_path / "f.fo", "exists x. exists y. (~(x=y) & E(x,y))\n")
        graph = write(tmp_path / "k3.graph", "3 3\n1 2\n1 3\n2 3\n")
        assert main(["fo", "check", formula, graph]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_check_false_exit_one(self, tmp_path, capsys):
        formula = write(tmp_path / "f.fo", "exists x. E(x,x)\n")
        graph = write(tmp_path / "k3.graph", "3 3\n1 2\n1 3\n2 3\n")
        assert main(["fo", "check", formula, graph]) == 1

    def test_rewrite_prints_ratio(self, tmp_path, capsys):
        formula = write(tmp_path / "f.fo", "exists x. exists y. E(x,y)\n")
        assert main(["fo", "rewrite", formula]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "exists" in out

    def test_harness_record(self, tmp_path, capsys):
        formula = write(tmp_path / "f.fo", "forall x. exists y. E(x,y)\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        report_path = tmp_path / "record.json"
        assert main(["fo", "harness", formula, graph, "--report", str(report_path)]) == 0
        record = json.loads(report_path.read_text())
        assert "agree" in record and "h_holds" in record and "g_holds" in record

    def test_crash_exits_two_not_false(self, tmp_path, capsys):
        # The recursive parser overflows on this nesting; exit 1 would read
        # as "false".
        formula = write(tmp_path / "deep.fo", "exists x. " + "~" * 20000 + "x=x\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["fo", "check", formula, graph]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_formula_exit_two(self, tmp_path):
        formula = write(tmp_path / "f.fo", "E(x,y)\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["fo", "check", formula, graph]) == 2


class TestBench:
    def test_empty_selection(self, capsys):
        assert main(["bench", "--only", "nonexistent-suite"]) == 0

    def test_deterministic_digests(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["bench", "--only", "wildcards", "--seed", "7", "--report", str(p)]) == 0
        reports = [json.loads(p.read_text()) for p in paths]
        digests = [[case["digest"] for case in r["cases"]] for r in reports]
        assert digests[0] == digests[1]
        answers = [[case["answer"] for case in r["cases"]] for r in reports]
        assert answers[0] == answers[1]

import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import divset
from divset.cli import _BENCH_CASES, _bench_instance, _digest, main
from divset.solver import neighborhood_gate, solve
from divset.vectors import serialize_instance, verify_solution


# Every character str.isspace() accepts other than the blanks that separate
# tokens (space, tab, CR, FF, VT) and the newline.
OTHER_SPACES = [
    c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in " \t\r\f\v\n"
]


def write(path, text):
    path.write_text(text)
    return str(path)


def child_env():
    """The environment for a `python -m divset.cli` child: this checkout's
    package first on the path, and buffered streams."""
    src = str(Path(divset.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return env


@pytest.fixture
def yes_instance(tmp_path):
    return write(tmp_path / "yes.inst", "3 2 2\n000\n111\n")


@pytest.fixture
def no_instance(tmp_path):
    return write(tmp_path / "no.inst", "2 2 1\n00\n01\n")


@pytest.fixture
def past_oracle_cap(tmp_path):
    # A YES instance with more rows than the exhaustive solver accepts.
    rows = "000 010 000 000 00? 010 0?0 ?00 000 00? 000 100 000 000 000 000 101 001"
    return write(tmp_path / "wide.inst", "3 3 1\n" + "\n".join(rows.split()) + "\n")


class TestSolve:
    def test_yes_exit_zero_and_solution(self, yes_instance, tmp_path, capsys):
        out = tmp_path / "out.sol"
        assert main(["solve", yes_instance, "--output", str(out)]) == 0
        assert out.read_text() == "YES\n000\n111\nS: 0 1\n"

    def test_no_exit_one(self, no_instance):
        assert main(["solve", no_instance]) == 1

    def test_malformed_exit_two(self, tmp_path, capsys):
        cases = (
            ("2 1 0\n0x\n", "error"),
            ("# only a comment\n", "error: missing 'd k r' header\n"),
        )
        for text, message in cases:
            bad = write(tmp_path / "bad.inst", text)
            assert main(["solve", bad]) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, text
            assert message in err, text

    def test_header_in_other_digits_exit_two(self, tmp_path, capsys):
        # int() reads the header as d=3, k=10, r=1, and the answer is NO.
        bad = write(tmp_path / "bad.inst", "+3 1_0 \u0661\n000\n111\n")
        assert main(["solve", bad]) == 2
        assert "ASCII decimals" in capsys.readouterr().err

    @pytest.mark.parametrize("separator", list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_separator_inside_a_row_exit_two(self, tmp_path, capsys, separator):
        # str.splitlines would read rows 0 and 1 here, and the answer YES.
        bad = write(tmp_path / "bad.inst", f"1 2 0\n0{separator}1\n")
        assert main(["solve", bad]) == 2
        assert capsys.readouterr().err == "error: line 2: row has 3 characters, expected 1\n"

    def test_no_break_spaces_around_a_row_exit_two(self, tmp_path, capsys):
        # str.strip would read the row as 0?1.
        bad = write(tmp_path / "bad.inst", "3 1 0\n\u00a00?1\u00a0\n")
        assert main(["solve", bad]) == 2
        assert capsys.readouterr().err == "error: line 2: row has 5 characters, expected 3\n"

    def test_missing_file_exit_two(self, capsys):
        assert main(["solve", "/nonexistent/file"]) == 2

    def test_oracle_flag(self, yes_instance):
        assert main(["solve", yes_instance, "--oracle"]) == 0

    def test_stdout_payload(self, yes_instance, capsys):
        main(["solve", yes_instance])
        assert capsys.readouterr().out == "YES\n000\n111\nS: 0 1\n"

    @pytest.mark.parametrize("flag", ["--zeta-gate", "--sunflower-target"])
    def test_removed_override_flags_exit_two(self, yes_instance, flag):
        # Overridden thresholds void the pruning argument, so the command line
        # refuses them as a usage error rather than print an unverified answer.
        with pytest.raises(SystemExit) as exc:
            main(["solve", yes_instance, flag, "2"])
        assert exc.value.code == 2

    def test_oracle_past_its_cap_exit_two(self, past_oracle_cap, capsys):
        assert main(["solve", past_oracle_cap, "--oracle"]) == 2
        assert capsys.readouterr().err == "error: 18 rows exceed the exhaustive cap of 16\n"

    def test_certified_past_oracle_cap(self, past_oracle_cap, tmp_path, capsys):
        sol = tmp_path / "wide.sol"
        assert main(["solve", past_oracle_cap, "--output", str(sol)]) == 0
        assert main(["verify", past_oracle_cap, str(sol)]) == 0
        assert capsys.readouterr().out == "PASS\n"

    def test_crash_without_message_names_its_type(self, yes_instance, monkeypatch, capsys):
        # str(MemoryError()) is empty; the line must not end in a bare colon.
        def out_of_memory(instance):
            raise MemoryError()

        monkeypatch.setattr(divset.cli, "solve", out_of_memory)
        assert main(["solve", yes_instance]) == 2
        assert capsys.readouterr().err == "error: unexpected MemoryError\n"

    def test_report_reproducible_modulo_timings(self, yes_instance, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(["solve", yes_instance, "--report", str(p)])
        reports = [json.loads(p.read_text()) for p in paths]
        for report in reports:
            report.pop("timings")
        assert reports[0] == reports[1]

    def test_report_stats(self, tmp_path):
        # ???? is stripped (4 > (k-1)(r+1) = 2), lowering k to 2, and the
        # one duplicate cap, at that k, keeps two of the four 0000 rows.
        instance = write(tmp_path / "s.inst", "4 3 0\n????\n0000\n0000\n0000\n0000\n1111\n")
        report_path = tmp_path / "s.json"
        assert main(["solve", instance, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["trace_summary"] == {"duplicate-cap": 2, "heavy-wildcard": 1}
        assert report["stats"] == {
            "rows_in": 6,
            "rows_reduced": 3,
            "k_reduced": 2,
            "kernel_rows": 2 * neighborhood_gate(2, 0),
        }


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

    def test_wrong_length_row_fails(self, tmp_path, capsys):
        inst = write(tmp_path / "i.inst", "2 2 0\n0?\n11\n")
        sol = write(tmp_path / "i.sol", "YES\n000\n11\nS: 0 1\n")
        assert main(["verify", inst, sol]) == 1
        assert capsys.readouterr().out == "FAIL: row 0: completed length 3, expected 2\n"

    def test_wrong_selection_size(self, tmp_path):
        inst = write(tmp_path / "i.inst", "2 2 1\n00\n11\n")
        sol = write(tmp_path / "i.sol", "YES\n00\n11\nS: 0\n")
        assert main(["verify", inst, sol]) == 1

    def test_no_file_fails(self, tmp_path, capsys):
        inst = write(tmp_path / "i.inst", "2 2 1\n00\n01\n")
        sol = write(tmp_path / "i.sol", "NO\n")
        assert main(["verify", inst, sol]) == 1
        assert capsys.readouterr().out == "FAIL: solution file declares NO; nothing to verify\n"

    def test_repeated_selection_index_exit_two(self, tmp_path, capsys):
        # Merging the repeat would pass: rows 0 and 1 are a valid pair.
        inst = write(tmp_path / "i.inst", "3 2 1\n0?0\n111\n")
        sol = write(tmp_path / "i.sol", "YES\n010\n111\nS: 0 0 1\n")
        assert main(["verify", inst, sol]) == 2
        assert capsys.readouterr().err == "error: line 4: selection repeats row index 0\n"

    @pytest.mark.parametrize(
        "line",
        ["S: 1 0", "S: +0 1", "S: \u0660 1", *(f"S: 0{space}1" for space in OTHER_SPACES)],
    )
    def test_selection_not_ascending_ascii_exit_two(self, tmp_path, capsys, line):
        # Each names the valid pair {0, 1}, which int(), str.split() and a set
        # would accept.
        inst = write(tmp_path / "i.inst", "3 2 1\n0?0\n111\n")
        sol = write(tmp_path / "i.sol", f"YES\n010\n111\n{line}\n")
        assert main(["verify", inst, sol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 4: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("separator", ["\x1c", "\u2028"])
    def test_separator_inside_a_completed_row_exit_two(self, tmp_path, capsys, separator):
        # str.splitlines would read rows 0 and 1 here, and the check PASS.
        inst = write(tmp_path / "i.inst", "1 2 0\n0\n1\n")
        sol = write(tmp_path / "i.sol", f"YES\n0{separator}1\nS: 0 1\n")
        assert main(["verify", inst, sol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: completed row must use only 0/1"), err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        # The last two files parse and fail the check: exit 1, one FAIL line.
        cases = (
            ("MAYBE\n", 2, "error: line 1: expected 'YES' or 'NO', got 'MAYBE'\n"),
            ("NO\n00\n", 2, "error: line 2: unexpected content after 'NO'\n"),
            (
                "YES\n00\n11\nS: 0 1\n11\n",
                2,
                "error: line 5: unexpected content after the selection line\n",
            ),
            ("# no answer line\n", 2, "error: missing 'YES'/'NO' line\n"),
            (
                "YES\n00\nS: 0 1\n",
                1,
                "FAIL: completed row count 1 differs from instance row count 2\n",
            ),
            ("YES\n00\n11\nS: 0 5\n", 1, "FAIL: selected index 5 out of range\n"),
        )
        inst = write(tmp_path / "i.inst", "2 2 1\n00\n11\n")
        for text, code, message in cases:
            sol = write(tmp_path / "i.sol", text)
            assert main(["verify", inst, sol]) == code, text
            captured = capsys.readouterr()
            assert (captured.err if code == 2 else captured.out) == message, text


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

    @pytest.mark.parametrize("kind", ["is-r2", "is-w1"])
    @pytest.mark.parametrize("k", ["-1", "1_0", "\u0662"])
    def test_k_takes_ascii_decimals_only(self, tmp_path, capsys, kind, k):
        # `int` would read these as -1, 10 and 2.
        graph = write(tmp_path / "p3.graph", "3 2\n1 2\n2 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["generate", kind, graph, "-k", k])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument -k: invalid ascii_decimal value: {k!r}" in captured.err


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

    @pytest.mark.parametrize(
        "text, g_holds",
        [
            # Every edge lies on a triangle.  The classifier also admits
            # leaves, so the embedded value need not agree.
            ("forall x. forall y. (E(x,y) -> exists z. (E(x,z) & E(y,z)))", True),
            ("exists x. exists y. exists z. ((E(x,y) & E(y,z)) & E(x,z))", True),
        ],
    )
    def test_harness_on_depth_three_sentences(self, tmp_path, capsys, text, g_holds):
        # Two-universal and triangle sentences on the benchmark's graph size,
        # n=12 and m=20, whose embedding has n+2m = 52 vertices.
        rng = random.Random(0)
        n, m = 12, 20
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = sorted(rng.sample(pairs, m))
        adj = {v: set() for v in range(1, n + 1)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if text.startswith("forall"):
            h_holds = all(adj[u] & adj[v] for u, v in edges)
        else:
            h_holds = any(adj[u] & adj[v] for u, v in edges)
        formula = write(tmp_path / "f.fo", text + "\n")
        graph = write(tmp_path / "g.graph", f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        assert main(["fo", "harness", formula, graph]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["g_vertices"] == n + 2 * m
        assert record["h_holds"] is h_holds
        assert record["g_holds"] is g_holds

    def test_crash_exits_two_not_false(self, tmp_path, capsys):
        # Far past the depth limit; exit 1 would read as "false", and a
        # recursion overflow would surface as an unexpected error.
        formula = write(tmp_path / "deep.fo", "exists x. " + "~" * 20000 + "x=x\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["fo", "check", formula, graph]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected" not in err

    def test_rewrite_crash_exits_two_not_false(self, tmp_path, capsys):
        # The parser takes this depth; the rewrite may not.  Whatever goes
        # wrong must end in exit 2 and one message, never in exit 1; a
        # rewriter that handles the depth exits 0 without a message.
        formula = write(tmp_path / "deep.fo", "exists x. " * 499 + "x=x\n")
        code = main(["fo", "rewrite", formula])
        assert (code, capsys.readouterr().err.count("\n")) in ((0, 0), (2, 1))

    def test_rewrite_bound_accepted(self, tmp_path, capsys):
        # A chain of L quantifiers rewrites to 2L+6 levels, so 397 reach the
        # rewrite bound of 800 exactly; printing, sizing and evaluating the
        # rewrite must fit in the stack left under a test runner.
        formula = write(tmp_path / "f.fo", "exists x. " * 397 + "x=x\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["fo", "rewrite", formula]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.endswith("\nnodes: 398 -> 3971 (ratio 9.98)\n")
        assert main(["fo", "harness", formula, graph]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["h_holds"] is True and record["g_holds"] is True

    @pytest.mark.parametrize("quantifiers", [398, 499])
    @pytest.mark.parametrize("command", ["rewrite", "harness"])
    def test_past_rewrite_bound_exit_two(self, tmp_path, capsys, command, quantifiers):
        formula = write(tmp_path / "f.fo", "exists x. " * quantifiers + "x=x\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        argv = ["fo", command, formula] + ([graph] if command == "harness" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rewritten sentence would nest deeper than 800 levels\n"

    @staticmethod
    def nested(levels):
        # The quantifier and the atom are one level each, every "~" one more.
        return "exists x. " + "~" * (levels - 2) + "x=x\n"

    @pytest.mark.parametrize("command", ["check", "harness"])
    def test_depth_limit_accepted(self, tmp_path, capsys, command):
        formula = write(tmp_path / "f.fo", self.nested(500))
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["fo", command, formula, graph]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["check", "harness"])
    def test_past_depth_limit_exit_two(self, tmp_path, capsys, command):
        formula = write(tmp_path / "f.fo", self.nested(501))
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        assert main(["fo", command, formula, graph]) == 2
        err = capsys.readouterr().err
        assert err == "error: formula nests deeper than 500 levels at position 509\n"

    def test_bad_formula_exit_two(self, tmp_path, capsys):
        # Malformed formulas on a good graph, then malformed graphs under a
        # good formula.
        k2, sentence = "2 1\n1 2\n", "exists x. x=x\n"
        cases = (
            ("E(x,y)\n", k2, "error: unbound variable(s): x, y\n"),
            ("exists x. x=x $\n", k2, "error: unexpected character '$' at position 14\n"),
            (
                "exists x. (x=x\n",
                k2,
                "error: unexpected end of formula, expected a connective\n",
            ),
            ("exists x. x=\n", k2, "error: unexpected end of formula, expected a variable\n"),
            ("exists x. E(x\n", k2, "error: unexpected end of formula, expected ','\n"),
            ("exists x. (x=x x=x)\n", k2, "error: expected a connective, got 'x'\n"),
            ("  \n", k2, "error: empty formula\n"),
            ("exists x. x=x x\n", k2, "error: trailing input 'x' at position 14\n"),
            (sentence, "2 1 3\n1 2\n", "error: line 1: expected header 'n m', got '2 1 3'\n"),
            (sentence, "2 1\n1 2 3\n", "error: line 2: expected edge 'u v', got '1 2 3'\n"),
            (sentence, "# no header\n", "error: missing 'n m' header\n"),
            (sentence, "2 1\n1 3\n", "error: edge (1, 3) out of range 1..2\n"),
        )
        for text, graph_text, message in cases:
            formula = write(tmp_path / "f.fo", text)
            graph = write(tmp_path / "g.graph", graph_text)
            assert main(["fo", "check", formula, graph]) == 2, (text, graph_text)
            assert capsys.readouterr().err == message, (text, graph_text)


@pytest.mark.parametrize("space", OTHER_SPACES, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize(
    "command, texts",
    [
        (["solve"], ["3 2{}1\n0?0\n111\n"]),
        (["fo", "check"], ["exists x. exists y. E(x,y)\n", "2{}1\n1 2\n"]),
        (["fo", "check"], ["exists x. exists y. E(x,y)\n", "2 1\n1{}2\n"]),
        (["fo", "check"], ["exists{}x. exists y. E(x,y)\n", "2 1\n1 2\n"]),
    ],
    ids=["instance-header", "graph-header", "edge", "formula"],
)
def test_other_space_inside_a_token_exit_two(tmp_path, capsys, command, texts, space):
    # str.split() and str.isspace() take the space for a separator, and the
    # answer for YES or true.
    paths = [write(tmp_path / f"input{i}", text.format(space)) for i, text in enumerate(texts)]
    assert main([*command, *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestClosedPipe:
    """The child's stdout and stderr go to a pipe whose read end is already
    closed, so every write fails; exit 1 would read as NO or false.  With
    buffered streams, output left in a buffer fails again at interpreter
    exit, which turns the exit code into 120."""

    @staticmethod
    def run_closed(argv, unbuffered, stderr_open=False):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            return subprocess.run(
                [sys.executable, "-m", "divset.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE if stderr_open else write_end,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["solve", "check", "rewrite"])
    def test_exit_two_not_one(self, tmp_path, command, unbuffered):
        instance = write(tmp_path / "yes.inst", "3 2 2\n000\n111\n")
        formula = write(tmp_path / "f.fo", "exists x. exists y. (~(x=y) & E(x,y))\n")
        graph = write(tmp_path / "k3.graph", "3 3\n1 2\n1 3\n2 3\n")
        argv = {
            "solve": ["solve", instance],
            "check": ["fo", "check", formula, graph],
            "rewrite": ["fo", "rewrite", formula],
        }[command]
        assert self.run_closed(argv, unbuffered).returncode == 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_message_when_stderr_stays_open(self, tmp_path, unbuffered):
        instance = write(tmp_path / "yes.inst", "3 2 2\n000\n111\n")
        done = self.run_closed(["solve", instance], unbuffered, stderr_open=True)
        assert done.returncode == 2
        assert done.stderr == b"error: output closed before the answer was complete\n"


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
        stats = [[case["stats"] for case in r["cases"]] for r in reports]
        assert stats[0] == stats[1]
        assert [s["rows_in"] for s in stats[0]] == [12, 12, 12]

    def test_kernel_suite_reaches_the_certified_kernel(self, tmp_path, capsys):
        # 81 chain rows against k * gate = 54: the kernel prunes 28 rows, to
        # 53, and the exact search answers YES.
        report = tmp_path / "kernel.json"
        assert main(["bench", "--only", "kernel", "--report", str(report)]) == 0
        (case,) = json.loads(report.read_text())["cases"]
        assert (case["answer"], case["method"]) == ("YES", "brute-force")
        assert case["trace_summary"] == {"pruned": 28}
        assert case["stats"] == {"rows_in": 81, "rows_reduced": 81, "k_reduced": 2, "kernel_rows": 54}
        assert " chain 8f9bf5bd8fa6de9e brute-force " in capsys.readouterr().out

    def test_long_chain_suite_prunes_down_to_the_gate(self, tmp_path):
        # 201 chain rows against k * gate = 54: the kernel prunes 148 rows,
        # to 53, and `--only kernel` does not select this case.
        report = tmp_path / "long.json"
        assert main(["bench", "--only", "long-chain", "--report", str(report)]) == 0
        (case,) = json.loads(report.read_text())["cases"]
        assert (case["suite"], case["answer"], case["method"]) == ("long-chain", "YES", "brute-force")
        assert case["trace_summary"] == {"pruned": 148}
        assert case["stats"] == {"rows_in": 201, "rows_reduced": 201, "k_reduced": 2, "kernel_rows": 54}

    def test_solve_report_shares_the_bench_record(self, tmp_path):
        # The kernel case's instance written out and solved by `solve
        # --report`: the fields both reports share agree.
        (index,) = [i for i, (suite, _) in enumerate(_BENCH_CASES) if suite == "kernel"]
        instance = write(
            tmp_path / "kernel.inst",
            serialize_instance(_bench_instance(0, "kernel", index, _BENCH_CASES[index][1])),
        )
        solved, benched = tmp_path / "solve.json", tmp_path / "bench.json"
        assert main(["solve", instance, "--output", str(tmp_path / "kernel.sol"), "--report", str(solved)]) == 0
        assert main(["bench", "--only", "kernel", "--report", str(benched)]) == 0
        (case,) = json.loads(benched.read_text())["cases"]
        report = json.loads(solved.read_text())
        fields = ("answer", "method", "trace_summary", "stats")
        assert [report[f] for f in fields] == [case[f] for f in fields]

    def test_hard_suites_answer_by_construction(self, tmp_path):
        # k = A(d, r+1) + 1 all-? rows cannot be completed; k = A(d, r+1) can.
        for suite, answer in (("hard-no", "NO"), ("tight-yes", "YES")):
            report = tmp_path / f"{suite}.json"
            assert main(["bench", "--only", suite, "--report", str(report)]) == 0
            cases = json.loads(report.read_text())["cases"]
            assert [(c["answer"], c["method"]) for c in cases] == [(answer, "brute-force")] * 3

    def test_chain_case_rows_must_match_its_length(self):
        # A chain of length d has d+1 rows; a case that says otherwise
        # would report one row count and solve another.
        case = {"rows": 80, "d": 80, "k": 2, "r": 0, "source": "chain"}
        with pytest.raises(ValueError, match="has 81 rows, not 80"):
            _bench_instance(1, "kernel", 16, case)

    def test_deep_case_rows_must_fit_its_width(self):
        case = {"rows": 2017, "d": 64, "k": 200, "r": 0, "source": "deep"}
        with pytest.raises(ValueError, match="d=64 gives 2016 rows with two \\?, not 2017"):
            _bench_instance(0, "deep", 23, case)

    def test_deep_case_answers_under_the_default_recursion_limit(self):
        # The deep case at k=1200: the first 1,200 rows are the first clique
        # and a YES, deeper than the recursion limit, so a search that took
        # one Python frame per clique row would stop with RecursionError.
        limit = sys.getrecursionlimit()
        assert limit < 1200
        (index,) = [i for i, (suite, _) in enumerate(_BENCH_CASES) if suite == "deep"]
        instance = _bench_instance(0, "deep", index, {**_BENCH_CASES[index][1], "k": 1200})
        outcome = solve(instance)
        assert (outcome.answer, outcome.method) == (True, "brute-force")
        assert verify_solution(instance, outcome.witness).ok
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("seed", ["1_0", "\u0667", "-3"])
    def test_seed_takes_ascii_decimals_only(self, capsys, seed):
        # `int` would read these as 10, 7 and -3.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--only", "nonexistent-suite", "--seed", seed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: invalid ascii_decimal value: {seed!r}" in captured.err

    def test_instance_digests_pinned(self):
        # Every bench case's instance digest for seeds 0 and 7, without
        # solving.  Seed 0's first 16 are the ones committed in BENCH_4.json
        # and BENCH_5.json, so a changed case, seed or generator shows here;
        # the 17th is the kernel chain, then hard-no and tight-yes, whose
        # all-? rows do not depend on the seed, then the deep case and the
        # long chain.
        hard = [
            "2aa31d188726997f", "a519a21286da852f", "992f5d6252c80a31",
            "fbf028adac05d4fa", "3ca62cc5c69d0ad3", "6619b0fea4f39342",
        ]
        pinned = {
            0: [
                "24cd7a41d6dcf6d9", "f1c16e94aebbdfe7", "1800a822112eb39b", "baf5cc7607696e28",
                "664d69be14e2b58b", "63941e65d33db6ef", "21be3874494fee94", "a73016e9d0fea8ff",
                "60ecee1463476e2b", "645f43b0dadfb41f", "6904bb11fc19671f", "2d90e83787c5a4c2",
                "bef2d8c1c49a7e9e", "5efd108c47d271d5", "6b4f1835e7c762c2", "0defa2c2f2aa509e",
                "8f9bf5bd8fa6de9e", *hard, "41e314b37f3bc524", "a55993ebf88dcf92",
            ],
            7: [
                "3da14ad9ce7250e4", "a5780534080e00b3", "942f2012f012bb82", "758597a81b3845e8",
                "885ff9aa8f10f1b8", "f34018d3ee6cda65", "743664ec80ddfe60", "ed33925d2c681ce5",
                "3f134048fd14bba2", "b00ae2237a8c2522", "88094f92df936547", "ad3f649e5b1033a2",
                "faafb63d8f018b90", "0bc982d156081bec", "7275ccd93d7eecf4", "0405995aed36093b",
                "61ab9a028f8196ee", *hard, "c9bbfd547ce75e14", "c31bef4b969ad443",
            ],
        }
        for seed, digests in pinned.items():
            got = [
                _digest(serialize_instance(_bench_instance(seed, suite, i, case)))
                for i, (suite, case) in enumerate(_BENCH_CASES)
            ]
            assert got == digests, seed


FO_TOOLING = ["divset.fologic", "divset.reductions"]
# `random` is left out: `site` may load it (certifi -> tempfile -> random).
STDLIB = ["hashlib", "json"]


@pytest.mark.parametrize(
    "argv, loaded, stdlib",
    [
        (None, [], []),
        (["solve", "{instance}"], [], []),
        (["solve", "{instance}", "--report", "{report}"], [], STDLIB),
        (["verify", "{instance}", "{solution}"], [], []),
        (["bench", "--only", "params-k"], [], ["hashlib"]),
        (["fo", "check", "{formula}", "{graph}"], FO_TOOLING, []),
    ],
    ids=["solver-import", "solve", "solve-report", "verify", "bench", "fo-check"],
)
def test_solver_import_leaves_fo_tooling_unloaded(tmp_path, argv, loaded, stdlib):
    # The package exports nothing, so a module loads only what it imports,
    # and the command line loads the FO tooling only for the commands that
    # use it, and `hashlib` and `json` only where it digests or writes a
    # report.  `fo check` loads the tooling and `solve --report` both
    # modules, so the checks are not vacuous.  The child prints a repr, so
    # that it loads no `json` of its own.
    files = {
        "instance": write(tmp_path / "yes.inst", "3 2 2\n000\n111\n"),
        "solution": write(tmp_path / "yes.sol", "YES\n000\n111\nS: 0 1\n"),
        "formula": write(tmp_path / "f.fo", "forall x. exists y. E(x,y)\n"),
        "graph": write(tmp_path / "k2.graph", "2 1\n1 2\n"),
        "report": str(tmp_path / "report.json"),
    }
    if argv is None:
        run = "import divset.solver, divset.vectors\ncode = 0"
    else:
        argv = [arg.format(**files) for arg in argv]
        run = (
            "import contextlib, io, divset.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = divset.cli.main({argv!r})"
        )
    script = f"""import sys
{run}
print(repr([code, [m for m in {FO_TOOLING + STDLIB!r} if m in sys.modules]]))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert ast.literal_eval(done.stdout) == [0, loaded + stdlib]


def test_wrappers_set_before_the_first_fo_call_see_it(tmp_path, capsys):
    # perfbench's tracer replaces `divset.cli.<name>` by a wrapper before any
    # `fo` call, in a process where the FO tooling is not loaded yet.  The
    # command must load the tooling without undoing the wrapper, and call the
    # name through this module, so that the wrapper sees the call.
    formula = write(tmp_path / "f.fo", "forall x. exists y. E(x,y)\n")
    graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
    commands = [
        ["fo", "harness", formula, graph, "--report", str(tmp_path / "record.json")],
        ["generate", "embed", graph],
    ]
    script = f"""import contextlib, io, json, sys
import divset.cli as cli
assert "divset.fologic" not in sys.modules
seen = []
def wrap(name):
    original = getattr(cli, name)
    def wrapper(*args, **kwargs):
        seen.append(name)
        return original(*args, **kwargs)
    setattr(cli, name, wrapper)
for name in ("parse_graph", "parse_formula", "embedding_transfer_report"):
    wrap(name)
outputs = []
for argv in {commands!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue(), open({str(tmp_path / "record.json")!r}).read()])
try:
    cli.no_such_name
    missing = False
except AttributeError:
    missing = True
print(json.dumps({{"seen": seen, "outputs": outputs, "missing": missing}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    got = json.loads(done.stdout)
    assert got["seen"] == ["parse_formula", "parse_graph", "embedding_transfer_report", "parse_graph"]
    assert got["missing"] is True
    expected = []
    for argv in commands:
        code = main(argv)
        expected.append([code, capsys.readouterr().out, (tmp_path / "record.json").read_text()])
    assert got["outputs"] == expected


class TestSharedParser:
    """`main` parses every call with one parser per process, so nothing an
    earlier call parsed may reach a later one."""

    def test_oracle_flag_does_not_stick(self, yes_instance, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", yes_instance, "--oracle", "--report", str(first)]) == 0
        assert main(["solve", yes_instance, "--report", str(second)]) == 0
        assert json.loads(first.read_text())["flags"] == {"oracle": True}
        assert json.loads(second.read_text())["flags"] == {"oracle": False}

    def test_output_path_does_not_stick(self, yes_instance, tmp_path, capsys):
        out = tmp_path / "out.sol"
        assert main(["solve", yes_instance, "--output", str(out)]) == 0
        out.unlink()
        assert main(["solve", yes_instance]) == 0
        assert capsys.readouterr().out == "YES\n000\n111\nS: 0 1\n"
        assert not out.exists()

    def test_usage_error_leaves_next_call_as_fresh(self, yes_instance, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", yes_instance, "--zeta-gate", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code = main(["solve", yes_instance])
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "divset.cli", "solve", yes_instance],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_harness_report_does_not_reach_check(self, tmp_path, capsys):
        formula = write(tmp_path / "f.fo", "forall x. exists y. E(x,y)\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        record = tmp_path / "record.json"
        assert main(["fo", "harness", formula, graph, "--report", str(record)]) == 0
        record.unlink()
        assert main(["fo", "check", formula, graph]) == 0
        assert capsys.readouterr().out.endswith("}\ntrue\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.fo", "k2.graph"]

    def test_parser_built_once_per_process(self, yes_instance, tmp_path):
        # Counts the parsers constructed (the top level and one per
        # subcommand) after each of three calls to different subcommands.
        formula = write(tmp_path / "f.fo", "exists x. E(x,x)\n")
        graph = write(tmp_path / "k2.graph", "2 1\n1 2\n")
        script = f"""
import argparse, contextlib, io, json
from divset.cli import main
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
counts = []
for argv in {[["solve", yes_instance], ["generate", "embed", graph], ["fo", "check", formula, graph]]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    counts.append(built)
print(json.dumps(counts))
"""
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
        )
        assert done.returncode == 0, done.stderr
        counts = json.loads(done.stdout)
        assert counts[0] > 0 and counts == [counts[0]] * 3


def test_traced_names_resolve():
    # perfbench's tracer wraps each (module, attribute) of `TRACED` where the
    # calls go through; a rename there must fail here, not only in a traced
    # benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, *_ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            module_name,
            attr,
        )

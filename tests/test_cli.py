"""End-to-end command-line behavior: formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gofknots import cli
from gofknots.classify import CheckResult, paper_checks, scan_table
from gofknots.cli import app, main, result_to_record
from gofknots.words import beta, format_braid


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestDecisionCommands:
    def test_conjugate_true(self):
        code, out, err = run_cli("conjugate", "b a b", "a b a")
        assert (code, out, err) == (0, "true\n", "")
        assert run_cli("conjugate", "a a a a B", "a a B a a") == (0, "true\n", "")

    def test_conjugate_false(self):
        code, out, _ = run_cli("conjugate", "a", "b b")
        assert (code, out) == (0, "false\n")
        assert run_cli("conjugate", "a a a a a B B", "a a a a B") == (0, "false\n", "")

    def test_equal(self):
        assert run_cli("equal", "a b a", "b a b")[:2] == (0, "true\n")
        assert run_cli("equal", "a b", "b a")[:2] == (0, "false\n")

    def test_lens_eq(self):
        assert run_cli("lens-eq", "7", "2", "7", "-2")[:2] == (0, "false\n")
        assert run_cli("lens-eq", "7", "2", "7", "-2", "--unoriented")[:2] == (
            0,
            "true\n",
        )
        assert run_cli("lens-eq", "7", "2", "7", "4")[:2] == (0, "true\n")


class TestWordCommands:
    def test_nf(self):
        code, out, _ = run_cli("nf", "a b a")
        assert code == 0
        assert out == (
            "exponent_sum: 3\n"
            "matrix: [[0, 1], [-1, 0]]\n"
            "psl_cyclic_normal_form: X\n"
        )
        assert run_cli("nf", "a a a a B") == (
            0,
            "exponent_sum: 3\n"
            "matrix: [[5, 4], [1, 1]]\n"
            "psl_cyclic_normal_form: X Y X Y X Y X Y X Y2\n",
            "",
        )
        assert run_cli("nf", "B a a a a b b A") == (
            0,
            "exponent_sum: 4\n"
            "matrix: [[-7, 11], [-9, 14]]\n"
            "psl_cyclic_normal_form: X Y X Y X Y X Y X Y X Y2\n",
            "",
        )

    def test_nf_of_identity(self):
        code, out, _ = run_cli("nf", "")
        assert code == 0
        assert out == (
            "exponent_sum: 0\n"
            "matrix: [[1, 0], [0, 1]]\n"
            "psl_cyclic_normal_form: 1\n"
        )

    def test_beta(self):
        code, out, _ = run_cli("beta", "-3", "5")
        assert (code, out) == (0, "B A B B A B B A B a a a a a\n")

    def test_det(self):
        assert run_cli("det", "B a a b b a")[:2] == (0, "7\n")
        assert run_cli("det", "b a b a")[:2] == (0, "3\n")


class TestClosureCommand:
    def test_two_bridge_closure(self):
        code, out, _ = run_cli("closure", "B A B B A B B A B a a a a a")
        assert code == 0
        assert out == (
            "two_bridge: true\n"
            "alpha: 7\n"
            "beta: 2\n"
            "lens_p: 7\n"
            "lens_q: 2\n"
            "witness_p: -2\n"
            "witness_q: -3\n"
            "mirrored: false\n"
        )

    def test_mirrored_two_bridge_closure(self):
        # the mirror of beta(-3, 5) resolves on its own candidates, in the
        # mirror lens space L(7,3), with the mirrored flag still false
        code, out, _ = run_cli("closure", "b a b b a b b a b A A A A A")
        assert code == 0
        assert out == (
            "two_bridge: true\n"
            "alpha: 7\n"
            "beta: 3\n"
            "lens_p: 7\n"
            "lens_q: 3\n"
            "witness_p: 2\n"
            "witness_q: 1\n"
            "mirrored: false\n"
        )

    def test_non_two_bridge_closure(self):
        code, out, _ = run_cli("closure", format_braid(beta(5, 7)))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "two_bridge: false"
        assert all(line.endswith(": null") for line in lines[1:])
        assert len(lines) == 8

    def test_unlink_closure_record(self):
        # a single s2 closes to the two-component unlink: every field null
        assert run_cli("closure", "b") == (
            0,
            "two_bridge: false\n"
            "alpha: null\n"
            "beta: null\n"
            "lens_p: null\n"
            "lens_q: null\n"
            "witness_p: null\n"
            "witness_q: null\n"
            "mirrored: null\n",
            "",
        )


class TestClassifyCommand:
    def test_text_output(self):
        code, out, _ = run_cli("classify", "-3", "5")
        assert code == 0
        assert out == (
            "k: -3\n"
            "n: 5\n"
            "word: B A B B A B B A B a a a a a\n"
            "is_two_bridge: true\n"
            "alpha: 7\n"
            "beta: 2\n"
            "lens_p: 7\n"
            "lens_q: 2\n"
            "witness_p: -2\n"
            "witness_q: -3\n"
            "mirrored: false\n"
            "label: ExceptionL72(+1)\n"
            "description: (-1)-Dehn surgery on the plumbing of a 7-Hopf band "
            "and a (+1)-Hopf band; knot in L(7,2)\n"
        )

    def test_unlink_cell_text_output(self):
        assert run_cli("classify", "1", "-2") == (
            0,
            "k: 1\n"
            "n: -2\n"
            "word: b a b A A\n"
            "is_two_bridge: false\n"
            "alpha: null\n"
            "beta: null\n"
            "lens_p: null\n"
            "lens_q: null\n"
            "witness_p: null\n"
            "witness_q: null\n"
            "mirrored: null\n"
            "label: HopfPlumbing(r=0,band=+1)\n"
            "description: plumbing of a 0-Hopf band and a (+1)-Hopf band in L(0,1); "
            "the closure is the two-component unlink, outside the two-bridge normal forms\n",
            "",
        )

    def test_json_output_round_trips(self):
        code, out, _ = run_cli("classify", "-3", "5", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["label"] == "ExceptionL72(+1)"
        assert record["lens_p"] == 7
        assert record["lens_q"] == 2
        assert record["witness_p"] == -2
        assert record["mirrored"] is False

    def test_json_nulls_for_non_two_bridge(self):
        code, out, _ = run_cli("classify", "5", "7", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["is_two_bridge"] is False
        assert record["alpha"] is None
        assert record["label"] == "NotLensSpace"

    def test_even_k_exits_2(self):
        code, out, err = run_cli("classify", "4", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestTableCommand:
    EXPECTED_TSV = (
        "k\tn\ttwo_bridge\talpha\tbeta\tlens\tlabel\n"
        "-1\t0\ttrue\t2\t1\tL(2,1)\tHopfPlumbing(r=-2,band=-1)\n"
        "-1\t1\ttrue\t1\t0\tL(1,0)\tHopfPlumbing(r=-1,band=-1)\n"
        "-1\t2\tfalse\tnull\tnull\tnull\tHopfPlumbing(r=0,band=-1)\n"
        "-1\t3\ttrue\t1\t0\tL(1,0)\tHopfPlumbing(r=1,band=-1)\n"
        "1\t0\ttrue\t2\t1\tL(2,1)\tHopfPlumbing(r=2,band=+1)\n"
        "1\t1\ttrue\t3\t1\tL(3,1)\tHopfPlumbing(r=3,band=+1)\n"
        "1\t2\ttrue\t4\t1\tL(4,1)\tHopfPlumbing(r=4,band=+1)\n"
        "1\t3\ttrue\t5\t1\tL(5,1)\tHopfPlumbing(r=5,band=+1)\n"
    )

    def test_tsv_output(self):
        code, out, _ = run_cli("table", "--k=-1,1", "--n=0..3")
        assert code == 0
        assert out == self.EXPECTED_TSV

    def test_tsv_null_columns_exception_and_negative_band(self):
        assert run_cli("table", "--k=-3,-1,5", "--n=1..6") == (
            0,
            "k\tn\ttwo_bridge\talpha\tbeta\tlens\tlabel\n"
            "-3\t1\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "-3\t2\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "-3\t3\ttrue\t5\t4\tL(5,4)\tHopfPlumbing(r=-5,band=-1)\n"
            "-3\t4\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "-3\t5\ttrue\t7\t2\tL(7,2)\tExceptionL72(+1)\n"
            "-3\t6\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "-1\t1\ttrue\t1\t0\tL(1,0)\tHopfPlumbing(r=-1,band=-1)\n"
            "-1\t2\tfalse\tnull\tnull\tnull\tHopfPlumbing(r=0,band=-1)\n"
            "-1\t3\ttrue\t1\t0\tL(1,0)\tHopfPlumbing(r=1,band=-1)\n"
            "-1\t4\ttrue\t2\t1\tL(2,1)\tHopfPlumbing(r=2,band=-1)\n"
            "-1\t5\ttrue\t3\t1\tL(3,1)\tHopfPlumbing(r=3,band=-1)\n"
            "-1\t6\ttrue\t4\t1\tL(4,1)\tHopfPlumbing(r=4,band=-1)\n"
            "5\t1\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "5\t2\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "5\t3\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "5\t4\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "5\t5\tfalse\tnull\tnull\tnull\tNotLensSpace\n"
            "5\t6\tfalse\tnull\tnull\tnull\tNotLensSpace\n",
            "",
        )

    def test_output_is_deterministic(self):
        first = run_cli("table", "--k=-3,-1,1,3", "--n=-8..8")
        second = run_cli("table", "--k=-3,-1,1,3", "--n=-8..8")
        assert first == second

    def test_json_output(self):
        code, out, _ = run_cli("table", "--k=1", "--n=0..3", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["n"] for r in records] == [0, 1, 2, 3]
        assert [r["alpha"] for r in records] == [2, 3, 4, 5]
        assert all(len(r) == 13 for r in records)

    @pytest.mark.parametrize("ks, lo, hi", [([1], 0, 3), ([-3, -1, 1, 3], -8, 8), ([1], 1, 0)])
    def test_json_is_json_dumps_of_the_whole_list(self, ks, lo, hi):
        records = [result_to_record(r) for r in scan_table(ks, range(lo, hi + 1))]
        argv = ("table", "--k=" + ",".join(map(str, ks)), f"--n={lo}..{hi}", "--format", "json")
        assert run_cli(*argv) == (0, json.dumps(records) + "\n", "")

    def test_empty_json_grid_is_an_empty_list(self):
        assert run_cli("table", "--k=1", "--n=1..0", "--format", "json") == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--k=1,2", "--n=0..1"), "k must be odd, got 2"),
            (("--k=1", "--n=9999999..10000000"), "beta(1, 9999999) has 10000002 letters, more than 10000000"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_a_bad_grid_prints_nothing(self, args, message, fmt):
        assert run_cli("table", *args, "--format", fmt) == (2, "", f"error: {message}\n")

    def test_a_wide_range_is_refused_in_bounded_memory(self):
        # 40,000,001 values of n; the address space is capped at 800 MB, in
        # which a sorted set of them ran out of memory
        resource = pytest.importorskip("resource")
        cap = 800 * 2**20
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "gofknots.cli", "table", "--k=1", "--n=-20000000..20000000"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        message = "error: beta(1, -20000000) has 20000003 letters, more than 10000000\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message)

    # 4,001 and 1,001 cells: holding every record before printing peaked at
    # 35.7 MB and 7.7 MB; tracemalloc makes the larger grid take seconds
    @pytest.mark.parametrize("fmt, n", [("tsv", "--n=-2000..2000"), ("json", "--n=-500..500")])
    def test_memory_does_not_grow_with_the_grid(self, fmt, n):
        class Sink(io.TextIOBase):  # counts what is written and keeps none of it
            written = 0

            def write(self, text):
                self.written += len(text)
                return len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["table", "--k=1", n, "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.written > 100_000
        assert peak < 2 * 2**20, peak

    def test_empty_range_gives_header_only(self):
        code, out, _ = run_cli("table", "--k=1", "--n=3..2")
        assert code == 0
        assert out == "k\tn\ttwo_bridge\talpha\tbeta\tlens\tlabel\n"

    def test_empty_range_with_an_even_k_gives_header_only(self):
        # a grid is refused at its first bad cell, and one with no cells has none
        header = "k\tn\ttwo_bridge\talpha\tbeta\tlens\tlabel\n"
        assert run_cli("table", "--k=2", "--n=5..3") == (0, header, "")

    def test_malformed_list_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("table", "--k=bogus", "--n=0..3")
        assert excinfo.value.code == 2

    def test_malformed_range_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("table", "--k=1", "--n=0-3")
        assert excinfo.value.code == 2


class TestConwayCommand:
    def test_leading_negative_entry(self):
        code, out, _ = run_cli("conway", "-2,2,-3")
        assert code == 0
        assert out == (
            "fraction: 7/-5\n"
            "alpha: 7\n"
            "beta: 2\n"
            "lens_p: 7\n"
            "lens_q: 2\n"
        )

    def test_typed_separator_prints_the_same_bytes(self):
        expected = run_cli("conway", "-2,2,-3")
        assert expected[0] == 0
        assert run_cli("conway", "--", "-2,2,-3") == expected
        assert run_cli("conway", "-2,2,-3", "--") == expected
        assert run_cli("conway", "--", "5") == run_cli("conway", "5")
        assert run_cli("conway", "2,2,3", "--") == run_cli("conway", "2,2,3")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_is_still_help(self, flag):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as excinfo:
            main(["conway", flag])
        assert excinfo.value.code == 0
        assert out.getvalue().startswith("usage: gofknots conway [-h] LIST")

    def test_two_tuples_are_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("conway", "1", "2")
        assert excinfo.value.code == 2

    def test_single_entry(self):
        code, out, _ = run_cli("conway", "5")
        assert code == 0
        assert out.splitlines()[0] == "fraction: 5/1"

    def test_unknot_value(self):
        assert run_cli("conway", "0,5") == (
            0,
            "fraction: 1/5\n"
            "alpha: 1\n"
            "beta: 0\n"
            "lens_p: 1\n"
            "lens_q: 0\n",
            "",
        )

    def test_degenerate_tuple_exits_2(self):
        code, _, err = run_cli("conway", "2,0")
        assert code == 2
        assert "error:" in err

    def test_unlink_value_exits_2(self):
        code, _, err = run_cli("conway", "0")
        assert code == 2
        assert "error:" in err


class TestVerifyPaperCommand:
    def test_passes_and_reports_counts(self):
        code, out, _ = run_cli("verify-paper")
        assert code == 0
        lines = out.splitlines()
        assert "case rows: 8/8 passed" in lines
        assert "additional checks: 8/8 passed" in lines
        assert lines[-1] == "verify-paper: PASS"
        assert (
            lines[0]
            == "[ok] case A: beta(5,-13) vs standard form on {-2,3}: "
            "expected false, computed false"
        )
        assert sum(1 for line in lines if line.startswith("[ok]")) == 16

    def test_golden(self):
        assert run_cli("verify-paper") == (0, VERIFY_PAPER_GOLDEN, "")

    def test_a_failing_check_fails_the_run(self, monkeypatch):
        case_rows, additional = paper_checks()
        case_rows[2] = CheckResult(case_rows[2].name, True, False)
        monkeypatch.setattr(cli, "paper_checks", lambda: (case_rows, additional))
        code, out, err = run_cli("verify-paper")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[2] == (
            "[FAIL] case A: beta(5,-19) vs standard form on {1,-6}: "
            "expected true, computed false"
        )
        assert lines[8] == "case rows: 7/8 passed"
        assert lines[17] == "additional checks: 8/8 passed"
        assert lines[-1] == "verify-paper: FAIL"
        assert sum(1 for line in lines if line.startswith("[ok]")) == 15

    def test_output_is_deterministic(self):
        assert run_cli("verify-paper") == run_cli("verify-paper")


VERIFY_PAPER_GOLDEN = """\
[ok] case A: beta(5,-13) vs standard form on {-2,3}: expected false, computed false
[ok] case A: beta(5,-15) vs standard form on {2,-3}: expected false, computed false
[ok] case A: beta(5,-19) vs standard form on {1,-6}: expected false, computed false
[ok] case A: beta(5,-9) vs standard form on {-1,6}: expected false, computed false
[ok] case B: beta(-3,15) vs standard form on {2,3}: expected false, computed false
[ok] case B: beta(-3,17) vs standard form on {1,6}: expected false, computed false
[ok] case B: beta(-3,5) vs standard form on {-2,-3}: expected true, computed true
[ok] case B: beta(-3,3) vs standard form on {-1,-6}: expected true, computed true
case rows: 8/8 passed
[ok] beta(-3,3) ~ beta(-1,-3): expected true, computed true
[ok] beta(3,-3) ~ beta(1,3): expected true, computed true
[ok] beta(-3,5) ~ beta(1,-7): expected false, computed false
[ok] beta(-3,5) ~ beta(-1,-1): expected false, computed false
[ok] beta(3,-5) ~ beta(1,1): expected false, computed false
[ok] beta(3,-5) ~ beta(-1,7): expected false, computed false
[ok] L(7,2) differs from every L(n+-2,1), n in [-40,40]: expected true, computed true
[ok] L(7,3) differs from every L(n+-2,1), n in [-40,40]: expected true, computed true
additional checks: 8/8 passed
verify-paper: PASS
"""


class TestErrorHandling:
    def test_parse_error_exits_2(self):
        for args in [
            ("nf", "xyz"),
            ("conjugate", "xyz", "a"),
            ("conjugate", "a", "xyz"),
            ("equal", "xyz", "a"),
            ("equal", "a", "xyz"),
        ]:
            code, out, err = run_cli(*args)
            assert (code, out, err) == (2, "", "error: malformed token 'xyz'\n"), args

    def test_generator_index_must_be_literal(self):
        code, out, err = run_cli("closure", "s01^2")
        assert (code, out) == (2, "")
        assert err == "error: generator index out of range in token 's01^2'\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("beta", "1000000000", "0"),
            ("classify", "1000000001", "0"),
            ("table", "--k=1000000001", "--n=0..0"),
            ("closure", "s1^1000000000"),
            pytest.param(("closure", "s1^" + "9" * 5000), id="closure-s1^<5000 nines>"),
        ],
    )
    def test_over_long_words_exit_2(self, args):
        code, out, err = run_cli(*args)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Exceeds the limit" not in err  # int()'s own message for over 4,300 digits

    def test_unlink_lens_parameters_exit_2(self):
        code, _, err = run_cli("lens-eq", "0", "3", "1", "0")
        assert code == 2
        assert "error:" in err

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("bogus")
        assert excinfo.value.code == 2

    def test_missing_arguments_are_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("conjugate", "a")
        assert excinfo.value.code == 2

    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 2


def help_text(monkeypatch, *args):
    """The help screen ``main(args)`` prints, unwrapped by a wide terminal."""
    monkeypatch.setenv("COLUMNS", "300")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as excinfo:
        main(list(args))
    assert excinfo.value.code == 0
    return out.getvalue()


def help_entries(text, heading):
    """The (name, help) pairs listed under the line ``heading`` up to the
    next blank line.  A line indented deeper than the first entry continues
    the help of the entry above it, so a wrapped help string reads whole."""
    lines = text.splitlines()
    block = lines[[line.strip() for line in lines].index(heading) + 1 :]
    block = block[: block.index("")]
    indent = len(block[0]) - len(block[0].lstrip())
    entries = []
    for line in block:
        if len(line) - len(line.lstrip()) == indent:
            name, _, help_part = line.strip().partition(" ")
            entries.append((name, [help_part]))
        else:
            entries[-1][1].append(line)
    return [(name, " ".join(" ".join(parts).split())) for name, parts in entries]


class TestHelp:
    WORD_HELP = 'braid word in quotes, e.g. "b a a B" or "s2^-1 s1^2"'

    def test_lists_every_subcommand_in_order(self, monkeypatch):
        text = help_text(monkeypatch, "--help")
        assert text.startswith("usage: gofknots [-h] [--version] COMMAND ...\n")
        assert help_entries(text, "COMMAND") == [
            ("conjugate", "decide whether two braid words are conjugate"),
            ("equal", "decide whether two braid words are equal in the group"),
            ("nf", "print the exponent sum, integral matrix, and cyclic normal form"),
            ("beta", "print the word beta(k, n)"),
            ("det", "print the homology order of the closure's double branched cover"),
            ("closure", "decide whether the closure is a two-bridge link"),
            ("classify", "classify the genus one fibered knot for beta(k, n)"),
            ("table", "classify every cell of a (k, n) grid"),
            ("conway", "evaluate a Conway tuple to its fraction, two-bridge form, and lens space"),
            ("lens-eq", "decide whether L(p1,q1) and L(p2,q2) agree"),
            ("verify-paper", "run the built-in case-analysis and exceptional-knot checks"),
        ]

    @pytest.mark.parametrize("command", ["conjugate", "equal"])
    def test_two_word_commands(self, monkeypatch, command):
        text = help_text(monkeypatch, command, "-h")
        assert text.splitlines()[0] == f"usage: gofknots {command} [-h] word1 word2"
        assert help_entries(text, "positional arguments:") == [
            ("word1", self.WORD_HELP),
            ("word2", self.WORD_HELP),
        ]


class TestEntryPoints:
    def test_main_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gofknots", "det", "b a b a"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main() == 0
        assert out.getvalue() == "3\n"

    def test_app_raises_system_exit(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gofknots", "det", "b a b a"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with pytest.raises(SystemExit) as excinfo:
                app()
        assert excinfo.value.code == 0

    def test_version_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0

    def test_a_closed_stdout_exits_141_quietly(self):
        # the reader stops after 10 of some 2 MB, as ``| head -c 10`` does
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "gofknots.cli", "beta", "1", "1000000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.read(10) == b"b a b a a "
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")

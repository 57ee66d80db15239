"""Command-line contract: stdout formats and exit codes."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from mspkit.cli import (EXIT_BROKEN_PIPE, EXIT_INTERNAL, EXIT_NO, EXIT_RESOURCE,
                        EXIT_USAGE, EXIT_YES, build_parser, main)
from mspkit.io import parse_instance
from mspkit.solver import DEFAULT_EXHAUSTIVE_CAP, verify
from test_solver import time_limit

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k3n1(tmp_path, capsys):
    """Instance file for the triangle with an impossible one-vertex cover."""
    path = tmp_path / "k3n1.msp"
    code, out, _ = run(capsys, "reduce", str(FIXTURES / "k3.graph"),
                       "--cover-size", "1", "-o", str(path))
    assert code == EXIT_YES
    return path


class TestScore:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "score", "--kappa", "6", "1 2 3 4", "1 3 2 5")
        assert code == EXIT_YES
        assert out == "1 2\n"

    def test_bad_code_text(self, capsys):
        code, _, err = run(capsys, "score", "--kappa", "6", "1 x", "1 2")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_color_outside_palette(self, capsys):
        code, _, err = run(capsys, "score", "--kappa", "2", "3 1", "1 2")
        assert code == EXIT_USAGE

    def test_full_width_digit_is_no_peg(self, capsys):
        assert run(capsys, "score", "--kappa", "6", "\uff11 2", "1 2") == (
            EXIT_USAGE, "", "error: code must be space-separated integers, got '\uff11 2'\n")


class TestSolve:
    def test_unsat_reduction(self, capsys, k3n1):
        code, out, _ = run(capsys, "solve", str(k3n1))
        assert code == EXIT_NO
        assert out == "UNSAT\n"

    def test_sat_prints_witness(self, capsys, tmp_path):
        path = tmp_path / "swap.msp"
        path.write_text("msp 2 2\ng 1 2 : 0 2\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_YES
        assert out == "2 1\n"

    def test_exhaustive_mode_agrees(self, capsys, tmp_path):
        path = tmp_path / "swap.msp"
        path.write_text("msp 2 2\ng 1 2 : 0 2\n")
        code, out, _ = run(capsys, "solve", "--mode", "exhaustive", str(path))
        assert code == EXIT_YES
        assert out == "2 1\n"

    def test_all_lists_lexicographically(self, capsys, tmp_path):
        path = tmp_path / "free.msp"
        path.write_text("msp 2 2\n")
        code, out, _ = run(capsys, "solve", "--all", str(path))
        assert code == EXIT_YES
        assert out == "1 1\n1 2\n2 1\n2 2\n"

    def test_all_on_unsat(self, capsys, tmp_path):
        path = tmp_path / "no.msp"
        path.write_text("msp 2 2\ng 1 1 : 2 0\ng 2 2 : 2 0\n")
        code, out, _ = run(capsys, "solve", "--all", str(path))
        assert code == EXIT_NO
        assert out == "UNSAT\n"

    def test_all_respects_cap(self, capsys, tmp_path):
        path = tmp_path / "free.msp"
        path.write_text("msp 2 2\n")
        code, out, err = run(capsys, "--cap", "2", "solve", "--all", str(path))
        assert code == EXIT_YES
        assert out == "1 1\n1 2\n"
        assert "truncated" in err

    def test_exhaustive_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "big.msp"
        path.write_text("msp 3 4\n")
        code, _, err = run(capsys, "--cap", "10", "solve", "--mode", "exhaustive", str(path))
        assert code == EXIT_RESOURCE
        assert "error:" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_exhaustive_cap_below_one_is_a_usage_error(self, capsys, tmp_path, cap):
        # not "exceeds cap -1" with exit 3: --all rejects the same cap with 2
        path = tmp_path / "free.msp"
        path.write_text("msp 2 2\n")
        code, out, err = run(capsys, "--cap", cap, "solve", "--mode", "exhaustive", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "positive integer" in err

    def test_all_runs_no_other_mode(self, capsys, tmp_path):
        path = tmp_path / "free.msp"
        path.write_text("msp 2 2\n")
        code, out, err = run(capsys, "solve", "--all", "--mode", "exhaustive", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "--mode exhaustive" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "does-not-exist.msp")
        assert code == EXIT_USAGE

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.msp"
        path.write_text("msp 2 2\ng 1 : 0 0\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err


class TestFileErrors:
    """A file that cannot be read, decoded or written is a usage error."""

    # under a UTF-8 locale byte 0xff does not decode; under a locale where
    # it does, the token it makes is not an integer: exit 2 either way
    @pytest.mark.parametrize("argv, data", [
        (("solve",), b"msp 2 2\ng 1 \xff : 0 0\n"),
        (("reduce", "--cover-size", "1"), b"p edge 2 1\ne 1 \xff\n"),
    ], ids=["instance", "graph"])
    def test_undecodable_file(self, capsys, tmp_path, argv, data):
        path = tmp_path / "undecodable"
        path.write_bytes(data)
        code, out, err = run(capsys, *argv, str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "internal error" not in err

    @pytest.mark.parametrize("target", ["missing/k3.msp", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_output(self, capsys, tmp_path, target):
        output = tmp_path / target
        code, out, err = run(capsys, "reduce", str(FIXTURES / "k3.graph"),
                             "--cover-size", "1", "-o", str(output))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {output}: ")


class TestByteOrderMark:
    """A UTF-8 file may start with a byte-order mark."""

    BOM = b"\xef\xbb\xbf"

    def test_instance_solves(self, capsys, tmp_path):
        path = tmp_path / "bom.msp"
        path.write_bytes(self.BOM + b"msp 2 2\ng 1 2 : 0 2\n")
        assert run(capsys, "solve", str(path)) == (EXIT_YES, "2 1\n", "")

    def test_graph_reduces(self, capsys, tmp_path):
        path = tmp_path / "bom.graph"
        path.write_bytes(self.BOM + b"p edge 2 1\ne 1 2\n")
        expected = run(capsys, "reduce", str(FIXTURES / "single_edge.graph"), "--cover-size", "1")
        assert expected[0] == EXIT_YES
        assert run(capsys, "reduce", str(path), "--cover-size", "1") == expected

    def test_comment_first_keeps_line_numbers(self, capsys, tmp_path):
        path = tmp_path / "bom.graph"
        path.write_bytes(self.BOM + b"c a comment\np edge 2 1\ne 1 3\n")
        assert run(capsys, "reduce", str(path), "--cover-size", "1") == (
            EXIT_USAGE, "", "error: line 3: edge (1, 3) outside 1..2\n")


class TestEmptyCode:
    """An empty code argument is a usage error, not a crash or a NO."""

    def test_score(self, capsys):
        assert run(capsys, "score", "--kappa", "6", "", "1 2") == (
            EXIT_USAGE, "", "error: a code needs at least one peg\n")

    def test_verify(self, capsys):
        assert run(capsys, "verify", str(FIXTURES / "pinned.msp"), " ") == (
            EXIT_USAGE, "", "error: expected 2 pegs, got 0\n")

    def test_extract(self, capsys, tmp_path):
        inst, reduction = tmp_path / "k3n2.msp", ("--cover-size", "2", "--compact")
        run(capsys, "reduce", str(FIXTURES / "k3.graph"), *reduction, "-o", str(inst))
        assert run(capsys, "extract", str(FIXTURES / "k3.graph"), *reduction, str(inst), "") == (
            EXIT_USAGE, "", "error: expected 9 pegs, got 0\n")


class TestInternalError:
    def test_unexpected_exception_is_not_a_no(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("mspkit.cli.solve", broken)
        path = tmp_path / "swap.msp"
        path.write_text("msp 2 2\ng 1 2 : 0 2\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"

    def test_out_of_memory_is_a_resource_limit(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("mspkit.cli.enumerate_all", exhausted)
        path = tmp_path / "free.msp"
        path.write_text("msp 2 2\n")
        code, out, err = run(capsys, "solve", "--all", str(path))
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err == "error: out of memory\n"

    def test_dense_cover_instance_never_exits_no(self, capsys, tmp_path):
        # K40 with cover size 39 is a YES instance with 822 colors, all of
        # them in some guess, and code length 863, deeper than the default
        # recursion limit; neither the multiset check nor the search recurses
        edges = list(itertools.combinations(range(1, 41), 2))
        graph = tmp_path / "k40.graph"
        graph.write_text(f"p edge 40 {len(edges)}\n"
                         + "".join(f"e {u} {v}\n" for u, v in edges))
        inst = tmp_path / "k40n39.msp"
        code, _, _ = run(capsys, "reduce", str(graph), "--cover-size", "39",
                         "-o", str(inst))
        assert code == EXIT_YES
        code, out, err = run(capsys, "solve", str(inst))
        assert code == EXIT_YES, err
        witness = tuple(int(tok) for tok in out.split())
        assert verify(parse_instance(inst.read_text()), witness)


class TestHugePalette:
    """A billion colors and one guess: nothing in the search scans the palette."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "billion.msp"
        path.write_text("msp 1000000000 3\ng 1 2 3 : 1 1\n")
        return path

    def test_solve(self, capsys, path):
        with time_limit(5):
            code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_YES
        witness = tuple(int(tok) for tok in out.split())
        assert verify(parse_instance(path.read_text()), witness)

    def test_unique(self, capsys, path):
        with time_limit(5):
            code, out, _ = run(capsys, "unique", str(path))
        assert code == EXIT_NO
        assert out.startswith("NOT-UNIQUE ")

    def test_all_capped(self, capsys, path):
        with time_limit(5):
            code, out, _ = run(capsys, "--cap", "3", "solve", "--all", str(path))
        assert code == EXIT_YES
        codes = [tuple(int(tok) for tok in line.split()) for line in out.splitlines()]
        assert len(codes) == 3
        assert codes == sorted(set(codes))


class TestVerify:
    def test_valid(self, capsys, tmp_path):
        path = tmp_path / "swap.msp"
        path.write_text("msp 2 2\ng 1 2 : 0 2\n")
        code, out, _ = run(capsys, "verify", str(path), "2 1")
        assert code == EXIT_YES
        assert out == "VALID\n"

    def test_invalid(self, capsys, tmp_path):
        path = tmp_path / "swap.msp"
        path.write_text("msp 2 2\ng 1 2 : 0 2\n")
        code, out, _ = run(capsys, "verify", str(path), "1 2")
        assert code == EXIT_NO
        assert out == "INVALID\n"


class TestCodeGrammar:
    """A code argument's pegs follow a guess line's integer grammar."""

    @pytest.mark.parametrize("code", ["+1 1", "1_0 1"])
    def test_verify_rejects_lenient_pegs(self, capsys, code):
        assert run(capsys, "verify", str(FIXTURES / "pinned.msp"), code) == (
            EXIT_USAGE, "", f"error: code must be space-separated integers, got {code!r}\n")


class TestReduce:
    def test_summary_to_stdout_with_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.msp"
        code, out, _ = run(capsys, "reduce", str(FIXTURES / "k3.graph"),
                           "--cover-size", "2", "-o", str(path))
        assert code == EXIT_YES
        assert out == "8 12 6\n"
        assert path.read_text().startswith("msp 8 12\n")

    def test_instance_to_stdout_summary_to_stderr(self, capsys):
        code, out, err = run(capsys, "reduce", str(FIXTURES / "k3.graph"),
                             "--cover-size", "2")
        assert code == EXIT_YES
        assert out.startswith("msp 8 12\n")
        assert err.strip() == "8 12 6"

    def test_compact_dimensions(self, capsys):
        code, out, err = run(capsys, "reduce", str(FIXTURES / "k3.graph"),
                             "--cover-size", "2", "--compact")
        assert code == EXIT_YES
        assert err.strip() == "8 9 6"

    def test_cover_size_out_of_range(self, capsys):
        code, _, err = run(capsys, "reduce", str(FIXTURES / "k3.graph"),
                           "--cover-size", "9")
        assert code == EXIT_USAGE


class TestExtract:
    def test_reads_cover_from_solver_witness(self, capsys, tmp_path):
        inst = tmp_path / "k3n2.msp"
        run(capsys, "reduce", str(FIXTURES / "k3.graph"), "--cover-size", "2",
            "-o", str(inst))
        code, out, _ = run(capsys, "solve", str(inst))
        assert code == EXIT_YES
        witness = out.strip()
        code, out, _ = run(capsys, "extract", str(FIXTURES / "k3.graph"),
                           "--cover-size", "2", str(inst), witness)
        assert code == EXIT_YES
        assert out == "1 2\n"

    def test_rejects_mismatched_instance(self, capsys, tmp_path):
        other = tmp_path / "other.msp"
        other.write_text("msp 2 2\ng 1 2 : 0 2\n")
        code, _, err = run(capsys, "extract", str(FIXTURES / "k3.graph"),
                           "--cover-size", "2", str(other), "2 1")
        assert code == EXIT_USAGE
        assert "match" in err

    def test_rejects_non_witness(self, capsys, tmp_path):
        inst = tmp_path / "k3n2.msp"
        run(capsys, "reduce", str(FIXTURES / "k3.graph"), "--cover-size", "2",
            "-o", str(inst))
        code, _, err = run(capsys, "extract", str(FIXTURES / "k3.graph"),
                           "--cover-size", "2", str(inst), "7 " * 11 + "7")
        assert code == EXIT_NO
        assert "error:" in err

    @pytest.mark.parametrize("witness, message", [
        ("1 2", "expected 9 pegs, got 2"),
        ("7 7 7 2 1 1 1 5 99", "peg 99 outside palette 1..8"),
    ], ids=["peg-count", "peg-outside-palette"])
    def test_malformed_witness_is_a_usage_error(self, capsys, tmp_path, witness, message):
        # not a code of the instance at all, as verify says too; exit 1
        # would read as "this code is no witness"
        inst, reduction = tmp_path / "k3n2.msp", ("--cover-size", "2", "--compact")
        run(capsys, "reduce", str(FIXTURES / "k3.graph"), *reduction, "-o", str(inst))
        for argv in (("verify", str(inst)),
                     ("extract", str(FIXTURES / "k3.graph"), *reduction, str(inst))):
            assert run(capsys, *argv, witness) == (EXIT_USAGE, "", f"error: {message}\n")


class TestUnique:
    def test_pinned_fixture(self, capsys):
        code, out, _ = run(capsys, "unique", str(FIXTURES / "pinned.msp"))
        assert code == EXIT_YES
        assert out == "UNIQUE 5\n"

    def test_many_solutions(self, capsys, tmp_path):
        path = tmp_path / "free.msp"
        path.write_text("msp 2 2\n")
        code, out, _ = run(capsys, "unique", str(path))
        assert code == EXIT_NO
        assert out.startswith("NOT-UNIQUE ")

    def test_unsat(self, capsys, tmp_path):
        path = tmp_path / "no.msp"
        path.write_text("msp 2 2\ng 1 1 : 2 0\ng 2 2 : 2 0\n")
        code, out, _ = run(capsys, "unique", str(path))
        assert code == EXIT_NO
        assert out == "UNSAT 0\n"


class TestRoundtrip:
    def test_triangle_table(self, capsys):
        code, out, _ = run(capsys, "roundtrip", str(FIXTURES / "k3.graph"))
        assert code == EXIT_YES
        lines = out.splitlines()
        assert lines[0] == "n vc standard compact agree"
        assert lines[1] == "1 no no no yes"
        assert lines[2] == "2 yes yes yes yes"
        assert lines[3] == "3 yes yes yes yes"

    def test_single_vertex_skips_compact(self, capsys, tmp_path):
        path = tmp_path / "dot.graph"
        path.write_text("p edge 1 0\n")
        code, out, _ = run(capsys, "roundtrip", str(path))
        assert code == EXIT_YES
        assert out.splitlines()[1] == "1 yes yes - yes"

    def test_max_n_clamps(self, capsys):
        code, out, _ = run(capsys, "roundtrip", str(FIXTURES / "c5.graph"),
                           "--max-n", "2")
        assert code == EXIT_YES
        assert len(out.splitlines()) == 3

    def test_max_n_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "roundtrip", str(FIXTURES / "c5.graph"),
                           "--max-n", "0")
        assert code == EXIT_USAGE

    def test_all_fixture_graphs_agree(self, capsys):
        for name in ("p3.graph", "single_edge.graph", "c5.graph"):
            code, out, _ = run(capsys, "roundtrip", str(FIXTURES / name))
            assert code == EXIT_YES, name
            assert "MISMATCH" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mspkit", "score", "--kappa", "6",
         "1 2 3 4", "1 3 2 5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1 2\n"


def test_calls_in_one_process_match_fresh_processes(capsys, tmp_path):
    # the parser is built once and shared; no option of one call may leak
    # into the next: a kept --cap 2 would refuse the 4-candidate sweep
    # (exit 3), and a kept --all would refuse --mode exhaustive (exit 2)
    path = tmp_path / "free.msp"
    path.write_text("msp 2 2\n")
    calls = [["--cap", "2", "solve", "--all", str(path)],
             ["solve", "--mode", "exhaustive", str(path)],
             ["solve", "--mode", "bogus", str(path)],
             ["verify", str(path), "2 1"]]
    seen = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        seen.append((code, capsys.readouterr().out))
    fresh = [subprocess.run([sys.executable, "-m", "mspkit", *argv],
                            capture_output=True, text=True) for argv in calls]
    assert seen == [(proc.returncode, proc.stdout) for proc in fresh]
    assert seen == [(EXIT_YES, "1 1\n1 2\n"), (EXIT_YES, "1 1\n"),
                    (EXIT_USAGE, ""), (EXIT_YES, "VALID\n")]
    assert build_parser() is build_parser()
    args = build_parser().parse_args(["solve", str(path)])
    assert (args.all, args.mode, args.cap) == (False, "backtrack", DEFAULT_EXHAUSTIVE_CAP)


def test_reader_closing_pipe_early_is_quiet(tmp_path):
    # 6^6 solutions overflow the pipe buffer, so the writer sees EPIPE.  The
    # instance is satisfiable, so exit 1 (NO) would misstate it; 141 is what
    # a shell reports for a writer that SIGPIPE ended (128 + 13)
    instance = tmp_path / "open.msp"
    instance.write_text("msp 6 6\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "mspkit", "solve", "--all", str(instance)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE == 141
    assert b"Traceback" not in err

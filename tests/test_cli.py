"""Command-line behavior: output schema, exit codes, batch mode, REPL."""

import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slownim.cli import MAX_TRACE_MOVES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def play(args, text):
    return subprocess.run(
        [sys.executable, "-m", "slownim", *args],
        input=text, capture_output=True, text=True, timeout=60)


def test_analyze_json_schema_and_round_trip(capsys):
    code, out, _ = run(capsys, "analyze", "--k", "2", "--json", "--trace", "3,3,3")
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == ["position", "n", "k", "remoteness", "status",
                         "best_move_keep_index", "branch", "trace"]
    assert rec == {
        "position": [3, 3, 3], "n": 3, "k": 2, "remoteness": 4,
        "status": "P", "best_move_keep_index": 3, "branch": "exceptional",
        "trace": [[3, 3, 3], [2, 2, 3], [1, 2, 2], [0, 1, 2], [0, 0, 1]],
    }
    assert json.loads(json.dumps(rec)) == rec


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", "--k", "2", "3", "5", "5")
    assert code == 0
    assert "remoteness 6" in out and "status P" in out
    assert "best move: keep index 3" in out

    code, out, _ = run(capsys, "analyze", "--k", "2", "0,0,9")
    assert code == 0
    assert "remoteness 0" in out and "status P" in out
    assert "branch: terminal" in out
    assert "best move" not in out

    code, out, _ = run(capsys, "analyze", "--k", "2", "--trace", "3,3,3")
    assert code == 0
    assert "trace: (3, 3, 3) -> (2, 2, 3) -> (1, 2, 2) -> (0, 1, 2) -> (0, 0, 1)\n" in out


def test_analyze_oracle_flag(capsys):
    code, out, _ = run(capsys, "analyze", "--k", "2", "--json", "--oracle", "1,1,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["remoteness"] == 1 and rec["branch"] == "oracle"
    assert rec["best_move_keep_index"] == 3


def test_analyze_general_shape_uses_oracle(capsys):
    code, out, _ = run(capsys, "analyze", "--k", "2", "--json", "--trace",
                       "1,1,2,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 4 and rec["k"] == 2
    assert rec["branch"] == "oracle"
    assert rec["best_move_keep_index"] is None
    assert rec["trace"] is None


def test_analyze_trace_is_capped(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "--k", "2", "--trace",
                         "1000000000,1000000000,1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("resource limit:") and err.count("\n") == 1
    # (0, c, c) has remoteness c: the cap itself still traces.
    edge = f"0,{MAX_TRACE_MOVES},{MAX_TRACE_MOVES}"
    code, out, _ = run(capsys, "analyze", "--k", "2", "--json", "--trace", edge)
    assert code == 0
    assert len(json.loads(out)["trace"]) == MAX_TRACE_MOVES + 1
    over = f"0,{MAX_TRACE_MOVES + 1},{MAX_TRACE_MOVES + 1}"
    code, _, err = run(capsys, "analyze", "--k", "2", "--trace", over)
    assert code == 3 and err.startswith("resource limit:")


def test_analyze_usage_errors(capsys):
    code, _, err = run(capsys, "analyze", "--k", "4", "1,2,3")
    assert code == 2
    assert "0 < k <= n = 3" in err
    code, out, err = run(capsys, "analyze", "--k", "2", "3,-1,2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nonnegative" in err
    code, out, err = run(capsys, "analyze", "--k", "2", "1,x,3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_grid(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--max", "8")
    assert code == 0
    assert "checked 165 positions, 0 mismatches" in out

    code, out, _ = run(capsys, "verify", "--k", "2", "--max", "0")
    assert code == 0
    assert "checked 1 positions, 0 mismatches" in out


def test_verify_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--k", "2", "--max", "4", "--appendix")
    assert code == 2
    assert "k=3" in err

    code, _, err = run(capsys, "verify", "--k", "2")
    assert code == 2
    assert "--max" in err

    code, out, err = run(capsys, "verify", "--k", "2", "--max", "-3")
    assert code == 2
    assert out == "" and err.startswith("error:") and "--max" in err

    code, out, err = run(capsys, "verify", "--k", "2", "--max", "2",
                         "--conjecture", "-1")
    assert code == 2
    assert out == "" and err.startswith("error:") and "--conjecture" in err

    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "verify", "--k", "2", "--positions", str(missing))
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "missing.txt" in err


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--max", "5", "--appendix")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_conjecture_reports_findings_only(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--max", "6",
                       "--conjecture", "4")
    assert code == 0
    assert "finding:" not in out
    assert "0 mismatches" in out


def test_verify_batch_file_and_shuffle_invariance(capsys, tmp_path):
    lines = ["3,3,3", "1 1 2", "0,0,9  # terminal", "", "# comment only"]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("\n".join(lines) + "\n", encoding="utf-8")
    b.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    code_a, out_a, _ = run(capsys, "verify", "--k", "2", "--positions", str(a))
    code_b, out_b, _ = run(capsys, "verify", "--k", "2", "--positions", str(b))
    assert code_a == code_b == 0
    assert out_a.strip().splitlines()[-1] == out_b.strip().splitlines()[-1]
    assert "checked 3 positions, 0 mismatches" in out_a


def test_bad_positions_print_one_error_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2,3\n# note\n4 x,5  # tail\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--k", "2", "--positions", str(bad))
    assert code == 2 and out == ""
    assert err == "error: position must be decimal integers, got ['4', 'x', '5']\n"
    bad.write_text("1,2,3\n , \n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--k", "2", "--positions", str(bad))
    assert code == 2 and err == "error: empty position\n"

    for argv, message in ((["1,x", "3"], "position must be decimal integers, "
                                         "got ['1', 'x', '3']"),
                          ([","], "empty position")):
        code, out, err = run(capsys, "analyze", "--k", "2", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_verify_batch_rejects_wrong_width(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2,3,4\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--k", "2", "--positions", str(bad))
    assert code == 2
    assert "expected 3" in err


def test_verify_counts_grid_and_batch_together(capsys, tmp_path):
    batch = tmp_path / "batch.txt"
    batch.write_text("3,3,3\n1,1,2\n7,8,9\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--k", "2", "--max", "5",
                       "--positions", str(batch))
    assert code == 0
    # 56 sorted grid positions with coordinates <= 5, then the 3 of the batch.
    assert out.splitlines() == ["checked 59 positions, 0 mismatches"]


def test_verify_resource_limit(capsys, monkeypatch):
    monkeypatch.setenv("SLOWNIM_MAX_STATES", "50")
    code, out, err = run(capsys, "verify", "--k", "2", "--max", "30")
    assert code == 3
    assert err.startswith("resource limit: state limit 50")
    assert err.count("\n") == 1
    assert "before the limit" in out


def _verify_report(out):
    """(mismatch lines, last line) of a verify run's stdout."""
    lines = out.splitlines()
    return [ln for ln in lines if ln.startswith("mismatch: ")], lines[-1]


def test_verify_reports_a_wrong_keep_rule(capsys, monkeypatch):
    # A legal but wrong rule: always keep the smallest pile.  The memoized
    # playout must still disagree with both solvers where that rule is slow.
    import slownim.mrule as mrule
    step = mrule._step
    monkeypatch.setattr(mrule, "_step", lambda x, keep: tuple(sorted(step(x, 1))))
    code, out, _ = run(capsys, "verify", "--k", "2", "--max", "4")
    assert code == 1
    found, last = _verify_report(out)
    assert "mismatch: (1, 1, 2): fast=1 oracle=1 playout=2" in found
    assert last == f"checked 35 positions, {len(found)} mismatches"
    for line in found:
        fast, slow, walk = re.fullmatch(
            r"mismatch: \(\d+, \d+, \d+\): fast=(\d+) oracle=(\d+) playout=(\d+)",
            line).groups()
        assert fast == slow != walk


def test_verify_reports_a_wrong_fast_solver(capsys, monkeypatch):
    # Off by one on every E-rule position: the oracle and the playout agree,
    # and with --appendix the closed-form parity disagrees as well.
    import slownim.fast as fast
    b_from_e = fast._b_from_e

    def wrong(x, k, keep):
        b, cert = b_from_e(x, k, keep)
        return b + 1, cert

    monkeypatch.setattr(fast, "_b_from_e", wrong)
    code, out, _ = run(capsys, "verify", "--k", "3", "--max", "3", "--appendix")
    assert code == 1
    found, last = _verify_report(out)
    assert "mismatch: (0, 1, 1, 1): fast=2 oracle=1 playout=1" in found
    assert "mismatch: (0, 1, 1, 1): closed-form=N solver=P" in found
    assert last == f"checked 35 positions, {len(found)} mismatches"
    assert all("closed-form=" in line or "playout=" in line for line in found)


def test_enumerate_resource_limit_is_one_line(capsys, monkeypatch):
    monkeypatch.setenv("SLOWNIM_MAX_STATES", "50")
    code, out, err = run(capsys, "enumerate", "--oracle", "4", "3",
                         "--m", "6", "--max", "9")
    assert code == 3 and out == ""
    assert err.startswith("resource limit: state limit 50")
    assert err.count("\n") == 1


def test_enumerate_default_cap_counts_piles(capsys):
    # About 10^9 positions of 1001 piles: the default cap stops the
    # enumeration after about 10^6 stored piles.
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--k", "1000", "--m", "200")
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_enumerate_closed_form(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "2", "--m", "6")
    assert code == 0
    body = out.strip().splitlines()
    assert body == [
        "0,6,6  A",
        "2,4,6  A",
        "3,5,5  B",
        "4,4,4  A",
        "total 4 positions with value 6",
    ]

    code, out, _ = run(capsys, "enumerate", "--k", "2", "--m", "0")
    assert "0,0,0  A" in out and "total 1 positions" in out

    code, out, _ = run(capsys, "enumerate", "--k", "1000", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["0" + ",2" * 1000 + "  A",
                                "total 1 positions with value 2"]


def test_enumerate_oracle_mode(capsys):
    code, out, _ = run(capsys, "enumerate", "--oracle", "5", "3",
                       "--m", "8", "--max", "9")
    assert code == 0
    assert "1,3,7,7,7" in out
    assert "3,5,5,6,7" in out
    assert "3,5,5,5,7" not in out
    assert "positions with value 8" in out


def test_enumerate_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--oracle", "5", "3", "--m", "8")
    assert code == 2
    assert "--max" in err

    code, _, err = run(capsys, "enumerate", "--m", "3")
    assert code == 2
    assert "--oracle" in err

    code, out, err = run(capsys, "enumerate", "--k", "5", "--oracle", "3", "2",
                         "--m", "2", "--max", "3")
    assert code == 2 and out == ""
    assert err == "error: give exactly one of --k K (closed form) and --oracle N K\n"

    code, out, err = run(capsys, "enumerate", "--k", "2", "--m", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bench_runs_and_reports(capsys, monkeypatch):
    code, out, _ = run(capsys, "bench", "--k", "8", "--bits", "12", "--reps", "2")
    assert code == 0
    assert out.count("rep ") == 2
    assert "mean" in out and "positions/s" in out

    # The timed call gets each rep's draw as drawn, so it times the sort too.
    import slownim.cli as cli
    seen = []
    fast = cli.remoteness_fast
    monkeypatch.setattr(cli, "remoteness_fast",
                        lambda x, k: seen.append(x) or fast(x, k))
    code, _, _ = run(capsys, "bench", "--k", "8", "--bits", "12", "--reps", "2",
                     "--seed", "5")
    assert code == 0
    rng = random.Random(5)
    draws = [[rng.randrange(1 << 12) for _ in range(9)] for _ in range(2)]
    assert all(x != sorted(x) for x in draws)
    assert seen == draws


def test_bench_rejects_nonpositive_reps(capsys):
    for flag, value, named in (("--reps", "0", "--reps"), ("--reps", "-2", "--reps"),
                               ("--bits", "-1", "--bits"),
                               ("--k", "0", "k must be a positive integer"),
                               ("--k", "-1", "k must be a positive integer")):
        code, out, err = run(capsys, "bench", "--k", "3", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err


def test_bad_state_limit_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SLOWNIM_MAX_STATES", "-5")
    code, out, err = run(capsys, "analyze", "--k", "2", "--oracle", "3,3,3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "SLOWNIM_MAX_STATES" in err


def test_bench_is_seed_reproducible(capsys):
    _, out_a, _ = run(capsys, "bench", "--k", "5", "--bits", "10",
                      "--reps", "1", "--seed", "7")
    _, out_b, _ = run(capsys, "bench", "--k", "5", "--bits", "10",
                      "--reps", "1", "--seed", "7")
    def digit_tokens(out):
        return [tok for line in out.splitlines() for tok in line.split()
                if tok.startswith("digits=")]

    assert digit_tokens(out_a) == digit_tokens(out_b) != []


def test_play_scripted_loss():
    proc = play(["play", "--k", "2", "1,1,2"], "1\n")
    assert proc.returncode == 0
    assert "no move possible: you lose" in proc.stdout


def test_play_engine_first_opening():
    proc = play(["play", "--k", "2", "--engine-first", "3,3,3"], "q\n")
    assert proc.returncode == 0
    assert "engine keeps index 3 -> (2, 2, 3)" in proc.stdout
    assert "bye" in proc.stdout


def test_play_illegal_move_reprompts():
    proc = play(["play", "--k", "2", "0,1,2"], "3\n1\n")
    assert proc.returncode == 0
    assert "illegal move: keep 3" in proc.stdout
    assert "no move possible: engine loses" in proc.stdout


def test_play_terminal_start():
    proc = play(["play", "--k", "2", "0,0,5"], "")
    assert proc.returncode == 0
    assert "no move possible: you lose" in proc.stdout


def test_play_wrong_shape():
    proc = play(["play", "--k", "2", "1,2,3,4"], "")
    assert proc.returncode == 2


# Fuzz of main(argv): sizes stay small so every valid command runs in
# milliseconds.  "@name" tokens stand for the batch files of the fixture.
BAD_TOKENS = st.sampled_from(["", "x", "1.5", "-", ",", "3,", "1e3", "--k", "nan"])


def _int(lo, hi):
    """A decimal token in [lo, hi], or now and then a malformed one."""
    return st.integers(0, 4).flatmap(
        lambda r: BAD_TOKENS if r == 0 else st.integers(lo, hi).map(str))


def _req(flag, value):
    return value.map(lambda v: [flag, v])


def _opt(flag, value):
    """Nothing, or ``flag`` followed by one value token."""
    return st.one_of(st.just([]), _req(flag, value))


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


POSITION = st.one_of(
    st.lists(_int(-1, 6), max_size=5),
    st.lists(st.integers(0, 6).map(str), min_size=1, max_size=5).map(
        lambda ps: [",".join(ps)]))
ARGV = st.one_of(
    _argv(st.just(["analyze"]), _req("--k", _int(-1, 3)),
          _flags("--oracle", "--json", "--trace"), POSITION),
    _argv(st.just(["verify"]), _req("--k", _int(-1, 3)), _opt("--max", _int(-1, 4)),
          _opt("--positions", st.sampled_from(["@good", "@wide", "@junk", "@missing"])),
          _flags("--appendix"), _opt("--conjecture", _int(-1, 3))),
    _argv(st.just(["enumerate"]), _opt("--k", _int(-1, 3)), _req("--m", _int(-1, 6)),
          st.one_of(st.just([]), st.tuples(_int(-1, 4), _int(-1, 3)).map(
              lambda nk: ["--oracle", *nk])),
          _opt("--max", _int(-1, 4))),
    _argv(st.just(["bench"]), _req("--k", _int(-1, 3)), _opt("--bits", _int(-1, 8)),
          _opt("--reps", _int(-1, 2)), _opt("--seed", _int(-1, 9))),
    st.lists(BAD_TOKENS, max_size=2),
)


@pytest.fixture(scope="module")
def batch_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("batch")
    files = {"@good": "3,3,3\n1 1 2  # comment\n", "@wide": "1,2,3,4,5\n",
             "@junk": "1,x,3\n"}
    for name, text in files.items():
        (root / name[1:]).write_text(text, encoding="utf-8")
    paths = {name: str(root / name[1:]) for name in files}
    paths["@missing"] = str(root / "missing")
    return paths


@settings(max_examples=150, deadline=None)
@given(argv=ARGV, cap=st.sampled_from([None, "5"]))    # a small cap reaches exit 3
@example(argv=["analyze", "--k", "2", "--trace", "0,10001,10001"], cap=None)
@example(argv=["verify", "--k", "2", "--max", "3"], cap="5")   # partial report first
def test_main_never_raises_and_exits_0_to_3(batch_files, argv, cap):
    argv = [batch_files.get(t, t) for t in argv]
    env = {} if cap is None else {"SLOWNIM_MAX_STATES": cap}
    with mock.patch.dict(os.environ, env), redirect_stdout(io.StringIO()) as out, \
            redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:    # argparse's usage errors
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    lines = err.getvalue().splitlines(keepends=True)
    if code == 2:                    # one error line, nothing on stdout
        assert out.getvalue() == "" and len(lines) == 1, (argv, out.getvalue(), lines)
        assert lines[0].startswith("error: "), (argv, lines)
    if code == 3:                    # a partial verify report may precede it
        assert len(lines) == 1 and lines[0].startswith("resource limit: "), (argv, lines)

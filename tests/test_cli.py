"""Command-line interface: verdicts, exit codes, formats."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from unittest.mock import patch

import pytest

from pnta import TimedWord, parse_automaton, zones
from pnta.cli import main
from pnta.zones import compile_automaton


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_parametric_nonempty(data_dir, capsys):
    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"))
    assert code == 10
    assert "Nonempty" in out and "41/40" in out


def test_check_json_report(data_dir, capsys):
    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"), "--json")
    assert code == 10
    report = json.loads(out)
    assert report["verdict"] == "Nonempty"
    assert report["witness_mu"] == "41/40"
    assert report["candidates_checked"] == 6
    assert report["zone_nodes"] > 0
    assert report["lasso"]["cycle"]
    assert "wall_ms" in report["timings"]
    assert report["relaxed"] is None


def test_check_reports_match_the_golden_file(data_dir, capsys, tmp_path):
    """`check FILE --witness --json` on every fixture and on gen lk and lpk at k = 2.

    tests/data/check_golden.json holds each exit code and report without
    its timings: verdict, witness mu, counts, zone lasso steps and witness word.
    """
    paths = sorted(data_dir.glob("*.ta"))
    for family in ("lk", "lpk"):
        path = tmp_path / f"{family}2.ta"
        assert _run(capsys, "gen", family, "--k", "2", "-o", str(path))[0] == 0
        paths.append(path)
    got = {}
    for path in paths:
        code, out, _ = _run(capsys, "check", str(path), "--witness", "--json")
        report = json.loads(out)
        del report["timings"]
        got[path.name] = {"exit": code, "report": report}
    assert got == json.loads((data_dir / "check_golden.json").read_text(encoding="utf-8"))


def test_check_decides_an_automaton_without_clocks(data_dir, capsys):
    """With no clock each zone is the 1 x 1 DBM of the zero clock, and the loop accepts."""
    code, out, _ = _run(capsys, "check", str(data_dir / "clockless.ta"), "--witness")
    lines = out.splitlines()
    assert code == 10 and lines[0] == "Nonempty"
    assert lines[1].startswith("candidates checked: 1, abstraction nodes: 1, ")
    assert lines[-2:] == ["witness word (1 cycle unrolling):", "a 0"]


def test_check_reports_the_relaxation_that_settled_an_empty_verdict(data_dir, capsys):
    path = str(data_dir / "relax_empty.ta")
    code, out, _ = _run(capsys, "check", path, "--json")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "Empty"
    assert (report["candidates_checked"], report["relaxed"]) == (1, ["0", "10"])
    code, out, _ = _run(capsys, "check", path, "--witness")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "Empty" and len(lines) == 3
    assert lines[1].startswith("candidates checked: 1, abstraction nodes: 13, ")
    assert lines[2] == "settled by one check with mu relaxed to [0, 10]"
    code, out, _ = _run(capsys, "check", str(data_dir / "e_param_contra.ta"))
    assert code == 0 and len(out.splitlines()) == 2  # the relaxation left that sweep open


def test_check_json_report_carries_the_witness_word(data_dir, capsys):
    window = str(data_dir / "e_window.ta")
    code, out, _ = _run(capsys, "check", window, "--json")
    assert code == 10
    assert json.loads(out)["witness_word"] is None
    code, out, _ = _run(capsys, "check", window, "--json", "--witness", "--unrollings", "2")
    assert code == 10
    word = json.loads(out)["witness_word"]
    assert word[:2] == [["a", "1"], ["a", "41/40"]]
    assert all(isinstance(ts, str) for _, ts in word)
    assert _replays((data_dir / "e_window.ta").read_text(), TimedWord.of(word), Fraction(41, 40))
    code, out, _ = _run(capsys, "check", str(data_dir / "e_empty.ta"), "--json", "--witness")
    assert code == 0
    assert json.loads(out)["witness_word"] is None


def test_check_witness_scales_the_automaton_once(data_dir, capsys, monkeypatch):
    """The winner's search, lasso and witness word read one scaled form.

    A check scales the compiled automaton once per checked candidate and
    builds no scaled Automaton: prepare_fixed, which builds one, is not called.
    """
    from pnta import cli, parametric
    from pnta.zones import Compiled

    built, scaled_at = [], []
    for module in (parametric, cli):
        monkeypatch.setattr(module, "prepare_fixed", lambda *args: built.append(args))
    at = Compiled.at
    monkeypatch.setattr(Compiled, "at",
                        lambda self, *bounds: scaled_at.append(bounds) or at(self, *bounds))
    window = str(data_dir / "e_window.ta")
    # the sweep also scales once to check the range [0, Xi] relaxed, after the first candidate
    for extra, scaled in (((), 7), (("--mu", "41/40"), 1)):
        scaled_at.clear()
        code, out, _ = _run(capsys, "check", window, "--witness", "--unrollings", "2", *extra)
        assert code == 10 and "witness word" in out
        assert len(scaled_at) == scaled and scaled_at[-1] == (Fraction(41, 40),)
    assert built == []


def test_check_fixed_mu_and_witness(data_dir, capsys):
    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"),
                        "--mu", "41/40", "--witness")
    assert code == 10
    assert "witness word" in out
    assert "a 41/40" in out

    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"), "--mu", "1/2")
    assert code == 0
    assert out.startswith("Empty")


@pytest.mark.parametrize("argv", [
    ("check", "{ta}"),
    ("regions", "{ta}"),
    ("simulate", "{ta}", "--word", "{word}"),
], ids=["check", "regions", "simulate"])
def test_check_refuses_mu_without_a_parameter(tmp_path, capsys, argv):
    from pnta import emptiness_fixed, gen_lk

    lk2, word = tmp_path / "lk2.ta", tmp_path / "lk2.tw"
    assert _run(capsys, "gen", "lk", "--k", "2", "-o", str(lk2))[0] == 0
    word.write_text("a 1\n")
    argv = (arg.format(ta=lk2, word=word) for arg in argv)
    code, out, err = _run(capsys, *argv, "--mu", "7/3")
    assert (code, out) == (2, "")
    assert err == "error: --mu given but the automaton has no parameter\n"
    v = emptiness_fixed(gen_lk(2), Fraction(7, 3))
    assert v.nonempty and v.witness_mu is None


def test_check_empty_instances(data_dir, capsys):
    for name in ("e_empty.ta", "e_param_contra.ta"):
        code, out, _ = _run(capsys, "check", str(data_dir / name))
        assert code == 0
        assert out.startswith("Empty")


def test_check_has_no_jobs_option(data_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(data_dir / "e_window.ta"), "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --jobs 2" in err and "Traceback" not in err


def test_check_json_counts_candidates(data_dir, capsys):
    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"), "--json")
    assert code == 10
    report = json.loads(out)
    assert report["witness_mu"] == "41/40"
    assert report["candidates_checked"] == 6


def test_check_budget_stop_message(data_dir, capsys):
    code, _, err = _run(capsys, "check", str(data_dir / "e_window.ta"), "--max-regions", "1")
    assert code == 3
    assert err == "budget exceeded: abstraction node budget exceeded (1 nodes)\n"


TEST_AND_RESET = (
    "automaton tr\nclocks x\n{params}init q0\naccept q1\n"
    "trans q0 q1 a ( x = 1 ) {{ x }}\n"
    "trans q1 q1 a ( x = {bound} ) {{ x }}\n"
)


@pytest.mark.parametrize("params, bound, argv, interp", [
    ("params mu\n", "mu", ("--mu", "1"), {"mu": 1}),
    ("", "1", (), None),
])
def test_check_witness_on_one_clock_test_and_reset(tmp_path, capsys, params, bound, argv,
                                                  interp):
    from pnta import parse_automaton, parse_timed_word, run_frontiers

    text = TEST_AND_RESET.format(params=params, bound=bound)
    p = tmp_path / "tr.ta"
    p.write_text(text)
    code, out, err = _run(capsys, "check", str(p), *argv, "--witness")
    assert code == 10, err
    w = parse_timed_word(out.split("witness word (1 cycle unrolling):\n", 1)[1])
    frontiers = run_frontiers(parse_automaton(text), w, interp)
    assert all(frontiers)
    assert "q1" in {c.state for c in frontiers[-1]}


@pytest.mark.parametrize("clocks, trans", [
    ("x y z", "trans q0 q0 a ( x < 1 ) { x y z }\n"),
    ("x y", "trans q0 q0 a ( x = 1 ) { x }\ntrans q0 q0 b ( y < 1 ) { y }\n"),
], ids=["three-clocks", "two-clock-test-and-reset"])
def test_check_decides_parameter_free_input_beyond_the_sweep(tmp_path, capsys, clocks, trans):
    # three clocks, or two with test-and-reset: outside the parametric sweep, but decidable
    p = tmp_path / "free.ta"
    p.write_text(f"automaton free\nclocks {clocks}\ninit q0\naccept q0\n{trans}")
    code, out, err = _run(capsys, "check", str(p))
    assert code == 10, err
    assert out.startswith("Nonempty")


@pytest.mark.parametrize("command", [("check",), ("regions", "--mu", "1")])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_max_regions_must_be_positive(data_dir, capsys, command, budget):
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(data_dir / "e_window.ta"), *command[1:], "--max-regions", budget])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("check", "{window}", "--mu", "abc"),
    ("simulate", "{window}", "--word", "{window}", "--mu", "abc"),
    ("regions", "{window}", "--mu", "1/0"),
    ("check", "{window}", "--unrollings", "0"),
], ids=["check-mu", "simulate-mu", "regions-mu", "unrollings"])
def test_bad_option_values_are_usage_errors(data_dir, capsys, argv):
    window = str(data_dir / "e_window.ta")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(window=window) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, want", [
    (("check", "{window}", "--witness", "--unrollings", str(10**18)), "longer than 1,000,000"),
    (("check", "{window}", "--witness", "--unrollings", str(10**30)), "longer than 1,000,000"),
    (("gen", "lk", "--k", "201"), "k must be from 1 to 200"),
    (("gen", "lpk", "--k", "201"), "k must be from 1 to 200"),
], ids=["unrollings-1e18", "unrollings-1e30", "gen-lk-201", "gen-lpk-201"])
def test_sizes_too_large_to_build_are_refused(data_dir, capsys, argv, want):
    """A witness word of over 10**6 events or a family member past k = 200 exits 2 at once.

    k is 201 here: without the bound a k of 10**5 or more fills memory
    before it fails, and CI's console-script step runs `gen lk --k 100000`.
    """
    window = str(data_dir / "e_window.ta")
    t0 = time.perf_counter()
    code, out, err = _run(capsys, *(arg.format(window=window) for arg in argv))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and want in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("check", "{dir}"),
    ("check", "{binary}"),
    ("validate", "{binary}"),
    ("simulate", "{window}", "--word", "{dir}", "--mu", "1"),
], ids=["check-directory", "check-binary", "validate-binary", "simulate-word-directory"])
def test_unreadable_input_is_a_bad_input_error(data_dir, tmp_path, capsys, argv):
    binary = tmp_path / "binary.ta"
    binary.write_bytes(b"automaton b\n\xff\xfe\x00\x89PNG\n")
    paths = {"dir": tmp_path, "binary": binary, "window": data_dir / "e_window.ta"}
    code, _, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("check", "{binary}"),
    ("validate", "{binary}"),
    ("simulate", "{window}", "--word", "{binary}", "--mu", "1"),
], ids=["check", "validate", "simulate-word"])
def test_an_undecodable_file_is_named_in_the_error(data_dir, tmp_path, capsys, argv):
    binary = tmp_path / "binary.ta"
    binary.write_bytes(b"automaton b\n\xff\xfe\x00\x89PNG\n")
    paths = {"binary": binary, "window": data_dir / "e_window.ta"}
    code, _, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith(f"error: cannot read {binary}: ") and "Traceback" not in err


NEGATIVE_MU = "automaton neg\nclocks x\nparams mu\ninit q0\naccept q1\ntrans q0 q1 a ( x > mu ) { }\n"
LOOP = "automaton loop\nclocks x\ninit q0\naccept q0\ntrans q0 q0 a ( true ) { }\n"
# q1 is unreachable, so the region graph stays small at any mu
LATE_MU = "automaton late\nclocks x\nparams mu\ninit q0\naccept q1\ntrans q1 q1 a ( x < mu ) { }\n"


@pytest.mark.parametrize("argv", [
    ("check", "{ta}", "--mu", "-1"),
    ("regions", "{ta}", "--mu", "-1"),
    ("simulate", "{ta}", "--word", "{word}", "--mu", "-1"),
], ids=["check", "regions", "simulate"])
def test_a_negative_parameter_value_is_refused(tmp_path, capsys, argv):
    ta, word = tmp_path / "neg.ta", tmp_path / "neg.tw"
    ta.write_text(NEGATIVE_MU)
    word.write_text("a 0\n")  # accepted at mu = -1: x = 0 > -1
    code, out, err = _run(capsys, *(arg.format(ta=ta, word=word) for arg in argv))
    assert (code, out) == (2, "")
    assert err == "error: parameter value must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [
    ("check", "{big}"),
    ("validate", "{big}"),
    ("translate", "{big}"),
    ("regions", "{big}"),
    ("check", "{ta}", "--mu", "1e5000"),
    ("check", "{ta}", "--mu", "1e-5000"),
    ("regions", "{ta}", "--mu=-1e5000"),
    ("simulate", "{ta}", "--word", "{word}", "--mu=-1e5000"),
    ("simulate", "{loop}", "--word", "{huge}"),
    ("simulate", "{loop}", "--word", "{falling}"),
    ("regions", "{late}", "--mu", "1e-5000"),
    ("regions", "{late}", "--mu", "1e5000"),
], ids=["check-constant", "validate-constant", "translate-constant", "regions-constant",
        "check-mu", "check-mu-fraction", "regions-mu", "simulate-mu", "simulate-clock",
        "simulate-falling-word", "regions-bound-tiny-mu", "regions-bound-huge-mu"])
def test_numbers_beyond_the_int_text_limit_are_refused_briefly(tmp_path, capsys, argv):
    """A 5,000-digit number is refused with exit 2 and a short message, printing nothing.

    The number is a guard constant, mu, a timestamp, a clock value or a region bound.
    """
    files = {
        "big": f"automaton big\nclocks x\ninit q0\naccept q0\n"
               f"trans q0 q0 a ( x < {'9' * 5000} ) {{ }}\n",
        "ta": NEGATIVE_MU, "word": "a 0\n", "loop": LOOP, "huge": "a 1e5000\n",
        "falling": "a 2e5000\na 1e5000\n", "late": LATE_MU,
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code, out, err = _run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert "Traceback" not in err and len(err) < 300
    want = "line 5: constant of 5000 digits is too long" if argv[1] == "{big}" else "digits>"
    assert want in err, err


def _one_guard(guard):
    return f"automaton deep\nclocks x\ninit q0\naccept q0\ntrans q0 q0 a ( {guard} ) {{ }}\n"


# each shape's guard at a depth of n levels of '&', '!' or '('
_NESTED = {
    "and": lambda n: " & ".join(["x < 1"] * (n + 1)),
    "not": lambda n: "!" * n + "x < 1",
    "paren": lambda n: "(" * n + "x < 1" + ")" * n,
}


@pytest.mark.parametrize("command", ["validate", "check", "regions", "translate"])
@pytest.mark.parametrize("shape, depth", [("and", 984), ("not", 3000), ("paren", 3000)])
def test_a_deeply_nested_guard_is_refused(tmp_path, capsys, command, shape, depth):
    """A guard nested past 200 levels is a parse error naming its line, not a RecursionError."""
    path = tmp_path / "deep.ta"
    path.write_text(_one_guard(_NESTED[shape](depth)))
    code, out, err = _run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert "error: line 5: guard nested more than 200 levels deep" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_a_guard_200_levels_deep_is_decided(tmp_path, capsys, shape):
    path = tmp_path / "deep.ta"
    path.write_text(_one_guard(_NESTED[shape](200)))
    code, out, _ = _run(capsys, "check", str(path))
    assert code == 10 and out.startswith("Nonempty")
    path.write_text(_one_guard(_NESTED[shape](201)))
    assert _run(capsys, "check", str(path))[0] == 2


def _unequal(clock, n):
    return " & ".join(f"!({clock} = {i})" for i in range(n))


def test_negated_equalities_compile_to_one_box_each_and_a_product_past_4096_is_refused(
        tmp_path, capsys):
    """n conjuncts !(x = i), i < n, make n boxes: x in (i, i + 1), and x > n - 1.

    13 and 24 such conjuncts are decided.  On two clocks, 64 of them each
    make a product of 64 x 64 = 4,096 boxes, and 65 each one of 4,225
    pairs, refused before it is built.  On four clocks, the union of two
    such 64 x 64 blocks keeps 8,192 boxes, no two of which merge, and is
    refused after it is built.  Forty 12-conjunct lines compile to 480
    steps, where the normal form had 2^12 disjuncts per line.
    """
    path = tmp_path / "wide.ta"
    for n in (13, 24):
        path.write_text(_one_guard(_unequal("x", n)))
        for command, code in (("check", 10), ("regions", 0)):
            t0 = time.perf_counter()
            got, _, err = _run(capsys, command, str(path))
            assert got == code and time.perf_counter() - t0 < 10, (n, command, err)

    def two_clocks(n):
        return ("automaton two\nclocks x y\ninit q0\naccept q0\n"
                f"trans q0 q0 a ( ({_unequal('x', n)}) & ({_unequal('y', n)}) ) {{ }}\n")

    def block(x, y):
        return f"!( ({_unequal(x, 64)}) & ({_unequal(y, 64)}) )"

    for text in (two_clocks(65),
                 "automaton four\nclocks x y z w\ninit q0\naccept q0\n"
                 f"trans q0 q0 a ( !( {block('x', 'y')} & {block('z', 'w')} ) ) {{ }}\n"):
        path.write_text(text)
        t0 = time.perf_counter()
        got, _, err = _run(capsys, "check", str(path))
        assert time.perf_counter() - t0 < 1
        assert got == 2
        assert err == "error: guard has more than 4096 disjuncts in disjunctive normal form\n"
    for text, steps, seconds in (
            ("automaton many\nclocks x\ninit q0\naccept q0\n"
             + f"trans q0 q0 a ( {_unequal('x', 12)} ) {{ }}\n" * 40, 480, 0.1),
            (two_clocks(64), 4096, 1)):
        a = parse_automaton(text)
        t0 = time.perf_counter()
        compiled = compile_automaton(a)
        assert time.perf_counter() - t0 < seconds
        assert sum(map(len, compiled.out.values())) == steps


def test_a_product_of_sides_over_disjoint_clocks_runs_no_union(tmp_path, capsys):
    """!(x0 = 1) & ... & !(x11 = 1) & y0 < 1 & ... & y186 < 1 makes 4,096 boxes over 199 clocks.

    No conjunction's sides test a common clock, so no union runs on its
    products.  It compiles in under 3 s, and check decides it.
    """
    clocks = [f"x{i}" for i in range(12)] + [f"y{i}" for i in range(187)]
    guard = " & ".join([f"!(x{i} = 1)" for i in range(12)] + [f"y{i} < 1" for i in range(187)])
    text = (f"automaton clocks199\nclocks {' '.join(clocks)}\ninit q0\naccept q0\n"
            f"trans q0 q0 a ( {guard} ) {{ }}\n")
    a = parse_automaton(text)
    with patch("pnta.zones._union", side_effect=zones._union) as union:
        t0 = time.perf_counter()
        compiled = compile_automaton(a)
        assert time.perf_counter() - t0 < 3
    assert not union.called
    assert sum(map(len, compiled.out.values())) == 4096
    path = tmp_path / "clocks199.ta"
    path.write_text(text)
    code, out, err = _run(capsys, "check", str(path))
    assert (code, err) == (10, ""), err
    assert out.startswith("Nonempty")


def test_a_delay_beyond_the_int_text_limit_just_fails_a_guard(tmp_path, capsys):
    """A first delay of 10^-5000 fails x > 1: no configuration, exit 0, no traceback."""
    ta, word = tmp_path / "gt.ta", tmp_path / "tiny.tw"
    ta.write_text("automaton gt\nclocks x\ninit q0\naccept q0\ntrans q0 q0 a ( x > 1 ) { }\n")
    word.write_text("a 1e-5000\n")
    code, out, err = _run(capsys, "simulate", str(ta), "--word", str(word))
    assert (code, out, err) == (0, "configurations: 0\naccepting reachable: no\n", "")


def test_main_calls_share_no_parsed_state(data_dir, capsys):
    """The parser is built once per process; no call sees another's arguments."""
    from pnta.cli import _build_parser

    window = str(data_dir / "e_window.ta")
    calls = [
        ("check", window, "--max-regions", "0"),
        ("check", window, "--json"),
        ("check", "--mu", "1", window),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if argv[-1] == "--json":
            out = {k: v for k, v in json.loads(out).items() if k != "timings"}
        else:
            out = out.split("wall ms")[0]
        return code, out, err

    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(argv))
    _build_parser.cache_clear()
    together = [run(argv) for argv in calls]
    assert together == alone
    assert [code for code, _, _ in together] == [2, 10, 0]
    assert _build_parser.cache_info().misses == 1


def _witness(out):
    from pnta import parse_timed_word

    return parse_timed_word(out.split("witness word (1 cycle unrolling):\n", 1)[1])


def _replays(text, w, mu):
    from pnta import parse_automaton
    from randgen import reaches_acceptance

    return reaches_acceptance(parse_automaton(text), w, {"mu": mu})


def test_witness_header_counts_the_unrollings(data_dir, capsys):
    from pnta import parse_timed_word

    window = data_dir / "e_window.ta"
    words = []
    for unrollings, header in (("1", "witness word (1 cycle unrolling):\n"),
                               ("3", "witness word (3 cycle unrollings):\n")):
        code, out, _ = _run(capsys, "check", str(window), "--witness", "--unrollings", unrollings)
        assert code == 10
        words.append(parse_timed_word(out.split(header, 1)[1]))
        assert _replays(window.read_text(), words[-1], Fraction(41, 40))
    assert len(words[1]) > len(words[0])


def test_p607_041_witness_is_short(tmp_path, capsys):
    # global-bound extrapolation let this zone cycle run 160 steps before it closed
    from pnta import print_automaton
    from randgen import two_clock_population

    a = two_clock_population()[41]
    p = tmp_path / "p607-041.ta"
    p.write_text(print_automaton(a))
    code, out, err = _run(capsys, "check", str(p), "--witness")
    assert code == 10, err
    w = _witness(out)
    assert len(w) <= 20
    mu = Fraction(out.split("witness mu = ", 1)[1].split(")", 1)[0])
    assert _replays(p.read_text(), w, mu)


def test_check_w10y_witness(data_dir, capsys):
    # the zone sweep settles this quickly; recovering the lasso on regions used to exhaust the budget
    code, out, err = _run(capsys, "check", str(data_dir / "w10y.ta"), "--witness")
    assert code == 10, err
    assert out.startswith("Nonempty (witness mu = 32081/3208)\n")
    assert _replays((data_dir / "w10y.ta").read_text(), _witness(out), Fraction(32081, 3208))


def test_check_w10_witness_is_fast(data_dir, tmp_path, capsys):
    text = (data_dir / "e_window.ta").read_text().replace("( x = 1 )", "( x = 10 )")
    p = tmp_path / "w10.ta"
    p.write_text(text)
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "check", str(p), "--witness")
    assert time.perf_counter() - t0 < 2
    assert code == 10, err
    assert out.startswith("Nonempty (witness mu = 32081/3208)\n")
    assert _replays(text, _witness(out), Fraction(32081, 3208))


def test_check_explains_the_drift_variant_with_its_zone_steps(data_dir, tmp_path, capsys):
    """A lasso of 25 zone nodes is printed as its four steps, not as the regions its run crosses.

    With x1 < 8 from q1, the earliest run's x2 drifts through 65,791
    regions at mu = 1/2056 before a (state, region) node recurs.
    """
    text = (data_dir / "drift.ta").read_text() + "trans q1 q3 a ( x1 < 8 ) { }\n"
    p = tmp_path / "drift-var.ta"
    p.write_text(text)
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "check", str(p), "--witness", "--json")
    assert time.perf_counter() - t0 < 2
    assert code == 10, err
    assert len(out.encode()) < 10_000
    report = json.loads(out)
    lap = [["q0", "b", "q2"], ["q2", "a", "q0"]]
    assert report["lasso"] == {"stem": lap, "cycle": lap}
    assert (report["witness_mu"], report["zone_nodes"]) == ("1/2056", 25)
    assert _replays(text, TimedWord.of(report["witness_word"]), Fraction(1, 2056))


HASH_PROBE = """
from pnta import find_lasso, parse_automaton, prepare_fixed, region_str, ta_to_nrtta
from pnta.cli import main
main(["check", {path!r}, "--witness"])
scaled, m, _ = prepare_fixed(ta_to_nrtta(parse_automaton(open({path!r}).read())), 1)
lasso = find_lasso(scaled, m)
for nodes in (lasso.stem_nodes, lasso.cycle_nodes):
    print([(q, region_str(r)) for q, r in nodes])
print(lasso.stem_edges, lasso.cycle_edges)
"""


def test_lassos_do_not_depend_on_string_hashing(tmp_path):
    p = tmp_path / "tr.ta"
    p.write_text(TEST_AND_RESET.format(params="params mu\n", bound="mu"))
    outputs = set()
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", HASH_PROBE.format(path=str(p))],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add("".join(line for line in proc.stdout.splitlines(True)
                            if "wall ms" not in line))
    assert len(outputs) == 1


def test_check_budget_exit_code(data_dir, capsys):
    code, _, err = _run(capsys, "check", str(data_dir / "e_window.ta"),
                        "--max-regions", "1")
    assert code == 3
    assert "budget" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, "check", str(tmp_path / "nope.ta"))
    assert code == 2
    assert "error" in err


def test_check_rejects_three_clocks(tmp_path, capsys):
    p = tmp_path / "wide.ta"
    p.write_text(
        "automaton wide\nclocks x y z\nparams mu\ninit q0\naccept q0\n"
        "trans q0 q0 a ( x = mu ) { y z }\n"
    )
    code, _, err = _run(capsys, "check", str(p))
    assert code == 2


def test_validate_and_parse_errors(data_dir, tmp_path, capsys):
    code, out, _ = _run(capsys, "validate", str(data_dir / "e_window.ta"))
    assert code == 0
    assert out.startswith("ok:")

    bad = tmp_path / "bad.ta"
    bad.write_text("automaton b\ninit q0\ntrans q0 q1 a ( x < ) { }\n")
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 2

    mixed = tmp_path / "mixed.ta"
    mixed.write_text(
        "automaton m\nclocks x y\nparams mu\ninit q0\naccept q0\n"
        "trans q0 q0 a ( x < 1 & y = mu ) { }\n"
    )
    code, _, err = _run(capsys, "validate", str(mixed))
    assert code == 2
    assert "MixedGuard" in err


def test_simulate(data_dir, tmp_path, capsys):
    w = tmp_path / "w.tw"
    w.write_text("a 1\na 41/40\n")
    code, out, _ = _run(capsys, "simulate", str(data_dir / "e_window.ta"),
                        "--word", str(w), "--mu", "41/40")
    assert code == 0
    assert "accepting reachable: yes" in out
    assert "q2" in out

    code, out, _ = _run(capsys, "simulate", str(data_dir / "e_window.ta"),
                        "--word", str(w), "--mu", "2")
    assert code == 0
    assert "accepting reachable: no" in out

    code, _, err = _run(capsys, "simulate", str(data_dir / "e_window.ta"),
                        "--word", str(w))
    assert code == 2  # parametric automaton needs --mu


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write first


def test_check_reads_past_a_byte_order_mark(data_dir, tmp_path, capsys):
    ta = tmp_path / "bom.ta"
    ta.write_bytes(BOM + (data_dir / "e_window.ta").read_bytes())
    reports = []
    for path in (data_dir / "e_window.ta", ta):
        code, out, err = _run(capsys, "check", str(path), "--witness", "--json")
        assert (code, err) == (10, "")
        reports.append({k: v for k, v in json.loads(out).items() if k != "timings"})
    assert reports[1] == reports[0]


def test_simulate_reads_past_a_byte_order_mark_in_the_word(tmp_path, capsys):
    ta = tmp_path / "loop.ta"
    ta.write_text(LOOP)
    word = tmp_path / "w.tw"
    word.write_bytes(BOM + b"a 1\na 2\n")
    code, out, err = _run(capsys, "simulate", str(ta), "--word", str(word))
    assert (code, err) == (0, "")
    assert out == "q0 x=2\nconfigurations: 1\naccepting reachable: yes\n"


def test_translate_round_trips(tmp_path, capsys):
    src = tmp_path / "rr.ta"
    src.write_text(
        "automaton rr\nclocks x\ninit q0\naccept q1\n"
        "trans q0 q1 a ( x = 1 ) { x }\n"
        "trans q1 q0 a ( x = 1 ) { x }\n"
    )
    out_path = tmp_path / "rr_nrt.ta"
    code, _, _ = _run(capsys, "translate", str(src), "-o", str(out_path))
    assert code == 0
    from pnta import is_nrtta, parse_automaton
    b = parse_automaton(out_path.read_text())
    assert is_nrtta(b)


def test_regions_summary_and_dot(data_dir, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, out, _ = _run(capsys, "regions", str(data_dir / "e_window.ta"),
                        "--mu", "3/2", "--dot", str(dot))
    assert code == 0
    assert "nodes:" in out and "accepting lasso: yes" in out
    assert dot.read_text().startswith("digraph")

    code, _, err = _run(capsys, "regions", str(data_dir / "e_window.ta"))
    assert code == 2  # --mu required for parametric input

    # a --dot file that cannot be written is refused before anything is printed
    code, out, err = _run(capsys, "regions", str(data_dir / "e_window.ta"),
                          "--mu", "3/2", "--dot", str(tmp_path / "missing" / "g.dot"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_regions_budget_counts_each_delay_fan(data_dir, capsys):
    """At this value every w10y node fans out over 128,321 delay regions: the budget stops the first fan."""
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "regions", str(data_dir / "w10y.ta"), "--mu", "32081/3208",
                          "--max-regions", "100000")
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: abstraction node budget exceeded (100000 nodes)\n"
    assert time.perf_counter() - t0 < 30


def test_regions_budget_stops_a_delay_fan_while_it_is_built(data_dir, capsys):
    """At mu = 10**13 the first fan has about 2 * 10**13 regions; the budget stops it at 1,000."""
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "regions", str(data_dir / "e_window.ta"),
                          "--mu", "10000000000000", "--max-regions", "1000")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: abstraction node budget exceeded (1000 nodes)\n"
    assert time.perf_counter() - t0 < 2


def test_regions_takes_a_value_beyond_the_zone_engines_range(data_dir, capsys):
    """At mu = 10**19 `regions` stops at its budget; only `check` refuses the value."""
    path, mu = str(data_dir / "e_window.ta"), "10000000000000000000"
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "regions", path, "--mu", mu, "--max-regions", "1000")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: abstraction node budget exceeded (1000 nodes)\n"
    assert time.perf_counter() - t0 < 2
    code, out, err = _run(capsys, "check", path, "--mu", mu)
    assert (code, out) == (2, "")
    assert err == (f"error: constants scaled by 1 reach {mu} at mu = {mu}, "
                   "beyond the zone engine's range\n")


@pytest.mark.parametrize("mu, code", [("1/800000008", 0), ("1/10000000000000000", 2)])
def test_check_of_large_scaled_bounds_is_right_or_refused(data_dir, capsys, mu, code):
    """Empty at every mu, never a traceback: a value beyond the zone engine's range is refused."""
    got, out, err = _run(capsys, "check", str(data_dir / "inf_overflow.ta"), "--mu", mu, "--witness")
    assert got == code
    assert out.startswith("Empty") if code == 0 else err.startswith(
        f"error: constants scaled by {mu[2:]} reach ")


def test_gen_round_trips(capsys):
    from pnta import gen_lpk, parse_automaton

    code, out, _ = _run(capsys, "gen", "lpk", "--k", "2")
    assert code == 0
    assert parse_automaton(out) == gen_lpk(2)


def test_there_is_no_analyze_command(capsys):
    for argv in (["analyze"], ["analyze", "--trials", "50"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'analyze'" in err and "Traceback" not in err


def test_check_closed_stdout_has_no_traceback(data_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "pnta.cli", "check", str(data_dir / "e_window.ta"), "--witness"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # before the verdict is printed
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_the_cli_imports_no_process_machinery():
    """Start-up stays light: importing the front end loads no process-pool modules."""
    probe = ("import sys, pnta.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_entry_point(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "pnta.cli", "check", str(data_dir / "e_empty.ta")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("Empty")


def _readme_sessions():
    """(command, shown output lines) of each README block that starts with `$ pnta `."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.splitlines()[1:] for b in text.split("```")[1::2] if b.startswith("\n$ pnta ")]
    return [(lines[0], lines[1:]) for lines in blocks]


def test_readme_sessions_match_the_cli(capsys, monkeypatch):
    """Every shown line of a README session, `...` aside, appears in order in real output."""
    sessions = _readme_sessions()
    assert len(sessions) >= 2
    monkeypatch.chdir(pathlib.Path(__file__).parent.parent)
    mask = partial(re.sub, r"wall ms: \d+", "wall ms: N")
    for command, shown in sessions:
        _, out, _ = _run(capsys, *shlex.split(command)[2:])
        lines = iter(mask(out).splitlines())
        for line in shown:
            if line != "...":
                assert mask(line) in lines, f"{command}: {line!r} not shown by the CLI"


def test_readme_library_block_gives_its_commented_results(monkeypatch):
    """README's Library block runs from the repository root and gives the results it shows."""
    root = pathlib.Path(__file__).parent.parent
    block = (root / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    lines = block.split("```")[1].splitlines()[1:]  # past the language tag
    monkeypatch.chdir(root)
    scope: dict = {}
    exec("\n".join(lines), scope)
    shown = [(code.strip(), comment.strip())
             for code, _, comment in (line.partition("#") for line in lines) if comment]
    (assign, verdict), (fixed, false), (word, events) = shown
    assert assign == "v = parametric_emptiness(a)" and scope["v"].nonempty
    assert verdict.startswith("Verdict(nonempty=True, witness_mu=Fraction(41, 40), ")
    assert scope["v"].witness_mu == Fraction(41, 40)
    assert false == "False" and eval(fixed, scope) is False
    assert events == "TimedWord: a@1, a@41/40, a@83/80"
    assert eval(word, scope).events == tuple(
        (letter, Fraction(t)) for letter, t in
        (e.split("@") for e in events[len("TimedWord: "):].split(", ")))

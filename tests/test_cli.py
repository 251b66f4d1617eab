"""Command-line interface: verdicts, exit codes, formats."""

import json
import subprocess
import sys

import pytest

from pnta.cli import main


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


def test_check_fixed_mu_and_witness(data_dir, capsys):
    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"),
                        "--mu", "41/40", "--witness")
    assert code == 10
    assert "witness word" in out
    assert "a 41/40" in out

    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"), "--mu", "1/2")
    assert code == 0
    assert out.startswith("Empty")


def test_check_empty_instances(data_dir, capsys):
    for name in ("e_empty.ta", "e_param_contra.ta"):
        code, out, _ = _run(capsys, "check", str(data_dir / name))
        assert code == 0
        assert out.startswith("Empty")


def test_check_parallel_jobs_same_verdict(data_dir, capsys):
    code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"), "--jobs", "2")
    assert code == 10
    assert "41/40" in out


def test_check_jobs_do_not_change_counts(data_dir, capsys):
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = _run(capsys, "check", str(data_dir / "e_window.ta"), "--json",
                            "--jobs", jobs)
        assert code == 10
        reports.append(json.loads(out))
    serial, parallel = reports
    assert parallel["witness_mu"] == serial["witness_mu"] == "41/40"
    assert parallel["candidates_checked"] == serial["candidates_checked"] == 6
    assert parallel["zone_nodes"] == serial["zone_nodes"]


def test_check_budget_stop_same_with_jobs(data_dir, capsys):
    for jobs in ("1", "2"):
        code, _, err = _run(capsys, "check", str(data_dir / "e_window.ta"),
                            "--max-regions", "1", "--jobs", jobs)
        assert code == 3
        assert err == "budget exceeded: region node budget exceeded (1 nodes)\n"


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
    w = parse_timed_word(out.split("witness word (one cycle unrolling):\n", 1)[1])
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


def test_gen_round_trips(capsys):
    from pnta import gen_lpk, parse_automaton

    code, out, _ = _run(capsys, "gen", "lpk", "--k", "2")
    assert code == 0
    assert parse_automaton(out) == gen_lpk(2)


def test_analyze_exit_codes(capsys):
    code, out, _ = _run(capsys, "analyze", "--seed", "3", "--trials", "40")
    assert code == 0
    for name in ("prop1", "prop2", "lemma4", "lemma3"):
        assert name in out


def test_check_closed_stdout_has_no_traceback(data_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "pnta.cli", "check", str(data_dir / "e_window.ta"), "--witness"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # before the verdict is printed
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_console_script_entry_point(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "pnta.cli", "check", str(data_dir / "e_empty.ta")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("Empty")

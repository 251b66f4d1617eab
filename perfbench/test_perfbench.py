"""Tests of the benchmark itself: its inputs, its checks and its output contract.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (ROOT / "src", HERE, ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import gen  # noqa: E402
import workloads  # noqa: E402
from pnta import atoms, candidate_parameters, print_automaton  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import Known, Op, Outcome  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_population_matches_test_generator():
    import randgen

    rng = random.Random(607)
    expected = []
    while len(expected) < 200:
        a = randgen.rand_nrtta(rng, max_states=3, max_clocks=2, cmax=2, param="mu")
        if len(a.clocks) == 2 and any(isinstance(at.bound, str)
                                      for t in a.transitions for at in atoms(t.guard)):
            expected.append(a)
    ours = gen.two_clock_population()
    assert [print_automaton(a) for a in ours] == [print_automaton(a) for a in expected]


def test_fixtures_match_test_data():
    for name in workloads.FIXTURES:
        ours = (HERE / "data" / f"{name}.ta").read_text(encoding="utf-8")
        assert ours == (ROOT / "tests" / "data" / f"{name}.ta").read_text(encoding="utf-8")


def test_one_clock_inputs_need_translation():
    for a in gen.one_clock_population():
        assert len(a.clocks) == 1 and set(a.params) == {"mu"}
        assert any(set(at.clock for at in atoms(t.guard)) & set(t.resets)
                   for t in a.transitions)


def test_hand_answers_are_candidates():
    for key, a, mu in workloads.witness_scale_inputs():
        assert mu in candidate_parameters(a).values, key


def test_known_answers_cover_every_input():
    answers = workloads.load_answers()
    keys = {key for key, _, _ in workloads.check_mix_inputs()}
    assert keys == set(answers["check_mix"])
    for key, _, gaps in workloads.zone_grid_pool():
        assert {str(mu) for _, mus in gaps for mu in mus} == set(answers["zone_grid"][key])


def _window_op():
    a = workloads.witness_scale_inputs(smoke=True)[-1][1]
    return Op("e_window", a, Known(True, Fraction(41, 40), "by hand"), None)


def test_wrong_results_are_counted():
    op = _window_op()
    good = "Nonempty (witness mu = 41/40)\nwitness word (one cycle unrolling):\na 1\na 41/40\na 2\n"
    out = workloads.read_check_mix(op, (10, good))
    assert workloads.wrong_count(op, out, True) == 0
    # wrong mu, and a word the simulator cannot read: two wrong results
    bad = good.replace("mu = 41/40", "mu = 3/2").replace("a 41/40", "a 11/10")
    assert workloads.wrong_count(op, workloads.read_check_mix(op, (10, bad)), True) == 2
    # a Nonempty without a word does not replay
    assert workloads.wrong_count(op, Outcome(True, True, Fraction(41, 40)), True) == 1
    assert workloads.wrong_count(op, workloads.read_check_mix(op, (0, "Empty\n")), True) == 1
    # a budget stop is undecided, not wrong
    out = workloads.read_check_mix(op, (3, ""))
    assert not out.decided and workloads.wrong_count(op, out, True) == 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    """Every workload, gated in BENCHMARK.json or not, keeps the output contract."""
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    meta = json.loads(lines[-2].removeprefix("meta "))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert meta["wrong_results"] == 0 and meta["src_pnta_lines"] > 0
    if trace == "1":
        assert meta["absent_layers"] == []
        assert (ROOT / meta["spans_file"]).is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"))
    proc = _run(tmp_path, "--workload", "check-mix", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""

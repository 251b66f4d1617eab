"""The three benchmark workloads: inputs, one operation, and its check.

Each workload builds a list of operations from the seed.  An operation
turns one input into a verdict (plus a witness word where the workload
asks for one); `wrong_count` compares the outcome with a known answer
that never comes from the zone engine under test, and replays every
witness word through the simulator.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pnta.cli
import pnta.parametric
import pnta.regions
from pnta import Automaton, TimedWord, gen_lpk, parse_automaton, print_automaton, run_frontiers
from pnta.errors import MalformedWord

import gen

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
ANSWERS = HERE / "answers.json"
FIXTURES = ("e_window", "e_empty", "e_param_contra")

# The node budget B of each workload.  It must stay far below the default
# 10**7: at that budget instance p607-148 exhausts memory in region lasso
# recovery.  witness-scale's is smaller so that a pass of its 51 inputs,
# nearly all of which stop at B, takes a few seconds.
CHECK_BUDGET = 20_000
ZONE_BUDGET = 20_000
WITNESS_BUDGET = 5_000
# witness-scale constants: w_C and w_Cy for each C, plus lpk(1), lpk(2) and e_window.
SCALE_CS = tuple(range(1, 25))
# Sizes of the benchmark's own smoke tests.
SMOKE_POPULATION = 12
SMOKE_ONE_CLOCK = 3
SMOKE_SCALE_CS = (1, 2)


@dataclass(frozen=True)
class Known:
    nonempty: bool
    mu: Optional[Fraction]
    source: str


@dataclass
class Op:
    key: str
    automaton: Automaton
    known: Known
    arg: object  # input file (check-mix) or parameter value (zone-grid)


@dataclass
class Outcome:
    decided: bool
    nonempty: bool = False
    mu: Optional[Fraction] = None
    word: Optional[TimedWord] = None


def _frac(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


def region_caches() -> list:
    """The module-level `functools.cache` helpers of pnta.regions."""
    return [obj for obj in vars(pnta.regions).values() if hasattr(obj, "cache_info")]


def clear_caches() -> None:
    """Empty the region caches, as a fresh `pnta check` process starts."""
    for fn in region_caches():
        fn.cache_clear()


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def replays(a: Automaton, word: Optional[TimedWord], mu: Optional[Fraction]) -> bool:
    """True iff the simulator reads the word and ends in an accepting state."""
    if word is None or not len(word):
        return False
    interp = {p: mu for p in a.params} if a.params else None
    frontiers = run_frontiers(a, word, interp)
    return all(frontiers) and any(c.state in a.accepting for c in frontiers[-1])


def wrong_count(op: Op, out: Outcome, needs_word: bool) -> int:
    """Wrong verdict, wrong witness mu and non-replaying word count one each."""
    if not out.decided:
        return 0
    if out.nonempty != op.known.nonempty:
        return 1
    if not out.nonempty:
        return 0
    wrong = 0
    if op.automaton.params and out.mu != op.known.mu:
        wrong += 1
    if needs_word and not replays(op.automaton, out.word, out.mu):
        wrong += 1
    return wrong


# ---------------------------------------------------------------------------
# check-mix: `pnta check FILE --witness --max-regions B`, in process


def check_mix_inputs(smoke: bool = False) -> list[tuple[str, Automaton, str]]:
    """(key, automaton, file text) for every check-mix input."""
    size = SMOKE_POPULATION if smoke else gen.POPULATION_SIZE
    ones = SMOKE_ONE_CLOCK if smoke else gen.ONE_CLOCK_SIZE
    items = [(f"p607-{i:03d}", a, print_automaton(a))
             for i, a in enumerate(gen.two_clock_population(size=size))]
    items += [(f"one-{i:03d}", a, print_automaton(a))
              for i, a in enumerate(gen.one_clock_population(size=ones))]
    for name in FIXTURES:
        text = (DATA / f"{name}.ta").read_text(encoding="utf-8")
        items.append((f"fix-{name}", parse_automaton(text), text))
    return items


def build_check_mix(seed: int, smoke: bool, workdir: Path, answers: dict) -> list[Op]:
    known = answers["check_mix"]
    ops = []
    for key, a, text in check_mix_inputs(smoke):
        path = workdir / f"{key}.ta"
        path.write_text(text, encoding="utf-8")
        k = known[key]
        ops.append(Op(key, a, Known(k["verdict"] == "Nonempty", _frac(k["mu"]), k["source"]),
                      str(path)))
    return ops


WITNESS_HEADER = "witness word"


def read_check_mix(op: Op, raw: tuple[int, str]) -> Outcome:
    """Verdict, witness mu and witness word from `pnta check --witness` text."""
    code, text = raw
    if code not in (0, 10):
        return Outcome(False)
    lines = text.splitlines()
    if code == 0:
        return Outcome(lines[:1] == ["Empty"])
    head = "Nonempty (witness mu = "
    mu = None
    if lines and lines[0].startswith(head) and lines[0].endswith(")"):
        mu = Fraction(lines[0][len(head):-1])
    word = None
    starts = [i for i, line in enumerate(lines) if line.startswith(WITNESS_HEADER)]
    if starts:
        try:
            word = TimedWord.of(line.split() for line in lines[starts[0] + 1:])
        except (ValueError, MalformedWord):
            word = None  # judged as a word that does not replay
    return Outcome(True, True, mu, word)


def run_check_mix(op: Op) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pnta.cli.main(["check", op.arg, "--witness", "--max-regions", str(CHECK_BUDGET)])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# zone-grid: emptiness_fixed(a, mu, include_lasso=False)


def zone_grid_pool(smoke: bool = False):
    """(key, automaton, [(gap n, [mu, ...])]) with the criterion 07 draws.

    Three off-candidate rationals per half-integer gap below 2C, drawn as
    tests/test_acceptance.py criterion 07 draws them (seed 707).
    """
    size = SMOKE_POPULATION if smoke else gen.POPULATION_SIZE
    rng = random.Random(707)
    pool = []
    for i, a in enumerate(gen.two_clock_population(size=size)):
        # C as max_constant defines it, computed here so that the pool cannot move
        c = max([1] + [int(at.bound) for t in a.transitions for at in pnta.atoms(t.guard)
                       if not isinstance(at.bound, str)])
        gaps = []
        for n in range(4 * c):
            mus = []
            for _ in range(3):
                den = rng.choice((3, 4, 5, 6, 7))
                mus.append(Fraction(n, 2) + Fraction(rng.randrange(1, den), den) / 2)
            gaps.append((n, mus))
        pool.append((f"p607-{i:03d}", a, gaps))
    return pool


def build_zone_grid(seed: int, smoke: bool, workdir: Path, answers: dict) -> list[Op]:
    """One of the three pooled values per gap, picked by the seed."""
    known = answers["zone_grid"]
    rng = random.Random(seed)
    ops = []
    for key, a, gaps in zone_grid_pool(smoke):
        for _, mus in gaps:
            mu = mus[rng.randrange(len(mus))]
            nonempty, source = known[key][str(mu)]
            ops.append(Op(f"{key}@{mu}", a, Known(nonempty, mu if nonempty else None, source), mu))
    return ops


def run_zone_grid(op: Op):
    return pnta.parametric.emptiness_fixed(op.automaton, op.arg, ZONE_BUDGET, include_lasso=False)


def read_zone_grid(op: Op, v) -> Outcome:
    return Outcome(True, v.nonempty, op.arg if v.nonempty else None)


# ---------------------------------------------------------------------------
# witness-scale: parametric_emptiness(a, max_nodes=B), then witness_word(a, v, 2)


def _alpha(c: int, n_states: int) -> Fraction:
    """The fractional offset of the candidate set for constant c and |Q| states."""
    return Fraction(1, 8 * (1 + c * max(n_states, 4 * c)))


def witness_scale_inputs(smoke: bool = False) -> list[tuple[str, Automaton, Fraction]]:
    """(key, automaton, witness mu), every answer derived by hand.

    w_C reads x = C, then x = mu later, so mu > C is needed and the least
    candidate above C is C + alpha.  w_Cy has the same prefix and a y/x
    ping-pong loop with constant 3, so its alpha uses max(C, 3) and four
    states.  lpk needs two events exactly mu apart, any mu > 0 works, and
    the least positive candidate is alpha with C = 1.
    """
    cs = SMOKE_SCALE_CS if smoke else SCALE_CS
    items = [(f"w{c}", gen.w_c(c), c + _alpha(c, 3)) for c in cs]
    items += [(f"w{c}y", gen.w_cy(c), c + _alpha(max(c, 3), 4)) for c in cs]
    for k in ((1,) if smoke else (1, 2)):
        items.append((f"lp{k}", gen_lpk(k), _alpha(1, (k + 1) * (k + 2) // 2)))
    text = (DATA / "e_window.ta").read_text(encoding="utf-8")
    items.append(("e_window", parse_automaton(text), Fraction(41, 40)))
    return items


def build_witness_scale(seed: int, smoke: bool, workdir: Path, answers: dict) -> list[Op]:
    return [Op(key, a, Known(True, mu, "by hand"), None)
            for key, a, mu in witness_scale_inputs(smoke)]


def run_witness_scale(op: Op):
    v = pnta.parametric.parametric_emptiness(op.automaton, max_nodes=WITNESS_BUDGET)
    w = pnta.parametric.witness_word(op.automaton, v, unrollings=2) if v.nonempty else None
    return v, w


def read_witness_scale(op: Op, raw) -> Outcome:
    v, w = raw
    return Outcome(True, v.nonempty, v.witness_mu, w)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object  # the timed operation
    read: object  # (op, what run returned) -> Outcome, outside the timing
    budget: int  # node budget B
    tail: float  # percentile behind op_ms.tail
    needs_word: bool  # every Nonempty must carry a witness word


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-mix", build_check_mix, run_check_mix, read_check_mix, CHECK_BUDGET, 0.95, True),
        Workload("zone-grid", build_zone_grid, run_zone_grid, read_zone_grid, ZONE_BUDGET, 0.99, False),
        Workload("witness-scale", build_witness_scale, run_witness_scale, read_witness_scale,
                 WITNESS_BUDGET, 0.8, True),
    )
}

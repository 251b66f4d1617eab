"""Clock-counting example families and an independent membership oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from pnta import (
    PreconditionViolated,
    TimedWord,
    gen_lk,
    gen_lpk,
    is_nrtta,
    parametric_emptiness,
    parse_automaton,
    print_automaton,
    run_frontiers,
    validate,
)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_shapes(k):
    for a, params in ((gen_lk(k), 0), (gen_lpk(k), 1)):
        assert validate(a) == []
        assert is_nrtta(a)
        assert len(a.states) == (k + 1) * (k + 2) // 2
        assert len(a.clocks) == k
        assert len(a.params) == params
        assert a.initial == "s0_0"
        assert a.accepting == frozenset({f"s{k}_{k}"})
        assert parse_automaton(print_automaton(a)) == a


def test_rejects_nonpositive_k():
    """k outside 1..200 is refused: the k-th member has (k+1)(k+2)/2 states."""
    with pytest.raises(PreconditionViolated):
        gen_lk(0)
    with pytest.raises(PreconditionViolated):
        gen_lpk(-1)
    with pytest.raises(PreconditionViolated, match="from 1 to 200"):
        gen_lk(201)


def _pair_oracle(ts, dist, k):
    """Brute force: k reset events each matched one dist later, resets ordered.

    Looks for r_1 < ... < r_k and strictly increasing matches m_i with
    tau(m_i) = tau(r_i) + dist and r_i < m_i; a match may coincide with the
    next reset, which is what the combined transitions express.
    """
    n = len(ts)
    idx = range(n)
    for rs in itertools.combinations(idx, k):
        for ms in itertools.product(idx, repeat=k):
            if any(ms[i] >= ms[i + 1] for i in range(k - 1)):
                continue
            if any(m <= r for r, m in zip(rs, ms)):
                continue
            if any(ts[m] != ts[r] + dist for r, m in zip(rs, ms)):
                continue
            # an event may serve as both match i and reset j only for j > i
            used = {}
            clash = False
            for i, m in enumerate(ms):
                used.setdefault(m, []).append(("m", i))
            for j, r in enumerate(rs):
                used.setdefault(r, []).append(("r", j))
            for roles in used.values():
                if len(roles) > 2:
                    clash = True
                elif len(roles) == 2:
                    kinds = sorted(x[0] for x in roles)
                    pos = {x[0]: x[1] for x in roles}
                    if kinds != ["m", "r"] or pos["r"] <= pos["m"]:
                        clash = True
            if not clash:
                return True
    return False


def _accepts(a, word, interp=None):
    final = run_frontiers(a, word, interp)[-1]
    return any(c.state in a.accepting for c in final)


def _rand_word(rng, dist, max_len=6):
    ts = []
    t = Fraction(0)
    for _ in range(rng.randrange(2, max_len + 1)):
        # half the increments re-plant the exact match distance
        if ts and rng.random() < 0.5:
            base = rng.choice(ts)
            nxt = base + dist
            if nxt <= t:
                nxt = t + Fraction(1, rng.randrange(2, 9))
        else:
            nxt = t + Fraction(rng.randrange(1, 12), rng.randrange(2, 9))
        if nxt <= t:
            continue
        ts.append(nxt)
        t = nxt
    return ts


def test_membership_matches_pair_oracle_unit_distance():
    a = gen_lk(2)
    rng = random.Random(23)
    agree_pos = agree_neg = 0
    for _ in range(400):
        ts = _rand_word(rng, Fraction(1))
        word = TimedWord.of([("a", t) for t in ts])
        got = _accepts(a, word)
        want = _pair_oracle(ts, Fraction(1), 2)
        assert got == want, ts
        if want:
            agree_pos += 1
        else:
            agree_neg += 1
    assert agree_pos > 20 and agree_neg > 20


def test_membership_matches_pair_oracle_parametric():
    a = gen_lpk(2)
    rng = random.Random(29)
    mu = Fraction(3, 2)
    hits = 0
    for _ in range(250):
        ts = _rand_word(rng, mu)
        word = TimedWord.of([("a", t) for t in ts])
        got = _accepts(a, word, {"mu": mu})
        want = _pair_oracle(ts, mu, 2)
        assert got == want, ts
        hits += want
    assert hits > 15


def test_lk1_hand_words():
    a = gen_lk(1)
    yes = TimedWord.of([("a", Fraction(1, 2)), ("a", Fraction(3, 2))])
    no = TimedWord.of([("a", Fraction(1, 2)), ("a", Fraction(7, 4))])
    assert _accepts(a, yes)
    assert not _accepts(a, no)


def test_parametric_families_nonempty():
    for k in (1, 2):
        v = parametric_emptiness(gen_lpk(k))
        assert v.nonempty
        assert v.witness_mu is not None

"""Command-line front end.

Exit codes: 0 the language is empty (or the command succeeded for
non-verdict commands), 10 nonempty, 2 parse/validation/unsupported-input
errors, an unreadable input file or a closed stdout, 3 abstraction budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Optional

from .core import Automaton, brief, is_nrtta, parse_rational, validate
from .errors import ParseError, PntaError, PreconditionViolated, RegionBudgetExceeded
from .examples import gen_lk, gen_lpk
from .parametric import (
    DEFAULT_REGION_BUDGET,
    Verdict,
    emptiness_fixed,
    parametric_emptiness,
    prepare_fixed,
    witness_word,
)
from .regions import build_region_automaton, find_lasso, to_dot
from .semantics import run_frontiers
from .textio import format_timed_word, parse_automaton, parse_timed_word, print_automaton
from .translate import ta_to_nrtta

EXIT_EMPTY = 0
EXIT_NONEMPTY = 10
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, past a byte-order mark; unreadable, an error naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise PntaError(f"cannot read {path}: {reason}") from None


def _load_automaton(path: str) -> Automaton:
    a = parse_automaton(_read_text(path))
    errs = validate(a)
    if errs:
        raise PreconditionViolated(
            "; ".join(str(e) for e in errs) or "invalid automaton"
        )
    return a


def _lasso_dict(verdict: Verdict) -> Optional[dict]:
    """The zone lasso's steps as [source, letter, target]; a source is the last target."""
    if verdict.zone_lasso is None:
        return None
    q, out = verdict.scaled.initial, {}
    for part in ("stem", "cycle"):
        out[part] = []
        for _, target, letter, _, _ in getattr(verdict.zone_lasso, part):
            out[part].append([q, letter, target])
            q = target
    return out


def _printed(v, what: str) -> str:
    """str(v) of a number, or a short refusal naming it when str() cannot print it.

    Python's str() raises on an int with more digits than its int/str
    limit (4,300 by default).
    """
    try:
        return str(v)
    except ValueError:
        raise PreconditionViolated(f"{what} = {brief(v)} is too long to print") from None


def _check_mu(a: Automaton, mu: Optional[Fraction]) -> None:
    """The --mu rule: refused without a parameter, required and nonnegative with one."""
    if not a.params:
        if mu is not None:
            raise PreconditionViolated("--mu given but the automaton has no parameter")
    elif mu is None:
        raise PreconditionViolated("--mu required for a parametric automaton")
    elif mu < 0:
        raise PreconditionViolated(f"parameter value must be nonnegative, got {brief(mu)}")


def _emit(text: str, path: Optional[str]) -> None:
    """Write text to the file at path, or to stdout when path is not given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def cmd_check(args) -> int:
    a = _load_automaton(args.file)
    t0 = time.perf_counter()
    if args.mu is None:
        verdict = parametric_emptiness(a, args.max_regions)
    else:
        _check_mu(a, args.mu)
        verdict = emptiness_fixed(a, args.mu, args.max_regions)
    wall_ms = round((time.perf_counter() - t0) * 1000)

    word = None
    if args.witness and verdict.nonempty:
        word = witness_word(a, verdict, args.unrollings)

    report = {
        "verdict": "Nonempty" if verdict.nonempty else "Empty",
        "witness_mu": None if verdict.witness_mu is None else str(verdict.witness_mu),
        "candidates_checked": verdict.candidates_checked,
        "zone_nodes": verdict.zone_nodes,
        "relaxed": None if verdict.relaxed is None else [str(mu) for mu in verdict.relaxed],
        "lasso": _lasso_dict(verdict),
        "witness_word": None if word is None else [[letter, str(ts)] for letter, ts in word],
        "timings": {"wall_ms": wall_ms},
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        mu = report["witness_mu"]
        print(report["verdict"] + ("" if mu is None else f" (witness mu = {mu})"))
        print(
            f"candidates checked: {report['candidates_checked']}, "
            f"abstraction nodes: {report['zone_nodes']}, wall ms: {wall_ms}"
        )
        if report["relaxed"] is not None:
            lo, hi = report["relaxed"]
            print(f"settled by one check with mu relaxed to [{lo}, {hi}]")
        if report["lasso"] is not None:
            for part in ("stem", "cycle"):
                steps = report["lasso"][part]  # an empty stem is the cycle's first state alone
                start = (steps or report["lasso"]["cycle"])[0][0]
                print(f"lasso {part}:".ljust(13) + start
                      + "".join(f" -{letter}-> {target}" for _, letter, target in steps))
        if word is not None:
            plural = "" if args.unrollings == 1 else "s"
            print(f"witness word ({args.unrollings} cycle unrolling{plural}):")
            print(format_timed_word(word), end="")
    return EXIT_NONEMPTY if verdict.nonempty else EXIT_EMPTY


def cmd_translate(args) -> int:
    _emit(print_automaton(ta_to_nrtta(_load_automaton(args.file))), args.output)
    return 0


def cmd_simulate(args) -> int:
    a = _load_automaton(args.file)
    w = parse_timed_word(_read_text(args.word))
    _check_mu(a, args.mu)
    frontier = run_frontiers(a, w, {p: args.mu for p in a.params})[-1]
    configs = sorted(
        (c.state, tuple((z, c.valuation[z]) for z in sorted(c.valuation.keys())))
        for c in frontier
    )
    lines = []  # all printable, or nothing is printed
    for state, vals in configs:
        parts = " ".join(f"{z}={_printed(val, f'clock {z}')}" for z, val in vals)
        lines.append(f"{state} {parts}".rstrip())
    for line in lines:
        print(line)
    accepting = any(state in a.accepting for state, _ in configs)
    print(f"configurations: {len(configs)}")
    print(f"accepting reachable: {'yes' if accepting else 'no'}")
    return 0


def cmd_regions(args) -> int:
    a = _load_automaton(args.file)
    _check_mu(a, args.mu)
    scaled, m, d = prepare_fixed(a, args.mu)
    # built and written first, so an unprintable m or d, a budget stop or an
    # unwritable --dot file is refused before anything is printed
    bound = (f"region bound m: {_printed(m, 'region bound m')} "
             f"(constants scaled by {_printed(d, 'scale factor')})")
    ra = build_region_automaton(scaled, m, args.max_regions)
    lasso = find_lasso(scaled, m, args.max_regions)
    if args.dot:
        _emit(to_dot(ra), args.dot)
    print(f"nodes: {len(ra.nodes)}")
    print(f"edges: {sum(len(out) for out in ra.edges)}")
    print(f"accepting nodes: {len(ra.accepting_nodes)}")
    print(bound)
    print(f"accepting lasso: {'yes' if lasso is not None else 'no'}")
    return 0


def cmd_gen(args) -> int:
    a = gen_lk(args.k) if args.family == "lk" else gen_lpk(args.k)
    _emit(print_automaton(a), args.output)
    return 0


def cmd_validate(args) -> int:
    text = _read_text(args.file)
    try:
        a = parse_automaton(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    errs = validate(a)
    if errs:
        for e in errs:
            print(str(e), file=sys.stderr)
        return EXIT_BAD_INPUT
    kind = "nrtTA" if is_nrtta(a) else "TA (tests and resets a shared clock)"
    print(
        f"ok: {kind}, states={len(a.states)} clocks={len(a.clocks)} "
        f"params={len(a.params)} transitions={len(a.transitions)}"
    )
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@cache  # built on the first main call, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pnta",
        description="Emptiness of parametric timed automata with non-resetting tests",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide language emptiness")
    c.add_argument("file")
    c.add_argument("--mu", type=_rational,
                   help="fix the parameter to this rational instead of sweeping")
    c.add_argument("--witness", action="store_true", help="also print a concrete timed word")
    c.add_argument("--json", action="store_true", help="machine-readable report")
    c.add_argument("--max-regions", type=_positive_int, default=DEFAULT_REGION_BUDGET)
    c.add_argument("--unrollings", type=_positive_int, default=1)
    c.set_defaults(fn=cmd_check)

    t = sub.add_parser("translate", help="rewrite so no transition tests a clock it resets")
    t.add_argument("file")
    t.add_argument("-o", "--output")
    t.set_defaults(fn=cmd_translate)

    s = sub.add_parser("simulate", help="run a finite timed word")
    s.add_argument("file")
    s.add_argument("--word", required=True, help="timed word file")
    s.add_argument("--mu", type=_rational, help="parameter value")
    s.set_defaults(fn=cmd_simulate)

    r = sub.add_parser("regions", help="build and summarize the region automaton")
    r.add_argument("file")
    r.add_argument("--mu", type=_rational,
                   help="parameter value (required for parametric input)")
    r.add_argument("--dot", help="write DOT to this path")
    r.add_argument("--max-regions", type=_positive_int, default=DEFAULT_REGION_BUDGET)
    r.set_defaults(fn=cmd_regions)

    g = sub.add_parser("gen", help="generate an example automaton")
    g.add_argument("family", choices=["lk", "lpk"])
    g.add_argument("--k", type=int, required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_gen)

    v = sub.add_parser("validate", help="parse and check an automaton file")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout closed: devnull keeps the exit flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BAD_INPUT
    except RegionBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PntaError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

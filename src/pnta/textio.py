"""Line-oriented text formats for automata and timed words.

Automaton files:

    automaton NAME
    clocks x y
    params mu
    alphabet a b          # optional, inferred from transitions
    init q0
    accept q1 q2
    trans SRC DST LETTER ( GUARD ) { RESETS }

Guards use  true | atom | !G | G & G | (G)  with atoms
CLOCK (< | <= | = | >= | >) (NAT | PARAM); comparisons other than < and =
are desugared on parse; '&', '!' and '(' nest at most 200 levels deep.
'#' starts a comment anywhere.  State names are inferred from
init/accept/trans lines.

Timed-word files: one `LETTER TIMESTAMP` per line, timestamps decimal or
p/q rationals, strictly increasing.
"""

from __future__ import annotations

import re

from .core import (
    Atom,
    And,
    Automaton,
    Guard,
    Not,
    TRUE,
    Transition,
    TrueGuard,
    eq,
    ge,
    gt,
    le,
    lt,
    parse_rational,
)
from .errors import ParseError
from .semantics import TimedWord

_TRANS_RE = re.compile(
    r"^trans\s+(\S+)\s+(\S+)\s+([^\s(]+)\s*\((.*)\)\s*\{(.*?)\}\s*$"
)
_TOKEN_RE = re.compile(r"\s*(?:(<=|>=|[<>=!&()])|(\d+)|([A-Za-z_][\w.@:\-]*)|(\S))")
_CLOCK_RE = re.compile(r"[A-Za-z_][\w.@:\-]*")
# each accepted comparison and the guard it stands for; all but < and = are desugared
_COMPARISONS = {"<": lt, "<=": le, "=": eq, ">=": ge, ">": gt}


def _tokenize_guard(text: str, line: int) -> list[str]:
    found = _TOKEN_RE.findall(text)
    for token in found:
        if token[3]:
            raise ParseError(f"unexpected character {token[3]!r} in guard", line)
    return [op or num or name for op, num, name, _ in found]


# how deep a guard may nest '&', '!' and '(': every guard walker recurses once per level
_MAX_DEPTH = 200


class _GuardParser:
    """Recursive descent over the guard token stream; depth counts '&', '!' and '('."""

    def __init__(self, tokens: list[str], params: frozenset[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.line = line

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("guard ends unexpectedly", self.line)
        self.pos += 1
        return tok

    def parse(self) -> Guard:
        g = self.conjunction(0)
        if self.peek() is not None:
            raise ParseError(f"trailing token {self.peek()!r} in guard", self.line)
        return g

    def conjunction(self, depth: int) -> Guard:
        left = self.unary(depth)
        if self.peek() == "&":
            self.take()
            return And(left, self.conjunction(depth + 1))
        return left

    def unary(self, depth: int) -> Guard:
        if depth > _MAX_DEPTH:
            raise ParseError(f"guard nested more than {_MAX_DEPTH} levels deep", self.line)
        tok = self.peek()
        if tok is None:
            raise ParseError("guard ends unexpectedly", self.line)
        if tok == "!":
            self.take()
            return Not(self.unary(depth + 1))
        if tok == "(":
            self.take()
            inner = self.conjunction(depth + 1)
            if self.take() != ")":
                raise ParseError("missing ')' in guard", self.line)
            return inner
        if tok == "true":
            self.take()
            return TRUE
        return self.atom()

    def atom(self) -> Guard:
        clock = self.take()
        if not _CLOCK_RE.fullmatch(clock):
            raise ParseError(f"expected clock name, got {clock!r}", self.line)
        op = self.take()
        compare = _COMPARISONS.get(op)
        if compare is None:
            raise ParseError(f"expected comparison operator, got {op!r}", self.line)
        rhs = self.take()
        if rhs.isdigit():
            try:
                bound: object = int(rhs)
            except ValueError:  # beyond int's digit limit for text
                raise ParseError(f"constant of {len(rhs)} digits is too long", self.line) from None
        elif rhs in self.params:
            bound = rhs
        else:
            raise ParseError(
                f"right-hand side {rhs!r} is neither a number nor a declared parameter",
                self.line,
            )
        return compare(clock, bound)


def parse_guard(text: str, params: frozenset[str] = frozenset(), line: int = 0) -> Guard:
    return _GuardParser(_tokenize_guard(text, line), params, line).parse()


def guard_to_text(g: Guard) -> str:
    """Canonical text using only < = ! & true; round-trips structurally."""
    if isinstance(g, TrueGuard):
        return "true"
    if isinstance(g, Atom):
        return f"{g.clock} {g.op} {g.bound}"
    if isinstance(g, Not):
        return f"!({guard_to_text(g.arg)})"
    if isinstance(g, And):
        left = guard_to_text(g.left)
        if isinstance(g.left, And):
            left = f"({left})"
        return f"{left} & {guard_to_text(g.right)}"
    raise TypeError(f"not a guard: {g!r}")


def _strip_comment(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def parse_automaton(text: str) -> Automaton:
    name = None
    initial = None
    lists: dict[str, list[str]] = {}  # the clocks, params, alphabet and accept lines
    trans_raw: list[tuple[int, str, str, str, str, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if not stripped:
            continue
        head = stripped.split(None, 1)[0]
        rest = stripped[len(head):].strip()
        if head == "automaton":
            if name is not None:
                raise ParseError("duplicate automaton line", line_no)
            if not rest or len(rest.split()) != 1:
                raise ParseError("automaton line needs exactly one name", line_no)
            name = rest
        elif head in ("clocks", "params", "alphabet", "accept"):
            if head in lists:
                raise ParseError(f"duplicate {head} line", line_no)
            lists[head] = rest.split()
        elif head == "init":
            if initial is not None:
                raise ParseError("duplicate init line", line_no)
            if len(rest.split()) != 1:
                raise ParseError("init line needs exactly one state", line_no)
            initial = rest
        elif head == "trans":
            m = _TRANS_RE.match(stripped)
            if m is None:
                raise ParseError(
                    "malformed trans line, expected: trans SRC DST LETTER ( GUARD ) { RESETS }",
                    line_no,
                )
            trans_raw.append((line_no, *m.groups()))
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if name is None:
        raise ParseError("missing automaton line", 0)
    if initial is None:
        raise ParseError("missing init line", 0)

    param_set = frozenset(lists.get("params", ()))
    transitions = []
    for line_no, src, dst, letter, guard_text, resets_text in trans_raw:
        guard = parse_guard(guard_text, param_set, line_no)
        resets = [z for z in re.split(r"[,\s]+", resets_text.strip()) if z]
        transitions.append(Transition(src, dst, letter, guard, resets))

    accepting = lists.get("accept", ())
    states = {initial} | set(accepting)
    for t in transitions:
        states.add(t.source)
        states.add(t.target)
    letters = set(lists["alphabet"]) if "alphabet" in lists else {t.letter for t in transitions}

    return Automaton(
        name=name,
        alphabet=letters,
        states=states,
        clocks=lists.get("clocks", ()),
        params=param_set,
        initial=initial,
        accepting=accepting,
        transitions=transitions,
    )


def print_automaton(a: Automaton) -> str:
    lines = [f"automaton {a.name}"]
    if a.clocks:
        lines.append("clocks " + " ".join(sorted(a.clocks)))
    if a.params:
        lines.append("params " + " ".join(sorted(a.params)))
    lines.append("alphabet " + " ".join(sorted(a.alphabet)))
    lines.append(f"init {a.initial}")
    lines.append(("accept " + " ".join(sorted(a.accepting))).rstrip())
    for t in a.transitions:
        resets = " ".join(sorted(t.resets))
        braces = "{ " + resets + " }" if resets else "{ }"
        lines.append(f"trans {t.source} {t.target} {t.letter} ( {guard_to_text(t.guard)} ) {braces}")
    return "\n".join(lines) + "\n"


def parse_timed_word(text: str) -> TimedWord:
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError("expected: LETTER TIMESTAMP", line_no)
        letter, ts_text = parts
        try:
            ts = parse_rational(ts_text)
        except ValueError:
            raise ParseError(f"bad timestamp {ts_text!r}", line_no) from None
        events.append((letter, ts))
    return TimedWord.of(events)


def format_timed_word(w: TimedWord) -> str:
    return "\n".join(f"{letter} {ts}" for letter, ts in w.events) + ("\n" if len(w) else "")

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
Whitespace between a guard's tokens is optional.  A NAT is a run of decimal
digits, any Unicode decimal digit included ("x < ١" reads "x < 1"); a
CLOCK or PARAM is an ASCII letter or '_', then any characters that
str.isalnum() accepts, such as 'é' or '²', and '_', '.', '@', ':' and
'-'.  Any other character in a guard is refused by name.
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
_TOKEN = r"<=|>=|[<>=!&()]|\d+|[A-Za-z_][\w.@:\-]*"
_TOKEN_RE = re.compile(_TOKEN + r"|\S")  # \S: one unexpected character
_GOOD_TOKEN_RE = re.compile(_TOKEN)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# each accepted comparison and the guard it stands for; all but < and = are desugared
_COMPARISONS = {"<": lt, "<=": le, "=": eq, ">=": ge, ">": gt}


# how deep a guard may nest '&', '!' and '(': every guard walker recurses once per level
_MAX_DEPTH = 200


def _conjunction(tokens: list[str], params: frozenset[str], line: int | None, depth: int) -> Guard:
    """A right-nested conjunction from the end of tokens, the reversed token stream."""
    left = _unary(tokens, params, line, depth)
    if tokens and tokens[-1] == "&":
        tokens.pop()
        return And(left, _conjunction(tokens, params, line, depth + 1))
    return left


def _unary(tokens: list[str], params: frozenset[str], line: int | None, depth: int) -> Guard:
    """'!' G, '(' G ')', 'true' or an atom from the end of tokens.

    depth counts the '&', '!' and '(' levels around it.  Each place refuses
    a token of one unexpected character, which `parse_guard` then names.
    """
    if depth > _MAX_DEPTH:
        raise ParseError(f"guard nested more than {_MAX_DEPTH} levels deep", line)
    tok = tokens.pop()
    if tok == "!":
        return Not(_unary(tokens, params, line, depth + 1))
    if tok == "(":
        inner = _conjunction(tokens, params, line, depth + 1)
        if tokens.pop() != ")":
            raise ParseError("missing ')' in guard", line)
        return inner
    if tok == "true":
        return TRUE
    if tok[0] not in _NAME_START:
        raise ParseError(f"expected clock name, got {tok!r}", line)
    op = tokens.pop()
    compare = _COMPARISONS.get(op)
    if compare is None:
        raise ParseError(f"expected comparison operator, got {op!r}", line)
    rhs = tokens.pop()
    if rhs.isdecimal():
        try:
            return compare(tok, int(rhs))
        except ValueError:  # beyond int's digit limit for text
            raise ParseError(f"constant of {len(rhs)} digits is too long", line) from None
    if rhs in params and rhs[0] in _NAME_START:
        return compare(tok, rhs)
    raise ParseError(f"right-hand side {rhs!r} is neither a number nor a declared parameter", line)


def parse_guard(text: str, params: frozenset[str] = frozenset(), line: int | None = None) -> Guard:
    """The guard in text; a refused one names its first unexpected character, if any."""
    if text.strip() == "true":
        return TRUE
    tokens = _TOKEN_RE.findall(text)
    tokens.reverse()  # tokens[-1] comes next
    try:
        g = _conjunction(tokens, params, line, 0)
        if tokens:
            raise ParseError(f"trailing token {tokens[-1]!r} in guard", line)
    except (ParseError, IndexError) as exc:  # IndexError: a pop past the last token
        for tok in _TOKEN_RE.findall(text):
            if not _GOOD_TOKEN_RE.fullmatch(tok):
                raise ParseError(f"unexpected character {tok!r} in guard", line) from None
        if isinstance(exc, IndexError):
            raise ParseError("guard ends unexpectedly", line) from None
        raise
    return g


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


def _lines(text: str) -> list[tuple[int, str]]:
    """(number, text) of each line left nonblank once its '#' comment is cut."""
    return [(line_no, stripped) for line_no, raw in enumerate(text.splitlines(), start=1)
            if (stripped := raw.partition("#")[0].strip())]


def parse_automaton(text: str) -> Automaton:
    name = None
    initial = None
    lists: dict[str, list[str]] = {}  # the clocks, params, alphabet and accept lines
    trans_raw: list[tuple[int, str, str, str, str, str]] = []

    for line_no, stripped in _lines(text):
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
    guards: dict[str, Guard] = {}  # each guard text of the file, parsed once
    transitions = []
    for line_no, src, dst, letter, guard_text, resets_text in trans_raw:
        guard = guards.get(guard_text)
        if guard is None:
            guard = guards[guard_text] = parse_guard(guard_text, param_set, line_no)
        resets = resets_text.replace(",", " ").split()
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
    for line_no, stripped in _lines(text):
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

"""Emptiness checking for parametric timed automata with non-resetting tests.

The package decides whether a timed automaton with at most two clocks and
at most one parameter accepts some infinite timed word, for every value of
the parameter, by sweeping a finite set of candidate values and running a
Buchi emptiness check on a finite abstraction for each. It also ships a
translation that removes test-and-reset clocks, a simulator for finite
timed words, and generators for a family of clock-counting examples.
"""

from .core import (
    And,
    Atom,
    Automaton,
    Guard,
    Not,
    TRUE,
    Transition,
    TrueGuard,
    ValidationError,
    atoms,
    conj,
    eq,
    eval_constraint,
    ge,
    gt,
    guard_clocks,
    guard_constants,
    guard_params,
    is_nrtta,
    le,
    lt,
    map_atoms,
    max_constant,
    ne,
    parse_rational,
    validate,
)
from .semantics import (
    Configuration,
    TimedWord,
    Valuation,
    elapse,
    reset_apply,
    run_frontiers,
    step,
    v_oplus,
    zero_valuation,
)
from .textio import (
    format_timed_word,
    guard_to_text,
    parse_automaton,
    parse_guard,
    parse_timed_word,
    print_automaton,
)
from .translate import product_state_origin, ta_to_nrtta
from .regions import (
    DEFAULT_REGION_BUDGET,
    Region,
    RegionAutomaton,
    SymbolicLasso,
    build_region_automaton,
    find_lasso,
    immediate_successor,
    region_reset,
    region_sat,
    region_str,
    to_dot,
    zero_region,
)
from .zones import ZoneLasso, zone_lasso, zone_nonempty
from .parametric import (
    Candidate,
    CandidateSet,
    Verdict,
    candidate_parameters,
    emptiness_fixed,
    parametric_emptiness,
    prepare_fixed,
    witness_word,
)
from .examples import gen_lk, gen_lpk
from .errors import (
    GuardViolated,
    MalformedWord,
    NonPositiveDelay,
    NotOneParameter,
    ParseError,
    PntaError,
    PreconditionViolated,
    RegionBudgetExceeded,
    UnboundSymbol,
    UnsupportedAutomaton,
    WrongSource,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "Automaton", "Guard", "Not", "TRUE", "Transition",
    "TrueGuard", "ValidationError", "atoms", "conj", "eq", "eval_constraint",
    "ge", "gt", "guard_clocks", "guard_constants", "guard_params", "is_nrtta",
    "le", "lt", "map_atoms", "max_constant", "ne", "parse_rational",
    "validate",
    "Configuration", "TimedWord", "Valuation", "elapse", "reset_apply",
    "run_frontiers", "step", "v_oplus", "zero_valuation",
    "format_timed_word", "guard_to_text", "parse_automaton", "parse_guard",
    "parse_timed_word", "print_automaton",
    "product_state_origin", "ta_to_nrtta",
    "DEFAULT_REGION_BUDGET", "Region", "RegionAutomaton", "SymbolicLasso",
    "build_region_automaton", "find_lasso", "immediate_successor",
    "region_reset", "region_sat", "region_str", "to_dot", "zero_region",
    "ZoneLasso", "zone_lasso", "zone_nonempty",
    "Candidate", "CandidateSet", "Verdict", "candidate_parameters",
    "emptiness_fixed", "parametric_emptiness", "prepare_fixed", "witness_word",
    "gen_lk", "gen_lpk",
    "GuardViolated", "MalformedWord", "NonPositiveDelay", "NotOneParameter",
    "ParseError", "PntaError", "PreconditionViolated", "RegionBudgetExceeded",
    "UnboundSymbol", "UnsupportedAutomaton", "WrongSource",
    "__version__",
]

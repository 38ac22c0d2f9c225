"""Workbench for a concurrent reversible process calculus.

Parse process terms, build proved transition systems, decide forward,
past-sensitive forward, reverse, and forward-reverse bisimilarities,
compute the backward-ready-set encoding, and decide equality in the three
axiom systems via normal forms and expansion laws.
"""

from .axioms import (
    Theory,
    canonical,
    expansion_law_f,
    format_trace,
    is_fnf,
    is_frnf,
    is_rnf,
    normalize_f,
    normalize_fr,
    normalize_r,
    prove_eq,
)
from .bisim import (
    Counterexample,
    Variant,
    Verdict,
    check,
    check_brs,
    necessary_check,
)
from .encoding import HistoryOrder, encode, verify_correspondence
from .errors import (
    ActUndefinedError,
    NotNormalizedError,
    NotReachableError,
    OrderUndefinedError,
    ParseError,
    RevexpError,
    StateBudgetError,
    WellFormednessError,
    WitnessCheckError,
)
from .generate import enumerate_processes, seed_terms
from .semantics import (
    Lts,
    Transition,
    brs_forward_steps,
    build_brs_lts,
    build_lts,
    build_union,
    export,
    forward_steps,
    is_reachable,
)
from .syntax import parse, parse_proof_term, render, render_proof
from .terms import (
    NIL,
    Act,
    BrsPrefix,
    BrsProcess,
    Choice,
    Dot,
    Nil,
    Par,
    ParL,
    ParR,
    PlusL,
    PlusR,
    Prefix,
    Process,
    ProofTerm,
    Syn,
    act,
    brs,
    frs,
    is_initial,
    is_wellformed,
    size,
    to_initial,
    upd,
)

__all__ = [name for name in dir() if not name.startswith("_")]

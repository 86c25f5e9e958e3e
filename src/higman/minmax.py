"""Exhaustive search for acceptors with fewest states, then most transitions.

Every reflexive-involutive acceptor of F with minimal state count is
isomorphic to an induced subautomaton of the envelope automaton, so the
search ranges over subsets of envelope elements containing both base points.
The envelope automaton accepts exactly F, and inducing keeps the loops and
the up-closed transitions, so each candidate accepts an up-closed part of F:
it accepts all of F exactly when it accepts every basis word of F.
"""

from __future__ import annotations

from itertools import combinations

from .segments import FinalSegment, is_empty
from .automata import (
    Automaton,
    TransitionSystem,
    accepts,
    isomorphic,
    language_equals_segment,
    saturate,
)
from .envelope import EnvelopeLattice, build_envelope
from .minmax_pair import automaton_one, automaton_two, language


class CapExceeded(ValueError):
    """The input is too large for an exhaustive enumeration: the subset
    search here or the up-set scan of a chain product."""


def _induced(env: EnvelopeLattice, subset: frozenset) -> Automaton:
    states = tuple(P for P in env.elements if P in subset)
    trans = frozenset(
        (P, a, Q) for (P, a, Q) in env.t_f if P in subset and Q in subset
    )
    system = TransitionSystem(env.alphabet, states, trans)
    return Automaton(system, frozenset({env.x}), frozenset({env.y}))


def search_minmax(F: FinalSegment, cap: int = 20):
    """All acceptors of F with the least state count and, among those, the
    most transitions, up to isomorphism, plus that (states, transitions)
    pair. Induced subsets of the envelope are enumerated by size, and a
    subset is an acceptor of F exactly when it accepts every basis word of
    F: it can accept nothing outside F, and its language is up-closed.
    """
    if is_empty(F):
        raise ValueError("no automaton accepts the empty segment")
    env = build_envelope(F)
    n = len(env.elements)
    if n > cap:
        raise CapExceeded(f"envelope has {n} elements, cap is {cap}")
    base = tuple(dict.fromkeys((env.x, env.y)))
    others = [P for P in env.elements if P not in base]
    for size in range(len(base), n + 1):
        found = []
        for extra in combinations(others, size - len(base)):
            aut = _induced(env, frozenset(base + extra))
            if all(accepts(aut, u) for u in F.basis):
                found.append(aut)
        if found:
            best = max(len(a.system.transitions) for a in found)
            winners = [
                a for a in found if len(a.system.transitions) == best
            ]
            reps = []
            for aut in winners:
                if not any(isomorphic(aut, r)[0] for r in reps):
                    reps.append(aut)
            return reps, (size, best)
    raise RuntimeError("envelope automaton itself must accept F")


def is_minmax(aut: Automaton, F: FinalSegment, cap: int = 20) -> bool:
    """Saturate, verify the language is F, then compare the state and
    transition counts against the exhaustive search."""
    sat = Automaton(saturate(aut.system), aut.initial, aut.final)
    ok, _ = language_equals_segment(sat, F)
    if not ok:
        return False
    _, (min_states, max_transitions) = search_minmax(F, cap)
    return (
        len(sat.system.states),
        len(sat.system.transitions),
    ) == (min_states, max_transitions)


def reproduce_main_example() -> dict:
    """Build both five-state acceptors, saturate them, and verify the
    classical claims: same language, both minmax, not isomorphic, and the
    exhaustive search finds exactly these two machines."""
    L = language()
    A = L.alphabet
    one = automaton_one()
    two = automaton_two()
    sats = [
        Automaton(saturate(m.system), m.initial, m.final)
        for m in (one, two)
    ]
    results, (min_states, max_transitions) = search_minmax(L)
    matched = [
        sum(1 for r in results if isomorphic(s, r)[0]) == 1 for s in sats
    ]
    return {
        "accepts_ab": all(accepts(s, A.word("ab")) for s in sats),
        "language_ok": all(
            language_equals_segment(s, L) == (True, None) for s in sats
        ),
        "states": [len(s.system.states) for s in sats],
        "transitions": [len(s.system.transitions) for s in sats],
        "min_states": min_states,
        "max_transitions": max_transitions,
        "both_minmax": all(is_minmax(s, L) for s in sats),
        "isomorphic": isomorphic(sats[0], sats[1])[0],
        "search_count": len(results),
        "fixtures_match_search": all(matched),
    }

"""Exhaustive search for acceptors with fewest states, then most transitions.

Every reflexive-involutive acceptor of F with minimal state count is
isomorphic to an induced subautomaton of the envelope automaton, so the
search ranges over subsets of envelope elements containing both base points.
The envelope automaton accepts exactly F, and inducing keeps the loops and
the up-closed transitions, so each candidate accepts an up-closed part of F:
it accepts all of F exactly when it accepts every basis word of F.

Only the useful elements U can belong to an acceptor of least size: x, y and
the states on an accepting run, in the envelope, of some basis word of F. In
a least acceptor S every state lies on an accepting run inside S of some
basis word, for otherwise S without it would still accept every basis word;
a run inside S is a run in the envelope. So the search ranges over the
subsets of U, and every acceptor of least size is among them.
"""

from __future__ import annotations

from itertools import combinations

from .segments import FinalSegment, is_empty
from .automata import (
    Automaton,
    TransitionSystem,
    _bits,
    _image,
    accepts,
    isomorphic,
    language_equals_segment,
    saturate,
)
from .envelope import EnvelopeLattice, build_envelope
from .minmax_pair import automaton_one, automaton_two, language


class CapExceeded(ValueError):
    """The input is too large for an exhaustive enumeration: the subset
    search here or the up-set enumeration of a chain product."""


def _induced(env: EnvelopeLattice, S: int) -> Automaton:
    """The envelope automaton on the positions in S, from the masks row[i] & S."""
    ts, keep = env.transition_system(), list(_bits(S))
    rows = {
        a: [sum(1 << k for k, j in enumerate(keep) if row[i] >> j & 1) for i in keep]
        for a, row in ts._successors.items()
    }
    states = tuple(ts.states[i] for i in keep)
    system = TransitionSystem._from_rows(env.alphabet, states, rows)
    return Automaton(system, frozenset({env.x}), frozenset({env.y}))


def _useful(ts: TransitionSystem, basis, x: int, y: int) -> int:
    """The mask of x, y and every state on an accepting run of a basis word:
    for each u and k, the states reached from x by u[:k] that reach y by
    u[k:]. The system is involutive, so the a-predecessors of a mask are its
    a-bar-successors."""
    bar, succ, useful = ts.alphabet.bar, ts._successors, x | y
    for u in basis:
        ahead = [x]
        for a in u.symbols:
            ahead.append(_image(succ[a], ahead[-1]))
        behind = y
        for k in reversed(range(len(u.symbols))):
            behind = _image(succ[bar(u.symbols[k])], behind)
            useful |= ahead[k] & behind
    return useful


def search_minmax(F: FinalSegment, cap: int = 20):
    """All acceptors of F with the least state count and, among those, the
    most transitions, up to isomorphism, plus that (states, transitions)
    pair, from the induced subsets of the useful elements by size.

    Bit i of a candidate S stands for env.elements[i], position i of the
    envelope's transition system ts. So the induced subautomaton on S moves
    a state mask cur to _image(ts._successors[a], cur) & S. A basis word is
    run from x's bit and accepted when the last mask holds y's bit; the
    transitions induced on S number the popcounts of ts._successors[a][i] & S
    over i in S. Candidates hold x, y and other positions of the mask U of
    useful elements (see the module docstring), taken in `combinations`
    order, the order of the subsets of all positions with the rest left out;
    only those with the most transitions become automata, from the same
    masks. cap bounds the number of envelope elements, not of useful ones,
    and is tested on the extent masks before any element's form is read.
    """
    if is_empty(F):
        raise ValueError("no automaton accepts the empty segment")
    env = build_envelope(F)
    n = len(env)
    if n > cap:
        raise CapExceeded(f"envelope has {n} elements, cap is {cap}")
    ts = env.transition_system()
    succ = ts._successors
    rows = list(succ.values())
    x, y = ts._mask({env.x}), ts._mask({env.y})

    def accepts_basis(S):
        for u in F.basis:
            cur = x
            for a in u.symbols:
                cur = _image(succ[a], cur) & S
            if not cur & y:
                return False
        return True

    def transitions(S):
        return sum((row[i] & S).bit_count() for i in _bits(S) for row in rows)

    base = x | y
    k = base.bit_count()
    others = [1 << i for i in _bits(_useful(ts, F.basis, x, y) & ~base)]
    for size in range(k, k + len(others) + 1):
        found = []
        for extra in combinations(others, size - k):
            S = base | sum(extra)
            if accepts_basis(S):
                found.append((S, transitions(S)))
        if found:
            best = max(t for _, t in found)
            reps = []
            for S in (S for S, t in found if t == best):
                aut = _induced(env, S)
                if not any(isomorphic(aut, r)[0] for r in reps):
                    reps.append(aut)
            return reps, (size, best)
    raise RuntimeError("envelope automaton itself must accept F")


def is_minmax(aut: Automaton, F: FinalSegment, cap: int = 20) -> bool:
    """Saturate, verify the language is F, then compare the state and
    transition counts against the exhaustive search."""
    sat = Automaton(saturate(aut.system), aut.initial, aut.final)
    if not language_equals_segment(sat, F)[0]:
        return False
    _, best = search_minmax(F, cap)
    return (len(sat.system.states), len(sat.system.transitions)) == best


def reproduce_main_example() -> dict:
    """Build both five-state acceptors, saturate them, and verify the
    classical claims: same language, both minmax, not isomorphic, and the
    exhaustive search finds exactly these two machines."""
    L = language()
    A = L.alphabet
    sats = [
        Automaton(saturate(m.system), m.initial, m.final)
        for m in (automaton_one(), automaton_two())
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

"""Transition systems and automata over an involutive ordered alphabet.

Systems can be saturated (every letter loops everywhere, transitions close
under involution-reversal and letter up-closure); saturated systems accept
up-closed languages, whose finite bases are extracted by shortest-word search.
The minimal deterministic automaton of a final segment is its left-residual
closure. Two searches serve the machine layer: closure() walks everything
reachable, shortest_word() finds the length-lexicographically least word
reaching a goal; find_bijection() is the one backtracking matcher, behind
isomorphism.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache

from .words import Alphabet, Word
from .segments import (
    FinalSegment,
    canonicalize,
    full_segment,
    intersect,
    is_full,
    left_residual,
    product_in,
    right_residual,
)


@dataclass(frozen=True)
class TransitionSystem:
    """States with labeled transitions (state, letter, state)."""

    alphabet: Alphabet
    states: tuple
    transitions: frozenset

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate states")
        for p, a, q in self.transitions:
            if p not in state_set or q not in state_set:
                raise ValueError(f"transition ({p!r}, {a!r}, {q!r}) uses unknown state")
            if a not in self.alphabet.index:
                raise ValueError(f"transition letter {a!r} not in alphabet")


@dataclass(frozen=True)
class Automaton:
    system: TransitionSystem
    initial: frozenset
    final: frozenset

    def __post_init__(self):
        state_set = set(self.system.states)
        if not self.initial <= state_set or not self.final <= state_set:
            raise ValueError("initial/final states must be system states")


@dataclass
class Dfa:
    """Total deterministic automaton; states are arbitrary hashable labels.

    minimal_dfa() instantiates it with FinalSegment states (the left
    residuals), accepting exactly at A*.
    """

    alphabet: Alphabet
    states: tuple
    start: object
    accepting: frozenset
    delta: dict = field(repr=False)


def closure(starts, step) -> list:
    """Everything reachable from starts under step, in breadth-first
    discovery order; step maps an item to an iterable of successors."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for item in order:  # the list grows while it is read: a FIFO queue
        for nxt in step(item):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def shortest_word(A: Alphabet, start, step, good) -> Word | None:
    """Length-lexicographically least word leading from start to a good
    configuration, or None if none is reachable.

    Breadth-first in letter order; step(config, a) gives the next
    configuration, or None to prune it. A configuration is tested when it is
    discovered rather than when it leaves the queue, which spares expanding
    the configurations queued ahead of it.
    """
    if good(start):
        return Word(A, ())
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        config, syms = queue.popleft()
        for a in A.letters:
            nxt = step(config, a)
            if nxt is None or nxt in seen:
                continue
            if good(nxt):
                return Word(A, syms + (a,))
            seen.add(nxt)
            queue.append((nxt, syms + (a,)))
    return None


def _implied(A: Alphabet, t) -> list:
    """The transitions a saturated system must hold because it holds t:
    its involution reversal and its letter up-closure."""
    p, a, q = t
    return [(q, A.bar(a), p)] + [(p, b, q) for b in A.letters if A.leq(a, b)]


def saturate(ts: TransitionSystem) -> TransitionSystem:
    """Close under reflexivity, involution symmetry, and letter up-closure."""
    A = ts.alphabet
    loops = [(q, a, q) for q in ts.states for a in A.letters]
    trans = closure(list(ts.transitions) + loops, lambda t: _implied(A, t))
    return TransitionSystem(A, ts.states, frozenset(trans))


def is_reflexive_involutive(ts: TransitionSystem) -> bool:
    """Whether saturate would add nothing: every loop and every implied
    transition is present."""
    A = ts.alphabet
    T = ts.transitions
    return all((q, a, q) in T for q in ts.states for a in A.letters) and all(
        u in T for t in T for u in _implied(A, t)
    )


def _step(ts: TransitionSystem, states: frozenset, a: str) -> frozenset:
    return frozenset(q for p, x, q in ts.transitions if p in states and x == a)


def accepts(aut: Automaton, w: Word) -> bool:
    """Nondeterministic state-set simulation."""
    if w.alphabet != aut.system.alphabet:
        raise ValueError("word alphabet differs from automaton alphabet")
    current = aut.initial
    for a in w.symbols:
        current = _step(aut.system, current, a)
        if not current:
            return False
    return bool(current & aut.final)


@lru_cache(maxsize=None)
def minimal_dfa(F: FinalSegment) -> Dfa:
    """Left-residual closure of F; start F, accepting exactly A*.

    A residual accepts the empty word iff it equals A*, so acceptance is the
    is_full test. The empty segment yields the one-state rejecting automaton.
    """
    A = F.alphabet
    letters = [(a, Word(A, (a,))) for a in A.letters]
    states = closure([F], lambda G: [left_residual(w, G) for _, w in letters])
    delta = {(G, a): left_residual(w, G) for G in states for a, w in letters}
    accepting = frozenset(G for G in states if is_full(G))
    return Dfa(A, tuple(states), F, accepting, delta)


def dfa_accepts(dfa: Dfa, w: Word) -> bool:
    q = dfa.start
    for a in w.symbols:
        q = dfa.delta[(q, a)]
    return q in dfa.accepting


def complement(dfa: Dfa) -> Dfa:
    return Dfa(
        dfa.alphabet,
        dfa.states,
        dfa.start,
        frozenset(dfa.states) - dfa.accepting,
        dfa.delta,
    )


def _shortest_word_in_product(aut: Automaton, dfa: Dfa) -> Word | None:
    """Length-lexicographically least word accepted by both machines; an
    empty NFA state set accepts nothing, so it is pruned."""

    def step(config, a):
        nfa_states = _step(aut.system, config[0], a)
        return (nfa_states, dfa.delta[(config[1], a)]) if nfa_states else None

    def good(config):
        nfa_states, q = config
        return bool(nfa_states & aut.final) and q in dfa.accepting

    return shortest_word(aut.system.alphabet, (aut.initial, dfa.start), step, good)


def accepted_basis(aut: Automaton) -> FinalSegment:
    """Canonical basis of the (up-closed) language of a saturated automaton.

    Repeatedly find the shortest accepted word outside the up-set generated so
    far, by product search against the complement of the current up-set. Each
    new word is incomparable to the ones found before, so the well-quasi-order
    on words makes the loop finite.
    """
    if not is_reflexive_involutive(aut.system):
        raise ValueError("accepted_basis needs a reflexive-involutive system")
    A = aut.system.alphabet
    basis: list[Word] = []
    while True:
        co = complement(minimal_dfa(canonicalize(A, basis)))
        w = _shortest_word_in_product(aut, co)
        if w is None:
            return canonicalize(A, basis)
        basis.append(w)


def language_equals_segment(
    aut: Automaton, F: FinalSegment
) -> tuple[bool, Word | None]:
    """Does the automaton accept exactly F? On failure returns a witness word.

    Needs a reflexive-involutive system (the accepted language is then
    up-closed, so basis acceptance covers all of F); the converse inclusion is
    an emptiness check of the product with the complement of F.
    """
    if not is_reflexive_involutive(aut.system):
        raise ValueError("language_equals_segment needs a reflexive-involutive system")
    for u in F.basis:
        if not accepts(aut, u):
            return False, u
    w = _shortest_word_in_product(aut, complement(minimal_dfa(F)))
    if w is not None:
        return False, w
    return True, None


def min_dfa_morphism(F: FinalSegment, env=None) -> dict:
    """Map each left-residual state Y to the intersection of right residuals
    of F by the basis words of Y.

    Basis words suffice because right residuals grow with the word; the map
    sends the start state F to A*, the accepting state A* to F, and every
    transition (Y, a, a^-1 Y) to a transition (i(Y), a, i(a^-1 Y)) of the
    acceptor built on the envelope (both defining inclusions are checked
    here directly). With env given, images are also required to be envelope
    elements.
    """
    if not F.basis:
        raise ValueError("no morphism for the empty segment")
    A = F.alphabet
    dfa = minimal_dfa(F)
    up = {a: canonicalize(A, [Word(A, (a,))]) for a in A.letters}
    image = {}
    for Y in dfa.states:
        G = full_segment(A)
        for b in Y.basis:
            G = intersect(G, right_residual(F, b))
        image[Y] = G
    if image[F] != full_segment(A):
        raise RuntimeError("morphism image of the start state is not A*")
    if image[full_segment(A)] != F:
        raise RuntimeError("morphism image of the accepting state is not F")
    for (Y, a), Y2 in dfa.delta.items():
        P, Q = image[Y], image[Y2]
        if not product_in(P, up[a], Q) or not product_in(Q, up[A.bar(a)], P):
            raise RuntimeError(
                f"transition ({Y!r}, {a!r}) does not map to an envelope transition"
            )
    if env is not None:
        elements = set(env.elements)
        for Y, G in image.items():
            if G not in elements:
                raise RuntimeError(f"morphism image {G!r} is not an envelope element")
        edges = env.t_f
        for (Y, a), Y2 in dfa.delta.items():
            if (image[Y], a, image[Y2]) not in edges:
                raise RuntimeError("morphism transition missing from envelope system")
    return image


def isomorphic(aut1: Automaton, aut2: Automaton) -> tuple[bool, dict | None]:
    """Decide automaton isomorphism; on success also return a witness bijection.

    The bijection must preserve transitions in both directions and map the
    initial and final sets onto each other. After the size checks, each state
    may go to the states that agree with it on initial and final membership,
    and find_bijection keeps the letters between every two mapped states
    equal.
    """
    ts1, ts2 = aut1.system, aut2.system
    if ts1.alphabet != ts2.alphabet:
        return False, None
    if len(ts1.states) != len(ts2.states):
        return False, None
    if len(ts1.transitions) != len(ts2.transitions):
        return False, None

    def role(aut, q):
        return q in aut.initial, q in aut.final

    def letters_between(ts):
        table = defaultdict(set)
        for p, a, q in ts.transitions:
            table[(p, q)].add(a)
        return table

    lt1, lt2 = letters_between(ts1), letters_between(ts2)
    candidates = {
        q: [r for r in ts2.states if role(aut2, r) == role(aut1, q)]
        for q in ts1.states
    }
    mapping = find_bijection(
        ts1.states,
        candidates,
        lambda p, q, r, s: lt1[(p, r)] == lt2[(q, s)] and lt1[(r, p)] == lt2[(s, q)],
    )
    return mapping is not None, mapping


def find_bijection(order, candidates, agree) -> dict | None:
    """Backtracking search for an injective map p -> q, q in candidates[p].

    Points are assigned in the given order and candidates tried in their
    listed order; every two assignments p -> q and r -> s, a point paired
    with itself included, must satisfy agree(p, q, r, s). Returns the first
    such map, or None.
    """
    mapping: dict = {}
    used = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        for q in candidates[p]:
            if q in used or not agree(p, q, p, q):
                continue
            if not all(agree(p, q, r, s) for r, s in mapping.items()):
                continue
            mapping[p] = q
            used.add(q)
            if extend(i + 1):
                return True
            del mapping[p]
            used.discard(q)
        return False

    return dict(mapping) if extend(0) else None


def articulation_states(ts: TransitionSystem, x, y) -> list:
    """States other than x, y whose removal disconnects x from y.

    Works on the underlying undirected graph with loops ignored; the result
    is ordered by distance from x. Every cut lies on a shortest x-y path, so
    no two cuts tie and breadth-first discovery order sorts them.
    """
    if x == y:
        return []
    adj = defaultdict(set)
    for p, _, q in ts.transitions:
        if p != q:
            adj[p].add(q)
            adj[q].add(p)
    order = {q: i for i, q in enumerate(closure([x], adj.__getitem__))}
    if y not in order:
        raise ValueError("x and y are not connected")
    cuts = [
        z
        for z in ts.states
        if z not in (x, y)
        and z in order
        and y not in closure([x], lambda p: adj[p] - {z})
    ]
    cuts.sort(key=order.__getitem__)
    return cuts

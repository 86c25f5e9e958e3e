"""Transition systems and automata over an involutive ordered alphabet.

Systems can be saturated (every letter loops everywhere, transitions close
under involution-reversal and letter up-closure); saturated systems accept
up-closed languages, whose finite bases are extracted by shortest-word search.
A system is stored as one successor mask per (letter, position), and every
walk reads them: state sets are bitmasks over the positions of its states.
The minimal automaton of a final segment F has the left quotients u^-1 F as
states, which _quotients walks once, on code strings. closure(),
shortest_word() and find_bijection() are the machine layer's one
reachability walk, shortest-word search and backtracking matcher, and
_first_difference its one comparison of languages with final segments.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache, reduce
from operator import or_

from .words import MEMO_SIZE, Alphabet, Frozen, Value, Word, _minimal
from .segments import (
    FinalSegment,
    _left_residual,
    _ordered,
    _segment,
    canonicalize,
    empty_segment,
    is_full,
)


class TransitionSystem(Frozen):
    """States with labeled transitions (state, letter, state), stored as one
    successor mask per (letter, position): bit j of _successors[a][i] is the
    transition (states[i], a, states[j]). The set of triples, transitions,
    _index and the verdict of is_reflexive_involutive are built on first read.
    Equality compares alphabet, states and masks; the hash leaves the masks
    out."""

    _fields = ("alphabet", "states", "_successors")

    def __init__(self, alphabet: Alphabet, states: tuple, transitions: frozenset):
        index = {q: i for i, q in enumerate(states)}
        if len(index) != len(states):
            raise ValueError("duplicate states")
        rows = {a: [0] * len(states) for a in alphabet.letters}
        for p, a, q in transitions:
            if p not in index or q not in index:
                raise ValueError(f"transition ({p!r}, {a!r}, {q!r}) uses unknown state")
            if a not in rows:
                raise ValueError(f"transition letter {a!r} not in alphabet")
            rows[a][index[p]] |= 1 << index[q]
        vars(self).update(alphabet=alphabet, states=states, _successors=rows)

    @classmethod
    def _from_rows(cls, alphabet: Alphabet, states: tuple, rows: dict):
        """The system with the given successor masks, one list per letter."""
        ts = cls.__new__(cls)
        vars(ts).update(alphabet=alphabet, states=states, _successors=rows)
        return ts

    def __hash__(self):
        return hash((self.alphabet, self.states))

    @cached_property
    def transitions(self) -> frozenset:
        S, rows = self.states, self._successors
        return frozenset(
            (S[i], a, S[j])
            for a in rows
            for i, out in enumerate(rows[a])
            for j in _bits(out)
        )

    @cached_property
    def _index(self) -> dict:
        return {q: i for i, q in enumerate(self.states)}

    def _mask(self, states) -> int:
        return sum(1 << self._index[q] for q in states)

    @cached_property
    def _reflexive_involutive(self) -> bool:
        return _saturated(self) == self._successors


class Automaton(Frozen):
    _fields = ("system", "initial", "final")

    def __init__(self, system: TransitionSystem, initial: frozenset, final: frozenset):
        index = system._index.keys()
        if not initial <= index or not final <= index:
            raise ValueError("initial/final states must be system states")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)


class Dfa(Value):
    """Total deterministic automaton; states are arbitrary hashable labels.

    minimal_dfa() instantiates it with FinalSegment states (the left
    quotients from _quotients), accepting exactly at A*. It is mutable and
    unhashable; equality compares every field, and the repr leaves delta out.
    """

    _fields = ("alphabet", "states", "start", "accepting", "delta")
    __hash__ = None

    def __init__(
        self, alphabet: Alphabet, states: tuple, start, accepting: frozenset, delta: dict
    ):
        self.alphabet = alphabet
        self.states = states
        self.start = start
        self.accepting = accepting
        self.delta = delta

    def __repr__(self):
        return (
            f"Dfa(alphabet={self.alphabet!r}, states={self.states!r}, "
            f"start={self.start!r}, accepting={self.accepting!r})"
        )


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
    configuration. A configuration is tested when it is discovered rather
    than when it leaves the queue, which spares expanding the configurations
    queued ahead of it.
    """
    if good(start):
        return Word(A, ())
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        config, syms = queue.popleft()
        for a in A.letters:
            nxt = step(config, a)
            if nxt in seen:
                continue
            if good(nxt):
                return Word(A, syms + (a,))
            seen.add(nxt)
            queue.append((nxt, syms + (a,)))
    return None


def _saturated(ts: TransitionSystem) -> dict:
    """The masks of ts with all loops, closed under letter up-closure and then
    involution reversal; one pass each, as the involution keeps the order."""
    A, rows = ts.alphabet, ts._successors
    closed = {}
    for b in A.letters:
        below = zip(*(rows[a] for a in A.letters if A.leq(a, b)))
        closed[b] = [reduce(or_, outs, 1 << i) for i, outs in enumerate(below)]
    # reversing a reversed bit only sets the bit it came from
    for a, row in closed.items():
        back = closed[A.bar(a)]
        for i, out in enumerate(row):
            bit = 1 << i
            while out:
                low = out & -out
                back[low.bit_length() - 1] |= bit
                out ^= low
    return closed


def saturate(ts: TransitionSystem) -> TransitionSystem:
    """Close under reflexivity, involution symmetry, and letter up-closure."""
    return TransitionSystem._from_rows(ts.alphabet, ts.states, _saturated(ts))


def is_reflexive_involutive(ts: TransitionSystem) -> bool:
    """Whether saturate would add nothing. The verdict is computed once per
    system, beside its masks."""
    return ts._reflexive_involutive


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(rows, mask: int) -> int:
    """The OR of rows[i] over the bits i of mask: through a system's
    successor masks for one letter, the states one step from those in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def accepts(aut: Automaton, w: Word) -> bool:
    """Nondeterministic state-set simulation on masks."""
    ts = aut.system
    if w.alphabet != ts.alphabet:
        raise ValueError("word alphabet differs from automaton alphabet")
    current = ts._mask(aut.initial)
    for a in w.symbols:
        current = _image(ts._successors[a], current)
    return bool(current & ts._mask(aut.final))


@lru_cache(maxsize=MEMO_SIZE)
def _quotient(leq, codes: tuple, c: str) -> tuple:
    """The codes of c^-1 L from those of L, under the code order leq: each
    word drops its first letter if that is at most c; the minimal ones are
    sorted. A dropped word embeds in its source, so no basis holds both: if
    every word is one of L's, none dropped, and L is its own quotient."""
    below = {c} if leq is None else {b for b, d in leq if d == c}
    cut = {u[1:] if u[:1] in below else u for u in codes}
    return codes if cut.issubset(codes) else _ordered(_minimal(leq, cut))


def _quotients(F: FinalSegment) -> tuple[tuple, list]:
    """F's left quotients, breadth-first in letter order, and rows[i][x], the
    position of the i-th's quotient by letter x: the one walk of F's minimal
    automaton, on code strings, with each quotient's segment made at the end."""
    A, leq = F.alphabet, F.alphabet._code_order
    letters = [chr(x) for x in range(len(A.letters))]
    codes, index, rows = [F.codes], {F.codes: 0}, []
    for L in codes:  # the list grows while it is read: a FIFO queue
        row = []
        for c in letters:
            M = _quotient(leq, L, c)
            row.append(index.setdefault(M, len(codes)))
            if row[-1] == len(codes):
                codes.append(M)
        rows.append(row)
    return tuple(_segment(A, L) for L in codes), rows


@lru_cache(maxsize=MEMO_SIZE)
def minimal_dfa(F: FinalSegment) -> Dfa:
    """F's left quotients, read off _quotients; start F, accepting exactly A*.

    A quotient accepts the empty word iff it equals A*, so acceptance is the
    is_full test. The empty segment yields the one-state rejecting automaton.
    """
    A = F.alphabet
    states, rows = _quotients(F)
    delta = {
        (G, a): states[j] for G, row in zip(states, rows) for a, j in zip(A.letters, row)
    }
    accepting = frozenset(G for G in states if is_full(G))
    return Dfa(A, states, F, accepting, delta)


def dfa_accepts(dfa: Dfa, w: Word) -> bool:
    q = dfa.start
    for a in w.symbols:
        q = dfa.delta[(q, a)]
    return q in dfa.accepting


def complement(dfa: Dfa) -> Dfa:
    accepting = frozenset(dfa.states) - dfa.accepting
    return Dfa(dfa.alphabet, dfa.states, dfa.start, accepting, dfa.delta)


def _first_difference(ts: TransitionSystem, start: int, targets) -> Word | None:
    """Length-lexicographically least word on which the system, run from the
    state mask start, and some target (mask, segment) disagree: the word
    reaches the mask or lies in the segment, but not both. None if none does.
    A configuration is the reached mask and the segments' left residuals by
    the word read; a word lies in a segment iff its residual is A*. No mask is
    pruned: an empty one still leads to the words of a segment it rejects."""
    A, rows, masks = ts.alphabet, ts._successors, [m for m, _ in targets]
    code = {a: chr(i) for i, a in enumerate(A.letters)}

    def step(config, a):
        c = code[a]
        return _image(rows[a], config[0]), tuple(_left_residual(c, G) for G in config[1])

    def good(config):
        reached = config[0]
        return any(bool(reached & m) != is_full(G) for m, G in zip(masks, config[1]))

    return shortest_word(A, (start, tuple(G for _, G in targets)), step, good)


def accepted_basis(aut: Automaton) -> FinalSegment:
    """Canonical basis of the (up-closed) language of a saturated automaton.

    Repeatedly find the shortest accepted word outside the up-set generated so
    far: the first difference between the automaton and that up-set, which
    the language contains. Each new word is incomparable to the ones found
    before, so the well-quasi-order on words makes the loop finite.
    """
    if not is_reflexive_involutive(aut.system):
        raise ValueError("accepted_basis needs a reflexive-involutive system")
    ts = aut.system
    start, final = ts._mask(aut.initial), ts._mask(aut.final)
    F = empty_segment(ts.alphabet)
    while (w := _first_difference(ts, start, [(final, F)])) is not None:
        F = canonicalize(ts.alphabet, F.basis + (w,))
    return F


def language_equals_segment(
    aut: Automaton, F: FinalSegment
) -> tuple[bool, Word | None]:
    """Does the automaton accept exactly F? On failure returns a witness word,
    the least word in the symmetric difference; any system will do."""
    ts = aut.system
    w = _first_difference(ts, ts._mask(aut.initial), [(ts._mask(aut.final), F)])
    return w is None, w


def isomorphic(aut1: Automaton, aut2: Automaton) -> tuple[bool, dict | None]:
    """Decide automaton isomorphism; on success also return a witness bijection.

    The bijection must preserve transitions in both directions and map the
    initial and final sets onto each other. After the size checks, each state
    may go to the states that agree with it on initial and final membership,
    and find_bijection, run on positions, takes p -> q when the letters
    between p and each mapped state r, p itself included, are those between q
    and the image of r: the same bits in the successor masks.
    """
    ts1, ts2 = aut1.system, aut2.system
    if ts1.alphabet != ts2.alphabet or len(ts1.states) != len(ts2.states):
        return False, None

    roles1 = [(q in aut1.initial, q in aut1.final) for q in ts1.states]
    roles2 = [(q in aut2.initial, q in aut2.final) for q in ts2.states]
    rows = list(zip(ts1._successors.values(), ts2._successors.values()))
    order = range(len(ts1.states))
    candidates = {i: [j for j in order if roles2[j] == roles1[i]] for i in order}

    def fits(p, q, mapping):
        for u, v in rows:
            up, vq = u[p], v[q]
            if up >> p & 1 != vq >> q & 1:
                return False
            for r, s in mapping.items():
                if up >> r & 1 != vq >> s & 1 or u[r] >> p & 1 != v[s] >> q & 1:
                    return False
        return True

    mapping = find_bijection(order, candidates, fits)
    if mapping is None:
        return False, None
    return True, {ts1.states[i]: ts2.states[j] for i, j in mapping.items()}


def find_bijection(order, candidates, fits) -> dict | None:
    """Backtracking search for an injective map p -> q, q in candidates[p].

    Points are assigned in the given order and candidates tried in their
    listed order; p may go to an unused q when fits(p, q, mapping) holds,
    mapping being the assignments so far. Returns the first map that assigns
    every point, or None. A stack of candidate iterators stands in for
    recursion.
    """
    mapping: dict = {}
    used = set()
    untried = []  # untried[i]: the candidates of order[i] not yet tried
    while len(mapping) < len(order):
        i = len(mapping)
        if len(untried) == i:
            untried.append(iter(candidates[order[i]]))
        p = order[i]
        for q in untried[i]:
            if q not in used and fits(p, q, mapping):
                mapping[p] = q
                used.add(q)
                break
        else:  # order[i] has no candidate left: undo order[i - 1]
            untried.pop()
            if not mapping:
                return None
            used.discard(mapping.popitem()[1])
    return mapping


def articulation_states(ts: TransitionSystem, x, y) -> list:
    """States other than x, y whose removal disconnects x from y.

    Works on the underlying undirected graph with loops ignored; the result
    is ordered by distance from x. Every cut lies on a shortest x-y path, so
    no two cuts tie and breadth-first discovery order sorts them.
    """
    if x == y:
        return []
    # saturation joins i and j exactly when some letter does, either way;
    # with no letter, no state has a neighbour
    rows = _saturated(ts).values()
    adj = [
        reduce(or_, (row[i] for row in rows), 0) & ~(1 << i)
        for i in range(len(ts.states))
    ]
    ix, iy = ts._index[x], ts._index[y]
    order = closure([ix], lambda i: _bits(adj[i]))
    if iy not in order:
        raise ValueError("x and y are not connected")
    return [
        ts.states[z]
        for z in order
        if z not in (ix, iy)
        and iy not in closure([ix], lambda i: _bits(adj[i] & ~(1 << z)))
    ]

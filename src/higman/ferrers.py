"""Decidable tests for the Ferrers property.

A language L is Ferrers when xx' in L and yy' in L force xy' in L or
yx' in L. For a final segment this is equivalent to the right residuals
forming a chain under inclusion, read off the column masks of the Galois
context that the envelope is built on, and to the envelope being linearly
ordered; for a regular language the left quotients, i.e. the reachable
states of a deterministic acceptor, must form a chain.
"""

from __future__ import annotations

from itertools import product

from .words import Alphabet, Word, concat
from .segments import FinalSegment, is_empty
from .automata import Automaton, Dfa, _bits, _image, closure, shortest_word
from .envelope import EnvelopeLattice, _forms, build_envelope, galois_context


def is_ferrers_segment(F: FinalSegment) -> tuple[bool, tuple | None]:
    """Whether the right residuals of F form a chain under inclusion.

    Compares the column masks of galois_context(F), whose bit inclusion is
    residual inclusion, in their breadth-first order by single letters. The
    witness pairs the first residual found incomparable with an earlier one,
    the two read back from their columns by _forms. The envelope itself is
    not built.
    """
    if is_empty(F):
        return True, None
    context = galois_context(F)
    columns = context.columns
    for i, H in enumerate(columns):
        for S in columns[:i]:
            if H & S not in (H, S):
                residual = _forms(context, (H, S))
                return False, (residual[H], residual[S])
    return True, None


def _determinize(aut: Automaton) -> Dfa:
    """Subset construction on masks, labelling each DFA state by its states."""
    ts = aut.system
    A, rows = ts.alphabet, ts._successors
    start, final = ts._mask(aut.initial), ts._mask(aut.final)
    masks = closure([start], lambda S: [_image(rows[a], S) for a in A.letters])
    label = {S: frozenset(ts.states[i] for i in _bits(S)) for S in masks}
    delta = {(label[S], a): label[_image(rows[a], S)] for S in masks for a in A.letters}
    accepting = frozenset(label[S] for S in masks if S & final)
    return Dfa(A, tuple(label.values()), label[start], accepting, delta)


def _separating_word(dfa: Dfa, s, t) -> Word | None:
    """Length-lex least word accepted from s but not from t."""
    return shortest_word(
        dfa.alphabet,
        (s, t),
        lambda pair, a: (dfa.delta[(pair[0], a)], dfa.delta[(pair[1], a)]),
        lambda pair: pair[0] in dfa.accepting and pair[1] not in dfa.accepting,
    )


def is_ferrers_regular(machine) -> tuple[bool, tuple | None]:
    """Whether the machine's language has chain-ordered left quotients.

    Accepts a Dfa or a (nondeterministic) Automaton; the latter is
    determinized first. The witness is a state pair with the two words
    separating their right languages in both directions.
    """
    dfa = machine if isinstance(machine, Dfa) else _determinize(machine)
    letters = dfa.alphabet.letters
    states = closure([dfa.start], lambda s: [dfa.delta[(s, a)] for a in letters])
    for i, s in enumerate(states):
        for t in states[i + 1 :]:
            w_st = _separating_word(dfa, s, t)
            if w_st is None:
                continue
            w_ts = _separating_word(dfa, t, s)
            if w_ts is None:
                continue
            return False, (s, t, w_st, w_ts)
    return True, None


def is_linearly_orderable(env: EnvelopeLattice) -> bool:
    """Whether the envelope elements form a chain under inclusion.

    Inclusion of elements is inclusion of extents, so they form a chain
    exactly when the extents, sorted by popcount, each lie inside the next.
    No element's form is read and no cover is computed.
    """
    chain = sorted(env.extents, key=int.bit_count)
    return all(E & G == E for E, G in zip(chain, chain[1:]))


def check_ferrers_equivalence(F: FinalSegment) -> bool:
    """Run the residual-chain test and the envelope-chain test and return
    the shared verdict; a disagreement is an internal error.
    """
    seg_verdict, _ = is_ferrers_segment(F)
    env_verdict = is_linearly_orderable(build_envelope(F))
    if seg_verdict != env_verdict:
        raise RuntimeError(
            "residual-chain and envelope-chain tests disagree: "
            f"{seg_verdict} vs {env_verdict}"
        )
    return seg_verdict


def quadruple_sample_test(member, alphabet: Alphabet, bound: int):
    """Exhaustive sweep of the four-word exchange condition up to a length
    bound, given a membership predicate.

    A False verdict refutes the Ferrers property and carries a witness
    (x, x', y, y') with xx', yy' inside and xy', yx' outside; True only
    reports that no violation appears within the bound, since the condition
    quantifies over all words.
    """
    words = [
        Word(alphabet, syms)
        for k in range(bound + 1)
        for syms in product(alphabet.letters, repeat=k)
    ]
    for x in words:
        for xp in words:
            if not member(concat(x, xp)):
                continue
            for y in words:
                for yp in words:
                    if (
                        member(concat(y, yp))
                        and not member(concat(x, yp))
                        and not member(concat(y, xp))
                    ):
                        return False, (x, xp, y, yp)
    return True, None


def downset_dfa(u: Word) -> Dfa:
    """Deterministic acceptor for the words embedding into u.

    State k says the input read so far embeds into no prefix of u shorter
    than k; reading c jumps past the first remaining letter above c, and a
    failed jump is the dead state.
    """
    A = u.alphabet
    n = len(u.symbols)
    dead = -1
    states = tuple(range(n + 1)) + (dead,)
    delta = {(dead, c): dead for c in A.letters}
    for k in range(n + 1):
        for c in A.letters:
            j = next((i for i in range(k, n) if A.leq(c, u.symbols[i])), None)
            delta[(k, c)] = dead if j is None else j + 1
    return Dfa(A, states, 0, frozenset(range(n + 1)), delta)

"""Two five-state acceptors of one final segment that are minmax yet not
isomorphic.

The raw edge lists below are the transcription of the classical example
(six-letter alphabet with a primed involution, language generated by the
two-letter words on distinct unprimed letters). They are kept in one place,
unsaturated, so the derived facts stay auditable; reproduce_main_example()
saturates them and checks every claim mechanically.
"""

from .words import Alphabet
from .segments import FinalSegment, canonicalize
from .automata import Automaton, TransitionSystem

_STATES = ("x", "p", "q", "r", "y")

# one letter in, the other two out
_EDGES_ONE = (
    ("x", "a", "p"),
    ("x", "b", "q"),
    ("x", "c", "r"),
    ("p", "b", "y"),
    ("p", "c", "y"),
    ("q", "a", "y"),
    ("q", "c", "y"),
    ("r", "a", "y"),
    ("r", "b", "y"),
)

# two letters in, the remaining one out
_EDGES_TWO = (
    ("x", "b", "p"),
    ("x", "c", "p"),
    ("x", "a", "q"),
    ("x", "c", "q"),
    ("x", "a", "r"),
    ("x", "b", "r"),
    ("p", "a", "y"),
    ("q", "b", "y"),
    ("r", "c", "y"),
)


def alphabet6() -> Alphabet:
    return Alphabet(
        ["a", "b", "c", "a'", "b'", "c'"],
        involution={"a": "a'", "b": "b'", "c": "c'"},
    )


def language() -> FinalSegment:
    A = alphabet6()
    texts = ("ab", "ac", "ba", "bc", "ca", "cb")
    return canonicalize(A, [A.word(t) for t in texts])


def _build(edges) -> Automaton:
    A = alphabet6()
    system = TransitionSystem(A, _STATES, frozenset(edges))
    return Automaton(system, frozenset({"x"}), frozenset({"y"}))


def automaton_one() -> Automaton:
    return _build(_EDGES_ONE)


def automaton_two() -> Automaton:
    return _build(_EDGES_TWO)

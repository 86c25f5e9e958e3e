"""Final segments of A* as canonical antichain bases, with the algebra on them.

A final segment is an up-closed language under the subword order, represented
by its unique antichain of minimal words. The operations form the lattice
(union/intersection), the monoid (concatenation, neutral element A*), the two
residuals, and the involution. The empty segment is admitted as a value of the
algebra; envelope construction rejects it separately.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import attrgetter
from weakref import WeakValueDictionary

from .words import (
    MEMO_SIZE,
    Alphabet,
    Frozen,
    Word,
    _basis,
    _check_same_alphabet,
    _matched_prefix_len,
    _word,
    involute,
    max_embeddable_prefix,
    max_embeddable_suffix,
    min_upper_bounds,
    minimal_words,
    sort_key,
)


class FinalSegment(Frozen):
    """Up-closed set of words, stored as its sorted minimal-word antichain.

    basis () is the empty segment; basis (empty word,) is all of A*.
    Segments are hash-consed: equal values are one object. Construction
    looks the alphabet and the basis words' letters up in _interned, a
    WeakValueDictionary, and returns the live segment of that value if there
    is one. Every path builds through __new__, a pickle or a copy included,
    since __reduce__ rebuilds from the fields. So equality and the hash are
    object identity, C-level slots, and the table holds only segments the
    program still keeps. The basis must already be canonical: canonicalize()
    makes one from any generating words.
    """

    _fields = ("alphabet", "basis")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, alphabet: Alphabet, basis: tuple[Word, ...]):
        # the letters stand for the words: tuples of str hash in C
        key = (alphabet, tuple(map(_symbols, basis)))
        F = _interned.get(key)
        if F is None:
            F = object.__new__(cls)
            object.__setattr__(F, "alphabet", alphabet)
            object.__setattr__(F, "basis", basis)
            _interned[key] = F
        return F

    def __reduce__(self):
        return FinalSegment, (self.alphabet, self.basis)


# (alphabet, letter tuples of the basis) -> the one live segment of that value
_interned = WeakValueDictionary()
_symbols = attrgetter("symbols")


def canonicalize(alphabet: Alphabet, words) -> FinalSegment:
    """The final segment generated upward by the given words."""
    return FinalSegment(alphabet, minimal_words(words))


def segment(alphabet: Alphabet, *texts) -> FinalSegment:
    """Convenience constructor from word strings."""
    return canonicalize(alphabet, [alphabet.word(t) for t in texts])


def empty_segment(alphabet: Alphabet) -> FinalSegment:
    return FinalSegment(alphabet, ())


def full_segment(alphabet: Alphabet) -> FinalSegment:
    return FinalSegment(alphabet, (_word(alphabet, ()),))


def is_empty(F: FinalSegment) -> bool:
    return not F.basis


def is_full(F: FinalSegment) -> bool:
    return len(F.basis) == 1 and not F.basis[0].symbols


def _holds(leq: frozenset | None, basis, symbols) -> bool:
    """Some basis word embeds in the letter sequence symbols; the alphabet
    is the caller's to check, once per call."""
    for u in basis:
        n = len(u.symbols)
        if n <= len(symbols) and _matched_prefix_len(leq, u.symbols, symbols) == n:
            return True
    return False


def contains(F: FinalSegment, w: Word) -> bool:
    _check_same_alphabet(F, w)
    return _holds(F.alphabet._order, F.basis, w.symbols)


@lru_cache(maxsize=MEMO_SIZE)
def subset_of(F: FinalSegment, G: FinalSegment) -> bool:
    """F ⊆ G. Up-closure makes the basis check sufficient."""
    _check_same_alphabet(F, G)
    return all(_holds(G.alphabet._order, G.basis, u.symbols) for u in F.basis)


def product_in(F: FinalSegment, G: FinalSegment, H: FinalSegment) -> bool:
    """F·G ⊆ H. F·G is generated by the products uv of basis words, and
    uG ⊆ H iff G ⊆ u\\H: so by residuation it holds iff G lies in the left
    residual of H by every basis word u of F, two memoized calls per u."""
    _check_same_alphabet(F, G)
    _check_same_alphabet(G, H)
    return all(subset_of(G, left_residual(u, H)) for u in F.basis)


def leq(F: FinalSegment, G: FinalSegment) -> bool:
    """G ⊆ F; this is F ≤ G in the reversed order where A* is least."""
    return subset_of(G, F)


def union(F: FinalSegment, G: FinalSegment) -> FinalSegment:
    _check_same_alphabet(F, G)
    return canonicalize(F.alphabet, F.basis + G.basis)


@lru_cache(maxsize=MEMO_SIZE)
def intersect(F: FinalSegment, G: FinalSegment) -> FinalSegment:
    """Meet: pairwise minimal common upper bounds of the two bases."""
    _check_same_alphabet(F, G)
    gens: list[Word] = []
    for u in F.basis:
        for v in G.basis:
            gens.extend(min_upper_bounds(u, v))
    return canonicalize(F.alphabet, gens)


@lru_cache(maxsize=MEMO_SIZE)
def concat_seg(F: FinalSegment, G: FinalSegment) -> FinalSegment:
    """Monoid product: ↑u · ↑v = ↑(uv) on generators, formed on letter
    tuples. ∅ absorbs."""
    _check_same_alphabet(F, G)
    A = F.alphabet
    products = {u.symbols + v.symbols for u in F.basis for v in G.basis}
    return FinalSegment(A, _basis(A, products))


@lru_cache(maxsize=MEMO_SIZE)
def right_residual(F: FinalSegment, w: Word) -> FinalSegment:
    """{x : xw ∈ F}.

    For a generator u, xw ⊇ u iff x lies above the prefix u' left over after
    the longest suffix of u embeds in w; shorter suffixes only lengthen the
    leftover prefix, so the maximal split per generator suffices.
    """
    return canonicalize(
        F.alphabet, [max_embeddable_suffix(u, w)[0] for u in F.basis]
    )


@lru_cache(maxsize=MEMO_SIZE)
def left_residual(w: Word, F: FinalSegment) -> FinalSegment:
    """{v : wv ∈ F}; mirror image of right_residual."""
    return canonicalize(
        F.alphabet, [max_embeddable_prefix(u, w)[1] for u in F.basis]
    )


@lru_cache(maxsize=MEMO_SIZE)
def involute_seg(F: FinalSegment) -> FinalSegment:
    return canonicalize(F.alphabet, [involute(u) for u in F.basis])


def seg_key(F: FinalSegment) -> tuple:
    """Canonical total order on segments, for deterministic listings: basis
    size, then the sort_key of each basis word."""
    return seg_keys((F,))[0]


def seg_keys(segments) -> list:
    """[seg_key(F) for F in segments], over one alphabet, with the sort_key
    of each distinct basis word computed once."""
    segments = tuple(segments)
    words = list(chain.from_iterable(F.basis for F in segments))
    distinct = dict(zip(map(_symbols, words), words))
    word_key = {s: sort_key(w) for s, w in distinct.items()}.__getitem__
    return [(len(F.basis), tuple(map(word_key, map(_symbols, F.basis)))) for F in segments]


def format_segment(F: FinalSegment) -> str:
    if not F.basis:
        return "∅"
    if is_full(F):
        return "A*"
    if len(F.basis) == 1:
        return f"↑{F.basis[0]}"
    return "↑{" + ",".join(str(u) for u in F.basis) + "}"

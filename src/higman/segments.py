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
    Build values through canonicalize(), which returns one shared object per
    value while that value stays in its bounded cache (MEMO_SIZE entries):
    the memoized operations then meet the same objects and find them by
    identity. Sharing only makes things faster. Equality still compares
    alphabet and basis, and the hash is hash((alphabet, basis)), computed on
    first use and kept outside the fields; it is left out of the pickled
    state, since str hashes differ between processes.
    """

    _fields = ("alphabet", "basis")

    def __init__(self, alphabet: Alphabet, basis: tuple[Word, ...]):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "basis", basis)

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.alphabet, self.basis))
            return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@lru_cache(maxsize=MEMO_SIZE)
def _canonical(F: FinalSegment) -> FinalSegment:
    """The first stored segment equal to F."""
    return F


def canonicalize(alphabet: Alphabet, words) -> FinalSegment:
    """The final segment generated upward by the given words, as the one
    shared object of its value."""
    return _canonical(FinalSegment(alphabet, minimal_words(words)))


def segment(alphabet: Alphabet, *texts) -> FinalSegment:
    """Convenience constructor from word strings."""
    return canonicalize(alphabet, [alphabet.word(t) for t in texts])


def empty_segment(alphabet: Alphabet) -> FinalSegment:
    return _canonical(FinalSegment(alphabet, ()))


def full_segment(alphabet: Alphabet) -> FinalSegment:
    return _canonical(FinalSegment(alphabet, (_word(alphabet, ()),)))


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
    """F·G ⊆ H. F·G is generated by the basis products, so they suffice."""
    _check_same_alphabet(F, G)
    _check_same_alphabet(G, H)
    return all(
        _holds(H.alphabet._order, H.basis, u.symbols + v.symbols)
        for u in F.basis
        for v in G.basis
    )


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
    return _canonical(FinalSegment(A, _basis(A, products)))


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
    symbols = attrgetter("symbols")
    words = list(chain.from_iterable(F.basis for F in segments))
    distinct = dict(zip(map(symbols, words), words))
    word_key = {s: sort_key(w) for s, w in distinct.items()}.__getitem__
    return [(len(F.basis), tuple(map(word_key, map(symbols, F.basis)))) for F in segments]


def format_segment(F: FinalSegment) -> str:
    if not F.basis:
        return "∅"
    if is_full(F):
        return "A*"
    if len(F.basis) == 1:
        return f"↑{F.basis[0]}"
    return "↑{" + ",".join(str(u) for u in F.basis) + "}"

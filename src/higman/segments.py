"""Final segments of A* as canonical antichain bases, with the algebra on them.

A final segment is an up-closed language under the subword order, represented
by its unique antichain of minimal words. The operations form the lattice
(union/intersection), the monoid (concatenation, neutral element A*), the two
residuals, and the involution. The empty segment is admitted as a value of the
algebra; envelope construction rejects it separately.

The algebra runs on strings of letter codes (see words), a segment's codes:
no Word is built unless a caller reads a basis, and Words passed in are
encoded once, on entry.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from weakref import WeakValueDictionary

from .words import (
    MEMO_SIZE,
    Alphabet,
    Frozen,
    Word,
    _check_same_alphabet,
    _decode,
    _encode,
    _letter_codes,
    _matched_prefix_len,
    _minimal,
    _mub_tuples,
)


class FinalSegment(Frozen):
    """Up-closed set of words, stored as its sorted minimal-word antichain.

    codes holds the basis words as letter-code strings in (length, string)
    order, sort_key's: () is the empty segment, ("",) all of A*. basis, the
    same as Words, is built on first read and kept (a cached_property);
    nothing else is stored on a segment. Segments are hash-consed: _segment,
    which every path builds through (a pickle or a copy too, since
    __reduce__ rebuilds from the fields), returns the live segment of
    (alphabet, codes) in _interned, a WeakValueDictionary, if there is one.
    So equality and the hash are object identity, C-level slots, and the
    table holds only segments the program still keeps. The basis must
    already be canonical: canonicalize() makes one from any generating words.
    """

    _fields = ("alphabet", "basis")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, alphabet: Alphabet, basis: tuple[Word, ...]):
        return _segment(alphabet, tuple(map(_encode, basis)))

    @cached_property
    def basis(self) -> tuple[Word, ...]:
        return tuple(_decode(self.alphabet, s) for s in self.codes)

    def __reduce__(self):
        return FinalSegment, (self.alphabet, self.basis)


# (alphabet, codes) -> the one live segment of that value
_interned = WeakValueDictionary()


def _segment(A: Alphabet, codes: tuple[str, ...]) -> FinalSegment:
    """The live segment over A whose basis is codes, already canonical."""
    key = (A, codes)
    F = _interned.get(key)
    if F is None:
        F = object.__new__(FinalSegment)
        object.__setattr__(F, "alphabet", A)
        object.__setattr__(F, "codes", codes)
        _interned[key] = F
    return F


def _canonical(A: Alphabet, strings) -> FinalSegment:
    """The segment generated upward by a set of distinct code strings."""
    kept = _minimal(A._code_order, strings)
    return _segment(A, tuple(sorted(sorted(kept), key=len)))


def canonicalize(alphabet: Alphabet, words) -> FinalSegment:
    """The final segment generated upward by the given words."""
    words = list(words)
    for w in words:
        if w.alphabet is not alphabet and w.alphabet != alphabet:
            raise ValueError("operands over different alphabets")
    return _canonical(alphabet, set(map(_encode, words)))


def segment(alphabet: Alphabet, *texts) -> FinalSegment:
    """Convenience constructor from word strings."""
    return canonicalize(alphabet, [alphabet.word(t) for t in texts])


def empty_segment(alphabet: Alphabet) -> FinalSegment:
    return _segment(alphabet, ())


def full_segment(alphabet: Alphabet) -> FinalSegment:
    return _segment(alphabet, ("",))


def is_empty(F: FinalSegment) -> bool:
    return not F.codes


def is_full(F: FinalSegment) -> bool:
    return F.codes == ("",)


def _holds(leq: frozenset | None, codes, s: str) -> bool:
    """Some code string of codes embeds in s, under the codes' letter order
    leq; the alphabet is the caller's to check, once per call."""
    for u in codes:
        n = len(u)
        if n <= len(s) and _matched_prefix_len(leq, u, s) == n:
            return True
    return False


def contains(F: FinalSegment, w: Word) -> bool:
    _check_same_alphabet(F, w)
    return _holds(F.alphabet._code_order, F.codes, _encode(w))


@lru_cache(maxsize=MEMO_SIZE)
def subset_of(F: FinalSegment, G: FinalSegment) -> bool:
    """F ⊆ G. Up-closure makes the basis check sufficient."""
    _check_same_alphabet(F, G)
    leq = G.alphabet._code_order
    return all(_holds(leq, G.codes, u) for u in F.codes)


def product_in(F: FinalSegment, G: FinalSegment, H: FinalSegment) -> bool:
    """F·G ⊆ H. F·G is generated by the products uv of basis words, and
    uG ⊆ H iff G ⊆ u\\H: so by residuation it holds iff G lies in the left
    residual of H by every basis word u of F, two memoized calls per u."""
    _check_same_alphabet(F, G)
    _check_same_alphabet(G, H)
    return all(subset_of(G, _left_residual(u, H)) for u in F.codes)


def leq(F: FinalSegment, G: FinalSegment) -> bool:
    """G ⊆ F; this is F ≤ G in the reversed order where A* is least."""
    return subset_of(G, F)


def union(F: FinalSegment, G: FinalSegment) -> FinalSegment:
    _check_same_alphabet(F, G)
    return _canonical(F.alphabet, {*F.codes, *G.codes})


@lru_cache(maxsize=MEMO_SIZE)
def intersect(F: FinalSegment, G: FinalSegment) -> FinalSegment:
    """Meet: pairwise minimal common upper bounds of the two bases."""
    _check_same_alphabet(F, G)
    A = F.alphabet
    gens = set()
    for u in F.codes:
        for v in G.codes:
            gens |= _mub_tuples(A, *sorted((u, v)))
    return _canonical(A, gens)


@lru_cache(maxsize=MEMO_SIZE)
def concat_seg(F: FinalSegment, G: FinalSegment) -> FinalSegment:
    """Monoid product: ↑u · ↑v = ↑(uv) on generators. ∅ absorbs."""
    _check_same_alphabet(F, G)
    return _canonical(F.alphabet, {u + v for u in F.codes for v in G.codes})


@lru_cache(maxsize=MEMO_SIZE)
def right_residual(F: FinalSegment, w: Word) -> FinalSegment:
    """{x : xw ∈ F}.

    For a generator u, xw ⊇ u iff x lies above the prefix u' left over after
    the longest suffix of u embeds in w; shorter suffixes only lengthen the
    leftover prefix, so the maximal split per generator suffices.
    """
    _check_same_alphabet(F, w)
    leq, s = F.alphabet._code_order, _encode(w)[::-1]
    cut = {u[:len(u) - _matched_prefix_len(leq, u[::-1], s)] for u in F.codes}
    return _canonical(F.alphabet, cut)


@lru_cache(maxsize=MEMO_SIZE)
def left_residual(w: Word, F: FinalSegment) -> FinalSegment:
    """{v : wv ∈ F}; mirror image of right_residual."""
    _check_same_alphabet(w, F)
    return _left_residual(_encode(w), F)


@lru_cache(maxsize=MEMO_SIZE)
def _left_residual(s: str, F: FinalSegment) -> FinalSegment:
    """left_residual by the word of the code string s."""
    leq = F.alphabet._code_order
    return _canonical(F.alphabet, {u[_matched_prefix_len(leq, u, s):] for u in F.codes})


@lru_cache(maxsize=MEMO_SIZE)
def involute_seg(F: FinalSegment) -> FinalSegment:
    """Each generator reversed, with the letter involution applied."""
    bar = _letter_codes(F.alphabet)[3]
    return _canonical(F.alphabet, {u[::-1].translate(bar) for u in F.codes})


def seg_key(F: FinalSegment) -> tuple:
    """Canonical total order on segments, for deterministic listings: basis
    size, then the sort_key of each basis word."""
    return seg_keys((F,))[0]


def seg_keys(segments) -> list:
    """[seg_key(F) for F in segments], over one alphabet, read off codes:
    the key of a code string, (len(s), tuple(map(ord, s))), is the sort_key
    of its word, and each distinct string's key is built once."""
    segments = tuple(segments)
    distinct = set(chain.from_iterable(F.codes for F in segments))
    key = {s: (len(s), tuple(map(ord, s))) for s in distinct}.__getitem__
    return [(len(F.codes), tuple(map(key, F.codes))) for F in segments]


def format_segment(F: FinalSegment) -> str:
    if not F.basis:
        return "∅"
    if is_full(F):
        return "A*"
    if len(F.basis) == 1:
        return f"↑{F.basis[0]}"
    return "↑{" + ",".join(str(u) for u in F.basis) + "}"

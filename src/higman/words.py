"""Ordered alphabets with involution, words, and the subword embedding order.

Words are compared by the Higman ordering: u embeds in v when there is a
strictly increasing position map sending each letter of u to a position of v
carrying a letter at least as large. All values here are immutable.

Word is the public type; inside the segment algebra a word is a string of
letter codes, letter i written as chr(i), which hashes, slices and compares in
C and sorts by (length, string) as sort_key does. _encode and _decode convert.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import attrgetter

# entries per memoized function; the 63,504 distances of a 252-element envelope fit
MEMO_SIZE = 1 << 16


class Alphabet:
    """Finite letter set with a partial order and an order-preserving involution.

    The order is supplied as a list of pairs (a, b) meaning a <= b and is
    closed reflexively and transitively at construction; a violation of
    antisymmetry is a construction error. The involution defaults to the
    identity on letters it does not mention and is symmetrized (bar(a) = b
    implies bar(b) = a) before being validated.
    """

    def __init__(self, letters, order=(), involution=None):
        self.letters: tuple[str, ...] = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")
        for a in self.letters:
            if not isinstance(a, str) or not a or "[" in a or "]" in a:
                raise ValueError(f"invalid letter {a!r}")
        self.index: dict[str, int] = {a: i for i, a in enumerate(self.letters)}

        pairs = {(a, a) for a in self.letters}
        for a, b in order:
            if a not in self.index or b not in self.index:
                raise ValueError(f"order pair ({a!r}, {b!r}) uses unknown letters")
            pairs.add((a, b))
        for k in self.letters:  # Warshall: close through k, one letter at a time
            below = [a for a, b in pairs if b == k]
            above = [b for a, b in pairs if a == k]
            pairs.update((a, b) for a in below for b in above)
        for a, b in combinations(self.letters, 2):  # in letter-index order
            if (a, b) in pairs and (b, a) in pairs:
                raise ValueError(f"letter order is not antisymmetric: {a!r} and {b!r}")
        self._leq: frozenset[tuple[str, str]] = frozenset(pairs)
        # _leq as the matching kernel takes it, on letters and on letter codes
        # (letter i is chr(i)): None when the order is equality, so matching
        # is a plain subsequence test
        self._order = self._leq if any(a != b for a, b in pairs) else None
        self._code_order = self._order and frozenset(
            (chr(self.index[a]), chr(self.index[b])) for a, b in pairs
        )

        bar = dict(involution or {})
        for a, b in list(bar.items()):
            if a not in self.index or b not in self.index:
                raise ValueError(f"involution pair ({a!r}, {b!r}) uses unknown letters")
            if bar.setdefault(b, a) != a:
                raise ValueError(f"involution is not self-inverse at {b!r}")
        for a in self.letters:
            bar.setdefault(a, a)
        for a, b in pairs:
            if (bar[a], bar[b]) not in pairs:
                raise ValueError(
                    f"involution does not preserve the order on ({a!r}, {b!r})"
                )
        self._bar: dict[str, str] = bar
        self._hash = hash((self.letters, self._leq, tuple(sorted(bar.items()))))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self._leq

    def bar(self, a: str) -> str:
        return self._bar[a]

    def word(self, text) -> "Word":
        """Parse a word from a string; multi-character letters use brackets.

        "ab" means the two letters a, b; "a[b1]c" means a, b1, c.
        An iterable of letter strings is accepted as well.
        """
        if not isinstance(text, str):
            return Word(self, tuple(text))
        symbols = []
        i = 0
        while i < len(text):
            if text[i] == "[":
                j = text.find("]", i)
                if j < 0:
                    raise ValueError(f"unterminated bracket in word {text!r}")
                symbols.append(text[i + 1:j])
                i = j + 1
            else:
                symbols.append(text[i])
                i += 1
        return Word(self, tuple(symbols))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Alphabet)
            and self.letters == other.letters
            and self._leq == other._leq
            and self._bar == other._bar
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from its definition: the hash of str letters differs
        # between processes, so the stored one must not travel
        return Alphabet, (self.letters, sorted(self._leq), self._bar)

    def __repr__(self):
        return f"Alphabet({'-'.join(self.letters)})"


class Value:
    """Base of the value classes. _fields names, in constructor order, the
    fields read by equality (same class, equal fields), the hash (of the
    field tuple) and the repr (Name(field=value, ...))."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields
        get = attrgetter(*names) if len(names) > 1 else lambda v: (getattr(v, names[0]),)
        cls._values = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Frozen(Value):
    """Base of the immutable value classes: assigning or deleting any
    attribute raises AttributeError, so constructors set their fields through
    object.__setattr__ or vars(self)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Word(Frozen):
    """A finite sequence of letters from one alphabet, kept as a tuple
    whatever sequence it is given. Equal words have the same alphabet and
    symbols, and hash as that pair, built inline: the base's getter call
    shows on every set and dict lookup of a word."""

    _fields = ("alphabet", "symbols")

    def __init__(self, alphabet: Alphabet, symbols: tuple[str, ...] = ()):
        symbols = tuple(symbols)
        for a in symbols:
            if a not in alphabet.index:
                raise ValueError(f"letter {a!r} not in alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "symbols", symbols)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.alphabet, self.symbols) == (other.alphabet, other.symbols)
        return NotImplemented

    def __hash__(self):
        return hash((self.alphabet, self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return "".join(a if len(a) == 1 else f"[{a}]" for a in self.symbols)

    def __repr__(self):
        return f"Word({str(self)!r})"


def _word(alphabet: Alphabet, symbols: tuple) -> Word:
    """A Word of a tuple of letters known to lie in the alphabet, built
    without the constructor's letter check."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "symbols", symbols)
    return w


def sort_key(w: Word) -> tuple:
    """Canonical total order on words: length, then letter indices."""
    return (len(w.symbols), tuple(map(w.alphabet.index.__getitem__, w.symbols)))


def _check_same_alphabet(u, v) -> None:
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise ValueError("operands over different alphabets")


def concat(u: Word, v: Word) -> Word:
    _check_same_alphabet(u, v)
    return _word(u.alphabet, u.symbols + v.symbols)


def involute(w: Word) -> Word:
    """Reverse the word and apply the letter involution pointwise."""
    A = w.alphabet
    return _word(A, tuple(map(A._bar.__getitem__, reversed(w.symbols))))


def embeds(u: Word, v: Word) -> bool:
    """Higman ordering: u embeds in v.

    Greedy left-to-right matching: each letter of u takes the leftmost unused
    position of v carrying a letter above it. The greedy choice is optimal
    because taking the leftmost match leaves maximal room to the right.
    """
    _check_same_alphabet(u, v)
    return _matched_prefix_len(u.alphabet._order, u.symbols, v.symbols) == len(u.symbols)


def _matched_prefix_len(leq: frozenset | None, u, v) -> int:
    # leq holds the pairs (a, b) with a <= b, of letters or of letter codes,
    # or is None when the order is equality: then each letter of u takes the
    # next equal letter of v, which `in` finds on an iterator in C
    n, i = len(u), 0
    if leq is None:
        rest = iter(v)
        for a in u:
            if a not in rest:
                break
            i += 1
    elif n:
        for b in v:
            if (u[i], b) in leq:
                i += 1
                if i == n:
                    break
    return i


def _minimal(leq: frozenset | None, seqs) -> list:
    """The minimal ones of distinct letter sequences under embedding, tested
    shortest first against those kept: a shorter one, or one of the same
    length lying letterwise below, which needs two related letters, so an
    order leq that is None, equality, has none."""
    related = leq is not None
    kept, start = [], 0  # kept[start:] have the length at hand
    for s in sorted(seqs, key=len):
        n = len(s)
        if kept and len(kept[-1]) < n:
            start = len(kept)
        below = kept if related else kept[:start]
        if any(_matched_prefix_len(leq, t, s) == len(t) for t in below):
            continue
        if related:  # kept ones of its length above s are no longer minimal
            kept[start:] = [t for t in kept[start:] if _matched_prefix_len(leq, s, t) < n]
        kept.append(s)
    return kept


def max_embeddable_prefix(u: Word, w: Word) -> tuple[Word, Word]:
    """Split u = u'u'' with u' the longest prefix of u embedding in w.

    Prefix-embeddability is downward closed in prefix length, so the greedy
    match count is exactly the longest embeddable prefix.
    """
    _check_same_alphabet(u, w)
    k = _matched_prefix_len(u.alphabet._order, u.symbols, w.symbols)
    return _word(u.alphabet, u.symbols[:k]), _word(u.alphabet, u.symbols[k:])


def max_embeddable_suffix(u: Word, w: Word) -> tuple[Word, Word]:
    """Split u = u'u'' with u'' the longest suffix of u embedding in w."""
    _check_same_alphabet(u, w)
    k = _matched_prefix_len(u.alphabet._order, u.symbols[::-1], w.symbols[::-1])
    n = len(u.symbols)
    return _word(u.alphabet, u.symbols[:n - k]), _word(u.alphabet, u.symbols[n - k:])


def minimal_words(words) -> tuple[Word, ...]:
    """The minimal words of a set of words over one alphabet, by sort_key."""
    words = list(words)
    for w in words:
        _check_same_alphabet(words[0], w)
    if not words:
        return ()
    A = words[0].alphabet
    kept = _minimal(A._order, {w.symbols for w in words})
    return tuple(sorted((_word(A, s) for s in kept), key=sort_key))


@lru_cache(maxsize=MEMO_SIZE)
def _letter_codes(A: Alphabet) -> tuple:
    """Letter i written as chr(i), with the letter order (None when it is
    equality), the minimal upper bounds of letter pairs and the involution,
    a str.translate table, carried over to the codes."""
    code = {a: chr(i) for i, a in enumerate(A.letters)}
    mubs = {}
    for a, b in product(A.letters, repeat=2):
        ups = [code[c] for c in A.letters if A.leq(a, c) and A.leq(b, c)]
        mubs[code[a], code[b]] = "".join(_minimal(A._code_order, ups))
    bar = {i: A.index[A._bar[a]] for i, a in enumerate(A.letters)}
    return code, A._code_order, mubs, bar


def _encode(w: Word) -> str:
    """w as a string of letter codes."""
    return "".join(map(_letter_codes(w.alphabet)[0].__getitem__, w.symbols))


def _decode(A: Alphabet, s: str) -> Word:
    """The Word over A of a string of letter codes."""
    return _word(A, tuple(A.letters[ord(c)] for c in s))


@lru_cache(maxsize=MEMO_SIZE)
def _mub_tuples(A: Alphabet, us: str, vs: str) -> frozenset:
    """The minimal merges of two code strings; callers pass the pair sorted,
    so that both orders share one entry."""
    _, leq, mubs, _ = _letter_codes(A)
    n = len(vs)
    # below[j] holds the minimal merges of us[i + 1:] and vs[j:]; row i reads
    # only itself and row i + 1, so the rows are filled from the ends
    below = [{vs[j:]} for j in range(n + 1)]
    for i in range(len(us) - 1, -1, -1):
        row = [None] * n + [{us[i:]}]
        for j in range(n - 1, -1, -1):
            su, sv = us[i:], vs[j:]
            if su.startswith(sv) or sv.startswith(su):
                # one suffix is a prefix of the other, so it embeds in it
                row[j] = {max(su, sv, key=len)}
                continue
            out = {us[i] + t for t in below[j]}
            out.update(vs[j] + t for t in row[j + 1])
            for c in mubs[us[i], vs[j]]:
                out.update(c + t for t in below[j + 1])
            row[j] = _minimal(leq, out)
        below = row
    return frozenset(below[0])


def min_upper_bounds(u: Word, v: Word) -> set[Word]:
    """Minimal words above both u and v; the basis of the up-set intersection.

    Merge on suffix pairs, filled from the ends: at each step consume the head
    of u, the head of v, or a minimal upper bound of both heads, and keep each
    pair's minimal merges (`_minimal`); none exceeds |u| + |v| letters.
    """
    _check_same_alphabet(u, v)
    A = u.alphabet
    return {_decode(A, s) for s in _mub_tuples(A, *sorted((_encode(u), _encode(v))))}

"""Up-sets of finite chain products and the explicit isomorphism that embeds
an envelope into them.

Final segments of a product of chains n_0 x ... x n_{k-1} are antichains of
minimal tuples. The map phi sends envelope elements to such up-sets by
intersecting tuple-tagged residuals; psi maps up-sets back by intersecting
segments generated by generator prefixes. For generators of one common length
with pairwise disjoint downsets, phi is a bijection onto all up-sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

from .words import Word, embeds, max_embeddable_prefix, max_embeddable_suffix
from .segments import (
    FinalSegment,
    canonicalize,
    full_segment,
    intersect,
    subset_of,
)
from .automata import closure
from .envelope import EnvelopeLattice, build_envelope, letter_residuals
from .minmax import CapExceeded


@dataclass(frozen=True)
class ChainProduct:
    """The componentwise-ordered grid of tuples x with 0 <= x_i <= n_i - 1."""

    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims or any(
            not isinstance(n, int) or n < 1 for n in self.dims
        ):
            raise ValueError("chain product needs positive integer dimensions")

    @property
    def points(self) -> tuple:
        return tuple(iter_product(*[range(n) for n in self.dims]))


@dataclass(frozen=True)
class UpSet:
    """Up-set of a chain product, held as its antichain of minimal tuples."""

    product: ChainProduct
    mintuples: tuple


def _dominates(x, t) -> bool:
    return all(a >= b for a, b in zip(x, t))


def up_set(product: ChainProduct, tuples) -> UpSet:
    """Canonical up-set generated by the given tuples."""
    uniq = sorted({tuple(t) for t in tuples})
    k = len(product.dims)
    for t in uniq:
        if len(t) != k or any(
            not (0 <= v < n) for v, n in zip(t, product.dims)
        ):
            raise ValueError(f"tuple {t} outside the chain product")
    minimal = tuple(
        t for t in uniq if not any(s != t and _dominates(t, s) for s in uniq)
    )
    return UpSet(product, minimal)


def full_up_set(product: ChainProduct) -> UpSet:
    return UpSet(product, ((0,) * len(product.dims),))


def empty_up_set(product: ChainProduct) -> UpSet:
    return UpSet(product, ())


def up_member(Y: UpSet, x) -> bool:
    return any(_dominates(x, t) for t in Y.mintuples)


def union_upsets(Y: UpSet, Z: UpSet) -> UpSet:
    if Y.product != Z.product:
        raise ValueError("up-sets of different chain products")
    return up_set(Y.product, Y.mintuples + Z.mintuples)


def intersect_upsets(Y: UpSet, Z: UpSet) -> UpSet:
    # up(s) meet up(t) = up(componentwise max) in a product of chains
    if Y.product != Z.product:
        raise ValueError("up-sets of different chain products")
    return up_set(
        Y.product,
        [
            tuple(max(a, b) for a, b in zip(s, t))
            for s in Y.mintuples
            for t in Z.mintuples
        ],
    )


def _up_masks(points) -> list[int]:
    index = {p: i for i, p in enumerate(points)}
    return [
        sum(1 << index[q] for q in points if _dominates(q, p)) for p in points
    ]


def _valid_masks(product: ChainProduct):
    if math.prod(product.dims) > 20:
        raise CapExceeded("chain product too large to enumerate")
    points = product.points
    n = len(points)
    masks = _up_masks(points)
    for mask in range(1 << n):
        rest = mask
        ok = True
        while rest:
            bit = (rest & -rest).bit_length() - 1
            if masks[bit] & ~mask:
                ok = False
                break
            rest &= rest - 1
        if ok:
            yield mask, points


def count_upsets(dims) -> int:
    """Number of up-sets of the chain product, by exhaustive enumeration.

    For two chains this equals the lattice-path count binomial(n0 + n1, n0):
    an up-set of n0 x n1 is a monotone staircase.
    """
    return sum(1 for _ in _valid_masks(ChainProduct(tuple(dims))))


def all_upsets(product: ChainProduct) -> list[UpSet]:
    """Every up-set, in increasing bitmask order of membership."""
    out = []
    for mask, points in _valid_masks(product):
        members = [p for i, p in enumerate(points) if mask >> i & 1]
        out.append(up_set(product, members))
    return out


def coding_maps(u: Word, v: Word) -> tuple[int, int]:
    """The pair (f(v), g(v)) coding v against the generator word u.

    f(v) is the length of the longest prefix of u embedding in v; g(v) is one
    less than the least m for which the suffix u[m:] embeds in v. For words
    v, w outside the up-set of u: vw lands in it iff not f(v) <= g(w).
    """
    if embeds(u, v):
        raise ValueError("coding maps are defined outside the up-set of u")
    f = len(max_embeddable_prefix(u, v)[0].symbols)
    g = len(u.symbols) - 1 - len(max_embeddable_suffix(u, v)[1].symbols)
    return f, g


def tuple_of_word(generators, v: Word) -> tuple:
    """Per-generator unmatched prefix lengths: the i-th entry is |u_i| minus
    the length of the longest suffix of u_i embedding in v.
    """
    return tuple(
        len(max_embeddable_suffix(u, v)[0].symbols) for u in generators
    )


@lru_cache(maxsize=None)
def _residual_tuples(F: FinalSegment, generators: tuple) -> frozenset:
    """All achievable pairs (right residual of F by v, tuple_of_word(v)).

    Breadth search by prepending letters: the residual steps by a single
    right residual, and each greedy suffix match advances by at most one.
    """
    A = F.alphabet
    dims = tuple(len(u.symbols) for u in generators)

    def step(state):
        G, sigma = state
        for a, H in zip(A.letters, letter_residuals(G)):
            yield H, tuple(
                s + 1 if s < n and A.leq(u.symbols[n - 1 - s], a) else s
                for s, n, u in zip(sigma, dims, generators)
            )

    seen = closure([(F, (0,) * len(generators))], step)
    return frozenset(
        (G, tuple(n - s for s, n in zip(sigma, dims))) for G, sigma in seen
    )


def _tau(product: ChainProduct, t) -> UpSet:
    # complement of the box {x : x_i < t_i for all i}
    k = len(t)
    return up_set(
        product,
        [
            tuple(t[i] if j == i else 0 for j in range(k))
            for i in range(k)
            if t[i] < product.dims[i]
        ],
    )


def phi(env: EnvelopeLattice, X: FinalSegment, generators=None) -> UpSet:
    """Image of an envelope element in the up-set lattice of the chain
    product of generator lengths.

    Intersects tau over all residual-tagged tuples whose residual contains X;
    tau depends on a word only through its tuple, so ranging over residual
    states covers all words.
    """
    gens = tuple(generators) if generators is not None else env.y.basis
    if not gens or any(not u.symbols for u in gens):
        raise ValueError("phi needs nonempty generator words")
    if X not in env.elements:
        raise ValueError("phi argument must be an envelope element")
    product = ChainProduct(tuple(len(u.symbols) for u in gens))
    result = full_up_set(product)
    for G, t in _residual_tuples(env.y, gens):
        if subset_of(X, G):
            result = intersect_upsets(result, _tau(product, t))
    return result


def psi(product: ChainProduct, Y: UpSet, generators) -> FinalSegment:
    """Final segment matching an up-set: the intersection over grid points x
    outside Y of the segments generated by the generator prefixes of length
    x_i + 1.
    """
    gens = tuple(generators)
    if Y.product != product:
        raise ValueError("up-set belongs to a different chain product")
    if tuple(len(u.symbols) for u in gens) != product.dims:
        raise ValueError("generator lengths do not match the chain product")
    A = gens[0].alphabet
    result = full_segment(A)
    for x in product.points:
        if not up_member(Y, x):
            mu = canonicalize(
                A, [Word(A, u.symbols[: xi + 1]) for u, xi in zip(gens, x)]
            )
            result = intersect(result, mu)
    return result


def disjoint_downsets(generators) -> bool:
    """No two generators share a common lower-bound letter.

    Any common nonempty subword of two words contains a letter below a letter
    of each, so checking single letters decides downset disjointness.
    """
    gens = list(generators)
    if not gens:
        return True
    A = gens[0].alphabet
    below = [
        {c for c in A.letters if any(A.leq(c, x) for x in u.symbols)}
        for u in gens
    ]
    return all(
        not (below[i] & below[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )


def verify_full_embedding(F: FinalSegment) -> bool:
    """For same-length generators with disjoint downsets, the envelope maps
    bijectively onto all up-sets of the corresponding chain product.
    """
    gens = F.basis
    if not gens or any(not u.symbols for u in gens):
        raise ValueError("needs nonempty generator words")
    dims = tuple(len(u.symbols) for u in gens)
    if len(set(dims)) != 1:
        raise ValueError("generators must share one length")
    if not disjoint_downsets(gens):
        raise ValueError("generators must have pairwise disjoint downsets")
    env = build_envelope(F)
    product = ChainProduct(dims)
    images = {phi(env, X) for X in env.elements}
    return (
        len(env.elements) == count_upsets(dims)
        and len(images) == len(env.elements)
        and images == set(all_upsets(product))
    )

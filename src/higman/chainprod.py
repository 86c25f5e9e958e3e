"""Up-sets of finite chain products and the explicit isomorphism that embeds
an envelope into them.

Final segments of a product of chains n_0 x ... x n_{k-1} are antichains of
minimal tuples. The map phi sends envelope elements to such up-sets by
intersecting tuple-tagged residuals, read as the envelope's column masks;
psi maps up-sets back by intersecting segments generated by generator
prefixes. For generators of one common length with pairwise disjoint
downsets, phi is a bijection onto all up-sets.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

from .words import Frozen, Word, embeds, max_embeddable_prefix, max_embeddable_suffix
from .segments import FinalSegment, canonicalize, full_segment, intersect
from .automata import closure
from .envelope import EnvelopeLattice, build_envelope
from .minmax import CapExceeded


class ChainProduct(Frozen):
    """The componentwise-ordered grid of tuples x with 0 <= x_i <= n_i - 1."""

    _fields = ("dims",)

    def __init__(self, dims: tuple):
        dims = tuple(dims)
        if not dims or any(not isinstance(n, int) or n < 1 for n in dims):
            raise ValueError("chain product needs positive integer dimensions")
        object.__setattr__(self, "dims", dims)

    @property
    def points(self) -> tuple:
        return tuple(iter_product(*[range(n) for n in self.dims]))


class UpSet(Frozen):
    """Up-set of a chain product, held as its antichain of minimal tuples."""

    _fields = ("product", "mintuples")

    def __init__(self, product: ChainProduct, mintuples: tuple):
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "mintuples", mintuples)


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


def _upset_masks(product: ChainProduct) -> tuple[tuple, list[int]]:
    """The points of the product and every up-set as a mask over them, in
    increasing order. An up-set grows by any point whose strict up-set it
    already holds, and every up-set is reached so from the empty one, its
    points added largest first: so the up-sets are the closure of the empty
    mask under that step."""
    if math.prod(product.dims) > 20:
        raise CapExceeded("chain product too large to enumerate")
    points = product.points
    above = [
        sum(1 << j for j, q in enumerate(points) if q != p and _dominates(q, p))
        for p in points
    ]

    def grow(mask):
        return [
            mask | 1 << i
            for i, up in enumerate(above)
            if not mask >> i & 1 and not up & ~mask
        ]

    return points, sorted(closure([0], grow))


def count_upsets(dims) -> int:
    """Number of up-sets of the chain product, enumerated by _upset_masks.

    For two chains this equals the lattice-path count binomial(n0 + n1, n0):
    an up-set of n0 x n1 is a monotone staircase.
    """
    return len(_upset_masks(ChainProduct(tuple(dims)))[1])


def all_upsets(product: ChainProduct) -> list[UpSet]:
    """Every up-set, in increasing bitmask order of membership over
    product.points."""
    points, masks = _upset_masks(product)
    return [
        up_set(product, [p for i, p in enumerate(points) if mask >> i & 1])
        for mask in masks
    ]


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


def _residual_tuples(env: EnvelopeLattice, generators: tuple) -> list:
    """All achievable pairs (column of the right residual of F by v,
    tuple_of_word(v)), with F = env.y and columns from env.context.

    Breadth search by prepending letters: the column steps by pre_a, since
    F/(av) = (F/v)/a, and each greedy suffix match advances by at most one.
    """
    A = env.alphabet
    dims = tuple(len(u.symbols) for u in generators)

    def step(state):
        E, sigma = state
        for a in A.letters:
            yield env.context.pre(a, E), tuple(
                s + 1 if s < n and A.leq(u.symbols[n - 1 - s], a) else s
                for s, n, u in zip(sigma, dims, generators)
            )

    seen = closure([(env.extent[env.y], (0,) * len(generators))], step)
    return [(E, tuple(n - s for s, n in zip(sigma, dims))) for E, sigma in seen]


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


def phi(env: EnvelopeLattice, X: FinalSegment) -> UpSet:
    """Image of an envelope element in the up-set lattice of the chain
    product of the lengths of env.y's generators.

    Intersects tau over all column-tagged tuples whose residual contains X,
    that is, whose column holds the extent of X; tau depends on a word only
    through its tuple, so ranging over columns covers all words.
    """
    gens = env.y.basis
    if not gens or any(not u.symbols for u in gens):
        raise ValueError("phi needs nonempty generator words")
    if X not in env.extent:
        raise ValueError("phi argument must be an envelope element")
    E_X = env.extent[X]
    product = ChainProduct(tuple(len(u.symbols) for u in gens))
    result = full_up_set(product)
    for E, t in _residual_tuples(env, gens):
        if E_X & E == E_X:
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

"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately written from the definitions, sharing no
algorithmic ideas with the package (exhaustive embedding search instead of
greedy matching, pointwise set evaluation instead of basis calculus,
subset enumeration instead of bitmask filters, removing every state instead
of testing one path's, Words written letter by letter instead of code strings
through one table).
"""

from itertools import combinations, permutations, product

from higman.words import Word, sort_key


def embeds_exhaustive(u: Word, v: Word) -> bool:
    """Search all strictly increasing position maps."""
    A = u.alphabet
    n, m = len(u.symbols), len(v.symbols)
    if n > m:
        return False
    for positions in combinations(range(m), n):
        if all(A.leq(u.symbols[i], v.symbols[p]) for i, p in enumerate(positions)):
            return True
    return False


def words_upto(alphabet, n: int) -> list[Word]:
    """All words of length <= n, in canonical order."""
    out = []
    for k in range(n + 1):
        for syms in product(alphabet.letters, repeat=k):
            out.append(Word(alphabet, syms))
    return sorted(out, key=sort_key)


def member(generators, w: Word) -> bool:
    """w lies above some generator (exhaustive embedding)."""
    return any(embeds_exhaustive(u, w) for u in generators)


def concat_member(gens_f, gens_g, w: Word) -> bool:
    """w splits as a member of ↑gens_f times a member of ↑gens_g."""
    A = w.alphabet
    for i in range(len(w.symbols) + 1):
        if member(gens_f, Word(A, w.symbols[:i])) and member(
            gens_g, Word(A, w.symbols[i:])
        ):
            return True
    return False


def grid_points(dims):
    return sorted(product(*(range(n) for n in dims)))


def upset_count_oracle(dims) -> int:
    """Count up-closed subsets of the chain product by subset enumeration."""
    points = grid_points(dims)
    above = {
        p: [q for q in points if all(x <= y for x, y in zip(p, q))]
        for p in points
    }
    count = 0
    for r in range(len(points) + 1):
        for sub in combinations(points, r):
            s = set(sub)
            if all(q in s for p in s for q in above[p]):
                count += 1
    return count


def antichain_count_oracle(dims) -> int:
    """Count antichains of the chain product; equals the up-set count."""
    points = grid_points(dims)

    def below(p, q):
        return p != q and all(x <= y for x, y in zip(p, q))

    count = 0
    for r in range(len(points) + 1):
        for sub in combinations(points, r):
            if not any(below(p, q) or below(q, p) for p, q in combinations(sub, 2)):
                count += 1
    return count


def is_isomorphism(aut1, aut2, f: dict) -> bool:
    """f is a bijection of states carrying transitions, initial and final
    states of aut1 exactly onto those of aut2."""
    ts1, ts2 = aut1.system, aut2.system
    return (
        set(f) == set(ts1.states)
        and sorted(f.values(), key=repr) == sorted(ts2.states, key=repr)
        and {(f[p], a, f[q]) for p, a, q in ts1.transitions} == set(ts2.transitions)
        and {f[q] for q in aut1.initial} == set(aut2.initial)
        and {f[q] for q in aut1.final} == set(aut2.final)
    )


def isomorphic_oracle(aut1, aut2) -> bool:
    """Try every bijection between the two state tuples."""
    states1, states2 = aut1.system.states, aut2.system.states
    if len(states1) != len(states2):
        return False
    return any(
        is_isomorphism(aut1, aut2, dict(zip(states1, image)))
        for image in permutations(states2)
    )


def separating_word_oracle(dfa, s, t, bound: int):
    """The first word, by length and then letter by letter in alphabet
    order, that the DFA accepts from s and rejects from t; None if no word
    of length <= bound does."""
    A = dfa.alphabet

    def accepted_from(q, syms):
        for a in syms:
            q = dfa.delta[(q, a)]
        return q in dfa.accepting

    for k in range(bound + 1):
        for syms in product(A.letters, repeat=k):
            if accepted_from(s, syms) and not accepted_from(t, syms):
                return Word(A, syms)
    return None


def included(P, Q) -> bool:
    """P ⊆ Q: every basis word of P lies above a basis word of Q."""
    return all(member(Q.basis, u) for u in P.basis)


def covers_oracle(elements) -> set:
    """The pairs (C, P) with C strictly inside P and no element strictly
    between them, from pairwise inclusion."""
    inside = {
        (C, P) for C in elements for P in elements if C != P and included(C, P)
    }
    return {
        (C, P)
        for C, P in inside
        if not any((C, R) in inside and (R, P) in inside for R in elements)
    }


def is_chain_oracle(elements) -> bool:
    """Every two elements are comparable under inclusion."""
    return all(included(P, Q) or included(Q, P) for P, Q in combinations(elements, 2))


def has_proper_isometric_self_map(points, d) -> bool:
    """Try all n^n self-maps for one that keeps every distance d[(p, q)]
    and misses a point."""
    for image in product(points, repeat=len(points)):
        f = dict(zip(points, image))
        if len(set(image)) < len(points) and all(
            d[(f[p], f[q])] == d[(p, q)] for p in points for q in points
        ):
            return True
    return False


def is_reflexive_involutive_oracle(ts) -> bool:
    """The three saturation rules written out: a loop on every letter at
    every state, the reversal (q, bar a, p) of every (p, a, q), and
    (p, b, q) for every (p, a, q) and a <= b."""
    A = ts.alphabet
    T = ts.transitions
    for q in ts.states:
        for a in A.letters:
            if (q, a, q) not in T:
                return False
    for p, a, q in T:
        if (q, A.bar(a), p) not in T:
            return False
        for b in A.letters:
            if A.leq(a, b) and (p, b, q) not in T:
                return False
    return True


def saturate_oracle(ts) -> frozenset:
    """The transitions of ts with every loop, closed under reversal
    (q, bar a, p) and letter up-closure (p, b, q) for a <= b by applying
    both rules until nothing changes."""
    A = ts.alphabet
    T = set(ts.transitions) | {(q, a, q) for q in ts.states for a in A.letters}
    while True:
        implied = {(q, A.bar(a), p) for p, a, q in T} | {
            (p, b, q) for p, a, q in T for b in A.letters if A.leq(a, b)
        }
        if implied <= T:
            return frozenset(T)
        T |= implied


def undirected_distances(ts, x, removed=frozenset()) -> dict:
    """The distance from x of each state reachable from it in the undirected
    graph of ts's transitions with the removed states taken out, layer by
    layer from plain sets."""
    adj = {q: set() for q in ts.states}
    for p, _, q in ts.transitions:
        adj[p].add(q)
        adj[q].add(p)
    dist, layer, d = {x: 0}, {x}, 0
    while layer:
        d += 1
        layer = {q for p in layer for q in adj[p]} - removed - dist.keys()
        dist.update(dict.fromkeys(layer, d))
    return dist


def cut_states_oracle(ts, x, y) -> list:
    """The states other than x, y whose removal disconnects x from y in the
    undirected graph of ts's transitions, sorted by their distance from x:
    every state is removed in turn and the rest searched."""
    if x == y:
        return []
    dist = undirected_distances(ts, x)
    if y not in dist:
        raise ValueError("x and y are not connected")
    cuts = [
        z
        for z in ts.states
        if z not in (x, y) and y not in undirected_distances(ts, x, {z})
    ]
    return sorted(cuts, key=dist.__getitem__)


def format_segment_oracle(F) -> str:
    """F as the listings write it, from the Words of its basis: ∅, A*, ↑u or
    ↑{u,v,...}, each letter longer than one character in brackets."""
    words = ["".join(a if len(a) == 1 else f"[{a}]" for a in w.symbols) for w in F.basis]
    if not words:
        return "∅"
    if words == [""]:
        return "A*"
    return "↑" + words[0] if len(words) == 1 else "↑{" + ",".join(words) + "}"

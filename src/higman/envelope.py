"""Injective envelope of the two-point space {x, y} with d(x, y) = F.

The envelope S_F is the concept lattice of a Galois context whose objects
are the left quotients u^-1 F, the states of F's minimal automaton, walked
once on code strings by automata._quotients. A word u lies in the right
residual F/w exactly when w lies in u^-1 F, so each residual is a set of
objects, its column; an element is its extent, an AND of columns, and
inclusion is bit inclusion. Every object is the quotient of some word, so
distinct extents are distinct segments, and the segment of an extent E is
{u : u^-1 F in E}, the language of that automaton with E as its accepting
set. The build keeps the set of extents on masks; the covers, and the
segments that display, export and the distances read, are views built on
first access. F alone determines the envelope, so an envelope compares,
hashes and prints as its y. The transition system over single letters is
an acceptor of F. The distance between two elements is algebraic: d(P, Q)
holds the words w with P.up(w) inside Q and Q.up(bar w) inside P. It
equals the language of paths P -> Q in the transition system, which
`higman verify` checks one row per walk and the tests with accepted_basis.
The morphism from minimal_dfa(F) into the envelope, sums of pointed spaces
and concatenation decomposition live here too.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from functools import cached_property, lru_cache, reduce
from operator import and_, or_

from .words import Alphabet, Frozen, Value, _decode
from .segments import (
    MEMO_SIZE,
    FinalSegment,
    _in,
    _left_residual,
    _sorted,
    concat_seg,
    full_segment,
    intersect,
    involute_seg,
    is_empty,
    is_full,
    seg_keys,
)
from .automata import (
    Automaton,
    TransitionSystem,
    _image,
    _quotients,
    articulation_states,
    closure,
    find_bijection,
)


class GaloisContext(namedtuple("GaloisContext", "states succ preds columns")):
    """The Galois context of F on its left quotients u^-1 F, the states of
    its minimal automaton, numbered breadth-first from F as in minimal_dfa(F).
    succ[a][i] is the position of a^-1 states[i], and preds[a][j] the mask of
    the i with succ[a][i] = j; both come from automata._quotients. columns
    holds the column of each right residual F/w, the mask of the quotients
    holding w, in breadth-first order from the accepting mask, the column of
    F = F/ε. Every quotient is reached, so distinct residuals have distinct
    columns and inclusion of residuals is inclusion of columns; _forms reads
    a column's residual back as the segment of its mask."""

    __slots__ = ()

    def pre(self, a: str, E: int) -> int:
        """{L : delta(L, a) in E} on masks, an OR of predecessor masks. Each L
        has one a-successor, so pre_a of a complement is the complement of
        pre_a: an E holding over half the states is read through its own."""
        k = len(self.states)
        flip = (1 << k) - 1 if 2 * E.bit_count() > k else 0
        return flip ^ _image(self.preds[a], E ^ flip)


class EnvelopeLattice(Frozen):
    """The envelope as a lattice of final segments plus its transition system.

    Its core is the set of extents on masks: context is galois_context(y),
    and extents the ANDs of its columns; len() counts them. Every other
    field is a view of that core, built on first read and kept: extent maps
    each element to its mask, in seg_keys order, and elements are its keys,
    the extents' segments, closed under pairwise intersection and holding
    both base points x = A* and y = F; _below maps each extent to its lower
    covers, which cover_count() counts on the masks, and hasse holds them as
    pairs (lower, upper) of elements. The reflexive-involutive system on the
    elements holds (P, a, Q) iff P.up(a) lies inside Q and Q.up(bar a) inside
    P; transition_system() reads its successor masks off the extents, and
    t_f, its triples, is a view of them. The envelope of F is unique up to an
    isometry fixing x and y, so y is its value: equality and repr read y
    alone, and the hash, which dist's cache key needs, is hash(y), y's
    identity since segments are interned. None of them reads a form or a
    cover."""

    _fields = ("y",)

    def __init__(self, context: GaloisContext, y: FinalSegment, extents: frozenset):
        A = y.alphabet
        vars(self).update(
            alphabet=A,
            x=full_segment(A),
            y=y,
            context=context,
            extents=extents,
        )

    @cached_property
    def extent(self) -> dict:
        """Each extent's segment from _forms, sorted by seg_keys, to its mask."""
        segment_of = _forms(self.context, self.extents)
        key = dict(zip(segment_of, seg_keys(segment_of.values())))
        return {segment_of[E]: E for E in sorted(segment_of, key=key.__getitem__)}

    @cached_property
    def elements(self) -> tuple:
        return tuple(self.extent)

    @cached_property
    def _below(self) -> dict:
        """Each extent's lower covers. A lower cover M of E is the AND of the
        columns holding it, one of which misses E (else E ⊆ M): so M is E ∧ C
        for a column C not above E, and a largest such meet."""
        columns = self.context.columns
        return {E: _largest({E & C for C in columns if E & ~C}) for E in self.extents}

    @cached_property
    def hasse(self) -> frozenset:
        segment_of = {E: P for P, E in self.extent.items()}
        return frozenset(
            (segment_of[M], segment_of[E])
            for E, lower in self._below.items()
            for M in lower
        )

    @cached_property
    def _system(self) -> TransitionSystem:
        return _successor_system(self)

    def __hash__(self):
        return hash(self.y)

    def __len__(self):
        """The number of elements, counted on the masks."""
        return len(self.extents)

    def cover_count(self) -> int:
        """The number of covers, computed on the masks on first call."""
        return sum(map(len, self._below.values()))

    @property
    def t_f(self) -> frozenset:
        return self.transition_system().transitions

    def transition_system(self) -> TransitionSystem:
        return self._system

    def automaton(self) -> Automaton:
        return Automaton(
            self.transition_system(), frozenset({self.x}), frozenset({self.y})
        )


def galois_context(F: FinalSegment) -> GaloisContext:
    """The Galois context of F on its left quotients, with succ and preds
    read off the rows of automata._quotients. Its columns are the closure of
    the accepting mask under pre, breadth-first by single letters: the column
    of F/(aw) = (F/w)/a is pre_a of the column of F/w, since a quotient holds
    aw exactly when its a-successor holds w."""
    A = F.alphabet
    states, rows = _quotients(F)
    succ = dict(zip(A.letters, zip(*rows)))
    preds = {a: [0] * len(states) for a in A.letters}
    for a, row in succ.items():
        for i, j in enumerate(row):
            preds[a][j] |= 1 << i
    context = GaloisContext(states, succ, preds, ())
    accepting = sum(1 << i for i, L in enumerate(states) if is_full(L))
    columns = closure([accepting], lambda E: [context.pre(a, E) for a in A.letters])
    return context._replace(columns=tuple(columns))


def residual_closure(F: FinalSegment) -> set[FinalSegment]:
    """Least set containing F closed under right residuals by single letters:
    the columns of galois_context(F), each read back as its residual by _forms.

    Iterating single letters reaches every right residual of F, and the
    residuals of a final segment form a finite set.
    """
    if is_empty(F):
        raise ValueError("the empty segment has no residual closure")
    context = galois_context(F)
    return set(_forms(context, context.columns).values())


@lru_cache(maxsize=MEMO_SIZE)
def build_envelope(F: FinalSegment) -> EnvelopeLattice:
    """The envelope of F, built on the bitmasks of galois_context(F).

    The extents are the columns closed under "AND with a column"; all ones is
    x = A* and the accepting mask is y = F. The build keeps the context and
    this set of extents, and reads no form, no cover and no transition: the
    elements, covers and extent map, and the system's successor masks, are
    views of the masks (see EnvelopeLattice). The automaton from x = A* to
    y = F accepts exactly F; `higman verify` and the tests check that with
    language_equals_segment.
    """
    if is_empty(F):
        raise ValueError("the empty segment has no envelope")
    context = galois_context(F)
    columns = context.columns
    # all ones is a column: A* = F/w for any w in F; every AND of columns is
    # reached one column at a time
    extents = closure(columns, lambda E: {E & C for C in columns})
    return EnvelopeLattice(context, F, frozenset(extents))


def _successor_system(env: EnvelopeLattice) -> TransitionSystem:
    """The transition system of env as successor masks, bit j standing for
    env.elements[j]. (P, a, Q) is a transition iff E_P lies inside pre_a(E_Q)
    and E_Q inside pre_{bar a}(E_P), so each successor mask is an AND and an
    OR of the masks of the elements holding each object."""
    A, context = env.alphabet, env.context
    succ, pre = context.succ, context.pre
    order = [env.extent[P] for P in env.elements]
    # Bit j of holds[o] says order[j] holds object o. Q is an a-successor of
    # P iff Q holds delta(o, a) for each o in E_P (there is one: all hold A*)
    # and holds no object outside pre_{bar a}(E_P).
    k = len(context.states)
    holds = [sum(1 << j for j, E in enumerate(order) if E >> o & 1) for o in range(k)]
    objects = (1 << k) - 1

    def successors(a, E):
        row, up = succ[a], -1
        out = _image(holds, objects & ~pre(A.bar(a), E))
        while E:
            low = E & -E
            up &= holds[row[low.bit_length() - 1]]
            E ^= low
        return up & ~out

    rows = {a: [successors(a, E) for E in order] for a in A.letters}
    return TransitionSystem._from_rows(A, env.elements, rows)


def _forms(context: GaloisContext, extents) -> dict:
    """{E: the final segment {u : delta(F, u) in E}} for the given masks, in
    their order, each read off the context's automaton with E accepting.
    This is the package's one reader from a mask to its segment: an extent
    gets its element, and a column C gets its residual F/w, since u lies in
    F/w exactly when delta(F, u) holds w, that is, lies in C.

    A quotient's a-successor holds it, since w embeds in aw; if the two
    differ, some w lies in the successor alone, so more columns hold the
    successor than hold the quotient: every column holding the quotient, and
    the column of w. Sorted by how many columns hold them, most first, the
    states come successors-first: the automaton has no cycle but its loops,
    and states that tie have no edge between them. The basis of the words
    taking a state q into E is then {ε} when q lies in E, and otherwise the
    minimal words a·v over the letters a with delta(q, a) != q and the v in
    the basis from delta(q, a). A word below a·v in one step drops a (v),
    lowers a to some b < a (b·v), or steps below v, which leaves the basis
    from delta(q, a): so a·v is minimal iff neither v nor any b·v takes q
    into E. The states q reaches are all that this reads of E, so one pass
    over the states in that order fills one table per state, from the mask
    E & reach(q) to the basis, a list of code strings with letter i written
    as chr(i). Each state gets one basis per distinct mask among the
    extents, and reads its successors' tables. Each form is the live segment
    of its code strings, sorted into its codes; no Word is built.
    """
    states, succ, columns = context.states, context.succ, context.columns
    A = states[0].alphabet
    delta = [
        {chr(i): succ[a][q] for i, a in enumerate(A.letters)} for q in range(len(states))
    ]
    lower = {
        chr(i): [chr(j) for j, b in enumerate(A.letters) if b != a and A.leq(b, a)]
        for i, a in enumerate(A.letters)
    }
    edges = [[(c, r) for c, r in row.items() if r != q] for q, row in enumerate(delta)]
    order = sorted(range(len(states)), key=lambda q: -sum(C >> q & 1 for C in columns))
    reach = [0] * len(states)
    for q in order:
        reach[q] = reduce(or_, (reach[r] for _, r in edges[q]), 1 << q)

    extents = list(extents)
    table = [None] * len(states)
    # each word is kept once, however many bases hold it
    words = {}

    def into(p, v, m):
        for c in v:
            p = delta[p][c]
        return m >> p & 1

    for q in order:
        # E holds the successors of its states, so E & reach(q) = reach(q)
        # exactly when q lies in E
        row = table[q] = {reach[q]: [""]}
        for m in {E & reach[q] for E in extents}:
            if m in row:
                continue
            # reach(r) lies in reach(q), so m & reach(r) = E & reach(r)
            found = [
                c + v
                for c, r in edges[q]
                for v in table[r][m & reach[r]]
                if not into(q, v, m)
                and not (lower[c] and any(into(delta[q][b], v, m) for b in lower[c]))
            ]
            row[m] = [words.setdefault(w, w) for w in found]
    return {
        E: _sorted(A, table[0][E & reach[0]])
        for E in extents
    }


def _largest(masks) -> list:
    """The masks inside no other, most bits first. A mask inside another lies
    inside a largest one, which has more bits: so, largest first, each is
    tested only against those kept, and kept if it is inside none."""
    kept = []
    for M in sorted(masks, key=int.bit_count, reverse=True):
        for K in kept:
            if M & K == M:
                break
        else:
            kept.append(M)
    return kept


def min_dfa_morphism(F: FinalSegment, env: EnvelopeLattice | None = None) -> dict:
    """Map each state of minimal_dfa(F), a left quotient L, to its object
    concept in the envelope env of F (build_envelope(F) by default): the
    element whose extent is the AND of the columns holding L.

    It is the intersection of the right residuals of F by the words of L.
    The map sends the start state F to x = A*, the accepting state A* to
    y = F, and every transition (L, a, a^-1 L) to a transition of env; all
    three are checked here. Each image is tested against the set of extents,
    and each image edge (P, a, Q) on the masks, with no system built:
    E_P ⊆ pre_a(E_Q), that is delta_a(E_P) ⊆ E_Q, and E_Q ⊆ pre_{bar a}(E_P).
    _forms then reads only the images' forms, so the element views are not
    built.
    """
    if is_empty(F):
        raise ValueError("no morphism for the empty segment")
    env = build_envelope(F) if env is None else env
    if env.y != F:
        raise ValueError("the envelope was built for another segment")
    A, context = F.alphabet, env.context
    objects = []
    for i, L in enumerate(context.states):
        M = reduce(and_, (C for C in context.columns if C >> i & 1))
        if M not in env.extents:
            raise RuntimeError(f"morphism image of {L!r} is not an envelope element")
        objects.append(M)
    for a, row in context.succ.items():
        for P, j in zip(objects, row):
            Q = objects[j]
            if P & ~context.pre(a, Q) or Q & ~context.pre(A.bar(a), P):
                raise RuntimeError("morphism transition missing from envelope system")
    form = _forms(context, objects)
    image = {L: form[M] for L, M in zip(context.states, objects)}
    if image[F] != env.x or image[full_segment(A)] != env.y:
        raise RuntimeError("morphism does not send start to x and accepting to y")
    return image


@lru_cache(maxsize=MEMO_SIZE)
def dist(env: EnvelopeLattice, P: FinalSegment, Q: FinalSegment) -> FinalSegment:
    """Distance between two envelope elements: algebra_distance(P, Q). It is
    the language of paths P -> Q in the transition system, which `higman
    verify` compares with the row of P in one walk and the tests read with
    accepted_basis."""
    if P not in env.extent or Q not in env.extent:
        raise ValueError("dist arguments must be envelope elements")
    return algebra_distance(P, Q)


@lru_cache(maxsize=MEMO_SIZE)
def algebra_distance(p: FinalSegment, q: FinalSegment) -> FinalSegment:
    """The words w with p.up(w) inside q and q.up(bar w) inside p.

    Purely algebraic: an intersection of left residuals, usable on arbitrary
    nonempty segments (not only envelope elements).
    """
    A = p.alphabet
    forward = reduce(
        intersect, (_left_residual(u, q) for u in p.codes), full_segment(A)
    )
    backward = reduce(
        intersect, (_left_residual(s, p) for s in q.codes), full_segment(A)
    )
    return intersect(forward, involute_seg(backward))


def metric_form_pair(env: EnvelopeLattice, P: FinalSegment):
    """The pair (d(x, P), d(y, P)) identifying P inside the envelope."""
    return dist(env, env.x, P), dist(env, env.y, P)


class PointedSpace(Value):
    """A finite metric space over segments with two distinguished points.
    It is mutable and unhashable; equality compares every field."""

    _fields = ("alphabet", "points", "d", "x", "y")
    __hash__ = None

    def __init__(self, alphabet: Alphabet, points: tuple, d: dict, x, y):
        self.alphabet = alphabet
        self.points = points
        self.d = d
        self.x = x
        self.y = y


def as_pointed(env: EnvelopeLattice) -> PointedSpace:
    table = {(P, Q): dist(env, P, Q) for P in env.elements for Q in env.elements}
    return PointedSpace(env.alphabet, env.elements, table, env.x, env.y)


def _pointed(space) -> PointedSpace:
    return space if isinstance(space, PointedSpace) else as_pointed(space)


def _by_distance(dists) -> dict:
    """{distance: mask of the positions at that distance}."""
    groups = defaultdict(int)
    for i, D in enumerate(dists):
        groups[D] |= 1 << i
    return groups


def check_convexity(space) -> tuple[bool, list]:
    """Every split of every distance word admits a midpoint.

    For each pair (P, Q), each basis word w of d(P, Q) and each split
    w = u v there must be a point Z with u in d(P, Z) and v in d(Z, Q).
    Returns the offending (P, Q, u, v) quadruples when there are none such Z,
    by pair in point order, then by basis word, then by cut. The points Z
    with u in d(P, Z) form one mask per (P, u), those with v in d(Z, Q) one
    mask per (v, Q), and a split has a midpoint iff they meet. A row d(P, .)
    or a column d(., Q) repeats few distances, so each is grouped once into
    {distance: mask of points}, and a mask is the OR of the groups whose
    distance holds the word. Rows and columns share their distances, so
    whether a distance holds a word is kept in a table for the call and
    tested once: on {aaa,bbb}, 420 tests where one per group took 5,416.
    Splits are code strings; only witnesses are made Words.

    An envelope argument costs a full as_pointed, which builds the whole
    distance table through dist; past sqrt(MEMO_SIZE) elements, 256, dist's
    cache keeps none of that table between calls. Checks of one envelope
    should share one as_pointed(env).
    """
    s = _pointed(space)
    A, points = s.alphabet, s.points
    rows = {P: _by_distance(s.d[(P, Z)] for Z in points) for P in points}
    cols = {Q: _by_distance(s.d[(Z, Q)] for Z in points) for Q in points}
    held = {}

    def holding(groups, w):
        # the mask of the positions whose distance holds w
        mask = 0
        for D, group in groups.items():
            found = held.get((D, w))
            if found is None:
                found = held[D, w] = _in(D, w)
            if found:
                mask |= group
        return mask

    starts, ends = {}, {}
    witnesses = []
    for P in points:
        for Q in points:
            for w in s.d[(P, Q)].codes:
                for cut in range(len(w) + 1):
                    u, v = w[:cut], w[cut:]
                    if (P, u) not in starts:
                        starts[P, u] = holding(rows[P], u)
                    if (v, Q) not in ends:
                        ends[v, Q] = holding(cols[Q], v)
                    if not starts[P, u] & ends[v, Q]:
                        witnesses.append((P, Q, _decode(A, u), _decode(A, v)))
    return not witnesses, witnesses


def no_proper_isometric_subspace(space) -> bool:
    """No distance-preserving map of the space into a proper subset exists.

    Such a map merges two points p and r, which then have equal distances to
    and from every point: they are twins. Conversely, moving r onto a twin p
    and fixing the rest preserves distances. So the test is whether the
    (row, column) distance profiles tell all points apart; columns count too,
    since a general pointed space need not be symmetric under the involution.
    As in check_convexity, an envelope argument costs a full as_pointed;
    checks of one envelope should share one as_pointed(env).
    """
    s = _pointed(space)
    profiles = {
        (tuple(s.d[(p, z)] for z in s.points), tuple(s.d[(z, p)] for z in s.points))
        for p in s.points
    }
    return len(profiles) == len(s.points)


def concat_pointed(E1: PointedSpace, E2: PointedSpace) -> PointedSpace:
    """Glue two pointed spaces by identifying y of the first with x of the
    second; cross distances are concatenations through the glue point.
    """
    if E1.alphabet != E2.alphabet:
        raise ValueError("pointed spaces over different alphabets")
    A = E1.alphabet
    left = [("l", p) for p in E1.points if p != E1.y]
    right = [("r", q) for q in E2.points if q != E2.x]
    glue = ("g",)
    points = tuple(left + [glue] + right)
    d = {}
    for lp in left + [glue]:
        p = E1.y if lp == glue else lp[1]
        for lq in left + [glue]:
            q = E1.y if lq == glue else lq[1]
            d[(lp, lq)] = E1.d[(p, q)]
    for rp in [glue] + right:
        p = E2.x if rp == glue else rp[1]
        for rq in [glue] + right:
            q = E2.x if rq == glue else rq[1]
            d[(rp, rq)] = E2.d[(p, q)]
    for lp in left:
        for rq in right:
            d[(lp, rq)] = concat_seg(E1.d[(lp[1], E1.y)], E2.d[(E2.x, rq[1])])
            d[(rq, lp)] = concat_seg(E2.d[(rq[1], E2.x)], E1.d[(E1.y, lp[1])])
    x = glue if E1.x == E1.y else ("l", E1.x)
    y = glue if E2.y == E2.x else ("r", E2.y)
    return PointedSpace(A, points, d, x, y)


def pointed_isometric(s1: PointedSpace, s2: PointedSpace) -> tuple[bool, dict | None]:
    """Distance-preserving bijection sending x to x and y to y, if any."""
    if len(s1.points) != len(s2.points):
        return False, None
    if (s1.x == s1.y) != (s2.x == s2.y):
        return False, None
    pts1 = list(s1.points)
    pts1.sort(key=lambda p: (p != s1.x, p != s1.y))
    forced = {s1.x: s2.x, s1.y: s2.y}
    candidates = {p: [forced[p]] if p in forced else s2.points for p in pts1}
    d1, d2 = s1.d, s2.d

    def fits(p, q, mapping):
        # every pair of assignments, p -> q with itself included, keeps both
        # distances
        return all(
            d1[(p, r)] == d2[(q, s)] and d1[(r, p)] == d2[(s, q)]
            for r, s in [(p, q), *mapping.items()]
        )

    mapping = find_bijection(pts1, candidates, fits)
    return mapping is not None, mapping


def verify_sum_theorem(F1: FinalSegment, F2: FinalSegment) -> bool:
    """The envelope of F1 F2 is the glued sum of the envelopes of F1 and F2."""
    if is_empty(F1) or is_empty(F2):
        raise ValueError("sum theorem needs nonempty factors")
    direct = as_pointed(build_envelope(concat_seg(F1, F2)))
    glued = concat_pointed(
        as_pointed(build_envelope(F1)), as_pointed(build_envelope(F2))
    )
    ok, _ = pointed_isometric(direct, glued)
    return ok


def decompose(F: FinalSegment) -> list[FinalSegment]:
    """Factor F as a concatenation of irreducible final segments.

    The factor boundaries are the states of the envelope system that
    disconnect x from y; consecutive-state distances are the factors. The
    product is re-checked against F, and each factor of a proper split against
    irreducibility: with no cut the one factor is F, whose walk just ran.
    """
    if is_empty(F):
        raise ValueError("the empty segment has no decomposition")
    A = F.alphabet
    if is_full(F):
        return []
    env = build_envelope(F)
    cuts = articulation_states(env.transition_system(), env.x, env.y)
    chain = [env.x] + cuts + [env.y]
    factors = [dist(env, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    product = reduce(concat_seg, factors, full_segment(A))
    if product != F:
        raise RuntimeError("decomposition factors do not multiply back to F")
    if cuts:
        for G in factors:
            sub = build_envelope(G)
            if articulation_states(sub.transition_system(), sub.x, sub.y):
                raise RuntimeError("decomposition factor admits a further cut")
    return factors

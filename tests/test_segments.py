"""Canonical bases and the segment algebra, pinned values and laws."""

import copy
import gc
import pickle
import random
import sys
from itertools import combinations

import pytest

from higman import segments
from higman.segments import (
    FinalSegment,
    canonicalize,
    concat_seg,
    contains,
    empty_segment,
    format_segment,
    full_segment,
    intersect,
    involute_seg,
    is_empty,
    is_full,
    left_residual,
    leq,
    product_in,
    right_residual,
    seg_keys,
    segment,
    subset_of,
    union,
)
from higman import words
from higman.envelope import (
    _forms,
    algebra_distance,
    as_pointed,
    build_envelope,
    check_convexity,
)
from higman.words import Alphabet, Word, _encode, concat, embeds, involute, sort_key

from helpers import (
    ab,
    ab_ordered,
    abc,
    abc_primed,
    clear_caches,
    nonempty_words,
    output_under_another_hash_seed,
    regression_bases,
    regression_envelopes,
)
from oracles import (
    concat_member,
    embeds_exhaustive,
    format_segment_oracle,
    included,
    member,
    words_upto,
)


class TestCanonicalize:
    def test_drops_dominated(self):
        A = ab()
        F = segment(A, "aa", "aab")
        assert F.basis == (A.word("aa"),)

    def test_empty_word_wins(self):
        A = ab()
        F = segment(A, "", "bab")
        assert is_full(F)

    def test_keeps_antichain(self):
        A = ab()
        F = segment(A, "aa", "b")
        assert F.basis == (A.word("b"), A.word("aa"))


class TestContains:
    def test_examples(self):
        A = ab()
        F = segment(A, "aa", "bb")
        assert contains(F, A.word("abab"))
        assert not contains(F, A.word("ab"))
        assert contains(full_segment(A), A.word(""))
        assert not contains(empty_segment(A), A.word("ab"))


class TestLattice:
    def test_intersect_letters(self):
        A = ab()
        assert intersect(segment(A, "a"), segment(A, "b")) == segment(A, "ab", "ba")

    def test_intersect_middles(self):
        A = ab()
        got = intersect(segment(A, "b", "aa"), segment(A, "a", "bb"))
        assert got == segment(A, "ab", "ba", "aa", "bb")

    def test_union_with_empty(self):
        A = ab()
        F = segment(A, "ab")
        assert union(F, empty_segment(A)) == F

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError, match="different alphabets"):
            union(segment(ab(), "a"), segment(ab_ordered(), "a"))


class TestConcat:
    def test_generators(self):
        A = ab()
        assert concat_seg(segment(A, "a"), segment(A, "b")) == segment(A, "ab")
        assert concat_seg(segment(A, "a"), segment(A, "a")) == segment(A, "aa")

    def test_neutral_full(self):
        A = ab()
        F = segment(A, "ab", "ba")
        assert concat_seg(full_segment(A), F) == F
        assert concat_seg(F, full_segment(A)) == F

    def test_empty_absorbs(self):
        A = ab()
        F = segment(A, "ab")
        assert is_empty(concat_seg(F, empty_segment(A)))
        assert is_empty(concat_seg(empty_segment(A), F))


class TestResiduals:
    def test_right_examples(self):
        A = ab()
        F = segment(A, "aa", "bb")
        assert right_residual(F, A.word("b")) == segment(A, "b", "aa")
        assert right_residual(F, A.word("")) == F
        assert right_residual(segment(A, "ab"), A.word("b")) == segment(A, "a")

    def test_left_examples(self):
        A = ab()
        F = segment(A, "ab")
        assert left_residual(A.word("a"), F) == segment(A, "b")
        assert left_residual(A.word("b"), F) == F
        assert left_residual(A.word(""), F) == F

    def test_residual_of_empty(self):
        A = ab()
        assert is_empty(right_residual(empty_segment(A), A.word("a")))


class TestOrder:
    def test_examples(self):
        A = ab()
        F = segment(A, "aa", "bb")
        assert leq(full_segment(A), F)
        assert leq(segment(A, "a"), segment(A, "ab"))
        assert not leq(segment(A, "b", "aa"), segment(A, "a", "bb"))
        assert not leq(segment(A, "a", "bb"), segment(A, "b", "aa"))

    def test_subset_of(self):
        A = ab()
        assert subset_of(segment(A, "ab"), segment(A, "a"))
        assert not subset_of(segment(A, "a"), segment(A, "ab"))


class TestInvolution:
    def test_reversal(self):
        A = ab()
        assert involute_seg(segment(A, "ab")) == segment(A, "ba")
        assert involute_seg(segment(A, "aa", "bb")) == segment(A, "aa", "bb")

    def test_self_inverse(self):
        A = abc_primed()
        F = segment(A, "ab", "c")
        assert involute_seg(involute_seg(F)) == F

    def test_reverses_concatenation(self):
        A = abc_primed()
        F, G = segment(A, "ab"), segment(A, "c", "a[a']")
        assert involute_seg(concat_seg(F, G)) == concat_seg(
            involute_seg(G), involute_seg(F)
        )


class TestFormatting:
    def test_forms(self):
        A = ab()
        assert format_segment(empty_segment(A)) == "∅"
        assert format_segment(full_segment(A)) == "A*"
        assert format_segment(segment(A, "a")) == "↑a"
        assert format_segment(segment(A, "b", "aa")) == "↑{b,aa}"


def _random_basis(rng, pool, max_gens=3):
    return [rng.choice(pool) for _ in range(rng.randint(1, max_gens))]


@pytest.mark.parametrize("make", [ab, ab_ordered])
def test_oracle_equivalence_random_bases(make):
    """Membership after union/intersect/concat/residual agrees with direct
    set-theoretic evaluation on all words up to the oracle bound."""
    A = make()
    pool = nonempty_words(A, 3)
    universe = words_upto(A, 6)
    rng = random.Random(20260817)
    for _ in range(40):
        gens_f = _random_basis(rng, pool)
        gens_g = _random_basis(rng, pool)
        F, G = canonicalize(A, gens_f), canonicalize(A, gens_g)
        y = rng.choice(pool)
        U, I = union(F, G), intersect(F, G)
        C = concat_seg(F, G)
        R, L = right_residual(F, y), left_residual(y, F)
        for w in universe:
            fw, gw = member(gens_f, w), member(gens_g, w)
            assert contains(F, w) == fw
            assert contains(U, w) == (fw or gw)
            assert contains(I, w) == (fw and gw)
            assert contains(C, w) == concat_member(gens_f, gens_g, w)
            if len(w.symbols) + len(y.symbols) <= 6:
                assert contains(R, w) == member(gens_f, concat(w, y))
                assert contains(L, w) == member(gens_f, concat(y, w))


def test_residuation_law():
    """X applied to its residual falls back inside F, on both sides."""
    A = ab()
    pool = nonempty_words(A, 3)
    rng = random.Random(11)
    for _ in range(60):
        F = canonicalize(A, _random_basis(rng, pool))
        y = rng.choice(pool)
        R = right_residual(F, y)
        assert subset_of(concat_seg(R, segment(A, str(y))), F)
        L = left_residual(y, F)
        assert subset_of(concat_seg(segment(A, str(y)), L), F)


def test_residuation_and_involution_on_drawn_antichains():
    """F.up(w) lies inside G iff F lies inside G/w, and the involution
    reverses concatenation; every segment involved is also checked
    pointwise against the oracles on the words of up to 4 letters."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    antichain = st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=3)

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        st.sampled_from([ab(), ab_ordered()]),
        antichain,
        antichain,
        st.text("ab", max_size=3),
    )
    def check(A, f_texts, g_texts, w_text):
        F = canonicalize(A, [A.word(t) for t in f_texts])
        G = canonicalize(A, [A.word(t) for t in g_texts])
        w = A.word(w_text)
        Fw = concat_seg(F, canonicalize(A, [w]))
        Gw = right_residual(G, w)
        FG = concat_seg(F, G)
        assert subset_of(Fw, G) == subset_of(F, Gw) == included(Fw, G)
        assert subset_of(F, Gw) == included(F, Gw)
        assert involute_seg(FG) == concat_seg(involute_seg(G), involute_seg(F))
        for v in words_upto(A, 4):
            assert contains(Fw, v) == concat_member(F.basis, [w], v)
            assert contains(Gw, v) == member(G.basis, concat(v, w))
            assert contains(FG, v) == concat_member(F.basis, G.basis, v)
            assert contains(involute_seg(FG), v) == concat_member(
                F.basis, G.basis, involute(v)
            )

    check()


def test_lattice_laws_on_drawn_antichains():
    """union and intersect are commutative, associative, idempotent and
    absorptive, and each distributes over the other; subset_of is the order
    of the meet. Every segment is checked pointwise against oracles.member
    on the words of up to 4 letters."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    antichain = st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=3)

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        st.sampled_from([ab(), ab_ordered()]), antichain, antichain, antichain
    )
    def check(A, f_texts, g_texts, h_texts):
        gens = [[A.word(t) for t in texts] for texts in (f_texts, g_texts, h_texts)]
        F, G, H = (canonicalize(A, g) for g in gens)
        assert union(F, G) == union(G, F)
        assert intersect(F, G) == intersect(G, F)
        assert union(union(F, G), H) == union(F, union(G, H))
        assert intersect(intersect(F, G), H) == intersect(F, intersect(G, H))
        assert union(F, F) == F == intersect(F, F)
        assert union(F, intersect(F, G)) == F == intersect(F, union(F, G))
        assert intersect(F, union(G, H)) == union(intersect(F, G), intersect(F, H))
        assert union(F, intersect(G, H)) == intersect(union(F, G), union(F, H))
        assert subset_of(F, G) == (intersect(F, G) == F)
        join, meet = union(F, G), intersect(F, G)
        meet_of_join = intersect(F, union(G, H))
        join_of_meet = union(F, intersect(G, H))
        for v in words_upto(A, 4):
            f, g, h = (member(gen, v) for gen in gens)
            assert (contains(F, v), contains(G, v), contains(H, v)) == (f, g, h)
            assert contains(join, v) == (f or g)
            assert contains(meet, v) == (f and g)
            assert contains(meet_of_join, v) == (f and (g or h))
            assert contains(join_of_meet, v) == (f or (g and h))

    check()


def test_memoized_ops_agree_with_their_definitions_on_drawn_antichains():
    """intersect and concat_seg answer from a bounded cache: a first and a
    repeated call equal the uncached function, and operands over two
    alphabets raise on every call, since a raised call leaves no entry."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    antichain = st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=3)

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(st.booleans(), antichain, antichain)
    def check(swap, f_texts, g_texts):
        A, B = (ab_ordered(), ab()) if swap else (ab(), ab_ordered())
        F = canonicalize(A, [A.word(t) for t in f_texts])
        G = canonicalize(A, [A.word(t) for t in g_texts])
        G_other = canonicalize(B, [B.word(t) for t in g_texts])
        for op in (intersect, concat_seg):
            assert op(F, G) == op.__wrapped__(F, G) == op(F, G)
            for _ in range(2):
                with pytest.raises(ValueError, match="different alphabets"):
                    op(F, G_other)

    check()


def test_containment_kernel_agrees_with_the_oracle_on_drawn_bases():
    """contains, subset_of and product_in against exhaustive embedding of the
    drawn generators, over two and three letters and with a <= b; F.G lies
    inside F and inside G, so some inclusions drawn hold, and G.F tells the
    order of the factors apart."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    alphabets = [ab(), ab_ordered(), abc()]

    @hypothesis.settings(
        max_examples=80, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(st.data())
    def check(data):
        A = data.draw(st.sampled_from(alphabets))
        text = st.text("".join(A.letters), max_size=3)
        gens = [
            [A.word(t) for t in data.draw(st.lists(text, max_size=3))]
            for _ in range(3)
        ]
        F, G, H = (canonicalize(A, g) if g else empty_segment(A) for g in gens)
        f, g, h = gens
        for w in [A.word(t) for t in data.draw(st.lists(text, max_size=4))]:
            assert contains(F, w) == member(f, w)
        for (X, x), (Y, y) in [((F, f), (G, g)), ((G, g), (F, f)), ((F, f), (H, h))]:
            assert subset_of(X, Y) == all(member(y, u) for u in x)
        swapped = [concat(v, u) for v in g for u in f]
        for Z, z in [(H, h), (F, f), (G, g), (concat_seg(G, F), swapped)]:
            assert product_in(F, G, Z) == all(
                member(z, concat(u, v)) for u in f for v in g
            )

    check()


def _pairs_and_involution() -> Alphabet:
    """Four letters, a <= b and c <= d, with the involution a <-> c, b <-> d."""
    return Alphabet(
        ["a", "b", "c", "d"],
        order=[("a", "b"), ("c", "d")],
        involution={"a": "c", "b": "d"},
    )


def _incomparable(words) -> bool:
    return not any(
        embeds_exhaustive(u, v) or embeds_exhaustive(v, u)
        for u, v in combinations(words, 2)
    )


@pytest.mark.parametrize("make", [ab, ab_ordered, abc_primed, _pairs_and_involution])
def test_products_and_involutes_of_antichains_are_antichains(make):
    """concat_seg's basis is every product uv of the two bases, and
    involute_seg's every involute, each set pairwise incomparable by
    exhaustive embedding; the membership kernel _in agrees with
    oracles.member on the factors and on their product."""
    A = make()
    rng = random.Random(20261019)

    def drawn_word(min_len, max_len):
        return Word(A, tuple(rng.choices(A.letters, k=rng.randint(min_len, max_len))))

    def drawn_basis():
        return canonicalize(A, [drawn_word(1, 3) for _ in range(rng.randint(1, 4))])

    for _ in range(40):
        F, G = drawn_basis(), drawn_basis()
        C = concat_seg(F, G)
        products = [concat(u, v) for u in F.basis for v in G.basis]
        assert len(C.basis) == len(products)
        assert set(C.basis) == set(products) and _incomparable(products)
        assert set(involute_seg(F).basis) == set(map(involute, F.basis))
        assert _incomparable(involute_seg(F).basis)
        for w in [drawn_word(0, 7) for _ in range(30)]:
            code = _encode(w)
            assert segments._in(F, code) == member(F.basis, w)
            assert segments._in(C, code) == concat_member(F.basis, G.basis, w)


def test_products_and_involutes_minimize_nothing(monkeypatch):
    """Over the {aaa,bbb} distance table, concat_seg and involute_seg only
    sort the words they make: no call reaches _minimal, which union, from
    the same segments, does reach."""
    A = ab()
    space = as_pointed(build_envelope(segment(A, "aaa", "bbb")))
    distances = list(set(space.d.values()))
    distances.sort(key=dict(zip(distances, seg_keys(distances))).__getitem__)
    clear_caches()
    calls = []
    minimal = segments._minimal
    monkeypatch.setattr(
        segments, "_minimal", lambda *args: calls.append(args) or minimal(*args)
    )
    for D in distances:
        involute_seg(D)
        for E in distances:
            concat_seg(D, E)
    assert calls == []
    union(distances[1], distances[2])
    assert calls


def test_memoized_subset_of_raises_on_every_mixed_alphabet_call():
    F = segment(ab(), "ab")
    G = segment(ab_ordered(), "ab")
    for _ in range(2):
        with pytest.raises(ValueError, match="different alphabets"):
            subset_of(F, G)
    assert subset_of(F, segment(ab(), "a"))


def test_memoized_distance_and_involution_survive_a_cleared_cache():
    A = ab_ordered()
    bases = [segment(A, *texts) for texts in (["ab"], ["aa", "b"], ["ba", "aab"], [""])]
    pairs = [(p, q) for p in bases for q in bases]
    before = [(algebra_distance(p, q), involute_seg(p)) for p, q in pairs]
    algebra_distance.cache_clear()
    involute_seg.cache_clear()
    after = [(algebra_distance(p, q), involute_seg(p)) for p, q in pairs]
    assert after == before
    assert [algebra_distance.__wrapped__(p, q) for p, q in pairs] == [
        D for D, _ in before
    ]


def test_equal_values_are_one_shared_object():
    """canonicalize returns one object per value, and every operation
    returns through it: equal results are the same object."""
    A = ab()
    a, b, aa, ab_ = segment(A, "a"), segment(A, "b"), segment(A, "aa"), segment(A, "ab")
    assert segment(A, "ab", "aab", "abb") is ab_
    assert canonicalize(A, list(ab_.basis)) is ab_
    assert concat_seg(a, b) is ab_
    assert concat_seg(full_segment(A), ab_) is ab_
    assert concat_seg(a, a) is aa
    assert intersect(a, b) is segment(A, "ab", "ba")
    assert intersect(aa, a) is aa
    assert left_residual(A.word("a"), aa) is a
    assert left_residual(A.word(""), ab_) is ab_
    assert right_residual(ab_, A.word("b")) is a
    assert algebra_distance(ab_, ab_) is full_segment(A)
    assert full_segment(A) is full_segment(A)
    assert empty_segment(A) is empty_segment(A)
    assert intersect(a, empty_segment(A)) is empty_segment(A)
    # every result equals the shared object of its value
    pool = nonempty_words(ab_ordered(), 3)
    rng = random.Random(29)
    for _ in range(150):
        F = canonicalize(pool[0].alphabet, _random_basis(rng, pool))
        G = canonicalize(pool[0].alphabet, _random_basis(rng, pool))
        w = rng.choice(pool)
        for R in (
            concat_seg(F, G), intersect(F, G), left_residual(w, F),
            algebra_distance(F, G), union(F, G), involute_seg(F),
        ):
            assert canonicalize(R.alphabet, R.basis) is R


def test_pickled_segment_equals_and_hashes_as_the_shared_one():
    A = ab()
    for F in (segment(A, "ab", "ba"), full_segment(A), empty_segment(A)):
        G = pickle.loads(pickle.dumps(F))
        assert G == F and hash(G) == hash(F) and G in {F}
        assert canonicalize(G.alphabet, G.basis) is F


def test_format_segment_writes_what_the_words_of_the_basis_write():
    """format_segment writes a segment from its codes as its Words write it,
    a multi-character letter in brackets."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    primed = abc_primed()
    for A in (ab(), primed):
        for F in (empty_segment(A), full_segment(A)):
            assert format_segment(F) == format_segment_oracle(F)
    assert format_segment(segment(primed, "[a']b[c']")) == "↑[a']b[c']"

    @hypothesis.settings(
        max_examples=80, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        st.sampled_from([ab_ordered(), primed, Alphabet(["a", "bb", "c", "dd"])]),
        st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=4),
    )
    def check(A, picks):
        words = [Word(A, [A.letters[i % len(A.letters)] for i in p]) for p in picks]
        F = canonicalize(A, words)
        assert format_segment(F) == format_segment_oracle(F)

    check()


def test_every_construction_path_gives_the_one_object_of_its_value():
    """Equal segments are one object however they were made: by a
    constructor, by an operation of the algebra or by a copy."""
    for A in (ab(), ab_ordered(), abc_primed()):
        bases = regression_bases(A, max_gens=2, max_len=2)
        for F in bases:
            assert canonicalize(A, list(F.basis)) is F
            assert FinalSegment(A, F.basis) is F
            fresh = tuple(Word(A, u.symbols) for u in F.basis)
            assert FinalSegment(alphabet=A, basis=fresh) is F
            assert copy.copy(F) is F
            assert copy.deepcopy(F) is F
            assert F.basis is F.basis
            G = pickle.loads(pickle.dumps(F))
            assert G is F
            assert G.basis == tuple(Word(A, u.symbols) for u in G.basis)
        assert segment(A) is empty_segment(A) is FinalSegment(A, ())
        assert segment(A, "") is full_segment(A) is canonicalize(A, [A.word("")])
        w = A.word(A.letters[0])
        for F, G in zip(bases, bases[1:]):
            for R in (
                intersect(F, G), concat_seg(F, G), right_residual(F, w),
                left_residual(w, F), involute_seg(F), algebra_distance(F, G),
            ):
                assert canonicalize(A, list(R.basis)) is R
            # a union, and an inclusion read as "the union is the larger one"
            joined = canonicalize(A, F.basis + G.basis)
            assert union(F, G) is joined
            assert subset_of(F, G) is (joined is G)
            products = [concat(u, v) for u in F.basis for v in G.basis]
            for H in (G, joined, concat_seg(F, G)):
                above = canonicalize(A, products + list(H.basis))
                assert product_in(F, G, H) is (above is H)


def test_the_metric_algebra_builds_no_word(monkeypatch):
    """Over the {aaa,bbb} distance table the algebra runs on code strings:
    concat_seg, subset_of, intersect, involute_seg, algebra_distance and
    check_convexity, which finds no witness there, build no Word, so none is
    made unless a basis is read."""
    A = ab()
    env = build_envelope(segment(A, "aaa", "bbb"))
    space = as_pointed(env)
    distances = list(set(space.d.values()))
    distances.sort(key=dict(zip(distances, seg_keys(distances))).__getitem__)
    clear_caches()
    made = []
    word, init = words._word, Word.__init__

    def spy_word(*args):
        made.append(args)
        return word(*args)

    def spy_init(self, *args):
        made.append(args)
        init(self, *args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("higman") and vars(module).get("_word") is word:
            monkeypatch.setattr(module, "_word", spy_word)
    monkeypatch.setattr(Word, "__init__", spy_init)
    for D in distances:
        involute_seg(D)
        for E in distances:
            concat_seg(D, E)
            subset_of(D, E)
            intersect(D, E)
    for P in env.elements:
        for Q in env.elements:
            algebra_distance(P, Q)
    assert check_convexity(space) == (True, [])
    assert made == []


def test_forms_of_the_regression_envelopes_are_the_shared_objects():
    """Every element _forms reads off a minimal DFA is the object
    canonicalize gives for its basis."""
    for env in regression_envelopes():
        forms = _forms(env.context, env.extent.values())
        assert len(forms) == len(env.elements)
        for P in forms.values():
            assert canonicalize(P.alphabet, list(P.basis)) is P
        assert [forms[env.extent[P]] for P in env.elements] == list(env.elements)


def test_the_table_keeps_no_dropped_segment_alive():
    A = abc_primed()
    F = segment(A, "[a'][b']c[c']ab[b']", "[c']ba[c'][b']a")
    [key] = [k for k, G in segments._interned.items() if G is F]
    assert involute_seg(F) is not F  # a cache entry now holds F
    del F
    clear_caches()
    gc.collect()
    assert key not in segments._interned


def test_a_dead_reference_in_the_table_gives_a_new_live_segment():
    # while the table is iterated its removals are deferred, so a segment
    # that dies leaves its dead reference in the table's dict; the segment is
    # made after the iterator starts, since it keeps the item it last yielded
    A = abc_primed()
    kept = full_segment(A)
    items = iter(segments._interned.items())
    next(items)
    F = segment(A, "[a'][c']b[b']ca", "c[a'][b']ab[c']")
    key, codes = (A, F.codes), F.codes
    del F
    gc.collect()
    assert segments._interned.data[key]() is None
    G = canonicalize(A, [A.word("[a'][c']b[b']ca"), A.word("c[a'][b']ab[c']")])
    assert G.codes == codes
    assert canonicalize(A, list(G.basis)) is G
    assert segments._interned.data[key]() is G
    # storing G committed the deferred removals: the iterator is not advanced
    items.close()
    assert kept is full_segment(A)


def test_seg_keys_are_basis_size_then_word_keys():
    for A in (ab(), ab_ordered(), abc_primed()):
        bases = regression_bases(A, max_gens=3, max_len=2)
        expected = [(len(F.basis), tuple(sort_key(u) for u in F.basis)) for F in bases]
        assert seg_keys(bases) == expected
    assert seg_keys([]) == []


def test_equal_builds_are_one_object_with_a_stable_hash():
    for A in (ab(), ab_ordered()):
        for F, again in (
            (segment(A, "ab", "ba"), lambda: segment(A, "ba", "ab", "aba")),
            (full_segment(A), lambda: canonicalize(A, [A.word(""), A.word("a")])),
            (empty_segment(A), lambda: FinalSegment(A, ())),
        ):
            first = hash(F)
            assert again() is F
            assert hash(again()) == first == hash(F)


class _OldShape:
    """Pickles as a segment did when it travelled as its alphabet and Words."""

    def __init__(self, F):
        self.F = F

    def __reduce__(self):
        return FinalSegment, (self.F.alphabet, self.F.basis)


def test_a_pickle_of_the_older_shape_loads_as_the_shared_segment():
    A = abc_primed()
    for F in (segment(A, "[a']b", "c[c']a"), full_segment(A), empty_segment(A)):
        data = pickle.dumps(_OldShape(F))
        assert (b"Word" in data) is bool(F.codes)
        assert pickle.loads(data) is F
        assert b"Word" not in pickle.dumps(F)
        assert copy.deepcopy(F) is F


# pickles the envelope of {aaa,bbb} with its forms read
PICKLE_ENVELOPE = """
import pickle, sys
from higman.envelope import build_envelope
from higman.segments import segment
from helpers import ab
env = build_envelope(segment(ab(), "aaa", "bbb"))
assert len(env.elements) == 20
sys.stdout.buffer.write(pickle.dumps(env))
"""


def test_a_pickled_envelope_carries_codes_and_loads_the_shared_segments():
    """Segments travel as their alphabet and codes, so the stream holds no
    Word, and the loaded elements are this process's segments."""
    data = output_under_another_hash_seed(PICKLE_ENVELOPE)
    assert b"Word" not in data
    env = pickle.loads(data)
    local = build_envelope(segment(ab(), "aaa", "bbb"))
    assert env == local and "elements" in vars(env)
    assert all(P is Q for P, Q in zip(env.elements, local.elements, strict=True))


# pickles a segment whose hash is already computed and kept
PICKLE_SEGMENT = """
import pickle, sys
from higman.segments import segment
from helpers import ab
F = segment(ab(), "ab", "ba")
assert F in {F}
sys.stdout.buffer.write(pickle.dumps(F))
"""


def test_pickled_segment_is_found_under_another_hash_seed():
    """str hashes differ between processes, so no stored hash travels with
    a pickled segment or its alphabet."""
    blob = output_under_another_hash_seed(PICKLE_SEGMENT)
    F = pickle.loads(blob)
    A = ab()
    assert F in {segment(A, "a"), segment(A, "ab", "ba"), full_segment(A)}
    assert F is segment(A, "ab", "ba")


def test_residual_antitone_in_word():
    A = ab_ordered()
    pool = nonempty_words(A, 3)
    rng = random.Random(12)
    for _ in range(200):
        F = canonicalize(A, _random_basis(rng, pool))
        y, y2 = rng.choice(pool), rng.choice(pool)
        if embeds(y, y2):
            assert subset_of(right_residual(F, y), right_residual(F, y2))
            assert subset_of(left_residual(y, F), left_residual(y2, F))


def test_concat_distributes_over_union():
    A = ab()
    pool = nonempty_words(A, 2)
    rng = random.Random(13)
    for _ in range(80):
        F = canonicalize(A, _random_basis(rng, pool, 2))
        G = canonicalize(A, _random_basis(rng, pool, 2))
        H = canonicalize(A, _random_basis(rng, pool, 2))
        assert concat_seg(union(F, G), H) == union(concat_seg(F, H), concat_seg(G, H))
        assert concat_seg(H, union(F, G)) == union(concat_seg(H, F), concat_seg(H, G))


def test_full_segment_is_least_in_reversed_order():
    A = ab()
    for F in [segment(A, "a"), segment(A, "aa", "bb"), empty_segment(A)]:
        assert leq(full_segment(A), F)

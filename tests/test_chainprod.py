"""Chain products, up-set counting, coding maps, and the phi/psi pair."""

from itertools import combinations
from math import comb, prod

import pytest

from higman.words import Alphabet, Word, concat
from higman.segments import (
    canonicalize,
    contains,
    format_segment,
    full_segment,
    intersect,
    segment,
    subset_of,
)
from higman.envelope import build_envelope
from higman.chainprod import (
    ChainProduct,
    UpSet,
    all_upsets,
    coding_maps,
    count_upsets,
    disjoint_downsets,
    empty_up_set,
    full_up_set,
    intersect_upsets,
    phi,
    psi,
    tuple_of_word,
    union_upsets,
    up_member,
    up_set,
    verify_full_embedding,
)
from helpers import ab, ab_ordered, abc, nonempty_words, regression_bases
from oracles import (
    antichain_count_oracle,
    grid_points,
    member,
    upset_count_oracle,
    words_upto,
)


class TestChainProduct:
    def test_points_of_2x3(self):
        cp = ChainProduct((2, 3))
        assert cp.points == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        )

    def test_dims_coerced_to_tuple(self):
        assert ChainProduct([2, 2]).dims == (2, 2)

    @pytest.mark.parametrize("dims", [(), (0,), (2, -1), (2, "x")])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            ChainProduct(dims)


class TestUpSetBasics:
    def test_generators_are_minimalized_and_sorted(self):
        cp = ChainProduct((2, 2))
        Y = up_set(cp, [(1, 1), (0, 0), (1, 0), (0, 0)])
        assert Y.mintuples == ((0, 0),)
        Z = up_set(cp, [(1, 0), (0, 1)])
        assert Z.mintuples == ((0, 1), (1, 0))

    def test_out_of_range_tuple_rejected(self):
        cp = ChainProduct((2, 2))
        with pytest.raises(ValueError):
            up_set(cp, [(2, 0)])
        with pytest.raises(ValueError):
            up_set(cp, [(0, 0, 0)])

    def test_membership(self):
        cp = ChainProduct((2, 3))
        Y = up_set(cp, [(1, 1)])
        assert up_member(Y, (1, 2))
        assert not up_member(Y, (0, 2))
        assert not up_member(empty_up_set(cp), (1, 2))
        assert up_member(full_up_set(cp), (0, 0))

    def test_intersect_is_componentwise_max(self):
        cp = ChainProduct((2, 3))
        left = up_set(cp, [(1, 0)])
        right = up_set(cp, [(0, 2)])
        assert intersect_upsets(left, right).mintuples == ((1, 2),)

    def test_union_and_intersect_pointwise(self):
        cp = ChainProduct((2, 3))
        every = all_upsets(cp)
        for Y in every:
            for Z in every:
                meet = intersect_upsets(Y, Z)
                join = union_upsets(Y, Z)
                for x in cp.points:
                    assert up_member(meet, x) == (
                        up_member(Y, x) and up_member(Z, x)
                    )
                    assert up_member(join, x) == (
                        up_member(Y, x) or up_member(Z, x)
                    )

    def test_mixed_products_rejected(self):
        Y = full_up_set(ChainProduct((2, 2)))
        Z = full_up_set(ChainProduct((2, 3)))
        with pytest.raises(ValueError):
            intersect_upsets(Y, Z)
        with pytest.raises(ValueError, match="different chain products"):
            union_upsets(Y, Z)


class TestCounting:
    def test_frozen_counts(self):
        assert count_upsets((2, 2)) == 6
        assert count_upsets((3, 3)) == 20
        assert count_upsets((2, 2, 2)) == 20
        assert count_upsets((2, 2, 2, 2)) == 168

    @pytest.mark.parametrize(
        "dims",
        [(1,), (3,), (1, 1), (2, 2), (1, 3), (2, 3), (3, 3), (2, 2, 2)],
    )
    def test_matches_both_oracles(self, dims):
        n = count_upsets(dims)
        assert n == upset_count_oracle(dims)
        assert n == antichain_count_oracle(dims)

    @pytest.mark.parametrize(
        "dims", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (2, 5)]
    )
    def test_two_chain_lattice_path_form(self, dims):
        # up-sets of n0 x n1 are monotone staircases
        n0, n1 = dims
        assert count_upsets(dims) == comb(n0 + n1, n0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_single_chain(self, n):
        assert count_upsets((n,)) == n + 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            count_upsets((5, 5))

    def test_all_upsets_enumeration(self):
        cp = ChainProduct((2, 3))
        every = all_upsets(cp)
        assert len(every) == count_upsets((2, 3)) == 10
        assert len(set(every)) == len(every)
        assert every[0] == empty_up_set(cp)
        assert every[-1] == full_up_set(cp)
        for Y in every:
            members = {x for x in cp.points if up_member(Y, x)}
            for x in members:
                for q in cp.points:
                    if all(a >= b for a, b in zip(q, x)):
                        assert q in members


def chain_shapes(points: int, longest: int = 3):
    """Every tuple of chain lengths, 1 included, of at most `longest` chains
    with at most `points` points in their product."""
    shapes, last = [], [()]
    for _ in range(longest):
        last = [
            t + (n,) for t in last for n in range(1, points + 1) if prod(t) * n <= points
        ]
        shapes += last
    return shapes


def upset_masks_by_scan(points) -> list[int]:
    """Every subset of the points, as a mask, that holds the up-set of each
    of its points."""
    up = [
        sum(1 << j for j, q in enumerate(points) if all(a >= b for a, b in zip(q, p)))
        for p in points
    ]
    return [
        mask
        for mask in range(1 << len(points))
        if all(not up[i] & ~mask for i in range(len(points)) if mask >> i & 1)
    ]


def test_all_upsets_is_the_scan_of_every_subset():
    shapes = chain_shapes(12)
    assert (2, 2, 3) in shapes and (1, 12) in shapes and (3, 1, 4) in shapes
    for dims in shapes:
        cp = ChainProduct(dims)
        got = [
            sum(1 << i for i, p in enumerate(cp.points) if up_member(Y, p))
            for Y in all_upsets(cp)
        ]
        assert got == upset_masks_by_scan(cp.points), dims
        assert count_upsets(dims) == len(got)


class TestCodingMaps:
    def test_frozen_table_for_aa(self):
        A = ab()
        u = A.word("aa")
        assert coding_maps(u, A.word("")) == (0, 1)
        assert coding_maps(u, A.word("a")) == (1, 0)
        assert coding_maps(u, A.word("b")) == (0, 1)
        assert coding_maps(u, A.word("ba")) == (1, 0)
        assert coding_maps(u, A.word("ab")) == (1, 0)

    def test_rejected_inside_up_set(self):
        A = ab()
        with pytest.raises(ValueError):
            coding_maps(A.word("aa"), A.word("aa"))
        with pytest.raises(ValueError):
            coding_maps(A.word("aa"), A.word("baa"))

    @pytest.mark.parametrize("text", ["aa", "ab", "aba"])
    def test_concatenation_law(self, text):
        A = ab()
        u = A.word(text)
        F = segment(A, text)
        outside = [
            v
            for v in [A.word("")] + nonempty_words(A, 4)
            if not contains(F, v)
        ]
        for v in outside:
            for w in outside:
                f, _ = coding_maps(u, v)
                _, g = coding_maps(u, w)
                assert contains(F, concat(v, w)) == (not f <= g)

    def test_concatenation_law_ordered_alphabet(self):
        A = ab_ordered()
        u = A.word("bb")
        F = segment(A, "bb")
        outside = [
            v
            for v in [A.word("")] + nonempty_words(A, 3)
            if not contains(F, v)
        ]
        for v in outside:
            for w in outside:
                f, _ = coding_maps(u, v)
                _, g = coding_maps(u, w)
                assert contains(F, concat(v, w)) == (not f <= g)


class TestTupleOfWord:
    def test_two_generators(self):
        A = ab()
        gens = (A.word("aa"), A.word("bb"))
        assert tuple_of_word(gens, A.word("")) == (2, 2)
        assert tuple_of_word(gens, A.word("b")) == (2, 1)
        assert tuple_of_word(gens, A.word("a")) == (1, 2)
        assert tuple_of_word(gens, A.word("ab")) == (1, 1)
        assert tuple_of_word(gens, A.word("bb")) == (2, 0)

    def test_suffix_not_subword(self):
        A = ab()
        gens = (A.word("ab"),)
        # "a" alone matches no suffix of "ab"
        assert tuple_of_word(gens, A.word("a")) == (2,)
        assert tuple_of_word(gens, A.word("b")) == (1,)
        assert tuple_of_word(gens, A.word("ab")) == (0,)


def square_pair_envelope():
    A = ab()
    env = build_envelope(segment(A, "aa", "bb"))
    by_basis = {
        tuple(str(u) for u in X.basis): X for X in env.elements
    }
    return A, env, by_basis


def up_subset(Y: UpSet, Z: UpSet) -> bool:
    return all(up_member(Z, t) for t in Y.mintuples)


class TestPhi:
    def test_frozen_table(self):
        A, env, by = square_pair_envelope()
        cp = ChainProduct((2, 2))
        assert phi(env, env.y) == empty_up_set(cp)
        assert phi(env, env.x) == full_up_set(cp)
        # coordinate 0 tracks aa, coordinate 1 tracks bb
        assert phi(env, by[("a", "bb")]).mintuples == ((1, 0),)
        assert phi(env, by[("b", "aa")]).mintuples == ((0, 1),)
        assert phi(env, by[("aa", "ab", "ba", "bb")]).mintuples == ((1, 1),)
        assert phi(env, by[("a", "b")]).mintuples == ((0, 1), (1, 0))

    def test_injective_and_order_preserving(self):
        _, env, _ = square_pair_envelope()
        images = {X: phi(env, X) for X in env.elements}
        assert len(set(images.values())) == len(env.elements)
        for X1 in env.elements:
            for X2 in env.elements:
                assert subset_of(X1, X2) == up_subset(images[X1], images[X2])

    def test_preserves_intersection(self):
        _, env, _ = square_pair_envelope()
        for X1 in env.elements:
            for X2 in env.elements:
                assert phi(env, intersect(X1, X2)) == intersect_upsets(
                    phi(env, X1), phi(env, X2)
                )

    def test_non_element_rejected(self):
        A, env, _ = square_pair_envelope()
        with pytest.raises(ValueError):
            phi(env, segment(A, "aaa"))

    def test_empty_generator_word_rejected(self):
        A = ab()
        env = build_envelope(full_segment(A))
        with pytest.raises(ValueError):
            phi(env, env.x)


class TestPsi:
    def test_endpoints(self):
        A, env, _ = square_pair_envelope()
        cp = ChainProduct((2, 2))
        gens = env.y.basis
        assert psi(cp, full_up_set(cp), gens) == full_segment(A)
        assert psi(cp, empty_up_set(cp), gens) == env.y

    def test_single_corner(self):
        A, env, by = square_pair_envelope()
        cp = ChainProduct((2, 2))
        Y = up_set(cp, [(1, 1)])
        assert psi(cp, Y, env.y.basis) == by[("aa", "ab", "ba", "bb")]

    def test_round_trip_on_square_pair(self):
        _, env, _ = square_pair_envelope()
        cp = ChainProduct((2, 2))
        for X in env.elements:
            assert psi(cp, phi(env, X), env.y.basis) == X

    def test_mismatched_product_rejected(self):
        _, env, _ = square_pair_envelope()
        cp = ChainProduct((2, 2))
        other = ChainProduct((3, 2))
        with pytest.raises(ValueError):
            psi(other, full_up_set(cp), env.y.basis)
        with pytest.raises(ValueError):
            psi(other, full_up_set(other), env.y.basis)


class TestRoundTripFamilies:
    @pytest.mark.parametrize("texts", [("aa", "ab"), ("ab",), ("a", "bb")])
    def test_small_cases(self, texts):
        A = ab()
        F = segment(A, *texts)
        env = build_envelope(F)
        cp = ChainProduct(tuple(len(u.symbols) for u in F.basis))
        for X in env.elements:
            assert psi(cp, phi(env, X), F.basis) == X

    def test_regression_family(self):
        A = ab()
        for F in regression_bases(A, max_gens=2, max_len=2):
            if not F.basis[0].symbols:
                continue
            env = build_envelope(F)
            cp = ChainProduct(tuple(len(u.symbols) for u in F.basis))
            for X in env.elements:
                assert psi(cp, phi(env, X), F.basis) == X, format_segment(F)

    def test_round_trip_on_drawn_antichains(self):
        # psi's value is checked by ==, and its meaning from the definition:
        # w lies in psi(Y) iff for every grid point p outside Y it lies above
        # some generator prefix of length p_i + 1
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=60, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(
            st.sampled_from([ab(), ab_ordered(), abc()]),
            st.lists(
                st.lists(st.integers(0, 2), min_size=1, max_size=3),
                min_size=2,
                max_size=3,
            ),
        )
        def check(A, picks):
            k = len(A.letters)
            gens = [
                Word(A, tuple(A.letters[i % k] for i in pick[: 3 if k == 2 else 2]))
                for pick in picks
            ]
            F = canonicalize(A, gens)
            hypothesis.assume(len(F.basis) == len(gens))
            env = build_envelope(F)
            dims = tuple(len(u.symbols) for u in F.basis)
            cp = ChainProduct(dims)
            for X in env.elements:
                Y = phi(env, X)
                assert psi(cp, Y, F.basis) == X, format_segment(X)
                outside = [
                    p for p in grid_points(dims)
                    if not any(all(a >= b for a, b in zip(p, t)) for t in Y.mintuples)
                ]
                for w in words_upto(A, 4):
                    in_psi = all(
                        member([Word(A, u.symbols[: i + 1]) for u, i in zip(F.basis, p)], w)
                        for p in outside
                    )
                    assert in_psi == member(X.basis, w), (format_segment(X), w)

        check()

    def test_phi_meets_on_non_disjoint_case(self):
        A = ab()
        F = segment(A, "aa", "ab")
        env = build_envelope(F)
        for X1, X2 in combinations(env.elements, 2):
            assert phi(env, intersect(X1, X2)) == intersect_upsets(
                phi(env, X1), phi(env, X2)
            )


class TestDisjointDownsets:
    def test_trivial_order(self):
        A = ab()
        assert disjoint_downsets((A.word("aa"), A.word("bb")))
        assert disjoint_downsets((A.word("a"), A.word("b")))
        assert not disjoint_downsets((A.word("aa"), A.word("ab")))

    def test_shared_middle_letter(self):
        A = abc()
        assert not disjoint_downsets((A.word("ab"), A.word("bc")))
        assert disjoint_downsets((A.word("ab"), A.word("cc")))

    def test_common_lower_bound(self):
        A = Alphabet(["a", "b", "c"], order=[("c", "a"), ("c", "b")])
        assert not disjoint_downsets((A.word("a"), A.word("b")))

    def test_single_generator(self):
        A = ab()
        assert disjoint_downsets((A.word("ab"),))

    def test_no_generators(self):
        assert disjoint_downsets([])
        assert disjoint_downsets(iter(()))


class TestVerifyFullEmbedding:
    def test_two_squares(self):
        A = ab()
        F = segment(A, "aa", "bb")
        assert verify_full_embedding(F)
        assert len(build_envelope(F).elements) == 6

    def test_single_generator(self):
        A = ab()
        assert verify_full_embedding(segment(A, "ab"))

    def test_mixed_letters_three_alphabet(self):
        A = abc()
        assert verify_full_embedding(segment(A, "ab", "cc"))

    def test_three_squares(self):
        A = abc()
        F = segment(A, "aa", "bb", "cc")
        assert verify_full_embedding(F)
        assert len(build_envelope(F).elements) == 20

    def test_preconditions(self):
        A = ab()
        with pytest.raises(ValueError):
            verify_full_embedding(segment(A, "a", "bb"))
        with pytest.raises(ValueError):
            verify_full_embedding(segment(A, "aa", "ab"))
        with pytest.raises(ValueError):
            verify_full_embedding(full_segment(A))

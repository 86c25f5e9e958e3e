"""Alphabet validation, the embedding order, splits, and minimal upper bounds."""

import random
from itertools import combinations, product

import pytest

from higman.words import (
    Alphabet,
    Word,
    _letter_codes,
    _matched_prefix_len,
    _minimal,
    concat,
    embeds,
    involute,
    max_embeddable_prefix,
    max_embeddable_suffix,
    min_upper_bounds,
    minimal_words,
    sort_key,
)

from higman.segments import canonicalize, segment
from higman.envelope import build_envelope

from helpers import ab, ab_ordered, abc_primed
from oracles import embeds_exhaustive, words_upto


class TestAlphabet:
    def test_order_closure(self):
        A = Alphabet(["a", "b", "c"], order=[("a", "b"), ("b", "c")])
        assert A.leq("a", "c")
        assert A.leq("a", "a")
        assert not A.leq("c", "a")

    def test_antisymmetry_violation(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            Alphabet(["a", "b"], order=[("a", "b"), ("b", "a")])

    def test_duplicate_letters(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet(["a", "a"])

    @pytest.mark.parametrize("letter", ["", "a[", "b]", 1])
    def test_invalid_letter(self, letter):
        with pytest.raises(ValueError, match="invalid letter"):
            Alphabet(["a", letter])

    def test_unknown_order_letter(self):
        with pytest.raises(ValueError, match="unknown"):
            Alphabet(["a"], order=[("a", "z")])

    def test_involution_symmetrized(self):
        A = abc_primed()
        assert A.bar("a") == "a'"
        assert A.bar("a'") == "a"

    def test_involution_not_self_inverse(self):
        with pytest.raises(ValueError, match="self-inverse"):
            Alphabet(["a", "b", "c"], involution={"a": "b", "b": "c"})

    def test_involution_must_preserve_order(self):
        with pytest.raises(ValueError, match="preserve"):
            Alphabet(
                ["a", "b", "p", "q"],
                order=[("a", "b")],
                involution={"a": "p", "b": "q", "q": "b", "p": "a"},
            )

    def test_word_parsing_brackets(self):
        A = abc_primed()
        w = A.word("a[a']b")
        assert w.symbols == ("a", "a'", "b")
        with pytest.raises(ValueError, match="unterminated"):
            A.word("a[a'")

    def test_word_from_an_iterable_of_letters(self):
        A = abc_primed()
        assert A.word(["a", "a'", "b"]) == A.word("a[a']b")
        assert A.word(iter(("b", "a"))).symbols == ("b", "a")
        with pytest.raises(ValueError, match="not in alphabet"):
            A.word(["ab"])

    def test_word_rejects_foreign_letter(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            ab().word("az")
        with pytest.raises(ValueError, match="not in alphabet"):
            Word(ab(), "az")


class TestWordSymbols:
    def test_any_sequence_of_letters_is_kept_as_a_tuple(self):
        A = ab()
        for given in ("aab", ["a", "a", "b"], ("a", "a", "b"), iter("aab")):
            w = Word(A, given)
            assert w.symbols == ("a", "a", "b")
            assert w == A.word("aab")
            assert hash(w) == hash(A.word("aab"))

    def test_envelope_of_words_built_from_strings(self):
        A = ab()
        F = canonicalize(A, [Word(A, "aaa"), Word(A, "bbb")])
        assert F == segment(A, "aaa", "bbb")
        env = build_envelope(F)
        assert len(env.elements) == 20 and env.y == F


class TestConcat:
    def test_neutral(self):
        A = ab()
        assert concat(A.word("ab"), A.word("")) == A.word("ab")
        assert concat(A.word(""), A.word("ab")) == A.word("ab")

    def test_juxtaposition(self):
        A = ab()
        assert concat(A.word("a"), A.word("b")) == A.word("ab")
        assert concat(A.word("aa"), A.word("bb")) == A.word("aabb")

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="different alphabets"):
            concat(ab().word("a"), ab_ordered().word("a"))


class TestInvolute:
    def test_empty(self):
        A = ab()
        assert involute(A.word("")) == A.word("")

    def test_identity_involution_reverses(self):
        A = ab()
        assert involute(A.word("ab")) == A.word("ba")

    def test_primed_letters(self):
        A = abc_primed()
        assert involute(A.word("ab")) == A.word("[b'][a']")

    def test_self_inverse_and_antimorphism(self):
        A = abc_primed()
        for u in words_upto(A, 2):
            assert involute(involute(u)) == u
        u, v = A.word("a[b']"), A.word("bc")
        assert involute(concat(u, v)) == concat(involute(v), involute(u))


class TestEmbeds:
    def test_empty_word_embeds_everywhere(self):
        A = ab()
        for w in words_upto(A, 3):
            assert embeds(A.word(""), w)

    def test_subsequence(self):
        A = ab()
        assert embeds(A.word("aa"), A.word("aba"))
        assert not embeds(A.word("ab"), A.word("ba"))

    def test_letterwise_order(self):
        A = ab_ordered()
        assert embeds(A.word("aa"), A.word("bb"))
        assert not embeds(A.word("bb"), A.word("aa"))

    @pytest.mark.parametrize("make", [ab, ab_ordered])
    def test_is_partial_order(self, make):
        A = make()
        ws = words_upto(A, 4)
        for u in ws:
            assert embeds(u, u)
        for u in ws:
            for v in ws:
                if embeds(u, v) and embeds(v, u):
                    assert u == v
        import random

        rng = random.Random(20260817)
        for _ in range(4000):
            u, v, w = rng.choice(ws), rng.choice(ws), rng.choice(ws)
            if embeds(u, v) and embeds(v, w):
                assert embeds(u, w)

    @pytest.mark.parametrize("make", [ab, ab_ordered])
    def test_greedy_agrees_with_exhaustive(self, make):
        A = make()
        ws = words_upto(A, 5)
        for u in ws:
            for v in ws:
                assert embeds(u, v) == embeds_exhaustive(u, v)

    def test_concatenation_compatible(self):
        A = ab_ordered()
        ws = words_upto(A, 3)
        import random

        rng = random.Random(7)
        for _ in range(2000):
            u, v = rng.choice(ws), rng.choice(ws)
            u2, v2 = rng.choice(ws), rng.choice(ws)
            if embeds(u, v) and embeds(u2, v2):
                assert embeds(concat(u, u2), concat(v, v2))

    def test_involution_compatible(self):
        A = abc_primed()
        ws = words_upto(A, 2)
        for u in ws:
            for v in ws:
                assert embeds(u, v) == embeds(involute(u), involute(v))


class TestEqualityOnlyMatching:
    """An order that is equality matches by a plain subsequence test: a
    branch of the one matching kernel, taken when the alphabet's _order, or
    the order of its letter codes, is None."""

    def test_flag_is_set_once_per_alphabet_and_letter_codes(self):
        for A in (ab(), abc_primed()):
            assert A._order is None
            assert _letter_codes(A)[1] is None
        A = ab_ordered()
        assert A._order == A._leq
        assert _letter_codes(A)[1] == frozenset({("\0", "\0"), ("\1", "\1"), ("\0", "\1")})

    @pytest.mark.parametrize("make", [ab, ab_ordered, abc_primed], ids=["ab", "a<=b", "six"])
    def test_embeds_agrees_with_exhaustive(self, make):
        """Every pair of words of up to 4 letters over two letters. Over six
        letters that is 2.4 M pairs, about 15 s of exhaustive search, so it
        is every pair of up to 3 letters and 20,000 seeded pairs of up to 4."""
        A = make()
        if len(A.letters) == 2:
            ws = words_upto(A, 4)
            pairs = list(product(ws, repeat=2))
        else:
            ws = words_upto(A, 3)
            pairs = list(product(ws, repeat=2))
            rng = random.Random(19)
            longer = words_upto(A, 4)
            pairs += [(rng.choice(longer), rng.choice(longer)) for _ in range(20000)]
        for u, v in pairs:
            assert embeds(u, v) == embeds_exhaustive(u, v), (u, v)

    @pytest.mark.parametrize("make", [ab, abc_primed], ids=["ab", "six"])
    def test_branch_agrees_with_the_general_loop(self, make):
        """The general loop on the pairs (a, a) gives the same matched prefix
        lengths and the same minimal sequences."""
        A = make()
        seqs = [w.symbols for w in words_upto(A, 3)]
        for u in seqs:
            for v in seqs:
                assert _matched_prefix_len(None, u, v) == _matched_prefix_len(A._leq, u, v)
        rng = random.Random(23)
        for _ in range(300):
            drawn = set(rng.sample(seqs, rng.randint(1, 12)))
            assert sorted(_minimal(None, drawn)) == sorted(_minimal(A._leq, drawn))


class TestSplits:
    def test_suffix_examples(self):
        A = ab()
        assert max_embeddable_suffix(A.word("aa"), A.word("b")) == (
            A.word("aa"),
            A.word(""),
        )
        assert max_embeddable_suffix(A.word("bb"), A.word("b")) == (
            A.word("b"),
            A.word("b"),
        )
        assert max_embeddable_suffix(A.word("ab"), A.word("abab")) == (
            A.word(""),
            A.word("ab"),
        )

    def test_prefix_examples(self):
        A = ab()
        assert max_embeddable_prefix(A.word("ab"), A.word("b")) == (
            A.word(""),
            A.word("ab"),
        )
        assert max_embeddable_prefix(A.word("ab"), A.word("a")) == (
            A.word("a"),
            A.word("b"),
        )
        assert max_embeddable_prefix(A.word(""), A.word("bbb")) == (
            A.word(""),
            A.word(""),
        )

    @pytest.mark.parametrize("make", [ab, ab_ordered])
    def test_split_is_maximal(self, make):
        """The returned suffix embeds and no longer suffix does; dually for prefixes."""
        A = make()
        ws = words_upto(A, 4)
        for u in ws:
            for w in ws:
                u1, u2 = max_embeddable_suffix(u, w)
                assert concat(u1, u2) == u
                assert embeds_exhaustive(u2, w)
                n = len(u.symbols)
                if len(u2.symbols) < n:
                    longer = Word(A, u.symbols[n - len(u2.symbols) - 1:])
                    assert not embeds_exhaustive(longer, w)
                p1, p2 = max_embeddable_prefix(u, w)
                assert concat(p1, p2) == u
                assert embeds_exhaustive(p1, w)
                if len(p1.symbols) < n:
                    longer = Word(A, u.symbols[:len(p1.symbols) + 1])
                    assert not embeds_exhaustive(longer, w)


class TestMinUpperBounds:
    def test_incomparable_letters(self):
        A = ab()
        assert min_upper_bounds(A.word("a"), A.word("b")) == {
            A.word("ab"),
            A.word("ba"),
        }

    def test_shuffle_of_squares(self):
        A = ab()
        got = min_upper_bounds(A.word("aa"), A.word("bb"))
        assert got == {
            A.word(t) for t in ["aabb", "abab", "abba", "baab", "baba", "bbaa"]
        }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shuffles_of_powers(self, n):
        """Incomparable letters: the C(2n, n) shuffles, all of one length."""
        A = ab()
        shuffles = {
            A.word("".join("a" if i in pos else "b" for i in range(2 * n)))
            for pos in combinations(range(2 * n), n)
        }
        assert min_upper_bounds(A.word("a" * n), A.word("b" * n)) == shuffles

    def test_equal_words(self):
        A = ab()
        assert min_upper_bounds(A.word("a"), A.word("a")) == {A.word("a")}

    def test_ordered_letters(self):
        A = ab_ordered()
        assert min_upper_bounds(A.word("a"), A.word("b")) == {A.word("b")}

    def test_long_words_stay_off_the_recursion_limit(self):
        A = ab()
        long = A.word("a" * 600)
        assert min_upper_bounds(long, long) == {long}
        assert min_upper_bounds(long, A.word("a" * 599)) == {long}

    @pytest.mark.parametrize("make", [ab, ab_ordered])
    def test_complete_and_antichain(self, make):
        A = make()
        ws = words_upto(A, 3)
        universe = words_upto(A, 6)
        for u in ws:
            for v in ws:
                mubs = min_upper_bounds(u, v)
                assert minimal_words(mubs) == tuple(sorted(mubs, key=sort_key))
                for m in mubs:
                    assert embeds_exhaustive(u, m) and embeds_exhaustive(v, m)
                    assert len(m.symbols) <= len(u.symbols) + len(v.symbols)
                for w in universe:
                    if embeds_exhaustive(u, w) and embeds_exhaustive(v, w):
                        assert any(embeds_exhaustive(m, w) for m in mubs)


class TestMinimalWords:
    def test_order_independent_with_letter_order(self):
        """Equal-length words can compare under a letter order; minimalization
        must not depend on the letter-index tie-break."""
        A = Alphabet(["b", "a"], order=[("a", "b")])
        aa, abw = A.word("aa"), A.word("ab")
        assert minimal_words([abw, aa]) == (aa,)
        assert minimal_words([aa, abw]) == (aa,)

    def test_canonical_sorting(self):
        A = ab()
        ws = [A.word("ba"), A.word("b"), A.word("aa")]
        assert minimal_words(ws) == (A.word("b"), A.word("aa"))

    def test_no_words(self):
        assert minimal_words([]) == ()
        assert minimal_words(iter(())) == ()

    @pytest.mark.parametrize(
        "make",
        [ab, ab_ordered, lambda: Alphabet(["b", "a"], order=[("a", "b")])],
        ids=["ab", "a<=b", "ba with a<=b"],
    )
    def test_agrees_with_all_pairs_filter(self, make):
        """Seeded draws against the definition, by exhaustive embedding. In
        the last alphabet letter indices run against the order, so a word
        must displace a kept word of its own length."""
        A = make()
        rng = random.Random(9)
        for _ in range(400):
            ws = [
                Word(A, tuple(rng.choice(A.letters) for _ in range(rng.randint(0, 4))))
                for _ in range(rng.randint(1, 12))
            ]
            pool = set(ws)
            expected = [
                w for w in pool
                if not any(v != w and embeds_exhaustive(v, w) for v in pool)
            ]
            assert minimal_words(ws) == tuple(sorted(expected, key=sort_key))

    def test_mixed_alphabets_rejected(self):
        u, v = ab().word("ab"), ab_ordered().word("b")
        for words in ([u, v], [v, v, u]):
            with pytest.raises(ValueError, match="different alphabets"):
                minimal_words(words)
            with pytest.raises(ValueError, match="different alphabets"):
                canonicalize(ab(), words)

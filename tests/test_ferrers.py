"""Ferrers tests: residual chains, regular-language chains, quadruple refuter."""

import random
from functools import reduce

import pytest

from higman.words import Alphabet, Word, concat
from higman.segments import (
    FinalSegment,
    concat_seg,
    contains,
    empty_segment,
    full_segment,
    segment,
)
from higman.automata import Dfa, complement, dfa_accepts, minimal_dfa
from higman import envelope
from higman.envelope import build_envelope
from higman.ferrers import (
    check_ferrers_equivalence,
    downset_dfa,
    is_ferrers_regular,
    is_ferrers_segment,
    is_linearly_orderable,
    quadruple_sample_test,
)
from helpers import (
    ab,
    ab_ordered,
    abc,
    abc_primed,
    count_calls,
    nonempty_words,
    regression_bases,
    regression_envelopes,
)
from oracles import (
    embeds_exhaustive,
    included,
    is_chain_oracle,
    separating_word_oracle,
)


def run_from(dfa: Dfa, state, w: Word) -> bool:
    q = state
    for a in w.symbols:
        q = dfa.delta[(q, a)]
    return q in dfa.accepting


def last_b_dfa() -> Dfa:
    # words ending in b
    A = ab()
    delta = {
        ("q0", "a"): "q0",
        ("q0", "b"): "q1",
        ("q1", "a"): "q0",
        ("q1", "b"): "q1",
    }
    return Dfa(A, ("q0", "q1"), "q0", frozenset({"q1"}), delta)


def exact_ab_dfa() -> Dfa:
    # the singleton language {ab}
    A = ab()
    delta = {
        ("s0", "a"): "s1",
        ("s0", "b"): "dead",
        ("s1", "a"): "dead",
        ("s1", "b"): "s2",
        ("s2", "a"): "dead",
        ("s2", "b"): "dead",
        ("dead", "a"): "dead",
        ("dead", "b"): "dead",
    }
    return Dfa(A, ("s0", "s1", "s2", "dead"), "s0", frozenset({"s2"}), delta)


def same_segment(P, Q) -> bool:
    return included(P, Q) and included(Q, P)


def ferrers_reference(F):
    """Right residuals walked breadth-first by single letters from the
    definition, compared by oracle inclusion: xa lies above a generator u
    iff x lies above u, or u = u'c with c <= a and x lies above u'."""
    A = F.alphabet
    found = [F]
    for R in found:  # the list grows while it is read: a FIFO queue
        for a in A.letters:
            S = FinalSegment(A, tuple(
                Word(A, u.symbols[:-1])
                if u.symbols and A.leq(u.symbols[-1], a) else u
                for u in R.basis
            ))
            if not any(same_segment(S, T) for T in found):
                found.append(S)
    for i, H in enumerate(found):
        for S in found[:i]:
            if not included(H, S) and not included(S, H):
                return False, (H, S)
    return True, None


class TestFerrersSegment:
    def test_matches_reference_walk(self):
        specs = (
            regression_bases(ab())
            + regression_bases(ab_ordered())
            + regression_bases(abc_primed(), max_gens=2, max_len=2)
            + [segment(abc(), "aaa", "bbb", "ccc")]
        )
        for F in specs:
            ok, witness = is_ferrers_segment(F)
            ref_ok, ref_witness = ferrers_reference(F)
            assert ok == ref_ok, F
            if not ok:
                assert all(map(same_segment, witness, ref_witness)), F

    def test_three_cubes_without_the_envelope(self):
        A = abc()
        misses = build_envelope.cache_info().misses
        ok, witness = is_ferrers_segment(segment(A, "aaa", "bbb", "ccc"))
        assert not ok
        assert witness == (
            segment(A, "bb", "aaa", "ccc"), segment(A, "aa", "bbb", "ccc")
        )
        assert build_envelope.cache_info().misses == misses

    def test_two_squares_witness(self):
        A = ab()
        ok, witness = is_ferrers_segment(segment(A, "aa", "bb"))
        assert not ok
        assert witness == (segment(A, "b", "aa"), segment(A, "a", "bb"))

    def test_two_orders_witness(self):
        A = ab()
        ok, witness = is_ferrers_segment(segment(A, "ab", "ba"))
        assert not ok
        assert witness == (segment(A, "a"), segment(A, "b"))

    @pytest.mark.parametrize("texts", [("ab",), ("",), ("a", "bb"), ("abab",)])
    def test_chains(self, texts):
        A = ab()
        assert is_ferrers_segment(segment(A, *texts)) == (True, None)

    def test_empty_segment(self):
        assert is_ferrers_segment(empty_segment(ab())) == (True, None)

    def test_ordered_alphabet(self):
        A = ab_ordered()
        assert is_ferrers_segment(segment(A, "b")) == (True, None)

    def test_three_letters(self):
        A = abc()
        assert is_ferrers_segment(segment(A, "ab")) == (True, None)
        ok, witness = is_ferrers_segment(segment(A, "ab", "ba"))
        assert not ok
        P, Q = witness
        assert not contains(P, Q.basis[0]) or not contains(Q, P.basis[0])


class TestFerrersRegular:
    def test_last_letter_b(self):
        assert is_ferrers_regular(last_b_dfa()) == (True, None)

    def test_singleton_word(self):
        ok, witness = is_ferrers_regular(exact_ab_dfa())
        assert not ok
        A = ab()
        assert witness == ("s0", "s1", A.word("ab"), A.word("b"))

    def test_witness_separates(self):
        dfa = exact_ab_dfa()
        _, (s, t, w_st, w_ts) = is_ferrers_regular(dfa)
        assert run_from(dfa, s, w_st) and not run_from(dfa, t, w_st)
        assert run_from(dfa, t, w_ts) and not run_from(dfa, s, w_ts)

    def test_witness_words_are_least_separating(self):
        A = ab()
        A1 = Alphabet(["a"])
        even = Dfa(
            A1, ("e", "o"), "e", frozenset({"e"}), {("e", "a"): "o", ("o", "a"): "e"}
        )
        machines = [
            last_b_dfa(),
            exact_ab_dfa(),
            minimal_dfa(segment(A, "aa", "bb")),
            minimal_dfa(segment(A, "ab")),
            downset_dfa(A.word("abab")),
            even,
        ]
        rng = random.Random(5)
        for _ in range(30):
            states = tuple(range(rng.randint(2, 4)))
            delta = {(q, a): rng.choice(states) for q in states for a in A.letters}
            accepting = frozenset(q for q in states if rng.random() < 0.5)
            machines.append(Dfa(A, states, 0, accepting, delta))
        witnesses = 0
        for dfa in machines + [complement(m) for m in machines]:
            ok, witness = is_ferrers_regular(dfa)
            if ok:
                continue
            s, t, w_st, w_ts = witness
            assert w_st == separating_word_oracle(dfa, s, t, 8)
            assert w_ts == separating_word_oracle(dfa, t, s, 8)
            witnesses += 1
        assert witnesses == 26

    def test_empty_language(self):
        A = ab()
        delta = {("q", "a"): "q", ("q", "b"): "q"}
        dfa = Dfa(A, ("q",), "q", frozenset(), delta)
        assert is_ferrers_regular(dfa) == (True, None)

    def test_closed_under_complement(self):
        A = ab()
        machines = [
            last_b_dfa(),
            exact_ab_dfa(),
            minimal_dfa(segment(A, "aa", "bb")),
            minimal_dfa(segment(A, "ab")),
            downset_dfa(A.word("abab")),
        ]
        for dfa in machines:
            assert (
                is_ferrers_regular(dfa)[0]
                == is_ferrers_regular(complement(dfa))[0]
            )

    def test_nondeterministic_input(self):
        A = ab()
        chain = build_envelope(segment(A, "ab")).automaton()
        assert is_ferrers_regular(chain)[0]
        square = build_envelope(segment(A, "aa", "bb")).automaton()
        assert not is_ferrers_regular(square)[0]

    def test_determinized_witness_is_pinned(self):
        # the subset construction runs on masks but labels its states with
        # frozensets of envelope elements; the witness must not change
        A = ab()
        env = build_envelope(segment(A, "aa", "bb"))
        ok, (s, t, w_st, w_ts) = is_ferrers_regular(env.automaton())
        top, a_b, a_bb, b_aa = env.elements[:4]
        assert not ok
        assert type(s) is frozenset and type(t) is frozenset
        assert s == {top, a_b, a_bb} and t == {top, a_b, b_aa}
        assert (a_b, a_bb, b_aa) == tuple(
            segment(A, *g) for g in (("a", "b"), ("a", "bb"), ("b", "aa"))
        )
        assert (w_st, w_ts) == (A.word("a"), A.word("b"))


class TestLinearlyOrderable:
    def test_cases(self):
        A = ab()
        assert is_linearly_orderable(build_envelope(segment(A, "ab")))
        assert not is_linearly_orderable(build_envelope(segment(A, "aa", "bb")))
        assert is_linearly_orderable(build_envelope(full_segment(A)))

    def test_agrees_with_pairwise_inclusion(self):
        verdicts = []
        for env in regression_envelopes():
            verdicts.append(is_linearly_orderable(env))
            assert verdicts[-1] == is_chain_oracle(env.elements)
        assert True in verdicts and False in verdicts

    def test_counts_on_masks_agree_with_counts_on_forms(self, monkeypatch):
        # the verdict is read on the extent masks, before any form or cover,
        # and equals one cover fewer than elements, counted on the masks and
        # on the forms
        forms = count_calls(monkeypatch, envelope, "_forms")
        covers = count_calls(monkeypatch, envelope, "_largest")
        for F in regression_bases() + regression_bases(ab_ordered()):
            env = build_envelope.__wrapped__(F)
            verdict = is_linearly_orderable(env)
            assert forms == [] and covers == []
            assert verdict == (env.cover_count() == len(env) - 1), F
            assert verdict == (len(env.hasse) == len(env.elements) - 1), F
            forms.clear()
            covers.clear()

    def test_equivalence_check_reads_no_envelope_form(self, monkeypatch):
        calls = count_calls(monkeypatch, envelope, "_forms")
        build_envelope.cache_clear()
        for F in (segment(ab(), "ab"), segment(ab(), "a" * 6, "b" * 6)):
            check_ferrers_equivalence(F)
            assert "elements" not in vars(build_envelope(F))
        assert calls == []


class TestCheckEquivalence:
    def test_pinned(self):
        A = ab()
        assert check_ferrers_equivalence(segment(A, "ab")) is True
        assert check_ferrers_equivalence(segment(A, "aa", "bb")) is False
        assert check_ferrers_equivalence(full_segment(A)) is True

    def test_regression_family_all_routes(self):
        for F in regression_bases(ab(), max_gens=2, max_len=2):
            verdict = check_ferrers_equivalence(F)
            assert verdict == is_ferrers_regular(minimal_dfa(F))[0]


class TestQuadrupleSampleTest:
    @staticmethod
    def uu_member(w: Word) -> bool:
        # the two-block language: two or more a's then two or more b's
        s = "".join(w.symbols)
        head = len(s) - len(s.lstrip("a"))
        return head >= 2 and len(s) - head >= 2 and set(s[head:]) <= {"b"}

    def test_two_block_language_refuted(self):
        A = ab()
        ok, witness = quadruple_sample_test(self.uu_member, A, 3)
        assert not ok
        assert witness == (
            A.word("a"), A.word("abb"), A.word("aab"), A.word("b"),
        )
        x, xp, y, yp = witness
        assert self.uu_member(concat(x, xp))
        assert self.uu_member(concat(y, yp))
        assert not self.uu_member(concat(x, yp))
        assert not self.uu_member(concat(y, xp))

    def test_textbook_quadruple(self):
        A = ab()
        x, xp, y, yp = (
            A.word("aab"), A.word("b"), A.word("a"), A.word("abb"),
        )
        assert self.uu_member(concat(x, xp))
        assert self.uu_member(concat(y, yp))
        assert not self.uu_member(concat(x, yp))
        assert not self.uu_member(concat(y, xp))

    def test_full_language_passes(self):
        assert quadruple_sample_test(lambda w: True, ab(), 2) == (True, None)

    def test_two_squares_refuted(self):
        A = ab()
        F = segment(A, "aa", "bb")
        ok, witness = quadruple_sample_test(lambda w: contains(F, w), A, 2)
        assert not ok
        assert witness == (A.word("a"), A.word("a"), A.word("b"), A.word("b"))

    def test_chain_segment_not_refuted(self):
        A = ab()
        F = segment(A, "ab")
        assert quadruple_sample_test(lambda w: contains(F, w), A, 3) == (
            True,
            None,
        )


class TestIdealsAndFilters:
    @pytest.mark.parametrize("alphabet,max_len", [(ab(), 4), (ab_ordered(), 3)])
    def test_all_short_words(self, alphabet, max_len):
        for u in nonempty_words(alphabet, max_len):
            assert is_ferrers_segment(segment(alphabet, str(u)))[0], str(u)
            down = downset_dfa(u)
            assert is_ferrers_regular(down)[0], str(u)
            assert is_ferrers_regular(complement(down))[0], str(u)


class TestConcatClosure:
    def test_random_products_of_principal_segments(self):
        A = ab()
        rng = random.Random(31)
        for _ in range(20):
            k = rng.choice([2, 3])
            factors = [
                segment(
                    A,
                    "".join(
                        rng.choice(A.letters)
                        for _ in range(rng.randint(1, 3))
                    ),
                )
                for _ in range(k)
            ]
            F = reduce(concat_seg, factors)
            assert is_ferrers_segment(F)[0], [str(f.basis) for f in factors]

    def test_ordered_alphabet_product(self):
        A = ab_ordered()
        F = concat_seg(segment(A, "b"), segment(A, "ab"))
        assert is_ferrers_segment(F)[0]


class TestDownsetDfa:
    @pytest.mark.parametrize(
        "alphabet,text",
        [(ab(), "abab"), (ab(), "ba"), (ab(), "aab"), (ab_ordered(), "ab")],
    )
    def test_matches_exhaustive_embedding(self, alphabet, text):
        u = alphabet.word(text)
        dfa = downset_dfa(u)
        for v in [alphabet.word("")] + nonempty_words(
            alphabet, len(u.symbols) + 1
        ):
            assert dfa_accepts(dfa, v) == embeds_exhaustive(v, u), str(v)


class TestUnaryConvexity:
    def test_known_machines(self):
        A1 = Alphabet(["a"])
        assert is_ferrers_regular(minimal_dfa(segment(A1, "aa")))[0]
        even = Dfa(
            A1,
            ("e", "o"),
            "e",
            frozenset({"e"}),
            {("e", "a"): "o", ("o", "a"): "e"},
        )
        assert not is_ferrers_regular(even)[0]

    def test_ferrers_implies_convex_lengths(self):
        A1 = Alphabet(["a"])
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 5)
            states = tuple(range(n))
            delta = {(q, "a"): rng.randrange(n) for q in states}
            accepting = frozenset(q for q in states if rng.random() < 0.5)
            dfa = Dfa(A1, states, 0, accepting, delta)
            if not is_ferrers_regular(dfa)[0]:
                continue
            window = 2 * n + 2
            hits = []
            q = dfa.start
            for k in range(window + 1):
                if q in dfa.accepting:
                    hits.append(k)
                q = dfa.delta[(q, "a")]
            if hits:
                lo, hi = min(hits), max(hits)
                assert hits == list(range(lo, hi + 1))

"""Minmax search, the minmax predicate, and the non-isomorphic pair."""

import json
from itertools import combinations

import pytest

from higman.words import Alphabet
from higman.segments import empty_segment, full_segment, segment
from higman.automata import (
    Automaton,
    _bits,
    _image,
    accepts,
    is_reflexive_involutive,
    language_equals_segment,
    saturate,
)
from higman import envelope
from higman.cli import main
from higman.envelope import build_envelope
from higman.minmax import (
    CapExceeded,
    _induced,
    _useful,
    is_minmax,
    reproduce_main_example,
    search_minmax,
)
from higman.minmax_pair import (
    alphabet6,
    automaton_one,
    automaton_two,
    language,
)
from helpers import ab, count_calls, induced, regression_envelopes, spec_document
from oracles import isomorphic_oracle, member, words_upto


def reference_minmax(env):
    """The minmax search from its definition: every induced subautomaton
    holding both base points, by size, judged by the full language check;
    the winners have the most transitions and are told apart with the
    brute-force isomorphism oracle."""
    F = env.y
    base = tuple(dict.fromkeys((env.x, env.y)))
    others = [P for P in env.elements if P not in base]
    for size in range(len(base), len(env.elements) + 1):
        found = [
            aut
            for extra in combinations(others, size - len(base))
            for aut in [induced(env, frozenset(base + extra))]
            if language_equals_segment(aut, F)[0]
        ]
        if found:
            best = max(len(a.system.transitions) for a in found)
            reps = []
            for aut in found:
                if len(aut.system.transitions) == best and not any(
                    isomorphic_oracle(aut, r) for r in reps
                ):
                    reps.append(aut)
            return reps, (size, best)
    raise AssertionError("the envelope automaton accepts F")


def full_envelope_minmax(env):
    """The mask search over subsets of every envelope element, as it was
    before the search kept to the useful elements."""
    F = env.y
    ts = env.transition_system()
    rows = list(ts._successors.values())
    x, y = ts._mask({env.x}), ts._mask({env.y})

    def accepts_basis(S):
        for u in F.basis:
            cur = x
            for a in u.symbols:
                cur = _image(ts._successors[a], cur) & S
            if not cur & y:
                return False
        return True

    def transitions(S):
        return sum((row[i] & S).bit_count() for i in _bits(S) for row in rows)

    n = len(env.elements)
    base = x | y
    k = base.bit_count()
    others = [1 << i for i in range(n) if not base >> i & 1]
    for size in range(k, n + 1):
        found = []
        for extra in combinations(others, size - k):
            S = base | sum(extra)
            if accepts_basis(S):
                found.append((S, transitions(S)))
        if found:
            best = max(t for _, t in found)
            reps = []
            for S in (S for S, t in found if t == best):
                aut = _induced(env, S)
                if not any(isomorphic(aut, r)[0] for r in reps):
                    reps.append(aut)
            return reps, (size, best)
    raise AssertionError("the envelope automaton accepts F")


def useful_states(env) -> set:
    """x, y and every state on an accepting run of a basis word of F, from
    the envelope's transition triples walked forward from x and backward
    from y."""
    F, T = env.y, env.transition_system().transitions
    useful = {env.x, env.y}
    for u in F.basis:
        ahead = [{env.x}]
        for a in u.symbols:
            ahead.append({q for p, b, q in T if b == a and p in ahead[-1]})
        behind = {env.y}
        for k in reversed(range(len(u.symbols))):
            a = u.symbols[k]
            behind = {p for p, b, q in T if b == a and q in behind}
            useful |= ahead[k] & behind
    return useful


def accepts_by_triples(aut: Automaton, w) -> bool:
    current = set(aut.initial)
    for a in w.symbols:
        current = {q for p, b, q in aut.system.transitions if b == a and p in current}
    return bool(current & aut.final)


class TestSearchMinmax:
    def test_chain_of_two(self):
        A = ab()
        results, (states, transitions) = search_minmax(segment(A, "ab"))
        assert len(results) == 1
        assert (states, transitions) == (3, 10)
        aut = results[0]
        assert set(aut.system.states) == set(
            build_envelope(segment(A, "ab")).elements
        )

    def test_single_letter(self):
        A = ab()
        results, (states, transitions) = search_minmax(segment(A, "a"))
        assert len(results) == 1
        assert (states, transitions) == (2, 6)

    def test_full_segment(self):
        A = ab()
        results, (states, transitions) = search_minmax(full_segment(A))
        assert len(results) == 1
        assert (states, transitions) == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            search_minmax(empty_segment(ab()))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            search_minmax(segment(ab(), "aa", "bb"), cap=3)

    def test_cap_is_tested_before_any_form(self, monkeypatch, tmp_path, capsys):
        # {a⁹,b⁹} has 48,620 elements: the search and the command line stop
        # after the mask build, with no form read
        calls = count_calls(monkeypatch, envelope, "_forms")
        F = segment(ab(), "a" * 9, "b" * 9)
        with pytest.raises(CapExceeded, match="48620 elements"):
            search_minmax(F, cap=20)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_document(F)), encoding="utf-8")
        assert main(["minmax", str(spec), "--cap", "20"]) == 3
        assert "cap exceeded" in capsys.readouterr().err
        assert calls == []
        build_envelope.cache_clear()

    @pytest.mark.parametrize("text", ["ab", "aba"])
    def test_chain_needs_every_level(self, text):
        A = ab()
        _, (states, _) = search_minmax(segment(A, text))
        assert states == len(text) + 1

    def test_two_squares(self):
        A = ab()
        results, (states, transitions) = search_minmax(
            segment(A, "aa", "bb")
        )
        assert len(results) == 1
        assert (states, transitions) == (4, 20)

    def test_two_orders_needs_whole_envelope(self):
        A = ab()
        F = segment(A, "ab", "ba")
        results, (states, transitions) = search_minmax(F)
        assert len(results) == 1
        assert (states, transitions) == (4, 16)
        assert states == len(build_envelope(F).elements)

    def test_results_are_clean_acceptors(self):
        A = ab()
        for texts in [("ab",), ("a",), ("aa", "bb"), ("ab", "ba")]:
            F = segment(A, *texts)
            results, (states, transitions) = search_minmax(F)
            for aut in results:
                assert is_reflexive_involutive(aut.system)
                assert language_equals_segment(aut, F) == (True, None)
                assert len(aut.system.states) == states
                assert len(aut.system.transitions) == transitions

    def test_basis_acceptance_decides_the_language(self):
        # every candidate of the search on the small regression envelopes:
        # both base points plus any set of other elements
        verdicts = []
        for env in regression_envelopes():
            if len(env.elements) > 8:
                continue
            F = env.y
            base = (env.x, env.y)
            others = [P for P in env.elements if P not in base]
            for k in range(len(others) + 1):
                for extra in combinations(others, k):
                    aut = induced(env, frozenset(base + extra))
                    by_basis = all(accepts(aut, u) for u in F.basis)
                    assert by_basis == language_equals_segment(aut, F)[0]
                    verdicts.append(by_basis)
        assert len(verdicts) == 682
        assert verdicts.count(True) == 86


    def test_agrees_with_the_reference_search(self):
        checked = 0
        for env in regression_envelopes():
            if len(env.elements) > 10:
                continue
            results, sizes = search_minmax(env.y)
            reps, ref_sizes = reference_minmax(env)
            assert sizes == ref_sizes, env.y
            assert len(results) == len(reps), env.y
            for aut in results:
                assert sum(isomorphic_oracle(aut, r) for r in reps) == 1, env.y
            checked += 1
        assert checked == 76

    def test_agrees_with_the_search_over_every_element(self):
        # every regression envelope has at most 20 elements
        for env in regression_envelopes():
            assert len(env.elements) <= 20
            ts = env.transition_system()
            results, sizes = search_minmax(env.y)
            assert (results, sizes) == full_envelope_minmax(env), env.y
            useful = useful_states(env)
            x, y = ts._mask({env.x}), ts._mask({env.y})
            assert _useful(ts, env.y.basis, x, y) == ts._mask(useful), env.y
            for aut in results:
                assert set(aut.system.states) <= useful, env.y


class TestUsefulStatesOnLargeEnvelopes:
    # cap counts envelope elements: each envelope here is far above the
    # default cap, although its useful elements are few
    @pytest.mark.parametrize(
        "letters, texts, elements, pins",
        [
            ("ab", ("aaaa", "bbbb"), 70, (8, 32, 1)),
            ("ab", ("aaaaa", "bbbbb"), 252, (10, 40, 1)),
            ("abc", ("aaa", "bbb", "ccc"), 980, (8, 42, 1)),
            ("ab", ("aaaaaa", "bbbbbb"), 924, (12, 48, 1)),
        ],
    )
    def test_pinned_and_checked_by_oracles(self, letters, texts, elements, pins):
        A = Alphabet(list(letters))
        F = segment(A, *texts)
        with pytest.raises(CapExceeded):
            search_minmax(F)
        with pytest.raises(CapExceeded):
            search_minmax(F, cap=elements - 1)
        results, (states, transitions) = search_minmax(F, cap=elements)
        assert (states, transitions, len(results)) == pins
        for aut in results:
            assert is_reflexive_involutive(aut.system)
            assert language_equals_segment(aut, F) == (True, None)
            assert len(aut.system.transitions) == transitions
            for w in words_upto(A, 5):
                assert accepts_by_triples(aut, w) == member(F.basis, w), w


class TestIsMinmax:
    def test_fixtures_are_minmax(self):
        L = language()
        assert is_minmax(automaton_one(), L)
        assert is_minmax(automaton_two(), L)

    def test_envelope_automaton_is_not(self):
        L = language()
        env = build_envelope(L)
        assert len(env.elements) == 8
        assert not is_minmax(env.automaton(), L)

    def test_wrong_language(self):
        A = ab()
        chain = build_envelope(segment(A, "ab")).automaton()
        assert not is_minmax(chain, segment(A, "a"))


class TestFixtures:
    def test_language_basis(self):
        L = language()
        assert tuple(str(u) for u in L.basis) == (
            "ab", "ac", "ba", "bc", "ca", "cb",
        )

    def test_raw_machines(self):
        A = alphabet6()
        one, two = automaton_one(), automaton_two()
        assert accepts(one, A.word("ab"))
        assert accepts(two, A.word("ab"))
        assert not is_reflexive_involutive(one.system)
        assert not is_reflexive_involutive(two.system)

    def test_saturated_counts(self):
        for m in (automaton_one(), automaton_two()):
            sat = saturate(m.system)
            assert len(sat.states) == 5
            assert len(sat.transitions) == 48


class TestReproduceMainExample:
    def test_report(self):
        report = reproduce_main_example()
        assert report == {
            "accepts_ab": True,
            "language_ok": True,
            "states": [5, 5],
            "transitions": [48, 48],
            "min_states": 5,
            "max_transitions": 48,
            "both_minmax": True,
            "isomorphic": False,
            "search_count": 2,
            "fixtures_match_search": True,
        }

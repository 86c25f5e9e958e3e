"""Minmax search, the minmax predicate, and the non-isomorphic pair."""

from itertools import combinations

import pytest

from higman.segments import empty_segment, full_segment, segment
from higman.automata import (
    Automaton,
    accepts,
    is_reflexive_involutive,
    language_equals_segment,
    saturate,
)
from higman.envelope import build_envelope
from higman.minmax import (
    CapExceeded,
    _induced,
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
from helpers import ab, regression_envelopes


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
                    aut = _induced(env, frozenset(base + extra))
                    by_basis = all(accepts(aut, u) for u in F.basis)
                    assert by_basis == language_equals_segment(aut, F)[0]
                    verdicts.append(by_basis)
        assert len(verdicts) == 682
        assert verdicts.count(True) == 86


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

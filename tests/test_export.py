"""DOT and JSON exporters: shape, determinism, and content spot checks."""

import json

from higman.segments import segment
from higman.automata import minimal_dfa
from higman.envelope import build_envelope
from higman.export import (
    automaton_payload,
    dfa_payload,
    dot_automaton,
    dot_dfa,
    dot_hasse,
    dot_transitions,
    envelope_payload,
)
from higman.minmax_pair import automaton_one
from helpers import ab


def square_pair_env():
    return build_envelope(segment(ab(), "aa", "bb"))


class TestDot:
    def test_hasse_lines(self):
        text = dot_hasse(square_pair_env())
        assert text.startswith("digraph hasse {")
        assert text.endswith("}\n")
        assert '"A*";' in text
        assert '"↑{aa,bb}"' in text
        # six nodes, and six covers in the diamond-on-a-stick shape
        lines = text.splitlines()
        assert sum(1 for l in lines if l.endswith(";") and "->" not in l and "rankdir" not in l and "node" not in l) == 6
        assert sum(1 for l in lines if "->" in l) == 6

    def test_hasse_covers_point_upward(self):
        env = square_pair_env()
        text = dot_hasse(env)
        assert '"↑{aa,bb}" -> "↑{aa,ab,ba,bb}";' in text
        assert '"↑{a,b}" -> "A*";' in text

    def test_transitions_suppresses_loops(self):
        env = square_pair_env()
        bare = dot_transitions(env)
        full = dot_transitions(env, include_loops=True)
        assert '"A*" -> "A*"' not in bare
        assert '"A*" -> "A*" [label="a,b"];' in full
        assert len(full.splitlines()) > len(bare.splitlines())

    def test_automaton_start_and_final(self):
        text = dot_automaton(square_pair_env().automaton())
        assert '"__start0" -> "A*";' in text
        assert '"↑{aa,bb}" [peripheries=2];' in text

    def test_automaton_string_states(self):
        text = dot_automaton(automaton_one())
        assert '"x" -> "p" [label="a"];' in text
        assert '"y" [peripheries=2];' in text

    def test_dfa(self):
        text = dot_dfa(minimal_dfa(segment(ab(), "ab")))
        assert text.startswith("digraph dfa {")
        assert '"__start0" -> "↑ab";' in text
        assert '"A*" [peripheries=2];' in text

    def test_deterministic(self):
        env = square_pair_env()
        assert dot_hasse(env) == dot_hasse(square_pair_env())
        assert dot_transitions(env) == dot_transitions(square_pair_env())


class TestPayloads:
    def test_envelope_payload(self):
        payload = envelope_payload(square_pair_env())
        assert payload["x"] == "A*"
        assert payload["y"] == "↑{aa,bb}"
        assert len(payload["elements"]) == 6
        assert len(payload["hasse"]) == 6
        assert len(payload["distances"]) == 36
        assert ["A*", "↑{aa,bb}", "↑{aa,bb}"] in payload["distances"]
        # d(P, P) = A* on the diagonal
        for name in payload["elements"]:
            assert [name, name, "A*"] in payload["distances"]
        json.dumps(payload)

    def test_automaton_payload(self):
        payload = automaton_payload(square_pair_env().automaton())
        assert payload["initial"] == ["A*"]
        assert payload["final"] == ["↑{aa,bb}"]
        assert len(payload["states"]) == 6
        assert all(len(t) == 3 for t in payload["transitions"])
        assert payload["transitions"] == sorted(payload["transitions"])

    def test_dfa_payload(self):
        dfa = minimal_dfa(segment(ab(), "ab"))
        payload = dfa_payload(dfa)
        assert payload["start"] == "↑ab"
        assert payload["accepting"] == ["A*"]
        # total: one triple per state and letter
        assert len(payload["delta"]) == len(payload["states"]) * 2

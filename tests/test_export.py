"""DOT and JSON exporters: shape, determinism, and content spot checks."""

import json

from higman import export
from higman.segments import segment
from higman.automata import minimal_dfa
from higman.envelope import build_envelope, dist
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
from higman.words import sort_key
from helpers import (
    ab,
    count_calls,
    output_under_another_hash_seed,
    regression_envelopes,
)
from oracles import format_segment_oracle


def square_pair_env():
    return build_envelope(segment(ab(), "aa", "bb"))


# The views written again as export wrote them before it named each state
# once: every node and every end of every edge is named afresh by
# oracles.format_segment_oracle, and elements and covers are sorted by the
# order of seg_keys, from its definition. Kept here, not in oracles.py, which
# the benchmark compiles afresh on every set-up.
def _seg_order(F) -> tuple:
    """Basis size, then each basis word's sort_key."""
    return (len(F.basis), tuple(map(sort_key, F.basis)))


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _sorted_covers_oracle(env) -> list:
    return sorted(env.hasse, key=lambda c: (_seg_order(c[0]), _seg_order(c[1])))


def dot_hasse_oracle(env) -> str:
    """export.dot_hasse written again: elements and covers sorted by their
    seg_keys order, every node and every end of every cover named afresh."""
    name = format_segment_oracle
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    lines += [f"  {_quoted(name(P))};" for P in sorted(env.elements, key=_seg_order)]
    for lo, hi in _sorted_covers_oracle(env):
        lines.append(f"  {_quoted(name(lo))} -> {_quoted(name(hi))};")
    return "\n".join(lines + ["}"]) + "\n"


def dot_transitions_oracle(env, include_loops: bool) -> str:
    """export.dot_transitions written again: y doubled, and one edge per
    pair of ends, each end named afresh, labeled by its sorted letters."""
    name = format_segment_oracle
    lines = ["digraph transitions {", "  node [shape=box];"]
    for P in sorted(env.elements, key=_seg_order):
        shape = " [peripheries=2]" if P is env.y else ""
        lines.append(f"  {_quoted(name(P))}{shape};")
    letters = {}
    for p, a, q in env.t_f:
        if p != q or include_loops:
            letters.setdefault((name(p), name(q)), set()).add(a)
    for (p, q), group in sorted(letters.items()):
        label = ",".join(sorted(group))
        lines.append(f"  {_quoted(p)} -> {_quoted(q)} [label={_quoted(label)}];")
    return "\n".join(lines + ["}"]) + "\n"


def envelope_payload_oracle(env) -> dict:
    """export.envelope_payload written again, naming every segment afresh
    wherever it appears."""
    name = format_segment_oracle
    elements = sorted(env.elements, key=_seg_order)
    return {
        "elements": [name(P) for P in elements],
        "x": name(env.x),
        "y": name(env.y),
        "hasse": [[name(lo), name(hi)] for lo, hi in _sorted_covers_oracle(env)],
        "transitions": sorted([name(p), a, name(q)] for p, a, q in env.t_f),
        "distances": [
            [name(P), name(Q), name(dist(env, P, Q))] for P in elements for Q in elements
        ],
    }


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


class TestNaming:
    def test_views_equal_a_reference_naming_every_end_afresh(self):
        """The views name each state once and list covers in the order of
        env.elements; a reference that names every edge end again and sorts
        covers by seg_keys writes the same bytes."""
        for env in regression_envelopes():
            assert dot_hasse(env) == dot_hasse_oracle(env)
            for loops in (False, True):
                assert dot_transitions(env, loops) == dot_transitions_oracle(env, loops)
            assert envelope_payload(env) == envelope_payload_oracle(env)

    def test_each_dot_view_names_each_state_once(self, monkeypatch):
        env = build_envelope(segment(ab(), "aaaa", "bbbb"))
        calls = count_calls(monkeypatch, export, "format_segment")
        views = (
            dot_hasse,
            dot_transitions,
            lambda env: dot_transitions(env, include_loops=True),
            lambda env: dot_automaton(env.automaton(), include_loops=True),
        )
        for view in views:
            calls.clear()
            view(env)
            assert len(calls) == len(set(calls)) <= len(env.elements)

    def test_the_payload_names_each_segment_once(self, monkeypatch):
        env = build_envelope(segment(ab(), "aaaa", "bbbb"))
        calls = count_calls(monkeypatch, export, "format_segment")
        payload = envelope_payload(env)
        assert len(calls) == len(set(calls))
        named = {name for pair in payload["distances"] for name in pair}
        assert len(calls) == len(named)


# an envelope of {aaa,bbb} built afresh, then each way out in turn: the
# number of its elements that hold their basis as Words after each
NO_BASIS_ON_THE_WAY_OUT = """
import contextlib, io, json, pickle, sys
from higman import cli
from higman.envelope import build_envelope
from higman.export import dot_hasse, dot_transitions, envelope_payload
from higman.segments import segment
from helpers import ab
env = build_envelope.__wrapped__(segment(ab(), "aaa", "bbb"))
counts = [sum("basis" in vars(P) for P in env.elements)]
for way_out in (
    dot_hasse,
    lambda env: dot_transitions(env, include_loops=True),
    envelope_payload,
    pickle.dumps,
):
    way_out(env)
    counts.append(sum("basis" in vars(P) for P in env.elements))
sys.stdin = io.StringIO('{"letters": ["a", "b"], "generators": ["aaa", "bbb"]}')
with contextlib.redirect_stdout(io.StringIO()) as listing:
    assert cli.main(["envelope", "-"]) == 0
assert len(listing.getvalue().splitlines()) == 1 + len(env)
counts.append(sum("basis" in vars(P) for P in env.elements))
print(json.dumps(counts))
"""


def test_no_element_builds_its_basis_on_the_way_out():
    """The DOT and JSON views, a pickle and the CLI listing write segments
    from their codes, so no element of a fresh envelope builds its Words;
    in a child process, as this one's segments are shared between tests."""
    counts = json.loads(output_under_another_hash_seed(NO_BASIS_ON_THE_WAY_OUT))
    assert counts == [0] * 6

"""Deterministic DOT and JSON views of envelopes and automata.

Every function returns a plain string or a plain dict built in one fixed
order, so writing the same object twice gives identical bytes.
"""

from .segments import FinalSegment, format_segment, seg_key
from .automata import Automaton, Dfa
from .envelope import EnvelopeLattice, dist


def _name(state) -> str:
    if isinstance(state, FinalSegment):
        return format_segment(state)
    return str(state)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _grouped_edges(transitions, include_loops: bool):
    """Merge parallel transitions into one edge labeled by its letters."""
    letters: dict = {}
    for p, a, q in transitions:
        if p == q and not include_loops:
            continue
        letters.setdefault((_name(p), _name(q)), set()).add(str(a))
    return sorted(
        (p, q, ",".join(sorted(group)))
        for (p, q), group in letters.items()
    )


def _sorted_covers(env: EnvelopeLattice) -> list:
    return sorted(env.hasse, key=lambda c: (seg_key(c[0]), seg_key(c[1])))


def _named_triples(transitions) -> list:
    """Transitions as sorted [p, a, q] lists of names."""
    return [
        list(t) for t in sorted((_name(p), str(a), _name(q)) for p, a, q in transitions)
    ]


def _dfa_triples(dfa: Dfa):
    return ((p, a, q) for (p, a), q in dfa.delta.items())


def _dot_machine(header, states, final, initial, transitions, include_loops) -> str:
    """The DOT view shared by every state machine: boxes with the final
    states doubled, a point arrow into each initial state, and one edge per
    state pair."""
    lines = [*header, "  node [shape=box];"]
    final_names = {_name(s) for s in final}
    for name in map(_name, states):
        shape = " [peripheries=2]" if name in final_names else ""
        lines.append(f"  {_quote(name)}{shape};")
    for i, name in enumerate(sorted(map(_name, initial))):
        lines.append(f'  "__start{i}" [shape=point];')
        lines.append(f'  "__start{i}" -> {_quote(name)};')
    for p, q, label in _grouped_edges(transitions, include_loops):
        lines.append(f"  {_quote(p)} -> {_quote(q)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_hasse(env: EnvelopeLattice) -> str:
    """Hasse diagram of the envelope, covers drawn upward."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for P in env.elements:
        lines.append(f"  {_quote(_name(P))};")
    for lower, upper in _sorted_covers(env):
        lines.append(f"  {_quote(_name(lower))} -> {_quote(_name(upper))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_transitions(env: EnvelopeLattice, include_loops: bool = False) -> str:
    """The envelope's transition graph, one edge per state pair."""
    return _dot_machine(
        ["digraph transitions {"], env.elements, [env.y], [], env.t_f, include_loops
    )


def dot_automaton(aut: Automaton, include_loops: bool = False) -> str:
    return _dot_machine(
        ["digraph automaton {", "  rankdir=LR;"],
        aut.system.states,
        aut.final,
        aut.initial,
        aut.system.transitions,
        include_loops,
    )


def dot_dfa(dfa: Dfa, include_loops: bool = False) -> str:
    return _dot_machine(
        ["digraph dfa {", "  rankdir=LR;"],
        dfa.states,
        dfa.accepting,
        [dfa.start],
        _dfa_triples(dfa),
        include_loops,
    )


def envelope_payload(env: EnvelopeLattice) -> dict:
    """Elements, base points, covers, transitions, and all distances."""
    return {
        "elements": [_name(P) for P in env.elements],
        "x": _name(env.x),
        "y": _name(env.y),
        "hasse": [[_name(lo), _name(hi)] for lo, hi in _sorted_covers(env)],
        "transitions": _named_triples(env.t_f),
        "distances": [
            [_name(P), _name(Q), _name(dist(env, P, Q))]
            for P in env.elements
            for Q in env.elements
        ],
    }


def automaton_payload(aut: Automaton) -> dict:
    return {
        "states": [_name(s) for s in aut.system.states],
        "transitions": _named_triples(aut.system.transitions),
        "initial": sorted(_name(s) for s in aut.initial),
        "final": sorted(_name(s) for s in aut.final),
    }


def dfa_payload(dfa: Dfa) -> dict:
    return {
        "states": [_name(s) for s in dfa.states],
        "start": _name(dfa.start),
        "accepting": sorted(_name(s) for s in dfa.accepting),
        "delta": _named_triples(_dfa_triples(dfa)),
    }


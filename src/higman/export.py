"""Deterministic DOT and JSON views of envelopes and automata.

Every function returns a plain string or a plain dict built in one fixed
order, so writing the same object twice gives identical bytes. Each view
names each state once, through its own cache of _name.
"""

from functools import cache

from .segments import FinalSegment, format_segment
from .automata import Automaton, Dfa
from .envelope import EnvelopeLattice, dist


def _name(state) -> str:
    if isinstance(state, FinalSegment):
        return format_segment(state)
    return str(state)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _grouped_edges(transitions, include_loops: bool, name):
    """Merge parallel transitions into one edge labeled by its letters."""
    letters: dict = {}
    for p, a, q in transitions:
        if p == q and not include_loops:
            continue
        letters.setdefault((name(p), name(q)), set()).add(str(a))
    return sorted((p, q, ",".join(sorted(group))) for (p, q), group in letters.items())


def _sorted_covers(env: EnvelopeLattice) -> list:
    rank = {P: i for i, P in enumerate(env.elements)}
    return sorted(env.hasse, key=lambda c: (rank[c[0]], rank[c[1]]))


def _named_triples(transitions, name) -> list:
    """Transitions as sorted [p, a, q] lists of names."""
    return list(map(list, sorted((name(p), str(a), name(q)) for p, a, q in transitions)))


def _dfa_triples(dfa: Dfa):
    return ((p, a, q) for (p, a), q in dfa.delta.items())


def _dot_machine(header, states, final, initial, transitions, include_loops) -> str:
    """The DOT view shared by every state machine: boxes with the final
    states doubled, a point arrow into each initial state, and one edge per
    state pair."""
    name = cache(_name)
    lines = [*header, "  node [shape=box];"]
    final_names = set(map(name, final))
    for text in map(name, states):
        shape = " [peripheries=2]" if text in final_names else ""
        lines.append(f"  {_quote(text)}{shape};")
    for i, text in enumerate(sorted(map(name, initial))):
        lines.append(f'  "__start{i}" [shape=point];')
        lines.append(f'  "__start{i}" -> {_quote(text)};')
    for p, q, label in _grouped_edges(transitions, include_loops, name):
        lines.append(f"  {_quote(p)} -> {_quote(q)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_hasse(env: EnvelopeLattice) -> str:
    """Hasse diagram of the envelope, covers drawn upward."""
    name = cache(_name)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for P in env.elements:
        lines.append(f"  {_quote(name(P))};")
    for lower, upper in _sorted_covers(env):
        lines.append(f"  {_quote(name(lower))} -> {_quote(name(upper))};")
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
    name = cache(_name)
    return {
        "elements": [name(P) for P in env.elements],
        "x": name(env.x),
        "y": name(env.y),
        "hasse": [[name(lo), name(hi)] for lo, hi in _sorted_covers(env)],
        "transitions": _named_triples(env.t_f, name),
        "distances": [
            [name(P), name(Q), name(dist(env, P, Q))]
            for P in env.elements
            for Q in env.elements
        ],
    }


def automaton_payload(aut: Automaton) -> dict:
    name = cache(_name)
    return {
        "states": list(map(name, aut.system.states)),
        "transitions": _named_triples(aut.system.transitions, name),
        "initial": sorted(map(name, aut.initial)),
        "final": sorted(map(name, aut.final)),
    }


def dfa_payload(dfa: Dfa) -> dict:
    name = cache(_name)
    return {
        "states": list(map(name, dfa.states)),
        "start": name(dfa.start),
        "accepting": sorted(map(name, dfa.accepting)),
        "delta": _named_triples(_dfa_triples(dfa), name),
    }


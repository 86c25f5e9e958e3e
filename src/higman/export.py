"""Deterministic DOT and JSON views of envelopes, automata, and up-sets.

Every function returns a plain string or a plain dict built in one fixed
order, so writing the same object twice gives identical bytes.
"""

from .segments import FinalSegment, format_segment, seg_key
from .automata import Automaton, Dfa
from .envelope import EnvelopeLattice, dist
from .chainprod import UpSet


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


def dot_hasse(env: EnvelopeLattice) -> str:
    """Hasse diagram of the envelope, covers drawn upward."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for P in env.elements:
        lines.append(f"  {_quote(_name(P))};")
    for lower, upper in sorted(
        env.hasse, key=lambda pair: (seg_key(pair[0]), seg_key(pair[1]))
    ):
        lines.append(f"  {_quote(_name(lower))} -> {_quote(_name(upper))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_transitions(env: EnvelopeLattice, include_loops: bool = False) -> str:
    """The envelope's transition graph, one edge per state pair."""
    lines = ["digraph transitions {", "  node [shape=box];"]
    for P in env.elements:
        shape = ' [peripheries=2]' if P == env.y else ""
        lines.append(f"  {_quote(_name(P))}{shape};")
    for p, q, label in _grouped_edges(env.t_f, include_loops):
        lines.append(f"  {_quote(p)} -> {_quote(q)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_automaton(aut: Automaton, include_loops: bool = False) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=box];"]
    names = [_name(s) for s in aut.system.states]
    final = sorted(_name(s) for s in aut.final)
    initial = sorted(_name(s) for s in aut.initial)
    for name in names:
        shape = " [peripheries=2]" if name in final else ""
        lines.append(f"  {_quote(name)}{shape};")
    for i, name in enumerate(initial):
        lines.append(f'  "__start{i}" [shape=point];')
        lines.append(f'  "__start{i}" -> {_quote(name)};')
    for p, q, label in _grouped_edges(aut.system.transitions, include_loops):
        lines.append(f"  {_quote(p)} -> {_quote(q)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_dfa(dfa: Dfa, include_loops: bool = False) -> str:
    lines = ["digraph dfa {", "  rankdir=LR;", "  node [shape=box];"]
    names = [_name(s) for s in dfa.states]
    accepting = {_name(s) for s in dfa.accepting}
    for name in names:
        shape = " [peripheries=2]" if name in accepting else ""
        lines.append(f"  {_quote(name)}{shape};")
    lines.append('  "__start0" [shape=point];')
    lines.append(f'  "__start0" -> {_quote(_name(dfa.start))};')
    triples = [(p, a, q) for (p, a), q in dfa.delta.items()]
    for p, q, label in _grouped_edges(triples, include_loops):
        lines.append(f"  {_quote(p)} -> {_quote(q)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def envelope_payload(env: EnvelopeLattice) -> dict:
    """Elements, base points, covers, transitions, and all distances."""
    return {
        "elements": [_name(P) for P in env.elements],
        "x": _name(env.x),
        "y": _name(env.y),
        "hasse": [
            [_name(lo), _name(hi)]
            for lo, hi in sorted(
                env.hasse, key=lambda c: (seg_key(c[0]), seg_key(c[1]))
            )
        ],
        "transitions": [
            [p, a, q]
            for p, a, q in sorted(
                (_name(P), str(a), _name(Q)) for P, a, Q in env.t_f
            )
        ],
        "distances": [
            [_name(P), _name(Q), _name(dist(env, P, Q))]
            for P in env.elements
            for Q in env.elements
        ],
    }


def automaton_payload(aut: Automaton) -> dict:
    return {
        "states": [_name(s) for s in aut.system.states],
        "transitions": [
            [p, a, q]
            for p, a, q in sorted(
                (_name(P), str(a), _name(Q))
                for P, a, Q in aut.system.transitions
            )
        ],
        "initial": sorted(_name(s) for s in aut.initial),
        "final": sorted(_name(s) for s in aut.final),
    }


def dfa_payload(dfa: Dfa) -> dict:
    return {
        "states": [_name(s) for s in dfa.states],
        "start": _name(dfa.start),
        "accepting": sorted(_name(s) for s in dfa.accepting),
        "delta": [
            [p, a, q]
            for p, a, q in sorted(
                (_name(s), str(a), _name(t)) for (s, a), t in dfa.delta.items()
            )
        ],
    }


def upset_payload(Y: UpSet) -> dict:
    return {
        "dims": list(Y.product.dims),
        "min_tuples": [list(t) for t in Y.mintuples],
    }

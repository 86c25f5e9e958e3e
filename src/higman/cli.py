"""Command-line front end.

Problems arrive as JSON documents:

    {
      "spec_version": 1,
      "letters": ["a", "b"],
      "order": [["a", "b"]],
      "involution": {"a": "b"},
      "generators": ["ab", "ba"]
    }

letters and generators are required; order defaults to the trivial order,
involution to the identity, and spec_version to 1. Letters are single
characters unless written in brackets inside generator words: "a[b']c"
is the three letters a, b', c. Exit codes: 0 answer produced, 1 a
verification check failed, 2 malformed input, 3 a size cap exceeded.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

from .words import Alphabet
from .segments import (
    FinalSegment,
    canonicalize,
    concat_seg,
    format_segment,
    involute_seg,
    is_full,
    product_in,
)
from .automata import (
    Automaton,
    accepted_basis,
    language_equals_segment,
    min_dfa_morphism,
    minimal_dfa,
)
from .envelope import (
    algebra_distance,
    as_pointed,
    build_envelope,
    check_convexity,
    decompose,
    dist,
    metric_form_pair,
    no_proper_isometric_subspace,
    verify_sum_theorem,
)
from .chainprod import count_upsets, phi, psi
from .ferrers import check_ferrers_equivalence, is_ferrers_segment
from .minmax import CapExceeded, search_minmax
from .export import (
    automaton_payload,
    dfa_payload,
    dot_automaton,
    dot_dfa,
    dot_hasse,
    dot_transitions,
    envelope_payload,
)


class SpecError(Exception):
    """Malformed problem document, with a JSON-pointer-style location."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or 'document root'}: {message}")
        self.pointer = pointer
        self.message = message


@dataclass(frozen=True)
class ProblemSpec:
    alphabet: Alphabet
    generators: tuple

    def segment(self) -> FinalSegment:
        return canonicalize(self.alphabet, list(self.generators))


_FIELDS = ("spec_version", "letters", "order", "involution", "generators")


def parse_problem_spec(data) -> ProblemSpec:
    if not isinstance(data, dict):
        raise SpecError("", "expected a JSON object")
    for key in data:
        if key not in _FIELDS:
            raise SpecError(f"/{key}", "unknown field")
    version = data.get("spec_version", 1)
    if version != 1:
        raise SpecError("/spec_version", f"unsupported version {version!r}")

    if "letters" not in data:
        raise SpecError("/letters", "required field missing")
    letters = data["letters"]
    if not isinstance(letters, list) or not letters:
        raise SpecError("/letters", "expected a nonempty array of strings")
    for i, a in enumerate(letters):
        if not isinstance(a, str):
            raise SpecError(f"/letters/{i}", "expected a string")

    order = data.get("order", [])
    if not isinstance(order, list):
        raise SpecError("/order", "expected an array of letter pairs")
    for i, pair in enumerate(order):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(a, str) for a in pair)
        ):
            raise SpecError(f"/order/{i}", "expected a pair of letters")

    involution = data.get("involution", {})
    if not isinstance(involution, dict) or not all(
        isinstance(v, str) for v in involution.values()
    ):
        raise SpecError("/involution", "expected an object mapping letters to letters")

    # constructed in stages so a failure points at the field that caused it
    try:
        Alphabet(letters)
    except ValueError as e:
        raise SpecError("/letters", str(e)) from None
    try:
        Alphabet(letters, [tuple(p) for p in order])
    except ValueError as e:
        raise SpecError("/order", str(e)) from None
    try:
        alphabet = Alphabet(letters, [tuple(p) for p in order], involution)
    except ValueError as e:
        raise SpecError("/involution", str(e)) from None

    if "generators" not in data:
        raise SpecError("/generators", "required field missing")
    generators = data["generators"]
    if not isinstance(generators, list):
        raise SpecError("/generators", "expected an array of words")
    words = []
    for i, text in enumerate(generators):
        if not isinstance(text, str):
            raise SpecError(f"/generators/{i}", "expected a string")
        try:
            words.append(alphabet.word(text))
        except ValueError as e:
            raise SpecError(f"/generators/{i}", str(e)) from None
    return ProblemSpec(alphabet, tuple(words))


def load_spec(path: str) -> ProblemSpec:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise SpecError("", str(e)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError("", f"invalid JSON: {e}") from None
    except RecursionError:
        raise SpecError("", "invalid JSON: nested too deeply") from None
    return parse_problem_spec(data)


def _emit(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, payload) -> None:
    _write(path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def cmd_envelope(args) -> int:
    F = load_spec(args.spec).segment()
    env = build_envelope(F)
    print(_count(len(env.elements), "element"))
    for P in env.elements:
        print(format_segment(P))
    if args.dot:
        _write(
            args.dot,
            dot_hasse(env) + "\n" + dot_transitions(env, include_loops=args.loops),
        )
    if args.json:
        _write_json(args.json, envelope_payload(env))
    return 0


def cmd_ferrers(args) -> int:
    F = load_spec(args.spec).segment()
    verdict, witness = is_ferrers_segment(F)
    _emit(
        {
            "ferrers": verdict,
            "witness": None
            if witness is None
            else [format_segment(P) for P in witness],
        }
    )
    return 0


def cmd_decompose(args) -> int:
    F = load_spec(args.spec).segment()
    _emit([format_segment(G) for G in decompose(F)])
    return 0


def cmd_minmax(args) -> int:
    F = load_spec(args.spec).segment()
    results, (states, transitions) = search_minmax(F, cap=args.cap)
    _emit({"states": states, "transitions": transitions, "count": len(results)})
    if args.dot:
        _write(
            args.dot,
            "\n".join(dot_automaton(a, include_loops=args.loops) for a in results),
        )
    if args.json:
        _write_json(args.json, [automaton_payload(a) for a in results])
    return 0


def cmd_mindfa(args) -> int:
    F = load_spec(args.spec).segment()
    dfa = minimal_dfa(F)
    print(_count(len(dfa.states), "state"))
    if args.dot:
        _write(args.dot, dot_dfa(dfa, include_loops=args.loops))
    if args.json:
        _write_json(args.json, dfa_payload(dfa))
    return 0


def cmd_count(args) -> int:
    for d in args.dims:
        if d < 1:
            print(f"error: chain length {d} is not positive", file=sys.stderr)
            return 2
    print(count_upsets(tuple(args.dims)))
    return 0


def _verify_checks(F: FinalSegment):
    """Yield (name, thunk) pairs; a thunk returns a detail string or raises."""
    env = build_envelope(F)
    elements = env.elements

    def envelope_size():
        return _count(len(elements), "element")

    def envelope_language():
        ok, counterexample = language_equals_segment(env.automaton(), F)
        assert ok, f"word {counterexample} separates the acceptor from the segment"
        return "acceptor matches the segment"

    def distance_identity():
        # dist is algebraic; the path language is its independent oracle
        ts = env.transition_system()
        for P in elements:
            for Q in elements:
                d = dist(env, P, Q)
                pair = f"d({format_segment(P)}, {format_segment(Q)})"
                paths = accepted_basis(Automaton(ts, frozenset({P}), frozenset({Q})))
                assert paths == d, (
                    f"{pair} = {format_segment(d)} but the path language is "
                    f"{format_segment(paths)}"
                )
                assert is_full(d) == (P == Q), f"{pair} fails identity"
        return _count(len(elements) ** 2, "pair")

    def distance_triangle():
        for P in elements:
            for Q in elements:
                for R in elements:
                    assert product_in(
                        dist(env, P, Q), dist(env, Q, R), dist(env, P, R)
                    ), f"triangle fails through {format_segment(Q)}"
        return _count(len(elements) ** 3, "triple")

    def distance_involution():
        for P in elements:
            for Q in elements:
                assert dist(env, Q, P) == involute_seg(dist(env, P, Q))
        return "symmetric under involution"

    def duality():
        forms = {P: metric_form_pair(env, P) for P in elements}
        for P in elements:
            for Q in elements:
                hx, hy = forms[P]
                gx, gy = forms[Q]
                assert algebra_distance(hx, gx) == algebra_distance(hy, gy), (
                    f"forms of {format_segment(P)} and {format_segment(Q)} disagree"
                )
        return "metric forms agree on both coordinates"

    def convexity():
        ok, witnesses = check_convexity(env)
        assert ok, f"{len(witnesses)} non-convex splits"
        return "all splits realized"

    def proper_subspace():
        assert no_proper_isometric_subspace(as_pointed(env))
        return "envelope is minimal"

    def round_trip():
        if is_full(F):
            return "skipped: the full segment has no letter generators"
        for X in elements:
            Y = phi(env, X)
            back = psi(Y.product, Y, env.y.basis)
            assert back == X, f"{format_segment(X)} does not come back"
        return f"{len(elements)} elements"

    def ferrers_equivalence():
        verdict = check_ferrers_equivalence(F)
        return f"both tests say {str(verdict).lower()}"

    def sum_theorem():
        factors = decompose(F)
        if len(factors) < 2:
            return "skipped: no proper factorization"
        rest = reduce(concat_seg, factors[1:])
        assert verify_sum_theorem(factors[0], rest), (
            f"gluing fails at {format_segment(factors[0])}"
        )
        return f"split {format_segment(factors[0])} / {format_segment(rest)}"

    def dfa_morphism():
        image = min_dfa_morphism(F, env)
        return _count(len(image), "state") + " mapped into the envelope"

    yield "envelope", envelope_size
    yield "envelope language", envelope_language
    yield "distance identity", distance_identity
    yield "distance triangle", distance_triangle
    yield "distance involution", distance_involution
    yield "duality", duality
    yield "convexity", convexity
    yield "no proper isometric subspace", proper_subspace
    yield "round trip", round_trip
    yield "ferrers equivalence", ferrers_equivalence
    yield "sum theorem", sum_theorem
    yield "minimal dfa morphism", dfa_morphism


def cmd_verify(args) -> int:
    F = load_spec(args.spec).segment()
    for name, thunk in _verify_checks(F):
        try:
            detail = thunk()
        except AssertionError as e:
            print(f"FAIL: {name}: {e}")
            return 1
        print(f"ok: {name} ({detail})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higman",
        description="Final segments of the free ordered monoid: "
        "envelopes, automata, Ferrers tests, counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_command(name, help_text, func, caps=False, exports=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON problem document, or - for stdin")
        if caps:
            p.add_argument(
                "--cap",
                type=int,
                default=20,
                help="largest envelope the search will accept (default 20)",
            )
        if exports:
            p.add_argument("--dot", metavar="PATH", help="write DOT views to PATH")
            p.add_argument("--json", metavar="PATH", help="write a JSON dump to PATH")
            p.add_argument(
                "--loops",
                action="store_true",
                help="keep the reflexive loops in DOT output",
            )
        p.set_defaults(func=func)
        return p

    spec_command(
        "envelope", "build the envelope and list its elements", cmd_envelope,
        exports=True,
    )
    spec_command("ferrers", "test the Ferrers property", cmd_ferrers)
    spec_command(
        "decompose", "factor into irreducible segments", cmd_decompose
    )
    spec_command(
        "minmax", "search for all minmax acceptors", cmd_minmax,
        caps=True, exports=True,
    )
    spec_command(
        "mindfa", "build the minimal deterministic acceptor", cmd_mindfa,
        exports=True,
    )

    p_count = sub.add_parser("count", help="count up-sets of a product of chains")
    p_count.add_argument("dims", type=int, nargs="+", help="chain lengths")
    p_count.set_defaults(func=cmd_count)

    spec_command("verify", "run the full invariant suite", cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as e:
        print(f"spec error at {e.pointer or 'document root'}: {e.message}",
              file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared alphabets, the regression family, an independent transition rule,
a segment-level quotient closure, the package's caches, a call-counting spy,
and a child process under another hash seed."""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import higman
from higman.words import Alphabet, Word, concat, embeds, sort_key
from higman.segments import FinalSegment, canonicalize, contains, left_residual
from higman.automata import Automaton, TransitionSystem
from higman.envelope import build_envelope


def ab() -> Alphabet:
    """Two letters, no order between them, identity involution."""
    return Alphabet(["a", "b"])


def ab_ordered() -> Alphabet:
    """Two letters with a <= b."""
    return Alphabet(["a", "b"], order=[("a", "b")])


def abc() -> Alphabet:
    return Alphabet(["a", "b", "c"])


def abc_primed() -> Alphabet:
    """Six letters, trivial order, involution swapping primed and unprimed."""
    return Alphabet(
        ["a", "b", "c", "a'", "b'", "c'"],
        involution={"a": "a'", "b": "b'", "c": "c'"},
    )


def nonempty_words(A: Alphabet, max_len: int) -> list[Word]:
    out = []
    for k in range(1, max_len + 1):
        out.extend(
            sorted((Word(A, syms) for syms in product(A.letters, repeat=k)), key=sort_key)
        )
    return out


def regression_bases(alphabet=None, max_gens=3, max_len=3) -> list[FinalSegment]:
    """All antichain bases with <= max_gens generators of length <= max_len,
    plus A* (the basis holding the empty word alone). Deterministic order.
    """
    A = alphabet or ab()
    pool = nonempty_words(A, max_len)
    out = [canonicalize(A, [A.word("")])]
    for size in range(1, max_gens + 1):
        for combo in combinations(pool, size):
            if all(
                not embeds(u, v) and not embeds(v, u)
                for u, v in combinations(combo, 2)
            ):
                # pool is canonically sorted, so combo is a canonical basis
                out.append(FinalSegment(A, combo))
    return out


def regression_segments() -> list[FinalSegment]:
    """Every nonempty a <= b regression basis and forty sampled nonempty
    a, b ones (seeded)."""
    sampled = [F for F in regression_bases(ab()) if F.basis]
    random.Random(31).shuffle(sampled)
    ordered = [F for F in regression_bases(ab_ordered()) if F.basis]
    return ordered + sampled[:40]


def regression_envelopes() -> list:
    """The envelopes of the regression segments."""
    return [build_envelope(F) for F in regression_segments()]


def spec_document(F: FinalSegment) -> dict:
    """A problem document whose segment is F."""
    A = F.alphabet
    letters = A.letters
    return {
        "letters": list(letters),
        "order": [[a, b] for a in letters for b in letters if a != b and A.leq(a, b)],
        "involution": {a: A.bar(a) for a in letters if A.bar(a) != a},
        "generators": [str(w) for w in F.basis],
    }


def times_letter_in(P: FinalSegment, a: str, Q: FinalSegment) -> bool:
    """P concatenated with the up-set of letter a lies inside Q.

    Re-stated here independently of the package internals so tests can
    cross-check transition sets.
    """
    A = P.alphabet
    return all(contains(Q, concat(p, Word(A, (a,)))) for p in P.basis)


def tf_system(A: Alphabet, elements) -> TransitionSystem:
    """Transition system on the given segments per the two-inclusion rule."""
    trans = set()
    for P in elements:
        for Q in elements:
            for a in A.letters:
                if times_letter_in(P, a, Q) and times_letter_in(Q, A.bar(a), P):
                    trans.add((P, a, Q))
    return TransitionSystem(A, tuple(elements), frozenset(trans))


def quotient_closure(F: FinalSegment) -> tuple[list, dict]:
    """F's left quotients by single letters through the public
    left_residual, closed breadth-first in letter order, and the map
    (L, a) -> a^-1 L: the minimal automaton of F on segments, for checking
    the package's own walk of it."""
    A = F.alphabet
    states, delta = [F], {}
    for L in states:
        for a in A.letters:
            M = delta[L, a] = left_residual(Word(A, (a,)), L)
            if M not in states:
                states.append(M)
    return states, delta


def induced(env, subset: frozenset) -> Automaton:
    """The subautomaton of the envelope automaton on the elements in subset,
    by a scan of the envelope's transition triples."""
    states = tuple(P for P in env.elements if P in subset)
    trans = frozenset(
        (P, a, Q) for (P, a, Q) in env.t_f if P in subset and Q in subset
    )
    system = TransitionSystem(env.alphabet, states, trans)
    return Automaton(system, frozenset({env.x}), frozenset({env.y}))


def package_caches() -> dict:
    """Qualified name -> every module-level lru_cache of the package, found
    by its cache_clear method, as the benchmark finds them."""
    caches = {}
    for info in pkgutil.iter_modules(higman.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        mod = importlib.import_module(f"higman.{info.name}")
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def clear_caches() -> None:
    for cache in package_caches().values():
        cache.cache_clear()


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that logs each call's arguments in
    the returned list and then calls the original."""
    original, calls = getattr(module, name), []

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def output_under_another_hash_seed(script: str) -> bytes:
    """The stdout of a Python script run as a child process whose
    PYTHONHASHSEED differs from this process's, with src/ and tests/ on its
    path: str hashes differ between the two."""
    root = Path(__file__).resolve().parent.parent
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        capture_output=True,
        check=True,
        timeout=60,
    ).stdout

"""Per-layer tracing from outside the package.

The tracer replaces chosen public functions of the higman modules with
wrappers that record spans (calls, total and self time) or only count calls.
A module that did `from .x import f` holds its own reference to f, so every
`higman.*` namespace that binds the original object is rebound, and calls
between modules and within one module both pass through the wrapper.

Self time is a span's duration minus the time covered by its child spans.
Spans are aggregated in memory per name and per (parent, child) edge, and
written once, when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, function); these get timed spans. build_envelope
# and the public functions of export get theirs in Tracer.install.
SPANS = {
    "words.min_upper_bounds": ("words", "min_upper_bounds"),
    "words.minimal_words": ("words", "minimal_words"),
    "segments.intersect": ("segments", "intersect"),
    "segments.subset_of": ("segments", "subset_of"),
    "segments.concat_seg": ("segments", "concat_seg"),
    "envelope.dist": ("envelope", "dist"),
    "envelope.check_convexity": ("envelope", "check_convexity"),
    "envelope.no_proper_isometric_subspace": ("envelope", "no_proper_isometric_subspace"),
    "automata.accepted_basis": ("automata", "accepted_basis"),
    "automata.language_equals_segment": ("automata", "language_equals_segment"),
    "automata.isomorphic": ("automata", "isomorphic"),
    "minmax.search_minmax": ("minmax", "search_minmax"),
    "chainprod.phi": ("chainprod", "phi"),
    "chainprod.psi": ("chainprod", "psi"),
    "chainprod.count_upsets": ("chainprod", "count_upsets"),
    "ferrers.is_ferrers_segment": ("ferrers", "is_ferrers_segment"),
}

# hot functions: a call counter only, since a timed span would dwarf them
COUNTERS = {
    "words.embeds": ("words", "embeds"),
    "segments.canonicalize": ("segments", "canonicalize"),
}

# (ancestor, span): calls of span made while ancestor is open
NESTED = (
    ("envelope.build_envelope", "segments.intersect"),
    ("minmax.search_minmax", "automata.language_equals_segment"),
)


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (parent, name) -> calls
        self.counts: Counter = Counter()
        self._stack: list = []  # open spans: [name, child_s]
        self._open: Counter = Counter()
        self._restore: list = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.counts.clear()

    def _span(self, name: str, fn, after=None, probe=None):
        stats, stack, edges, counts, opened = (
            self.stats, self._stack, self.edges, self.counts, self._open
        )
        nested = [outer for outer, inner in NESTED if inner == name]

        def wrapper(*args, **kwargs):
            for outer in nested:
                if opened[outer]:
                    counts[f"{outer}>{name}"] += 1
            frame = [name, 0.0]
            edges[(stack[-1][0] if stack else None, name)] += 1
            stack.append(frame)
            opened[name] += 1
            mark = probe() if probe else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                opened[name] -= 1
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None and (probe is None or probe() != mark):
                after(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the traced functions; modules maps short names to modules."""
        replacements = {}
        for name, (mod, fn_name) in SPANS.items():
            original = getattr(modules[mod], fn_name)
            replacements[id(original)] = (original, self._span(name, original))
        # count what build_envelope built, not what its cache handed back
        build = getattr(modules["envelope"], "build_envelope")
        replacements[id(build)] = (build, self._span(
            "envelope.build_envelope", build, self._count_envelope,
            lambda: build.cache_info().misses,
        ))
        for name, (mod, fn_name) in COUNTERS.items():
            original = getattr(modules[mod], fn_name)
            replacements[id(original)] = (original, self._counter(name, original))
        export = modules["export"]
        for fn_name, original in vars(export).items():
            if (
                not fn_name.startswith("_")
                and callable(original)
                and getattr(original, "__module__", None) == export.__name__
            ):
                replacements[id(original)] = (original, self._span("export", original, self._count_bytes))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "higman" or mod_name.startswith("higman.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _count_envelope(self, env) -> None:
        self.counts["envelope.elements"] += len(env.elements)
        self.counts["envelope.transitions"] += len(env.t_f)

    def _count_bytes(self, result) -> None:
        if not isinstance(result, str):
            result = json.dumps(result, ensure_ascii=False)
        self.counts["export.bytes"] += len(result.encode("utf-8"))

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.stats.items()},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counts": dict(self.counts),
        }


def _ratio(hits_misses) -> float:
    hits, misses = hits_misses
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(snap: dict, cache_info: dict) -> dict:
    """Per-layer metric values of one traced pass; cache_info maps cache
    names to (hits, misses)."""
    spans, counts = snap["spans"], snap["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    elements = counts.get("envelope.elements", 0)
    under_build = counts.get("envelope.build_envelope>segments.intersect", 0)
    m = {
        "words.min_upper_bounds.calls": calls("words.min_upper_bounds"),
        "words.min_upper_bounds.self_s": self_s("words.min_upper_bounds"),
        "words.minimal_words.self_s": self_s("words.minimal_words"),
        "words.embeds.calls": counts.get("words.embeds", 0),
        "segments.intersect.calls": calls("segments.intersect"),
        "segments.intersect.self_s": self_s("segments.intersect"),
        "segments.canonicalize.calls": counts.get("segments.canonicalize", 0),
        "segments.subset_of.self_s": self_s("segments.subset_of"),
        "segments.concat_seg.self_s": self_s("segments.concat_seg"),
        "segments.right_residual.hit_ratio": _ratio(cache_info["segments.right_residual"]),
        "segments.left_residual.hit_ratio": _ratio(cache_info["segments.left_residual"]),
        "envelope.build_envelope.self_s": self_s("envelope.build_envelope"),
        "envelope.intersect_per_element": under_build / elements if elements else 0.0,
        "envelope.elements": elements,
        "envelope.transitions": counts.get("envelope.transitions", 0),
        "envelope.dist.calls": calls("envelope.dist"),
        "envelope.dist.self_s": self_s("envelope.dist"),
        "envelope.dist.hit_ratio": _ratio(cache_info["envelope.dist"]),
        "envelope.check_convexity.self_s": self_s("envelope.check_convexity"),
        "envelope.no_proper_isometric_subspace.self_s": self_s("envelope.no_proper_isometric_subspace"),
        "automata.accepted_basis.calls": calls("automata.accepted_basis"),
        "automata.accepted_basis.self_s": self_s("automata.accepted_basis"),
        "automata.language_equals_segment.calls": calls("automata.language_equals_segment"),
        "automata.language_equals_segment.self_s": self_s("automata.language_equals_segment"),
        "automata.minimal_dfa.hit_ratio": _ratio(cache_info["automata.minimal_dfa"]),
        "automata.isomorphic.calls": calls("automata.isomorphic"),
        "automata.isomorphic.self_s": self_s("automata.isomorphic"),
        "minmax.search_minmax.self_s": self_s("minmax.search_minmax"),
        "minmax.language_checks": counts.get("minmax.search_minmax>automata.language_equals_segment", 0),
        "chainprod.phi.self_s": self_s("chainprod.phi"),
        "chainprod.psi.self_s": self_s("chainprod.psi"),
        "chainprod.count_upsets.self_s": self_s("chainprod.count_upsets"),
        "ferrers.is_ferrers_segment.self_s": self_s("ferrers.is_ferrers_segment"),
        "export.self_s": self_s("export"),
        "export.bytes": counts.get("export.bytes", 0),
    }
    return m

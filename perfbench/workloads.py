"""Seeded workloads of the higman benchmark.

Each workload is a fixed list of pinned anchor specs plus a draw from the
regression families made with the benchmark's own random generator; the
package only ever sees the generated specs. Every job carries a check that
compares its answer with a reference that does not come from the code under
test: closed forms, the brute-force oracles in tests/oracles.py, the pinned
minmax facts, and laws evaluated here from the returned data.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

# letters, order pairs (already transitive), involution
FAMILIES = {
    "ab": (("a", "b"), (), ()),
    "a<=b": (("a", "b"), (("a", "b"),), ()),
    "abc": (("a", "b", "c"), (), ()),
    "six": (
        ("a", "b", "c", "a'", "b'", "c'"),
        (),
        (("a", "a'"), ("b", "b'"), ("c", "c'")),
    ),
}
DRAW_FAMILIES = ("ab", "a<=b", "six")

# Words up to this length are compared with the membership oracle. On the
# six-letter alphabet length 5 means 9,331 words and about a second of oracle
# time per spec, so there it stops at length 4 (1,555 words).
ORACLE_WORD_LEN = 5
ORACLE_WORD_LEN_SIX = 4

# the six-letter main example: five states, 48 transitions, two acceptors
MAIN_EXAMPLE_PINS = (5, 48, 2)


@dataclass(frozen=True)
class Spec:
    family: str
    generators: tuple  # tuple of letter tuples, pairwise incomparable

    @property
    def letters(self):
        return FAMILIES[self.family][0]

    @property
    def order(self):
        return FAMILIES[self.family][1]

    @property
    def involution(self):
        return dict(FAMILIES[self.family][2])

    def texts(self) -> list[str]:
        return ["".join(a if len(a) == 1 else f"[{a}]" for a in g) for g in self.generators]

    def label(self) -> str:
        return f"{{{','.join(self.texts())}}}/{self.family}"

    def document(self) -> dict:
        return {
            "spec_version": 1,
            "letters": list(self.letters),
            "order": [list(p) for p in self.order],
            "involution": self.involution,
            "generators": self.texts(),
        }

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.order

    def bar(self, a: str) -> str:
        inv = self.involution
        back = {v: k for k, v in inv.items()}
        return inv.get(a, back.get(a, a))


def anchor(family: str, *texts: str) -> Spec:
    return Spec(family, tuple(tuple(t) for t in texts))


def upset_bound(lengths) -> int:
    """Up-sets of the product of chains with these lengths (up to three).

    The envelope of F embeds into the up-sets of the product of chains whose
    lengths are those of F's generators, so this bounds the envelope size
    without calling the package: the binomial for two chains and MacMahon's
    box formula for three.
    """
    dims = sorted(lengths)
    if len(dims) == 1:
        return dims[0] + 1
    if len(dims) == 2:
        return comb(dims[0] + dims[1], dims[0])
    a, b, c = dims
    r = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                r *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(r)


def _embeds(spec: Spec, u: tuple, v: tuple) -> bool:
    i = 0
    for b in v:
        if i < len(u) and spec.leq(u[i], b):
            i += 1
    return i == len(u)


def draw_specs(
    rng: random.Random, count: int, max_bound: int, exclude=(), families=DRAW_FAMILIES
) -> list[Spec]:
    """Distinct antichains of 2 or 3 generators of length 1 to 4 whose
    envelope bound is at most max_bound. A single generator gives a chain,
    which exercises next to nothing, so it is left out."""
    out: list[Spec] = []
    seen = set(exclude)
    while len(out) < count:
        family = rng.choice(families)
        letters = FAMILIES[family][0]
        gens = [
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(2, 3))
        ]
        probe = Spec(family, ())
        if len(set(gens)) != len(gens) or any(
            u != v and _embeds(probe, u, v) for u in gens for v in gens
        ):
            continue
        if upset_bound(len(g) for g in gens) > max_bound:
            continue
        spec = Spec(family, tuple(sorted(gens, key=lambda g: (len(g), g))))
        if spec not in seen:
            seen.add(spec)
            out.append(spec)
    return out


# ---------------------------------------------------------------- references


class Reference:
    """Oracle answers for specs, computed once per spec outside the timing."""

    def __init__(self, mods, oracles):
        self.mods = mods
        self.oracles = oracles
        self._alphabets: dict = {}
        self._tables: dict = {}

    def alphabet(self, family: str):
        if family not in self._alphabets:
            letters, order, inv = FAMILIES[family]
            self._alphabets[family] = self.mods.words.Alphabet(letters, order, dict(inv))
        return self._alphabets[family]

    def membership(self, spec: Spec) -> dict:
        """{letter tuple: in F} for all words up to ORACLE_WORD_LEN letters."""
        if spec not in self._tables:
            A = self.alphabet(spec.family)
            gens = [self.mods.words.Word(A, g) for g in spec.generators]
            n = ORACLE_WORD_LEN_SIX if spec.family == "six" else ORACLE_WORD_LEN
            self._tables[spec] = {
                w.symbols: self.oracles.member(gens, w)
                for w in self.oracles.words_upto(A, n)
            }
        return self._tables[spec]

    def residual_vectors(self, spec: Spec) -> list:
        """For each word w of up to two letters, membership of x·w in F
        over all short x: the right residual F/w sampled."""
        key = ("residuals", spec)
        if key not in self._tables:
            table = self.membership(spec)
            longest = max(len(x) for x in table)
            probes = [x for x in table if len(x) <= longest - 2]
            self._tables[key] = [
                tuple(table[x + w] for x in probes) for w in table if len(w) <= 2
            ]
        return self._tables[key]


def nfa_language_mismatch(transitions, initial, final, table: dict):
    """First word whose acceptance by the transition list differs from the
    oracle table, or None. transitions are (p, a, q) triples."""
    step: dict = {}
    for p, a, q in transitions:
        step.setdefault((p, a), set()).add(q)
    for syms, expected in table.items():
        current = set(initial)
        for a in syms:
            current = {q for p in current for q in step.get((p, a), ())}
            if not current:
                break
        if bool(current & set(final)) != expected:
            return syms
    return None


def dfa_language_mismatch(start, accepting, delta: dict, table: dict):
    for syms, expected in table.items():
        q = start
        for a in syms:
            q = delta[(q, a)]
        if (q in accepting) != expected:
            return syms
    return None


def _word_text(syms) -> str:
    return "".join(a if len(a) == 1 else f"[{a}]" for a in syms) or "ε"


def parse_segment_text(text: str):
    """Basis letter tuples of a formatted segment: ∅, A*, ↑w or ↑{u,v}."""
    if text == "∅":
        return []
    if text == "A*":
        return [()]
    if not text.startswith("↑"):
        raise ValueError(f"not a segment: {text!r}")
    body = text[1:]
    if body.startswith("{"):
        body = body[1:-1]
    words = []
    for part in body.split(","):
        syms, i = [], 0
        while i < len(part):
            if part[i] == "[":
                j = part.index("]", i)
                syms.append(part[i + 1:j])
                i = j + 1
            else:
                syms.append(part[i])
                i += 1
        words.append(tuple(syms))
    return words


# ---------------------------------------------------------------- jobs


@dataclass
class Context:
    """What a workload builder needs: the freshly imported package modules,
    the oracle references, the checkout root, a scratch directory inside it
    and a function that clears the package's caches."""

    mods: object
    ref: Reference
    root: Path
    workdir: Path
    clear_caches: Callable[[], None]


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right
    budget_s: float


@dataclass
class Workload:
    name: str
    jobs: list
    largest: str  # name of the largest anchor job
    traced_jobs: list = field(default_factory=list)  # in-process versions
    cleanup: Callable[[], None] = lambda: None
    jobs_are_processes: bool = False

    def __post_init__(self):
        if not self.traced_jobs:
            self.traced_jobs = self.jobs


def _acceptor_check(ref: Reference, spec: Spec, env, size: int | None) -> str | None:
    if size is not None and len(env.elements) != size:
        return f"{len(env.elements)} elements, expected {size}"
    bad = nfa_language_mismatch(env.t_f, [env.x], [env.y], ref.membership(spec))
    if bad is not None:
        return f"acceptor disagrees with the oracle on {_word_text(bad)}"
    return None


def _segment(mods, ref: Reference, spec: Spec):
    A = ref.alphabet(spec.family)
    return mods.segments.canonicalize(A, [mods.words.Word(A, g) for g in spec.generators])


def envelope_ladder(seed: int, ctx: Context) -> Workload:
    mods, ref = ctx.mods, ctx.ref
    anchors = [
        (anchor("ab", "aa", "bb"), comb(4, 2)),
        (anchor("ab", "aaa", "bbb"), comb(6, 3)),
        (anchor("abc", "aa", "bb", "cc"), ref.oracles.upset_count_oracle((2, 2, 2))),
        (anchor("ab", "aaaa", "bbbb"), comb(8, 4)),
    ]
    draws = draw_specs(random.Random(seed), 8, 20, [s for s, _ in anchors])
    jobs = []
    for spec, size in anchors + [(s, None) for s in draws]:
        F = _segment(mods, ref, spec)
        jobs.append(Job(
            f"envelope {spec.label()}",
            lambda F=F: mods.pkg.build_envelope(F),
            lambda env, spec=spec, size=size: _acceptor_check(ref, spec, env, size),
            120.0 if size == 70 else 30.0,
        ))
    return Workload("envelope-ladder", jobs, jobs[3].name)


def metric_pass(mods, env) -> dict:
    """The criterion-09 / verify metric work on one prebuilt envelope."""
    H = mods.pkg
    space = H.as_pointed(env)
    d, els = space.d, env.elements
    triangle = all(
        H.subset_of(H.concat_seg(d[P, Q], d[Q, R]), d[P, R])
        for P, Q, R in product(els, repeat=3)
    )
    symmetric = all(d[Q, P] == H.involute_seg(d[P, Q]) for P in els for Q in els)
    forms = {P: H.metric_form_pair(env, P) for P in els}
    duality = all(
        H.algebra_distance(forms[P][0], forms[Q][0])
        == H.algebra_distance(forms[P][1], forms[Q][1])
        for P in els for Q in els
    )
    convex, _ = H.check_convexity(space)
    minimal = H.no_proper_isometric_subspace(space)
    return {
        "table": d,
        "verdicts": {
            "triangle": triangle, "involution": symmetric, "duality": duality,
            "convexity": convex, "no proper isometric subspace": minimal,
        },
    }


def _metric_check(ref: Reference, spec: Spec, env, size, out) -> str | None:
    bad = _acceptor_check(ref, spec, env, size)
    if bad:
        return bad
    for law, ok in out["verdicts"].items():
        if ok is not True:
            return f"{law} verdict is {ok!r}"
    d, els = out["table"], env.elements
    if len(d) != len(els) ** 2:
        return f"distance table has {len(d)} entries for {len(els)} elements"
    for P in els:
        for Q in els:
            basis = d[P, Q].basis
            if (len(basis) == 1 and not basis[0].symbols) != (P == Q):
                return "distance identity fails"
            mirrored = {tuple(spec.bar(a) for a in reversed(w.symbols)) for w in basis}
            if mirrored != {w.symbols for w in d[Q, P].basis}:
                return "distance involution law fails"
    if {w.symbols for w in d[env.x, env.y].basis} != set(spec.generators):
        return "d(x, y) differs from the generators"
    return None


# On the six-letter family one metric job takes 1 to 6 s against 0.2 s on
# two letters, and one CLI call up to 0.55 s against 0.1 s, so drawing it for
# metric-table or cli-batch would make the pass time depend on the seed.
TWO_LETTER_FAMILIES = ("ab", "a<=b")


def metric_table(seed: int, ctx: Context) -> Workload:
    """Envelopes are built here, so their time counts as set-up."""
    mods, ref = ctx.mods, ctx.ref
    main = anchor("ab", "aaa", "bbb")
    picked = [(main, comb(6, 3), mods.pkg.build_envelope(_segment(mods, ref, main)))]
    rng = random.Random(seed)
    tried = {main}
    while len(picked) < 4:
        if len(tried) > 200:
            raise RuntimeError("no draw with an envelope of 8 to 12 elements")
        (spec,) = draw_specs(rng, 1, 20, tried, TWO_LETTER_FAMILIES)
        tried.add(spec)
        env = mods.pkg.build_envelope(_segment(mods, ref, spec))
        if 8 <= len(env.elements) <= 12:
            picked.append((spec, None, env))
    jobs = [
        Job(
            f"metric {spec.label()}",
            lambda env=env: metric_pass(mods, env),
            lambda out, spec=spec, size=size, env=env: _metric_check(ref, spec, env, size, out),
            60.0 if size else 30.0,
        )
        for spec, size, env in picked
    ]
    return Workload("metric-table", jobs, jobs[0].name)


def _minmax_check(ref: Reference, spec: Spec, pins, out) -> str | None:
    results, (states, transitions) = out
    if pins and (states, transitions, len(results)) != pins:
        return f"{states} states, {transitions} transitions, {len(results)} results; pinned {pins}"
    table = ref.membership(spec)
    for aut in results:
        if (len(aut.system.states), len(aut.system.transitions)) != (states, transitions):
            return "a result does not have the reported size"
        bad = nfa_language_mismatch(aut.system.transitions, aut.initial, aut.final, table)
        if bad is not None:
            return f"a result disagrees with the oracle on {_word_text(bad)}"
    return None


def minmax_search(seed: int, ctx: Context) -> Workload:
    mods, ref = ctx.mods, ctx.ref
    main_example = anchor("six", "ab", "ac", "ba", "bc", "ca", "cb")
    anchors = [
        (main_example, MAIN_EXAMPLE_PINS),
        (anchor("ab", "aaa", "bbb"), None),
        (anchor("abc", "aa", "bb", "cc"), None),
    ]
    draws = draw_specs(random.Random(seed), 4, 10, [s for s, _ in anchors])
    jobs = []
    for spec, pins in anchors + [(s, None) for s in draws]:
        F = _segment(mods, ref, spec)
        jobs.append(Job(
            f"minmax {spec.label()}",
            lambda F=F: mods.pkg.search_minmax(F),
            lambda out, spec=spec, pins=pins: _minmax_check(ref, spec, pins, out),
            60.0,
        ))
    return Workload("minmax-search", jobs, jobs[1].name)


# ---------------------------------------------------------------- CLI


@dataclass
class CliResult:
    code: int
    out: str
    files: dict


def _read_outputs(workdir: Path, names) -> dict:
    return {n: (workdir / n).read_text(encoding="utf-8") for n in names if (workdir / n).exists()}


def _clear_outputs(workdir: Path, names) -> None:
    for n in names:
        (workdir / n).unlink(missing_ok=True)


def subprocess_runner(root: Path, workdir: Path):
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "0"}

    def run(argv, outputs):
        _clear_outputs(workdir, outputs)
        proc = subprocess.run(
            [sys.executable, "-m", "higman", *argv],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        return CliResult(proc.returncode, proc.stdout, _read_outputs(workdir, outputs))

    return run


def inprocess_runner(mods, workdir: Path, clear_caches):
    import contextlib
    import io
    import os

    def run(argv, outputs):
        _clear_outputs(workdir, outputs)
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = mods.cli.main(list(argv))
                except SystemExit as e:
                    code = e.code
        finally:
            os.chdir(cwd)
        return CliResult(code, out.getvalue(), _read_outputs(workdir, outputs))

    return run


def _in_product(in_factor, factors, syms) -> bool:
    """syms splits into consecutive pieces, each in its factor."""
    if not factors:
        return True
    if len(factors) == 1:
        return in_factor(factors[0], syms)
    return any(
        in_factor(factors[0], syms[:i]) and _in_product(in_factor, factors[1:], syms[i:])
        for i in range(len(syms) + 1)
    )


def _cli_checks(ref: Reference, spec: Spec):
    """Checks per subcommand for a spec; each takes a CliResult."""

    def code_zero(res):
        return None if res.code == 0 else f"exit code {res.code}"

    def envelope(res, size=None):
        bad = code_zero(res)
        if bad:
            return bad
        lines = res.out.splitlines()
        n = int(lines[0].split()[0])
        if n != len(lines) - 1 or (size is not None and n != size):
            return f"envelope lists {n} elements"
        payload = json.loads(res.files["env.json"])
        if len(payload["elements"]) != n or "digraph" not in res.files.get("env.dot", ""):
            return "envelope exports disagree with the listing"
        bad = nfa_language_mismatch(
            payload["transitions"], [payload["x"]], [payload["y"]], ref.membership(spec)
        )
        return None if bad is None else f"exported acceptor disagrees on {_word_text(bad)}"

    def mindfa(res):
        bad = code_zero(res)
        if bad:
            return bad
        payload = json.loads(res.files["dfa.json"])
        delta = {(p, a): q for p, a, q in payload["delta"]}
        bad = dfa_language_mismatch(
            payload["start"], set(payload["accepting"]), delta, ref.membership(spec)
        )
        return None if bad is None else f"exported DFA disagrees on {_word_text(bad)}"

    def minmax(res, pins=None):
        bad = code_zero(res)
        if bad:
            return bad
        summary = json.loads(res.out)
        found = (summary["states"], summary["transitions"], summary["count"])
        if pins and found != pins:
            return f"minmax reports {found}, pinned {pins}"
        payload = json.loads(res.files["minmax.json"])
        if len(payload) != summary["count"]:
            return "minmax export count differs from the summary"
        for aut in payload:
            bad = nfa_language_mismatch(
                aut["transitions"], aut["initial"], aut["final"], ref.membership(spec)
            )
            if bad is not None:
                return f"exported minmax acceptor disagrees on {_word_text(bad)}"
        return None

    def decompose(res):
        bad = code_zero(res)
        if bad:
            return bad
        factors = [parse_segment_text(t) for t in json.loads(res.out)]
        A = ref.alphabet(spec.family)
        W = ref.mods.words.Word

        def in_factor(basis, syms):
            return ref.oracles.member([W(A, b) for b in basis], W(A, syms))

        for syms, expected in ref.membership(spec).items():
            if _in_product(in_factor, factors, syms) != expected:
                return f"factor product disagrees on {_word_text(syms)}"
        return None

    def ferrers(res):
        bad = code_zero(res)
        if bad:
            return bad
        verdict = json.loads(res.out)
        if verdict["ferrers"] is False:
            H, S = (parse_segment_text(t) for t in verdict["witness"])
            A = ref.alphabet(spec.family)
            W = ref.mods.words.Word
            inside = lambda X, Y: all(
                ref.oracles.member([W(A, b) for b in Y], W(A, x)) for x in X
            )
            return None if not inside(H, S) and not inside(S, H) else "witness pair is comparable"
        # residuals F/w for short w must be pairwise comparable
        vectors = ref.residual_vectors(spec)
        for u in vectors:
            for v in vectors:
                if not all(a <= b for a, b in zip(u, v)) and not all(a >= b for a, b in zip(u, v)):
                    return "verdict true but two residuals are incomparable"
        return None

    def verify(res):
        bad = code_zero(res)
        if bad:
            return bad
        lines = res.out.splitlines()
        if len(lines) != 12 or not all(line.startswith("ok: ") for line in lines):
            return "verify did not report twelve passing checks"
        return None

    return {
        "envelope": envelope, "mindfa": mindfa, "minmax": minmax,
        "decompose": decompose, "ferrers": ferrers, "verify": verify,
    }


def cli_batch(seed: int, ctx: Context) -> Workload:
    mods, ref, workdir = ctx.mods, ctx.ref, ctx.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    aabb = anchor("ab", "aa", "bb")
    main_example = anchor("six", "ab", "ac", "ba", "bc", "ca", "cb")
    specs = {"anchor.json": aabb, "main.json": main_example}
    draws = draw_specs(random.Random(seed), 2, 6, specs.values(), TWO_LETTER_FAMILIES)
    for i, spec in enumerate(draws):
        specs[f"draw{i}.json"] = spec
    for name, spec in specs.items():
        (workdir / name).write_text(json.dumps(spec.document()), encoding="utf-8")
    (workdir / "malformed.json").write_text('{"generators": ["ab"]}', encoding="utf-8")

    # (name, argv, output files, check); the check takes a CliResult
    cases = []
    upsets = ref.oracles.upset_count_oracle((2, 2, 2))
    for path, spec in specs.items():
        c = _cli_checks(ref, spec)
        tag = spec.label()
        if path == "main.json":
            cases.append((f"minmax {tag}", ["minmax", path, "--json", "minmax.json"],
                          ["minmax.json"], lambda r, c=c: c["minmax"](r, MAIN_EXAMPLE_PINS)))
            continue
        size = comb(4, 2) if path == "anchor.json" else None
        cases += [
            (f"envelope {tag}", ["envelope", path, "--dot", "env.dot", "--json", "env.json"],
             ["env.dot", "env.json"], lambda r, c=c, size=size: c["envelope"](r, size)),
            (f"ferrers {tag}", ["ferrers", path], [], c["ferrers"]),
            (f"decompose {tag}", ["decompose", path], [], c["decompose"]),
            (f"mindfa {tag}", ["mindfa", path, "--dot", "dfa.dot", "--json", "dfa.json"],
             ["dfa.dot", "dfa.json"], c["mindfa"]),
            (f"minmax {tag}", ["minmax", path, "--json", "minmax.json"],
             ["minmax.json"], c["minmax"]),
            (f"verify {tag}", ["verify", path], [], c["verify"]),
        ]
    cases += [
        ("count 2 2 2", ["count", "2", "2", "2"], [],
         lambda r: None if (r.code, r.out.strip()) == (0, str(upsets)) else f"count gave {r.out.strip()!r}"),
        ("malformed spec", ["envelope", "malformed.json"], [],
         lambda r: None if r.code == 2 else f"exit code {r.code}, expected 2"),
        ("minmax over cap", ["minmax", "anchor.json", "--cap", "3"], [],
         lambda r: None if r.code == 3 else f"exit code {r.code}, expected 3"),
    ]

    def jobs_for(runner):
        return [
            Job(name, lambda argv=argv, outs=outs: runner(argv, outs), check, 30.0)
            for name, argv, outs, check in cases
        ]

    def cleanup():
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)

    return Workload(
        "cli-batch",
        jobs_for(subprocess_runner(ctx.root, workdir)),
        f"verify {aabb.label()}",
        jobs_for(inprocess_runner(mods, workdir, ctx.clear_caches)),
        cleanup,
        jobs_are_processes=True,
    )


BUILDERS = {
    "envelope-ladder": envelope_ladder,
    "metric-table": metric_table,
    "minmax-search": minmax_search,
    "cli-batch": cli_batch,
}

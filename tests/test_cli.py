"""CLI: spec parsing with located errors, commands, exit codes, exports."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from higman import cli
from higman.automata import Automaton
from higman.chainprod import ChainProduct
from higman.cli import SpecError, load_spec, main, parse_problem_spec
from higman.envelope import build_envelope, dist
from higman.segments import canonicalize, format_segment, is_full, product_in

from helpers import (
    abc_primed,
    clear_caches,
    nonempty_words,
    output_under_another_hash_seed,
)
from oracles import member
from test_golden import spec_dirs

FIG1 = {"letters": ["a", "b"], "generators": ["aa", "bb"]}
AB = {"letters": ["a", "b"], "generators": ["ab"]}


def spec_file(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseProblemSpec:
    def test_minimal(self):
        spec = parse_problem_spec(FIG1)
        assert [str(w) for w in spec.generators] == ["aa", "bb"]
        assert spec.alphabet.letters == ("a", "b")
        assert str(spec.segment().basis[0]) == "aa"

    def test_order_and_involution(self):
        spec = parse_problem_spec(
            {
                "spec_version": 1,
                "letters": ["a", "b", "a'", "b'"],
                "order": [["a", "b"], ["a'", "b'"]],
                "involution": {"a": "a'", "b": "b'"},
                "generators": ["a[b']"],
            }
        )
        assert spec.alphabet.leq("a", "b")
        assert spec.alphabet.bar("a") == "a'"
        assert spec.generators[0].symbols == ("a", "b'")

    @pytest.mark.parametrize(
        "data, pointer",
        [
            ([], ""),
            ({"letters": ["a"], "generators": [], "junk": 0}, "/junk"),
            ({"letters": ["a"], "generators": [], "spec_version": 2}, "/spec_version"),
            ({"generators": []}, "/letters"),
            ({"letters": "ab", "generators": []}, "/letters"),
            ({"letters": [], "generators": []}, "/letters"),
            ({"letters": ["a", 3], "generators": []}, "/letters/1"),
            ({"letters": ["a", "a"], "generators": []}, "/letters"),
            ({"letters": ["a"], "order": 5, "generators": []}, "/order"),
            ({"letters": ["a"], "order": [["a"]], "generators": []}, "/order/0"),
            (
                {
                    "letters": ["a", "b"],
                    "order": [["a", "b"], ["b", "a"]],
                    "generators": [],
                },
                "/order",
            ),
            ({"letters": ["a"], "involution": [], "generators": []}, "/involution"),
            (
                {
                    "letters": ["a", "b"],
                    "order": [["a", "b"]],
                    "involution": {"a": "b"},
                    "generators": [],
                },
                "/involution",
            ),
            ({"letters": ["a"]}, "/generators"),
            ({"letters": ["a"], "generators": "aa"}, "/generators"),
            ({"letters": ["a"], "generators": [7]}, "/generators/0"),
            ({"letters": ["a"], "generators": ["b"]}, "/generators/0"),
        ],
    )
    def test_error_pointers(self, data, pointer):
        with pytest.raises(SpecError) as info:
            parse_problem_spec(data)
        assert info.value.pointer == pointer

    def test_load_from_file(self, tmp_path):
        spec = load_spec(spec_file(tmp_path, AB))
        assert len(spec.generators) == 1

    def test_load_from_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(AB)))
        spec = load_spec("-")
        assert str(spec.generators[0]) == "ab"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError):
            load_spec(str(tmp_path / "nope.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(SpecError) as info:
            load_spec(str(path))
        assert "invalid JSON" in info.value.message


class TestEnvelopeCommand:
    def test_lists_elements(self, capsys, tmp_path):
        code, out, _ = run(capsys, "envelope", spec_file(tmp_path, FIG1))
        assert code == 0
        assert out.splitlines() == [
            "6 elements",
            "A*",
            "↑{a,b}",
            "↑{a,bb}",
            "↑{b,aa}",
            "↑{aa,bb}",
            "↑{aa,ab,ba,bb}",
        ]

    def test_single_element(self, capsys, tmp_path):
        data = {"letters": ["a"], "generators": [""]}
        code, out, _ = run(capsys, "envelope", spec_file(tmp_path, data))
        assert code == 0
        assert out.splitlines()[0] == "1 element"

    def test_three_elements(self, capsys, tmp_path):
        code, out, _ = run(capsys, "envelope", spec_file(tmp_path, AB))
        assert code == 0
        assert out.splitlines()[0] == "3 elements"

    def test_dot_and_json_files(self, capsys, tmp_path):
        dot = tmp_path / "env.dot"
        dump = tmp_path / "env.json"
        code, _, _ = run(
            capsys,
            "envelope", spec_file(tmp_path, FIG1),
            "--dot", str(dot), "--json", str(dump),
        )
        assert code == 0
        text = dot.read_text(encoding="utf-8")
        assert text.count("digraph") == 2
        assert "hasse" in text and "transitions" in text
        payload = json.loads(dump.read_text(encoding="utf-8"))
        assert len(payload["elements"]) == 6
        assert payload["y"] == "↑{aa,bb}"

    def test_empty_segment_is_input_error(self, capsys, tmp_path):
        data = {"letters": ["a"], "generators": []}
        code, _, err = run(capsys, "envelope", spec_file(tmp_path, data))
        assert code == 2
        assert "empty segment" in err


class TestFerrersCommand:
    def test_refuted(self, capsys, tmp_path):
        code, out, _ = run(capsys, "ferrers", spec_file(tmp_path, FIG1))
        assert code == 0
        assert out == (
            '{"ferrers": false, '
            '"witness": ["↑{b,aa}", "↑{a,bb}"]}\n'
        )

    def test_holds(self, capsys, tmp_path):
        code, out, _ = run(capsys, "ferrers", spec_file(tmp_path, AB))
        assert code == 0
        assert out == '{"ferrers": true, "witness": null}\n'


class TestDecomposeCommand:
    def test_two_letters(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", spec_file(tmp_path, AB))
        assert code == 0
        assert json.loads(out) == ["↑a", "↑b"]

    def test_irreducible(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", spec_file(tmp_path, FIG1))
        assert code == 0
        assert json.loads(out) == ["↑{aa,bb}"]


class TestMinmaxCommand:
    def test_summary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "minmax", spec_file(tmp_path, AB))
        assert code == 0
        assert json.loads(out) == {"states": 3, "transitions": 10, "count": 1}

    def test_cap_exceeded(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "minmax", spec_file(tmp_path, FIG1), "--cap", "3"
        )
        assert code == 3
        assert "cap exceeded" in err

    def test_raised_cap_covers_the_whole_envelope(self, capsys, tmp_path):
        # {aaaa,bbbb} has 70 envelope elements, 8 of them useful
        data = {"letters": ["a", "b"], "generators": ["aaaa", "bbbb"]}
        code, out, _ = run(capsys, "minmax", spec_file(tmp_path, data), "--cap", "70")
        assert code == 0
        assert out == '{"states": 8, "transitions": 32, "count": 1}\n'

    def test_exports(self, capsys, tmp_path):
        dot = tmp_path / "mm.dot"
        dump = tmp_path / "mm.json"
        code, _, _ = run(
            capsys,
            "minmax", spec_file(tmp_path, AB),
            "--dot", str(dot), "--json", str(dump),
        )
        assert code == 0
        assert dot.read_text(encoding="utf-8").count("digraph") == 1
        payload = json.loads(dump.read_text(encoding="utf-8"))
        assert len(payload) == 1
        assert payload[0]["initial"] == ["A*"]
        assert payload[0]["final"] == ["↑ab"]


class TestMindfaCommand:
    def test_states(self, capsys, tmp_path):
        code, out, _ = run(capsys, "mindfa", spec_file(tmp_path, AB))
        assert code == 0
        assert out == "3 states\n"

    def test_single_state(self, capsys, tmp_path):
        data = {"letters": ["a"], "generators": [""]}
        code, out, _ = run(capsys, "mindfa", spec_file(tmp_path, data))
        assert code == 0
        assert out == "1 state\n"

    def test_dot(self, capsys, tmp_path):
        dot = tmp_path / "dfa.dot"
        code, _, _ = run(
            capsys, "mindfa", spec_file(tmp_path, AB), "--dot", str(dot)
        )
        assert code == 0
        assert dot.read_text(encoding="utf-8").startswith("digraph dfa {")


class TestCountCommand:
    @pytest.mark.parametrize(
        "dims, expected",
        [(("2", "2"), "6"), (("3", "3"), "20"), (("2", "2", "2"), "20"),
         (("2", "2", "2", "2"), "168")],
    )
    def test_values(self, capsys, dims, expected):
        code, out, _ = run(capsys, "count", *dims)
        assert code == 0
        assert out == expected + "\n"

    def test_guard(self, capsys):
        code, _, err = run(capsys, "count", "5", "5")
        assert code == 3
        assert "cap exceeded" in err

    def test_guard_comes_before_the_points(self, capsys, monkeypatch):
        # the product has 10^10 points; listing them must not even start
        def refuse(self):
            raise AssertionError("points listed before the size check")

        monkeypatch.setattr(ChainProduct, "points", property(refuse))
        code, _, err = run(capsys, "count", "100000", "100000")
        assert code == 3
        assert "cap exceeded" in err

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, "count", "0")
        assert code == 2
        assert "not positive" in err


class TestVerifyCommand:
    def test_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", spec_file(tmp_path, FIG1))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12
        assert all(line.startswith("ok: ") for line in lines)
        assert lines[0] == "ok: envelope (6 elements)"
        assert "ok: round trip (6 elements)" in lines
        assert "ok: ferrers equivalence (both tests say false)" in lines

    def test_sum_theorem_split(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", spec_file(tmp_path, AB))
        assert code == 0
        assert "ok: sum theorem (split ↑a / ↑b)" in out.splitlines()

    def test_with_order_and_involution(self, capsys, tmp_path):
        data = {
            "letters": ["a", "b"],
            "order": [["a", "b"]],
            "generators": ["ab"],
        }
        code, out, _ = run(capsys, "verify", spec_file(tmp_path, data))
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_wrong_distance_fails_path_language_oracle(
        self, capsys, tmp_path, monkeypatch
    ):
        # A* on the diagonal and F elsewhere: only the path language refutes
        # it; verify reads its table from as_pointed, which calls this dist
        monkeypatch.setattr(
            "higman.envelope.dist",
            lambda env, P, Q: env.x if P == Q else env.y,
        )
        code, out, _ = run(capsys, "verify", spec_file(tmp_path, FIG1))
        assert code == 1
        last = out.splitlines()[-1]
        assert last.startswith("FAIL: distance identity: ")
        assert "but the path language is" in last

    def test_one_wrong_distance_is_named_with_a_separating_word(
        self, capsys, tmp_path, monkeypatch
    ):
        # one off-diagonal distance is planted wrong; the failure names that
        # pair, and its word lies in exactly one of the planted distance and
        # the path language, by exhaustive embedding
        path = spec_file(tmp_path, FIG1)
        env = build_envelope(load_spec(path).segment())
        P, Q = env.elements[1], env.elements[4]
        true, wrong = dist(env, P, Q), env.y
        assert P != Q and true != wrong
        monkeypatch.setattr(
            "higman.envelope.dist",
            lambda e, p, q: wrong if (p, q) == (P, Q) else dist(e, p, q),
        )
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        last = out.splitlines()[-1]
        assert last.startswith(
            f"FAIL: distance identity: d({format_segment(P)}, {format_segment(Q)}) = "
            f"{format_segment(wrong)} but the path language is {format_segment(true)}; "
        )
        assert last.endswith(" separates them")
        word = env.alphabet.word(last.rsplit("; ", 1)[1].removesuffix(" separates them"))
        assert member(wrong.basis, word) != member(true.basis, word)

    def test_empty_separating_word_is_written_epsilon(
        self, capsys, tmp_path, monkeypatch
    ):
        # A* planted off the diagonal: the empty word lies in it but not in
        # the path language between two distinct elements, so ε separates them
        path = spec_file(tmp_path, FIG1)
        env = build_envelope(load_spec(path).segment())
        P, Q = env.elements[1], env.elements[4]
        full = canonicalize(env.alphabet, [env.alphabet.word("")])
        monkeypatch.setattr(
            "higman.envelope.dist",
            lambda e, p, q: full if (p, q) == (P, Q) else dist(e, p, q),
        )
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        last = out.splitlines()[-1]
        assert last.startswith(
            f"FAIL: distance identity: d({format_segment(P)}, {format_segment(Q)}) = A* "
        )
        assert last.endswith("; ε separates them")

    def test_wrong_diagonal_distance_is_separated_by_epsilon(
        self, capsys, tmp_path, monkeypatch
    ):
        # F planted on the diagonal: the path language from an element to
        # itself holds the empty word, which F does not
        path = spec_file(tmp_path, FIG1)
        env = build_envelope(load_spec(path).segment())
        P = env.elements[1]
        monkeypatch.setattr(
            "higman.envelope.dist",
            lambda e, p, q: e.y if p == q == P else dist(e, p, q),
        )
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert out.splitlines()[-1] == (
            "FAIL: distance identity: d(↑{a,b}, ↑{a,b}) = ↑{aa,bb} "
            "but the path language is A*; ε separates them"
        )

    def test_identity_builds_nothing_per_pair(self, tmp_path, monkeypatch):
        # the passing identity check walks one row per source: no
        # language_equals_segment call, which only the envelope language
        # step makes, and no Automaton built
        F = load_spec(
            spec_file(tmp_path, {"letters": ["a", "b"], "generators": ["aaa", "bbb"]})
        ).segment()
        step, calls, built = [None], [], []
        compare = cli.language_equals_segment
        monkeypatch.setattr(
            cli,
            "language_equals_segment",
            lambda *args: calls.append(step[0]) or compare(*args),
        )
        init = Automaton.__init__

        def counting_init(self, *args):
            built.append(step[0])
            init(self, *args)

        monkeypatch.setattr(Automaton, "__init__", counting_init)
        names = []
        for name, thunk in cli._verify_checks(F):
            step[0] = name
            names.append(name)
            thunk()
        assert names[2] == "distance identity" and len(names) == 12
        assert calls == ["envelope language"]
        assert "distance identity" not in built

    def test_triangle_tests_each_distinct_triple_once(
        self, capsys, tmp_path, monkeypatch
    ):
        # every distinct (d(P, Q), d(Q, R), d(P, R)) is tested once, and a
        # refuted one is reported through the Q of its first occurrence
        env = build_envelope(load_spec(spec_file(tmp_path, FIG1)).segment())
        points = env.elements
        triples = [
            (Q, (dist(env, P, Q), dist(env, Q, R), dist(env, P, R)))
            for P in points
            for Q in points
            for R in points
        ]
        distinct = set(t for _, t in triples)
        assert len(distinct) < len(triples)
        bad = next(t for _, t in triples if not any(map(is_full, t)))
        seen = []

        def spy(F, G, H):
            seen.append((F, G, H))
            return product_in(F, G, H)

        monkeypatch.setattr(cli, "product_in", spy)
        code, _, _ = run(capsys, "verify", spec_file(tmp_path, FIG1))
        assert code == 0 and sorted(seen, key=repr) == sorted(distinct, key=repr)

        monkeypatch.setattr(cli, "product_in", lambda *t: t != bad and spy(*t))
        code, out, _ = run(capsys, "verify", spec_file(tmp_path, FIG1))
        Q = next(Q for Q, t in triples if t == bad)
        assert code == 1
        assert out.splitlines()[-1] == (
            f"FAIL: distance triangle: triangle fails through {format_segment(Q)}"
        )


class TestTopLevelErrors:
    def test_spec_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"letters": ["a", "a"], "generators": []}')
        code, _, err = run(capsys, "envelope", str(path))
        assert code == 2
        assert err.startswith("spec error at /letters:")

    def test_deep_nesting_is_a_spec_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "envelope", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("spec error at document root: invalid JSON")

    def test_root_pointer_spelled_out(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "ferrers", str(path))
        assert code == 2
        assert "spec error at document root" in err

    def test_determinism(self, capsys, tmp_path):
        path = spec_file(tmp_path, FIG1)
        _, first, _ = run(capsys, "envelope", path)
        _, second, _ = run(capsys, "envelope", path)
        assert first == second

    @pytest.mark.parametrize("flag", ["--json", "--dot"])
    def test_output_in_a_missing_directory(self, capsys, tmp_path, flag):
        target = str(tmp_path / "missing" / "out")
        path = spec_file(tmp_path, FIG1)
        code, out, err = run(capsys, "envelope", path, flag, target)
        assert code == 2
        assert out.startswith("6 elements\n")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target in err and "Traceback" not in err

    def test_output_path_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mindfa", spec_file(tmp_path, FIG1), "--dot", str(tmp_path)
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_spec_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "envelope", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("spec error at document root: 'utf-8' codec")
        assert "Traceback" not in err

    def test_fuzzed_spec_files_exit_cleanly(self, tmp_path):
        """Random JSON documents, spec-shaped or not, in a spec file: every
        command run on them exits 0, 2 or 3 and prints no traceback."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        text = st.text("ab[]", max_size=3)
        values = st.recursive(
            st.none() | st.booleans() | st.integers(-2, 2) | text,
            lambda kids: st.lists(kids, max_size=3)
            | st.dictionaries(text, kids, max_size=3),
            max_leaves=8,
        )
        letter = st.sampled_from(["a", "b", "c", "ab"])
        fields = {
            "letters": st.lists(letter, min_size=1, max_size=3, unique=True),
            # words over a and b alone keep every envelope small
            "generators": st.lists(st.text("ab", max_size=3), max_size=3),
        }
        extras = {
            "spec_version": st.just(1),
            "order": st.lists(st.lists(letter, min_size=2, max_size=2), max_size=2),
            "involution": st.dictionaries(letter, letter, max_size=2),
        }
        specs = st.fixed_dictionaries(fields, optional=extras)
        garbled = st.fixed_dictionaries(
            {}, optional={k: v | values for k, v in {**fields, **extras}.items()}
        )
        documents = (specs | garbled | values).map(json.dumps) | st.text(max_size=12)
        commands = st.sampled_from(
            [["envelope"], ["ferrers"], ["decompose"], ["mindfa"], ["minmax", "--cap", "4"]]
        )
        path = tmp_path / "fuzz.json"

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(documents, commands)
        def check(document, command):
            path.write_text(document, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command[:1] + [str(path)] + command[1:])
            assert code in (0, 2, 3), (document, command, code)
            assert "Traceback" not in err.getvalue()

        check()


def test_module_entry_point(tmp_path):
    # the child does not see pytest's pythonpath, so it gets src itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "higman", "count", "2", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


def test_antisymmetry_error_does_not_depend_on_the_hash_seed(tmp_path):
    # the cycle d <= a <= b <= c <= d makes every two letters equivalent; the
    # error names the first pair in letter order under every hash seed
    order = [["d", "a"], ["a", "b"], ["c", "b"], ["b", "c"], ["c", "d"]]
    path = spec_file(
        tmp_path, {"letters": list("abcd"), "order": order, "generators": ["ab"]}
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    errors = set()
    for seed in "0123":
        proc = subprocess.run(
            [sys.executable, "-m", "higman", "envelope", path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            timeout=60,
        )
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {
        "spec error at /order: letter order is not antisymmetric: 'a' and 'b'\n"
    }


# subcommand -> the suffixes of the files it exports
ADDRESS_COMMANDS = {"envelope": ("json", "dot"), "minmax": ("json",), "verify": ()}


def golden_outputs(workdir: Path) -> bytes:
    """The exit code, stdout and exports of envelope --json --dot, minmax
    --json and verify on every golden spec, from cold caches, as one string."""
    clear_caches()
    parts = []
    for case in spec_dirs():
        for cmd, exports in ADDRESS_COMMANDS.items():
            argv = [cmd, str(case / "spec.json")]
            for suffix in exports:
                argv += [f"--{suffix}", str(workdir / f"out.{suffix}")]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            parts += [f"{case.name} {cmd}: exit {code}\n", out.getvalue()]
            parts += [(workdir / f"out.{suffix}").read_text("utf-8") for suffix in exports]
    return "".join(parts).encode("utf-8")


GOLDEN_OUTPUTS = """
import sys, tempfile
from pathlib import Path
from test_cli import golden_outputs
with tempfile.TemporaryDirectory() as tmp:
    sys.stdout.buffer.write(golden_outputs(Path(tmp)))
"""


def test_outputs_do_not_depend_on_segment_addresses(tmp_path):
    """A segment hashes by its address, so a set of segments iterates in an
    order that changes from run to run; no output may follow that order."""
    first = golden_outputs(tmp_path)
    # live segments allocated in between move the next run's segments; the
    # list keeps them alive until the test ends
    A = abc_primed()
    pool = nonempty_words(A, 2)
    ballast = [canonicalize(A, [u, v]) for u in pool for v in pool]
    assert golden_outputs(tmp_path) == first
    assert output_under_another_hash_seed(GOLDEN_OUTPUTS) == first

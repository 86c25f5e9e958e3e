import json
import pickle
import random
import sys
from functools import reduce
from itertools import combinations
from math import comb

import pytest

from higman.words import Word, minimal_words
from higman.segments import (
    canonicalize,
    concat_seg,
    contains,
    empty_segment,
    full_segment,
    intersect,
    involute_seg,
    right_residual,
    seg_key,
    segment,
    subset_of,
)
from higman.automata import (
    Automaton,
    accepted_basis,
    accepts,
    articulation_states,
    is_reflexive_involutive,
    language_equals_segment,
)
from higman.envelope import (
    EnvelopeLattice,
    PointedSpace,
    _forms,
    algebra_distance,
    as_pointed,
    build_envelope,
    check_convexity,
    concat_pointed,
    decompose,
    dist,
    galois_context,
    metric_form_pair,
    min_dfa_morphism,
    no_proper_isometric_subspace,
    pointed_isometric,
    residual_closure,
    verify_sum_theorem,
)
from higman import automata, envelope
from higman.ferrers import is_ferrers_segment
from higman.cli import main
from higman.minmax import search_minmax

from helpers import (
    ab,
    ab_ordered,
    abc,
    abc_primed,
    count_calls,
    output_under_another_hash_seed,
    quotient_closure,
    regression_bases,
    regression_envelopes,
    regression_segments,
    spec_document,
    tf_system,
)
from oracles import (
    covers_oracle,
    has_proper_isometric_self_map,
    included,
    member,
    words_upto,
)


def square_pair_envelope():
    A = ab()
    return A, build_envelope(segment(A, "aa", "bb"))


def sampled_meet_closure(F, sample) -> set:
    """The AND-closure, with the all-ones vector, of the membership vectors
    over sample of the right residuals F/w, by exhaustive embedding.

    Residuals are found breadth-first by prepending letters to w, keeping
    each w whose vector is new; a residual whose vector repeats one already
    found is taken to be that residual, so sample must tell residuals apart.
    """
    A = F.alphabet
    in_F = {}

    def vector(w):
        out = []
        for u in sample:
            uw = u.symbols + w
            if uw not in in_F:
                in_F[uw] = member(F.basis, Word(A, uw))
            out.append(in_F[uw])
        return tuple(out)

    found = {vector(()): ()}
    frontier = [()]
    while frontier:
        frontier = [
            (a,) + w for w in frontier for a in A.letters
            if found.setdefault(vector((a,) + w), (a,) + w) == (a,) + w
        ]
    closed = {(True,) * len(sample)} | set(found)
    while True:
        more = {tuple(map(min, p, q)) for p in closed for q in closed} - closed
        if not more:
            return closed
        closed |= more


def check_meet_closure(env, sample):
    """env.elements, as membership vectors over sample, are pairwise distinct
    and form the sampled meet closure of the residuals of F."""
    vectors = [tuple(member(P.basis, u) for u in sample) for P in env.elements]
    assert len(set(vectors)) == len(env.elements)
    assert set(vectors) == sampled_meet_closure(env.y, sample)


def path_language(ts, P, Q):
    """The language of paths P -> Q in a transition system: dist's oracle."""
    return accepted_basis(Automaton(ts, frozenset({P}), frozenset({Q})))


class TestResidualClosure:
    def test_two_square_generators(self):
        A = ab()
        got = residual_closure(segment(A, "aa", "bb"))
        assert got == {
            segment(A, "aa", "bb"),
            segment(A, "b", "aa"),
            segment(A, "a", "bb"),
            segment(A, "a", "b"),
            full_segment(A),
        }

    def test_full_is_fixed(self):
        A = ab()
        assert residual_closure(full_segment(A)) == {full_segment(A)}

    def test_chain(self):
        A = ab()
        got = residual_closure(segment(A, "ab"))
        assert got == {segment(A, "ab"), segment(A, "a"), full_segment(A)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            residual_closure(empty_segment(ab()))


class TestBuildEnvelope:
    def test_square_pair_lattice(self):
        A, env = square_pair_envelope()
        low = segment(A, "aa", "bb")
        mid = segment(A, "ab", "ba", "aa", "bb")
        left = segment(A, "a", "bb")
        right = segment(A, "b", "aa")
        phi = segment(A, "a", "b")
        top = full_segment(A)
        assert set(env.elements) == {low, mid, left, right, phi, top}
        assert env.x == top and env.y == low
        assert env.hasse == frozenset(
            {
                (low, mid),
                (mid, left),
                (mid, right),
                (left, phi),
                (right, phi),
                (phi, top),
            }
        )
        pairs = {
            frozenset((P, Q)) for P, a, Q in env.t_f if P != Q
        }
        all_pairs = {frozenset(c) for c in combinations(env.elements, 2)}
        assert pairs == all_pairs - {
            frozenset((top, low)),
            frozenset((top, mid)),
            frozenset((low, phi)),
        }
        assert len(pairs) == 12

    def test_transitions_match_independent_rule(self):
        _, square = square_pair_envelope()
        for env in [square] + regression_envelopes():
            expected = tf_system(env.alphabet, env.elements).transitions
            assert env.t_f == expected
            assert is_reflexive_involutive(env.transition_system())

    def test_elements_are_the_meet_closure_of_sampled_residuals(self):
        cases = regression_envelopes() + [build_envelope(segment(abc(), "aa", "bb", "cc"))]
        assert len(cases) == 82
        for env in cases:
            check_meet_closure(env, words_upto(env.alphabet, 3))

    def test_meet_closure_and_inclusion_on_drawn_antichains(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=40, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(
            st.sampled_from([ab(), ab_ordered()]),
            st.lists(st.text("ab", min_size=1, max_size=4), min_size=1, max_size=3),
        )
        def check(A, texts):
            env = build_envelope(canonicalize(A, [A.word(t) for t in texts]))
            check_meet_closure(env, words_upto(A, 4))
            for P in env.elements:
                for Q in env.elements:
                    assert subset_of(P, Q) == included(P, Q)
            assert env.hasse == covers_oracle(env.elements)

        check()

    def test_four_letter_square_pair(self):
        A = ab()
        F = segment(A, "aaaa", "bbbb")
        env = build_envelope(F)
        assert len(env.elements) == comb(8, 4)
        assert env.t_f == tf_system(A, env.elements).transitions
        aut = env.automaton()
        for w in words_upto(A, 6):
            assert accepts(aut, w) == member(F.basis, w), w

    def test_build_path_reads_no_triples(self):
        # the build, the minmax search and the DFA morphism read the
        # successor masks alone; the triples are made when t_f is read
        build_envelope.cache_clear()
        for F in (
            segment(ab(), "aa", "bb"),
            segment(ab_ordered(), "ab", "bba"),
            segment(abc_primed(), "a[b']", "ba"),
        ):
            env = build_envelope(F)
            search_minmax(F)
            min_dfa_morphism(F, env)
            assert "transitions" not in vars(env.transition_system())
            assert env.t_f == tf_system(env.alphabet, env.elements).transitions
            assert "transitions" in vars(env.transition_system())

    def test_build_calls_no_language_check_and_no_residual(self, monkeypatch):
        # every form, the columns' included, is read off the minimal DFA, and
        # the acceptor's language is checked by verify and the tests alone
        def refuse(*args):
            raise AssertionError("called by the build")

        for name, module in list(sys.modules.items()):
            if name == "higman" or name.startswith("higman."):
                for attr in ("language_equals_segment", "right_residual"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        for F in (segment(ab(), "aaa", "bbb"), segment(abc_primed(), "a[b']", "ba")):
            env = build_envelope.__wrapped__(F)
            assert env.y is F and env.elements[0] == full_segment(F.alphabet)

    def test_build_walks_the_quotients_once(self, monkeypatch):
        # the context comes from the walk on code strings: no minimal_dfa
        # and no segment residual, in the build or in the two readers of
        # the columns, with the walk's memo cold
        def refuse(*args):
            raise AssertionError("called by the build")

        for name, module in list(sys.modules.items()):
            if name == "higman" or name.startswith("higman."):
                for attr in ("minimal_dfa", "_left_residual"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        automata._quotient.cache_clear()
        for F in (segment(ab(), "aaa", "bbb"), segment(ab_ordered(), "ab", "bba")):
            env = build_envelope.__wrapped__(F)
            assert env.y is F and len(env.elements) == len(env)
            residual_closure(F)
            is_ferrers_segment(F)

    def test_acceptor_language_past_the_regression_sizes(self):
        for F in (
            segment(ab(), "aaaaa", "bbbbb"),
            segment(abc(), "aaa", "bbb", "ccc"),
            segment(ab(), "a" * 6, "b" * 6),
        ):
            env = build_envelope(F)
            assert language_equals_segment(env.automaton(), F) == (True, None)

    def test_three_cubes(self):
        # counted as popcounts of the successor masks, with no triple made
        env = build_envelope(segment(abc(), "aaa", "bbb", "ccc"))
        rows = env.transition_system()._successors
        assert len(env.elements) == 980
        assert sum(out.bit_count() for row in rows.values() for out in row) == 790_194

    def test_full_segment_collapses(self):
        A = ab()
        env = build_envelope(full_segment(A))
        assert env.elements == (full_segment(A),)
        assert env.x == env.y

    def test_chain(self):
        A = ab()
        env = build_envelope(segment(A, "ab"))
        assert env.elements == (
            full_segment(A),
            segment(A, "a"),
            segment(A, "ab"),
        )
        assert env.hasse == frozenset(
            {
                (segment(A, "ab"), segment(A, "a")),
                (segment(A, "a"), full_segment(A)),
            }
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_envelope(empty_segment(ab()))


# pickles an envelope whose distance from x to y is already cached
PICKLE_ENVELOPE = """
import pickle, sys
from higman.envelope import build_envelope, dist
from higman.segments import segment
from helpers import ab
env = build_envelope(segment(ab(), "aaa", "bbb"))
assert dist(env, env.x, env.y) == env.y
sys.stdout.buffer.write(pickle.dumps(env))
"""


class TestSystemView:
    def test_no_row_is_built_unless_read(self, monkeypatch, tmp_path, capsys):
        build_envelope.cache_clear()
        calls = count_calls(monkeypatch, envelope, "_successor_system")
        for F in regression_segments():
            env = build_envelope(F)
            as_pointed(env)
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(spec_document(F)), encoding="utf-8")
            assert main(["envelope", str(spec)]) == 0
            assert capsys.readouterr().out.startswith(f"{len(env.elements)} element")
            assert "_system" not in vars(env)
        assert calls == []

    def test_first_read_builds_once_and_keeps_the_system(self, monkeypatch):
        build_envelope.cache_clear()
        calls = count_calls(monkeypatch, envelope, "_successor_system")
        env = build_envelope(segment(ab(), "aa", "bb"))
        ts = env.transition_system()
        assert env.transition_system() is ts
        assert env.automaton().system is ts and env.t_f is ts.transitions
        assert calls == [(env,)]


def eager_views(F):
    """elements, hasse and extent of F's envelope, read eagerly: every AND
    of columns gets its form, the forms are sorted by seg_key, and the
    covers of E are the largest extents strictly inside it, found among all
    the extents rather than the column meets."""
    context = galois_context(F)
    extents = fresh = set(context.columns)
    while fresh:
        fresh = {E & C for E in fresh for C in context.columns} - extents
        extents = extents | fresh
    form = _forms(context, extents)
    hasse = set()
    for E in extents:
        inside = [M for M in extents if M & E == M != E]
        inside.sort(key=int.bit_count, reverse=True)
        largest = []
        for M in inside:
            if not any(M & K == M for K in largest):
                largest.append(M)
        hasse |= {(form[M], form[E]) for M in largest}
    elements = tuple(sorted(form.values(), key=seg_key))
    return elements, frozenset(hasse), {form[E]: E for E in extents}


class TestFormsView:
    # the build keeps the lattice on masks; elements, hasse and extent are
    # read by _forms on first access, all three at once, and kept
    def test_views_equal_an_eager_reading(self):
        for F in regression_segments() + [segment(abc(), "aaa", "bbb", "ccc")]:
            env = build_envelope.__wrapped__(F)
            assert "elements" not in vars(env)
            elements, hasse, extent = eager_views(F)
            assert env.elements == elements, F
            assert env.hasse == hasse, F
            assert env.extent == extent and list(env.extent) == list(elements), F

    def test_no_form_for_the_build_the_hash_or_the_count(self, monkeypatch):
        calls = count_calls(monkeypatch, envelope, "_forms")
        build_envelope.cache_clear()
        for F, count in (
            (segment(ab(), "aaa", "bbb"), 20),
            (segment(abc(), "aaa", "bbb", "ccc"), 980),
        ):
            env = build_envelope(F)
            assert hash(env) == hash(F) and env.x == full_segment(F.alphabet)
            assert len(env) == count
        assert calls == []
        elements = env.elements
        assert env.hasse and env.extent and env.elements is elements
        assert calls == [(env.context, env._extents)]

    def test_unread_envelope_compares_hashes_prints_and_pickles(self):
        F = segment(ab(), "aaa", "bbb")
        read = build_envelope.__wrapped__(F)
        text = repr(read)
        unread = build_envelope.__wrapped__(F)
        again = pickle.loads(pickle.dumps(unread))
        assert "elements" not in vars(again) and "elements" not in vars(unread)
        assert hash(again) == hash(unread) == hash(F)
        assert again == unread == read
        assert again.elements == read.elements and again.hasse == read.hasse
        assert again.extent == read.extent
        assert repr(build_envelope.__wrapped__(F)) == text

    @pytest.mark.parametrize("n, count", [(8, 12_870), (9, 48_620)])
    def test_element_count_of_large_squares_from_masks(self, monkeypatch, n, count):
        # C(2n, n) extents, counted with no form read
        calls = count_calls(monkeypatch, envelope, "_forms")
        env = build_envelope.__wrapped__(segment(ab(), "a" * n, "b" * n))
        assert len(env) == comb(2 * n, n) == count
        assert calls == []

    def test_an_envelope_given_its_views_has_their_masks(self):
        for env in regression_envelopes():
            given = EnvelopeLattice(
                env.alphabet, env.elements, env.x, env.y, env.hasse, env.extent,
                env.context,
            )
            assert given == env and given._extents == env._extents
            assert (len(given), given.cover_count()) == (len(env), env.cover_count())
            assert {E: set(M) for E, M in given._below.items()} == {
                E: set(M) for E, M in env._below.items()
            }


class TestExtents:
    def test_left_out_of_equality_hash_and_repr(self):
        F = segment(ab(), "aa", "bb")
        first = build_envelope(F)
        build_envelope.cache_clear()
        second = build_envelope(F)
        assert second is not first
        assert second == first
        assert hash(second) == hash(first)
        assert repr(second) == repr(first)

    def test_hash_is_the_hash_of_y(self):
        F = segment(ab(), "aaa", "bbb")
        env = build_envelope(F)
        assert hash(env) == hash(env.y) == hash(F)
        build_envelope.cache_clear()
        rebuilt = build_envelope(F)
        assert rebuilt is not env and hash(rebuilt) == hash(env)
        assert "_hash" not in vars(env)
        assert "__getstate__" not in vars(EnvelopeLattice)

    def test_pickled_envelope_is_found_under_another_hash_seed(self):
        F = segment(ab(), "aaa", "bbb")
        env = pickle.loads(output_under_another_hash_seed(PICKLE_ENVELOPE))
        local = build_envelope(F)
        assert env == local and hash(env) == hash(local)
        # the loaded envelope finds the distance cached under the local one
        D = dist(local, local.x, local.y)
        hits = dist.cache_info().hits
        assert dist(env, env.x, env.y) == D == F
        assert dist.cache_info().hits == hits + 1
        assert min_dfa_morphism(F, env) == min_dfa_morphism(F, local)

    def test_context_tables_follow_the_minimal_dfa(self):
        # pre reads a dense mask through its complement; both ways must give
        # the preimage under the successor table
        for env in regression_envelopes():
            context = env.context
            masks = set(context.columns) | set(env.extent.values())
            for a, row in context.succ.items():
                for E in masks | {~E & ((1 << len(row)) - 1) for E in masks}:
                    want = sum(1 << i for i, j in enumerate(row) if E >> j & 1)
                    assert context.pre(a, E) == want
        # state i is F's left quotient by the breadth-first word that reaches
        # it, by the oracle's membership on every short word, and no two
        # states agree on them; succ is the closure by left_residual
        main = segment(abc_primed(), "ab", "ac", "ba", "bc", "ca", "cb")
        specs = regression_segments() + regression_bases(ab_ordered())
        specs += [segment(abc(), "aa", "bb", "cc"), main]
        for F in [*dict.fromkeys(specs), empty_segment(ab()), full_segment(ab())]:
            A, context = F.alphabet, galois_context(F)
            states, delta = quotient_closure(F)
            assert context.states == tuple(states)
            for a, row in context.succ.items():
                assert [states[j] for j in row] == [delta[L, a] for L in states]
            path, order = {0: ()}, [0]
            for i in order:
                for a in A.letters:
                    j = context.succ[a][i]
                    if j not in path:
                        path[j] = path[i] + (a,)
                        order.append(j)
            assert order == list(range(len(context.states)))
            words = words_upto(A, 4 if len(A.letters) == 6 else 5)
            profiles = set()
            for i, L in enumerate(context.states):
                profile = [member(L.basis, w) for w in words]
                assert profile == [
                    member(F.basis, Word(A, path[i] + w.symbols)) for w in words
                ], (F, i)
                profiles.add(tuple(profile))
            assert len(profiles) == len(context.states), F

    def test_bit_inclusion_is_segment_inclusion(self):
        for env in regression_envelopes():
            assert set(env.extent) == set(env.elements)
            for P in env.elements:
                for Q in env.elements:
                    E, G = env.extent[P], env.extent[Q]
                    assert (E & G == E) == included(P, Q)


class TestSegmentForms:
    # each element is read off F's quotient automaton with its extent as the
    # accepting set; by definition it is the meet of the residuals F/w whose
    # columns hold its extent. The residuals come from a walk of their own:
    # F/(aw) = (F/w)/a, breadth-first in letter order, and the column of F/w
    # is the mask of the quotients holding w.
    def test_each_form_is_the_meet_of_its_columns(self):
        large = build_envelope(segment(ab(), "aaaaa", "bbbbb"))
        for env in regression_envelopes() + [large]:
            A, context = env.alphabet, env.context
            order, word = [env.y], {env.y: Word(A, ())}
            for R in order:
                for a in A.letters:
                    S = right_residual(R, Word(A, (a,)))
                    if S not in word:
                        word[S] = Word(A, (a,) + word[R].symbols)
                        order.append(S)
            columns = {
                R: sum(1 << i for i, L in enumerate(context.states) if contains(L, w))
                for R, w in word.items()
            }
            assert tuple(columns.values()) == context.columns
            for P in env.elements:
                E = env.extent[P]
                held = [R for R, C in columns.items() if E & C == E]
                assert P == reduce(intersect, held, full_segment(A)), P
                assert minimal_words(P.basis) == P.basis, P

    def test_more_columns_hold_a_successor_than_its_state(self):
        # the order _forms fills the states in: a strict successor lies in
        # every column holding its state, and in one more
        bases = regression_bases() + regression_bases(ab_ordered())
        large = [segment(ab(), "a" * 6, "b" * 6), segment(abc(), "aaa", "bbb", "ccc")]
        for F in bases + large:
            context = galois_context(F)
            columns, k = context.columns, len(context.states)
            held = [sum(C >> q & 1 for C in columns) for q in range(k)]
            for row in context.succ.values():
                for q, r in enumerate(row):
                    if r != q:
                        assert all(C >> r & 1 for C in columns if C >> q & 1), (F, q)
                        assert held[r] > held[q], (F, q, r)

    def test_deep_automaton_needs_no_recursion(self):
        F = segment(ab(), "a" * 1100, "b")
        context = galois_context(F)
        assert len(context.states) > sys.getrecursionlimit()
        # the accepting mask, first of the columns, is F's; the walk from F to
        # it passes every state of the chain. The columns run F, F/a, F/b = A*,
        # then F/a^k at position k + 1.
        E, middle = context.columns[0], context.columns[551]
        assert _forms(context, [E, middle]) == {
            E: F,
            middle: segment(ab(), "a" * 550, "b"),
        }

    def test_one_pass_for_many_extents_matches_one_extent_at_a_time(self):
        # the extents share each state's table of bases, so the form of an
        # extent must not depend on which extents come with it, in what
        # order, or how often
        bases = regression_bases() + regression_bases(ab_ordered())
        large = [segment(ab(), "a" * 6, "b" * 6), segment(abc(), "aaa", "bbb", "ccc")]
        rng = random.Random(28)
        for F in bases + large:
            env = build_envelope(F)
            context = env.context
            extents = list(env.extent.values()) + list(context.columns)
            alone = {E: _forms(context, [E])[E] for E in extents}
            shuffled = rng.sample(extents, len(extents))
            for given in (extents, extents[::-1], shuffled, shuffled + extents[::2]):
                forms = _forms(context, given)
                assert forms == alone, F
                assert list(forms) == list(dict.fromkeys(given)), F


class TestCovers:
    def test_agree_with_pairwise_inclusion(self):
        for env in regression_envelopes():
            assert env.hasse == covers_oracle(env.elements)

    def test_covers_are_computed_on_demand(self, monkeypatch):
        # the build, the count, the forms, the system, the distances and the
        # morphism read the extents alone; the first read of the covers runs
        # _largest once per extent, and later reads run it no more. dist's
        # cache starts empty, since finding an equal envelope of F there
        # would compare the two, covers included.
        calls = count_calls(monkeypatch, envelope, "_largest")
        for read in (lambda env: env.hasse, lambda env: env.cover_count()):
            for F in regression_segments() + [segment(ab(), "aaaa", "bbbb")]:
                dist.cache_clear()
                env = build_envelope.__wrapped__(F)
                assert len(env) == len(env.elements)
                env.transition_system()
                dist(env, env.x, env.y)
                min_dfa_morphism(F, env)
                assert calls == []
                read(env)
                assert len(calls) == len(env)
                env.hasse, env.cover_count()
                assert len(calls) == len(env)
                calls.clear()

    def test_largest_masks_are_those_inside_no_other(self):
        rng = random.Random(28)
        for _ in range(400):
            width = rng.randint(1, 10)
            masks = {rng.getrandbits(width) for _ in range(rng.randint(0, 8))}
            # a nested chain, each mask the last with its lowest bit dropped
            M = rng.getrandbits(width)
            while M:
                masks.add(M)
                M &= M - 1
            # masks of one popcount, none inside another
            k = rng.randint(1, width)
            for _ in range(rng.randint(0, 4)):
                masks.add(sum(1 << i for i in rng.sample(range(width), k)))
            kept = envelope._largest(masks)
            oracle = {M for M in masks if not any(M != K and M & K == M for K in masks)}
            assert sorted(kept) == sorted(oracle), masks
            counts = [M.bit_count() for M in kept]
            assert counts == sorted(counts, reverse=True), masks


class TestDist:
    def test_base_point_distance_is_f(self):
        A, env = square_pair_envelope()
        assert dist(env, env.x, env.y) == segment(A, "aa", "bb")

    def test_self_distance_is_unit(self):
        A, env = square_pair_envelope()
        for P in env.elements:
            assert dist(env, P, P) == full_segment(A)

    def test_distance_from_top_is_the_element(self):
        A, env = square_pair_envelope()
        for P in env.elements:
            assert dist(env, env.x, P) == P

    def test_non_element_rejected(self):
        A, env = square_pair_envelope()
        with pytest.raises(ValueError):
            dist(env, env.x, segment(A, "aaa"))

    def test_agrees_with_path_language(self):
        for A, env in (square_pair_envelope(), (ab(), build_envelope(segment(ab(), "ab")))):
            ts = env.transition_system()
            for P in env.elements:
                for Q in env.elements:
                    assert dist(env, P, Q) == path_language(ts, P, Q)

    def test_symmetry_and_triangle(self):
        A, env = square_pair_envelope()
        table = {
            (P, Q): dist(env, P, Q) for P in env.elements for Q in env.elements
        }
        for P in env.elements:
            for Q in env.elements:
                assert table[(P, Q)] == involute_seg(table[(Q, P)])
                assert (table[(P, Q)] == full_segment(A)) == (P == Q)
                for R in env.elements:
                    assert subset_of(
                        concat_seg(table[(P, Q)], table[(Q, R)]), table[(P, R)]
                    )


class TestMetricFormPair:
    def test_base_points(self):
        A, env = square_pair_envelope()
        F = segment(A, "aa", "bb")
        assert metric_form_pair(env, env.x) == (full_segment(A), involute_seg(F))
        assert metric_form_pair(env, env.y) == (F, full_segment(A))

    def test_base_points_with_involution(self):
        A = abc_primed()
        F = segment(A, "ab")
        env = build_envelope(F)
        hx, hy = metric_form_pair(env, env.x)
        assert hx == full_segment(A)
        assert hy == segment(A, "[b'][a']")

    def test_duality(self):
        A, env = square_pair_envelope()
        forms = {P: metric_form_pair(env, P) for P in env.elements}
        for P in env.elements:
            for Q in env.elements:
                hx, hy = forms[P]
                gx, gy = forms[Q]
                assert algebra_distance(hx, gx) == algebra_distance(hy, gy)

    def test_forms_are_pairwise_incomparable(self):
        A, env = square_pair_envelope()
        forms = [metric_form_pair(env, P) for P in env.elements]
        for (hx, hy), (gx, gy) in combinations(forms, 2):
            assert not (subset_of(gx, hx) and subset_of(gy, hy))
            assert not (subset_of(hx, gx) and subset_of(hy, gy))


class TestConvexity:
    def test_square_pair_envelope(self):
        A, env = square_pair_envelope()
        ok, witnesses = check_convexity(env)
        assert ok and witnesses == []

    def test_each_distance_tests_each_word_once(self, monkeypatch):
        # rows and columns repeat distances: one membership test per
        # (distance, code string) for the whole call, 420 on {aaa,bbb},
        # where a test per group made 5,416
        space = as_pointed(build_envelope(segment(ab(), "aaa", "bbb")))
        calls = []
        kernel = envelope._in

        def spy(D, s):
            calls.append((D, s))
            return kernel(D, s)

        monkeypatch.setattr(envelope, "_in", spy)
        assert check_convexity(space) == (True, [])
        assert len(calls) == len(set(calls)) == 420

    def test_chain_envelope(self):
        A = ab()
        ok, _ = check_convexity(build_envelope(segment(A, "ab")))
        assert ok

    def test_two_point_space_fails(self):
        A = ab()
        ok, witnesses = check_convexity(two_point_space(segment(A, "ab")))
        assert not ok
        assert witnesses == [
            ("x", "y", A.word("a"), A.word("b")),
            ("y", "x", A.word("b"), A.word("a")),
        ]

    def test_glued_two_point_spaces_fail_in_order(self):
        # y of d(x, y) = ↑ab glued to x of d(x, y) = ↑ba; the witnesses come
        # by pair (P, Q) in point order, then by basis word, then by cut
        A = ab()
        space = concat_pointed(
            two_point_space(segment(A, "ab")), two_point_space(segment(A, "ba"))
        )
        x, g, y = ("l", "x"), ("g",), ("r", "y")
        assert space.points == (x, g, y)
        ok, witnesses = check_convexity(space)
        assert not ok
        assert [(P, Q, str(u), str(v)) for P, Q, u, v in witnesses] == [
            (x, g, "a", "b"),
            (x, y, "a", "bba"),
            (x, y, "abb", "a"),
            (g, x, "b", "a"),
            (g, y, "b", "a"),
            (y, x, "a", "bba"),
            (y, x, "abb", "a"),
            (y, g, "a", "b"),
        ]


    def test_witnesses_of_a_hand_built_space_follow_the_definition(self):
        # x reaches y through the twins m and n, by ↑a twice, so every row
        # and column repeats a distance; the splits b|a and b|b of d(x, y)'s
        # basis words, and their mirror images, have no midpoint
        A = ab()
        full = full_segment(A)
        up = {("x", "m"): segment(A, "a"), ("x", "n"): segment(A, "a"),
              ("m", "y"): segment(A, "a"), ("n", "y"): segment(A, "a"),
              ("x", "y"): segment(A, "aa", "ba", "bb"), ("m", "n"): full}
        points = ("x", "m", "n", "y")
        d = {(P, P): full for P in points}
        for (P, Q), D in up.items():
            d[P, Q], d[Q, P] = D, involute_seg(D)
        space = PointedSpace(A, points, d, "x", "y")
        expected = []
        for P in points:
            for Q in points:
                for w in d[P, Q].basis:
                    for cut in range(len(w) + 1):
                        u, v = Word(A, w.symbols[:cut]), Word(A, w.symbols[cut:])
                        if not any(
                            member(d[P, Z].basis, u) and member(d[Z, Q].basis, v)
                            for Z in points
                        ):
                            expected.append((P, Q, u, v))
        assert len(expected) == 4
        ok, witnesses = check_convexity(space)
        assert not ok
        assert witnesses == expected


def two_point_space(F):
    """The points x and y at distance F."""
    A = F.alphabet
    d = {
        ("x", "x"): full_segment(A),
        ("y", "y"): full_segment(A),
        ("x", "y"): F,
        ("y", "x"): involute_seg(F),
    }
    return PointedSpace(A, ("x", "y"), d, "x", "y")


class TestNoProperIsometricSubspace:
    def test_square_pair_envelope(self):
        A, env = square_pair_envelope()
        assert no_proper_isometric_subspace(env)

    def test_one_point(self):
        A = ab()
        assert no_proper_isometric_subspace(build_envelope(full_segment(A)))

    def test_chain(self):
        A = ab()
        assert no_proper_isometric_subspace(build_envelope(segment(A, "ab")))

    def test_agrees_with_self_map_search(self):
        # seeded spaces of 1 to 5 points with asymmetric distances; in most,
        # a point r copies the row of a point p, and in half of those also
        # the column, which makes r and p twins
        A = ab()
        pool = [
            full_segment(A),
            segment(A, "a"),
            segment(A, "b"),
            segment(A, "ab"),
            empty_segment(A),
        ]
        rng = random.Random(43)
        verdicts = []
        for _ in range(300):
            points = tuple(range(rng.randint(1, 5)))
            d = {(p, q): rng.choice(pool) for p in points for q in points}
            if len(points) > 1 and rng.random() < 0.7:
                p, r = rng.sample(points, 2)
                for z in points:
                    d[(r, z)] = d[(p, z)]
                if rng.random() < 0.5:
                    for z in points:
                        d[(z, r)] = d[(z, p)]
            space = PointedSpace(A, points, d, points[0], points[-1])
            verdict = no_proper_isometric_subspace(space)
            assert verdict == (not has_proper_isometric_self_map(points, d)), d
            verdicts.append(verdict)
        assert verdicts.count(True) > 50 and verdicts.count(False) > 50


class TestConcatPointed:
    def test_glue_two_chains(self):
        A = ab()
        glued = concat_pointed(
            as_pointed(build_envelope(segment(A, "a"))),
            as_pointed(build_envelope(segment(A, "b"))),
        )
        assert len(glued.points) == 3
        assert glued.d[(glued.x, glued.y)] == segment(A, "ab")

    def test_unit_glue(self):
        A, env = square_pair_envelope()
        point = as_pointed(build_envelope(full_segment(A)))
        glued = concat_pointed(as_pointed(env), point)
        ok, _ = pointed_isometric(glued, as_pointed(env))
        assert ok
        glued = concat_pointed(point, as_pointed(env))
        ok, _ = pointed_isometric(glued, as_pointed(env))
        assert ok

    def test_glue_same_letter(self):
        A = ab()
        half = as_pointed(build_envelope(segment(A, "a")))
        glued = concat_pointed(half, half)
        assert len(glued.points) == 3
        assert glued.d[(glued.x, glued.y)] == segment(A, "aa")

    def test_two_alphabets_rejected(self):
        left = as_pointed(build_envelope(segment(ab(), "a")))
        right = as_pointed(build_envelope(segment(ab_ordered(), "a")))
        with pytest.raises(ValueError, match="different alphabets"):
            concat_pointed(left, right)

    def test_isometry_needs_equal_sizes_and_base_points(self):
        # a pointed space with x = y matches none with x != y, and spaces of
        # different sizes match nothing, before any distance is compared
        A = ab()
        pair = two_point_space(segment(A, "a"))
        point = as_pointed(build_envelope(full_segment(A)))
        assert pointed_isometric(pair, point) == (False, None)
        assert pointed_isometric(point, pair) == (False, None)
        merged = PointedSpace(A, pair.points, dict(pair.d), "x", "x")
        assert pointed_isometric(pair, merged) == (False, None)
        assert pointed_isometric(merged, pair) == (False, None)
        assert pointed_isometric(merged, merged)[0]


class TestVerifySumTheorem:
    def test_two_letters(self):
        A = ab()
        assert verify_sum_theorem(segment(A, "a"), segment(A, "b"))

    def test_same_letter(self):
        A = ab()
        assert verify_sum_theorem(segment(A, "a"), segment(A, "a"))

    def test_unit_factor(self):
        A = ab()
        assert verify_sum_theorem(full_segment(A), segment(A, "aa", "bb"))

    def test_empty_rejected(self):
        A = ab()
        with pytest.raises(ValueError):
            verify_sum_theorem(empty_segment(A), segment(A, "a"))


class TestDecompose:
    def test_two_letter_word(self):
        A = ab()
        assert decompose(segment(A, "ab")) == [segment(A, "a"), segment(A, "b")]

    def test_irreducible_pair(self):
        A = ab()
        F = segment(A, "aa", "bb")
        assert decompose(F) == [F]

    def test_full_is_unit(self):
        A = ab()
        assert decompose(full_segment(A)) == []

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decompose(empty_segment(ab()))

    def test_three_letter_word(self):
        A = ab()
        assert decompose(segment(A, "aba")) == [
            segment(A, "a"),
            segment(A, "b"),
            segment(A, "a"),
        ]

    def test_two_route_segment_is_irreducible(self):
        A = ab()
        F = segment(A, "ab", "ba")
        assert decompose(F) == [F]

    def test_irreducible_segment_is_walked_once(self, monkeypatch):
        calls = count_calls(monkeypatch, envelope, "articulation_states")
        A = ab()
        for F in (segment(A, "aa", "bb"), segment(A, "ab", "ba")):
            calls.clear()
            assert decompose(F) == [F]
            assert len(calls) == 1

    def test_factors_are_irreducible_on_the_regression_envelopes(self, monkeypatch):
        # a proper split walks F and then each factor; a single factor is F
        calls = count_calls(monkeypatch, envelope, "articulation_states")
        for env in regression_envelopes():
            F = env.y
            calls.clear()
            factors = decompose(F)
            assert reduce(concat_seg, factors, full_segment(F.alphabet)) == F
            for G in factors:
                sub = build_envelope(G)
                assert articulation_states(sub.transition_system(), sub.x, sub.y) == []
            walks = 0 if not factors else 1 if len(factors) == 1 else 1 + len(factors)
            assert len(calls) == walks

    def test_factors_multiply_back(self):
        rng = random.Random(23)
        cases = [F for F in regression_bases(ab()) if F.basis]
        rng.shuffle(cases)
        for F in cases[:20]:
            factors = decompose(F)
            assert reduce(concat_seg, factors, full_segment(ab())) == F


class TestEnvelopeInvariants:
    def test_sampled_regression_family(self):
        # ten sampled envelopes over a, b and every one over a <= b
        rng = random.Random(29)
        cases = [F for F in regression_bases(ab()) if F.basis]
        rng.shuffle(cases)
        ordered = [F for F in regression_bases(ab_ordered()) if F.basis]
        assert len(ordered) == 41
        for F in cases[:10] + ordered:
            env = build_envelope(F)
            ts = env.transition_system()
            assert is_reflexive_involutive(ts)
            space = as_pointed(env)
            for P in env.elements:
                for Q in env.elements:
                    d = space.d[(P, Q)]
                    assert (d == full_segment(env.alphabet)) == (P == Q)
                    assert d == involute_seg(space.d[(Q, P)])
                    assert d == path_language(ts, P, Q)
            ok, _ = check_convexity(space)
            assert ok
            assert no_proper_isometric_subspace(space)

    def test_involutive_alphabet_envelope(self):
        A = abc_primed()
        F = segment(A, "a[b']")
        env = build_envelope(F)
        assert dist(env, env.x, env.y) == F
        ok, _ = check_convexity(env)
        assert ok
        for P in env.elements:
            for Q in env.elements:
                assert dist(env, P, Q) == involute_seg(dist(env, Q, P))


def test_pointed_isometric_past_the_recursion_limit():
    """A 300-point space is matched under a recursion limit of 200."""
    points = tuple(range(300))
    d = {(p, q): abs(p - q) for p in points for q in points}
    space = PointedSpace(ab(), points, d, 0, points[-1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        ok, mapping = pointed_isometric(space, space)
    finally:
        sys.setrecursionlimit(limit)
    assert ok and mapping == {p: p for p in points}

import random
import sys
from functools import reduce
from itertools import permutations
from operator import or_

import pytest

from higman import automata, envelope
from higman.words import Alphabet, Word, embeds
from higman.segments import (
    concat_seg,
    contains,
    empty_segment,
    full_segment,
    intersect,
    involute_seg,
    right_residual,
    segment,
)
from higman.automata import (
    Automaton,
    TransitionSystem,
    _image,
    accepted_basis,
    accepts,
    articulation_states,
    complement,
    dfa_accepts,
    is_reflexive_involutive,
    isomorphic,
    language_equals_segment,
    minimal_dfa,
    saturate,
)
from higman.envelope import EnvelopeLattice, build_envelope, min_dfa_morphism

from helpers import (
    ab,
    ab_ordered,
    abc_primed,
    count_calls,
    nonempty_words,
    regression_bases,
    regression_envelopes,
    regression_segments,
    tf_system,
    times_letter_in,
)
from oracles import (
    cut_states_oracle,
    is_isomorphism,
    is_reflexive_involutive_oracle,
    isomorphic_oracle,
    member,
    saturate_oracle,
    undirected_distances,
    words_upto,
)


def square_pair_elements(A):
    top = full_segment(A)
    phi = segment(A, "a", "b")
    left = segment(A, "a", "bb")
    right = segment(A, "b", "aa")
    mid = segment(A, "ab", "ba", "aa", "bb")
    low = segment(A, "aa", "bb")
    return top, phi, left, right, mid, low


@pytest.fixture
def envelope_system():
    A = ab()
    top, phi, left, right, mid, low = square_pair_elements(A)
    ts = tf_system(A, [top, phi, left, right, mid, low])
    return A, ts, top, low


class TestSaturate:
    def test_empty_relation_gains_all_loops(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset()))
        assert ts.transitions == frozenset(
            (q, a, q) for q in ("x", "y") for a in ("a", "b")
        )

    def test_identity_involution_adds_reverse(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "a", "y")})))
        nonloops = {(p, a, q) for p, a, q in ts.transitions if p != q}
        assert nonloops == {("x", "a", "y"), ("y", "a", "x")}
        assert len(ts.transitions) == 6

    def test_letter_order_lifts_transitions(self):
        A = ab_ordered()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "a", "y")})))
        nonloops = {(p, a, q) for p, a, q in ts.transitions if p != q}
        assert nonloops == {
            ("x", "a", "y"),
            ("y", "a", "x"),
            ("x", "b", "y"),
            ("y", "b", "x"),
        }

    def test_involution_pairs_letters(self):
        A = abc_primed()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "a", "y")})))
        nonloops = {(p, a, q) for p, a, q in ts.transitions if p != q}
        assert nonloops == {("x", "a", "y"), ("y", "a'", "x")}

    def test_idempotent(self):
        A = ab_ordered()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "a", "y")})))
        assert saturate(ts).transitions == ts.transitions

    def test_validation(self):
        A = ab()
        with pytest.raises(ValueError):
            TransitionSystem(A, ("x",), frozenset({("x", "a", "z")}))
        with pytest.raises(ValueError):
            TransitionSystem(A, ("x",), frozenset({("x", "c", "x")}))
        with pytest.raises(ValueError):
            TransitionSystem(A, ("x", "x"), frozenset())

    def test_agrees_with_rule_oracle_on_drawn_systems(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=150, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(
            st.sampled_from([ab(), ab_ordered(), abc_primed()]),
            st.integers(1, 4),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3))
            ),
            st.booleans(),
        )
        def check(A, n, picks, closed):
            states = tuple(f"q{i}" for i in range(n))
            letters = A.letters
            trans = frozenset(
                (states[p % n], letters[a % len(letters)], states[q % n])
                for p, a, q in picks
            )
            ts = TransitionSystem(A, states, trans)
            if closed:
                ts = TransitionSystem(A, states, saturate_oracle(ts))
            expected = saturate_oracle(ts)
            assert saturate(ts).transitions == expected
            assert saturate(ts) == TransitionSystem(A, states, expected)
            assert is_reflexive_involutive(ts) == is_reflexive_involutive_oracle(ts)
            assert is_reflexive_involutive(ts) == (ts.transitions == expected)

        check()


class TestIsReflexiveInvolutive:
    def test_saturated_true(self):
        A = abc_primed()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "b", "y")})))
        assert is_reflexive_involutive(ts)

    def test_loop_free_false(self):
        A = ab()
        assert not is_reflexive_involutive(TransitionSystem(A, ("x",), frozenset()))

    def test_missing_reverse_false(self):
        A = abc_primed()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "a", "y")})))
        broken = TransitionSystem(A, ts.states, ts.transitions - {("y", "a'", "x")})
        assert not is_reflexive_involutive(broken)

    def test_agrees_with_rule_oracle(self):
        # saturated envelope systems, and copies missing one loop, one
        # transition only its reversal implies, or one transition only the
        # letter up-closure implies (removed with its reversal)
        envs = regression_envelopes()
        envs.append(build_envelope(segment(abc_primed(), "a[b']", "ba")))
        kinds = {"loop": 0, "reversal": 0, "up-closure": 0}
        for env in envs:
            ts = env.transition_system()
            A, T = ts.alphabet, ts.transitions
            assert is_reflexive_involutive(ts) and is_reflexive_involutive_oracle(ts)
            moves = sorted((t for t in T if t[0] != t[2]), key=repr)
            below = {
                (p, a, q): [c for c in A.letters if c != a and A.leq(c, a)]
                for p, a, q in moves
            }
            removals = {"loop": {min((t for t in T if t[0] == t[2]), key=repr)}}
            for p, a, q in moves:
                if not any((p, c, q) in T for c in below[(p, a, q)]):
                    removals["reversal"] = {(p, a, q)}
                    break
            for p, b, q in moves:
                if any((p, c, q) in T for c in below[(p, b, q)]):
                    removals["up-closure"] = {(p, b, q), (q, A.bar(b), p)}
                    break
            for kind, gone in removals.items():
                broken = TransitionSystem(A, ts.states, T - gone)
                assert not is_reflexive_involutive_oracle(broken)
                assert not is_reflexive_involutive(broken), (kind, gone)
                kinds[kind] += 1
        assert min(kinds.values()) > 10, kinds


    def test_verdict_is_computed_once_per_system(self, monkeypatch, envelope_system):
        # the closure runs once over the system's masks; further calls, those
        # of accepted_basis included, read the verdict kept beside the masks
        # (language_equals_segment takes any system and reads none)
        A, ts, top, low = envelope_system
        calls = []
        saturated = automata._saturated
        monkeypatch.setattr(
            automata, "_saturated", lambda t: calls.append(t) or saturated(t)
        )
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        for _ in range(3):
            assert is_reflexive_involutive(ts)
            assert accepted_basis(aut) == segment(A, "aa", "bb")
            assert language_equals_segment(aut, segment(A, "aa", "bb"))[0]
        assert calls == [ts]


class TestAccepts:
    def test_single_state_accepts_empty_word(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x",), frozenset()))
        aut = Automaton(ts, frozenset({"x"}), frozenset({"x"}))
        assert accepts(aut, A.word(""))

    def test_envelope_acceptor(self, envelope_system):
        A, ts, top, low = envelope_system
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        assert accepts(aut, A.word("aa"))
        assert accepts(aut, A.word("bb"))
        assert not accepts(aut, A.word("ab"))
        assert not accepts(aut, A.word(""))

    def test_alphabet_mismatch(self, envelope_system):
        A, ts, top, low = envelope_system
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        with pytest.raises(ValueError):
            accepts(aut, abc_primed().word("a"))

    def test_states_outside_the_system_rejected(self, envelope_system):
        A, ts, top, low = envelope_system
        for initial, final in (({"z"}, {low}), ({top}, {low, "z"})):
            with pytest.raises(ValueError, match="must be system states"):
                Automaton(ts, frozenset(initial), frozenset(final))


def scan_step(ts, states, a):
    """The states one a-transition away, by scanning every transition."""
    return frozenset(q for p, x, q in ts.transitions if p in states and x == a)


def scan_accepts(aut, w):
    current = aut.initial
    for a in w.symbols:
        current = scan_step(aut.system, current, a)
    return bool(current & aut.final)


class TestIndexedStep:
    def systems(self):
        rng = random.Random(19)
        for env in regression_envelopes():
            yield env.automaton()
        # string states, saturated or not, some states without successors
        for A in (ab(), ab_ordered(), abc_primed()):
            for _ in range(4):
                aut = random_saturated_automaton(A, rng, n_states=4, density=0.2)
                yield aut
                bare = TransitionSystem(
                    A,
                    aut.system.states,
                    frozenset(t for t in aut.system.transitions if rng.random() < 0.3),
                )
                yield Automaton(bare, aut.initial, aut.final)

    def test_agrees_with_transition_scan(self):
        rng = random.Random(7)
        for aut in self.systems():
            ts = aut.system
            A = ts.alphabet
            subsets = [frozenset(), frozenset(ts.states)] + [
                frozenset({q}) for q in ts.states
            ] + [frozenset(rng.sample(ts.states, len(ts.states) // 2)) for _ in range(3)]
            for S in subsets:
                for a in A.letters:
                    assert _image(ts._successors[a], ts._mask(S)) == ts._mask(
                        scan_step(ts, S, a)
                    )
            for w in words_upto(A, 3 if len(A.letters) == 2 else 2):
                assert accepts(aut, w) == scan_accepts(aut, w), w

    def test_is_the_or_of_the_rows_of_the_mask_bits(self):
        rng = random.Random(23)
        checked = 0
        for env in regression_envelopes():
            ts = env.transition_system()
            n = len(ts.states)
            for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]:
                for a, row in ts._successors.items():
                    rows = [row[i] for i in range(n) if mask >> i & 1]
                    assert _image(row, mask) == reduce(or_, rows, 0)
                    checked += 1
        assert checked == 8 * 2 * 81

    def test_table_leaves_equality_and_hash(self):
        # the envelope's system is built from its rows, the other from its
        # triples: they are equal, hash alike and serve as one dict key
        env = build_envelope(segment(ab(), "aa", "bb"))
        one = env.transition_system()
        other = TransitionSystem(one.alphabet, one.states, one.transitions)
        assert one == other and hash(one) == hash(other)
        assert {one: 1}[other] == 1 and {other: 2}[one] == 2
        assert len({one, other}) == 1

    def test_envelope_shares_one_system(self):
        env = build_envelope(segment(ab(), "aa", "bb"))
        assert env.transition_system() is env.transition_system()
        assert env.automaton().system is env.transition_system()


class TestAcceptedBasis:
    def test_envelope_acceptor_recovers_generators(self, envelope_system):
        A, ts, top, low = envelope_system
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        assert accepted_basis(aut) == segment(A, "aa", "bb")

    def test_disconnected_states_give_empty(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset()))
        aut = Automaton(ts, frozenset({"x"}), frozenset({"y"}))
        assert accepted_basis(aut) == empty_segment(A)

    def test_single_state_gives_full(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x",), frozenset()))
        aut = Automaton(ts, frozenset({"x"}), frozenset({"x"}))
        assert accepted_basis(aut) == full_segment(A)

    def test_rejects_unsaturated(self):
        A = ab()
        ts = TransitionSystem(A, ("x",), frozenset())
        with pytest.raises(ValueError):
            accepted_basis(Automaton(ts, frozenset({"x"}), frozenset({"x"})))


class TestLanguageEqualsSegment:
    def test_envelope_acceptor(self, envelope_system):
        A, ts, top, low = envelope_system
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        ok, witness = language_equals_segment(aut, segment(A, "aa", "bb"))
        assert ok and witness is None

    def test_missing_word_is_witnessed(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset()))
        aut = Automaton(ts, frozenset({"x"}), frozenset({"y"}))
        ok, witness = language_equals_segment(aut, segment(A, "a"))
        assert not ok
        assert witness == A.word("a")

    def test_excess_word_is_witnessed(self, envelope_system):
        A, ts, top, low = envelope_system
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        ok, witness = language_equals_segment(aut, segment(A, "aaa"))
        assert not ok
        assert witness is not None
        assert contains(segment(A, "aa", "bb"), witness)
        assert not contains(segment(A, "aaa"), witness)

    def test_single_state_full_language(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x",), frozenset()))
        aut = Automaton(ts, frozenset({"x"}), frozenset({"x"}))
        ok, witness = language_equals_segment(aut, full_segment(A))
        assert ok and witness is None

    def test_any_system_against_words_to_length_four(self):
        # seeded systems that are not saturated, and their saturations, each
        # against segments drawn from the regression bases, the empty segment
        # and the accepted basis of the saturation. A True verdict leaves no
        # disagreement up to length 4; a False one gives the least word on
        # which the triple walk and membership by embedding disagree.
        rng = random.Random(29)
        verdicts = {}
        for A in (ab(), ab_ordered()):
            words = words_upto(A, 4)
            pool = regression_bases(A)
            # x -> y on every letter, loops on x only: not involutive, and
            # still the up-closed language of all nonempty words
            one_way = {("x", a, q) for a in A.letters for q in "xy"}
            systems = [(TransitionSystem(A, ("x", "y"), frozenset(one_way)), "x", "y")]
            for _ in range(12):
                states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
                triples = frozenset(
                    (p, a, q)
                    for p in states
                    for a in A.letters
                    for q in states
                    if rng.random() < 0.3
                )
                ts = TransitionSystem(A, states, triples)
                systems.append((ts, rng.choice(states), rng.choice(states)))
            for ts, start, end in systems:
                ends = frozenset({start}), frozenset({end})
                closed = accepted_basis(Automaton(saturate(ts), *ends))
                for system in (ts, saturate(ts)):
                    aut = Automaton(system, *ends)
                    saturated = is_reflexive_involutive(system)
                    for F in rng.sample(pool, 3) + [empty_segment(A), closed]:
                        ok, witness = language_equals_segment(aut, F)
                        differ = [
                            w for w in words
                            if scan_accepts(aut, w) != member(F.basis, w)
                        ]
                        if ok:
                            assert witness is None and not differ
                        else:
                            assert scan_accepts(aut, witness) != member(F.basis, witness)
                            assert not differ or witness == differ[0]
                        verdicts[saturated, ok] = verdicts.get((saturated, ok), 0) + 1
        assert min(verdicts.values()) >= 5 and len(verdicts) == 4, verdicts


class TestMinimalDfa:
    def test_three_state_chain(self):
        A = ab()
        F = segment(A, "ab")
        dfa = minimal_dfa(F)
        assert set(dfa.states) == {F, segment(A, "b"), full_segment(A)}
        assert dfa.start == F
        assert dfa.accepting == frozenset({full_segment(A)})

    def test_full_segment_single_state(self):
        A = ab()
        dfa = minimal_dfa(full_segment(A))
        assert len(dfa.states) == 1
        assert dfa.accepting == frozenset(dfa.states)

    def test_empty_segment_rejects_everything(self):
        A = ab()
        dfa = minimal_dfa(empty_segment(A))
        assert len(dfa.states) == 1
        assert not dfa.accepting
        for w in words_upto(A, 3):
            assert not dfa_accepts(dfa, w)

    def test_membership_matches_contains(self):
        for A in (ab(), ab_ordered()):
            rng = random.Random(7)
            cases = regression_bases(A)
            rng.shuffle(cases)
            for F in cases[:12]:
                dfa = minimal_dfa(F)
                for w in words_upto(A, 5):
                    assert dfa_accepts(dfa, w) == contains(F, w)

    def test_complement_flips_acceptance(self):
        A = ab()
        F = segment(A, "ab", "ba")
        dfa = minimal_dfa(F)
        co = complement(dfa)
        for w in words_upto(A, 4):
            assert dfa_accepts(co, w) == (not contains(F, w))


class TestMinDfaMorphism:
    def test_chain_images(self):
        A = ab()
        F = segment(A, "ab")
        image = min_dfa_morphism(F)
        assert image[F] == full_segment(A)
        assert image[full_segment(A)] == F
        assert image[segment(A, "b")] == segment(A, "a")

    def test_empty_segment_rejected(self):
        A = ab()
        with pytest.raises(ValueError):
            min_dfa_morphism(empty_segment(A))

    def test_envelope_of_another_segment_rejected(self):
        A = ab()
        texts = [("a",), ("ab",), ("aa", "bb"), ("ab", "ba"), ("",)]
        specs = [segment(A, *t) for t in texts]
        for F in specs:
            for G in specs:
                if F != G:
                    with pytest.raises(ValueError):
                        min_dfa_morphism(F, build_envelope(G))

    def test_images_match_residual_intersections(self):
        # the segment-algebra definition of the map, with both inclusions of
        # every image edge restated independently
        for env in regression_envelopes():
            F = env.y
            A = F.alphabet
            dfa = minimal_dfa(F)
            image = min_dfa_morphism(F, env)
            for Y in dfa.states:
                assert image[Y] == reduce(
                    intersect,
                    (right_residual(F, b) for b in Y.basis),
                    full_segment(A),
                )
            for (Y, a), Y2 in dfa.delta.items():
                assert times_letter_in(image[Y], a, image[Y2])
                assert times_letter_in(image[Y2], A.bar(a), image[Y])

    def test_missing_image_transition_is_caught(self):
        # every image edge is load-bearing: redirect one quotient edge to a
        # state whose image is not an a-successor of the source's image, and
        # the test on the masks must refuse it, whichever inclusion fails
        failed = set()
        for F in (
            segment(ab(), "aa", "bb"),
            segment(ab(), "ab", "ba"),
            segment(abc_primed(), "a[b']", "ba"),
        ):
            env = build_envelope(F)
            A, context = F.alphabet, env.context
            image = min_dfa_morphism(F, env)
            image = [image[L] for L in context.states]
            for a, row in context.succ.items():
                for i, P in enumerate(image):
                    for j, Q in enumerate(image):
                        held = (times_letter_in(P, a, Q), times_letter_in(Q, A.bar(a), P))
                        if all(held):
                            continue
                        failed.add(held)
                        redirected = row[:i] + (j,) + row[i + 1 :]
                        lost = context._replace(succ={**context.succ, a: redirected})
                        broken = EnvelopeLattice(lost, F, env.extents)
                        with pytest.raises(RuntimeError, match="morphism transition missing"):
                            min_dfa_morphism(F, broken)
        assert {(False, True), (True, False)} <= failed

    def test_image_edges_are_tested_on_masks(self, monkeypatch):
        # the morphism reads the masks alone: no system is built, nor the
        # element views, and the map is the same once both are read
        calls = count_calls(monkeypatch, envelope, "_successor_system")
        for built, F in enumerate(regression_segments()):
            env = build_envelope.__wrapped__(F)
            image = min_dfa_morphism(F, env)
            assert len(calls) == built and "_system" not in vars(env)
            assert "elements" not in vars(env)
            assert set(image.values()) <= set(env.elements)
            env.transition_system()
            assert min_dfa_morphism(F, env) == image

    def test_missing_mask_transition_is_caught(self):
        # predecessor masks that lose every bit put no image edge's source
        # inside pre_a of its target; the check must refuse them
        A = ab()
        F = segment(A, "aa", "bb")
        env = build_envelope.__wrapped__(F)
        preds = {a: [0] * len(row) for a, row in env.context.preds.items()}
        lost = env.context._replace(preds=preds)
        broken = EnvelopeLattice(lost, F, env.extents)
        with pytest.raises(RuntimeError, match="morphism transition missing"):
            min_dfa_morphism(F, broken)

    def test_verifies_on_samples(self):
        for A in (ab(), ab_ordered(), abc_primed()):
            words = ["a", "ab", "ba"] if A.letters[0] == "a" else []
            for text in words:
                min_dfa_morphism(segment(A, text))
        A = ab()
        min_dfa_morphism(segment(A, "aa", "bb"))
        min_dfa_morphism(full_segment(A))


class TestIsomorphic:
    def test_self(self, envelope_system):
        A, ts, top, low = envelope_system
        aut = Automaton(ts, frozenset({top}), frozenset({low}))
        ok, witness = isomorphic(aut, aut)
        assert ok
        assert witness == {q: q for q in ts.states}

    def test_different_sizes(self):
        A = ab()
        one = saturate(TransitionSystem(A, ("x",), frozenset()))
        two = saturate(TransitionSystem(A, ("x", "y"), frozenset()))
        ok, witness = isomorphic(
            Automaton(one, frozenset({"x"}), frozenset({"x"})),
            Automaton(two, frozenset({"x"}), frozenset({"x"})),
        )
        assert not ok and witness is None

    def test_relabeling_found(self, envelope_system):
        A, ts, top, low = envelope_system
        names = {q: str(i) for i, q in enumerate(ts.states)}
        relabeled = TransitionSystem(
            A,
            tuple(names[q] for q in ts.states),
            frozenset((names[p], a, names[q]) for p, a, q in ts.transitions),
        )
        aut1 = Automaton(ts, frozenset({top}), frozenset({low}))
        aut2 = Automaton(
            relabeled, frozenset({names[top]}), frozenset({names[low]})
        )
        ok, witness = isomorphic(aut1, aut2)
        assert ok
        assert witness[top] == names[top] and witness[low] == names[low]
        for p, a, q in ts.transitions:
            assert (witness[p], a, witness[q]) in relabeled.transitions
        assert len(set(witness.values())) == len(ts.states)

    def test_final_placement_matters(self):
        A = ab()
        chain = saturate(
            TransitionSystem(
                A, ("x", "m", "y"), frozenset({("x", "a", "m"), ("m", "a", "y")})
            )
        )
        near = Automaton(chain, frozenset({"x"}), frozenset({"m"}))
        far = Automaton(chain, frozenset({"x"}), frozenset({"y"}))
        ok, _ = isomorphic(near, far)
        assert not ok

    def test_agrees_with_permutation_oracle(self):
        # small saturated systems: relabelled copies, listed in another
        # order, must match; moving the final state gives same-size pairs
        # that may or may not
        rng = random.Random(17)
        isomorphic_pairs = non_isomorphic_pairs = 0
        for A in (ab(), ab_ordered()):
            for _ in range(40):
                n = rng.randint(1, 5)
                states = tuple(range(n))
                edges = frozenset(
                    (rng.randrange(n), rng.choice(A.letters), rng.randrange(n))
                    for _ in range(rng.randint(0, 2 * n))
                )
                ts = saturate(TransitionSystem(A, states, edges))
                x, y = rng.randrange(n), rng.randrange(n)
                aut = Automaton(ts, frozenset({x}), frozenset({y}))
                perm = rng.sample(states, n)
                names = {q: f"s{perm[q]}" for q in states}
                copy = Automaton(
                    TransitionSystem(
                        A,
                        tuple(f"s{i}" for i in range(n)),
                        frozenset((names[p], a, names[q]) for p, a, q in ts.transitions),
                    ),
                    frozenset({names[x]}),
                    frozenset({names[y]}),
                )
                moved = Automaton(ts, frozenset({x}), frozenset({rng.randrange(n)}))
                for other in (copy, moved):
                    ok, witness = isomorphic(aut, other)
                    assert ok == isomorphic_oracle(aut, other)
                    if ok:
                        assert is_isomorphism(aut, other, witness)
                        isomorphic_pairs += 1
                    else:
                        assert witness is None
                        non_isomorphic_pairs += 1
        assert (isomorphic_pairs, non_isomorphic_pairs) == (122, 38)

    def test_witness_is_the_first_isomorphism_on_directed_systems(self):
        # unsaturated systems, where a state's successors and predecessors
        # differ; states are assigned in order and candidates tried in order,
        # so the witness is the first isomorphism in that order
        rng = random.Random(28)
        found = 0
        for A in (ab(), ab_ordered()):
            for _ in range(60):
                n = rng.randint(1, 5)
                states = tuple(range(n))
                edges = frozenset(
                    (rng.randrange(n), rng.choice(A.letters), rng.randrange(n))
                    for _ in range(rng.randint(0, 2 * n))
                )
                ts = TransitionSystem(A, states, edges)
                x, y = rng.randrange(n), rng.randrange(n)
                aut = Automaton(ts, frozenset({x}), frozenset({y}))
                perm = rng.sample(states, n)
                copy = Automaton(
                    TransitionSystem(
                        A, states, frozenset((perm[p], a, perm[q]) for p, a, q in edges)
                    ),
                    frozenset({perm[x]}),
                    frozenset({perm[y]}),
                )
                moved = Automaton(ts, frozenset({x}), frozenset({rng.randrange(n)}))
                for other in (copy, moved):
                    first = next(
                        (
                            f
                            for f in (dict(zip(states, image)) for image in permutations(states))
                            if is_isomorphism(aut, other, f)
                        ),
                        None,
                    )
                    assert isomorphic(aut, other) == (first is not None, first)
                    found += first is not None
        assert found == 176  # of 240 pairs

    def test_empty_alphabet(self):
        # with no letters, a bijection only has to keep the initial and final
        # states
        ts = TransitionSystem(Alphabet(()), ("x", "y"), frozenset())
        aut = Automaton(ts, frozenset({"x"}), frozenset({"y"}))
        swapped = Automaton(ts, frozenset({"y"}), frozenset({"x"}))
        assert isomorphic(aut, aut) == (True, {"x": "x", "y": "y"})
        assert isomorphic(aut, swapped) == (True, {"x": "y", "y": "x"})


class TestArticulationStates:
    def test_chain_has_middle_cut(self):
        A = ab()
        top = full_segment(A)
        mid = segment(A, "a")
        low = segment(A, "ab")
        ts = tf_system(A, [top, mid, low])
        assert articulation_states(ts, top, low) == [mid]

    def test_parallel_middles_have_no_cut(self, envelope_system):
        A, ts, top, low = envelope_system
        assert articulation_states(ts, top, low) == []

    def test_two_states(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset({("x", "a", "y")})))
        assert articulation_states(ts, "x", "y") == []

    def test_same_endpoints(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x",), frozenset()))
        assert articulation_states(ts, "x", "x") == []

    def test_disconnected_endpoints_rejected(self):
        A = ab()
        ts = saturate(TransitionSystem(A, ("x", "y"), frozenset()))
        with pytest.raises(ValueError):
            articulation_states(ts, "x", "y")

    def test_no_letter_leaves_the_endpoints_unconnected(self):
        ts = TransitionSystem(Alphabet(()), ("x", "y"), frozenset())
        with pytest.raises(ValueError, match="not connected"):
            articulation_states(ts, "x", "y")

    def test_ordering_by_distance(self):
        A = ab()
        # x - u - v - y path
        ts = saturate(
            TransitionSystem(
                A,
                ("x", "u", "v", "y"),
                frozenset({("x", "a", "u"), ("u", "a", "v"), ("v", "a", "y")}),
            )
        )
        assert articulation_states(ts, "x", "y") == ["u", "v"]
        assert articulation_states(ts, "y", "x") == ["v", "u"]

    def test_agrees_with_removal_oracle_on_drawn_systems(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(
            st.sampled_from([ab(), ab_ordered(), abc_primed(), Alphabet(["a"])]),
            st.integers(1, 10),
            st.lists(
                st.tuples(st.integers(0, 9), st.integers(0, 5), st.integers(0, 9))
            ),
            st.integers(0, 9),
            st.integers(0, 9),
            st.booleans(),
        )
        def check(A, n, picks, i, j, chained):
            states = tuple(f"q{k}" for k in range(n))
            letters = A.letters
            if chained:  # a path through every state: connected, with cuts
                picks = picks + [(k, 0, k + 1) for k in range(n - 1)]
            trans = frozenset(
                (states[p % n], letters[a % len(letters)], states[q % n])
                for p, a, q in picks
            )
            ts = TransitionSystem(A, states, trans)
            # distinct endpoints whenever there are two states
            x, y = states[i % n], states[(i + 1 + j % max(n - 1, 1)) % n]
            for x, y in ((x, y), (y, x)):
                try:
                    expected = cut_states_oracle(ts, x, y)
                except ValueError as e:
                    with pytest.raises(ValueError, match=str(e)):
                        articulation_states(ts, x, y)
                else:
                    assert articulation_states(ts, x, y) == expected

        check()

    @pytest.mark.parametrize(
        "gens",
        [(("aa", "bb"), ("aa", "bb")), (("aabb",),), (("a",), ("ab", "ba"))],
    )
    def test_agrees_with_removal_oracle_on_concatenations(self, gens):
        A = ab()
        F = reduce(concat_seg, (segment(A, *g) for g in gens))
        env = build_envelope(F)
        ts = env.transition_system()
        cuts = articulation_states(ts, env.x, env.y)
        assert cuts == cut_states_oracle(ts, env.x, env.y)
        assert articulation_states(ts, env.y, env.x) == cuts[::-1]
        assert cut_states_oracle(ts, env.y, env.x) == cuts[::-1]
        if gens == (("aa", "bb"), ("aa", "bb")):
            assert cuts == [segment(A, "aa", "bb")]

    def test_walks_one_path(self, monkeypatch):
        env = build_envelope(segment(ab(), "aaaaa", "bbbbb"))
        ts = env.transition_system()
        d = undirected_distances(ts, env.x)[env.y]
        calls = count_calls(monkeypatch, automata, "closure")
        assert articulation_states(ts, env.x, env.y) == []
        assert len(calls) <= 1 + d

    def test_reads_the_graph_off_the_system_unsaturated(self, monkeypatch):
        """Saturating would add only loops and pairs a letter already joins,
        so the undirected graph is read off the system's own masks."""
        A = ab()
        F = concat_seg(segment(A, "aa", "bb"), segment(A, "aa", "bb"))
        env = build_envelope(F)
        ts = env.transition_system()
        calls = count_calls(monkeypatch, automata, "_saturated")
        assert articulation_states(ts, env.x, env.y) == [segment(A, "aa", "bb")]
        assert articulation_states(ts, env.y, env.x) == [segment(A, "aa", "bb")]
        assert calls == []


def random_saturated_automaton(A, rng, n_states=3, density=0.3):
    states = tuple(f"q{i}" for i in range(n_states))
    trans = set()
    for p in states:
        for q in states:
            for a in A.letters:
                if rng.random() < density:
                    trans.add((p, a, q))
    ts = saturate(TransitionSystem(A, states, frozenset(trans)))
    initial = frozenset({rng.choice(states)})
    final = frozenset({rng.choice(states)})
    return Automaton(ts, initial, final)


class TestSaturatedLanguageInvariants:
    def test_language_is_up_closed(self):
        rng = random.Random(11)
        for A in (ab_ordered(), abc_primed()):
            for _ in range(6):
                aut = random_saturated_automaton(A, rng)
                short = [w for w in words_upto(A, 2) if accepts(aut, w)]
                for w in short:
                    for v in nonempty_words(A, 2):
                        for cut in range(len(w.symbols) + 1):
                            bigger = Word(
                                A, w.symbols[:cut] + v.symbols + w.symbols[cut:]
                            )
                            assert embeds(w, bigger)
                            assert accepts(aut, bigger)

    def test_accepted_basis_round_trip(self):
        rng = random.Random(13)
        for A in (ab(), ab_ordered()):
            for _ in range(8):
                aut = random_saturated_automaton(A, rng)
                F = accepted_basis(aut)
                for u in F.basis:
                    for v in F.basis:
                        assert u == v or not embeds(u, v)
                ok, witness = language_equals_segment(aut, F)
                assert ok, witness

    def test_path_reversal_symmetry(self):
        rng = random.Random(17)
        A = abc_primed()
        for _ in range(5):
            aut = random_saturated_automaton(A, rng, n_states=3, density=0.15)
            states = aut.system.states
            for p in states:
                for q in states:
                    fwd = accepted_basis(
                        Automaton(aut.system, frozenset({p}), frozenset({q}))
                    )
                    bwd = accepted_basis(
                        Automaton(aut.system, frozenset({q}), frozenset({p}))
                    )
                    assert fwd == involute_seg(bwd)


def test_isomorphic_chain_past_the_recursion_limit():
    """find_bijection assigns one state per step of a loop, not per frame."""
    n = sys.getrecursionlimit() + 100
    states = tuple(range(n))
    edges = frozenset((i, "a", i + 1) for i in states[:-1])
    chain = TransitionSystem(ab(), states, edges)
    aut = Automaton(chain, frozenset({0}), frozenset({n - 1}))
    ok, witness = isomorphic(aut, aut)
    assert ok and witness == {q: q for q in states}

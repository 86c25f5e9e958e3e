import random
from functools import reduce
from itertools import combinations

import pytest

from higman.segments import (
    concat_seg,
    contains,
    empty_segment,
    full_segment,
    involute_seg,
    segment,
    subset_of,
)
from higman.automata import Automaton, accepted_basis, is_reflexive_involutive
from higman.envelope import (
    PointedSpace,
    algebra_distance,
    as_pointed,
    build_envelope,
    check_convexity,
    concat_pointed,
    decompose,
    dist,
    metric_form_pair,
    no_proper_isometric_subspace,
    pointed_isometric,
    residual_closure,
    verify_sum_theorem,
)

from helpers import (
    ab,
    ab_ordered,
    abc_primed,
    regression_bases,
    regression_envelopes,
    tf_system,
)
from oracles import covers_oracle, has_proper_isometric_self_map


def square_pair_envelope():
    A = ab()
    return A, build_envelope(segment(A, "aa", "bb"))


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


class TestCovers:
    def test_agree_with_pairwise_inclusion(self):
        for env in regression_envelopes():
            assert env.hasse == covers_oracle(env.elements)


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

    def test_chain_envelope(self):
        A = ab()
        ok, _ = check_convexity(build_envelope(segment(A, "ab")))
        assert ok

    def test_two_point_space_fails(self):
        A = ab()
        F = segment(A, "ab")
        d = {
            ("x", "x"): full_segment(A),
            ("y", "y"): full_segment(A),
            ("x", "y"): F,
            ("y", "x"): involute_seg(F),
        }
        space = PointedSpace(A, ("x", "y"), d, "x", "y")
        ok, witnesses = check_convexity(space)
        assert not ok
        assert ("x", "y", A.word("a"), A.word("b")) in witnesses


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

"""The public API: every name importable from higman.

Dropping or renaming one breaks users' imports, so it should take a
deliberate edit here, after a deprecation path.
"""

import types

import higman

PUBLIC_NAMES = """
Alphabet Automaton CapExceeded ChainProduct Dfa EnvelopeLattice FinalSegment
PointedSpace TransitionSystem UpSet Word accepted_basis accepts
algebra_distance all_upsets articulation_states as_pointed build_envelope
canonicalize check_convexity check_ferrers_equivalence coding_maps complement
concat concat_pointed concat_seg contains count_upsets decompose dfa_accepts
disjoint_downsets dist downset_dfa embeds empty_segment empty_up_set
format_segment full_segment full_up_set intersect intersect_upsets involute
involute_seg is_ferrers_regular is_ferrers_segment is_linearly_orderable
is_minmax is_reflexive_involutive isomorphic language_equals_segment
left_residual leq max_embeddable_prefix max_embeddable_suffix metric_form_pair
min_dfa_morphism min_upper_bounds minimal_dfa no_proper_isometric_subspace phi
pointed_isometric psi quadruple_sample_test reproduce_main_example
residual_closure right_residual saturate search_minmax segment subset_of
tuple_of_word union union_upsets up_member up_set verify_full_embedding
verify_sum_theorem
""".split()


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(higman).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 77
    assert names == sorted(PUBLIC_NAMES)

"""Algebra of final segments of the free ordered monoid, and what grows out of
it: injective envelopes of two-point spaces, their automata, the chain-product
isomorphism, Ferrers tests, and minmax acceptors.

The import block below is the public API: every name it imports is importable
from higman."""

from .words import (
    Alphabet,
    Word,
    concat,
    embeds,
    involute,
    max_embeddable_prefix,
    max_embeddable_suffix,
    min_upper_bounds,
)
from .segments import (
    FinalSegment,
    canonicalize,
    concat_seg,
    contains,
    empty_segment,
    format_segment,
    full_segment,
    intersect,
    involute_seg,
    left_residual,
    leq,
    right_residual,
    segment,
    subset_of,
    union,
)
from .automata import (
    Automaton,
    Dfa,
    TransitionSystem,
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
from .envelope import (
    EnvelopeLattice,
    PointedSpace,
    algebra_distance,
    as_pointed,
    build_envelope,
    check_convexity,
    concat_pointed,
    decompose,
    dist,
    metric_form_pair,
    min_dfa_morphism,
    no_proper_isometric_subspace,
    pointed_isometric,
    residual_closure,
    verify_sum_theorem,
)

from .chainprod import (
    ChainProduct,
    UpSet,
    all_upsets,
    coding_maps,
    count_upsets,
    disjoint_downsets,
    empty_up_set,
    full_up_set,
    intersect_upsets,
    phi,
    psi,
    tuple_of_word,
    union_upsets,
    up_member,
    up_set,
    verify_full_embedding,
)
from .ferrers import (
    check_ferrers_equivalence,
    downset_dfa,
    is_ferrers_regular,
    is_ferrers_segment,
    is_linearly_orderable,
    quadruple_sample_test,
)
from .minmax import (
    CapExceeded,
    is_minmax,
    reproduce_main_example,
    search_minmax,
)

"""Finite presheaf toposes with internal-category machinery: Segal
objects, objects of equivalences, completeness, and univalence of maps."""

from .elements import Atom, Element, Fam, FinFunction, FinSet, STAR, Tup
from .fincat import (
    DEFAULT_BOUND,
    FiniteCategory,
    LimitCone,
    ResourceBoundError,
    fin_limit,
    validate_category,
)
from .topos import (
    NatTrans,
    Presheaf,
    SliceMap,
    Topos,
    classify_mono,
    dependent_product,
    enumerate_nat_trans,
    exponential,
    finset_topos,
    is_epi,
    is_iso,
    is_minus1_truncated,
    is_mono,
    ps_limit,
    ps_product,
    ps_pullback,
    pullback_functor,
    slice_exponential,
    subobject_classifier,
    terminal,
    yoneda,
)
from .segal import (
    CategoryObject,
    EquivalencesObject,
    SegalMap,
    TruncatedSimplicialObject,
    category_object_from_finite_category,
    compose,
    composition_data,
    hoequiv,
    hoequiv_object,
    identity_morphism,
    is_complete,
    is_essentially_surjective,
    is_final_object,
    is_fully_faithful,
    is_hoequiv_morphism,
    is_segal,
    mapping_object,
    nerve_truncation,
    to_category_object,
    z3,
)
from .univalence import (
    NerveOfMap,
    PullbackSquareMorphism,
    UnivalenceReport,
    check_mono_classification,
    check_uni_iff_mono,
    check_universal_mono_univalent,
    enumerate_univalent,
    fiber_iso_counts,
    fiber_oracle_univalent,
    is_univalent,
    nerve_of_map,
    presheaf_oracle_univalent,
    pullback_square_homs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

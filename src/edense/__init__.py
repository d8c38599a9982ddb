"""Workbench for finite E-dense semigroups and semigroup-act cryptosystems.

Cayley-table semigroups with their weak-inverse structure and closures,
validated partial acts (restricted multiplication and idempotent
conjugation), coset spaces with quotient groups, monoids built from group
actions on categories, and a toy discrete-log protocol layer -- all
verified by exhaustive scans at desk scale.
"""

from .acts import (
    ActProperties,
    Grading,
    GradingObstruction,
    PartialAct,
    disjoint_union,
    find_act_isomorphism,
    format_act,
    is_s_map,
    left_mult_total,
    munn_act,
    order_ideal,
    parse_act,
    subact,
    validate_act,
    wagner_preston,
)
from .closures import (
    closed_e_dense_subsemigroups,
    is_e_dense_subsemigroup,
    is_omega_h_closed,
    is_omega_m_closed,
    is_unitary,
    omega_h,
    omega_m,
)
from .construction import (
    CuMonoid,
    FiniteCategory,
    GroupCategoryAction,
    adjoin_band_category,
    adjoined_band_semigroup,
    adjoined_band_to_cu_map,
    build_category,
    c_u_monoid,
    corpus,
    derived_category,
    enumerate_semigroups,
    fixture,
    validate_group_action,
)
from .core import (
    FiniteSemigroup,
    InverseSets,
    build_semigroup,
    classify_idempotents,
    find_semigroup_isomorphism,
    format_cayley_table,
    green_l_class,
    h_leq,
    idempotents,
    inverse_sets,
    is_e_dense,
    is_e_unitary,
    is_group,
    is_inverse_semigroup,
    mitsch_leq,
    parse_cayley_table,
    regular_elements,
    weak_inverses,
)
from .cosets import (
    CosetSpace,
    OmegaCoset,
    are_conjugate,
    coset,
    coset_space,
    domain_d_h,
    is_self_conjugate,
    pi_h_related,
    quotient_group,
    rho_representation,
)
from .crypto import (
    BiactTable,
    ClassificationReport,
    Cryptosystem,
    ModExpSystem,
    ProtocolTranscript,
    build_biact,
    build_cryptosystem,
    classify_locally_free_cryptosystem,
    decrypt_key_space,
    elgamal,
    key_space_sizes,
    locally_free_key_space,
    locally_free_system,
    massey_omura,
    minimum_idempotent,
    modexp_system,
    stabilizers_left_dense,
    uniform_decrypt_keys,
)
from .report import Finding, Report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

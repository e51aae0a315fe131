"""Exact counting of contracted plabic and Grassmannian trees and forests.

The package computes the trivariate generating functions whose
coefficients [x^n y^k q^r] count contracted (bipartite-like) coloured
planar trees and forests on n boundary vertices with helicity k and
dimension statistic r, and verifies every coefficient against exhaustive
enumeration of the underlying objects and their trip permutations.
"""

from .ring import BivarPoly, ONE, Q, Y, ZERO
from .series import (
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    NotInvertible,
    TruncSeries,
    power_coefficient,
)
from .transforms import (
    InvalidWeight,
    alternating_weight_series,
    forest_transform,
    nc_weight_series,
    speicher_transform,
    tree_transform,
    tree_type_count,
    vertex_weight_series,
)
from .genfun import (
    DEFAULT_ORDER,
    GFKind,
    IntegralityViolation,
    build_C,
    build_forest_gf,
    build_tree_gf,
    coefficient_poly,
    euler_characteristic,
    extract_counts,
    forest_gf_via_lagrange,
    series_for,
    verify_algebraic_relation,
)
from .oracle import (
    InvalidMove,
    contract_fully,
    contract_move,
    contractible_edges,
    count_by_statistics,
    decorate_grassmannian,
    enumerate_dissections,
    enumerate_forests,
    enumerate_nc_partitions,
    enumerate_trees,
    forest_to_json,
    helicity,
    mom_dimension,
)
from .perms import (
    BudgetExceeded,
    DecoratedPermutation,
    SizeTooSmall,
    amalgamation,
    antiexcedances,
    cyclic_rotation,
    direct_sum,
    pi_perm,
    separable_permutation_sets,
    trip_permutation,
)

__version__ = "0.1.0"

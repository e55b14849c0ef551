"""srkit: sum-rank metric codes over finite fields.

Exact (big-integer) computations throughout; floating point appears only in
the asymptotic-bound module.
"""

from .ambient import (
    MatrixTuple,
    Profile,
    SubspaceTuple,
    blockdiag_embed,
    enumerate_lattice,
    enumerate_tuples,
    format_profile,
    mobius,
    parse_profile,
    profile_create,
    sphere_volume,
    support,
    sumrank_weight,
    trace_product,
)
from .bounds import (
    BoundReport,
    block_count_bound,
    bound_report,
    induced_bounds,
    msrd_block_count_bound,
    projective_sphere_packing_bound,
    singleton_bound,
    sphere_covering_dimension,
    sphere_packing_bound,
    total_distance_bound,
)
from .code import (
    LinearCode,
    MsrdWitness,
    code_create,
    codewords,
    dual,
    duality_shorten_check,
    minimum_distance,
    msrd_check,
    msrd_puncture_row,
    msrd_shorten_col,
    msrd_shorten_row,
    shorten,
    systematic_form,
)
from .distributions import (
    RankListDistribution,
    SumRankDistribution,
    SupportDistribution,
    binomial_moment_check,
    brute_distributions,
    conjecture_scan,
    f_ell,
    macwilliams_ranklist,
    macwilliams_support,
    msrd_support_distribution,
    omega,
    omega_exclusion_scan,
    omega_hat,
    omega_hat_exclusion_scan,
)
from .field import Field, FieldElement, Tower, field_create, field_from_order, tower_create
from .matq import (
    Mat,
    Subspace,
    colspace,
    enumerate_subspaces,
    gaussian_binomial,
    nullspace,
    orthogonal_complement,
    rank,
    rref,
    subspace_intersect,
    subspace_sum,
)
from .srcfile import parse_src, parse_src_text, write_src, write_src_text

__version__ = "0.1.0"

"""srkit: sum-rank metric codes over finite fields.

Exact (big-integer) computations throughout; floating point appears only in
the asymptotic-bound module.

The package loads lazily (PEP 562): `import srkit` runs no submodule.  Each
name below is imported from its home module on first access and then kept
in the package, and ``srkit.<module>`` imports that module, so
``srkit.Field`` loads only `field`, `errors` and `guard`, and
``from srkit import *`` loads every module that holds one of the names.
The command line leans on this: ``import srkit.cli`` loads `srkit`, `cli`,
`errors`, `field` and `guard`, and each command then loads only the
modules it calls (listed in `srkit.cli`).
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package re-exports from it
_EXPORTS = {
    "ambient": (
        "MatrixTuple", "Profile", "SubspaceTuple", "blockdiag_embed",
        "enumerate_lattice", "enumerate_tuples", "format_profile", "mobius",
        "parse_profile", "profile_create", "sphere_volume", "support",
        "sumrank_weight", "trace_product",
    ),
    "bounds": (
        "BoundReport", "block_count_bound", "bound_report", "induced_bounds",
        "msrd_block_count_bound", "projective_sphere_packing_bound",
        "singleton_bound", "sphere_covering_dimension", "sphere_packing_bound",
        "total_distance_bound",
    ),
    "code": (
        "LinearCode", "MsrdWitness", "code_create", "codewords", "dual",
        "duality_shorten_check", "minimum_distance", "msrd_check",
        "msrd_puncture_row", "msrd_shorten_col", "msrd_shorten_row", "shorten",
        "systematic_form",
    ),
    "distributions": (
        "RankListDistribution", "SumRankDistribution", "SupportDistribution",
        "binomial_moment_check", "brute_distributions", "conjecture_scan",
        "f_ell", "macwilliams_ranklist", "macwilliams_support",
        "msrd_support_distribution", "omega", "omega_exclusion_scan",
        "omega_hat", "omega_hat_exclusion_scan",
    ),
    "field": (
        "Field", "FieldElement", "Tower", "field_create", "field_from_order",
        "tower_create",
    ),
    "matq": (
        "Mat", "Subspace", "colspace", "enumerate_subspaces",
        "gaussian_binomial", "nullspace", "orthogonal_complement", "rank",
        "rref", "subspace_intersect", "subspace_sum",
    ),
    "srcfile": ("parse_src", "parse_src_text", "write_src", "write_src_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("ambient", "asymptotics", "bounds", "cli", "code", "constructions",
            "distributions", "errors", "field", "guard", "matq", "srcfile")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

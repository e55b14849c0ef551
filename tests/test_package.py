"""The package's public surface, read lazily, and what each entry point
loads."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import srkit

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the names `srkit` re-exports, by home module
PUBLIC = {
    "ambient": [
        "MatrixTuple", "Profile", "SubspaceTuple", "blockdiag_embed",
        "enumerate_lattice", "enumerate_tuples", "format_profile", "mobius",
        "parse_profile", "profile_create", "sphere_volume", "support",
        "sumrank_weight", "trace_product"],
    "bounds": [
        "BoundReport", "block_count_bound", "bound_report", "induced_bounds",
        "msrd_block_count_bound", "projective_sphere_packing_bound",
        "singleton_bound", "sphere_covering_dimension",
        "sphere_packing_bound", "total_distance_bound"],
    "code": [
        "LinearCode", "MsrdWitness", "code_create", "codewords", "dual",
        "duality_shorten_check", "minimum_distance", "msrd_check",
        "msrd_puncture_row", "msrd_shorten_col", "msrd_shorten_row",
        "shorten", "systematic_form"],
    "distributions": [
        "RankListDistribution", "SumRankDistribution", "SupportDistribution",
        "binomial_moment_check", "brute_distributions", "conjecture_scan",
        "f_ell", "macwilliams_ranklist", "macwilliams_support",
        "msrd_support_distribution", "omega", "omega_exclusion_scan",
        "omega_hat", "omega_hat_exclusion_scan"],
    "field": [
        "Field", "FieldElement", "Tower", "field_create", "field_from_order",
        "tower_create"],
    "matq": [
        "Mat", "Subspace", "colspace", "enumerate_subspaces",
        "gaussian_binomial", "nullspace", "orthogonal_complement", "rank",
        "rref", "subspace_intersect", "subspace_sum"],
    "srcfile": ["parse_src", "parse_src_text", "write_src", "write_src_text"],
}
NAMES = {name for names in PUBLIC.values() for name in names}
MODULES = sorted(path.stem for path in (SRC / "srkit").glob("*.py")
                 if path.stem != "__init__")


def test_all_is_the_pinned_names():
    assert len(NAMES) == 72
    assert sorted(srkit.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"srkit.{module}")
    for name in PUBLIC[module]:
        assert getattr(srkit, name) is getattr(home, name), name


def test_star_import_binds_the_names():
    namespace = {}
    exec("from srkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == NAMES
    assert namespace["Field"] is srkit.field.Field


def test_dir_lists_the_names():
    assert NAMES <= set(dir(srkit))
    assert "__version__" in dir(srkit)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="module 'srkit' has no attribute 'no_such_name'"):
        srkit.no_such_name  # noqa: B018
    assert not hasattr(srkit, "no_such_name")


def _loaded(statements):
    """The srkit modules loaded after a fresh interpreter runs `statements`
    from the repository root, with src as its only added path."""
    code = statements + (
        "\nimport sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'srkit'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return set(done.stdout.split("\n")[-2].split())


def test_every_module_resolves_from_the_package():
    statements = (
        "import types, srkit\n"
        f"for name in {MODULES!r}:\n"
        "    assert isinstance(getattr(srkit, name), types.ModuleType), name")
    assert _loaded(statements) == {"srkit", *(f"srkit.{m}" for m in MODULES)}


def test_package_import_loads_no_module():
    assert _loaded("import srkit") == {"srkit"}
    assert _loaded("import srkit\nsrkit.Field") == {
        "srkit", "srkit.errors", "srkit.field", "srkit.guard"}


def test_cli_import_loads_five_modules():
    assert _loaded("import srkit.cli") == {
        "srkit", "srkit.cli", "srkit.errors", "srkit.field", "srkit.guard"}


def _after_main(argv):
    return _loaded("import io\nfrom srkit.cli import main\n"
                   f"assert main({argv!r}, out=io.StringIO()) == 0")


def test_check_loads_no_closed_form_module():
    loaded = _after_main(["check", "tests/fixtures/msrd_d6_8blocks.src"])
    assert "srkit.code" in loaded
    assert not loaded & {"srkit.asymptotics", "srkit.bounds",
                         "srkit.constructions", "srkit.distributions"}


def test_asymptotics_loads_no_code_module():
    loaded = _after_main(["asymptotics", "--q", "2", "--m", "4", "--n", "2",
                          "--bounds", "singleton,total-distance,"
                          "sphere-packing-upper,induced-plotkin"])
    assert "srkit.asymptotics" in loaded
    assert not loaded & {"srkit.code", "srkit.distributions",
                         "srkit.constructions", "srkit.srcfile"}

"""The package resolves its public names on first use, and the CLI loads an
engine only when a command runs it."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import matvol

SRC = os.path.dirname(os.path.dirname(matvol.__file__))

# Every public name of the package, by the module that defines it.
EXPORTS = {
    "bitset": "elements_of format_subset mask_of",
    "catalog": "CatalogEntry connected_multigraphs full_catalog",
    "decomposition": "FAMILY_D FAMILY_DELTA KIND_GP KIND_Q SignedDecomposition ZProfile add "
    "decompose_base_polytope decompose_independent_polytope decompose_truncation_flag "
    "make_decomposition scale support_function y_from_z_gp y_from_z_q z_from_matroid "
    "z_from_matroid_indep z_from_y_gp z_from_y_q",
    "errors": "DegenerateInput DimensionMismatch DisconnectedMatroid EmptyBasisFamily "
    "ExchangeAxiomViolation FamilyMismatch GroundSetTooLarge InvalidTruncationRank "
    "InvalidUniformParams MatvolError NonIntegerNormalizedVolume ParseError RankMismatch "
    "UnequalCardinality WorkBudgetExceeded",
    "invariants": "TuttePolynomial beta gamma gamma_from_rank_sum signed_beta "
    "signed_beta_contractions signed_gamma signed_gamma_contractions tutte",
    "matroid": "Graph Matroid coconnected_flats components contract delete direct_sum dual "
    "from_bases graphic is_connected restriction truncate uniform",
    "oracle": "LatticeFrame VertexSet hull_facets minkowski_sum_vertices simplex_vertices "
    "vertices_base vertices_flag vertices_indep volume_exact",
    "pyramid": "PYRAMID_WORK_BUDGET orbit_degree pyramid_normalized_volume pyramid_volume_base "
    "pyramid_volume_flag pyramid_volume_independent",
    "volume": "TermGroup dragon_marriage dragon_marriage_intersection_bounds "
    "flag_volume_ordered_terms independent_volume_census sdr_condition "
    "sdr_condition_intersection_bounds volume_base_polytope volume_independent_polytope "
    "volume_signed_sum volume_truncation_flag",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}
ENGINES = ("decomposition", "volume", "pyramid", "hull", "oracle", "verify")


def test_every_public_name_resolves_to_its_definition():
    assert len(NAMES) == 89
    for name, module in NAMES.items():
        assert getattr(matvol, name) is getattr(importlib.import_module(f"matvol.{module}"), name), name


def test_dir_and_all_list_every_public_name():
    assert sorted(matvol.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(matvol))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        matvol.no_such_name
    assert not hasattr(matvol, "no_such_name")


def _child(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this matvol."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_engines(script: str, modules: tuple[str, ...] = ENGINES) -> list[str]:
    """Those of ``modules`` whose code has run after ``script`` in a fresh
    interpreter.  Every module stays listed in sys.modules, as an unexecuted
    lazy module until first use, so tools that look modules up by name find
    all of them."""
    code = (
        f"import sys, types\n{script}\n"
        f"engines = [sys.modules['matvol.' + e] for e in {modules!r}]\n"
        f"print(' '.join(e for e, m in zip({modules!r}, engines) if type(m) is types.ModuleType))"
    )
    return _child(code).split()


def _main_script(argv: list[str]) -> str:
    return f"import io, contextlib, matvol.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert matvol.cli.main({argv!r}) == 0"


def test_cli_import_runs_no_engine():
    assert _loaded_engines("import matvol.cli") == []


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["decompose", "--polytope", "flag"], ["decomposition"]),
        (["volume", "--degree"], ["pyramid"]),
        (["volume", "--polytope", "indep"], ["pyramid"]),
        (["invariants"], []),
        (["verify"], list(ENGINES)),
    ],
)
def test_each_command_runs_only_its_engine(tmp_path, argv, engines):
    path = tmp_path / "u24.matroid"
    path.write_text("n: 4\nuniform: 2 4\n")
    argv = [argv[0], str(path), *argv[1:]]
    assert _loaded_engines(_main_script(argv)) == engines


BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
LEAN = ("catalog", "invariants")  # modules no volume job runs


def test_cli_import_runs_neither_catalog_nor_invariants_nor_openssl():
    assert _loaded_engines("import matvol.cli", LEAN) == []
    if BUILTIN_SHA256:
        added = _child(
            "import sys\nbefore = set(sys.modules)\nimport matvol.cli\n"
            "print(' '.join(sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before))))"
        )
        assert added.split() == []


@pytest.mark.parametrize(
    "argv",
    [["volume"], ["volume", "--polytope", "indep"], ["volume", "--polytope", "flag"], ["volume", "--degree"]],
)
def test_volume_runs_neither_catalog_nor_invariants(tmp_path, argv):
    path = tmp_path / "u24.matroid"
    path.write_text("n: 4\nuniform: 2 4\n")
    assert _loaded_engines(_main_script([argv[0], str(path), *argv[1:]]), LEAN) == []


@pytest.mark.parametrize(
    "argv", [["volume", "--degree"], ["volume", "--polytope", "flag"], ["decompose", "--polytope", "indep"]]
)
def test_hashlib_fallback_prints_the_same_report(tmp_path, argv):
    path = tmp_path / "pyramid.matroid"
    path.write_text("n: 4\nbases: 1,2 1,3 1,4 2,3 2,4\n")
    argv = [argv[0], str(path), *argv[1:]]
    run = f"import matvol.cli\nassert matvol.cli.main({argv!r}) == 0"
    blocked = 'import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
    uses_hashlib = "\nimport hashlib\nassert matvol.cli.sha256 is hashlib.sha256"
    builtin, fallback = _child(run), _child(blocked + run + uses_hashlib)
    assert builtin.startswith("# command: ") and "# input: sha256:" in builtin
    assert fallback == builtin


def test_full_catalog_resolves_through_cli():
    import matvol.catalog
    import matvol.cli

    assert matvol.cli.full_catalog is matvol.catalog.full_catalog
    with pytest.raises(AttributeError, match="no_such_name"):
        matvol.cli.no_such_name

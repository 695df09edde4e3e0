"""Checks on the library source itself."""

import ast
import importlib
import sys
from pathlib import Path

import gammaforms

SRC = Path(gammaforms.__file__).resolve().parent


def test_no_assert_statements():
    # invariant checks must raise InvariantError: asserts vanish under -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracles_stay_in_tests():
    # the brute-force algorithms survive only as test oracles (tests/conftest.py)
    modules = [gammaforms] + [
        importlib.import_module(f"gammaforms.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if not path.stem.startswith("__")
    ]
    for module in modules:
        for name in (
            "representation_values",
            "is_reduced_gamma0_p",
            "is_reduced_gamma0_small",
            "sweep_per_a",
            "torsion_invariant_factors",
            "composed_cayley",
            "prepare_coprime_sorted_shells",
            "is_prime_trial_division",
            "coset_reps_by_scan",
            "key_per_pair",
            "covering_per_pair",
            "class_table_per_pair",
            "genus_table_by_value_sets",
            "coprime_value",
            "automorphs_by_search",
            "ideal_from_form_by_hnf",
            "contains_all_arcs",
            "classify_prime_by_scan",
            "canonical_rep_by_table",
        ):
            assert not hasattr(module, name), f"{module.__name__} exports {name}"


def _imports(path: Path) -> set[str]:
    """The modules a source file imports; relative ones keep their dots."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            imported.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + node.module)
    return imported


def test_modules_import_only_stdlib_and_the_package():
    # the library is stdlib-only: every import names the standard library
    # or gammaforms itself
    for path in sorted(SRC.glob("*.py")):
        outside = {
            name
            for name in _imports(path)
            if not name.startswith(".")
            and name.split(".")[0] not in sys.stdlib_module_names | {"gammaforms"}
        }
        assert outside == set(), path.name


def test_ideals_import_only_core_and_errors():
    # the lattice oracle reaches no composition or reduction code
    imported = _imports(SRC / "ideals.py")
    package = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert package == {".core", ".errors"}

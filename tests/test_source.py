"""Checks on the library source itself."""

import argparse
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


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: no module may use
    # grammar that 3.10 does not parse
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))


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
            "is_reduced_by_rules",
            "sweep_per_a",
            "torsion_invariant_factors",
            "composed_cayley",
            "prepare_coprime_sorted_shells",
            "is_prime_trial_division",
            "coset_reps_by_scan",
            "p1_label",
            "key_per_pair",
            "class_key",
            "covering_per_pair",
            "keyed_class_table",
            "class_table_per_pair",
            "genus_table_by_value_sets",
            "coprime_value",
            "automorphs_by_search",
            "ideal_from_form_by_hnf",
            "contains_all_arcs",
            "classify_prime_by_scan",
            "canonical_rep_by_table",
            "solutions_by_stabilizers",
            "equivalent_by_stabilizers",
            "walk_by_forms",
            "reduced_by_search",
            "crt_by_euclid",
            "hnf_rows_by_euclid",
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


def _names(tree: ast.AST) -> set[str]:
    """Every name a tree imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_residue_paths_run_no_euclid_loop():
    # crt and the ideal oracle use only a residue of a Bezout coefficient,
    # which math.gcd and pow(x, -1, m) give in C; xgcd's Python loop stays
    # with the callers that print its exact coefficients
    assert "xgcd" not in _names(ast.parse((SRC / "ideals.py").read_text()))
    core = ast.parse((SRC / "core.py").read_text())
    (crt,) = [node for node in core.body if isinstance(node, ast.FunctionDef) and node.name == "crt"]
    assert "xgcd" not in _names(crt) and "pow" in _names(crt)


def test_every_import_is_used():
    # a name a module imports and never reads is a leftover of moved code;
    # the package's __init__ imports only to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # import a.b binds a
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_every_private_function_is_referenced():
    # a module-level _private function that nothing in src/ names is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    dead = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    ]
    assert dead == []


def test_cli_reads_no_private_argparse_name():
    # the dispatch of a call to its command's parser rests on argparse's
    # public API, which every Python the package allows keeps; the private
    # names are those argparse itself defines on its module, a parser and
    # the subparsers action
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    sub.add_parser("command")
    private = {
        name
        for obj in (argparse, parser, sub)
        for name in dir(obj)
        if name.startswith("_") and not name.startswith("__")
    }
    assert {"_actions", "_subparsers", "_option_string_actions", "_SubParsersAction"} <= private
    tree = ast.parse((SRC / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "argparse"
        for alias in node.names
    }
    assert read & private == set()


def test_only_core_reads_the_environment():
    # GAMMA_FORMS_MAX_SEARCH is read in one place, core.search_bound and
    # core.checked_cache; no other module names os.environ or os.getenv
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "os" else []
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"environ", "getenv"} & set(names):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []



def test_only_equiv_searches_for_equivalence():
    # a reduced form's witness comes with it from reduction.reduce_gamma0;
    # equivalent_gamma0, which joins the witnesses of two reduced forms,
    # serves the equiv command alone
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "equivalent_gamma0" or (
                    isinstance(node, ast.Attribute) and node.attr == "equivalent_gamma0"
                ):
                    users.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert users == {"cli._cmd_equiv"}


def test_only_the_branch_sites_read_level_supported():
    # every level has its reduced forms, from one rule, so no module
    # branches between supported and general levels any more
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "level_supported" or (
                    isinstance(node, ast.Attribute) and node.attr == "level_supported"
                ):
                    users.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert users == set()


def test_no_tuple_conversions():
    # a Form is its triple and a GroupElement its entry tuple, so no module
    # converts one into the other
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "as_tuple"
    ]
    assert calls == []

"""The package's shape: every module imports on its own, and src/ holds no unreached code."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "primecover"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Public definitions that no command or audit calls, kept in src/ on purpose.
ORACLES = (
    # the brute-force paths that tests compare the fast ones against
    "product_set_naive",
    "iterated_product",
    "iterated_product_chain",
    "coset_obstruction_brute",
    "character_constant_on",
    "additive_transform_naive",
    "mult_transform_naive",
    "mult_convolve_naive",
    "solution_count_naive",
    "kloosterman",
    "mod_inverse",
)


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    done = _run(f"import primecover.{module}")
    assert done.returncode == 0, done.stderr


def test_package_import_loads_no_submodule():
    done = _run(
        "import sys, primecover\n"
        "print(sorted(m for m in sys.modules if m.startswith('primecover.')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def test_every_public_definition_is_reached_from_src():
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and node.name not in ORACLES
    )
    assert unreached == []


def test_oracles_are_defined():
    defined = {
        node.name
        for tree in _trees().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(ORACLES) <= defined

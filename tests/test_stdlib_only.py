"""The runtime stays stdlib-only: every absolute import in the package
names a module of the standard library.  The integer lattice form
imports no Fractions."""

import ast
import pathlib
import sys

import sheafconv

PACKAGE = pathlib.Path(sheafconv.__file__).parent


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    outside = [(f.name, name) for f in files for name in absolute_imports(f)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_lattice_imports_no_fractions():
    # the lattice form is integers only, as its module docstring promises
    tree = ast.parse((PACKAGE / "lattice.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {alias.name for node in imports for alias in node.names}
    names |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert not names & {"fractions", "Fraction"}

"""The runtime stays stdlib-only: every absolute import in the package
names a module of the standard library.  The integer lattice form
imports no Fractions, every module reads every name it imports, and
every public function has a caller in the package or the benchmark."""

import ast
import pathlib
import re
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


def test_every_imported_name_is_used():
    # a name a module imports and never reads is a leftover; the package's
    # __init__ re-exports, and `annotations` is a compiler flag
    unused = []
    for f in sorted(PACKAGE.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text(encoding="utf-8"), str(f))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in read:
                        unused.append((f.name, name))
    assert unused == []


def test_every_public_function_has_a_caller():
    # a public function that neither the package nor the benchmark names
    # outside its own definition serves only the tests, and belongs with
    # them; names dispatched by string (getattr) still appear as words
    sources = {f: f.read_text(encoding="utf-8") for f in sorted(PACKAGE.glob("*.py"))}
    bench = [f.read_text(encoding="utf-8")
             for f in sorted((PACKAGE.parents[1] / "bench").glob("*.py"))]
    uncalled = []
    for f, text in sources.items():
        lines = text.splitlines()
        elsewhere = "\n".join(bench + [t for g, t in sources.items() if g != f])
        for node in ast.parse(text, str(f)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
                word = re.compile(rf"\b{node.name}\b")
                if not (word.search(rest) or word.search(elsewhere)):
                    uncalled.append((f.name, node.name))
    assert uncalled == []

"""The package's layers, read from the source of its modules and tests.

``sequence`` is the bottom layer: it imports no other module of the
package.  Every name imported from a module of the package is imported
from the module that defines it, so a moved name has one home, and
``cli`` reads only the public names of ``sequence``.  Every module
stays below the token count past which compiling it peaks higher.
"""

import ast
import tokenize
from pathlib import Path

import pytest

import persistinfo

PACKAGE = Path(persistinfo.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted(PACKAGE.glob("*.py"))}
FILES = [*sorted(PACKAGE.glob("*.py")),
         *sorted(Path(__file__).parent.glob("*.py"))]

#: compiling a module of more tokens (comments and blank lines left out)
#: peaked about 450 KiB higher on CPython 3.11, a cost every cold command
#: pays
COMPILE_STEP_TOKENS = 8192


def _defined(tree: ast.Module) -> set:
    """The names a module binds at top level by def, class or assignment,
    not by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _package_imports(path: Path):
    """(module, name) of each ``from persistinfo.module import name`` and
    ``from .module import name`` in the file at path; module is
    "__init__" for the package itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module or "__init__"
        elif node.module == "persistinfo":
            module = "__init__"
        elif (node.module or "").startswith("persistinfo."):
            module = node.module.removeprefix("persistinfo.")
        else:
            continue
        for alias in node.names:
            yield module, alias.name


def test_sequence_imports_no_module_of_the_package():
    imports = [alias.name for node in ast.walk(MODULES["sequence"])
               if isinstance(node, ast.Import) for alias in node.names]
    assert [n for n in imports if n.split(".")[0] == "persistinfo"] == []
    assert list(_package_imports(PACKAGE / "sequence.py")) == []


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_are_imported_from_the_module_that_defines_them(path):
    wrong = []
    for module, name in _package_imports(path):
        if module == "__init__" and name in MODULES:
            continue  # a submodule
        if name not in _defined(MODULES[module]):
            home = [m for m, tree in MODULES.items() if name in _defined(tree)]
            wrong.append(f"{name} from {module}, defined in {home}")
    assert wrong == []


def test_only_processes_reads_the_table_memo():
    # a chain's kept forward and reversed tables are reached through
    # block_distribution, on the chain or on a reversed() view, alone;
    # this file names them, so it is not read
    memo = {"_tables", "_reversed"}
    readers = set()
    for path in FILES:
        if path == Path(__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in memo:
                readers.add(f"{path.parent.name}/{path.name}")
    assert readers == {"persistinfo/processes.py"}


def test_cli_imports_only_public_names_of_sequence():
    names = [name for module, name in _package_imports(PACKAGE / "cli.py")
             if module == "sequence"]
    assert names and [n for n in names if n.startswith("_")] == []


def test_every_module_stays_below_the_compile_step():
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open(encoding="utf-8") as f:
            counts[path.name] = sum(
                t.type not in (tokenize.COMMENT, tokenize.NL)
                for t in tokenize.generate_tokens(f.readline))
    assert {name: n for name, n in counts.items()
            if n >= COMPILE_STEP_TOKENS} == {}

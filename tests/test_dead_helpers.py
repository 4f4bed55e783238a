"""Every private top-level helper and every public name of the package has a reader.

A top-level function or class whose name starts with an underscore is
internal: if no other line of ``src/semicoh`` names it, nothing can call
it, and it is dead code left behind by a removal.  A name in
``semicoh.__all__`` that only tests read is test-only code in ``src``.
"""

import ast
import re
from pathlib import Path

import semicoh

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semicoh"


def test_every_private_helper_is_referenced_elsewhere():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    lines = [
        (module, number, line)
        for module, text in sources.items()
        for number, line in enumerate(text.splitlines(), 1)
    ]
    private = [
        (module, node.lineno, node.name)
        for module, text in sources.items()
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert private
    dead = [
        f"{module}:{lineno} {name}"
        for module, lineno, name in private
        if not any(
            re.search(rf"\b{name}\b", line) and (where, number) != (module, lineno)
            for where, number, line in lines
        )
    ]
    assert dead == []


ROOT = PACKAGE.parent.parent


def test_every_public_name_has_a_reader_outside_the_tests():
    # a name exported through __all__ that only tests read is test-only API;
    # neither its definition nor its re-export in __init__.py reads it
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    definitions = {
        (path, node.lineno)
        for path in sources
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in semicoh.__all__
    }
    lines = [
        line
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if (path, number) not in definitions
    ]
    unread = [
        name for name in semicoh.__all__
        if not any(re.search(rf"\b{name}\b", line) for line in lines)
    ]
    assert unread == []


LINTED = [
    path for folder in (PACKAGE, ROOT / "tests", ROOT / "demos")
    for path in sorted(folder.glob("*.py"))
]


def test_every_imported_name_is_read():
    # names a module re-exports through __all__ are read by its importers
    unused = []
    for path in LINTED:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = {
            element.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for element in node.value.elts
        }
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items()
            if name not in read | exported
        ]
    assert len(LINTED) > len(list(PACKAGE.glob("*.py")))
    assert unused == []


def test_traced_torsion_call_sites_call_it():
    # perfbench's tracer charges torsion time by rebinding assemble_p_torsion
    # in these modules; an import that is never called would charge nothing
    for module in ("engines.py", "report.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "assemble_p_torsion"
            for node in ast.walk(tree)
        ), module

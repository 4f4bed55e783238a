"""Every private top-level helper and every public name of the package has a reader.

A top-level function or class whose name starts with an underscore is
internal: if no other line of ``src/semicoh`` names it, nothing can call
it, and it is dead code left behind by a removal.  A name in
``semicoh.__all__``, a public module-level function or class, a public
method or property, or a dataclass field that only tests read is
test-only code in ``src``.
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


def _dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(decorator, "id", None) == "dataclass"
        or getattr(getattr(decorator, "func", None), "id", None) == "dataclass"
        for decorator in node.decorator_list
    )


def _module_reads(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(module, name) for each import from ``semicoh.<module>`` and each read of
    ``<module>.name``; module None for a name imported from ``semicoh`` itself."""
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("semicoh."):
                    aliases[alias.asname or alias.name] = alias.name.removeprefix("semicoh.")
        elif isinstance(node, ast.ImportFrom):
            if (node.module, node.level) in (("semicoh", 0), (None, 1)):
                reads |= {(None, alias.name) for alias in node.names}
                aliases |= {alias.asname or alias.name: alias.name for alias in node.names}
            elif node.level == 1 or (node.module or "").startswith("semicoh."):
                module = node.module.removeprefix("semicoh.")
                reads |= {(module, alias.name) for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
            reads.add((aliases[ast.unparse(node.value)], node.attr))
    return reads


def test_every_public_method_field_and_module_name_has_a_reader_outside_the_tests():
    """Public methods, properties, dataclass fields and module-level names all have readers.

    Readers are ``src/semicoh`` (without ``__init__.py``, whose re-exports
    read nothing), ``demos/``, ``perfbench/`` and ``perfbench/tests/``; a
    definition does not read itself.  A method, property or field is read
    by an attribute load of its name; a keyword argument that builds the
    object is not a read.  A module-level function or class is read by a
    name load in its own module, by an import from its module or from
    ``semicoh``, or as an attribute of its module.

    The check goes by name, so a method is taken as read when a method of
    the same name on another class is: it cannot tell ``IntMatrix.is_zero``
    or ``AbelianGroup.is_zero`` from ``IntPolynomial.is_zero``, nor
    ``ExponentMultiset.as_dict`` from ``CyclotomicCensus.as_dict``.
    """
    readers = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers += [path for folder in ("demos", "perfbench", "perfbench/tests")
                for path in sorted((ROOT / folder).glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    imported = set().union(*map(_module_reads, trees.values()))
    loads = {kind: [(path, node.lineno, getattr(node, field))
                    for path, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, kind) and isinstance(node.ctx, ast.Load)]
             for kind, field in ((ast.Attribute, "attr"), (ast.Name, "id"))}

    def read(name, path, definition, kind):
        # a load of name outside its own definition; a name load only in its own module
        return any(
            found == name and not (where == path and definition.lineno <= line <= definition.end_lineno)
            and (kind is ast.Attribute or where == path)
            for where, line, found in loads[kind]
        )

    unread, checked = [], 0
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = path.stem
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                checked += 1
                if not {(module, top.name), (None, top.name)} & imported \
                        and not read(top.name, path, top, ast.Name):
                    unread.append(f"{module}.{top.name}")
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and _dataclass(cls):
                    name = member.target.id
                else:
                    continue
                checked += 1
                if not read(name, path, member, ast.Attribute):
                    unread.append(f"{module}.{cls.name}.{name}")
    assert checked > 150
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

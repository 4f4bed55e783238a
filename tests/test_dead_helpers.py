"""Every private top-level helper of the package has a reader.

A top-level function or class whose name starts with an underscore is
internal: if no other line of ``src/semicoh`` names it, nothing can call
it, and it is dead code left behind by a removal.
"""

import ast
import re
from pathlib import Path

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

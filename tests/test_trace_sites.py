"""The benchmark's call sites and imports must name real parts of the package.

``perfbench/tracer.py`` rebinds each ``(module, attribute)`` of its
``CALL_SITES`` table, and the benchmark's modules import names from
``semicoh`` modules, many inside the functions that use them; a rename or
removal in the package would otherwise surface only when a benchmark run
fails.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves_to_a_callable():
    sites = _load_tracer().CALL_SITES
    assert sites
    for module_name, attr, _ in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_name_the_benchmark_imports_from_the_package_resolves():
    sources = sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py"))
    imported = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semicoh":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (path.name, alias.name, None)
                    for alias in node.names if alias.name.split(".")[0] == "semicoh"
                ]
    assert ("run.py", "semicoh.intmat", "smith_normal_form") in imported
    missing = [
        f"{where}: {module_name}.{name}"
        for where, module_name, name in imported
        if not hasattr(importlib.import_module(module_name), name or "__name__")
    ]
    assert missing == []

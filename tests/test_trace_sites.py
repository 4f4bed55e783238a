"""The benchmark tracer's call sites must name real functions of the package.

``perfbench/tracer.py`` rebinds each ``(module, attribute)`` of its
``CALL_SITES`` table; a rename in the package would otherwise surface only
when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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

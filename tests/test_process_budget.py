"""Tier-1 starts a fresh interpreter only where the process itself is under test.

Every other CLI test calls ``semicoh.cli.main`` in this process through the
``cli`` fixture (conftest.py).  A fresh interpreter costs about 0.2 s before
it computes anything; an in-process call of ``main`` on a fixture costs a
few milliseconds.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# every function under tests/ that starts an interpreter, directly or through
# another function of its module, and why the process boundary is what it checks
STARTS_AN_INTERPRETER = {
    "conftest.py::run_cli": "runs `python -m semicoh.cli` for the tests below",
    "test_demos.py::test_demo_runs": "each demo is a script run as a program",
    "test_report_cli.py::test_cli_validation_exit_code":
        "the `python -m semicoh.cli` entry point turns main's result into the exit code",
    "test_report_cli.py::test_cli_determinism": "output is the same under two hash seeds",
    "test_report_cli.py::_cli_exit_codes_and_numpy":
        "whether numpy is loaded needs a process that has not imported it",
    "test_report_cli.py::shipped_fixture_runs":
        "one process for the import check and every shipped fixture",
    "test_report_cli.py::test_cli_on_a_rank_six_group_loads_numpy": "the control, in a second process",
    "test_report_cli.py::test_a_cache_entry_for_a_huge_m_is_replaced_without_factoring_it":
        "a regression would hang, so the call runs under a timeout",
    "test_report_cli.py::test_a_group_file_with_a_huge_m_exits_4_promptly":
        "a regression would hang, so the call runs under a timeout",
}


def _is_start(called: str) -> bool:
    return called.startswith(("subprocess.", "os.system", "os.exec", "os.spawn", "os.popen"))


def _interpreter_starters():
    """``module::function`` for each top-level function that starts an interpreter."""
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # an alias would hide a start from the scan below
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert getattr(node, "module", None) != "subprocess", path.name
                assert all(alias.asname is None for alias in node.names
                           if alias.name in ("os", "subprocess", "run_cli")), path.name
        calls = {}
        for node in tree.body:
            calls.setdefault(getattr(node, "name", "<module>"), set()).update(
                ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)
            )
        starters = {"run_cli"}
        while True:
            more = {name for name, called in calls.items()
                    if any(c in starters or _is_start(c) for c in called)}
            if more <= starters:
                break
            starters |= more
        found |= {f"{path.name}::{name}" for name in starters & calls.keys()}
    return found


def test_only_the_listed_functions_start_an_interpreter():
    # a CLI test belongs on the in-process cli fixture unless the process
    # itself is what it checks; list it above with the reason if it is
    assert _interpreter_starters() == set(STARTS_AN_INTERPRETER)

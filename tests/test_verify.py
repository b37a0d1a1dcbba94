import ast
from pathlib import Path

import pytest

import nilcones
from nilcones.errors import BudgetExceeded
from nilcones.verify import SUITES, run_suite


@pytest.mark.parametrize("name,n,p", [
    ("doubling", 2, 2),
    ("closure", 2, 2),
    ("induction", 3, 2),
    ("classes", 3, 2),
    ("quotient", 2, 3),
    ("jkv", 2, 2),
])
def test_every_suite_passes_at_small_parameters(name, n, p):
    report = run_suite(name, n, p)
    assert report["passed"], report
    assert report["suite"] == name
    assert report["elapsed_seconds"] >= 0
    for check in report["checks"]:
        assert check["status"] == "pass"
        assert check["count"] > 0
        assert "elapsed_seconds" in check


def test_all_suites_are_registered():
    assert sorted(SUITES) == ["classes", "closure", "doubling",
                              "induction", "jkv", "quotient"]


@pytest.mark.parametrize("name,n", [
    ("doubling", 9), ("induction", 9), ("classes", 9), ("quotient", 9),
])
def test_suite_budgets(name, n):
    with pytest.raises(BudgetExceeded):
        run_suite(name, n, 2)


def test_library_has_no_assert():
    # python -O strips assert statements, so a broken internal invariant
    # must raise a typed error (InvariantViolation) instead
    for path in sorted(Path(nilcones.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            assert not (isinstance(node, ast.Name) and node.id == "AssertionError"), \
                f"{path.name}:{node.lineno}"

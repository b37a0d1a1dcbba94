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
    # the suite has no cap of its own: the flag oracle's point budget
    # stops it past n = 9, where 2^floor(n^2 / 4) = 2^20 fills it
    ("closure", 10),
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


def test_every_public_name_has_a_caller():
    # A public function or class, or a public method, that no other code of
    # the package names is API only tests use: the library's traffic is the
    # CLI, the verify suites and the benchmark workloads, which reach it
    # through the package.  Names are matched in the syntax tree (Name and
    # Attribute nodes, methods by their bare name), so a docstring or a
    # comment that mentions a name does not count, and neither do the
    # exports of __init__ or a function's calls to itself.
    kept = {
        # perfbench/spans.LAYERS traces them
        "rref", "jordan_type_nilpotent",
        # the field-generic reference the characteristic polynomial is
        # tested against
        "det",
        # perfbench/spans.FIELD_METHODS wraps them by name
        "RationalField.div", "PrimeField.div",
        # the Levi generators of an Sp_2n(F_p) orbit walk (ROADMAP item 2)
        "embed_gl_in_sp",
    }
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(nilcones.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"}
    definitions = []  # (qualified name, bare name, node)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((node.name, node.name, node))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        definitions.append((f"{node.name}.{item.name}", item.name, item))
    references = {}  # bare name -> ids of the nodes that name it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, set()).add(id(node))
    uncalled = {qualified for qualified, name, node in definitions
                if not references.get(name, set()) - {id(n) for n in ast.walk(node)}}
    assert uncalled == kept


def test_a_check_that_counted_nothing_is_skipped_not_passed(monkeypatch):
    from nilcones import verify

    checker = verify._Checker()
    checker.add("counted nothing", True, 0)
    checker.add("counted one", True, 1)
    assert [c["status"] for c in checker.checks] == ["skipped", "pass"]
    monkeypatch.setitem(verify.SUITES, "jkv", lambda n, p, seed: checker.checks)
    assert not run_suite("jkv", 2, 2)["passed"]
    # each counts its items: none is skipped, and a failing one is named
    checker = verify._Checker()
    checker.each("no items", [], lambda item: False)
    checker.each("one failing item", ["odd one"], lambda item: False)
    checker.each("all items pass", [1, 2, 3], lambda item: item > 0)
    assert [(c["status"], c["count"], c["details"]) for c in checker.checks] == [
        ("skipped", 0, ""), ("fail", 1, "odd one"), ("pass", 3, "")]


def test_classes_suite_counts_every_check_at_the_top_of_its_budget():
    # at n = 5 the identification check once sampled only classes with
    # n <= 4, counted 0 and passed
    from nilcones.verify import IDENTIFY_SAMPLE

    report = run_suite("classes", 5, 2)
    assert report["passed"]
    counts = {c["name"]: c["count"] for c in report["checks"]}
    assert all(c["status"] == "pass" for c in report["checks"])
    assert counts["identification constant along class curves and orbits"] == IDENTIFY_SAMPLE
    assert counts["closure order is dimension monotone"] == 10874
    assert counts["equal-dimension pairs match the dense-sheet criterion"] == 4416
    # the exotic strata check runs at every n the suite admits, n = 5 too
    assert counts[EXOTIC_STRATA_NAME] == 212


EXOTIC_STRATA_NAME = "exotic class orbit dimensions match stabilizers and identification"


def test_classes_suite_checks_the_exotic_strata_of_every_class_at_n_4():
    check, = (c for c in run_suite("classes", 4, 2)["checks"] if c["name"] == EXOTIC_STRATA_NAME)
    assert check["status"] == "pass" and check["count"] == 75


def test_quotient_suite_runs_the_fiber_census_or_reports_it_skipped():
    # the census once ran only for n <= 2 and p in {3, 5} and was otherwise
    # left out of the report without a record; criterion 9 asserts the
    # census that runs, at (4, 3).  At n = 1 the census walks p^2 points, so
    # 1031 is the first prime past the 2^20 point budget (1021 is admitted)
    report = run_suite("quotient", 1, 1031)
    census = report["checks"][-1]
    assert census["name"] == "fiber census at n=1 over F_1031"
    assert census["status"] == "skipped" and census["count"] == 0
    assert not report["passed"]


def test_quotient_suite_runs_the_census_at_every_size_the_budget_admits():
    # the census walks p^(m + m^2) points at each m <= n: all three sizes
    # fit the point budget at (3, 2)
    censuses = [c for c in run_suite("quotient", 3, 2)["checks"]
                if c["name"].startswith("fiber census")]
    assert [(c["name"], c["status"], c["count"]) for c in censuses] == [
        ("fiber census at n=1 over F_2: 2 fibers, 0 non-split points", "pass", 2 ** 2),
        ("fiber census at n=2 over F_2: 4 fibers, 8 non-split points", "pass", 2 ** 6),
        ("fiber census at n=3 over F_2: 8 fibers, 1280 non-split points", "pass", 2 ** 12),
    ]

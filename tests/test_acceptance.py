"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 4 checks that the embedded pair's GL_2n-orbit has the doubled
label and dimension 4*dim - 2|mu|, which is 4*dim (quadrupling) only when
mu is empty: at n = 1 the pair (v, 0), v != 0, has GL_1-orbit dimension 1
but GL_2-orbit k^2 minus 0, of dimension 2.
"""

import random
import time
from math import comb

from nilcones.fields import QQ
from nilcones.linalg import (
    Mat,
    Vec,
    inverse,
    random_sp,
    restricted_jordan_type,
)
from nilcones.partitions import (
    Bipartition,
    Composition,
    enumerate_bipartitions,
    format_bipartition,
    parse_bipartition,
)
from nilcones.enhanced import (
    WALK_BUDGET_POINTS,
    InductionDatum,
    build_representative,
    identify_orbit,
    induction_representative,
    is_rigid,
    induce_from_vector,
    rigid_datum,
)
from nilcones.exotic import ExoticElement, embed_phi, exotic_orbit_dim
from nilcones.jordan_classes import class_count_formula, enumerate_classes
from nilcones.sheets import (
    enumerate_sheets,
    exotic_invariants,
    sheet_count_formula,
    sheets_are_maximal_check,
)
from nilcones.verify import run_suite, suite_induction, suite_jkv
from nilcones import cli

B = Bipartition


def report(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    return ok


def test_criterion_01_induction_example(capsys):
    start = time.monotonic()
    rc = cli.main(["induce", "--levi", "3,4,4,2",
                   "--bipartitions", "1^3;|1^4;|;1^4|;1^2"])
    printed = capsys.readouterr().out.strip()
    expected = B((2, 2, 2, 1), (2, 2, 1, 1))
    label_ok = rc == 0 and parse_bipartition(printed) == expected
    rep = induction_representative(InductionDatum.rigid(Composition((3, 4, 4, 2), k=2)))
    identify_ok = identify_orbit(rep) == expected
    elapsed = time.monotonic() - start
    ok = label_ok and identify_ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"13-dim induction gives {printed}; identification agrees; "
                      f"{elapsed:.3f}s")
    assert label_ok and identify_ok
    assert elapsed < 1.0


def test_criterion_02_column_rule(capsys):
    datum = InductionDatum.rigid(Composition((4, 2, 3, 5), k=2))
    label = induce_from_vector(datum)
    expected = B((2, 2, 1, 1), (2, 2, 2, 1, 1))
    rep = induction_representative(datum)
    mu, _ = restricted_jordan_type(rep.x, rep.v)
    ok = label == expected and mu == (2, 2, 1, 1) and identify_orbit(rep) == expected
    with capsys.disabled():
        report(2, ok, f"composition (4,2,3,5) with marked prefix 2 induces "
                      f"{format_bipartition(label)}; cyclic type {mu}")
    assert label == expected
    assert mu == (2, 2, 1, 1)


def quadric_coordinates(x):
    """Match a 4x4 matrix against the 5-parameter trace-zero self-adjoint
    family; returns (a, b, c, e, f) or raises AssertionError."""
    f = x.field
    a, b, c, e, ff = x.rows[0][0], x.rows[0][1], x.rows[1][0], x.rows[0][3], x.rows[2][1]
    na = f.neg(a)
    expected = (
        (a, b, f.zero, e),
        (c, na, f.neg(e), f.zero),
        (f.zero, ff, a, c),
        (f.neg(ff), f.zero, b, na),
    )
    assert x.rows == expected, "matrix left the five-parameter family"
    return a, b, c, e, ff


def test_criterion_03_sp4_quadric(capsys):
    dim_ok = exotic_orbit_dim(B((), (2,))) == 4

    rep = embed_phi(build_representative(B((), (2,))))
    rng = random.Random(41)
    sample_ok = True
    points = []
    for _ in range(100):
        g = random_sp(2, rng, steps=3)
        x = g.mul(rep.x).mul(inverse(g))
        points.append(x)
        # limits: scaling contractions stay in the closure
        points.append(Mat.scalar(QQ, 4, QQ.of(rng.choice([0, 1, 2])) / 2).mul(x))
    points.append(Mat.zeros(QQ, 4))
    for x in points:
        a, b, c, e, f = quadric_coordinates(x)
        if a * a + b * c - e * f != 0:
            sample_ok = False
            break
        # vanishing invariants corroborate membership in the nilpotent cone
        if not exotic_invariants(ExoticElement(2, Vec.zero(QQ, 4), x)).is_zero():
            sample_ok = False
            break

    series_ok = True
    values = []
    for d in range(11):
        quotient_dim = comb(d + 4, 4) - (comb(d + 2, 4) if d >= 2 else 0)
        series_coeff = comb(d + 3, 3) + (comb(d + 2, 3) if d >= 1 else 0)
        values.append(quotient_dim)
        if quotient_dim != series_coeff:
            series_ok = False
    prefix_ok = values[:5] == [1, 5, 14, 30, 55]

    ok = dim_ok and sample_ok and series_ok and prefix_ok
    with capsys.disabled():
        report(3, ok, f"orbit dim 4; {len(points)} closure points satisfy "
                      f"a^2+bc-ef=0; graded dims {values[:5]}... match (1+t)/(1-t)^4")
    assert dim_ok and sample_ok and series_ok and prefix_ok


def test_criterion_04_doubling_and_quadrupling(capsys):
    # the doubling suite runs both stabilizer oracles on every label of size
    # <= 4: the sp one doubles the enhanced dimension, and the embedded
    # pair's GL_2n orbit has the doubled label and dimension 4*dim - 2|mu|,
    # which quadruples on the mu-empty labels and falls short on the rest
    start = time.monotonic()
    checks = run_suite("doubling", 4, 2)["checks"]
    elapsed = time.monotonic() - start
    doubling, transfer = checks
    labels = [b for n in range(1, 5) for b in enumerate_bipartitions(n)]
    total = len(labels)
    quadrupled = sum(not b.mu for b in labels)
    passed = [c["status"] == "pass" and c["count"] == total for c in checks]
    ok = all(passed) and total == 37 and quadrupled == 11 and elapsed < 30
    with capsys.disabled():
        report(4, ok,
               f"{total} orbits in {elapsed:.1f}s; doubling {doubling['status']} on "
               f"{doubling['count']}; GL_2n dim = 4*dim on {quadrupled} mu-empty "
               f"labels, = 4*dim - 2|mu| {transfer['status']} on {transfer['count']} of {total}")
    assert total == 37
    assert elapsed < 30
    assert doubling["name"] == "sp stabilizer oracle doubles the enhanced dimension"
    assert transfer["name"] == "gl_2n oracle matches the doubled label (4*dim - 2|mu|)"
    assert all(passed), f"first mismatches: {doubling['details']} {transfer['details']}"
    assert (quadrupled, total - quadrupled) == (11, 26)


def test_criterion_05_closure_oracle_gate(capsys):
    # the closure suite per (n, p): the flag oracle in both block orders on
    # every ordered pair, and where the walk budget admits the p^(n^2)
    # nilcone points (all but (4, 3), (3, 5) and (4, 5)) the group sweep and
    # the count of the nilcone points its orbit walks reach: at (4, 2) 400
    # pairs and 2^16 points
    start = time.monotonic()
    flag_pairs = sweep_pairs = 0
    failed = []
    for n in range(1, 5):
        pairs = len(enumerate_bipartitions(n)) ** 2
        for p in (2, 3, 5):
            checks = run_suite("closure", n, p)["checks"]
            expected = {f"flag oracle agrees at n={n}, p={p}": pairs,
                        "flag oracle independent of block ordering": pairs}
            if p ** (n * n) <= WALK_BUDGET_POINTS:
                expected[f"group sweep agrees at n={n}, p={p}"] = pairs
                expected[f"orbits partition the {p ** (n * n)} nilcone points at n={n}, p={p}"] = \
                    p ** (n * n)
                sweep_pairs += pairs
            flag_pairs += pairs
            assert {c["name"]: c["count"] for c in checks} == expected
            failed += [(n, p, c["name"], c["details"]) for c in checks if c["status"] != "pass"]
    elapsed = time.monotonic() - start
    ok = not failed and elapsed < 600
    with capsys.disabled():
        report(5, ok, f"{flag_pairs} flag-oracle pairs in both block orders (n<=4, p in 2,3,5), "
                      f"{sweep_pairs} sweep pairs and the nilcone point counts "
                      f"(p^(n^2) <= 2^20, so all but n=4, p=3 and n>=3, p=5); "
                      f"failed checks: {len(failed)}; {elapsed:.1f}s")
    assert not failed, failed
    assert elapsed < 600


def test_criterion_06_induction_laws(capsys):
    checks = suite_induction(6)
    codim = next(c for c in checks if "codimension" in c["name"])
    trans = next(c for c in checks if "transitive" in c["name"])
    ok = codim["status"] == "pass" and trans["status"] == "pass"
    with capsys.disabled():
        report(6, ok, f"codimension preserved on {codim['count']} data; "
                      f"transitivity on {trans['count']} refinement chains (n<=6)")
    assert ok, (codim, trans)


def test_criterion_07_rigidity(capsys):
    ok = True
    for n in range(1, 9):
        labels = enumerate_bipartitions(n)
        rigid = [b for b in labels if is_rigid(b)]
        if len(rigid) != 2 or set(rigid) != {B((1,) * n, ()), B((), (1,) * n)}:
            ok = False
        for b in labels:
            if induce_from_vector(rigid_datum(b)) != b:
                ok = False
    with capsys.disabled():
        report(7, ok, "exactly 2 rigid orbits per n and rigid-datum round "
                      "trips for every orbit, n <= 8")
    assert ok


def test_criterion_08_class_and_sheet_counts(capsys):
    class_counts = [len(enumerate_classes(n)) for n in (1, 2, 3)]
    sheet_counts = [len(enumerate_sheets(n)) for n in (1, 2, 3)]
    formula_ok = all(len(enumerate_sheets(n)) == sheet_count_formula(n)
                     for n in range(1, 13))
    class_formula_ok = all(len(enumerate_classes(n)) == class_count_formula(n)
                           for n in range(1, 7))
    maximal_ok = all(sheets_are_maximal_check(n) for n in range(1, 6))
    ok = (class_counts == [2, 8, 24] and sheet_counts == [2, 5, 10]
          and formula_ok and class_formula_ok and maximal_ok)
    with capsys.disabled():
        report(8, ok, f"classes {class_counts} sheets {sheet_counts}; sheet "
                      f"formula holds to n=12; stratum maxima are sheets to n=5")
    assert class_counts == [2, 8, 24]
    assert sheet_counts == [2, 5, 10]
    assert formula_ok and class_formula_ok and maximal_ok


def test_criterion_09_quotient_compatibility(capsys):
    # the quotient suite at (4, 3): 200 seeded elements of each size m <= 4,
    # 20 GL and 20 Sp conjugations each, the 37 orbit representatives among
    # the vanishing cases, and the fiber census over F_3 at each m whose
    # 3^(m + m^2) points fit the point budget: m = 1, 2 and 3
    checks = run_suite("quotient", 4, 3)["checks"]
    compat, vanish, conj, *censuses = checks
    labels = sum(len(enumerate_bipartitions(n)) for n in range(1, 5))
    assert {c["name"]: c["count"] for c in checks} == {
        "exotic invariants of the embedding match": 800,
        "invariants vanish exactly on nilpotent pairs": 800 + labels,
        "invariants constant under 20 conjugations per element": 800 * 40,
        "fiber census at n=1 over F_3: 3 fibers, 0 non-split points": 3 ** 2,
        "fiber census at n=2 over F_3: 9 fibers, 162 non-split points": 3 ** 6,
        "fiber census at n=3 over F_3: 27 fibers, 263898 non-split points": 3 ** 12,
    }
    failed = [c for c in checks if c["status"] != "pass"]
    census_points = sum(c["count"] for c in censuses)
    with capsys.disabled():
        report(9, not failed, f"{vanish['count']} seeded elements and representatives: "
                              f"embedding-compatibility {compat['status']} on {compat['count']}, "
                              f"vanishing iff nilpotent {vanish['status']}, "
                              f"{conj['count']} conjugations {conj['status']}, "
                              f"fiber censuses at m<=3 "
                              f"{', '.join(c['status'] for c in censuses)} "
                              f"on {census_points} points")
    assert not failed, failed


def test_criterion_10_jkv_replay(capsys):
    checks = suite_jkv()
    ok = all(c["status"] == "pass" for c in checks)
    with capsys.disabled():
        report(10, ok, "both decompositions of (v, x) = ((1,1), [[a,1],[0,b]]) "
                       "satisfy semisimplicity, cocharacter-limit nilpotency "
                       "and stabilizer inclusion")
    assert ok, checks

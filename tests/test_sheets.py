import gc
import operator
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from nilcones.errors import BudgetExceeded, CharTwo, NonSplitSpectrum, NotPerfectSquare
from nilcones.fields import GF, QQ
from nilcones.linalg import Mat, Vec, charpoly, inverse, random_gl, random_sp
from nilcones.partitions import (
    Bipartition,
    _prefix_sums,
    _sums_leq,
    enumerate_bipartitions,
    partitions_of,
)
from nilcones.enhanced import EnhancedElement, act, build_representative, orbit_dim
from nilcones.exotic import ExoticElement, embed_phi
from nilcones.jordan_classes import (
    ClassLabel,
    _merge_search,
    _parts_merge,
    build_class_representative,
    class_closure_leq,
    class_nilcone_orbit,
    class_orbit_dim,
    enumerate_classes,
    identify_class,
)
from nilcones.sheets import (
    VEC,
    ZERO,
    InvariantVector,
    SheetLabel,
    _maximal_classes,
    _square_root_ints,
    enhanced_invariants,
    enumerate_sheets,
    exotic_invariants,
    fiber_census,
    sheet_class_label,
    sheet_count_formula,
    sheet_dim_enhanced,
    sheet_dim_exotic,
    sheet_nilpotent_orbit,
    sheets_are_maximal_check,
)

B = Bipartition


def test_sheet_counts():
    assert len(enumerate_sheets(1)) == 2
    assert len(enumerate_sheets(2)) == 5
    assert len(enumerate_sheets(3)) == 10
    for n in range(1, 13):
        sheets = enumerate_sheets(n)
        assert len(sheets) == sheet_count_formula(n)
        assert len(set(sheets)) == len(sheets)
    with pytest.raises(BudgetExceeded):
        enumerate_sheets(21)


def test_sheet_dims():
    n = 4
    dense = SheetLabel((1,) * n, (VEC,) * n)
    assert sheet_dim_enhanced(dense) == n * n + n  # the whole module
    assert sheet_dim_exotic(dense) == 2 * n * n + n  # 2n + (2n^2 - n)
    assert sheet_dim_enhanced(SheetLabel((n,), (ZERO,))) == 1
    assert sheet_dim_enhanced(SheetLabel((n,), (VEC,))) == n + 1
    with pytest.raises(ValueError):
        SheetLabel((2.9,), (VEC,))


def test_sheet_nilpotent_orbit():
    s = SheetLabel((4, 2, 3, 5), (VEC, VEC, ZERO, ZERO))
    assert sheet_nilpotent_orbit(s) == B((2, 2, 1, 1), (2, 2, 2, 1, 1))
    assert sheet_nilpotent_orbit(SheetLabel((5,), (VEC,))) == B((1,) * 5, ())
    assert sheet_nilpotent_orbit(SheetLabel((1,) * 4, (ZERO,) * 4)) == B((), (4,))
    # consistency with inducing the dense class blocks
    for n in range(1, 7):
        for s in enumerate_sheets(n):
            assert sheet_nilpotent_orbit(s) == class_nilcone_orbit(sheet_class_label(s))


def test_sheet_doubling_transfer():
    # the exotic sheet with the same label has the doubled nilpotent orbit,
    # and the stated dimensions agree with the dense class's
    from nilcones.jordan_classes import class_dim_enhanced, class_dim_exotic
    from nilcones.partitions import double

    for n in range(1, 7):
        for s in enumerate_sheets(n):
            dense = sheet_class_label(s)
            assert sheet_dim_enhanced(s) == class_dim_enhanced(dense)
            assert sheet_dim_exotic(s) == class_dim_exotic(dense)
            doubled = SheetLabel(tuple(2 * p for p in s.lam), s.choice)
            assert sheet_nilpotent_orbit(doubled) == double(sheet_nilpotent_orbit(s))


def test_rank_strata():
    # the orbit dimension splits the classes into the rank strata
    for n in (2, 3, 4):
        strata = {}
        for c in enumerate_classes(n):
            strata.setdefault(class_orbit_dim(c), []).append(c)
        assert all(0 <= k < n * n + n for k in strata)
        # the only fixed points are the scalar pairs (0, a.id): one class
        assert strata[0] == [ClassLabel((n,), (B((), (1,) * n),))]


def test_sheets_are_maximal():
    for n in range(1, 8):
        assert sheets_are_maximal_check(n), n
    with pytest.raises(BudgetExceeded):
        sheets_are_maximal_check(8)


def parts_merge_reference(lam1, lam2):
    """Every assignment of the parts of lam2 to the parts of lam1, tried
    until one fills each part of lam1 exactly."""
    return any(all(sum(q for q, t in zip(lam2, a) if t == i) == part
                   for i, part in enumerate(lam1))
               for a in product(range(len(lam1)), repeat=len(lam2)))


def test_partition_merge_filter_is_necessary():
    # merge_exists refuses the pairs whose partitions fail _parts_merge
    # without a search, so _parts_merge must be the reference's answer, and
    # the search of class_closure_leq, run without that test, must reject
    # every pair of classes it rejects
    for n in range(1, 8):
        for lam1, lam2 in product(partitions_of(n), repeat=2):
            assert _parts_merge(lam1, lam2) == parts_merge_reference(lam1, lam2), (lam1, lam2)
    for n in range(1, 7):
        by_lam = {}
        for c in enumerate_classes(n):
            by_lam.setdefault(c.lam, []).append(c)
        for (lam1, group1), (lam2, group2) in product(by_lam.items(), repeat=2):
            if not parts_merge_reference(lam1, lam2):
                assert not any(_merge_search(c2._part_sums, c1._part_sums, _sums_leq, 0,
                                             list(c1.lam),
                                             [(0,) * len(t) for _, t in c1._part_sums])
                               for c1 in group1 for c2 in group2), (lam1, lam2)


def test_nilcone_filter_is_necessary():
    # merge_exists refuses the pairs whose nilcone orbits fail accept
    # without a search: the search, run without that test, must reject
    # every such pair, under both accepts its callers pass
    for n in range(1, 7):
        classes = enumerate_classes(n)
        for c in classes:
            assert c._nilcone_sums == _prefix_sums(class_nilcone_orbit(c), 2 * n), c
        for accept in (_sums_leq, operator.eq):
            for c1, c2 in product(classes, repeat=2):
                if not accept(c1._nilcone_sums, c2._nilcone_sums):
                    assert not _merge_search(c2._part_sums, c1._part_sums, accept, 0,
                                             list(c1.lam),
                                             [(0,) * len(t) for _, t in c1._part_sums]), (c1, c2)


def test_maximality_check_leaves_no_garbage():
    # the merge search once was a nested function that held itself through
    # its closure, so every call left a reference cycle (64,004 objects
    # from one check at n = 6)
    gc.collect()
    gc.disable()
    try:
        assert sheets_are_maximal_check(6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def all_pairs_maximal(classes, rng=None):
    """The maximal classes as the check found them before it grouped its
    strata by partition: every other class of the stratum tried in turn,
    in enumeration order or, given rng, in a shuffled order per class."""
    strata = {}
    for c in classes:
        strata.setdefault(class_orbit_dim(c), []).append(c)
    maximal = set()
    for group in strata.values():
        for c in group:
            others = list(group)
            if rng is not None:
                rng.shuffle(others)
            if not any(c2 is not c and class_closure_leq(c, c2) for c2 in others):
                maximal.add(c)
    return maximal


def test_maximal_classes_match_all_pairs_loop():
    # the candidate order (by partition, more parts first) picks which
    # witness refutes a class, never whether one exists
    rng = random.Random(29)
    for n in range(1, 8):
        classes = enumerate_classes(n)
        maximal = _maximal_classes(classes)
        assert maximal == all_pairs_maximal(classes), n
        shuffled = list(classes)
        rng.shuffle(shuffled)
        assert _maximal_classes(shuffled) == maximal, n
        assert all_pairs_maximal(classes, rng) == maximal, n
        assert maximal == {sheet_class_label(s) for s in enumerate_sheets(n)}, n


def test_class_layer_memos_are_bounded():
    # the checks for n <= 6 ask orbit_dim for every bipartition of m <= 6,
    # and the label prefix sums for at most sum_(m <= 6) (7 - m) times the
    # bipartitions of m pairs (b, 2n)
    orbit_dim.cache_clear()
    _prefix_sums.cache_clear()
    for n in range(1, 7):
        assert sheets_are_maximal_check(n), n
    assert orbit_dim.cache_info().currsize == sum(
        len(enumerate_bipartitions(m)) for m in range(1, 7)) == 138
    assert _prefix_sums.cache_info().currsize <= sum(
        (7 - m) * len(enumerate_bipartitions(m)) for m in range(1, 7)) == 274


def test_sheet_class_label_is_canonical():
    # built without the constructor's canonicalisation, it equals the
    # validated label with its blocks given in (VEC, ZERO) order
    for n in range(1, 11):
        for s in enumerate_sheets(n):
            blocks = tuple(B((1,) * m, ()) if c == VEC else B((), (1,) * m)
                           for m, c in zip(s.lam, s.choice))
            label, checked = sheet_class_label(s), ClassLabel(s.lam, blocks)
            assert label == checked and hash(label) == hash(checked), s


def test_enhanced_invariants():
    for b in enumerate_bipartitions(3):
        assert enhanced_invariants(build_representative(b)).is_zero()
    e = EnhancedElement(2, Vec(QQ, (5, 7)), Mat(QQ, ((1, 0), (0, 2))))
    assert enhanced_invariants(e).coefficients == (QQ.of(-3), QQ.of(2))
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        x = Mat(QQ, tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)))
        e = EnhancedElement(n, Vec(QQ, tuple(rng.randint(-3, 3) for _ in range(n))), x)
        base = enhanced_invariants(e)
        g = random_gl(n, rng)
        assert enhanced_invariants(act(g, e)) == base


def test_exotic_invariants():
    for n in (1, 2, 3):
        for b in enumerate_bipartitions(n):
            e = build_representative(b)
            assert exotic_invariants(embed_phi(e)) == enhanced_invariants(e)
    # the semisimple exotic normal form diag(1, 2, 1, 2) with v = 0
    s = embed_phi(build_class_representative(ClassLabel((1, 1), (B((), (1,)),) * 2), (1, 2)))
    assert exotic_invariants(s).coefficients == (QQ.of(-3), QQ.of(2))
    with pytest.raises(NotPerfectSquare):
        # (t - 1)(t - 2)(t - 3)(t - 4) is squarefree of degree 4
        _square_root_ints(QQ, [1, -10, 35, -50, 24], 1)
    with pytest.raises(NotPerfectSquare):
        _square_root_ints(QQ, [1, 1], 1)
    with pytest.raises(CharTwo):
        _square_root_ints(GF(2), [1, 0, 1], 1)


def _poly_square_root(field, coeffs):
    """Reference monic square root on field scalars: given (c_1..c_2n) of a
    monic degree-2n polynomial, return (b_1..b_n) with
    (t^n + sum b_i t^{n-i})^2 matching, or raise NotPerfectSquare."""
    two = field.of(2)
    m = len(coeffs)
    if m % 2:
        raise NotPerfectSquare("odd degree")
    n = m // 2
    b = [field.one] + [field.zero] * n
    for k in range(1, n + 1):
        acc = coeffs[k - 1]
        for i in range(1, k):
            acc = field.sub(acc, field.mul(b[i], b[k - i]))
        b[k] = field.div(acc, two)
    for k in range(n + 1, 2 * n + 1):
        acc = field.zero
        for i in range(k - n, n + 1):
            acc = field.add(acc, field.mul(b[i], b[k - i]))
        if acc != coeffs[k - 1]:
            raise NotPerfectSquare(f"coefficient mismatch at degree {2 * n - k}")
    return tuple(b[1:])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotPerfectSquare:
        return NotPerfectSquare


@st.composite
def square_root_cases(draw):
    """(field, kind, coefficients c_1..c_m): the square of a random monic
    polynomial (kind "square", over Q with denominators), that square with
    its constant term moved (kind "moved", never a square: q^2 + e = r^2
    would make (r - q)(r + q) = e with r + q of degree deg q >= 1), with
    another coefficient moved (kind "other", a square or not), or a monic
    polynomial of odd degree (kind "odd")."""
    field = draw(st.sampled_from((QQ, GF(3), GF(7))))
    if field.char:
        scalars = st.integers(0, field.char - 1)
    else:
        scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    kind = draw(st.sampled_from(("square", "moved", "other", "odd")))
    if kind == "odd":
        degree = 2 * draw(st.integers(0, 4)) + 1
        return field, kind, tuple(field.of(draw(scalars)) for _ in range(degree))
    n = draw(st.integers(1, 4))
    q = [field.one] + [field.of(draw(scalars)) for _ in range(n)]
    c = [field.zero] * (2 * n + 1)
    for i, a in enumerate(q):
        for j, b in enumerate(q):
            c[i + j] = field.add(c[i + j], field.mul(a, b))
    if kind != "square":
        k = 2 * n if kind == "moved" else draw(st.integers(1, 2 * n - 1))
        c[k] = field.add(c[k], field.of(draw(st.integers(1, 5 if field.char == 7 else 2))))
    return field, kind, tuple(c[1:]), tuple(q[1:])


@given(square_root_cases(), st.integers(1, 3))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_square_root_ints_matches_fraction_reference(case, extra):
    # the int kernel takes c_k d^k for a d clearing every denominator (times
    # an extra factor over Q); over F_p d is 1
    field, kind, coeffs = case[:3]
    if field.char:
        d, ints = 1, [1, *coeffs]
    else:
        d = extra * lcm(*(c.denominator for c in coeffs))
        ints = [1] + [int(c * d ** k) for k, c in enumerate(coeffs, 1)]
    got = _outcome(_square_root_ints, field, ints, d)
    assert got == _outcome(_poly_square_root, field, coeffs)
    if kind == "square":
        assert got == case[3]
    elif kind in ("moved", "odd"):
        assert got is NotPerfectSquare


def test_exotic_invariants_match_fraction_reference():
    # exotic pairs over Q with denominators, embedded and then conjugated
    rng = random.Random(12)
    with_den = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        x = Mat(QQ, tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                          for _ in range(n)))
        base = enhanced_invariants(EnhancedElement(n, Vec.zero(QQ, n), x)).coefficients
        exo = embed_phi(EnhancedElement(n, Vec.zero(QQ, n), x))
        s = random_sp(n, rng, steps=2)
        moved = ExoticElement(n, exo.v, s.mul(exo.x).mul(inverse(s)))
        with_den += moved.x.den > 1
        for e in (exo, moved):
            assert exotic_invariants(e).coefficients == _poly_square_root(QQ, charpoly(e.x)) == base
    assert with_den > 30


def test_same_fiber():
    # the vector part contributes no invariants: pairs that differ only in v
    # map to the same point of the quotient
    e = EnhancedElement(2, Vec(QQ, (1, 0)), Mat(QQ, ((1, 0), (0, 2))))
    other = EnhancedElement(2, Vec(QQ, (9, 9)), e.x)
    assert enhanced_invariants(e) == enhanced_invariants(other)
    nil = EnhancedElement(2, Vec(QQ, (1, 0)), Mat(QQ, ((0, 1), (0, 0))))
    assert enhanced_invariants(e) != enhanced_invariants(nil)


def test_invariants_vanish_iff_nilpotent():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        x = Mat(QQ, tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)))
        e = EnhancedElement(n, Vec.zero(QQ, n), x)
        power = Mat.identity(QQ, n)
        for _ in range(n):
            power = power.mul(x)
        assert enhanced_invariants(e).is_zero() == power.is_zero()


def test_fiber_census():
    fibers, nonsplit = fiber_census(1, 3)
    assert nonsplit == 0  # every 1x1 spectrum splits
    assert len(fibers) == 3
    assert sum(sum(d.values()) for d in fibers.values()) == 3 ** 2
    fibers, nonsplit = fiber_census(2, 3)
    assert len(fibers) == 9
    total = sum(sum(d.values()) for d in fibers.values()) + nonsplit
    assert total == 3 ** 6
    # a 2x2 matrix over F_p has non-split spectrum iff its characteristic
    # polynomial is one of the (p^2 - p)/2 irreducible monic quadratics;
    # each is hit by p^2 - p matrices, and the vector part is free:
    # (p^2 - p)/2 * (p^2 - p) * p^2 points
    assert nonsplit == (3 ** 2 - 3) ** 2 // 2 * 3 ** 2 == 162
    fibers5, nonsplit5 = fiber_census(2, 5)
    assert len(fibers5) == 25
    assert nonsplit5 == (5 ** 2 - 5) ** 2 // 2 * 5 ** 2 == 5000
    assert sum(sum(d.values()) for d in fibers5.values()) + nonsplit5 == 5 ** 6
    # over F_2 the one irreducible quadratic t^2 + t + 1 gives the only
    # non-split fiber: 4 fibers, 64 points, 8 of them non-split
    fibers2, nonsplit2 = fiber_census(2, 2)
    assert len(fibers2) == 2 ** 2
    assert nonsplit2 == (2 ** 2 - 2) ** 2 // 2 * 2 ** 2 == 8
    assert sum(sum(d.values()) for d in fibers2.values()) + nonsplit2 == 2 ** 6
    # the census walk marks all p^(n + n^2) points: 3^20 at (4, 3), 11^6
    # at (2, 11) and 1031^2 at (1, 1031) are past the 2^20 point budget
    with pytest.raises(BudgetExceeded):
        fiber_census(4, 3)
    with pytest.raises(BudgetExceeded):
        fiber_census(2, 11)
    with pytest.raises(BudgetExceeded):
        fiber_census(1, 1031)


def test_fiber_census_matches_per_point_reference():
    # the census identifies one point per GL_n(F_p)-orbit; the reference
    # identifies the class of every split point on its own.  At (1, 2) no
    # generator applies, so every point is its own orbit; at (2, 5) the
    # walk runs the dilation, where z and z^-1 differ; (3, 2) is the first
    # n = 3 census
    for n, p in ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2)):
        field = GF(p)
        fibers = {}
        nonsplit = 0
        for xentries in product(range(p), repeat=n * n):
            x = Mat(field, tuple(xentries[i * n:(i + 1) * n] for i in range(n)))
            bucket = fibers.setdefault(tuple(charpoly(x)), {})
            for ventries in product(range(p), repeat=n):
                try:
                    label = identify_class(EnhancedElement(n, Vec(field, ventries), x))
                except NonSplitSpectrum:
                    nonsplit += 1
                    continue
                bucket[label] = bucket.get(label, 0) + 1
        assert fiber_census(n, p) == (fibers, nonsplit), (n, p)


def test_invariant_vector_type():
    iv = InvariantVector((QQ.zero, QQ.zero))
    assert iv.is_zero()
    assert not InvariantVector((QQ.one,)).is_zero()

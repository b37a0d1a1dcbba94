import random

import pytest

from nilcones.errors import BudgetExceeded, ModuleMismatch, NotPerfectSquare
from nilcones.fields import GF, QQ
from nilcones.linalg import Mat, Vec, random_gl
from nilcones.partitions import Bipartition, enumerate_bipartitions
from nilcones.enhanced import EnhancedElement, act, build_representative
from nilcones.exotic import build_semisimple_exotic, embed_phi
from nilcones.jordan_classes import ClassLabel, class_nilcone_orbit, enumerate_classes
from nilcones.sheets import (
    VEC,
    ZERO,
    InvariantVector,
    SheetLabel,
    _poly_square_root,
    enhanced_invariants,
    enumerate_sheets,
    exotic_invariants,
    fiber_census,
    rank_stratum,
    same_fiber,
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
    for n in (2, 3, 4):
        classes = enumerate_classes(n)
        seen = []
        for k in range(n * n + n + 1):
            seen.extend(rank_stratum(n, k))
        assert sorted(map(str, seen)) == sorted(map(str, classes))
        # the only fixed points are the scalar pairs (0, a.id): one class
        assert rank_stratum(n, 0) == [ClassLabel((n,), (B((), (1,) * n),))]
        assert rank_stratum(n, n * n + n) == []


def test_sheets_are_maximal():
    for n in range(1, 8):
        assert sheets_are_maximal_check(n)
    with pytest.raises(BudgetExceeded):
        sheets_are_maximal_check(8)


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
    s = build_semisimple_exotic((1, 1), (1, 2))
    assert exotic_invariants(s).coefficients == (QQ.of(-3), QQ.of(2))
    with pytest.raises(NotPerfectSquare):
        # (t - 1)(t - 2)(t - 3)(t - 4) is squarefree of degree 4
        _poly_square_root(QQ, (QQ.of(-10), QQ.of(35), QQ.of(-50), QQ.of(24)))
    with pytest.raises(NotPerfectSquare):
        _poly_square_root(QQ, (QQ.of(1),))


def test_same_fiber():
    e = EnhancedElement(2, Vec(QQ, (1, 0)), Mat(QQ, ((1, 0), (0, 2))))
    assert same_fiber(e, e)
    other = EnhancedElement(2, Vec(QQ, (9, 9)), e.x)
    assert same_fiber(e, other)
    nil = EnhancedElement(2, Vec(QQ, (1, 0)), Mat(QQ, ((0, 1), (0, 0))))
    assert not same_fiber(e, nil)
    with pytest.raises(ModuleMismatch):
        same_fiber(e, embed_phi(e))
    with pytest.raises(ModuleMismatch):
        same_fiber(e, EnhancedElement(2, Vec.zero(GF(3), 2), Mat.zeros(GF(3), 2)))


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
    with pytest.raises(BudgetExceeded):
        fiber_census(3, 3)


def test_invariant_vector_type():
    iv = InvariantVector((QQ.zero, QQ.zero))
    assert iv.is_zero()
    assert not InvariantVector((QQ.one,)).is_zero()

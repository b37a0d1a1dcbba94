import random

import pytest

from nilcones.errors import BudgetExceeded, NotNilpotent, NotRigidDatum, SizeMismatch
from nilcones.fields import GF, QQ
from nilcones.linalg import Mat, Vec, stabilizer_dim_gl
from nilcones.partitions import Bipartition, Composition, enumerate_bipartitions
from nilcones.enhanced import (
    EnhancedElement,
    _orbit_walk,
    _rigid_blocks,
    InductionDatum,
    act,
    build_representative,
    closure_leq,
    closure_oracle_flag,
    closure_oracle_sweep,
    identify_orbit,
    induce,
    induce_from_vector,
    induction_representative,
    is_rigid,
    jkv_decompose,
    orbit_dim,
    rigid_datum,
)

B = Bipartition


def summed_representative(b):
    """The normal form moved by the unipotent u = 1 + x + x^2 + ..., which
    commutes with x: the vector then sums the first mu_i boxes of chain i,
    and the pair stays in the orbit of b."""
    rep = build_representative(b)
    u = power = Mat.identity(QQ, b.n)
    for _ in range(1, b.n):
        power = power.mul(rep.x)
        u = u.add(power)
    return act(u, rep)


def test_orbit_dim_examples():
    for n in (1, 2, 3, 5):
        assert orbit_dim(B((), (1,) * n)) == 0
    assert orbit_dim(B((), (2,))) == 2
    assert orbit_dim(B((2, 2, 2, 1), (2, 2, 1, 1))) == 131


def test_orbit_dim_matches_stabilizer_oracle():
    for n in range(1, 6):
        for b in enumerate_bipartitions(n):
            rep = build_representative(b)
            assert orbit_dim(b) == n * n - stabilizer_dim_gl(rep.v, rep.x), b


def test_build_representative_examples():
    e = build_representative(B((1,), ()))
    assert e.v.entries == (QQ.one,) and e.x.is_zero()
    e = build_representative(B((), (1, 1, 1)))
    assert e.v.is_zero() and e.x.is_zero()
    # chains (4, 4, 3, 2); the summed vector fills the first mu_i boxes
    b = B((2, 2, 2, 1), (2, 2, 1, 1))
    e = summed_representative(b)
    ones = {0, 1, 4, 5, 8, 9, 11}
    assert e.v.entries == tuple(QQ.one if i in ones else QQ.zero for i in range(13))
    assert e.x == build_representative(b).x


def test_build_representative_matches_public_constructors():
    # the normal form built through the validating constructors Mat and Vec
    # from field scalars, as build_representative once did
    def rebuilt(b, field):
        n = b.n
        lam = [m + u for m, u in zip(b.mu + (0,) * n, b.nu + (0,) * n) if m + u]
        offsets = [sum(lam[:i]) for i in range(len(lam))]
        rows = [[field.zero] * n for _ in range(n)]
        for off, length in zip(offsets, lam):
            for j in range(1, length):
                rows[off + j - 1][off + j] = field.one
        ventries = [field.zero] * n
        for off, m in zip(offsets, b.mu):
            ventries[off + m - 1] = field.one
        return EnhancedElement(n, Vec(field, tuple(ventries)),
                               Mat(field, tuple(tuple(r) for r in rows)))

    for field in (QQ, GF(2), GF(3), GF(7)):
        for n in range(9):
            for b in enumerate_bipartitions(n):
                assert build_representative(b, field) == rebuilt(b, field), (b, field)


def test_identify_orbit_round_trip():
    for n in range(7):
        for b in enumerate_bipartitions(n):
            assert identify_orbit(build_representative(b)) == b
            assert identify_orbit(summed_representative(b)) == b


def test_identify_orbit_examples_and_errors():
    zero = EnhancedElement(3, Vec.zero(QQ, 3), Mat.zeros(QQ, 3))
    assert identify_orbit(zero) == B((), (1, 1, 1))
    e13 = summed_representative(B((2, 2, 2, 1), (2, 2, 1, 1)))
    assert identify_orbit(e13) == B((2, 2, 2, 1), (2, 2, 1, 1))
    with pytest.raises(NotNilpotent):
        identify_orbit(EnhancedElement(2, Vec.zero(QQ, 2), Mat.identity(QQ, 2)))


def test_identify_orbit_constant_on_orbits():
    rng = random.Random(7)
    from nilcones.linalg import random_gl

    for n in range(1, 6):
        for b in enumerate_bipartitions(n):
            e = build_representative(b)
            g = random_gl(n, rng)
            assert identify_orbit(act(g, e)) == b


def test_jkv_decompose():
    e = build_representative(B((2,), (1,)))
    semi, nil = jkv_decompose(e)
    assert semi.v.is_zero() and semi.x.is_zero()
    assert nil.x.rows == e.x.rows and nil.v.entries == e.v.entries

    s = EnhancedElement(2, Vec(QQ, (1, 1)), Mat(QQ, ((1, 0), (0, 2))))
    semi, nil = jkv_decompose(s)
    assert semi.x.rows == s.x.rows and nil.x.is_zero()
    assert nil.v.entries == (QQ.one, QQ.one)

    # [[a, 1], [0, b]] with a != b is semisimple, so the nilpotent part is 0
    m = EnhancedElement(2, Vec(QQ, (1, 1)), Mat(QQ, ((1, 1), (0, 2))))
    semi, nil = jkv_decompose(m)
    assert nil.x.is_zero() and semi.x.rows == m.x.rows


def test_induce_examples():
    d = InductionDatum(
        Composition((3, 4, 4, 2)),
        (B((1, 1, 1), ()), B((1, 1, 1, 1), ()), B((), (1, 1, 1, 1)), B((), (1, 1))),
    )
    assert induce(d) == B((2, 2, 2, 1), (2, 2, 1, 1))
    b = B((2, 1), (1,))
    assert induce(InductionDatum(Composition((4,)), (b,))) == b
    two = InductionDatum(Composition((1, 1)), (B((1,), ()), B((1,), ())))
    assert induce(two) == B((2,), ())
    # oracle: the induced orbit is the dense nilpotent one, dimension 4
    rep = build_representative(B((2,), ()))
    assert 4 - stabilizer_dim_gl(rep.v, rep.x) == 4
    with pytest.raises(SizeMismatch):
        InductionDatum(Composition((2, 2)), (B((1,), ()), B((1,), ())))


def test_induce_from_vector_examples():
    d = InductionDatum.rigid(Composition((4, 2, 3, 5), k=2))
    assert induce_from_vector(d) == B((2, 2, 1, 1), (2, 2, 2, 1, 1))
    full = InductionDatum.rigid(Composition((4,), k=1))
    assert induce_from_vector(full) == B((1, 1, 1, 1), ())
    torus = InductionDatum.rigid(Composition((1,) * 5, k=0))
    assert induce_from_vector(torus) == B((), (5,))
    assert orbit_dim(B((), (5,))) == 25 - 5
    bad = InductionDatum(Composition((2,), k=1), (B((), (2,)),))
    with pytest.raises(NotRigidDatum):
        induce_from_vector(bad)


def test_induction_representative():
    d = InductionDatum.rigid(Composition((4, 2, 3, 5), k=2))
    rep = induction_representative(d)
    assert identify_orbit(rep) == B((2, 2, 1, 1), (2, 2, 2, 1, 1))
    full = induction_representative(InductionDatum.rigid(Composition((3,), k=1)))
    assert full.v.entries == (QQ.one,) * 3 and full.x.is_zero()
    d13 = InductionDatum.rigid(Composition((3, 4, 4, 2), k=2))
    assert identify_orbit(induction_representative(d13)) == B((2, 2, 2, 1), (2, 2, 1, 1))
    # non-rigid data fall back to the normal form of the induced label
    general = InductionDatum(Composition((2, 1)), (B((2,), ()), B((), (1,))))
    assert identify_orbit(induction_representative(general)) == induce(general)


def test_rigid_blocks_match_rigid_datum():
    for n in range(9):
        for b in enumerate_bipartitions(n):
            comp = rigid_datum(b).composition
            assert _rigid_blocks(b) == (comp.parts, comp.k), b


def test_rigidity():
    assert is_rigid(B((1, 1), ()))
    assert not is_rigid(B((), (2,)))
    assert not is_rigid(B((1,), (1,)))
    for n in range(1, 9):
        assert sum(1 for b in enumerate_bipartitions(n) if is_rigid(b)) == 2
        for b in enumerate_bipartitions(n):
            assert induce_from_vector(rigid_datum(b)) == b


def test_rigid_datum_examples():
    d = rigid_datum(B((2, 2, 1, 1), (2, 2, 2, 1, 1)))
    assert d.composition.parts == (2, 4, 3, 5) and d.composition.k == 2
    d = rigid_datum(B((1, 1, 1), ()))
    assert d.composition.parts == (3,) and d.composition.k == 1
    d = rigid_datum(B((3,), ()))
    assert d.composition.parts == (1, 1, 1) and d.composition.k == 3


def test_codimension_preservation_small():
    from nilcones.verify import suite_induction

    for check in suite_induction(5):
        assert check["status"] == "pass", check


def test_closure_examples():
    bottom = B((), (1, 1))
    for b in enumerate_bipartitions(2):
        assert closure_leq(bottom, b)
    assert closure_oracle_flag(bottom, B((1, 1), ()), 2)
    assert not closure_oracle_flag(B((2,), ()), B((1, 1), ()), 2)
    for b in enumerate_bipartitions(3):
        assert closure_oracle_flag(b, b, 2)
        assert closure_oracle_flag(b, b, 3)
    with pytest.raises(SizeMismatch):
        closure_oracle_flag(B((1,), ()), B((2,), ()), 2)
    with pytest.raises(BudgetExceeded):
        closure_oracle_flag(B((7,), ()), B((7,), ()), 2)
    with pytest.raises(BudgetExceeded):
        closure_oracle_flag(B((1,), ()), B((1,), ()), 5)
    with pytest.raises(BudgetExceeded):
        closure_oracle_sweep(B((4,), ()), B((4,), ()), 2)


def test_closure_rule_against_flag_oracle_small():
    for n in (1, 2, 3):
        labels = enumerate_bipartitions(n)
        for p in (2, 3):
            for b1 in labels:
                for b2 in labels:
                    assert closure_oracle_flag(b1, b2, p) == closure_leq(b1, b2), (b1, b2, p)


def test_closure_rule_against_flag_oracle_n5():
    # n = 5 is certified in both block orders; n = 6 runs in the CI verify steps
    labels = enumerate_bipartitions(5)
    for p in (2, 3):
        for b1 in labels:
            for b2 in labels:
                rule = closure_leq(b1, b2)
                assert closure_oracle_flag(b1, b2, p) == rule, (b1, b2, p)
                assert closure_oracle_flag(b1, b2, p, alt_order=True) == rule, (b1, b2, p)


def test_flag_oracle_matches_baseline(baseline):
    # the pinned benchmark baseline builds the representative through the
    # public constructors and the blocks through rigid_datum
    old_b = baseline.partitions.Bipartition
    for n in range(1, 5):
        labels = enumerate_bipartitions(n)
        for p in (2, 3):
            for b1 in labels:
                for b2 in labels:
                    for alt in (False, True):
                        assert closure_oracle_flag(b1, b2, p, alt) == \
                            baseline.enhanced.closure_oracle_flag(
                                old_b(b1.mu, b1.nu), old_b(b2.mu, b2.nu), p, alt), (b1, b2, p, alt)


def test_closure_oracles_agree_n2():
    labels = enumerate_bipartitions(2)
    for p in (2, 3):
        for b1 in labels:
            for b2 in labels:
                flag = closure_oracle_flag(b1, b2, p)
                assert flag == closure_oracle_sweep(b1, b2, p)
                assert flag == closure_leq(b1, b2)
                assert flag == closure_oracle_flag(b1, b2, p, alt_order=True)


def test_orbit_walk_partitions_nilcone_points():
    # The GL_n(F_p)-orbits of the representatives partition the F_p-points
    # of the enhanced nilcone: p^n vectors times the p^(n^2 - n) nilpotent
    # matrices (Fine-Herstein), so p^(n^2) points.  A missing generator or a
    # representative wrong over F_p breaks the count or the disjointness.
    expected = {(0, 2): 1, (1, 2): 2, (2, 2): 16, (3, 2): 512,
                (0, 3): 1, (1, 3): 3, (2, 3): 81, (3, 3): 19683}
    for (n, p), total in expected.items():
        assert total == p ** (n * n)
        seen = set()
        points = 0
        for b in enumerate_bipartitions(n):
            rep = build_representative(b, field=GF(p))
            orbit = set(_orbit_walk(rep.x.rows, rep.v.entries, p))
            assert seen.isdisjoint(orbit), (n, p, b)
            seen |= orbit
            points += len(orbit)
        assert points == total, (n, p)


def test_closure_implies_dimension_monotone():
    for n in range(7):
        for b1 in enumerate_bipartitions(n):
            for b2 in enumerate_bipartitions(n):
                if closure_leq(b1, b2):
                    assert orbit_dim(b1) <= orbit_dim(b2)


def test_element_validation():
    with pytest.raises(SizeMismatch):
        EnhancedElement(2, Vec.zero(QQ, 3), Mat.zeros(QQ, 2))
    with pytest.raises(ValueError):
        EnhancedElement(2, Vec.zero(GF(3), 2), Mat.zeros(QQ, 2))


def test_representative_over_prime_field():
    b = B((2, 1), (1,))
    rep = build_representative(b, field=GF(3))
    assert identify_orbit(rep) == b

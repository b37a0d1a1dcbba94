import gc
import random
from fractions import Fraction
from itertools import product

import pytest

from nilcones.errors import (
    BudgetExceeded,
    InvariantViolation,
    NotNilpotent,
    NotRigidDatum,
    SizeMismatch,
)
from nilcones.fields import GF, QQ
from nilcones.linalg import (
    Mat,
    Vec,
    _echelon,
    _pattern_slots,
    echelon_patterns,
    stabilizer_dim_gl,
)
from nilcones.partitions import (
    Bipartition,
    Composition,
    add,
    ah_closure_leq,
    enumerate_bipartitions,
)
from nilcones.sheets import fiber_census
from nilcones.verify import run_suite
from nilcones.enhanced import (
    WALK_BUDGET_POINTS,
    EnhancedElement,
    _chains,
    _conjugations,
    _orbit_of,
    _orbit_pairs,
    _orbit_table,
    _orbit_walk,
    _subspaces_between,
    _rigid_blocks,
    _x_passes,
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
            assert _rigid_blocks(b)[:2] == (comp.parts, comp.k), b


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
    # the flag search's memo is bounded by p^floor(n^2 / 4): 2^20 at (9, 2)
    # and 3^12 at (7, 3) are within the point budget, 2^25 at (10, 2) and
    # 5^9 at (6, 5) are not
    assert closure_oracle_flag(B((9,), ()), B((9,), ()), 2)
    assert closure_oracle_flag(B((7,), ()), B((7,), ()), 3)
    with pytest.raises(BudgetExceeded):
        closure_oracle_flag(B((10,), ()), B((10,), ()), 2)
    with pytest.raises(BudgetExceeded):
        closure_oracle_flag(B((6,), ()), B((6,), ()), 5)
    # the sweep's walk marks up to p^(n^2) codes: 2^16 at (4, 2) is within
    # the point budget, 3^16 at (4, 3) and 2^25 at (5, 2) are not
    with pytest.raises(BudgetExceeded):
        closure_oracle_sweep(B((4,), ()), B((4,), ()), 3)
    with pytest.raises(BudgetExceeded):
        closure_oracle_sweep(B((5,), ()), B((5,), ()), 2)
    # the walk's dilation needs a primitive root mod p, so p must be prime
    with pytest.raises(ValueError):
        closure_oracle_sweep(B((1,), ()), B((1,), ()), 6)


@pytest.mark.parametrize("p", [1, 4, 6, 9, 1024])
@pytest.mark.parametrize("oracle", [closure_oracle_flag, closure_oracle_sweep, fiber_census])
def test_closure_oracles_refuse_a_non_prime(oracle, p):
    # the flag search inverts mod p by Fermat, and the walk's dilation
    # needs a primitive root mod p: both hold only for a prime.  Each
    # oracle asks for a prime before it reads the point budget, so p = 1024,
    # past the budget at n = 2, is a ValueError too, not BudgetExceeded
    args = (2,) if oracle is fiber_census else (B((1,), (1,)), B((2,), ()))
    with pytest.raises(ValueError):
        oracle(*args, p)


@pytest.mark.parametrize("p", [3.0, Fraction(3), 7.5])
def test_a_prime_that_is_not_an_int_is_refused(p):
    # 3.0 and Fraction(3) equal the Miller-Rabin base 3, and GF(3.0) once
    # built a field whose residues were floats
    with pytest.raises(TypeError):
        GF(p)
    for oracle in (closure_oracle_flag, closure_oracle_sweep):
        with pytest.raises(TypeError):
            oracle(B((1,), (1,)), B((2,), ()), p)
    with pytest.raises(TypeError):
        fiber_census(1, p)


def test_closure_rule_against_flag_oracle_small():
    for n in (1, 2, 3):
        labels = enumerate_bipartitions(n)
        for p in (2, 3, 5, 7):
            for b1 in labels:
                for b2 in labels:
                    assert closure_oracle_flag(b1, b2, p) == closure_leq(b1, b2), (b1, b2, p)
    # (4, 5) in both block orders: its memo bound 5^4 is far inside the
    # point budget
    labels = enumerate_bipartitions(4)
    for b1 in labels:
        for b2 in labels:
            rule = closure_leq(b1, b2)
            assert closure_oracle_flag(b1, b2, 5) == rule, (b1, b2)
            assert closure_oracle_flag(b1, b2, 5, alt_order=True) == rule, (b1, b2)


def test_closure_rule_against_flag_oracle_n5():
    # n = 5 is certified in both block orders; n = 6 and 7 run in the CI verify steps
    labels = enumerate_bipartitions(5)
    for p in (2, 3):
        for b1 in labels:
            for b2 in labels:
                rule = closure_leq(b1, b2)
                assert closure_oracle_flag(b1, b2, p) == rule, (b1, b2, p)
                assert closure_oracle_flag(b1, b2, p, alt_order=True) == rule, (b1, b2, p)


def span_points(rows, n, p):
    """Every point of the span of the int rows over F_p."""
    return frozenset(tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p for i in range(n))
                     for coeffs in product(range(p), repeat=len(rows)))


def is_reduced(F, n, p):
    """True iff F is a tuple of (pivot, row) pairs in reduced echelon form:
    pivots rising, each row an int tuple in [0, p) of length n that is 0
    before its pivot, 1 at it and 0 at the other pivots."""
    pivots = [piv for piv, _ in F]
    return pivots == sorted(set(pivots)) and all(
        type(row) is tuple and len(row) == n and all(0 <= a < p for a in row)
        and not any(row[:piv]) and row[piv] == 1
        and not any(row[q] for q in pivots if q != piv)
        for piv, row in F)


def random_subspace(rng, n, p, dim, within=None):
    """Reduced echelon rows of a random subspace of dimension dim, inside
    the span of the rows ``within`` when given."""
    rows = ()
    while len(rows) < dim:
        if within is None:
            vec = [rng.randrange(p) for _ in range(n)]
        else:
            coeffs = [rng.randrange(p) for _ in within]
            vec = [sum(c * row[i] for c, (_, row) in zip(coeffs, within)) % p for i in range(n)]
        rows = _echelon([vec], p, rows)
    return rows


def test_subspaces_between_matches_brute_force():
    # every nested S <= T for p in {2, 3} and n <= 4, S = 0, S = T and
    # T = F_p^n among them, against the reduced echelon patterns between
    rng = random.Random(24)
    spans = {}
    cases = 0
    for p in (2, 3):
        for n in range(1, 5):
            for t in range(n + 1):
                for s in range(t + 1):
                    for _ in range(3):
                        T = random_subspace(rng, n, p, t)
                        S = random_subspace(rng, n, p, s, within=T)
                        in_S = span_points([r for _, r in S], n, p)
                        in_T = span_points([r for _, r in T], n, p)
                        for d in range(s, t + 1):
                            if (n, d, p) not in spans:
                                spans[n, d, p] = {P: span_points(P, n, p)
                                                  for P in echelon_patterns(n, d, p)}
                            got = list(_subspaces_between(S, T, d, p))
                            assert all(is_reduced(F, n, p) for F in got)
                            bases = [tuple(row for _, row in F) for F in got]
                            assert len(set(bases)) == len(bases)
                            assert set(bases) == {P for P, pts in spans[n, d, p].items()
                                                  if in_S <= pts <= in_T}, (p, S, T, d)
                            cases += 1
                        assert not list(_subspaces_between(S, T, t + 1, p))
    assert cases == 414


def test_subspaces_between_refuses_S_outside_T():
    # S not inside T raises wherever a complement is taken, s < d < t,
    # also when every pivot of S is a pivot of T; at d = s and d = t the
    # answer is S or T and no complement is needed
    rng = random.Random(25)
    same_pivots = other_pivots = 0
    for p in (2, 3):
        for n, t, s in ((4, 3, 1), (5, 3, 1), (5, 4, 1), (5, 4, 2)):
            for _ in range(60):
                T = random_subspace(rng, n, p, t)
                S = random_subspace(rng, n, p, s)
                in_T = span_points([r for _, r in T], n, p)
                if all(r in in_T for _, r in S):
                    continue
                if {piv for piv, _ in S} <= {piv for piv, _ in T}:
                    same_pivots += 1
                else:
                    other_pivots += 1
                for d in range(s + 1, t):
                    with pytest.raises(InvariantViolation):
                        list(_subspaces_between(S, T, d, p))
    assert (same_pivots, other_pivots) == (283, 50)


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


def test_flag_oracle_leaves_no_garbage():
    # the flag search takes its state as arguments, so a query leaves no
    # reference cycle for the cyclic collector
    labels = enumerate_bipartitions(5)
    gc.collect()
    gc.disable()
    try:
        for p, alt in ((2, False), (3, True)):
            for b1 in labels:
                for b2 in labels:
                    closure_oracle_flag(b1, b2, p, alt)
        assert gc.collect() == 0
    finally:
        gc.enable()


def must_vanish(comp, k):
    """The indices of the flat point v + rows of x at which a point of the
    rigid datum's pattern vanishes: v outside the marked blocks of comp
    (the first k) and x on and below the diagonal blocks."""
    n = sum(comp)
    block_of = [bi for bi, size in enumerate(comp) for _ in range(size)]
    return [*range(sum(comp[:k]), n),
            *(n + n * r + c for r in range(n) for c in range(n) if block_of[r] >= block_of[c])]


def per_point_sweep(b_small, b_big, p):
    """The sweep as one test per orbit point: the flat point v + rows of x
    must vanish at the indices :func:`must_vanish` gives for b_big's rigid
    datum."""
    comp, k, *_ = _rigid_blocks(b_big)
    indices = must_vanish(comp, k)
    rep = build_representative(b_small, field=GF(p))
    walk = _orbit_walk(*_conjugations(b_small.n, p), rep.v.entries, sum(rep.x.rows, ()))
    return any(not any(map(pt.__getitem__, indices)) for pt in walk)


def test_label_records_match_local_constructions():
    # the fields each label's record keeps for the sweep, against
    # constructions made here: the flat x of the normal form from the chain
    # lengths mu_i + nu_i, and the pattern's indices from (comp, k)
    for n in range(7):
        for b in enumerate_bipartitions(n):
            chain_of = [i for i, length in enumerate(add(b.mu, b.nu)) for _ in range(length)]
            x = tuple(int(j == i + 1 and chain_of[i] == chain_of[j])
                      for i in range(n) for j in range(n))
            assert _chains(b)[3] == x == sum(build_representative(b, GF(2)).x.num, ()), b
            comp, k, marked, x_vanish = _rigid_blocks(b)
            assert [*range(marked, n), *(n + i for i in x_vanish)] == must_vanish(comp, k), b


def test_sweep_matches_per_point_reference():
    # (2, 5) and (2, 7) run the dilation, where z and z^-1 differ; the
    # reference shares the walk, so the rule checks the walk's generators
    for n, p in [*product((1, 2, 3), (2, 3)), (2, 5), (2, 7)]:
        labels = enumerate_bipartitions(n)
        for b1 in labels:
            for b2 in labels:
                assert (closure_oracle_sweep(b1, b2, p) == per_point_sweep(b1, b2, p)
                        == closure_leq(b1, b2)), (b1, b2, p)


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
                (0, 3): 1, (1, 3): 3, (2, 3): 81, (3, 3): 19683, (2, 5): 625}
    for (n, p), total in expected.items():
        assert total == p ** (n * n)
        seen = set()
        points = 0
        for b in enumerate_bipartitions(n):
            rep = build_representative(b, field=GF(p))
            orbit = set(_orbit_walk(*_conjugations(n, p), rep.v.entries, sum(rep.x.rows, ())))
            assert seen.isdisjoint(orbit), (n, p, b)
            seen |= orbit
            points += len(orbit)
        assert points == total, (n, p)


# every memo the F_p oracles keep, each a functools.cache
ORACLE_MEMOS = (_conjugations, _orbit_of, _chains, _rigid_blocks, _x_passes, _pattern_slots)


def fresh_sweep(b_small, b_big, p):
    """closure_oracle_sweep as it was before the oracles kept their data:
    the generators, the normal form, the rigid pattern and both orbit
    tables built anew on every call, none of them read from a memo."""
    n = b_small.n
    v_maps, x_maps = _conjugations.__wrapped__(n, p)
    _, ends, ventries, _ = _chains.__wrapped__(b_small)
    xrows = [[int(j == i + 1 and i not in ends) for j in range(n)] for i in range(n)]
    comp, k, *_ = _rigid_blocks.__wrapped__(b_big)
    marked = sum(comp[:k])
    block_of = [bi for bi, size in enumerate(comp) for _ in range(size)]
    x_vanish = [n * r + c for r in range(n) for c in range(n) if block_of[r] >= block_of[c]]
    vs, v_next = _orbit_table([tuple(ventries)], v_maps)
    xs, x_next = _orbit_table([tuple(e for row in xrows for e in row)], x_maps)
    v_ok = [not any(v[marked:]) for v in vs]
    x_ok = [not any(map(x.__getitem__, x_vanish)) for x in xs]
    if not any(v_ok) or not any(x_ok):
        return False
    seen = bytearray(len(vs) * len(xs))
    return any(v_ok[vi] and x_ok[xi] for vi, xi in _orbit_pairs(v_next, x_next, len(xs), 0, seen))


def is_frozen(value):
    """True iff value is an int, a map (a generator's action) or a tuple of
    such values, at every depth: nothing a caller could change."""
    if isinstance(value, tuple):
        return all(map(is_frozen, value))
    return isinstance(value, int) or callable(value)


def test_memoised_oracles_match_fresh_tables():
    # from cold memos, in forward and then reverse pair order, so no answer
    # depends on which label filled a memo first
    for memo in ORACLE_MEMOS:
        memo.cache_clear()
    sizes = [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)] + [(4, 2)]
    for n, p in sizes:
        pairs = list(product(enumerate_bipartitions(n), repeat=2))
        rule = [ah_closure_leq(*pair) for pair in pairs]
        sweeps = p ** (n * n) <= WALK_BUDGET_POINTS
        if sweeps:
            assert [fresh_sweep(*pair, p) for pair in pairs] == rule, (n, p)
        for order in (1, -1):
            for pair, expect in list(zip(pairs, rule))[::order]:
                if n < 4:
                    assert closure_oracle_flag(*pair, p) == expect, (pair, p)
                    assert closure_oracle_flag(*pair, p, alt_order=True) == expect, (pair, p)
                if sweeps:
                    assert closure_oracle_sweep(*pair, p) == expect, (pair, p)
    first, second = run_suite("closure", 3, 3), run_suite("closure", 3, 3)
    for report in (first, second):
        for record in (report, *report["checks"]):
            record.pop("elapsed_seconds")
    assert first == second and first["passed"]


def test_oracle_memos_are_bounded_and_immutable():
    # at (4, 2) the x tables number one per lam |- 4 and split the 2^12
    # nilpotent matrices among them; the v tables, one per vector of a
    # normal form, are the orbit of 0 and 11 of the 15 nonzero vectors
    for memo in ORACLE_MEMOS:
        memo.cache_clear()
    assert run_suite("closure", 4, 2)["passed"]
    labels = enumerate_bipartitions(4)
    v_maps, x_maps = _conjugations(4, 2)
    x_starts = {_chains(b)[3] for b in labels}
    v_starts = {_chains(b)[2] for b in labels}
    assert (len(x_starts), len(v_starts)) == (5, 12)
    info = _orbit_of.cache_info()
    assert info.currsize == 17
    x_tables = [_orbit_of(x, x_maps) for x in x_starts]
    v_tables = [_orbit_of(v, v_maps) for v in v_starts]
    assert _orbit_of.cache_info().misses == info.misses
    x_points = [pt for points, _ in x_tables for pt in points]
    assert len(x_points) == len(set(x_points)) == 2 ** 12
    assert sorted(len(points) for points, _ in v_tables) == [1] + [15] * 11
    # a flag search reads the chains without changing them
    for p, alt in ((2, False), (3, True)):
        for b1 in labels:
            for b2 in labels:
                closure_oracle_flag(b1, b2, p, alt)
    for b in labels:
        assert _chains(b) == _chains.__wrapped__(b), b
    # the x pass tests, one per x table and label of b_big, each a byte per
    # point of its table: 2^12 bytes for each label
    assert _x_passes.cache_info().currsize == 5 * len(labels) == 100
    for b in labels:
        passes = [_x_passes(x, x_maps, b) for x in x_starts]
        assert all(type(ok) is bytes for ok in passes), b
        assert sum(map(len, passes)) == 2 ** 12, b
    assert _x_passes.cache_info().currsize == 100
    for value in (*x_tables, *v_tables, _conjugations(4, 2), _conjugations(4, 3),
                  *map(_chains, labels), *map(_rigid_blocks, labels),
                  *(_pattern_slots(m, r) for m in range(5) for r in range(m + 1))):
        assert type(value) is tuple and is_frozen(value), value


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

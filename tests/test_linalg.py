import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from nilcones.errors import (
    NonSplitSpectrum,
    NotNilpotent,
    WedgeViolation,
)
from nilcones.enhanced import _chain_preimage, _chains
from nilcones.fields import GF, QQ, _is_prime
from nilcones.linalg import (
    Mat,
    Vec,
    _cyclic_basis,
    _echelon,
    _echelon_insert,
    _free_column_basis,
    _partition_from_ranks,
    _rank_sequences,
    _residual,
    _sp_basis,
    _sp_kept_rows,
    _stabilizer_equations,
    charpoly,
    det,
    echelon_patterns,
    has_wedge_block_form,
    inverse,
    jordan_chevalley_split,
    jordan_type_nilpotent,
    limit_along_cocharacter,
    nullspace,
    random_gl,
    random_sp,
    rank,
    restricted_jordan_type,
    rref,
    stabilizer_dim_gl,
    stabilizer_dim_sp,
    stabilizer_system,
)
from nilcones.partitions import enumerate_bipartitions


def omega(field, n):
    """The symplectic form [[0, I], [-I, 0]] on k^{2n}."""
    return Mat(field, tuple(tuple((j == n + i) - (i == n + j) for j in range(2 * n))
                            for i in range(2 * n)))


def jordan_block(n, eigenvalue=0, field=QQ):
    rows = [[field.of(eigenvalue) if i == j else
             (field.one if j == i + 1 else field.zero)
             for j in range(n)] for i in range(n)]
    return Mat(field, tuple(tuple(r) for r in rows))


def test_rank_examples():
    assert rank(Mat.identity(QQ, 3)) == 3
    assert rank(Mat.zeros(QQ, 2, 5)) == 0
    assert rank(jordan_block(4)) == 3


def test_rank_with_denominators():
    m = Mat(QQ, ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(1, 1))))
    assert rank(m) == 2  # det = 1/2 - 1/15 != 0
    m2 = Mat(QQ, ((Fraction(1, 2), Fraction(1, 4)), (Fraction(2, 3), Fraction(1, 3))))
    assert rank(m2) == 1  # second row is 4/3 times the first


def test_rank_power_monotone():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = Mat(QQ, tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)))
        prev = n
        power = Mat.identity(QQ, n)
        for _ in range(n):
            power = power.mul(m)
            r = rank(power)
            assert r <= prev
            prev = r


RANK_FIELDS = (QQ, GF(2), GF(3), GF(7))


@st.composite
def rank_matrices(draw):
    """Non-square matrices over Q or F_p, some of whose rows are zero."""
    field = draw(st.sampled_from(RANK_FIELDS))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if field == QQ:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, field.p - 1)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows[i] = [0] * n
    return Mat(field, tuple(tuple(r) for r in rows))


@given(rank_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rank_matches_rref_and_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    r = rank(m)
    red, pivots = rref(m)
    assert r == len(pivots)
    if m.field == QQ:
        ref_m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                              for row in m.rows])
        ref = ref_m.rank()
        ref_red, ref_pivots = ref_m.rref()
        assert red.rows == tuple(tuple(Fraction(int(e.p), int(e.q)) for e in ref_red.row(i))
                                 for i in range(ref_red.rows))
        assert pivots == tuple(ref_pivots)
    else:
        p = m.field.p
        dom = sympy.GF(p)
        dm = DomainMatrix([[dom(e) for e in row] for row in m.rows], (m.nrows, m.ncols), dom)
        ref = dm.rank()
        ref_red, ref_pivots = dm.rref()
        assert red.rows == tuple(tuple(int(e) % p for e in row) for row in ref_red.to_list())
        assert pivots == tuple(ref_pivots)
    assert r == ref
    basis = nullspace(m)
    assert len(basis) == m.ncols - r
    for v in basis:
        assert m.mul_vec(v).is_zero()
    if basis:
        assert rank(Mat(m.field, tuple(v.entries for v in basis))) == len(basis)


def test_scalar_coercion_is_exact():
    f3 = GF(3)
    assert f3.of(Fraction(1, 2)) == 2  # 2 * 2 = 4 = 1 mod 3
    assert rank(Mat(f3, ((Fraction(1, 2),),))) == 1
    assert f3.of(Fraction(-4, 2)) == 1
    with pytest.raises(ValueError):
        f3.of(Fraction(1, 3))
    with pytest.raises(TypeError):
        QQ.of(0.1)
    with pytest.raises(TypeError):
        f3.of(2.7)
    # exact inputs keep working: ints, Fractions and rational text
    assert QQ.of("1/2") == Fraction(1, 2) and QQ.of(3) == 3
    assert f3.of(-1) == 2 and f3.of("1/2") == 2 and f3.of(True) == 1


def test_is_prime_miller_rabin():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(20000))
    # Carmichael numbers and strong pseudoprimes to the first bases
    for n in (561, 1105, 1729, 41041, 2047, 3215031751):
        assert not _is_prime(n)
    # a strong pseudoprime to every prime base up to 37, caught by base 41
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)
    assert GF(2 ** 61 - 1).of(-1) == 2 ** 61 - 2
    # past the bound where the thirteen bases are exact, p is refused
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            GF(n)


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Mat(QQ, ((1,),)).add(Mat(GF(3), ((1,),)))
    with pytest.raises(ValueError):
        Mat(GF(3), ((1,),)).mul_vec(Vec(GF(5), (1,)))


def test_jordan_type_examples():
    assert jordan_type_nilpotent(Mat.zeros(QQ, 3)) == (1, 1, 1)
    j22 = Mat.block_diag(QQ, (jordan_block(2), jordan_block(2)))
    assert jordan_type_nilpotent(j22) == (2, 2)
    with pytest.raises(NotNilpotent):
        jordan_type_nilpotent(Mat.identity(QQ, 2))


def test_jordan_type_of_column_construction():
    # the 13-dimensional nilpotent built from block sizes (3, 4, 4, 2)
    from nilcones.enhanced import InductionDatum, induction_representative
    from nilcones.partitions import Composition

    rep = induction_representative(InductionDatum.rigid(Composition((3, 4, 4, 2), k=2)))
    assert jordan_type_nilpotent(rep.x) == (4, 4, 3, 2)


def test_restricted_jordan_type_examples():
    assert restricted_jordan_type(Mat.zeros(QQ, 2), Vec.zero(QQ, 2)) == ((), (1, 1))
    assert restricted_jordan_type(jordan_block(2), Vec(QQ, (0, 1))) == ((2,), ())
    with pytest.raises(NotNilpotent):
        restricted_jordan_type(Mat.identity(QQ, 2), Vec.zero(QQ, 2))
    # a nonzero vector would never reach zero under the cyclic iteration
    with pytest.raises(NotNilpotent):
        restricted_jordan_type(Mat.identity(QQ, 2), Vec(QQ, (1, 0)))


def test_restricted_jordan_type_large_example():
    # chains (4, 4, 3, 2) with the vector summed along the first mu_i boxes:
    # the normal form moved by the unipotent 1 + x + x^2 + x^3
    from nilcones.enhanced import act, build_representative
    from nilcones.partitions import Bipartition

    b = Bipartition((2, 2, 2, 1), (2, 2, 1, 1))
    rep = build_representative(b)
    u = power = Mat.identity(QQ, 13)
    for _ in range(3):
        power = power.mul(rep.x)
        u = u.add(power)
    moved = act(u, rep)
    assert sum(moved.v.num) == sum(b.mu)
    assert restricted_jordan_type(moved.x, moved.v) == ((2, 2, 2, 1), (2, 2, 1, 1))


def test_restricted_jordan_type_size_invariant():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(10):
            # random nilpotent: strictly upper triangular, conjugated
            rows = [[QQ.of(rng.randint(-2, 2)) if j > i else QQ.zero
                     for j in range(n)] for i in range(n)]
            g = random_gl(n, rng)
            x = g.mul(Mat(QQ, tuple(tuple(r) for r in rows))).mul(inverse(g))
            v = Vec(QQ, tuple(rng.randint(-2, 2) for _ in range(n)))
            mu, nu = restricted_jordan_type(x, v)
            assert sum(mu) + sum(nu) == n


def full_power_rank_sequences(x, v):
    """The rank sequences by the route the image chain replaced: rank
    [x^i | W] - dim W from full powers x^i, for W = 0 and for W = k[x]v
    (its iterates through mul_vec)."""
    n = x.nrows

    def power_ranks(w):
        ranks = [n - len(w)]
        power = xt = x.transpose()
        while ranks[-1]:
            if len(ranks) > n:
                raise NotNilpotent("matrix is not nilpotent")
            if len(ranks) > 1:
                power = power.mul(xt)
            ranks.append(rank(Mat._of(x.field, power.num + w)) - len(w))
        return ranks

    lam = power_ranks(())
    cyclic, w = [], v
    while not w.is_zero():
        cyclic.append(w.num)
        w = x.mul_vec(w)
    return lam, power_ranks(tuple(cyclic))


def test_image_chain_matches_full_powers():
    # seeded nilpotent g u g^-1 (u strictly upper triangular) and
    # non-nilpotent matrices, n <= 8, each with several vectors; over F_p
    # the dense conjugates make row products exceed p, which the chain
    # must reduce before it eliminates
    rng = random.Random(18)
    raised = exceeded = 0
    for field in (QQ, GF(2), GF(3), GF(5), GF(7)):
        p = field.char
        entry = (lambda: rng.randint(-3, 3)) if not p else (lambda: rng.randrange(p))
        for n in range(1, 9):
            g = random_gl(n, rng) if not p else random_invertible_mod_p(n, p, rng)
            block = jordan_block(n, field=field)
            # J_(n-1) and the eigenvalue 1: the rank drops n - 1 times, then stays 1
            shifted = Mat(field, tuple(tuple(int(j == i + 1 < n - 1 or i == j == n - 1)
                                             for j in range(n)) for i in range(n)))
            matrices = [block, g.mul(block).mul(inverse(g)), g.mul(shifted).mul(inverse(g)),
                        Mat(field, tuple(tuple(entry() for _ in range(n)) for _ in range(n)))]
            for _ in range(3):
                u = Mat(field, tuple(tuple(entry() if j > i else 0 for j in range(n))
                                     for i in range(n)))
                matrices.append(g.mul(u).mul(inverse(g)))
            if not p:
                # a denominator: the chain runs on the int rows of 6 x
                matrices.append(matrices[-1].mul(Mat.scalar(field, n, Fraction(1, 6))))
            for x in matrices:
                exceeded += bool(p) and any(sum(a * b for a, b in zip(row, col)) >= p
                                            for row in x.num for col in zip(*x.num))
                vectors = [Vec.zero(field, n), Vec(field, (0,) * (n - 1) + (1,)),
                           Vec(field, (1,) + (0,) * (n - 1)),
                           Vec(field, tuple(entry() for _ in range(n))),
                           Vec(field, tuple(row[0] for row in x.rows))]
                for v in vectors:
                    # the eigenvalue 0 of multiplicity n, which holds iff x is nilpotent
                    got = partial(_rank_sequences, x.num, p, n, _cyclic_basis(x, v))
                    try:
                        want = full_power_rank_sequences(x, v)
                    except NotNilpotent:
                        with pytest.raises(NotNilpotent):
                            got()
                        with pytest.raises(NotNilpotent):
                            jordan_type_nilpotent(x)
                        raised += 1
                        continue
                    assert got() == want
                    lam, sigma = want
                    assert jordan_type_nilpotent(x) == _partition_from_ranks(lam)
                    # one Jordan block of size n with v = e_n: W is all of k^n
                    if x is block and v.num[-1] and not any(v.num[:-1]):
                        assert lam == list(range(n, -1, -1)) and sigma == [0]
    assert raised and exceeded


def test_stabilizer_dim_gl_examples():
    assert stabilizer_dim_gl(Vec.zero(QQ, 2), Mat.zeros(QQ, 2)) == 4
    v = Vec(QQ, (1, 1))
    x = Mat(QQ, ((1, 0), (0, 2)))
    assert stabilizer_dim_gl(v, x) == 0


def test_stabilizer_dim_gl_semisimple_blocks():
    # centralizer of a semisimple element has dimension sum of lam_i^2
    for lam, eigs in (((3, 2), (0, 1)), ((2, 2, 1), (1, 2, 3)), ((4,), (5,))):
        n = sum(lam)
        diag = [e for e, m in zip(eigs, lam) for _ in range(m)]
        x = Mat(QQ, tuple(tuple(QQ.of(diag[i]) if i == j else 0 for j in range(n))
                          for i in range(n)))
        assert stabilizer_dim_gl(Vec.zero(QQ, n), x) == sum(m * m for m in lam)


def test_stabilizer_dim_sp_examples():
    assert stabilizer_dim_sp(Vec.zero(QQ, 2), Mat.zeros(QQ, 2)) == 3
    from nilcones.enhanced import build_representative
    from nilcones.exotic import embed_phi
    from nilcones.partitions import Bipartition

    e1 = embed_phi(build_representative(Bipartition((1,), ())))
    assert stabilizer_dim_sp(e1.v, e1.x) == 1
    e2 = embed_phi(build_representative(Bipartition((), (2,))))
    assert stabilizer_dim_sp(e2.v, e2.x) == 6
    with pytest.raises(WedgeViolation):
        stabilizer_dim_sp(Vec.zero(QQ, 2), Mat(QQ, ((0, 1), (0, 0))))
    from nilcones.errors import CharTwo

    with pytest.raises(CharTwo):
        stabilizer_dim_sp(Vec.zero(GF(2), 2), Mat.zeros(GF(2), 2))


def gaussian_binomial(n, d, p):
    """The number of d-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (d - i) - 1
    return num // den


def test_subspace_enumeration():
    assert len(list(echelon_patterns(2, 1, 2))) == 3
    assert len(list(echelon_patterns(4, 2, 2))) == 35
    assert len(list(echelon_patterns(3, 0, 3))) == 1
    for p in (2, 3, 5):
        for n in range(6):
            for d in range(n + 1):
                spaces = list(echelon_patterns(n, d, p))
                assert len(spaces) == gaussian_binomial(n, d, p)
                assert len(set(spaces)) == len(spaces)
                if len(spaces) < 2000:
                    for s in spaces:
                        assert rank(Mat(GF(p), s)) == d


def preimage_two_step(x_cols, F, p):
    """{y : x y in span F} as the kernel of the constraint matrix whose
    columns are x e_j mod F: echelon the constraint, take its free-column
    basis, echelon that."""
    constraint = _echelon(zip(*(_residual(col, F, p) for col in x_cols)), p)
    return _echelon(_free_column_basis(constraint, len(x_cols), p), p)


def span_points(rows, n, p):
    """Every point of the span of rows, by all their combinations."""
    return {tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p for i in range(n))
            for coeffs in product(range(p), repeat=len(rows))}


def test_preimage_matches_two_step_route_and_brute_force():
    # the flag search's preimage, read off the chains of every normal form
    # with n <= 6: F drawn at random, F = 0, F = F_p^n, and F inside the
    # subspace that vanishes at the chain ends
    rng = random.Random(16)
    cases = brute = 0
    for p in (2, 3, 5):
        for n in range(1, 7):
            full = _echelon((tuple(int(i == j) for j in range(n)) for i in range(n)), p)
            for b in enumerate_bipartitions(n):
                x = _chains(b)[3]
                xrows = [x[i * n:(i + 1) * n] for i in range(n)]
                x_cols = list(zip(*xrows))
                starts = [full[j] for j in range(n) if not any(x_cols[j])]
                ends = [i for i in range(n) if not any(xrows[i])]
                inner = [j for j in range(n) if j not in ends]
                draws = [(), full]
                for _ in range(3):
                    draws.append(_echelon((tuple(rng.randrange(p) for _ in range(n))
                                           for _ in range(rng.randint(0, n))), p))
                    draws.append(_echelon((tuple(rng.randrange(p) if j in inner else 0
                                                 for j in range(n))
                                           for _ in range(rng.randint(1, n))), p))
                for F in draws:
                    T = _chain_preimage(F, starts, ends, p)
                    assert T == preimage_two_step(x_cols, F, p), (p, b, F)
                    assert all(not any(row[:piv]) and row[piv] == 1
                               and not any(row[q] for q, _ in T if q != piv)
                               for piv, row in T), (p, b, F)
                    cases += 1
                    if p ** n <= 729:
                        in_F = span_points([row for _, row in F], n, p)
                        expected = {y for y in product(range(p), repeat=n)
                                    if tuple(sum(map(mul, row, y)) % p for row in xrows) in in_F}
                        assert span_points([row for _, row in T], n, p) == expected
                        brute += 1
    assert (cases, brute) == (3312, 2504)


def sorted_echelon_insert(rows, vec, p):
    """_echelon_insert as it was before it placed the new row in its one
    pass: every row rebuilt by a generator, the new row always scaled, and
    the result sorted."""
    v = _residual(vec, rows, p)
    piv = next((j for j, a in enumerate(v) if a), None)
    if piv is None:
        return rows
    inv = pow(v[piv], p - 2, p)
    v = tuple(a * inv % p for a in v)
    out = []
    for pv, row in rows:
        c = row[piv]
        if c:
            row = tuple((a - c * b) % p for a, b in zip(row, v))
        out.append((pv, row))
    out.append((piv, v))
    out.sort()
    return tuple(out)


def test_echelon_insert_matches_the_sorting_version():
    # seeded insert sequences up to full rank: zero vectors, vectors in the
    # span (rows itself comes back), leads of 1 and leads other than 1
    rng = random.Random(24)
    counts = dict.fromkeys(("zero", "in_span", "lead_one", "lead_other", "full"), 0)
    for p in (2, 3, 5, 7):
        for n in range(1, 8):
            for _ in range(40):
                rows = ()
                while len(rows) < n:
                    kind = rng.randrange(4)
                    if kind == 0:
                        vec = [0] * n
                    elif kind == 1:
                        coeffs = [rng.randrange(p) for _ in rows]
                        vec = [sum(c * row[i] for c, (_, row) in zip(coeffs, rows)) % p
                               for i in range(n)]
                    else:
                        vec = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)]
                    new = _echelon_insert(rows, vec, p)
                    assert new == sorted_echelon_insert(rows, vec, p), (p, rows, vec)
                    assert all(type(row) is tuple for _, row in new)
                    if len(new) == len(rows):
                        assert new is rows
                        counts["zero" if not any(vec) else "in_span"] += 1
                    else:
                        lead = next(filter(None, _residual(vec, rows, p)))
                        counts["lead_one" if lead == 1 else "lead_other"] += 1
                    rows = new
                counts["full"] += 1
    assert min(counts.values()) > 200, counts


def test_charpoly_examples():
    assert charpoly(Mat(QQ, ((1, 0), (0, 2)))) == (-3, 2)
    assert charpoly(jordan_block(3)) == (0, 0, 0)
    quad = charpoly(Mat(QQ, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))))
    assert quad == (-6, 13, -12, 4)  # (t^2 - 3t + 2)^2


def test_charpoly_against_determinant_oracle():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = Mat(QQ, tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(n)) for _ in range(n)))
        coeffs = (QQ.one,) + charpoly(m)
        for s in range(n + 1):
            sf = QQ.of(s)
            direct = det(Mat.scalar(QQ, n, sf).sub(m))
            horner = QQ.zero
            for c in coeffs:
                horner = horner * sf + c
            assert horner == direct
    f5 = GF(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = Mat(f5, tuple(tuple(rng.randrange(5) for _ in range(n)) for _ in range(n)))
        coeffs = (f5.one,) + charpoly(m)
        for s in range(5):
            direct = det(Mat.scalar(f5, n, s).sub(m))
            horner = 0
            for c in coeffs:
                horner = (horner * s + c) % 5
            assert horner == direct


KERNEL_FIELDS = (QQ, GF(2), GF(3), GF(7))


def kernel_entries(field):
    """Scalars of the field; over Q with denominators up to 4."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return st.integers(0, field.p - 1)


def draw_matrix(draw, field, m, n):
    row = st.lists(kernel_entries(field), min_size=n, max_size=n)
    return Mat(field, tuple(tuple(draw(row)) for _ in range(m)))


@st.composite
def product_operands(draw):
    """(a, b, v) over one field with a.ncols == b.nrows == v.dim, sizes <= 6."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    v = Vec(field, tuple(draw(st.lists(kernel_entries(field), min_size=k, max_size=k))))
    return draw_matrix(draw, field, m, k), draw_matrix(draw, field, k, n), v


@st.composite
def square_matrices(draw, fields=KERNEL_FIELDS):
    """n x n matrices, n <= 6; some made singular by a repeated row sum."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 6))
    m = draw_matrix(draw, field, n, n)
    if n > 2 and draw(st.booleans()):
        rows = list(m.rows)
        rows[-1] = tuple(field.add(a, b) for a, b in zip(rows[0], rows[1]))
        m = Mat(field, tuple(rows))
    return m


def naive_product(a, b):
    """Rows of a b by the triple loop, in field arithmetic."""
    f = a.field
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = f.zero
            for k in range(a.ncols):
                acc = f.add(acc, f.mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def to_sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                         for row in m.rows])


@given(product_operands())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mul_matches_triple_loop(ops):
    a, b, v = ops
    assert a.mul(b).rows == naive_product(a, b)
    column = Mat(a.field, tuple((e,) for e in v.entries))
    assert a.mul_vec(v).entries == tuple(r[0] for r in naive_product(a, column))


@given(square_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_inverse_properties(m):
    f = m.field
    if det(m) == f.zero:
        with pytest.raises(ValueError):
            inverse(m)
        return
    inv = inverse(m)
    ident = Mat.identity(f, m.nrows).rows
    assert naive_product(m, inv) == ident
    assert naive_product(inv, m) == ident


@given(square_matrices(fields=(QQ,)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_inverse_matches_sympy(m):
    ref = to_sympy(m)
    if ref.det() == 0:
        with pytest.raises(ValueError):
            inverse(m)
        return
    assert to_sympy(inverse(m)) == ref.inv()


def test_inverse_singular_mod_p_only():
    # the integer determinant is -3: nonzero over Z, zero over F_3
    with pytest.raises(ValueError):
        inverse(Mat(GF(3), ((1, 2), (2, 1))))
    assert inverse(Mat(GF(5), ((1, 2), (2, 1)))).rows == ((3, 4), (4, 3))


@given(square_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_charpoly_matches_determinant_at_points(m):
    f, n = m.field, m.nrows
    coeffs = (f.one,) + charpoly(m)
    assert len(coeffs) == n + 1
    for s in range(n + 1):
        c = f.of(s)
        horner = f.zero
        for k in coeffs:
            horner = f.add(f.mul(horner, c), k)
        assert horner == det(Mat.scalar(f, n, c).sub(m))


def cofactor_det(f, rows):
    """Laplace expansion along the first row, in field arithmetic."""
    if not rows:
        return f.one
    total = f.zero
    for j, a in enumerate(rows[0]):
        if a != f.zero:
            term = f.mul(a, cofactor_det(f, tuple(row[:j] + row[j + 1:] for row in rows[1:])))
            total = f.sub(total, term) if j % 2 else f.add(total, term)
    return total


@given(square_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_det_matches_cofactor_expansion(m):
    assert det(m) == cofactor_det(m.field, m.rows)


@st.composite
def nilpotent_matrices(draw):
    """g u g^-1 for a strictly upper-triangular u with many zeros, n <= 5."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), kernel_entries(field))
    u = Mat(field, tuple(tuple(draw(entry) if j > i else 0 for j in range(n))
                         for i in range(n)))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    g = random_gl(n, rng) if field == QQ else random_invertible_mod_p(n, field.p, rng)
    return g.mul(u).mul(inverse(g))


@given(nilpotent_matrices())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_jordan_type_matches_rank_sequence_and_sympy(x):
    n = x.nrows
    lam = jordan_type_nilpotent(x)
    assert sum(lam) == n and min(lam) > 0 and list(lam) == sorted(lam, reverse=True)
    # rank x^i = sum_j max(lam_j - i, 0): i boxes drop off each Jordan chain
    power = Mat.identity(x.field, n)
    for i in range(n + 1):
        assert rank(power) == sum(max(part - i, 0) for part in lam)
        power = power.mul(x)
    if x.field == QQ:
        _, jordan = to_sympy(x).jordan_form()
        sizes, run = [], 1
        for i in range(n - 1):
            if jordan[i, i + 1] == 0:
                sizes.append(run)
                run = 1
            else:
                run += 1
        assert tuple(sorted(sizes + [run], reverse=True)) == lam


@given(square_matrices(fields=(QQ,)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_charpoly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    ref = to_sympy(m).charpoly(sympy.Symbol("t")).all_coeffs()
    assert [sympy.Rational(c.numerator, c.denominator) for c in charpoly(m)] == ref[1:]


def test_nullspace_and_inverse():
    m = Mat(QQ, ((1, 2, 3), (2, 4, 6)))
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert m.mul_vec(v).is_zero()
    g = Mat(QQ, ((1, 2), (3, 5)))
    assert g.mul(inverse(g)).rows == Mat.identity(QQ, 2).rows
    with pytest.raises(ValueError):
        inverse(Mat.zeros(QQ, 2))


@st.composite
def split_matrices(draw):
    n = draw(st.integers(1, 4))
    eigs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    strict = [[draw(st.integers(-1, 1)) if j > i and eigs[i] == eigs[j] else 0
               for j in range(n)] for i in range(n)]
    seed = draw(st.integers(0, 10 ** 6))
    rows = [[QQ.of(eigs[i]) if i == j else QQ.of(strict[i][j]) for j in range(n)]
            for i in range(n)]
    base = Mat(QQ, tuple(tuple(r) for r in rows))
    g = random_gl(n, random.Random(seed))
    diag = Mat(QQ, tuple(tuple(QQ.of(eigs[i]) if i == j else 0 for j in range(n))
                         for i in range(n)))
    return g.mul(base).mul(inverse(g)), g.mul(diag).mul(inverse(g))


@given(split_matrices())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_jordan_chevalley_reassembly(data):
    x, expected_semisimple = data
    xs, xn = jordan_chevalley_split(x)
    assert xs.add(xn).rows == x.rows
    assert xs.mul(xn).rows == xn.mul(xs).rows
    power = Mat.identity(QQ, x.nrows)
    for _ in range(x.nrows):
        power = power.mul(xn)
    assert power.is_zero()
    # the semisimple part is unique, hence equals the conjugated diagonal
    assert xs.rows == expected_semisimple.rows


def test_jordan_chevalley_examples():
    xs, xn = jordan_chevalley_split(jordan_block(3))
    assert xs.is_zero() and xn.rows == jordan_block(3).rows
    d = Mat(QQ, ((1, 0), (0, 2)))
    xs, xn = jordan_chevalley_split(d)
    assert xn.is_zero() and xs.rows == d.rows
    # [[a, 1], [0, b]] with a != b is already semisimple
    m = Mat(QQ, ((1, 1), (0, 2)))
    xs, xn = jordan_chevalley_split(m)
    assert xn.is_zero() and xs.rows == m.rows


def test_jordan_chevalley_non_split_and_prime_field():
    with pytest.raises(NonSplitSpectrum) as info:
        jordan_chevalley_split(Mat(QQ, ((0, -1), (1, 0))))
    assert len(info.value.factor) == 3  # monic quadratic t^2 + 1
    # the same matrix splits over F_5 (roots 2 and 3)
    f5 = GF(5)
    xs, xn = jordan_chevalley_split(Mat(f5, ((0, -1), (1, 0))))
    assert xn.is_zero()
    assert sorted(charpoly(xs)) == sorted(charpoly(Mat(f5, ((0, -1), (1, 0)))))


def test_limit_along_cocharacter_examples():
    v = Vec(QQ, (1, 1))
    x = Mat(QQ, ((0, 1), (0, 0)))
    lim = limit_along_cocharacter((2, 1), v, x)
    assert lim is not None
    assert lim[0].is_zero() and lim[1].is_zero()
    same = limit_along_cocharacter((0, 0), v, x)
    assert same == (v, x)
    assert limit_along_cocharacter((-1,), Vec(QQ, (1,)), Mat.zeros(QQ, 1)) is None


def test_random_group_elements_are_exact():
    rng = random.Random(3)
    for n in (1, 2, 3):
        g = random_gl(n, rng)
        assert det(g) in (QQ.one, QQ.of(-1))
        s = random_sp(n, rng)
        om = omega(QQ, n)
        assert s.transpose().mul(om).mul(s).rows == om.rows


def random_invertible_mod_p(n, p, rng):
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if det(Mat(GF(p), rows)) != GF(p).zero:
            return Mat(GF(p), rows)


def test_identification_constant_on_orbits_over_prime_fields():
    from nilcones.enhanced import act, build_representative, identify_orbit
    from nilcones.partitions import enumerate_bipartitions

    rng = random.Random(77)
    for p in (2, 3, 5):
        f = GF(p)
        for n in (1, 2, 3, 4):
            for b in enumerate_bipartitions(n):
                rep = build_representative(b, field=f)
                for _ in range(2):
                    g = random_invertible_mod_p(n, p, rng)
                    assert identify_orbit(act(g, rep)) == b


def test_jordan_chevalley_prime_field_repeated_eigenvalues():
    f = GF(5)
    rng = random.Random(78)
    for _ in range(30):
        n = rng.randint(2, 4)
        eigs = sorted(rng.randrange(5) for _ in range(n))
        rows = [[f.of(eigs[i]) if i == j
                 else (f.of(rng.randrange(2)) if j > i and eigs[i] == eigs[j] else 0)
                 for j in range(n)] for i in range(n)]
        base = Mat(f, tuple(tuple(r) for r in rows))
        diag = Mat(f, tuple(tuple(f.of(eigs[i]) if i == j else 0 for j in range(n))
                            for i in range(n)))
        g = random_invertible_mod_p(n, 5, rng)
        x = g.mul(base).mul(inverse(g))
        xs, xn = jordan_chevalley_split(x)
        assert xs.rows == g.mul(diag).mul(inverse(g)).rows
        assert xs.mul(xn).rows == xn.mul(xs).rows
        power = Mat.identity(f, n)
        for _ in range(n):
            power = power.mul(xn)
        assert power.is_zero()


def differential_rows(rng, field, m, n):
    """An m x n int or Fraction matrix with zero rows, dependent rows, free
    columns left of pivots and denominators over Q."""
    if field == QQ:
        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    else:
        def entry():
            return rng.randint(-field.p, 2 * field.p)
    rows = [[entry() if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, 2) if m else 0):
        i, j = rng.randrange(m), rng.randrange(n)
        kind, c = rng.randrange(3), rng.randint(-2, 2)
        if kind == 0:
            rows[i] = [0] * n
        elif kind == 1 and i:  # a combination of two earlier rows
            a, b = rows[rng.randrange(i)], rows[rng.randrange(i)]
            rows[i] = [x + c * y for x, y in zip(a, b)]
        elif kind == 2 and j:  # a multiple of an earlier column: a free column
            k = rng.randrange(j)
            for row in rows:
                row[j] = c * row[k]
    return rows


def test_kernels_match_baseline_gauss_jordan(baseline):
    base, bf = baseline.linalg, baseline.fields
    fields = ((QQ, bf.QQ), (GF(2), bf.GF(2)), (GF(3), bf.GF(3)), (GF(7), bf.GF(7)))
    rng = random.Random(2024)
    shapes = [(0, 0)] + [(m, n) for m in range(1, 10) for n in range(1, 10)]
    inverted = singular = 0
    for field, bfield in fields:
        for m, n in shapes:
            for _ in range(3 if m != n else 12):
                rows = differential_rows(rng, field, m, n)
                ours = Mat(field, tuple(map(tuple, rows)))
                ref = base.Mat(bfield, tuple(map(tuple, rows)))
                assert rank(ours) == base.rank(ref)
                red, pivots = rref(ours)
                ref_red, ref_pivots = base.rref(ref)
                assert (red.rows, pivots) == (ref_red.rows, ref_pivots)
                assert ([v.entries for v in nullspace(ours)]
                        == [v.entries for v in base.nullspace(ref)])
                if m != n:
                    continue
                try:
                    expected = base.inverse(ref).rows
                except ValueError:
                    with pytest.raises(ValueError):
                        inverse(ours)
                    singular += 1
                    continue
                assert inverse(ours).rows == expected
                inverted += 1
    # both branches of inverse are exercised on every run
    assert inverted > 100 and singular > 100


def seeded_rows(rng, field, m, n, zeros=0.3):
    """An m x n matrix as rows of ints or Fractions: over Q with
    denominators up to 7, over F_p ints off by multiples of p, some zero."""
    if field == QQ:
        def entry():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    else:
        def entry():
            return rng.randint(-field.p, 2 * field.p)
    return tuple(tuple(entry() if rng.random() >= zeros else 0 for _ in range(n))
                 for _ in range(m))


def wedge_rows(rng, field, n):
    """Rows of [[A, B], [C, tA]] with B, C skew, one entry spoilt at times."""
    a = seeded_rows(rng, field, n, n)
    skew = []
    for _ in range(2):
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                s[i][j] = field.of(seeded_rows(rng, field, 1, 1)[0][0])
                s[j][i] = field.neg(s[i][j])
        skew.append(s)
    rows = [list(a[i]) + skew[0][i] for i in range(n)]
    rows += [skew[1][i] + [a[j][i] for j in range(n)] for i in range(n)]
    if rng.random() < 0.4:
        i, j = rng.randrange(2 * n), rng.randrange(2 * n)
        rows[i][j] = field.add(field.of(rows[i][j]), field.one)
    return tuple(map(tuple, rows))


def test_mat_ops_match_baseline(baseline):
    base, bf = baseline.linalg, baseline.fields
    fields = ((QQ, bf.QQ), (GF(2), bf.GF(2)), (GF(3), bf.GF(3)), (GF(7), bf.GF(7)))
    rng = random.Random(2026)
    inverted = singular = wedges = 0
    for field, bfield in fields:
        for _ in range(120):
            m, k, n = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
            ra, rb = seeded_rows(rng, field, m, k), seeded_rows(rng, field, m, k)
            rc, rv = seeded_rows(rng, field, k, n), seeded_rows(rng, field, 1, k)[0]
            a, b, c = (Mat(field, r) for r in (ra, rb, rc))
            ba, bb, bc = (base.Mat(bfield, r) for r in (ra, rb, rc))
            assert a.add(b).rows == ba.add(bb).rows
            assert a.sub(b).rows == ba.sub(bb).rows
            assert a.transpose().rows == ba.transpose().rows
            assert a.mul(c).rows == ba.mul(bc).rows
            assert a.mul_vec(Vec(field, rv)).entries == ba.mul_vec(base.Vec(bfield, rv)).entries
            s = seeded_rows(rng, field, 1, 1, zeros=0.1)[0][0]
            assert Mat.scalar(field, n, s).rows == base.Mat.scalar(bfield, n, s).rows
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            blocks = [seeded_rows(rng, field, d, d) for d in sizes]
            assert (Mat.block_diag(field, [Mat(field, r) for r in blocks]).rows
                    == base.Mat.block_diag(bfield, [base.Mat(bfield, r) for r in blocks]).rows)
            w = wedge_rows(rng, field, rng.randint(1, 4))
            ours = has_wedge_block_form(Mat(field, w))
            assert ours == base.has_wedge_block_form(base.Mat(bfield, w))
            wedges += ours
            rs = seeded_rows(rng, field, n, n)
            if n > 2 and rng.random() < 0.3:  # a row sum: singular over every field
                rs = rs[:-1] + (tuple(x + y for x, y in zip(rs[0], rs[1])),)
            sq, bsq = Mat(field, rs), base.Mat(bfield, rs)
            assert charpoly(sq) == base.charpoly(bsq)
            try:
                expected = base.inverse(bsq).rows
            except ValueError:
                with pytest.raises(ValueError):
                    inverse(sq)
                singular += 1
                continue
            assert inverse(sq).rows == expected
            inverted += 1
    assert inverted > 100 and singular > 50 and wedges > 50


def test_random_group_elements_match_baseline(baseline):
    base = baseline.linalg
    for n in range(1, 7):
        for s in range(50):
            assert random_gl(n, random.Random(s)).rows == base.random_gl(n, random.Random(s)).rows
            assert random_sp(n, random.Random(s)).rows == base.random_sp(n, random.Random(s)).rows


def entrywise_stabilizer_system(v, x):
    """The gl_n stabilizer system by the route the basis builder replaced:
    one row per equation of Av = 0 and Ax = xA, written on the n*n entries
    of A."""
    n = x.nrows
    a, dv, dx = x.num, v.den, x.den
    eqs = []
    for i in range(n):
        row = [0] * (n * n)
        row[i * n:(i + 1) * n] = (dx * e for e in v.num)
        eqs.append(row)
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] += dv * a[k][j]
                row[k * n + j] -= dv * a[i][k]
            eqs.append(row)
    return Mat._of(x.field, eqs, dv * dx)


def appended_omega_stabilizer_dim_sp(v, x):
    """dim of the sp_2n stabilizer by the route the sp_2n coordinates
    replaced: the gl_2n system on 4n^2 unknowns with the 4n^2 equations
    tA.Omega + Omega.A = 0 appended."""
    d = x.nrows
    om = omega(x.field, d // 2).num
    eqs = []
    for i in range(d):
        for j in range(d):
            row = [0] * (d * d)
            for k in range(d):
                row[k * d + i] += om[k][j]
                row[k * d + j] += om[i][k]
            eqs.append(row)
    return d * d - rank(Mat._of(x.field, entrywise_stabilizer_system(v, x).num + tuple(eqs)))


def test_stabilizer_builder_matches_appended_omega_and_baseline(baseline):
    # the sp_2n stabilizer on its 2n^2 + n coordinates against the gl_2n
    # system with Omega appended and against the pinned baseline's Gauss-
    # Jordan on field scalars: the embedded orbit and class representatives
    # for n <= 3, then seeded wedge elements (a Fraction entry over Q, ints
    # off by multiples of p over F_p), each with v zero and v nonzero
    from nilcones.enhanced import build_representative
    from nilcones.exotic import embed_phi
    from nilcones.jordan_classes import build_class_representative, enumerate_classes
    from nilcones.partitions import enumerate_bipartitions

    base, bf = baseline.linalg, baseline.fields
    bfields = {QQ: bf.QQ, GF(3): bf.GF(3), GF(5): bf.GF(5), GF(7): bf.GF(7)}
    pairs = []
    for n in range(1, 4):
        reps = [build_representative(b) for b in enumerate_bipartitions(n)]
        reps += [build_class_representative(c) for c in enumerate_classes(n)]
        pairs += [(e.v, e.x) for e in map(embed_phi, reps)]
    rng = random.Random(19)
    refused = 0
    for field in bfields:
        for _ in range(40):
            n = rng.randint(1, 3)
            x = Mat(field, wedge_rows(rng, field, n))
            if not has_wedge_block_form(x):
                with pytest.raises(WedgeViolation):
                    stabilizer_dim_sp(Vec.zero(field, 2 * n), x)
                refused += 1
                continue
            basis = _sp_basis(n)
            for v in (Vec.zero(field, 2 * n),
                      Vec(field, seeded_rows(rng, field, 1, 2 * n, zeros=0.2)[0])):
                # the kept rows span the whole system's equations
                assert (rank(_stabilizer_equations(v, x, basis, _sp_kept_rows(n)))
                        == rank(_stabilizer_equations(v, x, basis)))
                pairs.append((v, x))
    nonzero = 0
    for v, x in pairs:
        want = base.stabilizer_dim_sp(base.Vec(bfields[x.field], v.entries),
                                      base.Mat(bfields[x.field], x.rows))
        assert stabilizer_dim_sp(v, x) == appended_omega_stabilizer_dim_sp(v, x) == want
        nonzero += not v.is_zero()
    assert refused > 10 and nonzero > 100 and any(x.den > 1 for _, x in pairs)
    # the gl_n system on the elementary basis is the entrywise one
    for field in bfields:
        for _ in range(50):
            n = rng.randint(1, 5)
            v = Vec(field, seeded_rows(rng, field, 1, n)[0])
            x = Mat(field, seeded_rows(rng, field, n, n))
            assert stabilizer_system(v, x) == entrywise_stabilizer_system(v, x)


def test_group_elements_carry_their_exact_inverse():
    # each carried inverse is a two-sided inverse and equals the one Bareiss
    # finds for a fresh copy of the matrix, which carries none
    from nilcones.exotic import embed_gl_in_sp

    f7 = GF(7)
    for n in range(1, 7):
        for s in range(50):
            g = random_gl(n, random.Random(s))
            for m in (g, random_sp(n, random.Random(s)), embed_gl_in_sp(g),
                      embed_gl_in_sp(Mat(f7, g.rows))):
                fresh = Mat._of(m.field, m.num, m.den)
                assert m._inverse is not None and fresh._inverse is None
                one = Mat.identity(m.field, m.nrows)
                assert m.mul(inverse(m)) == inverse(m).mul(m) == one
                assert inverse(m) == inverse(fresh)
    assert random_sp(2, random.Random(0), steps=0) == Mat.identity(QQ, 4)


def test_carried_inverse_is_not_part_of_the_value():
    for s in range(20):
        m = random_sp(3, random.Random(s))
        fresh = Mat._of(m.field, m.num, m.den)
        assert m._inverse is not None
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert {fresh: s}[m] == s


def product_form_random_gl(n, rng):
    """random_gl as it was before its draws had their own function."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    t = [row[:] for row in rows]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        t[i] = [a - c * b for a, b in zip(t[i], t[j])]
    if rng.random() < 0.5 and n:
        k = rng.randrange(n)
        rows[k] = [-e for e in rows[k]]
        t[k] = [-e for e in t[k]]
    return Mat._of(QQ, rows), Mat._of(QQ, zip(*t))


def product_form_random_sp(n, rng, steps=3):
    """random_sp as it was before it applied its factors to the columns: the
    product of the 2n x 2n factors, and the inverse read off its transpose."""
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [[0] * n] * n
    total = None
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            g, g_inv = product_form_random_gl(n, rng)
            p, q, r, s = g.num, zero, zero, g_inv.transpose().num
        else:
            b = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    b[i][j] = b[j][i] = rng.randint(-2, 2)
            p, q, r, s = (one, b, zero, one) if kind == 1 else (one, zero, b, one)
        elem = Mat._of(QQ, [[*p[i], *q[i]] for i in range(n)] + [[*r[i], *s[i]] for i in range(n)])
        total = elem if total is None else total.mul(elem)
    if total is None:
        return Mat.identity(QQ, 2 * n), Mat.identity(QQ, 2 * n)
    cols = tuple(zip(*total.num))  # the rows of ts
    inv = [(*cols[n + i][n:], *(-e for e in cols[n + i][:n])) for i in range(n)]
    inv += [(*(-e for e in cols[i][n:]), *cols[i][:n]) for i in range(n)]
    return total, Mat._of(QQ, inv, total.den)


def test_column_updates_match_the_product_form():
    # the same draws in the same order, so the same s and s^-1 and the same
    # generator state after each call
    for n in range(7):
        for seed in range(300):
            ours, ref = random.Random(seed), random.Random(seed)
            g, (h, h_inv) = random_gl(n, ours), product_form_random_gl(n, ref)
            assert (g.num, g.den, inverse(g).num, inverse(g).den) == (
                h.num, h.den, h_inv.num, h_inv.den)
            assert ours.getstate() == ref.getstate()
            for steps in range(4):
                s, (t, t_inv) = random_sp(n, ours, steps), product_form_random_sp(n, ref, steps)
                assert (s.num, s.den, inverse(s).num, inverse(s).den) == (
                    t.num, t.den, t_inv.num, t_inv.den), (n, seed, steps)
                assert ours.getstate() == ref.getstate()


@st.composite
def spelled_matrices(draw):
    """(values, respelled, other): the rows of a matrix over Q or F_p, the
    same values spelled otherwise (text, unreduced fractions and ints over
    Q; ints off by multiples of p, negative ones too, over F_p), and
    another matrix of that shape."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    values = tuple(tuple(draw(kernel_entries(field)) for _ in range(n)) for _ in range(m))

    def respell(e):
        if field == QQ:
            k = draw(st.integers(1, 3))
            spellings = [f"{e.numerator * k}/{e.denominator * k}", Fraction(e)]
            if e.denominator == 1:
                spellings.append(e.numerator)
            return draw(st.sampled_from(spellings))
        return e + draw(st.integers(-3, 3)) * field.p

    respelled = tuple(tuple(respell(e) for e in row) for row in values)
    other = tuple(tuple(draw(kernel_entries(field)) for _ in range(n)) for _ in range(m))
    return field, values, respelled, other


def assert_normalised(obj):
    flat = [e for row in obj.num for e in row] if isinstance(obj, Mat) else list(obj.num)
    assert obj.den > 0
    if obj.field == QQ:
        assert gcd(obj.den, *flat) == 1
    else:
        assert obj.den == 1 and all(0 <= e < obj.field.p for e in flat)


@given(spelled_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_normalised_representation(data):
    field, values, respelled, other = data
    a, b, c = Mat(field, values), Mat(field, respelled), Mat(field, other)
    # equality and hash agree with entry-by-entry equality
    assert a == b and hash(a) == hash(b) and a.rows == b.rows
    assert (a == c) == (a.rows == c.rows)
    if values:
        va, vb = Vec(field, values[0]), Vec(field, respelled[0])
        assert va == vb and hash(va) == hash(vb) and va.entries == vb.entries
        assert (va == Vec(field, other[0])) == (va.entries == other[0])
        assert_normalised(va)
        assert_normalised(a.mul_vec(va))
    k = a.ncols
    if field.char != 2:
        assert a.mul(Mat.scalar(field, k, Fraction(-1, 2))).mul(Mat.scalar(field, k, -2)) == a
    prod = a.mul(c.transpose())
    built = Mat(field, naive_product(a, c.transpose()))
    assert prod == built and hash(prod) == hash(built)
    for m in (a, b, prod, a.sub(b), a.add(c), a.mul(Mat.scalar(field, k, 3)), a.transpose()):
        assert_normalised(m)
    # the same entries over another field are another matrix
    ints = tuple(tuple(e.numerator for e in row) for row in values) if field == QQ else values
    assert Mat(QQ, ints) != Mat(GF(7), ints) and Mat(GF(3), ints) != Mat(GF(7), ints)


# ---------------------------------------------------------------------------
# the integer root finder against the pinned baseline's Fraction one
# ---------------------------------------------------------------------------


@st.composite
def spectrum_matrices(draw):
    """A conjugated upper-triangular matrix over Q or F_p whose diagonal
    repeats eigenvalues and holds zeros (with denominators over Q), with an
    irreducible quadratic block t^2 + c appended when drawn."""
    field = draw(st.sampled_from((QQ, QQ, GF(3), GF(7))))
    n = draw(st.integers(1, 5))
    if field == QQ:
        value = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        value = st.integers(0, field.p - 1)
    eigs = draw(st.lists(st.sampled_from(draw(st.lists(value, min_size=1, max_size=3))),
                         min_size=n, max_size=n))
    rows = [[eigs[i] if i == j else (draw(value) if j > i else 0) for j in range(n)]
            for i in range(n)]
    c = draw(st.sampled_from((None, 1, 2, 3)))
    if c is not None:
        # over F_p t^2 + c may split; that case is compared all the same
        rows = [row + [0, 0] for row in rows] + [[0] * n + [0, -c], [0] * n + [1, 0]]
    m = Mat(field, rows)
    g = random_gl(m.nrows, random.Random(draw(st.integers(0, 2 ** 16))))
    if field != QQ:
        g = Mat(field, g.rows)
    return g.mul(m).mul(inverse(g))


def baseline_spectrum(baseline, eig_fn, x):
    """eig_fn on x rebuilt over the baseline's field: the sorted roots, or
    ('non-split', residual factor)."""
    field = baseline.QQ if x.field == QQ else baseline.GF(x.field.p)
    try:
        return eig_fn(baseline.Mat(field, x.rows))
    except baseline.errors.NonSplitSpectrum as exc:
        return "non-split", exc.factor


@given(spectrum_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_eigenvalues_match_baseline(baseline, x):
    from nilcones.linalg import eigenvalues_with_multiplicity

    want = baseline_spectrum(baseline, baseline.linalg.eigenvalues_with_multiplicity, x)
    try:
        got = eigenvalues_with_multiplicity(x)
    except NonSplitSpectrum as exc:
        got = "non-split", exc.factor
    assert got == want


@given(st.sampled_from((0, 3, 7)), st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)),
                                            max_size=5),
       st.sampled_from(((), (1, 0, 1), (1, 1, 1), (2, 0, -3))))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_root_finder_matches_baseline_on_polynomials(baseline, p, factors, tail):
    # prod (b t - a) times a factor without rational roots, as int
    # coefficients highest first, against the baseline on the monic form
    from nilcones.linalg import _roots_with_multiplicity

    poly = list(tail) or [1]
    for a, b in factors:
        poly = [u * b - v * a for u, v in zip(poly + [0], [0] + poly)]
    if p:
        poly = [c % p for c in poly]
        if not poly[0]:
            return
        lead = pow(poly[0], -1, p)
        poly = [c * lead % p for c in poly]
        field = baseline.GF(p)
    else:
        field = baseline.QQ
    monic = [Fraction(c, poly[0]) if not p else c for c in poly]
    roots, residual = _roots_with_multiplicity(p, poly)
    want_roots, want_residual = baseline.linalg._roots_with_multiplicity(field, monic)
    # the candidates are tried in another order; the roots are the same
    assert sorted(roots) == sorted(want_roots)
    assert residual == want_residual

import random

import pytest

from nilcones.errors import CharTwo, RepeatedEigenvalue, SizeMismatch, WedgeViolation
from nilcones.fields import GF, QQ
from nilcones.linalg import (
    Mat,
    Vec,
    has_wedge_block_form,
    inverse,
    omega_matrix,
    random_gl,
    random_sp,
    stabilizer_dim_sp,
)
from nilcones.partitions import Bipartition, double, enumerate_bipartitions
from nilcones.enhanced import build_representative, identify_orbit, orbit_dim
from nilcones.exotic import (
    ExoticElement,
    build_semisimple_exotic,
    embed_gl_in_sp,
    embed_phi,
    embed_psi,
    exotic_orbit_dim,
    identify_exotic_orbit,
)

B = Bipartition


def remark_quadric_matrix(a, b, c, e, f, field=QQ):
    """The five-parameter family of trace-zero self-adjoint 4x4 matrices."""
    a, b, c, e, f = (field.of(t) for t in (a, b, c, e, f))
    z = field.zero
    return Mat(field, (
        (a, b, z, e),
        (c, field.neg(a), field.neg(e), z),
        (z, f, a, c),
        (field.neg(f), z, b, field.neg(a)),
    ))


def in_sp(a):
    """Membership in sp_2n, from its definition tA.Omega + Omega.A = 0."""
    omega = omega_matrix(a.field, a.nrows // 2)
    return a.transpose().mul(omega).add(omega.mul(a)).is_zero()


def test_is_wedge_element():
    assert has_wedge_block_form(Mat.zeros(QQ, 4))
    d = Mat(QQ, tuple(tuple({0: 1, 1: 2, 2: 1, 3: 2}[i] if i == j else 0
                            for j in range(4)) for i in range(4)))
    assert has_wedge_block_form(d)
    assert has_wedge_block_form(remark_quadric_matrix(1, 2, 3, 5, 7))
    assert not has_wedge_block_form(Mat(QQ, ((0, 1, 0, 0), (0, 0, 0, 0),
                                             (0, 0, 0, 0), (0, 0, 0, 0))))


def test_is_sp_element():
    assert in_sp(Mat.zeros(QQ, 4))
    a = Mat(QQ, ((1, 2), (3, 4)))
    levi = Mat.block_diag(QQ, (a, Mat.zeros(QQ, 2).sub(a.transpose())))
    assert in_sp(levi)
    assert not in_sp(remark_quadric_matrix(1, 2, 3, 5, 7))
    # [[A, B], [C, -tA]] with B, C symmetric spans sp_2n, and conjugation by
    # an element of Sp_2n keeps it there
    rng = random.Random(2)
    for n in (1, 2, 3):
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b, c = ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(2))
        b = [[b[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        c = [[c[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        x = Mat(QQ, [a[i] + b[i] for i in range(n)]
                + [c[i] + [-a[j][i] for j in range(n)] for i in range(n)])
        assert in_sp(x) and not x.is_zero()
        for s in (random_sp(n, rng), embed_gl_in_sp(random_gl(n, rng))):
            assert in_sp(s.mul(x).mul(inverse(s)))


def test_embed_phi_examples():
    z = embed_phi(build_representative(B((), (1,))))
    assert z.v.is_zero() and z.x.is_zero()
    one = embed_phi(build_representative(B((1,), ())))
    assert one.v.entries == (QQ.one, QQ.zero) and one.x.is_zero()
    from nilcones.enhanced import EnhancedElement

    d = EnhancedElement(2, Vec.zero(QQ, 2), Mat(QQ, ((1, 0), (0, 2))))
    img = embed_phi(d)
    assert img.x.rows == Mat(QQ, ((1, 0, 0, 0), (0, 2, 0, 0),
                                  (0, 0, 1, 0), (0, 0, 0, 2))).rows
    with pytest.raises(CharTwo):
        embed_phi(build_representative(B((1,), ()), field=GF(2)))


def test_embed_phi_equivariance():
    rng = random.Random(9)
    from nilcones.enhanced import act

    for n in (1, 2, 3):
        for b in enumerate_bipartitions(n):
            e = build_representative(b)
            g = random_gl(n, rng)
            s = embed_gl_in_sp(g)
            left = embed_phi(act(g, e))
            right_v = s.mul_vec(embed_phi(e).v)
            right_x = s.mul(embed_phi(e).x).mul(inverse(s))
            assert left.v.entries == right_v.entries
            assert left.x.rows == right_x.rows


def test_embed_psi():
    for n in (1, 2, 3):
        for b in enumerate_bipartitions(n):
            e = build_representative(b)
            big = embed_psi(embed_phi(e))
            assert big.n == 2 * n
            assert identify_orbit(big) == double(b)
    quad = ExoticElement(2, Vec.zero(QQ, 4), remark_quadric_matrix(0, 1, 0, 0, 0))
    assert identify_orbit(embed_psi(quad)) == B((), (2, 2))


def test_exotic_orbit_dim():
    assert exotic_orbit_dim(B((), (2,))) == 4
    assert exotic_orbit_dim(B((), (1, 1, 1))) == 0
    assert exotic_orbit_dim(B((2, 2, 2, 1), (2, 2, 1, 1))) == 262
    for n in range(5):
        for b in enumerate_bipartitions(n):
            assert exotic_orbit_dim(b) == 2 * orbit_dim(b)


def test_identify_exotic_orbit():
    zero = ExoticElement(3, Vec.zero(QQ, 6), Mat.zeros(QQ, 6))
    assert identify_exotic_orbit(zero) == B((), (1, 1, 1))
    for n in range(1, 5):
        for b in enumerate_bipartitions(n):
            assert identify_exotic_orbit(embed_phi(build_representative(b))) == b
    quad = ExoticElement(2, Vec.zero(QQ, 4), remark_quadric_matrix(0, 1, 0, 0, 0))
    assert identify_exotic_orbit(quad) == B((), (2,))


def test_dimension_doubling_oracle_small():
    for n in (1, 2, 3):
        dim_sp = 2 * n * n + n
        for b in enumerate_bipartitions(n):
            exo = embed_phi(build_representative(b))
            assert dim_sp - stabilizer_dim_sp(exo.v, exo.x) == exotic_orbit_dim(b), b


def test_build_semisimple_exotic():
    e = build_semisimple_exotic((3,), (0,))
    assert e.x.is_zero() and e.v.is_zero()
    e = build_semisimple_exotic((1, 1), (1, 2))
    assert stabilizer_dim_sp(e.v, e.x) == 6
    e = build_semisimple_exotic((2,), (5,))
    assert e.x.rows == Mat.scalar(QQ, 4, 5).rows
    assert stabilizer_dim_sp(e.v, e.x) == 10
    with pytest.raises(RepeatedEigenvalue):
        build_semisimple_exotic((1, 1), (3, 3))
    with pytest.raises(SizeMismatch):
        build_semisimple_exotic((1, 1), (1,))
    with pytest.raises(CharTwo):
        build_semisimple_exotic((1,), (1,), field=GF(2))


def test_semisimple_powers_stay_wedge():
    e = build_semisimple_exotic((2, 1), (1, 2))
    power = Mat.identity(QQ, 6)
    for _ in range(4):
        power = power.mul(e.x)
        assert has_wedge_block_form(power)


def test_exotic_element_validation():
    with pytest.raises(WedgeViolation):
        ExoticElement(1, Vec.zero(QQ, 2), Mat(QQ, ((0, 1), (0, 0))))
    with pytest.raises(SizeMismatch):
        ExoticElement(1, Vec.zero(QQ, 3), Mat.zeros(QQ, 2))
    with pytest.raises(CharTwo):
        ExoticElement(1, Vec.zero(GF(2), 2), Mat.zeros(GF(2), 2))
    # odd characteristic prime fields are fine
    ExoticElement(1, Vec.zero(GF(3), 2), Mat.zeros(GF(3), 2))


def test_symplectic_form():
    om = omega_matrix(QQ, 2)
    assert om.transpose() == Mat.zeros(QQ, 4).sub(om)
    assert inverse(om) is not None
    # the form spans the trivial submodule of the wedge square; under the
    # self-adjoint identification it is the identity matrix
    gen = Mat.identity(QQ, 4)
    assert has_wedge_block_form(gen)
    s = random_gl(2, random.Random(1))
    sp = embed_gl_in_sp(s)
    assert sp.mul(gen).mul(inverse(sp)).rows == gen.rows

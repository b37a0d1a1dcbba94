"""The exotic module k^{2n} + wedge^2 k^{2n} for Sp_2n.

The wedge square is realised inside gl_2n as the endomorphisms that are
self-adjoint for the fixed symplectic form Omega = [[0, I], [-I, 0]]:
block matrices [[A, B], [C, tA]] with B, C skew.  Working over a field of
characteristic 2 is rejected throughout.  Orbits are labelled by the same
bipartitions as the enhanced module, and the Sp_2n-orbit has twice the
enhanced dimension.  In the enhanced GL_2n module the embedded pair has
the doubled label (mu u mu; nu u nu), of dimension 4*dim - 2|mu|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CharTwo, NotDoubled, RepeatedEigenvalue, SizeMismatch, WedgeViolation
from .fields import QQ
from .linalg import Mat, Vec, has_wedge_block_form, omega_matrix
from .enhanced import EnhancedElement, identify_orbit, orbit_dim
from .partitions import check_partition, halve


def _reject_char_two(field):
    if field.char == 2:
        raise CharTwo("symplectic constructions need characteristic != 2")


@dataclass(frozen=True)
class ExoticElement:
    """A pair (v, x) with v in k^{2n} and x self-adjoint for the symplectic
    form; rejects characteristic 2 and non-wedge matrices."""

    n: int
    v: Vec
    x: Mat

    def __post_init__(self):
        _reject_char_two(self.x.field)
        d = 2 * self.n
        if self.v.dim != d or self.x.nrows != d or self.x.ncols != d:
            raise SizeMismatch("exotic element dims must be 2n")
        if self.v.field != self.x.field:
            raise ValueError("vector and matrix live over different fields")
        if not has_wedge_block_form(self.x):
            raise WedgeViolation("matrix is not self-adjoint for the symplectic form")

    @property
    def field(self):
        return self.x.field


def is_wedge_element(x):
    """Self-adjointness test: [[A, B], [C, tA]] with tB = -B, tC = -C."""
    _reject_char_two(x.field)
    return has_wedge_block_form(x)


def is_sp_element(a):
    """Membership in sp_2n: tA.Omega + Omega.A = 0."""
    _reject_char_two(a.field)
    if not a.is_square() or a.nrows % 2:
        return False
    omega = omega_matrix(a.field, a.nrows // 2)
    return a.transpose().mul(omega).add(omega.mul(a)).is_zero()


def sp_wedge_components(x):
    """Split x in gl_2n uniquely as (sp part, wedge part); char != 2."""
    _reject_char_two(x.field)
    if not x.is_square() or x.nrows % 2:
        raise SizeMismatch("need a 2n x 2n matrix")
    f = x.field
    omega = omega_matrix(f, x.nrows // 2)
    # adjoint of x: Omega^{-1} tX Omega = -Omega tX Omega  (Omega^2 = -1)
    adj = omega.mul(x.transpose()).mul(omega).scale(f.neg(f.one))
    half = f.inv(f.of(2))
    wedge = x.add(adj).scale(half)
    sp = x.sub(adj).scale(half)
    return sp, wedge


def embed_phi(e):
    """GL_n-equivariant inclusion of the enhanced module: v goes to v + 0
    and x to diag(x, tx)."""
    _reject_char_two(e.field)
    f = e.field
    n = e.n
    x2 = Mat.block_diag(f, (e.x, e.x.transpose()))
    v2 = Vec(f, e.v.entries + (f.zero,) * n)
    return ExoticElement(n, v2, x2)


def embed_psi(e):
    """Re-tag an exotic pair as an enhanced pair for GL_2n (identity on data)."""
    return EnhancedElement(2 * e.n, e.v, e.x)


def embed_gl_in_sp(g):
    """The subgroup embedding g -> diag(g, tg^{-1}) of GL_n into Sp_2n."""
    from .linalg import inverse

    _reject_char_two(g.field)
    return Mat.block_diag(g.field, (g, inverse(g).transpose()))


def exotic_orbit_dim(b):
    """Sp-orbit dimension: exactly twice the enhanced orbit dimension."""
    return 2 * orbit_dim(b)


def identify_exotic_orbit(e):
    """Label of the Sp_2n-orbit of a nilpotent exotic pair.

    The enhanced GL_2n label of the same data is always a doubled
    bipartition; the exotic label is its half.  NotDoubled signals data
    that are not a valid exotic element.
    """
    big = identify_orbit(embed_psi(e))
    try:
        return halve(big)
    except ValueError as exc:
        raise NotDoubled(str(exc)) from exc


def build_semisimple_exotic(lam, eigenvalues, field=QQ):
    """The semisimple normal form diag(a_1 I_{l_1}, ..., a_l I_{l_l},
    a_1 I_{l_1}, ..., a_l I_{l_l}) with v = 0.

    Its sp-stabilizer is the product of the Sp_{2 l_i}, of dimension
    sum(2 l_i^2 + l_i).
    """
    _reject_char_two(field)
    lam = check_partition(lam)
    scalars = tuple(field.of(a) for a in eigenvalues)
    if len(scalars) != len(lam):
        raise SizeMismatch("need one eigenvalue per part")
    if len(set(scalars)) != len(scalars):
        raise RepeatedEigenvalue(f"eigenvalues must be pairwise distinct: {scalars}")
    n = sum(lam)
    diag = []
    for a, m in zip(scalars, lam):
        diag.extend([a] * m)
    diag = diag + diag
    rows = tuple(tuple(diag[i] if i == j else field.zero for j in range(2 * n))
                 for i in range(2 * n))
    return ExoticElement(n, Vec.zero(field, 2 * n), Mat(field, rows))

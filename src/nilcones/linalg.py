"""Exact linear algebra over Q and F_p.

Matrices and vectors are immutable, tagged with one field object from
:mod:`nilcones.fields`, and every operation is a pure function.  They hold
Python ints, as FLINT's ``fmpq_mat`` does: a :class:`Mat` stores int rows
``num`` over one common denominator ``den`` (a :class:`Vec` an int tuple),
with ``den`` 1 and residues in [0, p) over F_p and ``gcd(den, *num) = 1``
over Q.  The kernels read and write these ints, so no scalar is converted
between them; ``rows`` and ``entries`` build Fractions (over Q) on demand.
The product and Berkowitz's division-free characteristic polynomial serve
Q and F_p alike, and so does the eigenvalues' integer Horner root search
(Horner tests on int coefficients, exact synthetic division at a root).
One elimination serves each field: over Q fraction-free (Bareiss)
elimination with exact back substitution, behind rank, rref, nullspace and
the inverse (which runs it on F_p residues too); over F_p an incremental
reduced echelon form on residues, behind rank, rref, nullspace and the flag
oracle of :mod:`nilcones.enhanced`, whose preimage step {y : x y in F} is
one elimination of the columns x e_j mod F (:func:`_preimage`).  ``det`` is
the field-generic reference.
Pairs and classes are identified on one image chain per eigenvalue a
(:func:`_image_chain`): bases of im y, im y^2, ... for an int multiple y of
x - a, each the last one with y applied to its rows, until the image stops
shrinking; no power, eigenbasis or inverse of x is formed.  Both Jordan
types of the block of the pair on the generalized eigenspace of a come from
the ranks of those bases, with and without a basis of k[x]v appended.
The seeded group elements carry their inverse in closed form, and
:func:`inverse` returns it without elimination.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as _field
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm

from .errors import (
    BudgetExceeded,
    CharTwo,
    InvariantViolation,
    NonSplitSpectrum,
    NotNilpotent,
    SizeMismatch,
    WedgeViolation,
)
from .fields import QQ, _is_prime
from . import partitions

# The F_p root search tries at most this many residues, 0, 1, 2, ...: past
# them, with a factor still left, it raises BudgetExceeded.  Over Q the
# factorisation behind the candidate roots tries at most this many trial
# divisors.
ROOT_SEARCH_BUDGET_P = 2 ** 16


def _lowest(field, rows, den=1):
    """(num, den) for the values rows / den, from int rows and an int den
    invertible in the field: residues and den 1 over F_p, lowest terms with
    den > 0 over Q."""
    p = field.char
    if p:
        if den == 1:
            return tuple(tuple(e % p for e in row) for row in rows), 1
        c = pow(den, -1, p)
        return tuple(tuple(e * c % p for e in row) for row in rows), 1
    rows = tuple(map(tuple, rows))
    g = gcd(den, *chain.from_iterable(rows)) * (-1 if den < 0 else 1)
    if g == 1:
        return rows, den
    return tuple(tuple(e // g for e in row) for row in rows), den // g


def _value(field, e, den):
    return e if field.char else Fraction(e, den)


@dataclass(frozen=True, init=False)
class Vec:
    """A vector stored as the int tuple num over one den (see :class:`Mat`)."""

    field: object
    num: tuple
    den: int

    def __init__(self, field, entries):
        m = Mat(field, (entries,))
        _store(self, field, m.num[0], m.den)

    @classmethod
    def _of(cls, field, num, den=1):
        (num,), den = _lowest(field, (num,), den)
        return _store(object.__new__(cls), field, num, den)

    @property
    def entries(self):
        return tuple(_value(self.field, e, self.den) for e in self.num)

    @property
    def dim(self):
        return len(self.num)

    def is_zero(self):
        return not any(self.num)

    @staticmethod
    def zero(field, n):
        return _store(object.__new__(Vec), field, (0,) * n, 1)


@dataclass(frozen=True, init=False)
class Mat:
    """A matrix stored as int rows num over one common denominator den > 0,
    as FLINT's fmpq_mat: over F_p den is 1 and num holds residues in [0, p);
    over Q gcd(den, every num) = 1.  So each value has one representation,
    and equality and hash compare (field, num, den).  ``rows`` builds
    field scalars on demand.  A constructor that knows the inverse in
    closed form keeps it in ``_inverse`` (see :func:`inverse`); it takes no
    part in equality, hash or repr."""

    field: object
    num: tuple
    den: int
    _inverse: object = _field(default=None, compare=False, repr=False)

    def __init__(self, field, rows):
        # an int needs no coercion, and _lowest reduces it mod p
        rows = [[e if type(e) is int else field.of(e) for e in row] for row in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise SizeMismatch("ragged rows")
        den = 1
        if not field.char:
            den = lcm(*(e.denominator for row in rows for e in row))
            rows = [[e.numerator * (den // e.denominator) for e in row] for row in rows]
        _store(self, field, *_lowest(field, rows, den))

    @classmethod
    def _of(cls, field, rows, den=1):
        """The matrix of values rows / den, for int rows and an int den."""
        return _store(object.__new__(cls), field, *_lowest(field, rows, den))

    @property
    def rows(self):
        f, d = self.field, self.den
        return tuple(tuple(_value(f, e, d) for e in row) for row in self.num)

    @property
    def nrows(self):
        return len(self.num)

    @property
    def ncols(self):
        return len(self.num[0]) if self.num else 0

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        return not any(map(any, self.num))

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the common denominator."""
        _same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise SizeMismatch("matrix shapes differ")
        da, db = self.den, other.den
        ka, kb, den = (1, sign, da) if da == db else (db, sign * da, da * db)
        return Mat._of(self.field, ((ka * a + kb * b for a, b in zip(r1, r2))
                                    for r1, r2 in zip(self.num, other.num)), den)

    def mul(self, other):
        _same_field(self, other)
        if self.ncols != other.nrows:
            raise SizeMismatch("inner dims differ")
        cols = tuple(zip(*other.num))
        return Mat._of(self.field, [[sum(map(operator.mul, row, col)) for col in cols]
                                    for row in self.num], self.den * other.den)

    def mul_vec(self, v):
        _same_field(self, v)
        if self.ncols != v.dim:
            raise SizeMismatch("matrix/vector dims differ")
        return Vec._of(self.field, [sum(map(operator.mul, row, v.num)) for row in self.num],
                       self.den * v.den)

    def transpose(self):
        return _store(object.__new__(Mat), self.field, tuple(zip(*self.num)), self.den)

    @staticmethod
    def identity(field, n):
        return Mat._of(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(field, m, n=None):
        n = m if n is None else n
        return _store(object.__new__(Mat), field, ((0,) * n,) * m, 1)

    @staticmethod
    def scalar(field, n, c):
        cn, cd = field.of(c).as_integer_ratio()
        return Mat._of(field, [[cn if i == j else 0 for j in range(n)] for i in range(n)], cd)

    @staticmethod
    def block_diag(field, blocks):
        if any(b.field != field for b in blocks):
            raise ValueError(f"field mismatch: blocks not all over {field}")
        n = sum(b.nrows for b in blocks)
        den = lcm(*(b.den for b in blocks))
        rows, off = [], 0
        for b in blocks:
            k = den // b.den
            rows += [(0,) * off + tuple(k * e for e in row) + (0,) * (n - off - b.ncols)
                     for row in b.num]
            off += b.nrows
        return _store(object.__new__(Mat), field, tuple(rows), den)


def _store(obj, field, num, den):
    object.__setattr__(obj, "field", field)
    object.__setattr__(obj, "num", num)
    object.__setattr__(obj, "den", den)
    return obj


def _with_inverse(m, inv):
    """m, carrying inv as its inverse."""
    object.__setattr__(m, "_inverse", inv)
    return m


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


# ---------------------------------------------------------------------------
# rank / nullspace / inverse
# ---------------------------------------------------------------------------


def _bareiss(a):
    """Forward fraction-free (Bareiss) elimination on the int rows a, in
    place: (pivot columns, last pivot, or 1 if none).  Row k ends as minors
    on the first k + 1 pivot rows and columns; every division is exact by
    Sylvester's identity."""
    m = len(a)
    n = len(a[0]) if a else 0
    prev = 1
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_r = a[r]
        pivot = row_r[c]
        # entries left of column c are zero in every row from r on; the
        # in-place loops beat list comprehensions on these short rows
        for i in range(r + 1, m):
            row_i = a[i]
            t = row_i[c]
            if t:
                for j in range(c + 1, n):
                    row_i[j] = (pivot * row_i[j] - t * row_r[j]) // prev
                row_i[c] = 0
            elif pivot != prev:
                # rows must be rescaled by pivot/prev even when t = 0, or
                # the later exact divisions of the Sylvester identity break
                for j in range(c + 1, n):
                    row_i[j] = pivot * row_i[j] // prev
        prev = pivot
        pivots.append(c)
    return pivots, prev


def _back_substitute(a, pivots, d):
    """Turn the output of :func:`_bareiss` into d times the reduced echelon
    form, in place, from the last pivot row up.  Each division is exact:
    the result is a vector of minors."""
    for k in range(len(pivots) - 1, -1, -1):
        row = a[k]
        acc = [d * e for e in row]
        for j in range(k + 1, len(pivots)):
            t = row[pivots[j]]
            if t:
                acc = [e - t * q for e, q in zip(acc, a[j])]
        lead = row[pivots[k]]
        a[k] = [e // lead for e in acc]


def _residual(vec, rows, p):
    """vec minus its components along the echelon rows, mod p: zero iff vec
    lies in their span."""
    v = list(vec)
    for piv, row in rows:
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def _echelon_insert(rows, vec, p):
    """The reduced echelon form over F_p of span(rows) + span(vec).

    rows is a tuple of (pivot, row) pairs sorted by pivot; each row is an
    int tuple in [0, p) with 1 at its pivot and 0 at the other pivots.
    This form is unique to the span, so it can key a memo.  vec holds ints
    in [0, p); rows itself comes back when vec lies in its span.
    """
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


def _echelon(vectors, p, rows=()):
    """The reduced echelon rows over F_p of span(rows) + span(vectors),
    one vector inserted at a time."""
    for vec in vectors:
        rows = _echelon_insert(rows, vec, p)
    return rows


def _preimage(x_cols, F, p):
    """The reduced echelon rows over F_p of {y : x y in span F}, the kernel
    of y -> x y mod F, for the columns x_cols of x and reduced echelon rows F.

    One elimination: the columns x e_j mod F go in from last to first, each
    with its combination of the e_j.  A column that reduces to zero leaves a
    kernel vector: 1 at j, and otherwise nonzero only at later columns that
    did not reduce to zero.  So the kernel vectors are zero at each other's
    lowest index j, and they are the reduced echelon rows of the kernel.
    """
    n = len(x_cols)
    image = []  # (pivot, row with 1 at the pivot, its combination of the e_j)
    kernel = []
    for j in range(n - 1, -1, -1):
        r = _residual(x_cols[j], F, p)
        c = [0] * n
        c[j] = 1
        for piv, row, comb in image:
            a = r[piv]
            if a:
                r = [(u - a * w) % p for u, w in zip(r, row)]
                c = [(u - a * w) % p for u, w in zip(c, comb)]
        lead = next(filter(None, r), 0)
        if not lead:
            kernel.append((j, tuple(c)))
        else:
            inv = pow(lead, p - 2, p)
            image.append((r.index(lead), [a * inv % p for a in r], [a * inv % p for a in c]))
    return tuple(reversed(kernel))


def _reduced(m):
    """((pivot, int row) pairs of the nonzero rows of d times the reduced
    echelon form, d): d = 1 over F_p."""
    if m.field.char:
        return _echelon(m.num, m.field.char), 1
    a = [list(row) for row in m.num]
    pivots, d = _bareiss(a)
    _back_substitute(a, pivots, d)
    return list(zip(pivots, a)), d


def _free_column_basis(ech, n, p, d=1):
    """Right nullspace of the reduced echelon rows ech over F_p, or of d
    times them over Q when p = 0: one vector per free column c, with d at c,
    minus column c of ech at the pivots and 0 at the other free columns."""
    pivots = {piv for piv, _ in ech}
    basis = []
    for c in range(n):
        if c not in pivots:
            v = [0] * n
            v[c] = d
            for piv, row in ech:
                v[piv] = -row[c] % p if p else -row[c]
            basis.append(v)
    return basis


def rank(m):
    """Row rank: the echelon kernel over F_p, Bareiss over Q."""
    f = m.field
    if f.char:
        return len(_echelon(m.num, f.char))
    return len(_bareiss([list(row) for row in m.num])[0])


def rref(m):
    """Reduced row echelon form; returns (Mat, pivot column tuple)."""
    ech, d = _reduced(m)
    zero = (0,) * m.ncols
    return (Mat._of(m.field, [row for _, row in ech] + [zero] * (m.nrows - len(ech)), d),
            tuple(piv for piv, _ in ech))


def nullspace(m):
    """Basis of the right nullspace, one Vec per free column."""
    f = m.field
    ech, d = _reduced(m)
    return [Vec._of(f, v, d) for v in _free_column_basis(ech, m.ncols, f.char, d)]


def inverse(m):
    """The inverse carried by m, when its constructor knew it in closed form:
    for g from :func:`random_gl` the product of its undone shears and sign
    flip, for s from :func:`random_sp` -Omega ts Omega (s is symplectic), and
    diag(g^-1, tg) for diag(g, tg^-1) from
    :func:`nilcones.exotic.embed_gl_in_sp`.

    Otherwise Bareiss and back substitution on [a | I] for the int rows
    a = d m: they end at [D I | D a^-1] with D = +-det a, so
    m^-1 = d (D a^-1) / D.  ValueError when D is zero in the field."""
    if m._inverse is not None:
        return m._inverse
    if not m.is_square():
        raise SizeMismatch("inverse needs a square matrix")
    f, n, d = m.field, m.nrows, m.den
    a = [list(row) + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(m.num)]
    pivots, det_a = _bareiss(a)
    # singular over Z, or D = 0 mod p
    if pivots != list(range(n)) or f.char and det_a % f.char == 0:
        raise ValueError("matrix is singular")
    _back_substitute(a, pivots, det_a)
    return Mat._of(f, ((d * e for e in row[n:]) for row in a), det_a)


def det(m):
    """Exact determinant (used as an independent oracle for charpoly)."""
    if not m.is_square():
        raise SizeMismatch("det needs a square matrix")
    f = m.field
    a = [list(r) for r in m.rows]
    n = m.nrows
    out = f.one
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != f.zero), None)
        if piv is None:
            return f.zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = f.neg(out)
        out = f.mul(out, a[c][c])
        inv = f.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] == f.zero:
                continue
            t = f.mul(a[i][c], inv)
            a[i] = [f.sub(e, f.mul(t, p)) for e, p in zip(a[i], a[c])]
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial and Jordan data
# ---------------------------------------------------------------------------


def _charpoly_ints(m):
    """(c, d): the int coefficients c of det(tI - a), highest degree first,
    for the int rows a = d m, so det(tI - m) has coefficients c_k / d^k.

    Berkowitz's division-free recurrence: the characteristic polynomial of
    each leading block of a comes from that of the block before it, through
    the products R a_r^j C of its new row R and column C.
    """
    if not m.is_square():
        raise SizeMismatch("charpoly needs a square matrix")
    a, d, mul = m.num, m.den, operator.mul
    p = [1]  # charpoly of the leading r x r block, highest degree first
    for r, row_r in enumerate(a):
        block = [row[:r] for row in a[:r]]
        col = [row[r] for row in a[:r]]
        new_row = row_r[:r]
        # q = (1, -a_rr, -R C, -R a_r C, ..., -R a_r^(r-1) C), built reversed
        q = []
        for j in range(r):
            if j:
                col = [sum(map(mul, brow, col)) for brow in block]
            q.append(-sum(map(mul, new_row, col)))
        q.reverse()
        q += (-row_r[r], 1)
        # p times the lower-triangular Toeplitz matrix of q
        p = [sum(map(mul, q[k:], p)) for k in range(r + 1, -1, -1)]
    return p, d


def charpoly(m):
    """Coefficients (c_1, ..., c_n) of det(tI - m) = t^n + c_1 t^{n-1} + ... + c_n,
    by Berkowitz's division-free recurrence on ints, over Q and F_p alike."""
    c, d = _charpoly_ints(m)
    p = m.field.char
    return tuple(e % p if p else Fraction(e, d ** k) for k, e in enumerate(c) if k)


def _basis(rows, p):
    """A basis of the span of the int rows, as int rows: over F_p their
    reduced echelon rows, the entries reduced mod p first; over Q the
    nonzero rows Bareiss leaves, each divided by the gcd of its entries."""
    if p:
        return [row for _, row in _echelon([[e % p for e in r] for r in rows], p)]
    a = [list(r) for r in rows]
    pivots, _ = _bareiss(a)
    out = []
    for row in a[:len(pivots)]:
        g = gcd(*row)
        out.append([e // g for e in row])
    return out


def _image_chain(y, p, m):
    """Bases of im y, im y^2, ..., im y^k for the square matrix with int
    rows y, as int rows (see :func:`_basis`), up to the stable image im y^k,
    the first that the next power keeps.  Each basis is the last one with y
    applied to every row, so a step eliminates only rank y^i rows.

    For y a nonzero multiple of x - a, a an eigenvalue of multiplicity m,
    the stable image is the sum of the other generalized eigenspaces, of
    dimension n - m (Fitting's lemma).  Another dimension raises
    NotNilpotent when m = n (y, or x when a = 0, is not nilpotent), else
    InvariantViolation.
    """
    n = len(y)
    if any(len(row) != n for row in y):
        raise SizeMismatch("need a square matrix")
    chain = [_basis(zip(*y), p)]
    if len(chain[0]) < n:
        while chain[-1]:
            basis = _basis([[sum(map(operator.mul, row, b)) for row in y] for b in chain[-1]], p)
            if len(basis) == len(chain[-1]):
                break
            chain.append(basis)
    if len(chain[-1]) != n - m:
        if m == n:
            raise NotNilpotent("matrix is not nilpotent")
        raise InvariantViolation(f"the stable image has dimension {len(chain[-1])}, not {n - m}")
    return chain


def _partition_from_ranks(ranks):
    """The partition whose transpose has parts ranks[i-1] - ranks[i]."""
    return partitions.transpose(tuple(a - b for a, b in zip(ranks, ranks[1:])))


def jordan_type_nilpotent(x):
    """Partition of n whose transpose has parts rank(x^{i-1}) - rank(x^i),
    the ranks read off the image chain."""
    return _partition_from_ranks([x.nrows, *map(len, _image_chain(x.num, x.field.char, x.nrows))])


def _cyclic_basis(x, v):
    """A basis of W = k[x]v as int rows: the iterates v, xv, x^2 v, ... up
    to the first zero, which are independent; if none of the first n is
    zero, those n reduced to a basis (see :func:`_basis`)."""
    a, p = x.num, x.field.char
    out = []
    w = v.num
    while any(w):
        if len(out) == x.nrows:
            return _basis(out, p)
        out.append(w)
        w = [sum(map(operator.mul, row, w)) for row in a]
        if p:
            w = [e % p for e in w]
    return out


def _rank_sequences(y, p, m, w):
    """The ranks of N^i, and of N^i on V / (W ∩ V), for i = 0, 1, ... down
    to the first 0, where N is x - a on the generalized eigenspace V of an
    eigenvalue a of multiplicity m, all read off one image chain of the int
    matrix y, a nonzero multiple of x - a (:func:`_image_chain`); w is a
    basis of W = k[x]v.

    y is invertible on the other generalized eigenspaces, whose sum U is
    the stable image im y^k.  So im y^i = N^i V + U, of dimension
    rank N^i + n - m.  W is the sum of its parts in each generalized
    eigenspace, as the projections onto them are polynomials in x; so
    im y^i + W = (N^i V + W ∩ V) + U, and the rank of N^i on V / (W ∩ V) is
    dim(im y^i + W) - dim(im y^k + W).
    """
    n = len(y)
    chain = _image_chain(y, p, m)
    stable = chain[-1]
    base = len(_basis(w + stable, p)) if stable else len(w)
    sigma = [n - base]
    for basis in chain[:-1]:
        if not sigma[-1]:
            break
        sigma.append(len(_basis(w + basis, p)) - base)
    if sigma[-1]:
        sigma.append(0)
    return [m, *(len(basis) - n + m for basis in chain)], sigma


def _eigenspace_types(x, v, eig):
    """The Bipartition of the nilpotent pair (v_a, x - a) on each generalized
    eigenspace V_a of x, one per (a, m) of eig, v_a the component of v: the
    rank sequences of y = s (d x) - r d I, for a = r / s in lowest terms and
    d the denominator of x, through the normal-form table in
    :mod:`nilcones.partitions`.  One basis of k[x]v serves every a."""
    n, p, d = x.nrows, x.field.char, x.den
    if v.dim != n:
        raise SizeMismatch("vector/matrix dims differ")
    w = _cyclic_basis(x, v)
    types = []
    for a, m in eig:
        r, s = (a, 1) if p else (a.numerator, a.denominator)
        y = [[s * e - r * d * (i == j) for j, e in enumerate(row)]
             for i, row in enumerate(x.num)] if r else x.num
        lam, sigma = map(_partition_from_ranks, _rank_sequences(y, p, m, w))
        types.append(partitions.bipartition_from_invariants(m, lam, sigma))
    return types


def restricted_jordan_type(x, v):
    """Orbit label (mu, nu) of the pair (v, x) with x nilpotent: the case
    a = 0, m = n of :func:`_eigenspace_types`, from the Jordan types of x
    and of x on k^n / k[x]v."""
    (b,) = _eigenspace_types(x, v, [(0, x.nrows)])
    return b.mu, b.nu


# ---------------------------------------------------------------------------
# stabilizer dimensions
# ---------------------------------------------------------------------------


def _stabilizer_equations(v, x, basis, keep=None):
    """The system Av = 0, Ax = xA on the coefficients of A in ``basis``
    (elements as sparse (row, col, coeff) entries), one column per element
    and one equation per row: Av, then Ax - xA in row-major order, or only
    the rows whose indices ``keep`` lists."""
    _same_field(v, x)
    n = x.nrows
    if not x.is_square() or v.dim != n:
        raise SizeMismatch("need x square and v of matching dim")
    # the v rows over v.den x.den scale by x.den, the x rows by v.den
    a, w, dv, dx = x.num, v.num, v.den, x.den
    cols = []
    for element in basis:
        col = [0] * (n + n * n)
        for r, c, e in element:
            # E_rc v = v_c e_r; (E_rc x)_rj = x_cj; (x E_rc)_ic = x_ir
            col[r] += dx * e * w[c]
            for j in range(n):
                col[n + r * n + j] += dv * e * a[c][j]
                col[n + j * n + c] -= dv * e * a[j][r]
        cols.append(col if keep is None else [col[k] for k in keep])
    return Mat._of(x.field, zip(*cols), dv * dx)


def stabilizer_system(v, x):
    """The system Av = 0, Ax = xA on the n*n entries of A (row-major order),
    one equation per row: its nullspace is the stabilizer of (v, x) in gl_n."""
    n = x.nrows
    return _stabilizer_equations(v, x, [((r, c, 1),) for r in range(n) for c in range(n)])


def stabilizer_dim_gl(v, x):
    """dim {A in gl_n : Av = 0, Ax = xA} via one exact nullity computation."""
    return x.nrows * x.nrows - rank(stabilizer_system(v, x))


def _sp_basis(n):
    """The 2n^2 + n basis elements [[P, Q], [R, -tP]] of sp_2n (Q and R
    symmetric) as sparse entries: E_ij - E_{n+j,n+i} for all i, j, then
    E_{i,n+j} + E_{j,n+i} and E_{n+i,j} + E_{n+j,i} for i <= j."""
    basis = [((i, j, 1), (n + j, n + i, -1)) for i in range(n) for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            basis.append(((i, n + j, 1), (j, n + i, 1)))
            basis.append(((n + i, j, 1), (n + j, i, 1)))
    return basis


def _sp_kept_rows(n):
    """The row indices of the sp_2n system that :func:`stabilizer_dim_sp`
    keeps: the 2n rows of Av, then from Ax - xA its top-left block and the
    strict upper triangles of its two off-diagonal blocks, 2n^2 - n rows."""
    d = 2 * n
    cells = [(i, j) for i in range(n) for j in range(n)]
    cells += [(i, n + j) for i in range(n) for j in range(i + 1, n)]
    cells += [(n + i, j) for i in range(n) for j in range(i + 1, n)]
    return [*range(d), *(d + i * d + j for i, j in cells)]


def has_wedge_block_form(x):
    """Block test [[A, B], [C, tA]] with B, C skew-symmetric."""
    if not x.is_square() or x.nrows % 2:
        return False
    n, a, p = x.nrows // 2, x.num, x.field.char
    # on residues in [0, p), b = -c iff b + c is 0 or p (p = 0 over Q)
    for i in range(n):
        for j in range(n):
            if (a[n + i][n + j] != a[j][i] or a[i][n + j] + a[j][n + i] not in (0, p)
                    or a[n + i][j] + a[n + j][i] not in (0, p)):
                return False
    return True


def stabilizer_dim_sp(v, x):
    """dim {A in sp_2n : Av = 0, Ax = xA}.

    Requires x in the self-adjoint (wedge) block form; the system is written
    on the 2n^2 + n coordinates of sp_2n (:func:`_sp_basis`), so the
    symplectic condition needs no equations of its own.  It keeps only the
    independent equations (:func:`_sp_kept_rows`): for A in sp_2n and x
    self-adjoint, Ax - xA is self-adjoint, [[P, Q], [R, tP]] with Q and R
    skew-symmetric, so its bottom-right block is the transpose of the
    top-left one, the lower triangles of Q and R are the negatives of their
    upper ones, and their diagonals vanish (the characteristic is not 2).
    """
    _same_field(v, x)
    if x.field.char == 2:
        raise CharTwo("symplectic stabilizers need characteristic != 2")
    if not x.is_square() or x.nrows % 2:
        raise SizeMismatch("need a 2n x 2n matrix")
    if not has_wedge_block_form(x):
        raise WedgeViolation("x is not in the self-adjoint block form")
    if v.dim != x.nrows:
        raise SizeMismatch("vector dim must be 2n")
    n = x.nrows // 2
    basis = _sp_basis(n)
    return len(basis) - rank(_stabilizer_equations(v, x, basis, _sp_kept_rows(n)))


# ---------------------------------------------------------------------------
# subspace enumeration over F_p
# ---------------------------------------------------------------------------


def echelon_patterns(n, d, p):
    """Every d x n reduced-row-echelon matrix over F_p, as a tuple of int
    rows: one per d-dimensional subspace of F_p^n.  No budget check."""
    if d == 0:
        yield ()
        return
    for pivots in combinations(range(n), d):
        free_slots = [(r, c) for r in range(d) for c in range(n)
                      if c > pivots[r] and c not in pivots]
        for values in product(range(p), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(d)]
            for r in range(d):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free_slots, values):
                rows[r][c] = val
            yield tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# roots of the characteristic polynomial
# ---------------------------------------------------------------------------


def _divisors(n):
    """The sorted positive divisors of n != 0, from its factorisation by
    trial division with at most ROOT_SEARCH_BUDGET_P divisors.  A cofactor
    left when they run out must be prime (Miller-Rabin decides), else
    BudgetExceeded."""
    n, q, divs = abs(n), 2, [1]
    while q * q <= n:
        if q > ROOT_SEARCH_BUDGET_P:
            try:
                prime = _is_prime(n)
            except ValueError:
                prime = False
            if not prime:
                raise BudgetExceeded(f"rational root search: {n} has no factor up to "
                                     f"{ROOT_SEARCH_BUDGET_P} and is not prime")
            break
        k = 0
        while n % q == 0:
            n, k = n // q, k + 1
        if k:
            divs = [e * q ** i for e in divs for i in range(k + 1)]
        q += 1
    if n > 1:
        divs += [e * n for e in divs]
    return sorted(divs)


def _horner(poly, a, b, p):
    """b^deg poly(a / b) for the int polynomial poly, highest degree first;
    over F_p (p > 0) b is 1 and the value is a residue."""
    acc, bk = 0, 1
    for c in poly:
        acc = (acc * a + c * bk) % p if p else acc * a + c * bk
        bk *= b
    return acc


def _divide_out(poly, a, b, p):
    """poly / (b t - a) by synthetic division, for a root a/b in lowest terms."""
    q, r = [], 0
    for c in poly[:-1]:
        r = (c + a * r) % p if p else (c + a * r) // b
        q.append(r)
    return q


def _roots_with_multiplicity(p, poly):
    """The roots with multiplicity of the int polynomial poly, highest degree
    first, in Q (p = 0) or F_p, and the monic factor left after deflating
    them (Fractions over Q, residues over F_p; () when poly splits).

    Each candidate is tested by Horner evaluation and, at a root, divided
    out by exact synthetic division as often as it divides.  Over Q they
    are 0 and +-a/b, for a dividing the constant coefficient left after the
    zero roots and b the leading one; over F_p the residues from 0 up, at
    most ROOT_SEARCH_BUDGET_P of them.
    """
    roots = []
    if p:
        cands = ((r, 1) for r in range(min(p, ROOT_SEARCH_BUDGET_P)))
    else:
        zeros = next(k for k, e in enumerate(reversed(poly)) if e)
        if zeros:
            poly, roots = poly[:-zeros], [(Fraction(0), zeros)]
        cands = ((s * a, b) for b, a in product(_divisors(poly[0]), _divisors(poly[-1]))
                 if gcd(a, b) == 1 for s in (1, -1))
    for a, b in cands:
        if len(poly) == 1:
            break
        count = 0
        while len(poly) > 1 and not _horner(poly, a, b, p):
            poly = _divide_out(poly, a, b, p)
            count += 1
        if count:
            roots.append((a if p else Fraction(a, b), count))
    if len(poly) == 1:
        return roots, ()
    if p > ROOT_SEARCH_BUDGET_P:
        raise BudgetExceeded(f"root search over F_p capped at the residues below "
                             f"{ROOT_SEARCH_BUDGET_P}; p = {p}")
    return roots, tuple(poly) if p else tuple(Fraction(c, poly[0]) for c in poly)


def eigenvalues_with_multiplicity(x):
    """Sorted (eigenvalue, multiplicity) pairs; NonSplitSpectrum if the
    characteristic polynomial has a factor with no root in the field.

    The roots are sought on ints: the residues of the characteristic
    polynomial over F_p, and over Q the polynomial times the least common
    denominator of its coefficients c_k / d^k (c the int one of d x)."""
    c, d = _charpoly_ints(x)
    p = x.field.char
    if p:
        poly = [e % p for e in c]
    else:
        powers = [d ** k for k in range(len(c))]
        lcd = lcm(*(q // gcd(e, q) for e, q in zip(c, powers)))
        poly = [e * lcd // q for e, q in zip(c, powers)]
    roots, residual = _roots_with_multiplicity(p, poly)
    if residual:
        raise NonSplitSpectrum(residual)
    return sorted(roots, key=lambda rm: rm[0])


def generalized_eigenbasis(x):
    """A basis of k^n adapted to the generalized eigenspaces of x, whose
    spectrum must split over the base field.

    Returns (eig, p, p_inv): eig is the sorted (eigenvalue, multiplicity)
    list of :func:`eigenvalues_with_multiplicity`, and the columns of p are
    bases of ker (x - a)^m, one run of m columns per (a, m) of eig in that
    order.  So p_inv x p is block diagonal, with blocks a I + nilpotent.
    """
    f = x.field
    n = x.nrows
    eig = eigenvalues_with_multiplicity(x)
    columns = []
    for a, m in eig:
        shifted = x.sub(Mat.scalar(f, n, a))
        power = shifted
        for _ in range(m - 1):
            power = power.mul(shifted)
        basis = nullspace(power)
        if len(basis) != m:
            raise InvariantViolation(f"ker (x - {a})^{m} has dimension {len(basis)}, not {m}")
        # a basis vector scaled by its denominator is still a basis vector
        columns.extend(w.num for w in basis)
    p = Mat._of(f, tuple(zip(*columns)))
    return eig, p, inverse(p)


def jordan_chevalley_split(x):
    """Split x = x_s + x_n with x_s diagonalisable, x_n nilpotent, the two
    commuting.  Requires the spectrum to split over the base field.

    x_s acts as a on the generalized eigenspace ker (x - a)^m, so in the
    basis of :func:`generalized_eigenbasis` it is p diag(a_i) p_inv.  The
    split is unique, so this x_s is the polynomial in x that Chinese
    remaindering on s = a_i mod (t - a_i)^{m_i} gives.
    """
    eig, p, p_inv = generalized_eigenbasis(x)
    f = x.field
    diag = Mat.block_diag(f, [Mat.scalar(f, m, a) for a, m in eig])
    xs = p.mul(diag).mul(p_inv)
    xn = x.sub(xs)
    if xs.mul(xn) != xn.mul(xs):
        raise InvariantViolation("x_s and x_n do not commute")
    return xs, xn


def limit_along_cocharacter(weights, v, x):
    """Limit at t -> 0 of the torus action t.(v, x) with the given weights.

    The action scales v_i by t^{w_i} and x_{ij} by t^{w_i - w_j}.  Returns
    the limit pair when every monomial carrying a nonzero coefficient has
    exponent >= 0, else None.
    """
    _same_field(v, x)
    n = v.dim
    if len(weights) != n or x.nrows != n or x.ncols != n:
        raise SizeMismatch("weights/vector/matrix dims differ")
    new_v = []
    for i, e in enumerate(v.num):
        if e and weights[i] < 0:
            return None
        new_v.append(e if weights[i] == 0 else 0)
    new_rows = []
    for i, row in enumerate(x.num):
        new_row = []
        for j, e in enumerate(row):
            w = weights[i] - weights[j]
            if e and w < 0:
                return None
            new_row.append(e if w == 0 else 0)
        new_rows.append(new_row)
    return Vec._of(v.field, new_v, v.den), Mat._of(x.field, new_rows, x.den)


# ---------------------------------------------------------------------------
# seeded exact group elements (fuzzing support for the verify suites)
# ---------------------------------------------------------------------------


def random_gl(n, rng):
    """A random element g of GL_n(Q) with exact inverse: a product of integer
    shears and diagonal sign flips, so the determinant is +-1.  It carries
    g^-1, kept as t = tg^-1: each shear rows[j] += c rows[i] of g is undone
    by t[i] -= c t[j], and the sign flip of row k negates t[k]."""
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
    return _with_inverse(Mat._of(QQ, rows), Mat._of(QQ, zip(*t)))


def random_sp(n, rng, steps=3):
    """A random element s of Sp_2n(Q): a product of diag(g, tg^{-1}) blocks
    and unipotent upper/lower blocks with symmetric off-diagonal part.  It
    carries s^-1 = -Omega ts Omega, which for s = [[P, Q], [R, S]] is
    [[tS, -tQ], [-tR, tP]]."""
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [[0] * n] * n
    total = None
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            g = random_gl(n, rng)
            p, q, r, s = g.num, zero, zero, g._inverse.transpose().num
        else:
            b = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    b[i][j] = b[j][i] = rng.randint(-2, 2)
            p, q, r, s = (one, b, zero, one) if kind == 1 else (one, zero, b, one)
        elem = Mat._of(QQ, [[*p[i], *q[i]] for i in range(n)] + [[*r[i], *s[i]] for i in range(n)])
        total = elem if total is None else total.mul(elem)
    if total is None:
        return Mat.identity(QQ, 2 * n)
    cols = tuple(zip(*total.num))  # the rows of ts
    inv = [(*cols[n + i][n:], *(-e for e in cols[n + i][:n])) for i in range(n)]
    inv += [(*(-e for e in cols[i][n:]), *cols[i][:n]) for i in range(n)]
    return _with_inverse(total, _store(object.__new__(Mat), QQ, tuple(inv), total.den))

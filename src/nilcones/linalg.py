"""Exact linear algebra over Q and F_p.

Matrices and vectors are immutable, tagged with one field object from
:mod:`nilcones.fields`, and every operation is a pure function.  The
product, the inverse and the characteristic polynomial clear denominators
once and compute on Python ints: an integer product and Berkowitz's
division-free characteristic polynomial serve Q and F_p alike.  One
elimination serves each field: over Q fraction-free (Bareiss) elimination
with exact back substitution on ints, behind rank, rref, nullspace and the
inverse (which runs it on F_p residues too); over F_p an incremental reduced
echelon form on int residues, behind rank, rref, nullspace and the flag
oracle of :mod:`nilcones.enhanced`.  ``det`` is the field-generic reference.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .errors import (
    InvariantViolation,
    NonSplitSpectrum,
    NotNilpotent,
    SizeMismatch,
    WedgeViolation,
)
from .fields import QQ, PrimeField
from . import partitions


@dataclass(frozen=True)
class Vec:
    field: object
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.field.of(e) for e in self.entries))

    @property
    def dim(self):
        return len(self.entries)

    def is_zero(self):
        return all(e == self.field.zero for e in self.entries)

    def add(self, other):
        _same_field(self, other)
        if self.dim != other.dim:
            raise SizeMismatch("vector dims differ")
        f = self.field
        return Vec(f, tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, c):
        f = self.field
        c = f.of(c)
        return Vec(f, tuple(f.mul(c, e) for e in self.entries))

    @staticmethod
    def zero(field, n):
        return Vec(field, (field.zero,) * n)


@dataclass(frozen=True)
class Mat:
    field: object
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(self.field.of(e) for e in row) for row in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise SizeMismatch("ragged rows")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        z = self.field.zero
        return all(e == z for row in self.rows for e in row)

    def entry(self, i, j):
        return self.rows[i][j]

    def add(self, other):
        _same_field(self, other)
        _same_shape(self, other)
        f = self.field
        return Mat(f, tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def sub(self, other):
        _same_field(self, other)
        _same_shape(self, other)
        f = self.field
        return Mat(f, tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def scale(self, c):
        f = self.field
        c = f.of(c)
        return Mat(f, tuple(tuple(f.mul(c, e) for e in row) for row in self.rows))

    def mul(self, other):
        _same_field(self, other)
        if self.ncols != other.nrows:
            raise SizeMismatch("inner dims differ")
        f = self.field
        a, da = _int_rows(f, self.rows)
        b, db = _int_rows(f, other.rows)
        d = da * db
        cols = tuple(zip(*b))
        return Mat(f, tuple(tuple(_from_int(f, sum(map(operator.mul, row, col)), d)
                                  for col in cols) for row in a))

    def mul_vec(self, v):
        _same_field(self, v)
        if self.ncols != v.dim:
            raise SizeMismatch("matrix/vector dims differ")
        f = self.field
        a, da = _int_rows(f, self.rows)
        (col,), dv = _int_rows(f, (v.entries,))
        d = da * dv
        return Vec(f, tuple(_from_int(f, sum(map(operator.mul, row, col)), d) for row in a))

    def transpose(self):
        return Mat(self.field, tuple(zip(*self.rows)) if self.rows else ())

    @staticmethod
    def identity(field, n):
        one, zero = field.one, field.zero
        return Mat(field, tuple(tuple(one if i == j else zero for j in range(n))
                                for i in range(n)))

    @staticmethod
    def zeros(field, m, n=None):
        n = m if n is None else n
        return Mat(field, tuple((field.zero,) * n for _ in range(m)))

    @staticmethod
    def scalar(field, n, c):
        c = field.of(c)
        zero = field.zero
        return Mat(field, tuple(tuple(c if i == j else zero for j in range(n))
                                for i in range(n)))

    @staticmethod
    def block_diag(field, blocks):
        n = sum(b.nrows for b in blocks)
        rows = [[field.zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[off + i][off + j] = field.of(b.rows[i][j])
            off += b.nrows
        return Mat(field, tuple(tuple(r) for r in rows))


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


def _same_shape(a, b):
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise SizeMismatch("matrix shapes differ")


def _int_rows(f, rows):
    """(int rows, d) with rows = int rows / d.  Over Q, d is the least common
    denominator; over F_p the residues are already ints and d = 1."""
    if f.char:
        return rows, 1
    d = lcm(*{e.denominator for row in rows for e in row})
    if d == 1:
        return [[e.numerator for e in row] for row in rows], 1
    return [[e.numerator * (d // e.denominator) for e in row] for row in rows], d


def _from_int(f, a, d):
    """The field element a / d, for ints a and d with d invertible in f."""
    if f.char:
        return a * pow(d, -1, f.p) % f.p
    return Fraction(a, d)


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


def _reduced(m):
    """(pivot, row) pairs of the nonzero rows of the reduced echelon form."""
    f = m.field
    if f.char:
        return _echelon(m.rows, f.p)
    a, _ = _int_rows(f, m.rows)
    pivots, d = _bareiss(a)
    _back_substitute(a, pivots, d)
    return [(c, tuple(Fraction(e, d) for e in row)) for c, row in zip(pivots, a)]


def _free_column_basis(ech, n, p):
    """Right nullspace of the reduced echelon rows ech over F_p, or over Q
    when p = 0: one vector per free column c, with 1 at c, minus column c
    of ech at the pivots and 0 at the other free columns."""
    pivots = {piv for piv, _ in ech}
    basis = []
    for c in range(n):
        if c not in pivots:
            v = [0] * n
            v[c] = 1
            for piv, row in ech:
                v[piv] = -row[c] % p if p else -row[c]
            basis.append(v)
    return basis


def rank(m):
    """Row rank: the echelon kernel over F_p, Bareiss over Q."""
    f = m.field
    if f.char:
        return len(_echelon(m.rows, f.p))
    return len(_bareiss(_int_rows(f, m.rows)[0])[0])


def rref(m):
    """Reduced row echelon form; returns (Mat, pivot column tuple)."""
    f = m.field
    ech = _reduced(m)
    zero = (f.zero,) * m.ncols
    return (Mat(f, tuple(row for _, row in ech) + (zero,) * (m.nrows - len(ech))),
            tuple(piv for piv, _ in ech))


def nullspace(m):
    """Basis of the right nullspace, one Vec per free column."""
    f = m.field
    return [Vec(f, tuple(v)) for v in _free_column_basis(_reduced(m), m.ncols, f.char)]


def inverse(m):
    """Bareiss and back substitution on [a | I] for the int rows a = d m:
    they end at [D I | D a^-1] with D = +-det a, so m^-1 = d (D a^-1) / D.
    ValueError when D is zero in the field."""
    if not m.is_square():
        raise SizeMismatch("inverse needs a square matrix")
    f = m.field
    n = m.nrows
    a, d = _int_rows(f, m.rows)
    a = [list(row) + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(a)]
    pivots, det_a = _bareiss(a)
    # singular over Z, or D = 0 mod p
    if pivots != list(range(n)) or _from_int(f, det_a, 1) == f.zero:
        raise ValueError("matrix is singular")
    _back_substitute(a, pivots, det_a)
    return Mat(f, tuple(tuple(_from_int(f, d * e, det_a) for e in row[n:]) for row in a))


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


def _charpoly_monic(m):
    """Coefficients of det(tI - m), highest degree first, leading 1.

    Berkowitz's division-free recurrence on the int rows a = d m: the
    characteristic polynomial of each leading block comes from that of the
    block before it, through the products R a_r^j C of its new row R and
    column C.  The k-th coefficient of a is divided by d^k at the end.
    """
    if not m.is_square():
        raise SizeMismatch("charpoly needs a square matrix")
    f = m.field
    a, d = _int_rows(f, m.rows)
    mul = operator.mul
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
    return tuple(_from_int(f, c, d ** k) for k, c in enumerate(p))


def charpoly(m):
    """Coefficients (c_1, ..., c_n) of det(tI - m) = t^n + c_1 t^{n-1} + ... + c_n,
    by Berkowitz's division-free recurrence on ints, over Q and F_p alike."""
    return _charpoly_monic(m)[1:]


def _power_ranks(x, w=()):
    """Ranks of x^0, x^1, ... on k^n / W, down to 0, where W is the span of
    the independent x-stable vectors w: rank([x^i | W]) - dim W.
    NotNilpotent if x^n still has positive rank there."""
    n = x.nrows
    xt = x.transpose()  # the rows of (x^T)^i are the columns of x^i
    w_rows = tuple(u.entries for u in w)
    ranks = [n - len(w)]
    power = xt
    while ranks[-1]:
        if len(ranks) > n:
            raise NotNilpotent("matrix is not nilpotent")
        if len(ranks) > 1:
            power = power.mul(xt)
        stacked = Mat(x.field, power.rows + w_rows) if w else power
        ranks.append(rank(stacked) - len(w))
    return ranks


def _partition_from_ranks(ranks):
    """The partition whose transpose has parts ranks[i-1] - ranks[i]."""
    return partitions.transpose(tuple(a - b for a, b in zip(ranks, ranks[1:])))


def jordan_type_nilpotent(x):
    """Partition of n whose transpose has parts rank(x^{i-1}) - rank(x^i)."""
    if not x.is_square():
        raise SizeMismatch("need a square matrix")
    return _partition_from_ranks(_power_ranks(x))


def _cyclic_basis(x, v):
    """The iterates v, xv, x^2 v, ... up to the first zero (x nilpotent)."""
    out = []
    w = v
    while not w.is_zero():
        out.append(w)
        w = x.mul_vec(w)
    return out


def restricted_jordan_type(x, v):
    """Orbit label (mu, nu) of the pair (v, x) with x nilpotent.

    Computes the two conjugation invariants -- the Jordan type of x and the
    Jordan type of x on the quotient by the cyclic subspace W = k[x]v, read
    off the ranks of [x^i | W] -- and inverts them through the normal-form
    table in :mod:`nilcones.partitions`.
    """
    n = x.nrows
    if v.dim != n:
        raise SizeMismatch("vector/matrix dims differ")
    # lam first: it raises NotNilpotent, and on a non-nilpotent x the cyclic
    # iteration below would never reach zero
    lam = jordan_type_nilpotent(x)
    cyc = _cyclic_basis(x, v)
    sigma = _partition_from_ranks(_power_ranks(x, cyc)) if cyc else lam
    b = partitions.bipartition_from_invariants(n, lam, sigma)
    return b.mu, b.nu


# ---------------------------------------------------------------------------
# stabilizer dimensions
# ---------------------------------------------------------------------------


def stabilizer_system(v, x):
    """The linear system Av = 0, Ax = xA on the n*n entries of A (row-major
    order), one equation per row; its nullspace is the stabilizer of (v, x)
    in gl_n."""
    _same_field(v, x)
    n = x.nrows
    if not x.is_square() or v.dim != n:
        raise SizeMismatch("need x square and v of matching dim")
    f = x.field
    zero = f.zero
    eqs = []
    for i in range(n):
        row = [zero] * (n * n)
        row[i * n:(i + 1) * n] = v.entries
        eqs.append(tuple(row))
    for i in range(n):
        for j in range(n):
            row = [zero] * (n * n)
            for k in range(n):
                row[i * n + k] = f.add(row[i * n + k], x.entry(k, j))
                row[k * n + j] = f.sub(row[k * n + j], x.entry(i, k))
            eqs.append(tuple(row))
    return Mat(f, tuple(eqs))


def stabilizer_dim_gl(v, x):
    """dim {A in gl_n : Av = 0, Ax = xA} via one exact nullity computation."""
    return x.nrows * x.nrows - rank(stabilizer_system(v, x))


def omega_matrix(field, n):
    """The fixed symplectic form [[0, I], [-I, 0]] on k^{2n}."""
    zero, one = field.zero, field.one
    rows = []
    for i in range(2 * n):
        row = [zero] * (2 * n)
        if i < n:
            row[n + i] = one
        else:
            row[i - n] = field.neg(one)
        rows.append(tuple(row))
    return Mat(field, tuple(rows))


def has_wedge_block_form(x):
    """Block test [[A, B], [C, tA]] with B, C skew-symmetric."""
    if not x.is_square() or x.nrows % 2:
        return False
    n = x.nrows // 2
    f = x.field
    for i in range(n):
        for j in range(n):
            if x.entry(n + i, n + j) != x.entry(j, i):
                return False
            if x.entry(i, n + j) != f.neg(x.entry(j, n + i)):
                return False
            if x.entry(n + i, j) != f.neg(x.entry(n + j, i)):
                return False
    return True


def stabilizer_dim_sp(v, x):
    """dim {A in sp_2n : Av = 0, Ax = xA}.

    Requires x in the self-adjoint (wedge) block form; the symplectic
    condition tA.Omega + Omega.A = 0 is appended to the gl system
    (:func:`stabilizer_system`).
    """
    _same_field(v, x)
    if x.field.char == 2:
        from .errors import CharTwo

        raise CharTwo("symplectic stabilizers need characteristic != 2")
    if not x.is_square() or x.nrows % 2:
        raise SizeMismatch("need a 2n x 2n matrix")
    if not has_wedge_block_form(x):
        raise WedgeViolation("x is not in the self-adjoint block form")
    d = x.nrows
    if v.dim != d:
        raise SizeMismatch("vector dim must be 2n")
    f = x.field
    zero = f.zero
    omega = omega_matrix(f, d // 2)
    eqs = []
    for i in range(d):
        for j in range(d):
            row = [zero] * (d * d)
            for k in range(d):
                # (tA Omega)_{ij} = sum_k A_{ki} Omega_{kj}
                row[k * d + i] = f.add(row[k * d + i], omega.entry(k, j))
                # (Omega A)_{ij} = sum_k Omega_{ik} A_{kj}
                row[k * d + j] = f.add(row[k * d + j], omega.entry(i, k))
            eqs.append(tuple(row))
    return d * d - rank(Mat(f, stabilizer_system(v, x).rows + tuple(eqs)))


# ---------------------------------------------------------------------------
# subspace enumeration over F_p
# ---------------------------------------------------------------------------


def gaussian_binomial(n, d, p):
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (d - i) - 1
    return num // den


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
# polynomials (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------


def _pnorm(f, a):
    while a and a[-1] == f.zero:
        a.pop()
    return a


def _pdivmod(f, a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = f.inv(b[-1])
    q = [f.zero] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = f.mul(a[-1], inv)
        s = len(a) - len(b)
        q[s] = c
        for i, x in enumerate(b):
            a[s + i] = f.sub(a[s + i], f.mul(c, x))
        _pnorm(f, a)
        if len(a) >= len(b) and a and a[-1] == f.zero:
            _pnorm(f, a)
    return _pnorm(f, q), a


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _roots_with_multiplicity(field, monic_high_first):
    """All roots in the field, with multiplicity; (roots, residual factor).

    The residual factor is the monic part left after deflating every root,
    highest degree first; it is () when the polynomial splits.
    """
    f = field
    poly = list(reversed(monic_high_first))  # low -> high
    roots = []

    def deflate(r):
        count = 0
        nonlocal poly
        while len(poly) > 1:
            q, rem = _pdivmod(f, poly, [f.neg(r), f.one])
            if rem:
                break
            poly = q
            count += 1
        return count

    if isinstance(f, PrimeField):
        for cand in f.elements():
            m = deflate(f.of(cand))
            if m:
                roots.append((f.of(cand), m))
            if len(poly) == 1:
                break
    else:
        m0 = deflate(f.zero)
        if m0:
            roots.append((f.zero, m0))
        if len(poly) > 1:
            d = lcm(*(c.denominator for c in poly))
            ints = [int(c * d) for c in poly]
            lead, const = ints[-1], ints[0]
            cands = set()
            for pnum in _divisors(const):
                for pden in _divisors(lead):
                    cands.add(Fraction(pnum, pden))
                    cands.add(Fraction(-pnum, pden))
            for cand in sorted(cands):
                m = deflate(cand)
                if m:
                    roots.append((cand, m))
                if len(poly) == 1:
                    break
    residual = tuple(reversed(poly)) if len(poly) > 1 else ()
    return roots, residual


def eigenvalues_with_multiplicity(x):
    """Sorted (eigenvalue, multiplicity) pairs; NonSplitSpectrum if the
    characteristic polynomial has a factor with no root in the field."""
    roots, residual = _roots_with_multiplicity(x.field, _charpoly_monic(x))
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
        columns.extend(w.entries for w in basis)
    p = Mat(f, tuple(zip(*columns)))
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
    if xs.mul(xn).rows != xn.mul(xs).rows:
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
    f = v.field
    zero = f.zero
    new_v = []
    for i, e in enumerate(v.entries):
        if e != zero and weights[i] < 0:
            return None
        new_v.append(e if weights[i] == 0 else zero)
    new_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = x.entry(i, j)
            w = weights[i] - weights[j]
            if e != zero and w < 0:
                return None
            row.append(e if w == 0 else zero)
        new_rows.append(tuple(row))
    return Vec(f, tuple(new_v)), Mat(f, tuple(new_rows))


# ---------------------------------------------------------------------------
# seeded exact group elements (fuzzing support for the verify suites)
# ---------------------------------------------------------------------------


def random_gl(n, rng, steps=None):
    """A random element of GL_n(Q) with exact inverse: a product of integer
    shears and diagonal sign flips, so the determinant is +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = 3 * n if steps is None else steps
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    if rng.random() < 0.5 and n:
        k = rng.randrange(n)
        rows[k] = [-e for e in rows[k]]
    return Mat(QQ, tuple(tuple(r) for r in rows))


def random_sp(n, rng, steps=3):
    """A random element of Sp_2n(Q): a product of diag(g, tg^{-1}) blocks
    and unipotent upper/lower blocks with symmetric off-diagonal part."""
    f = QQ
    total = Mat.identity(f, 2 * n)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            g = random_gl(n, rng)
            elem = Mat.block_diag(f, (g, inverse(g).transpose()))
        else:
            b = [[f.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    c = f.of(rng.randint(-2, 2))
                    b[i][j] = c
                    b[j][i] = c
            rows = []
            for i in range(n):
                top = [f.one if i == j else f.zero for j in range(n)]
                rows.append(tuple(top) + tuple(b[i] if kind == 1 else [f.zero] * n))
            for i in range(n):
                bot = [f.one if i == j else f.zero for j in range(n)]
                rows.append(tuple(b[i] if kind == 2 else [f.zero] * n) + tuple(bot))
            elem = Mat(f, tuple(rows))
        total = total.mul(elem)
    return total

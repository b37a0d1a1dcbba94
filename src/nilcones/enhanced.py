"""The enhanced module k^n + gl_n for GL_n.

Nilpotent GL_n-orbits on pairs (v, x) are labelled by bipartitions of n.
This module provides the dimension formula, normal-form representatives,
identification of the orbit of a concrete pair, induction of orbits from
Levi data (block compositions with one bipartition per block), rigidity,
and the closure order together with two independent finite-field oracles
that certify the combinatorial order at small rank.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter, mul

from .errors import BudgetExceeded, InvariantViolation, NotRigidDatum, SizeMismatch
from .fields import QQ
from .linalg import (
    Mat,
    Vec,
    _echelon,
    _echelon_insert,
    _free_column_basis,
    _residual,
    echelon_patterns,
    inverse,
    jordan_chevalley_split,
    restricted_jordan_type,
)
from .partitions import (
    Bipartition,
    Composition,
    add,
    ah_closure_leq,
    sum_bipartitions,
    transpose,
)

FLAG_ORACLE_BUDGET_N = 6
SWEEP_ORACLE_BUDGET_N = 3
ORACLE_PRIMES = (2, 3)


@dataclass(frozen=True)
class EnhancedElement:
    """A pair (v, x) with v in k^n and x an n x n matrix over one field."""

    n: int
    v: Vec
    x: Mat

    def __post_init__(self):
        if self.v.dim != self.n or self.x.nrows != self.n or self.x.ncols != self.n:
            raise SizeMismatch("enhanced element dims inconsistent")
        if self.v.field != self.x.field:
            raise ValueError("vector and matrix live over different fields")

    @property
    def field(self):
        return self.x.field


def act(g, e):
    """The group action g.(v, x) = (gv, gxg^{-1}); g must be invertible."""
    return EnhancedElement(e.n, g.mul_vec(e.v), g.mul(e.x).mul(inverse(g)))


def orbit_dim(b):
    """Orbit dimension n^2 - sum_j ((mu+nu)^tr_j)^2 + |mu|.

    Matches n^2 minus the infinitesimal stabilizer dimension of any
    representative over Q; the agreement is part of the test surface.
    """
    n = b.n
    lam_tr = transpose(add(b.mu, b.nu))
    return n * n - sum(c * c for c in lam_tr) + sum(b.mu)


def _normal_form(b):
    """(int rows of x, int entries of v) of the normal form of b: x is in
    Jordan form with chain i of length mu_i + nu_i, and v is the sum of the
    depth-mu_i basis vector of each of the first l(mu) chains.  The
    entries are 0 and 1, so they hold over every field."""
    n = b.n
    rows = [[0] * n for _ in range(n)]
    ventries = [0] * n
    off = 0
    for i, length in enumerate(add(b.mu, b.nu)):
        for j in range(off + 1, off + length):
            rows[j - 1][j] = 1
        if i < len(b.mu):
            ventries[off + b.mu[i] - 1] = 1
        off += length
    return rows, ventries


def build_representative(b, field=QQ):
    """Normal-form representative of the orbit labelled b (see
    :func:`_normal_form`)."""
    rows, ventries = _normal_form(b)
    return EnhancedElement(b.n, Vec._of(field, ventries), Mat._of(field, rows))


def identify_orbit(e):
    """Bipartition of the orbit of a nilpotent pair; NotNilpotent otherwise."""
    mu, nu = restricted_jordan_type(e.x, e.v)
    return Bipartition(mu, nu)


def jkv_decompose(e):
    """Split (v, x) = (0, x_s) + (v, x_n) along the Jordan-Chevalley
    decomposition of x; this is the canonical decomposition compatible
    with the projection to gl_n."""
    xs, xn = jordan_chevalley_split(e.x)
    zero = Vec.zero(e.field, e.n)
    return EnhancedElement(e.n, zero, xs), EnhancedElement(e.n, e.v, xn)


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InductionDatum:
    """Levi block sizes (ordered, marked prefix carries the vector) plus one
    bipartition per block."""

    composition: Composition
    per_block: tuple

    def __post_init__(self):
        blocks = tuple(self.per_block)
        if len(blocks) != len(self.composition.parts):
            raise SizeMismatch("one bipartition per block required")
        for b, size in zip(blocks, self.composition.parts):
            if b.n != size:
                raise SizeMismatch(f"block label {b} does not fill a block of size {size}")
        object.__setattr__(self, "per_block", blocks)

    @staticmethod
    def rigid(composition):
        """The datum whose blocks carry the two x = 0 orbits: marked blocks
        get (1^m; ) and unmarked blocks get (; 1^m)."""
        blocks = []
        for i, size in enumerate(composition.parts):
            ones = (1,) * size
            blocks.append(Bipartition(ones, ()) if i < composition.k
                          else Bipartition((), ones))
        return InductionDatum(composition, tuple(blocks))

    def is_rigid_datum(self):
        return self == InductionDatum.rigid(self.composition)


def induce(d):
    """Induced orbit label: part-wise sums (sum mu^(i); sum nu^(i))."""
    return sum_bipartitions(d.per_block)


def induce_from_vector(d):
    """Induced label of a rigid datum: mu_j counts marked blocks of size >= j
    and nu_j counts unmarked ones.  NotRigidDatum on anything else."""
    if not d.is_rigid_datum():
        raise NotRigidDatum("per-block labels must be the x = 0 orbits matching the mark")
    comp, k = d.composition.parts, d.composition.k
    mu = transpose(tuple(sorted(comp[:k], reverse=True)))
    nu = transpose(tuple(sorted(comp[k:], reverse=True)))
    return Bipartition(mu, nu)


def is_rigid(b):
    """True iff b is (1^n; ) or (; 1^n): the orbits of pairs with x = 0,
    which are exactly the non-induced ones."""
    ones = (1,) * b.n
    return (b.mu, b.nu) in (((), ones), (ones, ())) or b.n == 0


def _rigid_blocks(b):
    """(block sizes, k) of :func:`rigid_datum`: the columns of mu
    ascending, then the columns of nu ascending, the first k marked."""
    mu_cols = sorted(transpose(b.mu))
    return (*mu_cols, *sorted(transpose(b.nu))), len(mu_cols)


def rigid_datum(b):
    """The unique (up to conjugacy) rigid datum inducing b: marked blocks
    are the columns of mu (ascending), unmarked blocks the columns of nu."""
    comp, k = _rigid_blocks(b)
    return InductionDatum.rigid(Composition(comp, k=k))


def induction_representative(d, field=QQ):
    """An element of the induced orbit.

    For rigid data this is the explicit column construction: place the
    blocks as columns of heights n_1, ..., n_r, let x send each box to the
    nearest box in the same row to its left (zero if none), and let v be
    the sum of all boxes in the marked columns.  Row i then forms one
    Jordan chain through the columns of height >= i.  For non-rigid data
    the normal form of the induced label is returned.
    """
    if not d.is_rigid_datum():
        return build_representative(induce(d), field)
    comp, k = d.composition.parts, d.composition.k
    n = sum(comp)
    index = {}
    pos = 0
    for j, height in enumerate(comp):
        for i in range(1, height + 1):
            index[(i, j)] = pos
            pos += 1
    rows = [[field.zero] * n for _ in range(n)]
    max_height = max(comp) if comp else 0
    for i in range(1, max_height + 1):
        cols = [j for j, height in enumerate(comp) if height >= i]
        for t in range(1, len(cols)):
            rows[index[(i, cols[t - 1])]][index[(i, cols[t])]] = field.one
    ventries = [field.zero] * n
    for j in range(k):
        for i in range(1, comp[j] + 1):
            ventries[index[(i, j)]] = field.one
    return EnhancedElement(n, Vec(field, tuple(ventries)),
                           Mat(field, tuple(tuple(r) for r in rows)))


# ---------------------------------------------------------------------------
# closure order and its oracles
# ---------------------------------------------------------------------------


def closure_leq(b1, b2):
    """True iff the orbit of b1 lies in the closure of the orbit of b2.

    Delegates to the combinatorial rule; the two oracles below certify the
    rule on every pair at small n (see nilcones.verify.suite_closure).
    """
    return ah_closure_leq(b1, b2)


def _subspaces_between(S, T, d, p):
    """All echelon bases F with span(S) <= F <= span(T), dim F = d."""
    s, t = len(S), len(T)
    if not s <= d <= t:
        return
    if d == s:
        yield S
        return
    if d == t:
        # T is the only such subspace: it is in reduced echelon form, and it
        # holds S, as x F <= F (F holds the step x maps it into) and the
        # vector joins S only once it is found in T
        yield T
        return
    # the residuals of T mod S span a complement of S in T
    complement = [row for _, row in _echelon((_residual(row, S, p) for _, row in T), p)]
    if len(complement) != t - s:
        raise InvariantViolation(f"complement of dimension {len(complement)}, not {t - s}")
    cols = tuple(zip(*complement))
    for pattern in echelon_patterns(t - s, d - s, p):
        lifted = ([sum(map(mul, prow, col)) % p for col in cols] for prow in pattern)
        yield _echelon(lifted, p, S)


def _flag_witness_exists(xrows, ventries, comp, k, p):
    """Search for a partial flag with jumps comp such that x drops each step
    down one and the vector lies in step k."""
    n = len(ventries)
    dims = []
    acc = 0
    for c in comp:
        acc += c
        dims.append(acc)
    if k == 0 and any(ventries):
        return False
    x_cols = [tuple(xrows[i][j] for i in range(n)) for j in range(n)]
    failed = set()

    def rec(i, F):
        if i == len(comp):
            return True
        state = (i, F)
        if state in failed:
            return False
        # T = {y : x y in F}, the kernel of y -> x y mod F
        constraint = _echelon(zip(*(_residual(col, F, p) for col in x_cols)), p)
        T = _echelon(_free_column_basis(constraint, n, p), p)
        S = F
        if i + 1 == k:
            if any(_residual(ventries, T, p)):
                failed.add(state)
                return False
            S = _echelon_insert(F, ventries, p)
        for F_next in _subspaces_between(S, T, dims[i], p):
            if rec(i + 1, F_next):
                return True
        failed.add(state)
        return False

    return rec(0, ())


def _oracle_prelude(b_small, b_big, p, budget_n):
    if b_small.n != b_big.n:
        raise SizeMismatch("labels have different sizes")
    if b_small.n > budget_n or p not in ORACLE_PRIMES:
        raise BudgetExceeded(f"oracle capped at n <= {budget_n}, p in {ORACLE_PRIMES}")
    return _normal_form(b_small)


def closure_oracle_flag(b_small, b_big, p, alt_order=False):
    """Exhaustive flag-search membership test for
    orbit(b_small) <= closure(orbit(b_big)) over F_p.

    The closure of the induced orbit is the set of pairs admitting a
    partial flag whose jumps are the rigid Levi block sizes of b_big, with
    x mapping each flag step into the previous one and the vector lying in
    the marked step.  ``alt_order`` reorders blocks within the marked and
    unmarked groups (descending instead of ascending), which must not
    change the answer.
    """
    xrows, ventries = _oracle_prelude(b_small, b_big, p, FLAG_ORACLE_BUDGET_N)
    comp, k = _rigid_blocks(b_big)
    if alt_order:
        comp = comp[:k][::-1] + comp[k:][::-1]
    return _flag_witness_exists(xrows, ventries, comp, k, p)


def _conjugations(n, p):
    """The actions v -> gv and x -> g x g^-1, on the tuple v and the flat
    tuple of the rows of x, as one pair of maps per generator g of
    GL_n(F_p) that applies at this n and p."""
    maps = []
    if n >= 2:
        def transvection_v(v):
            # g = I + e_12: v_1 gains v_2
            return ((v[0] + v[1]) % p, *v[1:])

        def transvection_x(x):
            # row 1 of x gains row 2, then column 2 loses column 1
            q = list(x)
            for j in range(n):
                q[j] = (q[j] + q[j + n]) % p
            for k in range(0, n * n, n):
                q[k + 1] = (q[k + 1] - q[k]) % p
            return tuple(q)

        # the n-cycle g e_j = e_{j+1}: (gv)_i = v_{i-1}, (g x g^-1)_ij = x_{i-1,j-1}
        shift = [(i - 1) % n for i in range(n)]
        maps += [(transvection_v, transvection_x),
                 (itemgetter(*shift), itemgetter(*(n * i + j for i in shift for j in shift)))]
    if n >= 1 and p > 2:
        z = next(z for z in range(2, p) if len({pow(z, k, p) for k in range(p - 1)}) == p - 1)
        z_inv = pow(z, -1, p)

        def dilation_v(v):
            # g = diag(z, 1, ..., 1): v_1 scales by z
            return (v[0] * z % p, *v[1:])

        def dilation_x(x):
            # row 1 of x scales by z, column 1 by z^-1
            q = list(x)
            for j in range(1, n):
                q[j] = q[j] * z % p
            for k in range(n, n * n, n):
                q[k] = q[k] * z_inv % p
            return tuple(q)

        maps.append((dilation_v, dilation_x))
    return maps


def _orbit_table(start, maps):
    """The orbit of ``start`` under ``maps``, breadth first, as (points,
    successors): ``successors[g][i]`` is the index of maps[g](points[i])."""
    points, index = [start], {start: 0}
    successors = [[] for _ in maps]
    for pt in points:
        for g, row in zip(maps, successors):
            q = g(pt)
            if q not in index:
                index[q] = len(points)
                points.append(q)
            row.append(index[q])
    return points, successors


def _orbit_walk(xrows, ventries, p):
    """Breadth-first walk of the GL_n(F_p)-orbit of (v, x) under the maps of
    :func:`_conjugations`: yields each orbit point once, as the flat tuple
    v + rows of x, starting with (v, x) itself.

    The group acts on v and on x apart, so the walk first tabulates the
    orbit of v and the orbit of x, and then walks pairs of their indices:
    it holds a byte per pair and a queue entry per orbit point, not the
    points themselves.
    """
    maps = _conjugations(len(ventries), p)
    vs, v_next = _orbit_table(tuple(ventries), [g for g, _ in maps])
    xs, x_next = _orbit_table(tuple(e for row in xrows for e in row), [h for _, h in maps])
    size = len(xs)
    seen = bytearray(len(vs) * size)
    seen[0] = 1
    queue = array("i", [0])
    yield vs[0] + xs[0]
    for code in queue:
        vi, xi = divmod(code, size)
        for v_row, x_row in zip(v_next, x_next):
            vj, xj = v_row[vi], x_row[xi]
            pair = vj * size + xj
            if not seen[pair]:
                seen[pair] = 1
                queue.append(pair)
                yield vs[vj] + xs[xj]


def closure_oracle_sweep(b_small, b_big, p):
    """Second, independent membership oracle: walk the GL_n(F_p)-orbit of
    b_small's representative and test each point (v, x) directly against
    the marked coordinate subspace and the strict block-upper pattern of
    the rigid datum of b_big.

    The walk is breadth first over the transvection I + e_12, the n-cycle
    permutation matrix and, for p > 2, diag(z, 1, ..., 1) with z a
    primitive root.  Conjugates of the transvection by powers of the cycle,
    and their commutators, are all the elementary transvections, which
    generate SL_n(F_p) (Taylor, The Geometry of the Classical Groups,
    1992); det diag(z, 1, ..., 1) = z generates F_p^*.
    """
    xrows, ventries = _oracle_prelude(b_small, b_big, p, SWEEP_ORACLE_BUDGET_N)
    comp, k = _rigid_blocks(b_big)
    n = b_small.n
    block_of = [bi for bi, size in enumerate(comp) for _ in range(size)]
    # flat indices that must vanish: v outside the marked blocks, x on and
    # below the diagonal blocks
    must_vanish = [*range(sum(comp[:k]), n),
                   *(n + n * r + c for r in range(n) for c in range(n)
                     if block_of[r] >= block_of[c])]
    return any(not any(map(pt.__getitem__, must_vanish))
               for pt in _orbit_walk(xrows, ventries, p))

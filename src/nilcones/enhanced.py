"""The enhanced module k^n + gl_n for GL_n.

Nilpotent GL_n-orbits on pairs (v, x) are labelled by bipartitions of n.
This module provides the dimension formula, normal-form representatives,
identification of the orbit of a concrete pair, induction of orbits from
Levi data (block compositions with one bipartition per block), rigidity,
and the closure order together with two independent finite-field oracles
that certify the combinatorial order.  One point budget,
WALK_BUDGET_POINTS, bounds both oracles by sizes computed from (n, p).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import itemgetter, mul

from .errors import BudgetExceeded, InvariantViolation, NotRigidDatum, SizeMismatch
from .fields import QQ, _is_prime
from .linalg import (
    Mat,
    Vec,
    _echelon_insert,
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

WALK_BUDGET_POINTS = 2 ** 20


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


@cache
def orbit_dim(b):
    """Orbit dimension n^2 - sum_j ((mu+nu)^tr_j)^2 + |mu|.

    Matches n^2 minus the infinitesimal stabilizer dimension of any
    representative over Q; the agreement is part of the test surface.

    Kept once per process for each label b, one int per distinct label
    asked: classes of size n ask for their blocks, the bipartitions of
    every m <= n (138 for n <= 6, 3,131 for n <=
    ``jordan_classes.CLASS_BUDGET_N`` = 12), and a listing of the orbits
    of size n for its own labels (24,842 at n = 20).
    """
    n = b.n
    lam_tr = transpose(add(b.mu, b.nu))
    return n * n - sum(c * c for c in lam_tr) + sum(b.mu)


@cache
def _chains(b):
    """(start rows, chain ends, entries of v, entries of x row by row) of
    b's normal form, as tuples kept once per process for each label b: x
    sends e_j to e_(j - 1) along chain i, of length mu_i + nu_i, and to 0
    at its start j, so the start rows (j, e_j) span ker x; v sums the
    depth-mu_i basis vectors of the first l(mu) chains.  The entries of v
    and x are 0 and 1, valid over every field, and x is flat, as
    :func:`_orbit_of` keys it."""
    n = b.n
    starts, ends, ventries = [], [], [0] * n
    off = 0
    for i, length in enumerate(add(b.mu, b.nu)):
        if i < len(b.mu):
            ventries[off + b.mu[i] - 1] = 1
        starts.append((off, (0,) * off + (1,) + (0,) * (n - off - 1)))
        off += length
        ends.append(off - 1)
    x = tuple(int(j == i + 1 and i not in ends) for i in range(n) for j in range(n))
    return tuple(starts), tuple(ends), tuple(ventries), x


def build_representative(b, field=QQ):
    """Normal-form representative of the orbit labelled b (see
    :func:`_chains`)."""
    *_, ventries, x = _chains(b)
    n = b.n
    return EnhancedElement(n, Vec._of(field, ventries),
                           Mat._of(field, [x[i * n:(i + 1) * n] for i in range(n)]))


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


@cache
def _rigid_blocks(b):
    """(block sizes, k, marked, x_vanish) of :func:`rigid_datum`, kept once
    per process for each label b: the blocks are the columns of mu
    ascending, then the columns of nu ascending, the first k marked.  A
    point (v, x) lies in the sweep's pattern when v vanishes from index
    ``marked`` on, outside the marked blocks, and the flat x vanishes at the
    indices ``x_vanish``, on and below the diagonal blocks."""
    mu_cols = sorted(transpose(b.mu))
    comp = (*mu_cols, *sorted(transpose(b.nu)))
    n = b.n
    block_of = [bi for bi, size in enumerate(comp) for _ in range(size)]
    return comp, len(mu_cols), sum(mu_cols), tuple(
        n * r + c for r in range(n) for c in range(n) if block_of[r] >= block_of[c])


def rigid_datum(b):
    """The unique (up to conjugacy) rigid datum inducing b: marked blocks
    are the columns of mu (ascending), unmarked blocks the columns of nu."""
    comp, k, *_ = _rigid_blocks(b)
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
    """All echelon bases F with span(S) <= F <= span(T), dim F = d, for
    reduced echelon rows S and T.

    Every pivot of S is a pivot of T, and T's rows at the pivots S lacks
    span a complement of S in T (a combination of them leads at one of
    those pivots, so none lies in S).  Each F is S, reduced at the pivots of
    one (d - s)-dimensional pattern of :func:`echelon_patterns` lifted into
    that complement, plus the lifted rows, which are 0 at every other pivot.
    Where a complement is taken (s < d < t), a row of S must be T's row at
    its pivot or reduce to zero mod T, else InvariantViolation.
    """
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
    rest = dict(T)
    for piv, row in S:
        if row != rest.pop(piv, None) and any(_residual(row, T, p)):
            raise InvariantViolation(f"S has a row outside T, for s = {s}, t = {t}")
    pivots, cols = list(rest), tuple(zip(*rest.values()))
    for pattern in echelon_patterns(t - s, d - s, p):
        lifted = [(pivots[prow.index(1)], tuple([sum(map(mul, prow, col)) % p for col in cols]))
                  for prow in pattern]
        yield tuple(sorted(lifted + [(piv, tuple(_residual(row, lifted, p))) for piv, row in S]))


def _chain_preimage(F, starts, ends, p):
    """The reduced echelon rows over F_p of {y : x y in span F}, for reduced
    echelon rows F and x the normal form with unit rows ``starts`` at its
    chain starts and chain ends ``ends`` (:func:`_chains`).

    x maps onto the w that vanish at every chain end, so the preimage is
    ker x (the start rows) plus F ∩ {w : w_e = 0 at every chain end e}, each
    row moved one step along its chain, (0,) + w[:-1] with its pivot + 1.
    For each e the last row nonzero at e clears e from the others and is
    dropped: it is 0 before its pivot and at every other pivot, so the rows
    stay reduced.  Moved, they are 0 at the chain starts, so they and the
    start rows, in pivot order, are reduced too."""
    rows = list(F)
    for e in ends:
        hits = [r for r, (_, row) in enumerate(rows) if row[e]]
        if hits:
            _, g = rows.pop(hits.pop())
            inv = pow(g[e], p - 2, p)
            for r in hits:
                piv, row = rows[r]
                c = row[e] * inv % p
                rows[r] = (piv, tuple([(a - c * b) % p for a, b in zip(row, g)]))
    rows = [(piv + 1, (0,) + row[:-1]) for piv, row in rows]
    rows += starts
    return tuple(sorted(rows))


def _flag_search(i, F, starts, ends, ventries, dims, k, p, failed):
    """True iff the flag whose step i - 1 is F (reduced echelon rows) extends
    to steps i, i + 1, ... of dimensions dims[i], ... with x mapping each
    step into the one before it and the vector in step k.  ``failed`` holds
    the states (i, F) already refuted in this search."""
    if i == len(dims):
        return True
    state = (i, F)
    if state in failed:
        return False
    T = _chain_preimage(F, starts, ends, p)
    S = F
    if i + 1 == k:
        if any(_residual(ventries, T, p)):
            failed.add(state)
            return False
        S = _echelon_insert(F, ventries, p)
    for F_next in _subspaces_between(S, T, dims[i], p):
        if _flag_search(i + 1, F_next, starts, ends, ventries, dims, k, p, failed):
            return True
    failed.add(state)
    return False


def closure_oracle_flag(b_small, b_big, p, alt_order=False):
    """Exhaustive flag-search membership test for
    orbit(b_small) <= closure(orbit(b_big)) over F_p.

    The closure of the induced orbit is the set of pairs admitting a
    partial flag whose jumps are the rigid Levi block sizes of b_big, with
    x mapping each flag step into the previous one and the vector lying in
    the marked step.  ``alt_order`` reorders blocks within the marked and
    unmarked groups (descending instead of ascending), which must not
    change the answer.

    p must be prime (ValueError otherwise): the search works mod p, and
    reads each step's preimage off the chains of b_small's normal form
    (:func:`_chain_preimage`).  Its memo ``failed`` holds states (i, F), F
    a subspace of F_p^n whose dimension d is one of the len(dims) flag
    dimensions.  There are [n, d]_p <= p^(d(n - d)) * prod_{j >= 1}
    1 / (1 - p^-j) < 3.47 * p^(d(n - d)) subspaces of dimension d, and
    d(n - d) is at most floor(n^2 / 4), so the memo has fewer than 3.47 *
    len(dims) * p^floor(n^2 / 4) entries.  The search runs where
    p^floor(n^2 / 4) <= WALK_BUDGET_POINTS: every (n, p) the sweep admits,
    and also (9, 2), (7, 3), (5, 7), (3, 1021), (2, p) for p <= 2^20 and
    (1, p) for every prime p.

    What depends on one label is kept once per process, one record per
    label: the chains of b_small (:func:`_chains`) and the rigid blocks of
    b_big (:func:`_rigid_blocks`); the memo ``failed`` lives for one query.
    """
    n = b_small.n
    if n != b_big.n:
        raise SizeMismatch("labels have different sizes")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    _walk_budget(p ** (n * n // 4))
    comp, k, *_ = _rigid_blocks(b_big)
    if alt_order:
        comp = comp[:k][::-1] + comp[k:][::-1]
    if k == 0 and b_small.mu:
        return False
    starts, ends, ventries, _ = _chains(b_small)
    return _flag_search(0, (), starts, ends, ventries, list(accumulate(comp)), k, p, set())


@cache
def _conjugations(n, p):
    """(v_maps, x_maps): the actions v -> gv and x -> g x g^-1, on the
    tuple v and the flat tuple of the rows of x, one entry of each tuple per
    generator g of GL_n(F_p) at this n and p (ValueError unless p is
    prime): I + e_12, the n-cycle permutation matrix and, for p > 2,
    diag(z, 1, ..., 1) with z a primitive root.  Conjugates of I + e_12 by
    powers of the cycle, and their commutators, are all the elementary
    transvections, which generate SL_n(F_p) (Taylor, The Geometry of the
    Classical Groups, 1992); det diag(z, 1, ..., 1) = z generates F_p^*.
    Kept once per process for each (n, p), so the maps are the same
    objects on every call and can key the tables of :func:`_orbit_of`."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    v_maps, x_maps = [], []
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
        v_maps += [transvection_v, itemgetter(*shift)]
        x_maps += [transvection_x, itemgetter(*(n * i + j for i in shift for j in shift))]
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

        v_maps.append(dilation_v)
        x_maps.append(dilation_x)
    return tuple(v_maps), tuple(x_maps)


def _walk_budget(points):
    """BudgetExceeded past WALK_BUDGET_POINTS points of an F_p oracle: the
    codes (one byte each) of a walk, or the p^floor(n^2 / 4) bound on the
    subspaces of one dimension that the flag search may memoise."""
    if points > WALK_BUDGET_POINTS:
        raise BudgetExceeded(f"F_p oracle capped at {WALK_BUDGET_POINTS} points, not {points}")


def _orbit_table(starts, maps):
    """The points reached from ``starts`` (distinct points) under ``maps``,
    breadth first, as (points, successors): ``successors[g][i]`` is the
    index of maps[g](points[i]).  One start gives the orbit of one point;
    a whole space closed under the maps gives that space, in its order."""
    points = list(starts)
    index = {pt: i for i, pt in enumerate(points)}
    successors = [[] for _ in maps]
    for pt in points:
        for g, row in zip(maps, successors):
            q = g(pt)
            if q not in index:
                index[q] = len(points)
                points.append(q)
            row.append(index[q])
    return points, successors


@cache
def _orbit_of(start, maps):
    """:func:`_orbit_table` of the one point ``start`` under ``maps``, as
    tuples: (points, successors), kept once per process for each (start,
    maps).  The maps of :func:`_conjugations` are the same objects for one
    (n, p) and differ between its v side and its x side, so the key tells
    the v point (1,) from the x point (1,) at n = 1.

    The oracles start at normal forms only.  So at one (n, p) the x
    tables, one for each lam = mu + nu (the x of the normal form depends
    only on lam), split the p^(n^2 - n) nilpotent matrices among them
    (Fine-Herstein), and each v table, one for each vector of a normal
    form (at most 2^n), is the orbit of 0 or the p^n - 1 nonzero vectors.
    The sweep runs where p^(n^2) <= WALK_BUDGET_POINTS: at (4, 2) the memo
    keeps 5 x tables of 4,096 points and 12 v tables of 166, at (2, 31) 2
    of 961 and 4 of 2,881, and at n = 1 one v table of p - 1 points."""
    points, successors = _orbit_table([start], maps)
    return tuple(points), tuple(map(tuple, successors))


def _orbit_pairs(v_next, x_next, size, start, seen):
    """Breadth-first walk of the index pairs (vi, xi) of one orbit, each
    once, from the code start = vi * size + xi: v_next and x_next are the
    successor tables of the v-points and of the x-points (``size`` of
    them) under the same maps, and each code walked is marked in the
    caller's bytearray ``seen``, one byte per code.

    The group acts on v and on x apart, so one orbit point is one pair of
    indices: the walk holds a byte per pair and a queue entry per orbit
    point, not the points themselves.
    """
    seen[start] = 1
    queue = array("i", [start])
    yield divmod(start, size)
    for code in queue:
        vi, xi = divmod(code, size)
        for v_row, x_row in zip(v_next, x_next):
            vj, xj = v_row[vi], x_row[xi]
            pair = vj * size + xj
            if not seen[pair]:
                seen[pair] = 1
                queue.append(pair)
                yield vj, xj


def _orbit_walk(v_maps, x_maps, v, x):
    """Breadth-first walk of the orbit of (v, x) (v the vector's entries, x
    the flat tuple of the matrix's rows, as :func:`_chains` keeps it) under
    maps as :func:`_conjugations` gives them: yields each orbit point once,
    as the flat tuple v + x, starting with (v, x) itself, in the order of
    :func:`_orbit_pairs`.  It reads the orbit tables of v and of x that
    :func:`_orbit_of` keeps, which the sweep shares."""
    vs, v_next = _orbit_of(tuple(v), v_maps)
    xs, x_next = _orbit_of(tuple(x), x_maps)
    for vi, xi in _orbit_pairs(v_next, x_next, len(xs), 0, bytearray(len(vs) * len(xs))):
        yield vs[vi] + xs[xi]


@cache
def _x_passes(start, maps, b):
    """One byte per point of the x table that :func:`_orbit_of` keeps for
    (start, maps), 1 where the flat x vanishes at the indices ``x_vanish``
    of b's rigid blocks (:func:`_rigid_blocks`) and 0 elsewhere.  Kept
    once per process for each (start, maps, b): at one (n, p) the x tables
    split the p^(n^2 - n) nilpotent matrices, so the memo holds at most
    that many bytes for each label b of size n, at (4, 2) 4,096 bytes for
    each of the 20 labels."""
    xs, _ = _orbit_of(start, maps)
    x_vanish = _rigid_blocks(b)[3]
    return bytes([not any(map(x.__getitem__, x_vanish)) for x in xs])


def closure_oracle_sweep(b_small, b_big, p):
    """Second, independent membership oracle: walk the GL_n(F_p)-orbit of
    b_small's representative (generators of :func:`_conjugations`) and
    test each point (v, x) directly against the marked coordinate subspace
    and the strict block-upper pattern of the rigid datum of b_big.

    The walk marks at most p^n * p^(n^2 - n) codes, a v-orbit times a
    nilpotent x-orbit (Fine-Herstein), so it runs where p^(n^2) <=
    WALK_BUDGET_POINTS.  The test splits as the action does: whether v
    vanishes outside the marked blocks is read once per point of the
    v-orbit, whether x vanishes on and below the diagonal blocks once per
    point of the x-orbit, and the walk of :func:`_orbit_pairs` looks for a
    pair that passes both.

    p must be prime (ValueError otherwise, before the budget is read).
    What depends on one label and p is kept once per process, so a query
    builds only the v pass test and its walk: the generators
    (:func:`_conjugations`, keyed on (n, p)), the record of each label,
    keyed on the label (:func:`_chains` of b_small, whose v and flat x start
    the walk, and :func:`_rigid_blocks` of b_big, the pattern), the orbit
    tables of b_small's v and x (:func:`_orbit_of`, keyed on the start point
    and the maps), which the memo bounds by the point budget, and the x pass
    test of b_small's x table against b_big (:func:`_x_passes`).
    """
    n = b_small.n
    if n != b_big.n:
        raise SizeMismatch("labels have different sizes")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    _walk_budget(p ** (n * n))
    v_maps, x_maps = _conjugations(n, p)
    *_, ventries, x_start = _chains(b_small)
    marked = _rigid_blocks(b_big)[2]
    vs, v_next = _orbit_of(ventries, v_maps)
    xs, x_next = _orbit_of(x_start, x_maps)
    v_ok = [not any(v[marked:]) for v in vs]
    x_ok = _x_passes(x_start, x_maps, b_big)
    if not any(v_ok) or not any(x_ok):
        return False
    seen = bytearray(len(vs) * len(xs))
    return any(v_ok[vi] and x_ok[xi] for vi, xi in _orbit_pairs(v_next, x_next, len(xs), 0, seen))

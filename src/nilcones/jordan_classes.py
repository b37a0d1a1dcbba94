"""Jordan classes of the enhanced and exotic modules.

A class collects the elements whose semisimple part has a fixed stabilizer
type (a partition lam of n, one part per eigenvalue) and whose nilpotent
datum is a fixed orbit in each stabilizer block.  Labels are therefore a
partition lam plus one bipartition of lam_i per part, with ties between
equal parts broken by the fixed total order on bipartitions.  Both modules
share the same label set, and the exotic class dimension doubles the orbit
part of the enhanced one while keeping the central part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement, product
from math import comb
from operator import add

from .errors import BudgetExceeded, InvariantViolation, NotDoubled, RepeatedEigenvalue, SizeMismatch
from .fields import QQ
from .linalg import Mat, Vec, generalized_eigenbasis
from .enhanced import EnhancedElement, build_representative, identify_orbit, orbit_dim
from .partitions import (
    _prefix_sums,
    _sums_leq,
    check_partition,
    enumerate_bipartitions,
    format_bipartition,
    halve,
    order_key,
    part_runs,
    partitions_of,
    positive_parts,
    sum_bipartitions,
)

CLASS_BUDGET_N = 12


@dataclass(frozen=True)
class ClassLabel:
    """Partition lam plus one bipartition per part, stored canonically:
    lam weakly decreasing, and blocks listed in the fixed total order
    (enumeration order: |mu| descending, then lexicographic) inside every
    run of equal parts.  The constructor canonicalises, so two labels of
    the same class compare equal."""

    lam: tuple
    blocks: tuple

    def __post_init__(self):
        lam = positive_parts(self.lam)
        blocks = tuple(self.blocks)
        if len(blocks) != len(lam):
            raise SizeMismatch("one bipartition per part required")
        for part, b in zip(lam, blocks):
            if b.n != part:
                raise SizeMismatch(f"block {b} does not fill a part of size {part}")
        pairs = sorted(zip(lam, blocks), key=lambda t: (-t[0], order_key(t[1])))
        object.__setattr__(self, "lam", check_partition(p for p, _ in pairs))
        object.__setattr__(self, "blocks", tuple(b for _, b in pairs))

    @classmethod
    def _of(cls, lam, blocks):
        """The label of lam and blocks that are already in canonical form,
        as :func:`enumerate_classes` builds them."""
        c = object.__new__(cls)
        object.__setattr__(c, "lam", lam)
        object.__setattr__(c, "blocks", blocks)
        return c

    @property
    def n(self):
        return sum(self.lam)

    @cached_property
    def _part_sums(self):
        """(part, prefix sums of its block padded to length 2n) per part;
        computed on first use and kept on the label."""
        length = 2 * self.n
        return [(p, _prefix_sums(b, length)) for p, b in zip(self.lam, self.blocks)]

    def __str__(self):
        return format_class_label(self)


def format_class_label(c, exponents=True):
    lam_text = ",".join(str(p) for p in c.lam)
    block_text = ",".join(format_bipartition(b, exponents) for b in c.blocks)
    return f"λ=[{lam_text}]; blocks=[{block_text}]"


def enumerate_classes(n):
    """Every canonical class label of size n, deterministically ordered."""
    if n > CLASS_BUDGET_N:
        raise BudgetExceeded(f"class enumeration capped at n <= {CLASS_BUDGET_N}")
    labels = {m: enumerate_bipartitions(m) for m in range(1, n + 1)}
    out = []
    for lam in sorted(partitions_of(n), key=lambda t: (len(t), t)):
        # each run of equal parts takes its blocks in the fixed total order
        runs = [combinations_with_replacement(labels[value], count)
                for value, count in part_runs(lam)]
        out.extend(ClassLabel._of(lam, tuple(chain.from_iterable(choice)))
                   for choice in product(*runs))
    return out


def class_count_formula(n):
    """Multiset count: sum over lam of prod_i C(|Q_i| + d_i - 1, d_i)."""
    from .partitions import multiplicity

    q_sizes = {}
    total = 0
    for lam in partitions_of(n):
        prod = 1
        for i in set(lam):
            if i not in q_sizes:
                q_sizes[i] = len(enumerate_bipartitions(i))
            d = multiplicity(lam, i)
            prod *= comb(q_sizes[i] + d - 1, d)
        total += prod
    return total


def class_dim_enhanced(c):
    """dim of the class: semisimple orbit part n^2 - sum lam_i^2, plus the
    per-block nilpotent orbit dimensions, plus the central l(lam)."""
    n = c.n
    return (n * n - sum(p * p for p in c.lam)
            + sum(orbit_dim(b) for b in c.blocks)
            + len(c.lam))


def class_dim_exotic(c):
    """Orbit part doubles, the central part does not."""
    ell = len(c.lam)
    return 2 * (class_dim_enhanced(c) - ell) + ell


def class_orbit_dim(c):
    """Dimension of the orbits inside the class (constant along it)."""
    return class_dim_enhanced(c) - len(c.lam)


def class_nilcone_orbit(c):
    """The unique nilpotent orbit whose closure is the intersection of the
    class closure with the nilpotent cone: induce all blocks, i.e. sum."""
    return sum_bipartitions(c.blocks)


def build_class_representative(c, eigenvalues=None, field=QQ):
    """An element of the class: x_s with eigenvalue a_i of multiplicity
    lam_i, plus the block normal form of each nilpotent label."""
    if eigenvalues is None:
        eigenvalues = tuple(range(1, len(c.lam) + 1))
    scalars = tuple(field.of(a) for a in eigenvalues)
    if len(scalars) != len(c.lam):
        raise SizeMismatch("need one eigenvalue per part")
    if len(set(scalars)) != len(scalars):
        raise RepeatedEigenvalue(f"eigenvalues must be pairwise distinct: {scalars}")
    reps = [build_representative(b, field) for b in c.blocks]
    blocks_x = [Mat.scalar(field, c.lam[i], scalars[i]).add(reps[i].x)
                for i in range(len(c.lam))]
    ventries = tuple(e for rep in reps for e in rep.v.entries)
    return EnhancedElement(c.n, Vec(field, ventries), Mat.block_diag(field, blocks_x))


def _eigen_blocks(x):
    """The part of the eigenspace split that depends on x alone: returns
    (p_inv, blocks), blocks listing (start, end, nilpotent block) per
    eigenvalue.

    In the basis p of :func:`generalized_eigenbasis`, x is block diagonal
    with blocks a I + (the nilpotent part of x there); a vector then has
    the coordinates p_inv v, and each block owns the slice start:end.
    """
    f = x.field
    eig, p_mat, p_inv = generalized_eigenbasis(x)
    x_conj = p_inv.mul(x).mul(p_mat).rows
    blocks = []
    off = 0
    for a, m in eig:
        end = off + m
        # x preserves each generalized eigenspace, so the conjugated
        # matrix must vanish outside the diagonal blocks
        if any(row[j] != f.zero for i, row in enumerate(x_conj)
               if not off <= i < end for j in range(off, end)):
            raise InvariantViolation(f"eigenvalue {a}: the conjugated x is not block diagonal")
        block = Mat(f, tuple(row[off:end] for row in x_conj[off:end]))
        blocks.append((off, end, block.sub(Mat.scalar(f, m, a))))
        off = end
    return p_inv, blocks


def _eigen_block_data(split, v):
    """Split (v, x) along the generalized eigenspaces of x, given
    split = _eigen_blocks(x); returns a list of (multiplicity, block
    EnhancedElement with nilpotent matrix)."""
    p_inv, blocks = split
    coords = p_inv.mul_vec(v).entries
    return [(end - off, EnhancedElement(end - off, Vec(v.field, coords[off:end]), block))
            for off, end, block in blocks]


def _class_label(split, v):
    """Class label of (v, x), given split = _eigen_blocks(x)."""
    data = _eigen_block_data(split, v)
    return ClassLabel(tuple(m for m, _ in data), tuple(identify_orbit(b) for _, b in data))


def identify_class(e):
    """Class label of an enhanced element whose spectrum splits: eigenvalue
    multiplicities give lam, and each eigenspace block is identified as an
    enhanced nilpotent orbit of its own size."""
    return _class_label(_eigen_blocks(e.x), e.v)


def identify_exotic_class(e):
    """Class label of an exotic element: eigenvalue multiplicities are all
    even and halve to lam; each block identifies through its doubled
    enhanced label."""
    from .exotic import embed_psi

    big = embed_psi(e)
    data = _eigen_block_data(_eigen_blocks(big.x), big.v)
    lam = []
    blocks = []
    for m, block in data:
        if m % 2:
            raise NotDoubled(f"eigenvalue multiplicity {m} is odd")
        lam.append(m // 2)
        big = identify_orbit(block)
        try:
            blocks.append(halve(big))
        except ValueError as exc:
            raise NotDoubled(str(exc)) from exc
    return ClassLabel(tuple(lam), tuple(blocks))


def class_closure_leq(c1, c2):
    """Candidate closure order on classes: c1 below c2 when the parts of
    lam(c2) can be merged onto the parts of lam(c1) (sums respected) so
    that every part of c1 dominates, in the orbit closure order, the orbit
    induced from the blocks merged into it.  The search compares padded
    interleaved prefix sums entrywise (see :func:`merge_exists`), which is
    :func:`nilcones.partitions.ah_closure_leq` on every part.

    On nilpotent classes (lam = (n)) this is the orbit closure order; on
    classes of equal orbit dimension it reproduces the dense-sheet
    criterion.  Reflexivity, transitivity, dimension monotonicity and
    those two specialisations are test surface; the rule beyond them is a
    reconstruction, not a cited theorem.
    """
    if c1.n != c2.n:
        raise SizeMismatch("labels have different sizes")
    return merge_exists(c1, c2, _sums_leq)


def merge_exists(c1, c2, accept):
    """True iff the parts of lam(c2) can be merged onto the parts of lam(c1)
    (sums respected) so that ``accept(target, induced)`` holds for every
    part of c1.  Both arguments are interleaved prefix sums padded to
    length 2n: target those of the part's block, induced those of the
    orbit induced from the c2 blocks merged into it, which is their
    entrywise sum.  Padded prefix sums determine the label, so
    ``operator.eq`` asks for the induced label itself.

    A backtracking search that places the c2 parts in turn.  Two parts
    of c1 with the same target and the same sum held so far (so the same
    room left) lead to the same searches, so only the first is tried; a
    key without the held sum would skip merges that exist.
    """
    items = c2._part_sums
    targets = c1._part_sums
    room = [p for p, _ in targets]
    held = [(0,) * len(s) for _, s in targets]

    def feasible(idx):
        if idx == len(items):
            return not any(room)
        size, sums = items[idx]
        seen = set()
        for t, (_, target) in enumerate(targets):
            before = held[t]
            if room[t] < size or (target, before) in seen:
                continue
            seen.add((target, before))
            room[t] -= size
            held[t] = tuple(map(add, before, sums))
            if (room[t] or accept(target, held[t])) and feasible(idx + 1):
                return True
            room[t] += size
            held[t] = before
        return False

    return feasible(0)

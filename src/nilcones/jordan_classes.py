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
from functools import cache, cached_property
from itertools import combinations_with_replacement
from math import comb
from operator import add

from .errors import BudgetExceeded, NotDoubled, RepeatedEigenvalue, SizeMismatch
from .fields import QQ
from .linalg import Mat, Vec, _eigenspace_types, eigenvalues_with_multiplicity
from .enhanced import EnhancedElement, build_representative, orbit_dim
from .exotic import embed_psi
from .partitions import (
    _prefix_sums,
    _sums_leq,
    check_partition,
    enumerate_bipartitions,
    format_bipartition,
    halve,
    multiplicity,
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

    @cached_property
    def n(self):
        return sum(self.lam)

    @cached_property
    def _part_sums(self):
        """(part, prefix sums of its block padded to length 2n) per part;
        computed on first use and kept on the label."""
        length = 2 * self.n
        return [(p, _prefix_sums(b, length)) for p, b in zip(self.lam, self.blocks)]

    @cached_property
    def _nilcone_sums(self):
        """The entrywise sum of the blocks' padded prefix sums: those of
        :func:`class_nilcone_orbit`, as prefix sums add over block sums."""
        return tuple(map(sum, zip(*(s for _, s in self._part_sums))))

    def __str__(self):
        return format_class_label(self)


def format_class_label(c):
    lam_text = ",".join(str(p) for p in c.lam)
    block_text = ",".join(format_bipartition(b) for b in c.blocks)
    return f"λ=[{lam_text}]; blocks=[{block_text}]"


def enumerate_classes(n):
    """Every canonical class label of size n, deterministically ordered."""
    if n > CLASS_BUDGET_N:
        raise BudgetExceeded(f"class enumeration capped at n <= {CLASS_BUDGET_N}")
    labels = {m: enumerate_bipartitions(m) for m in range(1, n + 1)}
    out = []
    for lam in sorted(partitions_of(n), key=lambda t: (len(t), t)):
        # each run of equal parts takes its blocks in the fixed total order;
        # the block tuples grow run by run, the earlier runs varying slowest
        blocks = [()]
        for value, count in part_runs(lam):
            combos = list(combinations_with_replacement(labels[value], count))
            blocks = [head + combo for head in blocks for combo in combos]
        out.extend([ClassLabel._of(lam, b) for b in blocks])
    return out


def class_count_formula(n):
    """Multiset count: sum over lam of prod_i C(|Q_i| + d_i - 1, d_i)."""
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


def identify_class(e):
    """Class label of an enhanced element whose spectrum splits.

    k^n is the direct sum of the generalized eigenspaces V_a of x, and x,
    v and the stabilizer of x_s, the product of the GL(V_a), split along
    it.  So the class of (v, x) is fixed by the eigenvalue multiplicities
    m_a, which give lam, and by the GL(V_a)-orbit of each nilpotent pair
    (v_a, x - a), v_a the component of v in V_a.  That orbit is fixed by
    the Jordan type of x - a on V_a and its type on V_a / k[x]v_a (Achar
    and Henderson, Adv. Math. 219, 2008).  Both are read off one image
    chain of x - a on k^n, with no eigenbasis
    (:func:`nilcones.linalg._eigenspace_types`).
    """
    eig = eigenvalues_with_multiplicity(e.x)
    return ClassLabel(tuple(m for _, m in eig), tuple(_eigenspace_types(e.x, e.v, eig)))


def identify_exotic_class(e):
    """Class label of an exotic element: the GL_2n class label of its
    embedding, halved (NotDoubled if its parts or blocks are not doubled)."""
    label = identify_class(embed_psi(e))
    if any(m % 2 for m in label.lam):
        raise NotDoubled(f"eigenvalue multiplicities {label.lam} are not all even")
    try:
        blocks = tuple(map(halve, label.blocks))
    except ValueError as exc:
        raise NotDoubled(str(exc)) from exc
    return ClassLabel(tuple(m // 2 for m in label.lam), blocks)


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

    Two tests refuse most pairs before any search.  Most pairs fail on
    their partitions alone, which :func:`_parts_merge` decides.  Of the
    rest, most fail on their nilcone orbits: ``accept`` must be closed
    under entrywise sums (``_sums_leq`` and ``operator.eq`` are), and then
    a merge accepted part by part is accepted on the sums over all parts,
    which are the prefix sums of the two classes' nilcone orbits
    (``_nilcone_sums``).  So a merge forces ``accept`` on those.  The
    geometric order needs the same under ``<=``: a class closure meets the
    nilcone in the closure of its nilcone orbit (Borho and Kraft, Comment.
    Math. Helv. 54, 1979), so c1 below c2 puts the nilcone orbit of c1 below
    that of c2.
    """
    return (_parts_merge(c1.lam, c2.lam)
            and accept(c1._nilcone_sums, c2._nilcone_sums)
            and _merge_search(c2._part_sums, c1._part_sums, accept, 0, list(c1.lam),
                              [(0,) * len(s) for _, s in c1._part_sums]))


@cache
def _parts_merge(lam1, lam2):
    """The merge search on the parts alone, every target accepted; kept
    per pair of partitions."""
    return _merge_search([(q, (q,)) for q in lam2], [(p, (p,)) for p in lam1],
                         lambda target, held: True, 0, list(lam1), [(0,)] * len(lam1))


def _merge_search(items, targets, accept, idx, room, held):
    """A backtracking search that places the items (size, sums) from idx
    on in turn; room and held are what each target (size, target sums)
    still takes and the sums placed on it so far.  Two targets with the
    same target sums and the same sums held so far (so the same room left)
    lead to the same searches, so only the first is tried; a key without
    the held sums would skip merges that exist.
    """
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
        if ((room[t] or accept(target, held[t]))
                and _merge_search(items, targets, accept, idx + 1, room, held)):
            return True
        room[t] += size
        held[t] = before
    return False

"""Sheets and invariant-theoretic quotients.

A sheet is an irreducible component of a rank stratum (the locus of fixed
orbit dimension); its dense Jordan class has every nilpotent block equal
to one of the two rigid shapes, so sheets are labelled by a partition plus
one VEC/ZERO flag per part.  The quotient of either module by its group is
affine n-space; the invariants of a pair are the characteristic polynomial
coefficients of the matrix part, with the exotic ones halved through an
exact polynomial square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    BudgetExceeded,
    CharTwo,
    ModuleMismatch,
    NonSplitSpectrum,
    NotPerfectSquare,
    SizeMismatch,
)
from .enhanced import EnhancedElement
from .fields import GF
from .jordan_classes import (
    ClassLabel,
    _class_label,
    _eigen_blocks,
    class_closure_leq,
    class_orbit_dim,
    enumerate_classes,
)
from .linalg import Mat, Vec, charpoly
from .partitions import (
    Bipartition,
    check_partition,
    multiplicity,
    part_runs,
    partitions_of,
    positive_parts,
    transpose,
)

SHEET_BUDGET_N = 20
MAXIMALITY_BUDGET_N = 7

VEC = "VEC"
ZERO = "ZERO"


@dataclass(frozen=True)
class SheetLabel:
    """Partition plus one flag per part: VEC parts carry the full-vector
    rigid orbit (1^m; ), ZERO parts the zero orbit (; 1^m).  Canonical form
    puts VEC before ZERO inside runs of equal parts."""

    lam: tuple
    choice: tuple

    def __post_init__(self):
        lam = positive_parts(self.lam)
        choice = tuple(self.choice)
        if len(choice) != len(lam):
            raise SizeMismatch("one flag per part required")
        if any(c not in (VEC, ZERO) for c in choice):
            raise ValueError(f"flags must be VEC or ZERO: {choice}")
        pairs = sorted(zip(lam, choice), key=lambda t: (-t[0], t[1] != VEC))
        object.__setattr__(self, "lam", check_partition(p for p, _ in pairs))
        object.__setattr__(self, "choice", tuple(c for _, c in pairs))

    @property
    def n(self):
        return sum(self.lam)

    def __str__(self):
        flags = ",".join("V" if c == VEC else "Z" for c in self.choice)
        return f"λ=[{','.join(str(p) for p in self.lam)}]; flags=[{flags}]"


def sheet_class_label(s):
    """The Jordan class dense in the sheet (rigid nilpotent data)."""
    blocks = tuple(
        Bipartition((1,) * m, ()) if c == VEC else Bipartition((), (1,) * m)
        for m, c in zip(s.lam, s.choice)
    )
    return ClassLabel(s.lam, blocks)


def enumerate_sheets(n):
    """All sheet labels of size n: per run of d equal parts, pick how many
    carry the vector."""
    if n > SHEET_BUDGET_N:
        raise BudgetExceeded(f"sheet enumeration capped at n <= {SHEET_BUDGET_N}")
    out = []
    for lam in sorted(partitions_of(n), key=lambda t: (len(t), t)):
        runs = [d for _, d in part_runs(lam)]
        for vec_counts in product(*(range(d + 1) for d in runs)):
            choice = []
            for d, k in zip(runs, vec_counts):
                choice.extend([VEC] * k + [ZERO] * (d - k))
            out.append(SheetLabel(lam, tuple(choice)))
    return out


def sheet_count_formula(n):
    """sum over lam of prod_i (d_i(lam) + 1)."""
    total = 0
    for lam in partitions_of(n):
        prod = 1
        for i in set(lam):
            prod *= multiplicity(lam, i) + 1
        total += prod
    return total


def sheet_dim_enhanced(s):
    """(n^2 - sum lam_i^2) + sum of VEC parts + l(lam)."""
    n = s.n
    return (n * n - sum(p * p for p in s.lam)
            + sum(m for m, c in zip(s.lam, s.choice) if c == VEC)
            + len(s.lam))


def sheet_dim_exotic(s):
    ell = len(s.lam)
    return 2 * (sheet_dim_enhanced(s) - ell) + ell


def sheet_nilpotent_orbit(s):
    """The one nilpotent orbit in the sheet closure: mu counts VEC parts of
    each height, nu counts ZERO parts."""
    vec_parts = tuple(sorted((m for m, c in zip(s.lam, s.choice) if c == VEC), reverse=True))
    zero_parts = tuple(sorted((m for m, c in zip(s.lam, s.choice) if c == ZERO), reverse=True))
    return Bipartition(transpose(vec_parts), transpose(zero_parts))


def rank_stratum(n, k):
    """All classes whose orbits have dimension exactly k."""
    return [c for c in enumerate_classes(n) if class_orbit_dim(c) == k]


def sheets_are_maximal_check(n):
    """True iff inside every rank stratum the classes maximal for the class
    closure order are exactly the sheet labels' dense classes."""
    if n > MAXIMALITY_BUDGET_N:
        raise BudgetExceeded(f"maximality check capped at n <= {MAXIMALITY_BUDGET_N}")
    classes = enumerate_classes(n)
    strata = {}
    for c in classes:
        strata.setdefault(class_orbit_dim(c), []).append(c)
    maximal = set()
    for group in strata.values():
        for c in group:
            if not any(c2 != c and class_closure_leq(c, c2) for c2 in group):
                maximal.add(c)
    sheet_classes = {sheet_class_label(s) for s in enumerate_sheets(n)}
    return maximal == sheet_classes


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantVector:
    """The n generating invariants evaluated at an element, lowest degree
    first (coefficients c_1..c_n of the reduced characteristic polynomial)."""

    coefficients: tuple

    def is_zero(self):
        return all(c == 0 for c in self.coefficients)


def enhanced_invariants(e):
    """Characteristic polynomial coefficients of the matrix part; the
    vector part contributes no invariants."""
    return InvariantVector(tuple(charpoly(e.x)))


def _poly_square_root(field, coeffs):
    """Monic square root: given (c_1..c_2n) of a monic degree-2n polynomial,
    return (b_1..b_n) with (t^n + sum b_i t^{n-i})^2 matching, or raise."""
    two = field.of(2)
    if field.char == 2:
        raise CharTwo("polynomial square root needs characteristic != 2")
    m = len(coeffs)
    if m % 2:
        raise NotPerfectSquare("odd degree")
    n = m // 2
    b = [field.one] + [field.zero] * n
    for k in range(1, n + 1):
        acc = coeffs[k - 1]
        for i in range(1, k):
            acc = field.sub(acc, field.mul(b[i], b[k - i]))
        b[k] = field.div(acc, two)
    for k in range(n + 1, 2 * n + 1):
        acc = field.zero
        for i in range(k - n, n + 1):
            acc = field.add(acc, field.mul(b[i], b[k - i]))
        if acc != coeffs[k - 1]:
            raise NotPerfectSquare(f"coefficient mismatch at degree {2 * n - k}")
    return tuple(b[1:])


def exotic_invariants(e):
    """The n generating invariants of an exotic pair: the characteristic
    polynomial of the 2n x 2n matrix part is a perfect square p(t)^2 and
    the coefficients of p are returned.  A failed square root signals data
    that are not a valid exotic element."""
    cp = charpoly(e.x)
    return InvariantVector(_poly_square_root(e.field, tuple(cp)))


def same_fiber(e1, e2):
    """True iff both elements map to the same point of the affine quotient."""
    if type(e1) is not type(e2):
        raise ModuleMismatch("elements live in different modules")
    if e1.field != e2.field:
        raise ModuleMismatch("elements live over different fields")
    if isinstance(e1, EnhancedElement):
        if e1.n != e2.n:
            raise ModuleMismatch("elements have different ranks")
        return enhanced_invariants(e1) == enhanced_invariants(e2)
    return exotic_invariants(e1) == exotic_invariants(e2)


def fiber_census(n, p):
    """Walk every point of F_p^n x gl_n(F_p), bucket by invariant vector,
    and classify the points with split spectrum by their Jordan class.

    The invariants and the eigenspace split depend on x alone, so they are
    computed once per matrix; each vector then only maps through the
    eigenbasis.  Returns (fibers, nonsplit_count): fibers maps each
    invariant vector to a dict counting class labels.  Capped at n <= 2,
    p in {3, 5}.
    """
    if n > 2 or p not in (3, 5):
        raise BudgetExceeded("fiber census capped at n <= 2, p in {3, 5}")
    field = GF(p)
    vectors = [Vec(field, ventries) for ventries in product(range(p), repeat=n)]
    fibers = {}
    nonsplit = 0
    for xentries in product(range(p), repeat=n * n):
        x = Mat(field, tuple(xentries[i * n:(i + 1) * n] for i in range(n)))
        bucket = fibers.setdefault(tuple(charpoly(x)), {})
        try:
            split = _eigen_blocks(x)
        except NonSplitSpectrum:
            nonsplit += len(vectors)
            continue
        for v in vectors:
            label = _class_label(split, v)
            bucket[label] = bucket.get(label, 0) + 1
    return fibers, nonsplit

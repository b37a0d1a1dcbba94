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
from fractions import Fraction
from itertools import product
from operator import mul

from .errors import (
    BudgetExceeded,
    CharTwo,
    InvariantViolation,
    NonSplitSpectrum,
    NotPerfectSquare,
    SizeMismatch,
)
from .fields import GF
from .jordan_classes import (
    ClassLabel,
    _class_of,
    class_closure_leq,
    class_orbit_dim,
    enumerate_classes,
)
from .linalg import Mat, Vec, _charpoly_ints, charpoly, generalized_eigenbasis
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
            if not any(c2 is not c and class_closure_leq(c, c2) for c2 in group):
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


def _square_root_ints(field, c, d):
    """(b_1, ..., b_n): the monic square root t^n + b_1 t^{n-1} + ... + b_n
    of the monic polynomial with coefficients c_k / d^k, c an int list
    highest degree first of length 2n + 1 (d is 1 over F_p, as a matrix's
    den is); NotPerfectSquare when it is no square.

    Over Q the scaled polynomial sum c_k s^{2n-k} (s = d t) is monic with
    int coefficients, so by Gauss's lemma a monic square root of it has
    int coefficients beta_k, and b_k = beta_k / d^k.  The recurrence
    2 beta_k = c_k - sum_{0<i<k} beta_i beta_{k-i} then halves exactly in Z,
    and an odd right side proves that no square root exists.  Over F_p the
    halving is a product with (p + 1) / 2.
    """
    p = field.char
    if p == 2:
        raise CharTwo("polynomial square root needs characteristic != 2")
    if len(c) % 2 == 0:
        raise NotPerfectSquare("odd degree")
    n = len(c) // 2
    half = (p + 1) // 2
    beta = [1]
    for k in range(1, n + 1):
        acc = c[k] - sum(beta[i] * beta[k - i] for i in range(1, k))
        if p:
            beta.append(acc * half % p)
        elif acc % 2:
            raise NotPerfectSquare(f"odd coefficient at degree {2 * n - k}")
        else:
            beta.append(acc // 2)
    for k in range(n + 1, 2 * n + 1):
        acc = sum(beta[i] * beta[k - i] for i in range(k - n, n + 1)) - c[k]
        if acc % p if p else acc:
            raise NotPerfectSquare(f"coefficient mismatch at degree {2 * n - k}")
    return tuple(beta[k] if p else Fraction(beta[k], d ** k) for k in range(1, n + 1))


def exotic_invariants(e):
    """The n generating invariants of an exotic pair: the characteristic
    polynomial of the 2n x 2n matrix part is a perfect square p(t)^2 and
    the coefficients of p are returned.  They are computed on ints: the
    characteristic polynomial of d x (d the denominator of x) and its
    square root have int coefficients (Gauss's lemma), see
    :func:`_square_root_ints`.  A failed square root signals data that are
    not a valid exotic element."""
    return InvariantVector(_square_root_ints(e.field, *_charpoly_ints(e.x)))


def _eigen_blocks(x):
    """The part of a census key that depends on x alone: returns
    (eig, p_inv, shape), eig the (eigenvalue, multiplicity) pairs.

    In the basis p of :func:`generalized_eigenbasis`, x is block diagonal
    with blocks a I + N_a, one per (a, m) of eig; shape lists the int rows
    of each N_a.  A vector has the coordinates p_inv v there, and the class
    label of the pair depends only on shape and those coordinates.
    """
    f = x.field
    eig, p_mat, p_inv = generalized_eigenbasis(x)
    x_conj = p_inv.mul(x).mul(p_mat)
    shape = []
    off = 0
    for a, m in eig:
        end = off + m
        # x preserves each generalized eigenspace, so the conjugated
        # matrix must vanish outside the diagonal blocks
        if any(row[j] for i, row in enumerate(x_conj.num) if not off <= i < end
               for j in range(off, end)):
            raise InvariantViolation(f"eigenvalue {a}: the conjugated x is not block diagonal")
        block = Mat._of(f, (row[off:end] for row in x_conj.num[off:end]), x_conj.den)
        shape.append(block.sub(Mat.scalar(f, m, a)).num)
        off = end
    return eig, p_inv, tuple(shape)


def fiber_census(n, p):
    """Walk every point of F_p^n x gl_n(F_p), bucket by invariant vector,
    and classify the points with split spectrum by their Jordan class.

    The invariants and the eigenspace split depend on x alone, so they are
    computed once per matrix.  Every point is still walked and counted, but
    its class label depends only on the nilpotent blocks of x in the
    eigenbasis and the vector's coordinates there (:func:`_eigen_blocks`),
    so a dict kept for this call maps that key to the label and each
    distinct key is identified once (650 keys for the 15,625 points at
    n = 2, p = 5).  The coordinates are read off the int rows of p_inv and
    the vector's residues.  A new key's label is read off the pair itself,
    as :func:`nilcones.jordan_classes.identify_class` does, with the
    eigenvalues the split found.  Returns (fibers, nonsplit_count): fibers
    maps each invariant vector to a dict counting class labels.  Capped at
    n <= 2, p in {2, 3, 5}.
    """
    if n > 2 or p not in (2, 3, 5):
        raise BudgetExceeded("fiber census capped at n <= 2, p in {2, 3, 5}")
    field = GF(p)
    vectors = list(product(range(p), repeat=n))
    fibers = {}
    labels = {}
    nonsplit = 0
    for xentries in product(range(p), repeat=n * n):
        x = Mat(field, tuple(xentries[i * n:(i + 1) * n] for i in range(n)))
        bucket = fibers.setdefault(tuple(charpoly(x)), {})
        try:
            eig, p_inv, shape = _eigen_blocks(x)
        except NonSplitSpectrum:
            nonsplit += len(vectors)
            continue
        for v in vectors:
            # the block sizes in shape fix where each block's slice starts;
            # p_inv has den 1 over F_p, so the coordinates are residues
            key = shape, tuple(sum(map(mul, row, v)) % p for row in p_inv.num)
            label = labels.get(key)
            if label is None:
                label = labels[key] = _class_of(Vec._of(field, v), x, eig)
            bucket[label] = bucket.get(label, 0) + 1
    return fibers, nonsplit

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

from .enhanced import EnhancedElement, _conjugations, _orbit_pairs, _orbit_table, _walk_budget
from .errors import BudgetExceeded, CharTwo, NonSplitSpectrum, NotPerfectSquare, SizeMismatch
from .fields import GF
from .jordan_classes import (
    ClassLabel,
    _parts_merge,
    class_closure_leq,
    class_orbit_dim,
    enumerate_classes,
    identify_class,
)
from .linalg import Mat, Vec, _charpoly_ints, charpoly
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
    """The Jordan class dense in the sheet (rigid nilpotent data).  The
    sheet label is canonical, VEC before ZERO inside each run of equal
    parts, and :func:`nilcones.partitions.order_key` puts (1^m; ) before
    (; 1^m), so its blocks are already in canonical order."""
    blocks = tuple(
        Bipartition._of((1,) * m, ()) if c == VEC else Bipartition._of((), (1,) * m)
        for m, c in zip(s.lam, s.choice)
    )
    return ClassLabel._of(s.lam, blocks)


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
    closure order are exactly the sheet labels' dense classes (see
    :func:`_maximal_classes`)."""
    if n > MAXIMALITY_BUDGET_N:
        raise BudgetExceeded(f"maximality check capped at n <= {MAXIMALITY_BUDGET_N}")
    sheet_classes = {sheet_class_label(s) for s in enumerate_sheets(n)}
    return _maximal_classes(enumerate_classes(n)) == sheet_classes


def _maximal_classes(classes):
    """The set of classes c with no other class c2 of the same rank stratum
    (the same :func:`class_orbit_dim`) such that ``class_closure_leq(c,
    c2)``.

    Each stratum is grouped by lam, and :func:`_parts_merge` is asked once
    per pair of partitions, so a class meets only the candidates whose
    partition merges onto its own; ``class_closure_leq`` refuses the others
    by that same test.  The candidates are tried with more parts first: in
    one stratum the class dimension is the orbit dimension plus l(lam), so
    these are the larger classes.  ``any`` runs over the same candidates in
    every order, so the order changes which witness is found and not the
    set returned.  In this order every pair that reaches the merge search
    of :func:`merge_exists` is a witness that succeeds, one per class that
    is not maximal (539 of the 604 classes at n = 6, 176 of 212 at n = 5):
    for a maximal class the partition test and the nilcone test refuse
    every candidate.
    """
    strata = {}
    for c in classes:
        strata.setdefault(class_orbit_dim(c), {}).setdefault(c.lam, []).append(c)
    maximal = set()
    for by_lam in strata.values():
        lams = sorted(by_lam, key=len, reverse=True)
        for lam, group in by_lam.items():
            candidates = [c2 for lam2 in lams if _parts_merge(lam, lam2) for c2 in by_lam[lam2]]
            for c in group:
                if not any(c2 is not c and class_closure_leq(c, c2) for c2 in candidates):
                    maximal.add(c)
    return maximal


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


def fiber_census(n, p):
    """Count the points of F_p^n x gl_n(F_p) by invariant vector and, where
    the spectrum splits, by Jordan class.

    Both are constant on GL_n(F_p)-orbits, so the census walks orbits, not
    points: :func:`nilcones.enhanced._orbit_table` tabulates all of F_p^n
    and all of gl_n(F_p) under :func:`nilcones.enhanced._conjugations`, and
    each unseen pair starts an :func:`nilcones.enhanced._orbit_pairs` walk
    that counts its orbit, whose first point alone is bucketed and
    identified (85 orbits for the 15,625 points at n = 2, p = 5).  Returns
    (fibers, nonsplit_count): fibers maps each invariant vector to a dict
    counting class labels.  It walks all p^(n + n^2) points, at most
    ``enhanced.WALK_BUDGET_POINTS`` (the largest p at n = 1 to 4: 1021, 7, 3, 2),
    and refuses a p that is not prime (``GF``) before it reads the budget.
    """
    field = GF(p)
    _walk_budget(p ** (n + n * n))
    v_maps, x_maps = _conjugations(n, p)
    vs, v_next = _orbit_table(product(range(p), repeat=n), v_maps)
    xs, x_next = _orbit_table(product(range(p), repeat=n * n), x_maps)
    seen = bytearray(len(vs) * len(xs))
    fibers = {}
    nonsplit = 0
    for code in range(len(seen)):
        if seen[code]:
            continue
        size = sum(1 for _ in _orbit_pairs(v_next, x_next, len(xs), code, seen))
        vi, xi = divmod(code, len(xs))
        x = Mat(field, tuple(xs[xi][i * n:(i + 1) * n] for i in range(n)))
        bucket = fibers.setdefault(tuple(charpoly(x)), {})
        try:
            label = identify_class(EnhancedElement(n, Vec(field, vs[vi]), x))
        except NonSplitSpectrum:
            nonsplit += size
            continue
        bucket[label] = bucket.get(label, 0) + size
    return fibers, nonsplit

"""Executable verification sweeps.

Each suite returns a list of check dicts (name, status, count, details)
aggregating the library's cross-validation surface: dimension doubling
against stabilizer oracles, the closure order against the flag and sweep
oracles, induction laws, class combinatorics, quotient invariants, and the
replay of the non-unique Jordan decomposition example.  The command line
front end serialises these reports as JSON.
"""

from __future__ import annotations

import operator
import random
import time
from itertools import chain, product

from .errors import BudgetExceeded
from .fields import QQ
from .linalg import (
    Mat,
    Vec,
    generalized_eigenbasis,
    inverse,
    jordan_chevalley_split,
    limit_along_cocharacter,
    nullspace,
    random_gl,
    random_sp,
    stabilizer_dim_gl,
    stabilizer_dim_sp,
    stabilizer_system,
)
from .partitions import Composition, ah_closure_leq, double, enumerate_bipartitions
from .enhanced import (
    WALK_BUDGET_POINTS,
    EnhancedElement,
    InductionDatum,
    act,
    build_representative,
    closure_oracle_flag,
    closure_oracle_sweep,
    identify_orbit,
    induce,
    induce_from_vector,
    induction_representative,
    is_rigid,
    jkv_decompose,
    orbit_dim,
    rigid_datum,
    _chains,
    _conjugations,
    _orbit_walk,
)
from .exotic import ExoticElement, embed_phi, embed_psi, exotic_orbit_dim
from .jordan_classes import (
    ClassLabel,
    build_class_representative,
    class_closure_leq,
    class_count_formula,
    class_dim_enhanced,
    class_dim_exotic,
    class_nilcone_orbit,
    class_orbit_dim,
    enumerate_classes,
    identify_class,
    identify_exotic_class,
    merge_exists,
)
from .sheets import (
    enhanced_invariants,
    enumerate_sheets,
    exotic_invariants,
    fiber_census,
    sheet_count_formula,
    sheets_are_maximal_check,
)

DEFAULT_SEED = 20240913
# classes whose identification suite_classes checks: all of them up to
# n = 4 (75 classes), a seeded sample of 75 of the 212 at n = 5 (0.25 s)
IDENTIFY_SAMPLE = 75


class _Checker:
    """Collects check records, timing the stretch since the previous one."""

    def __init__(self):
        self._last = time.monotonic()
        self.checks = []

    def add(self, name, ok, count, details=""):
        now = time.monotonic()
        self.checks.append({
            "name": name,
            # a check that counted nothing has shown nothing
            "status": "skipped" if count == 0 else "pass" if ok else "fail",
            "count": count,
            "details": details,
            "elapsed_seconds": round(now - self._last, 3),
        })
        self._last = now

    def each(self, name, items, ok):
        """One check over ``items``: it counts them, passes when ``ok(item)``
        holds on every one, and names the first three failures."""
        count, failures = 0, []
        for count, item in enumerate(items, 1):
            if not ok(item):
                failures.append(item)
        self.add(name, not failures, count, "; ".join(map(str, failures[:3])))


def _compositions(n):
    """All ordered compositions of n."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return out


def _all_data(comp):
    """Every induction datum on the given block sizes (mark irrelevant)."""
    pools = [enumerate_bipartitions(size) for size in comp]
    for blocks in product(*pools):
        yield InductionDatum(Composition(comp, k=0), tuple(blocks))


def suite_doubling(n):
    """Orbit dimension formula vs. the gl, sp and doubled-gl stabilizer
    oracles, for every label of size <= n over Q.

    The symplectic orbit dimension is twice the enhanced one.  The GL_2n
    orbit of the embedded pair carries the doubled label (mu u mu; nu u nu)
    and therefore has dimension 4*dim - 2|mu|; the oracle checks that exact
    value (it equals 4*dim only when mu is empty).
    """
    if n > 4:
        raise BudgetExceeded("doubling suite capped at n <= 4")
    checker = _Checker()
    # (label, enhanced dim, exotic dim, GL_2n label, GL_2n dim) per label
    rows = []
    for m in range(1, n + 1):
        for b in enumerate_bipartitions(m):
            rep = build_representative(b)
            exo_rep = embed_phi(rep)
            big_rep = embed_psi(exo_rep)
            rows.append((b, m * m - stabilizer_dim_gl(rep.v, rep.x),
                         2 * m * m + m - stabilizer_dim_sp(exo_rep.v, exo_rep.x),
                         identify_orbit(big_rep),
                         4 * m * m - stabilizer_dim_gl(big_rep.v, big_rep.x)))

    def doubles(row):
        b, enh, exo, _, _ = row
        return enh == orbit_dim(b) and exo == 2 * enh == exotic_orbit_dim(b)

    def transfers(row):
        b, _, _, label, big = row
        return (label == double(b)
                and big == orbit_dim(label) == 4 * orbit_dim(b) - 2 * sum(b.mu))

    checker.each("sp stabilizer oracle doubles the enhanced dimension", rows, doubles)
    checker.each("gl_2n oracle matches the doubled label (4*dim - 2|mu|)", rows, transfers)
    return checker.checks


def suite_closure(n, p):
    """Combinatorial closure order against the flag oracle (all ordered
    pairs) and the alternative block ordering, and, where p^(n^2) <=
    WALK_BUDGET_POINTS, the orbit-walk oracle and the walk's point count.

    The flag oracle's own bound, p^floor(n^2 / 4), admits every (n, p) the
    walk does; past it the oracle raises BudgetExceeded and so does the
    suite."""
    checker = _Checker()
    labels = enumerate_bipartitions(n)
    pairs = list(product(labels, repeat=2))
    checker.each(f"flag oracle agrees at n={n}, p={p}", pairs,
                 lambda pair: closure_oracle_flag(*pair, p) == ah_closure_leq(*pair))
    checker.each("flag oracle independent of block ordering", pairs,
                 lambda pair: (closure_oracle_flag(*pair, p, alt_order=True)
                               == ah_closure_leq(*pair)))
    if p ** (n * n) <= WALK_BUDGET_POINTS:
        checker.each(f"group sweep agrees at n={n}, p={p}", pairs,
                     lambda pair: closure_oracle_sweep(*pair, p) == ah_closure_leq(*pair))
        # the orbits partition the p^n * p^(n^2 - n) points of the nilcone
        # (Fine-Herstein count of nilpotent matrices)
        maps = _conjugations(n, p)
        orbits = [set(_orbit_walk(*maps, v, x)) for *_, v, x in map(_chains, labels)]
        points = sum(map(len, orbits))
        distinct = len(set().union(*orbits))
        checker.add(f"orbits partition the {p ** (n * n)} nilcone points at n={n}, p={p}",
                    points == distinct == p ** (n * n), points,
                    f"{points} orbit points, {distinct} distinct")
    return checker.checks


def suite_induction(n):
    """Transitivity, codimension preservation, rigid classification and the
    rigid-datum round trip, exhaustively in the block combinatorics."""
    if n > 6:
        raise BudgetExceeded("induction suite capped at n <= 6")
    checker = _Checker()
    # each datum with its induced label, which every refinement chain reuses
    data = [(d, induce(d)) for comp in _compositions(n) for d in _all_data(comp)]

    def preserves_codimension(item):
        d, induced = item
        codim_blocks = sum(size + size * size - orbit_dim(b)
                           for size, b in zip(d.composition.parts, d.per_block))
        return n + n * n - orbit_dim(induced) == codim_blocks

    checker.each("induction preserves codimension", data, preserves_codimension)

    def transitive(chain):
        # grouping partitions the blocks of d into consecutive runs: induce
        # within each run, then from the coarse Levi of the runs
        d, induced, grouping = chain
        parts, blocks, idx = d.composition.parts, [], 0
        for g in grouping:
            blocks.append(induce(InductionDatum(Composition(parts[idx:idx + g], k=0),
                                                d.per_block[idx:idx + g])))
            idx += g
        coarse = Composition(tuple(b.n for b in blocks), k=0)
        return induced == induce(InductionDatum(coarse, tuple(blocks)))

    checker.each("induction is transitive",
                 ((d, induced, grouping) for d, induced in data
                  for grouping in _compositions(len(d.composition.parts))),
                 transitive)

    # each label of size m <= n round-trips, and there are two rigid ones
    rigid_counts = {m: sum(map(is_rigid, enumerate_bipartitions(m))) for m in range(1, n + 1)}
    checker.each("two rigid orbits; rigid datum round-trips",
                 (b for m in range(1, n + 1) for b in enumerate_bipartitions(m)),
                 lambda b: rigid_counts[b.n] == 2 and induce_from_vector(rigid_datum(b)) == b)
    checker.each("column construction lands in the induced orbit",
                 enumerate_bipartitions(min(n, 5)),
                 lambda b: identify_orbit(induction_representative(rigid_datum(b))) == b)
    return checker.checks


def suite_classes(n, seed=DEFAULT_SEED):
    """Class counts, closure-order sanity, dimension laws, doubling
    transfer, stability of identification along class curves, and the
    GL_n and exotic rank strata against the stabilizer oracles."""
    if n > 5:
        raise BudgetExceeded("class suite capped at n <= 5")
    rng = random.Random(seed)
    checker = _Checker()
    classes = enumerate_classes(n)

    checker.add("enumeration matches multiset count formula",
                len(classes) == class_count_formula(n), len(classes))
    sheets = enumerate_sheets(n)
    checker.add("sheet count formula matches enumeration",
                len(sheets) == sheet_count_formula(n), len(sheets))
    checker.each("reflexivity and exotic dimension law", classes,
                 lambda c: class_closure_leq(c, c) and class_dim_exotic(c) - len(c.lam)
                 == 2 * (class_dim_enhanced(c) - len(c.lam)))

    # each class's dimensions once, not once per pair, in lists zipped with
    # classes (a ClassLabel dict key rehashes every field on each lookup)
    with_dims = list(zip(classes, map(class_dim_enhanced, classes)))
    checker.each("closure order is dimension monotone",
                 [(a, b) for a in with_dims for b in with_dims if class_closure_leq(a[0], b[0])],
                 lambda pair: pair[0][1] <= pair[1][1])

    nilpotent = [c for c in classes if len(c.lam) == 1]
    checker.each("on nilpotent classes the order is the orbit order",
                 product(nilpotent, repeat=2),
                 lambda pair: class_closure_leq(*pair)
                 == ah_closure_leq(pair[0].blocks[0], pair[1].blocks[0]))

    # equal dimension: each block of c1 is exactly the induced label
    orbit_dims = [class_orbit_dim(c) for c in classes]
    with_orbit_dims = list(zip(classes, orbit_dims))
    checker.each("equal-dimension pairs match the dense-sheet criterion",
                 [(c1, c2) for c1, o1 in with_orbit_dims for c2, o2 in with_orbit_dims
                  if o1 == o2],
                 lambda pair: class_closure_leq(*pair) == merge_exists(*pair, operator.eq))

    def doubling_intertwined(c):
        doubled = ClassLabel(tuple(2 * p for p in c.lam), tuple(double(b) for b in c.blocks))
        return double(class_nilcone_orbit(c)) == class_nilcone_orbit(doubled)

    checker.each("nilcone orbit intertwines doubling", classes, doubling_intertwined)

    def identification_constant(c):
        base = build_class_representative(c)
        moved = build_class_representative(c, tuple(rng.sample(range(10, 60), len(c.lam))))
        g = random_gl(c.n, rng)
        return identify_class(base) == identify_class(moved) == identify_class(act(g, base)) == c

    checker.each("identification constant along class curves and orbits",
                 rng.sample(classes, min(len(classes), IDENTIFY_SAMPLE)), identification_constant)

    # the rank strata the maximality check groups by are read off
    # class_orbit_dim, so each class's value is checked against n^2 minus
    # the stabilizer dimension of a representative
    strata = list(zip(classes, orbit_dims, map(build_class_representative, classes)))
    checker.each("class orbit dimensions match stabilizers", strata,
                 lambda s: s[1] == n * n - stabilizer_dim_gl(s[2].v, s[2].x))

    # the exotic rank strata: embed_phi of a representative has an Sp_2n
    # orbit of twice the class's GL_n orbit dimension, and identifies back
    # to the class through GL_2n (the image chain at size 2n); the check
    # takes about 0.1 s at n = 4 and 0.5 s at n = 5
    def exotic_stratum(stratum):
        c, o, rep = stratum
        e = embed_phi(rep)
        return (2 * n * n + n - stabilizer_dim_sp(e.v, e.x) == 2 * o
                and identify_exotic_class(e) == c)

    checker.each("exotic class orbit dimensions match stabilizers and identification",
                 strata, exotic_stratum)

    checker.add("stratum-maximal classes are the sheets", sheets_are_maximal_check(n),
                len(classes))
    return checker.checks


def suite_quotient(n, p=3, seed=DEFAULT_SEED):
    """Invariant compatibility through the symplectic embedding, vanishing
    on exactly the nilpotent pairs (the orbit representatives among them)
    and conjugation invariance, on 200 seeded elements of each size m <= n,
    and the finite field fiber census at each size m <= n whose p^(m + m^2)
    points fit enhanced.WALK_BUDGET_POINTS, each split fiber of which must
    hold exactly the classes of one lam."""
    if n > 4:
        raise BudgetExceeded("quotient suite capped at n <= 4")
    rng = random.Random(seed)
    checker = _Checker()

    def elements(bound):
        # 200 seeded pairs of each size m <= n, entries in [-bound, bound]
        for m in range(1, n + 1):
            for _ in range(200):
                x = Mat(QQ, tuple(tuple(rng.randint(-bound, bound) for _ in range(m))
                                  for _ in range(m)))
                v = Vec(QQ, tuple(rng.randint(-bound, bound) for _ in range(m)))
                yield EnhancedElement(m, v, x)

    def invariants(e):
        if isinstance(e, ExoticElement):
            return exotic_invariants(e).coefficients
        return enhanced_invariants(e).coefficients

    checker.each("exotic invariants of the embedding match", elements(3),
                 lambda e: invariants(embed_phi(e)) == invariants(e))

    def vanishes_iff_nilpotent(e):
        power = Mat.identity(QQ, e.n)
        for _ in range(e.n):
            power = power.mul(e.x)
        return enhanced_invariants(e).is_zero() == power.is_zero()

    representatives = (build_representative(b)
                       for m in range(1, n + 1) for b in enumerate_bipartitions(m))
    checker.each("invariants vanish exactly on nilpotent pairs",
                 chain(elements(2), representatives), vanishes_iff_nilpotent)

    def conjugates():
        # (invariants, conjugate): each element under 20 GL_n conjugations,
        # its embedding under 20 Sp_2n conjugations
        for e in elements(3):
            exo = embed_phi(e)
            base, exo_base = invariants(e), invariants(exo)
            for _ in range(20):
                yield base, act(random_gl(e.n, rng), e)
                s = random_sp(e.n, rng, steps=2)
                yield exo_base, ExoticElement(e.n, s.mul_vec(exo.v), s.mul(exo.x).mul(inverse(s)))

    checker.each("invariants constant under 20 conjugations per element", conjugates(),
                 lambda pair: invariants(pair[1]) == pair[0])

    # the census walks p^(m + m^2) points, which grow with m, so it runs at
    # m = 1, 2, ... until the point budget refuses one; refused at m = 1 it
    # has counted nothing, so it is reported skipped
    for m in range(1, n + 1):
        try:
            fibers, nonsplit = fiber_census(m, p)
        except BudgetExceeded as exc:
            if m == 1:
                checker.add(f"fiber census at n={m} over F_{p}", False, 0, str(exc))
            break
        total = sum(sum(d.values()) for d in fibers.values()) + nonsplit
        surjective = len(fibers) == p ** m
        # a split fiber fixes the eigenvalue multiplicities, so lam, and
        # holds every class of that lam
        of_lam = {}
        for c in enumerate_classes(m):
            of_lam.setdefault(c.lam, set()).add(c)
        exact = all(not d or set(d) == of_lam[next(iter(d)).lam] for d in fibers.values())
        checker.add(f"fiber census at n={m} over F_{p}: {len(fibers)} fibers, "
                    f"{nonsplit} non-split points",
                    total == p ** (m + m * m) and surjective and exact, total)
    return checker.checks


def suite_jkv():
    """Replay of the two Jordan decompositions of the pair
    v = (1, 1), x = [[a, 1], [0, b]]: both satisfy the three axioms.

    Generic distinct a, b are required: on the line b = a + 1 the pair
    acquires a one-parameter stabilizer (1 + t(x - b)) that does not fix
    diag(a, b), so the stabilizer-inclusion axiom fails there.  We use
    (a, b) = (1, 3).
    """
    checker = _Checker()
    f = QQ
    a_val, b_val = f.of(1), f.of(3)
    v = Vec(f, (1, 1))
    x = Mat(f, ((a_val, 1), (0, b_val)))

    def commutes_with(a_flat, s):
        n = s.nrows
        a = Mat(f, (a_flat.entries[i * n:(i + 1) * n] for i in range(n)))
        return a.mul(s) == s.mul(a)

    def semisimple_at_label_level(matrix):
        # closed-orbit criterion: the pair (0, matrix) is semisimple exactly
        # when its class has zero vector datum and zero nilpotent datum in
        # every eigenvalue block
        label = identify_class(EnhancedElement(matrix.nrows,
                                               Vec.zero(f, matrix.nrows), matrix))
        return all(block.mu == () and block.nu == (1,) * part
                   for part, block in zip(label.lam, label.blocks))

    # decomposition 1: the Jordan-Chevalley one, (v, x) = (0, x_s) + (v, x_n),
    # which is (0, x) + (v, 0) since x itself is semisimple
    semi, nil = jkv_decompose(EnhancedElement(2, v, x))
    semisimple1 = nil.x.is_zero() and semisimple_at_label_level(semi.x)
    # nilpotency of (v, 0) over the stabilizer of x: contract along a
    # cocharacter of the eigenbasis torus
    _, _, p_inv = generalized_eigenbasis(x)
    coords = p_inv.mul_vec(v)
    weights = tuple(1 if c != f.zero else 0 for c in coords.entries)
    lim1 = limit_along_cocharacter(weights, coords, Mat.zeros(f, 2))
    nilpotent1 = lim1 is not None and lim1[0].is_zero() and lim1[1].is_zero()
    basis = nullspace(stabilizer_system(v, x))
    inclusion1 = all(commutes_with(a, x) for a in basis)
    checker.add("(0,x)+(v,0) satisfies the three axioms",
                semisimple1 and nilpotent1 and inclusion1, 3,
                f"stabilizer dim {len(basis)}")

    # decomposition 2: (v, x) = (0, s) + (v, x - s) with s = diag(a, b)
    s = Mat(f, ((a_val, 0), (0, b_val)))
    rest = x.sub(s)
    ss, sn = jordan_chevalley_split(s)
    semisimple2 = sn.is_zero() and semisimple_at_label_level(s)
    lim2 = limit_along_cocharacter((2, 1), v, rest)
    nilpotent2 = lim2 is not None and lim2[0].is_zero() and lim2[1].is_zero()
    inclusion2 = all(commutes_with(a, s) for a in basis)
    checker.add("(0,s)+(v,x-s) satisfies the three axioms",
                semisimple2 and nilpotent2 and inclusion2, 3,
                f"limit along weights (2,1): {lim2 is not None}")
    return checker.checks


SUITES = {
    "doubling": lambda n, p, seed: suite_doubling(n),
    "closure": lambda n, p, seed: suite_closure(n, p),
    "induction": lambda n, p, seed: suite_induction(n),
    "classes": lambda n, p, seed: suite_classes(n, seed=seed),
    "quotient": lambda n, p, seed: suite_quotient(n, p, seed=seed),
    "jkv": lambda n, p, seed: suite_jkv(),
}


def run_suite(name, n, p, seed=DEFAULT_SEED):
    start = time.monotonic()
    checks = SUITES[name](n, p, seed)
    return {
        "suite": name,
        "params": {"n": n, "p": p, "seed": seed},
        "checks": checks,
        "passed": all(c["status"] == "pass" for c in checks),
        "elapsed_seconds": round(time.monotonic() - start, 3),
    }

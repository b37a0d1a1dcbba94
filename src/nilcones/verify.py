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
from itertools import product

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
    SWEEP_ORACLE_BUDGET_N,
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
    _normal_form,
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
    count = bad_double = bad_transfer = 0
    details = []
    for m in range(1, n + 1):
        dim_sp = 2 * m * m + m
        for b in enumerate_bipartitions(m):
            rep = build_representative(b)
            enh = m * m - stabilizer_dim_gl(rep.v, rep.x)
            exo_rep = embed_phi(rep)
            exo = dim_sp - stabilizer_dim_sp(exo_rep.v, exo_rep.x)
            big_rep = embed_psi(exo_rep)
            big = 4 * m * m - stabilizer_dim_gl(big_rep.v, big_rep.x)
            count += 1
            expected = orbit_dim(b)
            if not (enh == expected and exo == 2 * expected == exotic_orbit_dim(b)):
                bad_double += 1
                details.append(f"{b}: enh={enh} exo={exo} formula={expected}")
            if not (identify_orbit(big_rep) == double(b)
                    and big == orbit_dim(double(b)) == 4 * expected - 2 * sum(b.mu)):
                bad_transfer += 1
                details.append(f"{b}: gl2n={big} doubled-label dim={orbit_dim(double(b))}")
    checker.add("sp stabilizer oracle doubles the enhanced dimension",
                bad_double == 0, count, "; ".join(details[:4]))
    checker.add("gl_2n oracle matches the doubled label (4*dim - 2|mu|)",
                bad_transfer == 0, count, "; ".join(details[:4]))
    return checker.checks


def _rule_against_oracle(checker, name, labels, oracle):
    """Check the combinatorial closure order against ``oracle(b1, b2)`` on
    every ordered pair of labels, as one check: an empty mismatch list
    certifies the rule on these labels."""
    mismatches = [(b1, b2, want, got) for b1 in labels for b2 in labels
                  if (want := ah_closure_leq(b1, b2)) != (got := oracle(b1, b2))]
    checker.add(name, not mismatches, len(labels) ** 2, str(mismatches[:3]))


def suite_closure(n, p):
    """Combinatorial closure order against the flag oracle (all ordered
    pairs), the alternative block ordering and the orbit-walk oracle, and
    the point count of the orbits the walk finds."""
    checker = _Checker()
    labels = enumerate_bipartitions(n)
    _rule_against_oracle(checker, f"flag oracle agrees at n={n}, p={p}", labels,
                         lambda b1, b2: closure_oracle_flag(b1, b2, p))
    _rule_against_oracle(checker, "flag oracle independent of block ordering", labels,
                         lambda b1, b2: closure_oracle_flag(b1, b2, p, alt_order=True))
    if n <= SWEEP_ORACLE_BUDGET_N:
        _rule_against_oracle(checker, f"group sweep agrees at n={n}, p={p}", labels,
                             lambda b1, b2: closure_oracle_sweep(b1, b2, p))
        # the orbits partition the p^n * p^(n^2 - n) points of the nilcone
        # (Fine-Herstein count of nilpotent matrices)
        orbits = [set(_orbit_walk(*_normal_form(b), p)) for b in labels]
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

    count = bad = 0
    for comp in _compositions(n):
        for d in _all_data(comp):
            induced = induce(d)
            codim_blocks = sum(size + size * size - orbit_dim(b)
                               for size, b in zip(comp, d.per_block))
            count += 1
            if n + n * n - orbit_dim(induced) != codim_blocks:
                bad += 1
    checker.add("induction preserves codimension", bad == 0, count)

    count = bad = 0
    for comp in _compositions(n):
        for grouping in _compositions(len(comp)):
            # grouping partitions the blocks of comp into consecutive runs
            coarse = []
            idx = 0
            for g in grouping:
                coarse.append(sum(comp[idx:idx + g]))
                idx += g
            for d in _all_data(comp):
                one_step = induce(d)
                idx = 0
                coarse_blocks = []
                for g, size in zip(grouping, coarse):
                    sub = InductionDatum(Composition(comp[idx:idx + g], k=0),
                                         d.per_block[idx:idx + g])
                    coarse_blocks.append(induce(sub))
                    idx += g
                two_step = induce(InductionDatum(Composition(tuple(coarse), k=0),
                                                 tuple(coarse_blocks)))
                count += 1
                if one_step != two_step:
                    bad += 1
    checker.add("induction is transitive", bad == 0, count)

    count = bad = 0
    for m in range(1, min(n, 8) + 1):
        rigid = [b for b in enumerate_bipartitions(m) if is_rigid(b)]
        if len(rigid) != 2:
            bad += 1
        for b in enumerate_bipartitions(m):
            count += 1
            if induce_from_vector(rigid_datum(b)) != b:
                bad += 1
    checker.add("two rigid orbits; rigid datum round-trips", bad == 0, count)

    count = bad = 0
    for b in enumerate_bipartitions(min(n, 5)):
        rep = induction_representative(rigid_datum(b))
        count += 1
        if identify_orbit(rep) != b:
            bad += 1
    checker.add("column construction lands in the induced orbit", bad == 0, count)
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
    checker.add("sheet count formula matches enumeration",
                len(enumerate_sheets(n)) == sheet_count_formula(n),
                len(enumerate_sheets(n)))

    bad = 0
    for c in classes:
        if not class_closure_leq(c, c):
            bad += 1
        if class_dim_exotic(c) - len(c.lam) != 2 * (class_dim_enhanced(c) - len(c.lam)):
            bad += 1
    checker.add("reflexivity and exotic dimension law", bad == 0, len(classes))

    # each class's dimensions once, not once per pair
    dims = [class_dim_enhanced(c) for c in classes]
    count = bad = 0
    for c1, d1 in zip(classes, dims):
        for c2, d2 in zip(classes, dims):
            if class_closure_leq(c1, c2):
                count += 1
                if d1 > d2:
                    bad += 1
    checker.add("closure order is dimension monotone", bad == 0, count)

    count = bad = 0
    nilpotent = [c for c in classes if len(c.lam) == 1]
    for c1 in nilpotent:
        for c2 in nilpotent:
            count += 1
            if class_closure_leq(c1, c2) != ah_closure_leq(c1.blocks[0], c2.blocks[0]):
                bad += 1
    checker.add("on nilpotent classes the order is the orbit order",
                bad == 0, count)

    orbit_dims = [class_orbit_dim(c) for c in classes]
    count = bad = 0
    for c1, o1 in zip(classes, orbit_dims):
        for c2, o2 in zip(classes, orbit_dims):
            if o1 != o2:
                continue
            count += 1
            # equal dimension: each block of c1 is exactly the induced label
            if class_closure_leq(c1, c2) != merge_exists(c1, c2, operator.eq):
                bad += 1
    checker.add("equal-dimension pairs match the dense-sheet criterion",
                bad == 0, count)

    count = bad = 0
    for c in classes:
        doubled = ClassLabel(tuple(2 * p for p in c.lam),
                             tuple(double(b) for b in c.blocks))
        count += 1
        if double(class_nilcone_orbit(c)) != class_nilcone_orbit(doubled):
            bad += 1
    checker.add("nilcone orbit intertwines doubling", bad == 0, count)

    count = bad = 0
    for c in rng.sample(classes, min(len(classes), IDENTIFY_SAMPLE)):
        ell = len(c.lam)
        base = build_class_representative(c)
        scalars = rng.sample(range(10, 60), ell)
        moved = build_class_representative(c, tuple(scalars))
        g = random_gl(c.n, rng)
        count += 1
        if identify_class(base) != c or identify_class(moved) != c \
                or identify_class(act(g, base)) != c:
            bad += 1
    checker.add("identification constant along class curves and orbits",
                bad == 0, count)

    # the rank strata the maximality check groups by are read off
    # class_orbit_dim, so each class's value is checked against n^2 minus
    # the stabilizer dimension of a representative
    reps = map(build_class_representative, classes)
    bad = sum(o != n * n - stabilizer_dim_gl(r.v, r.x) for o, r in zip(orbit_dims, reps))
    checker.add("class orbit dimensions match stabilizers", bad == 0, len(classes))

    # the exotic rank strata: embed_phi of a representative has an Sp_2n
    # orbit of twice the class's GL_n orbit dimension, and identifies back
    # to the class through GL_2n (the image chain at size 2n); the check
    # takes about 0.2 s at n = 4 and 1.4 s at n = 5
    bad = 0
    for c, o in zip(classes, orbit_dims):
        e = embed_phi(build_class_representative(c))
        if (2 * n * n + n - stabilizer_dim_sp(e.v, e.x) != 2 * o
                or identify_exotic_class(e) != c):
            bad += 1
    checker.add("exotic class orbit dimensions match stabilizers and identification",
                bad == 0, len(classes))

    checker.add("stratum-maximal classes are the sheets", sheets_are_maximal_check(n),
                len(classes))
    return checker.checks


def suite_quotient(n, p=3, seed=DEFAULT_SEED):
    """Invariant compatibility through the symplectic embedding, vanishing
    on exactly the nilpotent pairs, conjugation invariance, and the finite
    field fiber census."""
    if n > 4:
        raise BudgetExceeded("quotient suite capped at n <= 4")
    rng = random.Random(seed)
    checker = _Checker()
    samples = 200

    count = bad = 0
    for _ in range(samples):
        m = rng.randint(1, n)
        x = Mat(QQ, tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(m)))
        v = Vec(QQ, tuple(rng.randint(-3, 3) for _ in range(m)))
        e = EnhancedElement(m, v, x)
        count += 1
        if exotic_invariants(embed_phi(e)).coefficients != enhanced_invariants(e).coefficients:
            bad += 1
    checker.add("exotic invariants of the embedding match", bad == 0, count)

    count = bad = 0
    for m in range(1, n + 1):
        for b in enumerate_bipartitions(m):
            rep = build_representative(b)
            count += 1
            if not enhanced_invariants(rep).is_zero():
                bad += 1
    for _ in range(samples):
        m = rng.randint(1, n)
        x = Mat(QQ, tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(m)))
        e = EnhancedElement(m, Vec.zero(QQ, m), x)
        count += 1
        power = Mat.identity(QQ, m)
        for _ in range(m):
            power = power.mul(x)
        if enhanced_invariants(e).is_zero() != power.is_zero():
            bad += 1
    checker.add("invariants vanish exactly on nilpotent pairs", bad == 0, count)

    count = bad = 0
    for _ in range(samples):
        m = rng.randint(1, n)
        x = Mat(QQ, tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(m)))
        v = Vec(QQ, tuple(rng.randint(-3, 3) for _ in range(m)))
        e = EnhancedElement(m, v, x)
        base = enhanced_invariants(e).coefficients
        exo = embed_phi(e)
        exo_base = exotic_invariants(exo).coefficients
        for _ in range(20):
            g = random_gl(m, rng)
            if enhanced_invariants(act(g, e)).coefficients != base:
                bad += 1
            s = random_sp(m, rng, steps=2)
            moved = ExoticElement(m, s.mul_vec(exo.v), s.mul(exo.x).mul(inverse(s)))
            if exotic_invariants(moved).coefficients != exo_base:
                bad += 1
            count += 2
    checker.add("invariants constant under 20 conjugations per element",
                bad == 0, count)

    # past its cap on p the census counts nothing, so it is reported skipped
    m = min(n, 2)
    try:
        fibers, nonsplit = fiber_census(m, p)
    except BudgetExceeded as exc:
        checker.add(f"fiber census at n={m} over F_{p}", False, 0, str(exc))
        return checker.checks
    total = sum(sum(d.values()) for d in fibers.values()) + nonsplit
    surjective = len(fibers) == p ** m
    finite = all(len(d) <= class_count_formula(m) for d in fibers.values())
    checker.add(f"fiber census at n={m} over F_{p}: {len(fibers)} fibers, "
                f"{nonsplit} non-split points",
                total == p ** (m + m * m) and surjective and finite, total)
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

"""The three benchmark workloads: inputs, references and the pinned job.

Every workload builds a list of ``Call`` objects from a seed.  A call
holds plain inputs (integers, tuples, file paths) and ``bind(lib)`` turns
it into a thunk that runs one top-level request through the public API of
``lib``: the library under test or the pinned baseline copy, which get the
same inputs.  ``expect`` is the reference the generator knows
independently of the call under test.  A thunk reaches the library
through module attributes at call time (``lib.enhanced.act``, not a name
bound here), so the traced run can wrap those attributes.

Each workload declares its call count and its (n, p) grid in ``DECLARED``;
``build`` refuses a job that differs from the declaration.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable


@dataclass
class Call:
    kind: str        # groups calls for the coverage check, e.g. "sweep"
    n: int
    p: int           # 0 stands for Q
    fn: Callable     # fn(lib, *args) -> answer
    args: tuple
    expect: object

    def bind(self, lib):
        return partial(self.fn, lib, *self.args)


class PinError(Exception):
    """The generated job differs from the workload's declaration."""


# The pinned job of every workload: its call count and its (kind, n, p)
# grid, p = 0 standing for Q.  Written out apart from the generators, so a
# smaller job fails the run instead of reading as a speed-up.
DECLARED = {
    "conj_q": (240, {("conj", n, 0) for n in (2, 3, 4)}),
    "identify_cli": (200, {("orbit-enhanced", n, 0) for n in (6, 8, 10, 12)}
                     | {("orbit-exotic", n, 0) for n in (3, 4, 5)}
                     | {("class-enhanced", n, 0) for n in (3, 4, 5)}
                     | {("class-enhanced", n, 7) for n in (3, 4)}),
    "certify_fp": (2296, {("flag", n, p) for n in (1, 2, 3, 4) for p in (2, 3)}
                   | {("sweep", n, p) for n in (1, 2, 3) for p in (2, 3)}
                   | {("census", 1, 3), ("census", 1, 5), ("census", 2, 3)}
                   | {("maximal", n, 0) for n in range(1, 7)}
                   | {("enumerate", 10, 0)}),
}
# The smallest job of every workload, for the self-test.
DECLARED_SMALL = {
    "conj_q": (3, {("conj", 2, 0)}),
    "identify_cli": (4, {("orbit-enhanced", 6, 0), ("orbit-exotic", 3, 0),
                         ("class-enhanced", 3, 0), ("class-enhanced", 3, 7)}),
    "certify_fp": (92, {("flag", 1, 2), ("flag", 2, 2), ("sweep", 1, 2), ("sweep", 2, 3),
                        ("census", 1, 3), ("maximal", 1, 0), ("maximal", 2, 0),
                        ("maximal", 3, 0), ("enumerate", 4, 0)}),
}


def pin(name, calls, small):
    count, grid = (DECLARED_SMALL if small else DECLARED)[name]
    got = {(c.kind, c.n, c.p) for c in calls}
    if len(calls) != count or got != grid:
        raise PinError(f"{name}: job has {len(calls)} calls on grid {sorted(got)}, "
                       f"declared {count} on {sorted(grid)}")
    return calls


# ---------------------------------------------------------------------------
# conj_q: GL_n(Q) and Sp_2n(Q) conjugation checks on random integer pairs
# ---------------------------------------------------------------------------

CONJ_SIZES = {False: (2, 3, 4), True: (2,)}
CONJ_PER_SIZE = {False: 80, True: 3}


def reference_charpoly(rows):
    """Coefficients c_1..c_n of det(tI - x) by Faddeev-LeVerrier: an
    independent method from the library's Hessenberg reduction."""
    n = len(rows)
    a = [[Fraction(e) for e in row] for row in rows]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = []
    c = Fraction(1)
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) + (c if i == j else 0)
              for j in range(n)] for i in range(n)]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
    return tuple(coeffs)


def conj_call(lib, n, vrow, xrows, call_seed):
    """One conjugation check: both invariant vectors of the moved pair."""
    rng = random.Random(call_seed)
    linalg, QQ = lib.linalg, lib.fields.QQ
    e = lib.enhanced.EnhancedElement(n, linalg.Vec(QQ, vrow), linalg.Mat(QQ, xrows))
    g = linalg.random_gl(n, rng)
    gl_inv = lib.sheets.enhanced_invariants(lib.enhanced.act(g, e)).coefficients
    s = linalg.random_sp(n, rng, steps=2)
    exo = lib.exotic.embed_phi(e)
    moved = lib.exotic.ExoticElement(n, s.mul_vec(exo.v), s.mul(exo.x).mul(linalg.inverse(s)))
    sp_inv = lib.sheets.exotic_invariants(moved).coefficients
    return gl_inv, sp_inv


def _conj_inputs(rng, n):
    xrows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
    vrow = tuple(rng.randint(-3, 3) for _ in range(n))
    return vrow, xrows, rng.getrandbits(64)


def conj_q(lib, seed, small=False):
    sizes, per = CONJ_SIZES[small], CONJ_PER_SIZE[small]
    rng = random.Random(f"conj_q/{seed}")
    calls = []
    for i in range(per * len(sizes)):
        n = sizes[i % len(sizes)]
        vrow, xrows, call_seed = _conj_inputs(rng, n)
        ref = reference_charpoly(xrows)
        calls.append(Call("conj", n, 0, conj_call, (n, vrow, xrows, call_seed), (ref, ref)))
    warm_rng = random.Random(f"conj_q/warm/{seed}")
    warm = [Call("conj", n, 0, conj_call, (n, *_conj_inputs(warm_rng, n)), None)
            for n in sizes]
    return pin("conj_q", calls, small), warm


# ---------------------------------------------------------------------------
# identify_cli: element documents identified through the command line
# ---------------------------------------------------------------------------

# (level, module, field p or 0 for Q, n, documents).  The large orbit
# documents cost up to 30 times a small one, so the groups get fewer
# documents as they get dearer: the whole job stays near 2 s, short
# enough for each call to be timed in several rounds of one run (a round
# runs the job on the library and on the baseline), and still has 200
# calls, so ten of them lie beyond p95.
# The 15 dearest are the n = 10 and n = 12 orbit documents, so p95 falls
# inside the n = 10 group and not on the edge between two groups.
IDENTIFY_GROUPS = {
    False: [("orbit", "enhanced", 0, 6, 14), ("orbit", "enhanced", 0, 8, 8),
            ("orbit", "enhanced", 0, 10, 12), ("orbit", "enhanced", 0, 12, 3),
            ("orbit", "exotic", 0, 3, 20), ("orbit", "exotic", 0, 4, 12),
            ("orbit", "exotic", 0, 5, 6),
            ("class", "enhanced", 0, 3, 28), ("class", "enhanced", 0, 4, 16),
            ("class", "enhanced", 0, 5, 8),
            ("class", "enhanced", 7, 3, 33), ("class", "enhanced", 7, 4, 40)],
    True: [("orbit", "enhanced", 0, 6, 1), ("orbit", "exotic", 0, 3, 1),
           ("class", "enhanced", 0, 3, 1), ("class", "enhanced", 7, 3, 1)],
}


def identify_call(lib, path, level):
    """Run ``nilcones identify`` on one document; the label it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(["identify", "--file", path, "--level", level, "--format", "json"])
    if code != 0:
        return ("exit", code)
    return _label_of(json.loads(out.getvalue()))


def _label_of(doc):
    if doc["level"] == "orbit":
        return ("orbit", tuple(doc["mu"]), tuple(doc["nu"]))
    return ("class", tuple(doc["lambda"]),
            tuple((tuple(b["mu"]), tuple(b["nu"])) for b in doc["blocks"]))


def _conjugate(v, x, steps, mod=None):
    """(s v, s x s^-1) for s the product of ``steps``; each step is a list
    of (row, col, coeff) with N = sum coeff E_(row, col) and N^2 = 0, so
    s_step = I + N and s_step^-1 = I - N act by row and column operations."""
    v = list(v)
    x = [list(row) for row in x]
    for step in steps:
        for r, c, a in step:
            v[r] += a * v[c]
            x[r] = [e + a * f for e, f in zip(x[r], x[c])]
        for r, c, a in step:
            for row in x:
                row[c] -= a * row[r]
    if mod:
        v = [e % mod for e in v]
        x = [[e % mod for e in row] for row in x]
    return v, x


def _gl_steps(rng, n):
    """3n integer shears g = I + c E_(j, i): a random element of SL_n(Z)."""
    steps = []
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        steps.append([(j, i, rng.choice((-2, -1, 1, 2)))])
    return steps


def _sp_steps(rng, n):
    """3n symplectic generators of Sp_2n(Z) for the form [[0, I], [-I, 0]]:
    diag(g, g^-T) for a shear g, and the unipotents [[I, B], [0, I]] and
    [[I, 0], [B, I]] with B = b (E_ij + E_ji) symmetric."""
    steps = []
    for _ in range(3 * n):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if kind == 0 else (rng.randrange(n), rng.randrange(n))
        a = rng.choice((-2, -1, 1, 2))
        if kind == 0:
            steps.append([(j, i, a), (n + i, n + j, -a)])
        else:
            off_r, off_c = (0, n) if kind == 1 else (n, 0)
            cells = {(off_r + i, off_c + j), (off_r + j, off_c + i)}
            steps.append([(r, c, a) for r, c in cells])
    return steps


def _ints(rep):
    return ([int(e) for e in rep.v.entries], [[int(e) for e in row] for row in rep.x.rows])


def _make_document(lib, rng, target, level, module, p, n):
    """A conjugated normal form of the orbit or class ``target``, as an element
    document, and its label.  The conjugation is done here in integers, so
    the library sees only the finished document."""
    if level == "orbit":
        v, x = _ints(lib.enhanced.build_representative(target))
        label = ("orbit", target.mu, target.nu)
        if module == "enhanced":
            v, x = _conjugate(v, x, _gl_steps(rng, n))
        else:
            # embed_phi: (v, x) -> (v + 0, diag(x, x^T)), then an Sp_2n conjugation
            v = v + [0] * n
            x = ([row + [0] * n for row in x]
                 + [[0] * n + [x[j][i] for j in range(n)] for i in range(n)])
            v, x = _conjugate(v, x, _sp_steps(rng, n))
    else:
        eigen = rng.sample(range(p) if p else range(-4, 5), len(target.lam))
        v, x = _ints(lib.jordan_classes.build_class_representative(target, eigen))
        v, x = _conjugate(v, x, _gl_steps(rng, n), mod=p)
        label = ("class", target.lam, tuple((b.mu, b.nu) for b in target.blocks))
    doc = {"n": n, "module": module, "field": "Fp" if p else "Q",
           "v": [str(e) for e in v], "x": [[str(e) for e in row] for row in x]}
    if p:
        doc["p"] = p
    return doc, label


def identify_cli(lib, seed, workdir, small=False):
    groups = IDENTIFY_GROUPS[small]
    rng = random.Random(f"identify_cli/{seed}")
    docdir = os.path.join(workdir, "documents")
    os.makedirs(docdir, exist_ok=True)
    calls, warm = [], []
    for gi, (level, module, p, n, per) in enumerate(groups):
        labels = (lib.partitions.enumerate_bipartitions(n) if level == "orbit"
                  else lib.jordan_classes.enumerate_classes(n))
        # the label in the middle of each of ``per`` equal stretches of the
        # enumeration, the same on every seed: a label's cost varies 2-3x
        # within a group, and a seed's pick of dear labels moved p95 by
        # 0.1; the seed conjugates the labels' normal forms
        picks = [labels[int((k + 0.5) * len(labels) / per)] for k in range(per)]
        for k, target in enumerate(picks + [rng.choice(labels)]):
            doc, label = _make_document(lib, rng, target, level, module, p, n)
            path = os.path.join(docdir, f"{gi:02d}-{k:03d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            call = Call(f"{level}-{module}", n, p, identify_call, (path, level), label)
            (warm if k == per else calls).append(call)
    rng.shuffle(calls)
    return pin("identify_cli", calls, small), warm


# ---------------------------------------------------------------------------
# certify_fp: finite-field oracles, fiber census and class combinatorics
# ---------------------------------------------------------------------------

CERTIFY_GRID = {
    False: {
        "flag": [(n, p) for n in (1, 2, 3, 4) for p in (2, 3)],
        "sweep": [(n, 2) for n in (1, 2, 3)] + [(n, 3) for n in (1, 2, 3)],
        "census": [(1, 3), (1, 5), (2, 3)],
        "maximal": [(n, 0) for n in range(1, 7)],
        "enumerate": [(10, 0)],
    },
    True: {
        "flag": [(1, 2), (2, 2)],
        "sweep": [(1, 2), (2, 3)],
        "census": [(1, 3)],
        "maximal": [(n, 0) for n in (1, 2, 3)],
        "enumerate": [(4, 0)],
    },
}
# At (n, p) = (3, 3) the sweep runs every ninth ordered pair: 12 of 100,
# half of them negative (a full scan of GL_3(F_3)) as in the whole set.
# All 100 pairs cost about 8 s, and enumerate_classes(12) about 2.6 s; the
# job has to stay near 2 s so that each call is timed in several rounds of
# one run (a round runs the job on the library and on the baseline), so
# the sweep takes 12 pairs and the enumeration runs at n = 10.
SWEEP_STRIDE_33 = 9


# The query functions look the library up at call time, so the traced run
# sees its wrappers.  A label travels as its (mu, nu) pair and becomes a
# Bipartition of the library that runs the query.

def flag_query(lib, a, b, p, alt):
    make = lib.partitions.Bipartition
    return lib.enhanced.closure_oracle_flag(make(*a), make(*b), p, alt_order=alt)


def sweep_query(lib, a, b, p):
    make = lib.partitions.Bipartition
    return lib.enhanced.closure_oracle_sweep(make(*a), make(*b), p)


def maximal_check(lib, n):
    return lib.sheets.sheets_are_maximal_check(n)


def class_count(lib, n):
    return len(lib.jordan_classes.enumerate_classes(n))


def census_summary(lib, n, p):
    """(points, fibers, non-split points) of one fiber census."""
    fibers, nonsplit = lib.sheets.fiber_census(n, p)
    points = nonsplit + sum(sum(bucket.values()) for bucket in fibers.values())
    return points, len(fibers), nonsplit


def census_reference(n, p):
    """Closed forms: p^(n+n^2) points, p^n fibers (one per characteristic
    polynomial), and (p^2 - p)^2 / 2 * p^2 non-split points at n = 2."""
    nonsplit = (p * p - p) ** 2 // 2 * p * p if n == 2 else 0
    return p ** (n + n * n), p ** n, nonsplit


def _pairs(lib, n):
    labels = lib.partitions.enumerate_bipartitions(n)
    return [(a, b) for a in labels for b in labels]


def certify_fp(lib, seed, small=False):
    grid = CERTIFY_GRID[small]
    closure_leq = lib.enhanced.closure_leq
    calls = []
    for n, p in grid["flag"]:
        for a, b in _pairs(lib, n):
            want = closure_leq(a, b)
            for alt in (False, True):
                calls.append(Call("flag", n, p, flag_query, ((a.mu, a.nu), (b.mu, b.nu), p, alt),
                                  want))
    for n, p in grid["sweep"]:
        pairs = _pairs(lib, n)
        if (n, p) == (3, 3):
            pairs = pairs[::SWEEP_STRIDE_33]
        for a, b in pairs:
            calls.append(Call("sweep", n, p, sweep_query, ((a.mu, a.nu), (b.mu, b.nu), p),
                              closure_leq(a, b)))
    for n, p in grid["census"]:
        calls.append(Call("census", n, p, census_summary, (n, p), census_reference(n, p)))
    for n, _ in grid["maximal"]:
        calls.append(Call("maximal", n, 0, maximal_check, (n,), True))
    for n, _ in grid["enumerate"]:
        # the count formula also fills partitions_of up to n, the one cache
        # enumerate_classes reads
        calls.append(Call("enumerate", n, 0, class_count, (n,),
                          lib.jordan_classes.class_count_formula(n)))
    # warm the first call of every grid cell, before the shuffle, so set-up
    # does the same work on every seed
    warm = {}
    for c in calls:
        if c.kind != "enumerate":
            warm.setdefault((c.kind, c.n, c.p), c)
    random.Random(f"certify_fp/{seed}").shuffle(calls)
    return pin("certify_fp", calls, small), list(warm.values())


def build(name, seed, workdir, lib, small=False):
    """(calls, warm calls) of one workload, generated with ``lib``."""
    if name == "conj_q":
        return conj_q(lib, seed, small)
    if name == "identify_cli":
        return identify_cli(lib, seed, workdir, small)
    if name == "certify_fp":
        return certify_fp(lib, seed, small)
    raise KeyError(name)

import operator
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

from nilcones.errors import NonSplitSpectrum, RepeatedEigenvalue, SizeMismatch
from nilcones.fields import GF, QQ
from nilcones.linalg import (
    Mat,
    Vec,
    _partition_from_ranks,
    generalized_eigenbasis,
    inverse,
    random_gl,
    random_sp,
    rank,
    stabilizer_dim_gl,
)
from nilcones.partitions import (
    Bipartition,
    _prefix_sums,
    _sums_leq,
    ah_closure_leq,
    bipartition_from_invariants,
    double,
    enumerate_bipartitions,
    sum_bipartitions,
)
from nilcones.enhanced import EnhancedElement, act, build_representative, orbit_dim
from nilcones.exotic import ExoticElement, embed_phi
from nilcones.jordan_classes import (
    ClassLabel,
    build_class_representative,
    class_closure_leq,
    class_count_formula,
    class_dim_enhanced,
    class_dim_exotic,
    class_nilcone_orbit,
    class_orbit_dim,
    enumerate_classes,
    format_class_label,
    identify_class,
    identify_exotic_class,
    merge_exists,
)

B = Bipartition


def test_class_label_canonical_form():
    c1 = ClassLabel((1, 2, 1), (B((1,), ()), B((2,), ()), B((), (1,))))
    c2 = ClassLabel((2, 1, 1), (B((2,), ()), B((), (1,)), B((1,), ())))
    assert c1 == c2
    assert c1.lam == (2, 1, 1)
    with pytest.raises(SizeMismatch):
        ClassLabel((2,), (B((1,), ()),))
    with pytest.raises(SizeMismatch):
        ClassLabel((2, 1), (B((2,), ()),))
    with pytest.raises(ValueError):
        ClassLabel((2.5,), (B((2,), ()),))


def test_enumeration_counts():
    assert len(enumerate_classes(1)) == 2
    assert len(enumerate_classes(2)) == 8
    assert len(enumerate_classes(3)) == 24
    for n in range(7):
        classes = enumerate_classes(n)
        assert len(classes) == class_count_formula(n)
        assert len(set(classes)) == len(classes)


def test_class_dims():
    dense = ClassLabel((1, 1), (B((1,), ()), B((1,), ())))
    assert class_dim_enhanced(dense) == 6
    assert class_dim_exotic(dense) == 10
    center = ClassLabel((4,), (B((), (1, 1, 1, 1)),))
    assert class_dim_enhanced(center) == 1
    assert class_dim_exotic(center) == 1
    for n in range(1, 5):
        for b in enumerate_bipartitions(n):
            c = ClassLabel((n,), (b,))
            assert class_dim_enhanced(c) == orbit_dim(b) + 1
            assert class_dim_exotic(c) == 2 * orbit_dim(b) + 1


def test_identify_class_examples():
    nil = build_representative(B((2,), (1,)))
    assert identify_class(nil) == ClassLabel((3,), (B((2,), (1,)),))
    semi = EnhancedElement(2, Vec.zero(QQ, 2), Mat(QQ, ((1, 0), (0, 2))))
    assert identify_class(semi) == ClassLabel((1, 1), (B((), (1,)), B((), (1,))))
    mixed = EnhancedElement(2, Vec(QQ, (1, 1)), Mat(QQ, ((1, 0), (0, 2))))
    assert identify_class(mixed) == ClassLabel((1, 1), (B((1,), ()), B((1,), ())))
    with pytest.raises(NonSplitSpectrum):
        identify_class(EnhancedElement(2, Vec.zero(QQ, 2), Mat(QQ, ((0, -1), (1, 0)))))


def test_identify_class_round_trip():
    for n in range(1, 5):
        for c in enumerate_classes(n):
            assert identify_class(build_class_representative(c)) == c


def test_identify_class_constant_on_classes():
    rng = random.Random(13)
    for n in (2, 3):
        for c in enumerate_classes(n):
            alt = build_class_representative(c, tuple(rng.sample(range(20, 80), len(c.lam))))
            assert identify_class(alt) == c
            g = random_gl(n, rng)
            assert identify_class(act(g, alt)) == c


def full_power_orbit(v, x):
    """The orbit label of a nilpotent pair (v, x) from the ranks of whole
    powers of x, rank [x^i | W] - dim W for W = 0 and for W = k[x]v, with
    no image chain."""
    f, n = x.field, x.nrows
    cyclic, w = [], v
    while not w.is_zero():
        cyclic.append(w.entries)
        w = x.mul_vec(w)

    def ranks(extra):
        out, power = [n - len(extra)], Mat.identity(f, n)
        while out[-1]:
            power = power.mul(x)
            out.append(rank(Mat(f, power.transpose().rows + extra)) - len(extra))
        return _partition_from_ranks(out)

    return bipartition_from_invariants(n, ranks(()), ranks(tuple(cyclic)))


def eigenbasis_class_label(e):
    """The class label by the route the image chain replaced: x conjugated
    into the basis of generalized eigenvectors, then each diagonal block
    minus its eigenvalue, with the vector's coordinates in that block,
    identified as a nilpotent pair of its own size (by whole powers)."""
    f = e.field
    eig, p_mat, p_inv = generalized_eigenbasis(e.x)
    x_conj = p_inv.mul(e.x).mul(p_mat).rows
    coords = p_inv.mul_vec(e.v).entries
    blocks, off = [], 0
    for a, m in eig:
        end = off + m
        block = Mat(f, tuple(row[off:end] for row in x_conj[off:end]))
        blocks.append(full_power_orbit(Vec(f, coords[off:end]), block.sub(Mat.scalar(f, m, a))))
        off = end
    return ClassLabel(tuple(m for _, m in eig), tuple(blocks))


def test_identify_class_matches_the_eigenbasis_route():
    # per field and n <= 6: class representatives with seeded eigenvalues
    # (fractional ones over Q, so x has a denominator) and their conjugates
    # by act, with the normal-form vector and with a random one; conjugated
    # triangular matrices whose few diagonal values repeat, so several
    # eigenvalues carry nilpotent blocks; and random matrices, whose
    # spectrum often does not split
    rng = random.Random(20)
    seen = set()
    nonsplit = 0
    for field in (QQ, GF(2), GF(3), GF(7)):
        p = field.char
        pool = list(range(p)) if p else [Fraction(k, 2) for k in range(-5, 6)]
        entry = ((lambda: rng.randrange(p)) if p
                 else (lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))))
        for n in range(1, 7):
            classes = [c for c in enumerate_classes(n) if len(c.lam) <= len(pool)]
            for _ in range(8):
                g = Mat(field, random_gl(n, rng).rows)
                v = Vec(field, tuple(entry() for _ in range(n)))
                c = rng.choice(classes)
                rep = build_class_representative(c, rng.sample(pool, len(c.lam)), field)
                diag = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                tri = Mat(field, tuple(tuple(rng.choice(diag) if i == j else entry() if j > i else 0
                                             for j in range(n)) for i in range(n)))
                x = Mat(field, tuple(tuple(entry() for _ in range(n)) for _ in range(n)))
                elements = [rep, act(g, rep), EnhancedElement(n, v, rep.x),
                            act(g, EnhancedElement(n, v, tri)), EnhancedElement(n, v, x)]
                for e in elements:
                    try:
                        want = eigenbasis_class_label(e)
                    except NonSplitSpectrum:
                        with pytest.raises(NonSplitSpectrum):
                            identify_class(e)
                        nonsplit += 1
                        continue
                    assert identify_class(e) == want, (e, want)
                    # one or several eigenvalues; some block not the zero pair
                    seen.add((p, len(want.lam) > 1, any(len(b.nu) != b.n for b in want.blocks)))
    assert nonsplit > 20
    assert seen == {(p, k, z) for p in (0, 2, 3, 7) for k in (False, True) for z in (False, True)}


def test_build_class_representative_validation():
    c = ClassLabel((1, 1), (B((1,), ()), B((1,), ())))
    with pytest.raises(RepeatedEigenvalue):
        build_class_representative(c, (1, 1))
    with pytest.raises(SizeMismatch):
        build_class_representative(c, (1, 2, 3))


def test_identify_class_over_prime_field():
    f = GF(5)
    e = EnhancedElement(2, Vec(f, (1, 1)), Mat(f, ((1, 0), (0, 2))))
    assert identify_class(e) == ClassLabel((1, 1), (B((1,), ()), B((1,), ())))
    # every class with n <= 4, conjugated over F_7 by an integer matrix of
    # determinant +-1
    f = GF(7)
    rng = random.Random(17)
    for n in range(1, 5):
        for c in enumerate_classes(n):
            rep = build_class_representative(c, rng.sample(range(7), len(c.lam)), f)
            g = Mat(f, random_gl(n, rng).rows)
            assert identify_class(act(g, rep)) == c


def test_identify_exotic_class():
    rng = random.Random(19)
    for n in (1, 2, 3):
        for c in enumerate_classes(n):
            exo = embed_phi(build_class_representative(c))
            assert identify_exotic_class(exo) == c
            s = random_sp(n, rng)
            moved = ExoticElement(n, s.mul_vec(exo.v), s.mul(exo.x).mul(inverse(s)))
            assert identify_exotic_class(moved) == c


def test_class_nilcone_orbit():
    for n in range(1, 5):
        for b in enumerate_bipartitions(n):
            assert class_nilcone_orbit(ClassLabel((n,), (b,))) == b
    regular = ClassLabel((1, 1), (B((1,), ()), B((1,), ())))
    assert class_nilcone_orbit(regular) == B((2,), ())
    c13 = ClassLabel((3, 4, 4, 2),
                     (B((1, 1, 1), ()), B((1, 1, 1, 1), ()),
                      B((), (1, 1, 1, 1)), B((), (1, 1))))
    assert class_nilcone_orbit(c13) == B((2, 2, 2, 1), (2, 2, 1, 1))


def test_class_nilcone_orbit_intertwines_doubling():
    for n in range(1, 6):
        for c in enumerate_classes(n):
            doubled = ClassLabel(tuple(2 * p for p in c.lam),
                                 tuple(double(b) for b in c.blocks))
            assert double(class_nilcone_orbit(c)) == class_nilcone_orbit(doubled)


def test_class_closure_examples():
    for c in enumerate_classes(3):
        assert class_closure_leq(c, c)
    # nilpotent classes compare exactly like their orbits
    from nilcones.partitions import ah_closure_leq

    for b1 in enumerate_bipartitions(3):
        for b2 in enumerate_bipartitions(3):
            assert class_closure_leq(ClassLabel((3,), (b1,)),
                                     ClassLabel((3,), (b2,))) == ah_closure_leq(b1, b2)
    dense = ClassLabel((1, 1), (B((1,), ()), B((1,), ())))
    merged = ClassLabel((2,), (B((2,), ()),))
    assert class_closure_leq(merged, dense)
    below = ClassLabel((2,), (B((1, 1), ()),))
    assert class_closure_leq(below, dense)
    assert not class_closure_leq(dense, merged)
    with pytest.raises(SizeMismatch):
        class_closure_leq(merged, ClassLabel((1,), (B((1,), ()),)))


def test_nilpotent_class_below_iff_orbit_below_nilcone_orbit():
    # the class closure meets the nilpotent cone in the closure of one
    # orbit, so a nilpotent class lies below exactly when its orbit does
    from nilcones.partitions import ah_closure_leq

    for n in (2, 3, 4):
        for c in enumerate_classes(n):
            target = class_nilcone_orbit(c)
            for b in enumerate_bipartitions(n):
                nil = ClassLabel((n,), (b,))
                assert class_closure_leq(nil, c) == ah_closure_leq(b, target)


def test_class_closure_is_partial_order_small():
    for n in (2, 3):
        classes = enumerate_classes(n)
        leq = {(i, j): class_closure_leq(a, b)
               for i, a in enumerate(classes) for j, b in enumerate(classes)}
        m = len(classes)
        for i in range(m):
            assert leq[(i, i)]
            for j in range(m):
                if i != j and leq[(i, j)]:
                    assert not leq[(j, i)]
                if leq[(i, j)]:
                    for k in range(m):
                        if leq[(j, k)]:
                            assert leq[(i, k)]


def test_class_closure_dimension_monotone():
    for n in (2, 3, 4):
        classes = enumerate_classes(n)
        for c1 in classes:
            for c2 in classes:
                if class_closure_leq(c1, c2):
                    assert class_dim_enhanced(c1) <= class_dim_enhanced(c2)


def test_orbit_dim_of_class():
    for n in (2, 3):
        for c in enumerate_classes(n):
            assert class_orbit_dim(c) == class_dim_enhanced(c) - len(c.lam)


def test_class_orbit_dim_matches_stabilizer():
    # the rank strata of the maximality check are read off class_orbit_dim
    for n in range(1, 6):
        for c in enumerate_classes(n):
            rep = build_class_representative(c)
            assert class_orbit_dim(c) == n * n - stabilizer_dim_gl(rep.v, rep.x), c


def test_format():
    c = ClassLabel((3, 2, 2), (B((1, 1, 1), ()), B((2,), ()), B((1,), (1,))))
    assert format_class_label(c) == "λ=[3,2,2]; blocks=[(1^3;),(2;),(1;1)]"


# ---------------------------------------------------------------------------
# the merge search against an exhaustive one, and the internal constructors
# against the public ones and the pinned benchmark baseline
# ---------------------------------------------------------------------------


def test_merge_onto_equal_parts_filled_alike():
    # two equal targets, each half filled: the search must still try the
    # second one, or it misses the merge {(1^2;),(;1)}, {(;1^2),(1;)}
    c1 = ClassLabel((3, 3), (B((1, 1, 1), ()), B((1, 1, 1), ())))
    c2 = ClassLabel((2, 2, 1, 1), (B((1, 1), ()), B((), (1, 1)), B((1,), ()), B((), (1,))))
    assert class_closure_leq(c1, c2)


def _groupings(items):
    """Every split of the list items into nonempty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for groups in _groupings(rest):
        yield [[first]] + groups
        for i in range(len(groups)):
            yield groups[:i] + [[first] + groups[i]] + groups[i + 1:]


def _merges(c):
    """Every merge of the parts of c: sorted parts lam -> the set of
    merges onto lam, each the tuple of (size, induced label) per group."""
    key = lambda t: (t[0], t[1].mu, t[1].nu)
    out = {}
    for groups in _groupings(list(zip(c.lam, c.blocks))):
        merged = tuple(sorted(((sum(p for p, _ in g), sum_bipartitions([b for _, b in g]))
                               for g in groups), key=key))
        out.setdefault(tuple(sorted((p for p, _ in merged), reverse=True)), set()).add(merged)
    return out


def _exhaustive(c1, merges2, orbit_leq):
    """(closure rule, equality merge) of c1 against c2 by trying every
    merge of c2 in every assignment to the parts of c1."""
    targets = list(zip(c1.lam, c1.blocks))
    own = tuple(sorted(targets, key=lambda t: (t[0], t[1].mu, t[1].nu)))
    candidates = merges2.get(c1.lam, ())
    leq = any(all(p == q and orbit_leq(b, induced)
                  for (p, b), (q, induced) in zip(targets, order))
              for merged in candidates for order in permutations(merged))
    return leq, own in candidates


def test_merge_search_matches_exhaustive_search():
    classes = {n: enumerate_classes(n) for n in range(1, 7)}
    pairs = [(c1, c2) for n in range(1, 6) for c1 in classes[n] for c2 in classes[n]]
    pairs += [(c1, c2) for c1 in classes[6] if c1.lam == (3, 3) for c2 in classes[6]]
    merges = {}
    orbit_leq = lru_cache(maxsize=None)(ah_closure_leq)
    for c1, c2 in pairs:
        if c2 not in merges:
            merges[c2] = _merges(c2)
        leq, eq = _exhaustive(c1, merges[c2], orbit_leq)
        assert class_closure_leq(c1, c2) == leq, (str(c1), str(c2))
        assert merge_exists(c1, c2, operator.eq) == eq, (str(c1), str(c2))


def test_internal_constructors_match_public_ones():
    for n in range(9):
        for b in enumerate_bipartitions(n):
            rebuilt = Bipartition(b.mu, b.nu)
            assert b == rebuilt and hash(b) == hash(rebuilt)
        for c in enumerate_classes(n):
            rebuilt = ClassLabel(c.lam, tuple(Bipartition(b.mu, b.nu) for b in c.blocks))
            assert c == rebuilt and hash(c) == hash(rebuilt)
            total = sum_bipartitions(c.blocks)
            rebuilt = Bipartition(total.mu, total.nu)
            assert total == rebuilt and hash(total) == hash(rebuilt)


def test_prefix_sums_injective_and_ordered_like_baseline(baseline):
    for n in range(9):
        labels = enumerate_bipartitions(n)
        # padded further than the label needs, as in a class of larger size
        sums = [_prefix_sums(b, 2 * n + 4) for b in labels]
        assert len(set(sums)) == len(labels)
        if n > 7:
            continue
        old = [baseline.partitions.Bipartition(b.mu, b.nu) for b in labels]
        for s1, b1 in zip(sums, old):
            for s2, b2 in zip(sums, old):
                assert _sums_leq(s1, s2) == baseline.partitions.ah_closure_leq(b1, b2)


def test_enumerate_classes_matches_baseline(baseline):
    for n in range(9):
        assert ([str(c) for c in enumerate_classes(n)]
                == [str(c) for c in baseline.jordan_classes.enumerate_classes(n)])

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcones.errors import BudgetExceeded, ParseError, SizeMismatch
from nilcones.partitions import (
    Bipartition,
    Composition,
    add,
    ah_closure_leq,
    bipartition_from_invariants,
    check_partition,
    double,
    enumerate_bipartitions,
    format_bipartition,
    format_partition,
    halve,
    multiplicity,
    order_key,
    parse_bipartition,
    parse_partition,
    partitions_of,
    transpose,
)

partitions_small = st.integers(0, 12).map(lambda n: partitions_of(n)).flatmap(st.sampled_from)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    with pytest.raises(ValueError):
        Bipartition((2.5,), ())
    with pytest.raises(ValueError):
        check_partition((3.0, 1))
    # a float or a Fraction is refused, never truncated, and each refusal
    # names the parts as given, on mu and on nu alike
    refused = [((3.0, 1), "parts must be integers: (3.0, 1)"),
               ((Fraction(2), 1), "parts must be integers: (Fraction(2, 1), 1)"),
               ((2, 0), "parts must be positive: (2, 0)"),
               ((0,), "parts must be positive: (0,)"),
               ((3, -1), "parts must be positive: (3, -1)"),
               ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
               ((3, 1, 2), "partition parts must be weakly decreasing: (3, 1, 2)")]
    for parts, message in refused:
        for mu, nu in ((parts, ()), ((), parts)):
            with pytest.raises(ValueError) as err:
                Bipartition(mu, nu)
            assert str(err.value) == message


def test_transpose_examples():
    assert transpose((4, 4, 3, 2)) == (4, 4, 3, 2)
    assert transpose((5,)) == (1, 1, 1, 1, 1)
    assert transpose(()) == ()


@given(partitions_small)
@settings(max_examples=200, derandomize=True)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam


def test_transpose_matches_its_definition():
    for n in range(21):
        for lam in partitions_of(n):
            columns = range(1, lam[0] + 1) if lam else ()
            assert transpose(lam) == tuple(sum(1 for p in lam if p >= j) for j in columns)


def test_transpose_involution_large():
    for n in range(31):
        for lam in partitions_of(n):
            assert transpose(transpose(lam)) == lam
            assert sum(transpose(lam)) == n


def test_add_examples():
    assert add((2, 1), (1, 1)) == (3, 2)
    assert add((3, 1), ()) == (3, 1)
    # a partition is the sum of its columns
    lam = (2, 2, 1)
    acc = ()
    for height in transpose(lam):
        acc = add(acc, (1,) * height)
    assert acc == lam


@given(partitions_small, partitions_small, partitions_small)
@settings(max_examples=200, derandomize=True)
def test_add_associative_commutative(a, b, c):
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert sum(add(a, b)) == sum(a) + sum(b)


def test_double_examples():
    assert double(Bipartition((2, 1), (1,))) == Bipartition((2, 2, 1, 1), (1, 1))
    assert double(Bipartition((), ())) == Bipartition((), ())
    assert double(Bipartition((), (2,))) == Bipartition((), (2, 2))


def test_halve_inverts_double():
    for n in range(6):
        for b in enumerate_bipartitions(n):
            assert halve(double(b)) == b
    with pytest.raises(ValueError):
        halve(Bipartition((2, 1), (1,)))


def test_enumeration_counts():
    assert len(enumerate_bipartitions(1)) == 2
    assert len(enumerate_bipartitions(2)) == 5
    assert len(enumerate_bipartitions(4)) == 20
    for n in range(9):
        expected = sum(len(partitions_of(k)) * len(partitions_of(n - k))
                       for k in range(n + 1))
        assert len(enumerate_bipartitions(n)) == expected


def test_enumeration_order_and_budget():
    labels = enumerate_bipartitions(3)
    assert labels == sorted(labels, key=order_key)
    assert len(set(labels)) == len(labels)
    with pytest.raises(BudgetExceeded):
        enumerate_bipartitions(31)


def test_closure_order_examples():
    bottom = Bipartition((), (1, 1, 1))
    for b in enumerate_bipartitions(3):
        assert ah_closure_leq(bottom, b)
        assert ah_closure_leq(b, b)
    assert ah_closure_leq(Bipartition((1,), (1,)), Bipartition((2,), ()))
    assert not ah_closure_leq(Bipartition((2,), ()), Bipartition((1,), (1,)))
    with pytest.raises(SizeMismatch):
        ah_closure_leq(Bipartition((1,), ()), Bipartition((2,), ()))


def test_closure_order_is_partial_order():
    for n in range(7):
        labels = enumerate_bipartitions(n)
        leq = {(i, j): ah_closure_leq(a, b)
               for i, a in enumerate(labels) for j, b in enumerate(labels)}
        m = len(labels)
        for i in range(m):
            assert leq[(i, i)]
            for j in range(m):
                if i != j and leq[(i, j)]:
                    assert not leq[(j, i)]
                if leq[(i, j)]:
                    for k in range(m):
                        if leq[(j, k)]:
                            assert leq[(i, k)]


def test_doubling_is_an_order_embedding():
    for n in range(6):
        for b1 in enumerate_bipartitions(n):
            for b2 in enumerate_bipartitions(n):
                assert ah_closure_leq(b1, b2) == ah_closure_leq(double(b1), double(b2))


def test_closure_order_respects_addition():
    # part-wise sums preserve the order in both arguments
    for a1 in enumerate_bipartitions(2):
        for b1 in enumerate_bipartitions(2):
            if not ah_closure_leq(a1, b1):
                continue
            for a2 in enumerate_bipartitions(3):
                for b2 in enumerate_bipartitions(3):
                    if ah_closure_leq(a2, b2):
                        s1 = Bipartition(add(a1.mu, a2.mu), add(a1.nu, a2.nu))
                        s2 = Bipartition(add(b1.mu, b2.mu), add(b1.nu, b2.nu))
                        assert ah_closure_leq(s1, s2)


def test_multiplicity():
    assert multiplicity((3, 2, 2, 1), 2) == 2
    assert multiplicity((1, 1, 1), 1) == 3
    assert multiplicity((3, 2), 7) == 0
    with pytest.raises(ValueError):
        multiplicity((1,), 0)


def test_cyclic_quotient_type_against_matrix_oracle():
    # brute-force sigma: quotient of the normal form by its cyclic subspace
    from nilcones.fields import QQ
    from nilcones.linalg import Mat, inverse, jordan_type_nilpotent
    from nilcones.enhanced import build_representative

    for n in range(7):
        for b in enumerate_bipartitions(n):
            rep = build_representative(b)
            cyc = []
            w = rep.v
            while not w.is_zero():
                cyc.append(list(w.entries))
                w = rep.x.mul_vec(w)
            m = len(cyc)
            if m == 0:
                sigma = jordan_type_nilpotent(rep.x)
            else:
                cols = list(cyc)
                for j in range(n):
                    unit = [QQ.zero] * n
                    unit[j] = QQ.one
                    trial = Mat(QQ, tuple(zip(*(cols + [unit]))))
                    from nilcones.linalg import rank

                    if rank(trial) == len(cols) + 1:
                        cols.append(unit)
                    if len(cols) == n:
                        break
                p = Mat(QQ, tuple(zip(*cols)))
                conj = inverse(p).mul(rep.x).mul(p)
                quot = Mat(QQ, tuple(row[m:] for row in conj.rows[m:]))
                sigma = jordan_type_nilpotent(quot)
            assert bipartition_from_invariants(n, add(b.mu, b.nu), sigma) == b, b


def reference_quotient_type(b):
    """Jordan type of x on k^n / k[x]v for the normal representative of b,
    by inclusion-exclusion: x^m v has its chain-i component at depth
    mu_i - m, which lies in the image of x^j exactly when
    j <= m + min{nu_i : mu_i > m}."""
    mu, nu = b.mu, b.nu
    lam = add(mu, nu)
    m1 = mu[0] if mu else 0

    def g(m):
        k = sum(1 for p in mu if p > m)
        return nu[k - 1] if k - 1 < len(nu) else 0

    def quotient_rank(j):
        full = sum(max(p - j, 0) for p in lam)
        in_w = sum(1 for m in range(m1) if m + g(m) >= j)
        return full - in_w

    col = []
    j = 1
    prev = quotient_rank(0)
    assert prev == b.n - m1
    while prev > 0:
        cur = quotient_rank(j)
        col.append(prev - cur)
        prev = cur
        j += 1
    return transpose(tuple(col))


def test_bipartition_from_invariants_matches_the_table():
    # the table the recurrence replaced: every label of size n keyed by
    # (lam, sigma), with sigma by inclusion-exclusion
    for n in range(13):
        table = {}
        for b in enumerate_bipartitions(n):
            key = (add(b.mu, b.nu), reference_quotient_type(b))
            assert key not in table, (b, table[key])
            table[key] = b
        for key, b in table.items():
            assert bipartition_from_invariants(n, *key) == b
        if n > 9:
            continue
        for lam in partitions_of(n):
            for sigma in (s for size in range(n + 2) for s in partitions_of(size)):
                if (lam, sigma) not in table:
                    with pytest.raises(ValueError):
                        bipartition_from_invariants(n, lam, sigma)
    # no size cap: identification once stopped at n = 16
    assert bipartition_from_invariants(20, (20,), ()) == Bipartition((20,), ())
    assert bipartition_from_invariants(20, (20,), (20,)) == Bipartition((), (20,))


def test_text_grammar():
    assert parse_partition("2^3,1") == (2, 2, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("4,4,3,2") == (4, 4, 3, 2)
    assert format_partition((2, 2, 2, 1)) == "2^3,1"
    assert format_partition((2, 2, 1), exponents=False) == "2,2,1"
    b = parse_bipartition("2^3,1;2^2,1^2")
    assert b == Bipartition((2, 2, 2, 1), (2, 2, 1, 1))
    assert parse_bipartition(";1^3") == Bipartition((), (1, 1, 1))
    assert parse_bipartition("(1;1)") == Bipartition((1,), (1,))
    for n in range(6):
        for b in enumerate_bipartitions(n):
            assert parse_bipartition(format_bipartition(b)) == b
            assert parse_bipartition(format_bipartition(b, exponents=False)) == b
    with pytest.raises(ParseError):
        parse_partition("2,x")
    with pytest.raises(ParseError):
        parse_bipartition("1,1")
    with pytest.raises(ParseError):
        parse_bipartition("1;1;1")


def test_composition_validation():
    c = Composition((4, 2, 3, 5), k=2)
    assert (c.parts, c.k) == ((4, 2, 3, 5), 2)
    with pytest.raises(ValueError):
        Composition((4, 0), k=0)
    with pytest.raises(ValueError):
        Composition((4, 2), k=3)
    with pytest.raises(ValueError):
        Composition((2.7, 1))

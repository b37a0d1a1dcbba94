"""Partitions, bipartitions and compositions.

Partitions are plain tuples of weakly decreasing positive ints (the empty
tuple is the partition of 0).  A bipartition of n is a pair of partitions
(mu; nu) with |mu| + |nu| = n; these label the orbits in both nilpotent
cones.  Text grammar: parts comma separated with exponent shorthand, so
"2^3,1" means (2,2,2,1); a bipartition is written "mu;nu", e.g. "2,1;1^2".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import groupby, zip_longest
from operator import index, le

from .errors import BudgetExceeded, ParseError, SizeMismatch

ENUMERATION_BUDGET = 30


def positive_parts(parts):
    """The parts as a tuple of ints; ValueError unless every part is a
    positive integer (a float or a Fraction is refused, never truncated)."""
    parts = tuple(parts)
    try:
        parts = tuple(map(index, parts))
    except TypeError:
        raise ValueError(f"parts must be integers: {parts}") from None
    if parts and min(parts) <= 0:
        raise ValueError(f"parts must be positive: {parts}")
    return parts


def check_partition(parts):
    """Validate and normalise a sequence into a partition tuple of ints."""
    parts = positive_parts(parts)
    if not all(map(le, parts[1:], parts)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def transpose(lam):
    """Transpose partition: lam^tr_j = #{i : lam_i >= j}.  The parts are
    weakly decreasing, so that count is read off by one walk down them."""
    out = []
    i = len(lam)
    for j in range(1, lam[0] + 1 if lam else 1):
        while lam[i - 1] < j:
            i -= 1
        out.append(i)
    return tuple(out)


def add(lam, mu):
    """Part-wise sum after right-padding with zeros."""
    out = []
    for i in range(max(len(lam), len(mu))):
        a = lam[i] if i < len(lam) else 0
        b = mu[i] if i < len(mu) else 0
        out.append(a + b)
    return tuple(p for p in out if p > 0)


def part_runs(lam):
    """(part, count) for each run of equal parts of lam, in order."""
    return [(p, len(tuple(run))) for p, run in groupby(lam)]


def multiplicity(lam, i):
    """Number of parts of lam equal to i (i >= 1)."""
    if i < 1:
        raise ValueError("part value must be >= 1")
    return sum(1 for p in lam if p == i)


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n (parts <= max_part), sorted by tuple order."""
    if n < 0:
        return ()
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(1, max_part + 1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Bipartition:
    """A pair of partitions (mu; nu); labels one nilpotent orbit."""

    mu: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", check_partition(self.mu))
        object.__setattr__(self, "nu", check_partition(self.nu))

    @classmethod
    def _of(cls, mu, nu):
        """(mu; nu) from partition tuples of ints that are already
        canonical, as the enumeration and the block sum build them."""
        b = object.__new__(cls)
        object.__setattr__(b, "mu", mu)
        object.__setattr__(b, "nu", nu)
        return b

    @property
    def n(self):
        return sum(self.mu) + sum(self.nu)

    def __str__(self):
        return format_bipartition(self)


def sum_bipartitions(blocks):
    """Part-wise sum (sum mu^(i); sum nu^(i)) of a sequence of bipartitions;
    the label of the orbit induced from the blocks."""
    mu, nu = (), ()
    for b in blocks:
        mu = add(mu, b.mu)
        nu = add(nu, b.nu)
    return Bipartition._of(mu, nu)


def order_key(b):
    """Key for the fixed total order on bipartitions of a given size:
    |mu| descending, then lexicographic on mu, then on nu."""
    return (-sum(b.mu), b.mu, b.nu)


def double(b):
    """Duplicate every part of mu and nu; the label of size 2n that the
    doubling embedding assigns to the label b of size n."""
    mu = tuple(sorted((p for p in b.mu for _ in range(2)), reverse=True))
    nu = tuple(sorted((p for p in b.nu for _ in range(2)), reverse=True))
    return Bipartition(mu, nu)


def halve(b):
    """Inverse of :func:`double`; raises ValueError if a part multiset is
    not a doubling."""
    def _half(parts):
        if len(parts) % 2:
            raise ValueError(f"{parts} is not doubled")
        for i in range(0, len(parts), 2):
            if parts[i] != parts[i + 1]:
                raise ValueError(f"{parts} is not doubled")
        return parts[0::2]

    return Bipartition(_half(b.mu), _half(b.nu))


def enumerate_bipartitions(n):
    """All bipartitions of n, sorted by the fixed total order."""
    if n > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"bipartition enumeration capped at n <= {ENUMERATION_BUDGET}")
    if n < 0:
        return []
    out = [
        Bipartition._of(mu, nu)
        for s in range(n, -1, -1)
        for mu in partitions_of(s)
        for nu in partitions_of(n - s)
    ]
    out.sort(key=order_key)
    return out


@cache
def _prefix_sums(b, length):
    """Prefix sums of the interleaved sequence mu_1, nu_1, mu_2, nu_2, ...,
    padded with |b| to ``length`` >= 2 max(l(mu), l(nu)).  They add: the
    sums of a part-wise block sum are the entrywise sums of the blocks'.

    Kept once per process for each (b, length), one tuple per pair asked:
    a class label of size n asks for each block at length 2n, so the
    classes of size n <= N ask for at most sum_(m <= N) (N - m + 1) times
    the bipartitions of m (274 pairs for N = 6, 7,999 for N = 12), and
    :func:`ah_closure_leq` for each label it compares at length 2|b|."""
    sums, acc = [], 0
    for i in range(length // 2):
        acc += b.mu[i] if i < len(b.mu) else 0
        sums.append(acc)
        acc += b.nu[i] if i < len(b.nu) else 0
        sums.append(acc)
    return tuple(sums)


def _sums_leq(s1, s2):
    """The closure order on prefix sums of one length: entrywise <=."""
    return all(map(le, s1, s2))


def ah_closure_leq(b1, b2):
    """Closure order on orbit labels: compare all partial sums of the
    interleaved sequences (mu_1, nu_1, mu_2, nu_2, ...).

    This combinatorial rule is validated against the geometric flag and
    group-sweep oracles (see nilcones.enhanced) for every pair at small n;
    the library treats that agreement as the rule's certificate.
    """
    n = b1.n
    if n != b2.n:
        raise SizeMismatch(f"sizes differ: {n} != {b2.n}")
    return _sums_leq(_prefix_sums(b1, 2 * n), _prefix_sums(b2, 2 * n))


def bipartition_from_invariants(n, lam, sigma):
    """Recover the orbit label from the pair (Jordan type, quotient type).

    Achar and Henderson fix the orbit of (v, x) by lam, the Jordan type of
    x, and sigma, the Jordan type of x on k^n / k[x]v.  In the normal form
    of (mu; nu), chain i has length lam_i = mu_i + nu_i and v sits at depth
    mu_i.  With e_(j, d) the vector at depth d of chain j, the vector
    t_i = sum_(j <= i) e_(j, mu_j + nu_i) has x^(nu_i) t_i =
    sum_(j <= i) e_(j, mu_j), which is -sum_(j > i) e_(j, mu_j) modulo k[x]v;
    x kills that after mu_(i+1) more steps.  So the chains of x on the
    quotient have lengths sigma_i = nu_i + mu_(i+1), n - mu_1 in all, and
    the label is read back by mu_1 = n - |sigma|, nu_i = lam_i - mu_i and
    mu_(i+1) = sigma_i - nu_i.  Where that yields no pair of partitions
    with these invariants, no orbit of size n has them: ValueError.
    """
    lam, sigma = tuple(lam), tuple(sigma)
    ok = sum(lam) == n and len(sigma) <= len(lam) and 0 not in lam and 0 not in sigma
    mu, nu = [], []
    m, mu_top, nu_top = n - sum(sigma), n, n
    for part, s in zip_longest(lam, sigma, fillvalue=0):
        r = part - m
        ok = ok and 0 <= m <= mu_top and 0 <= r <= nu_top
        if m:
            mu.append(m)
        if r:
            nu.append(r)
        mu_top, nu_top, m = m, r, s - r
    if not ok or m:
        raise ValueError(f"no orbit of size {n} has invariants {(lam, sigma)}")
    return Bipartition._of(tuple(mu), tuple(nu))


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive block sizes with a marked prefix.

    The first k blocks are the ones carrying a nonzero vector component;
    induction data require the marked blocks to form a prefix so that an
    adapted parabolic exists.
    """

    parts: tuple
    k: int = 0

    def __post_init__(self):
        parts = positive_parts(self.parts)
        if not 0 <= self.k <= len(parts):
            raise ValueError(f"marked prefix {self.k} out of range for {parts}")
        object.__setattr__(self, "parts", parts)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text):
    """Parse "2^3,1" style text into a partition tuple."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    parts = []
    for token in text.split(","):
        token = token.strip()
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad partition token: {token!r}")
        value, exp = int(m.group(1)), int(m.group(2) or 1)
        parts.extend([value] * exp)
    try:
        return check_partition(sorted(parts, reverse=True))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_partition(parts, exponents=True):
    if not parts:
        return ""
    if not exponents:
        return ",".join(str(p) for p in parts)
    return ",".join(f"{p}^{run}" if run > 1 else str(p) for p, run in part_runs(parts))


def parse_bipartition(text):
    """Parse "mu;nu" (optionally parenthesised) into a Bipartition."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if text.count(";") != 1:
        raise ParseError(f"bipartition needs exactly one ';': {text!r}")
    mu_text, nu_text = text.split(";")
    return Bipartition(parse_partition(mu_text), parse_partition(nu_text))


def format_bipartition(b, exponents=True):
    return f"({format_partition(b.mu, exponents)};{format_partition(b.nu, exponents)})"

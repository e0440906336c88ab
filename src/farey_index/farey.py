"""Farey sequences of order Q: the denominator stream, seeking, and ranks.

The Farey sequence F_Q is the ascending list of reduced fractions in (0, 1]
with denominator at most Q, extended periodically by gamma_{i+N} = gamma_i + 1
where N = N(Q) is the totient summatory function.  Walking the sequence costs
one integer division per step: with gamma_i = a_i/q_i,

    k       = floor((Q + q_{i-1}) / q_i)
    q_{i+1} = k * q_i - q_{i-1}        a_{i+1} = k * a_i - a_{i-1}

and the multiplier k is precisely the index nu_Q(gamma_i), which also equals
(q_{i-1} + q_{i+1})/q_i and (a_{i-1} + a_{i+1})/a_i exactly.

The element before gamma_1 = 1/Q is gamma_0 = 0/1, so q_0 = 1; this is forced
by the periodic extension and is validated by the exact identity
sum(nu) = 3 N(Q) - 1.

The index depends on denominators alone, so the one stream of indices,
`index_blocks`, carries no numerators; `seek` gives the consecutive pair
(as plain integers) to start it from at any t, both ends of one bounded
Stern-Brocot descent, and `farey_ranks` the number of steps to any other t.
Python integers never overflow, so arbitrarily large Q is safe.

Every count of F_Q, the ranks and N(Q) here and the lattice counts of
`stats`, is sum_d mu(d) G(floor(n/d)) over the O(sqrt n) `_moebius_runs` of
d sharing floor(n/d), weighted by one Mertens table kept for the process.  Only
`stats.visible_points_count` loops over each d: its edges depend on d.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate, compress
from math import isqrt
from typing import Iterator, Tuple

_BLOCK = 4096  # most indices one list of `index_blocks` holds


def totient_summatory(q_max: int) -> int:
    """N(Q) = sum of phi(j), j <= Q: the pairs a <= q <= m number m(m + 1)/2, one term per run."""
    return sum(w * m * (m + 1) // 2 for m, w in _moebius_runs(q_max, q_max))


def seek(order: int, t) -> Tuple[int, int, int, int]:
    """The consecutive pair a/b <= t < c/d of the extended sequence, as (a, b, c, d).

    Both neighbors are the ends at which the bounded Stern-Brocot descent
    toward t stops (O(log Q) iterations); t = 1 pairs 1/1 with its successor
    (Q + 1)/Q in the next period.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError("t must lie in [0, 1]")
    if t == 1:
        return 1, 1, order + 1, order
    a, b, c, d = 0, 1, 1, 1
    for a, b, c, d, _ in _descent(order, t.numerator, t.denominator):
        pass
    return a, b, c, d


def _descent(order: int, p: int, r: int) -> Iterator[Tuple[int, int, int, int, int]]:
    """The moves of the bounded Stern-Brocot descent toward p/r in [0, 1).

    The descent keeps Farey neighbors a/b <= p/r < c/d, from 0/1 and 1/1, and
    replaces one end by their mediant while its denominator b + d is at most
    Q, so it ends at the neighbors of p/r in F_Q.  Runs of mediant steps on
    one side are batched (O(log Q) iterations), and each run yields the new
    ends as (a, b, c, d, j).  A run of j >= 1 steps of the left end, all
    toward the same c/d, passes a/b and the j - 1 elements before it, over
    b - j d + i d for i = 1..j; a run of the right end yields j = 0.
    """
    a, b, c, d = 0, 1, 1, 1
    while b + d <= order:
        if (a + c) * r <= p * (b + d):
            # mediant <= t: batch-move the left endpoint toward t
            num = p * b - a * r
            den = c * r - p * d
            j = min(num // den, (order - b) // d)
            a, b = a + j * c, b + j * d
            yield a, b, c, d, j
        else:
            # mediant > t: batch-move the right endpoint toward t
            num = c * r - p * d
            den = p * b - a * r
            j = (order - d) // b
            if den > 0:
                j = min((num - 1) // den, j)
            c, d = c + j * a, d + j * b
            yield a, b, c, d, 0


_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # mu -> -mu on the bytes mu mod 256
_mertens = memoryview(array("i")).toreadonly()  # M(0..n) for the largest n sieved so far


def _sieve_mertens(n: int) -> array:
    """M(0..n), M(k) = mu(1) + ... + mu(k), summed from mu mod 256 sieved by byte slices."""
    prime = bytearray(b"\x01") * (n + 1)
    for p in range(2, isqrt(n) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(n // p - p + 1)
    mu = bytearray(1) + b"\x01" * n  # mu(0) = 0 makes M(0) = 0
    for p in compress(range(2, n + 1), prime[2:]):
        mu[p::p] = mu[p::p].translate(_NEGATE)
        mu[p * p::p * p] = bytes(n // (p * p))
    return array("i", accumulate(memoryview(mu).cast("b")))


def _mertens_table(n: int) -> memoryview:
    """M(0..m) for some m >= n, read-only, from the one table every count shares.

    A request beyond the table resieves it to at least twice its length, so
    requests up to n cost at most log2(n + 1) + 1 sieves, and the table never
    holds more than 2n + 1 entries for the largest n requested.
    """
    global _mertens
    if n >= len(_mertens):
        _mertens = memoryview(_sieve_mertens(max(n, 2 * len(_mertens)))).toreadonly()
    return _mertens


def _moebius_runs(n: int, d_max: int) -> list[Tuple[int, int]]:
    """[(m, w)], ascending in d, for the runs of d <= d_max sharing m = floor(n/d).

    w = M(end) - M(d - 1) sums mu over the run, so sum_d mu(d) G(floor(n/d)) is sum w G(m).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    mertens, runs, d = _mertens_table(d_max), [], 1
    while d <= d_max:
        m = n // d
        end = min(n // m, d_max)
        runs.append((m, mertens[end] - mertens[d - 1]))
        d = end + 1
    return runs


def farey_ranks(order: int, cuts) -> list[int]:
    """#{gamma in F_Q : gamma <= t} for each t in `cuts`, over the Moebius runs of Q.

    The pairs (a, q) with 1 <= q <= m and 1 <= a <= t q number
    S_t(m) = sum_{q <= m} floor(t q); removing the non-reduced ones by Moebius
    inversion leaves sum_d mu(d) S_t(floor(Q/d)), one S_t(m) per run.  O(Q)
    time per cut point, and no memory beyond the table and the runs.
    """
    runs = _moebius_runs(order, order)[::-1]
    ranks = []
    for t in cuts:
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError("t must lie in [0, 1]")
        p, r = t.numerator, t.denominator
        rank = s = k = 0  # s = S_t(k)
        for m, w in runs:
            while k < m:
                k += 1
                s += p * k // r
            rank += w * s
        ranks.append(rank)
    return ranks


def index_blocks(order: int, pd: int, cd: int, steps: int) -> Iterator[list[int]]:
    """Indices of the `steps` elements after denominators (pd, cd), in lists of <= _BLOCK."""
    while steps > 0:
        block = []
        append = block.append
        for _ in range(min(steps, _BLOCK)):
            k = (order + pd) // cd
            append(k)
            pd, cd = cd, k * cd - pd
        steps -= len(block)
        yield block

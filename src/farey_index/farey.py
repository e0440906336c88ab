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

Every count of F_Q, the ranks and N(Q) here and the lattice counts and
coprime polygon points of `stats`, is sum_d mu(d) G(floor(n/d)) over the
`_moebius_runs` of d sharing floor(n/d) for each of a few numerators n,
O(sqrt n) runs for each, weighted by one Mertens table kept for the process.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import accumulate, compress
from math import isqrt
from typing import Iterator, Tuple

_BLOCK = 4096  # most indices one list of `index_blocks` holds


def totient_summatory(q_max: int) -> int:
    """N(Q) = sum of phi(j), j <= Q: the pairs a <= q <= m number m(m + 1)/2, one term per run."""
    return sum(w * (m := q_max // d) * (m + 1) // 2 for d, w in _moebius_runs([q_max], q_max))


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
    root = isqrt(n)
    prime = bytearray(b"\x01") * (n + 1)
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p::p] = bytes(n // p - p + 1)
    mu = bytearray(1) + b"\x01" * n  # mu(0) = 0 makes M(0) = 0
    for p in compress(range(2, root + 1), prime[2:root + 1]):
        mu[p * p::p * p] = bytes(n // (p * p))  # a negation keeps a 0
    for p in compress(range(2, n + 1), prime[2:]):
        mu[p::p] = mu[p::p].translate(_NEGATE)
    return array("i", accumulate(memoryview(mu).cast("b")))


def _mertens_table(n: int) -> memoryview:
    """M(0..m) for some m >= n, read-only, from the one table every count shares.

    A request beyond the table resieves it to at least twice its length, so
    requests up to n cost at most log2(n + 1) + 1 sieves, and the table never
    holds more than 2n + 1 entries for the largest n requested.  An n whose
    table a bytearray cannot index is refused before anything is allocated.
    """
    global _mertens
    if n >= sys.maxsize:
        raise ValueError(f"order {n} is too large: a Mertens table is indexed up to {sys.maxsize - 1}")
    if n >= len(_mertens):
        _mertens = memoryview(_sieve_mertens(max(n, 2 * len(_mertens)))).toreadonly()
    return _mertens


def _moebius_runs(numerators, d_max: int) -> list[Tuple[int, int]]:
    """[(d, w)] for the maximal runs d..end of d <= d_max on which every floor(n/d) is constant.

    The numerators n are >= 0, and w = M(end) - M(d - 1) sums mu over the
    run, so sum_d mu(d) G(floor(n/d)) is sum w G(floor(n/d)) over the runs;
    the runs of w = 0 add nothing and are left out.
    """
    if d_max < 1:
        raise ValueError("order must be >= 1")
    mertens, runs, d = _mertens_table(d_max), [], 1
    while d <= d_max:
        end = min([d_max] + [n // (n // d) for n in numerators if n >= d])
        if w := mertens[end] - mertens[d - 1]:
            runs.append((d, w))
        d = end + 1
    return runs


def _floor_sum(n: int, p: int, r: int) -> int:
    """sum_{k < n} floor(p k / r) for p >= 0 and r >= 1, in O(log r) steps.

    The whole part of p/r (and of an offset b/r, 0 at first) is summed in
    closed form; what is left counts the lattice points under a line of
    slope p/r < 1, which, read with the axes swapped, is a sum of the same
    kind for r/p, so (p, r) shrinks as in Euclid's algorithm.
    """
    total = b = 0
    while True:
        total += n * (n - 1) // 2 * (p // r) + n * (b // r)
        p, b = p % r, b % r
        top = p * n + b
        if top < r:
            return total
        n, b, p, r = top // r, top % r, r, p


def farey_ranks(order: int, cuts) -> list[int]:
    """#{gamma in F_Q : gamma <= t} for each t in `cuts`, over the Moebius runs of Q.

    The pairs (a, q) with 1 <= q <= m and 1 <= a <= t q number
    S_t(m) = sum_{q <= m} floor(t q), a floor sum; removing the non-reduced
    ones by Moebius inversion leaves sum_d mu(d) S_t(floor(Q/d)), one floor
    sum per run: O(sqrt Q log r) time for a cut p/r beyond the table.
    """
    runs = _moebius_runs([order], order)
    ranks = []
    for t in cuts:
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError("t must lie in [0, 1]")
        ranks.append(sum(w * _floor_sum(order // d + 1, t.numerator, t.denominator) for d, w in runs))
    return ranks


def index_blocks(order: int, pd: int, cd: int, steps: int) -> Iterator[list[int]]:
    """Indices of the `steps` elements after denominators (pd, cd), in lists of <= _BLOCK.

    Each pass takes two steps: the first overwrites pd with the next
    denominator, so the pair reads (newer, older) and the second step writes
    cd back in the order (older, newer); no tuple is built per step.
    """
    while steps > 0:
        block = []
        append = block.append
        n = min(steps, _BLOCK)
        for _ in range(n >> 1):
            k = (order + pd) // cd
            append(k)
            pd = k * cd - pd
            k = (order + cd) // pd
            append(k)
            cd = k * pd - cd
        if n & 1:
            k = (order + pd) // cd
            append(k)
            pd, cd = cd, k * cd - pd
        steps -= n
        yield block

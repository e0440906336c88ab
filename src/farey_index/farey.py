"""Farey sequences of order Q: streaming generation, seeking, and the index.

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

Python integers never overflow, so arbitrarily large Q is safe; all statistics
below depend only on denominators, and the denominator-only generators are the
fast path for large enumerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Tuple


def totient_summatory(q_max: int) -> int:
    """N(Q) = sum of Euler phi(j) for j <= Q, by a linear sieve."""
    if q_max < 1:
        raise ValueError("order must be >= 1")
    phi = list(range(q_max + 1))
    for p in range(2, q_max + 1):
        if phi[p] == p:  # p prime
            for multiple in range(p, q_max + 1, p):
                phi[multiple] -= phi[multiple] // p
    return sum(phi[1:])


@dataclass(frozen=True)
class FareyWalker:
    """Two consecutive elements of the extended Farey sequence of order Q."""

    order: int
    prev: Fraction
    curr: Fraction

    def __post_init__(self):
        q = self.order
        pd = self.prev.denominator
        cd = self.curr.denominator
        if q < 1:
            raise ValueError("order must be >= 1")
        if not (1 <= pd <= q and 1 <= cd <= q):
            raise ValueError("denominators must lie in [1, Q]")
        if pd + cd <= q:
            raise ValueError("consecutive denominators must satisfy q + q' > Q")
        if self.curr.numerator * pd - self.prev.numerator * cd != 1:
            raise ValueError("pair is not unimodular")


def walker_start(order: int) -> FareyWalker:
    """Walker positioned at (0/1, 1/Q), i.e. just before the first element."""
    return FareyWalker(order, Fraction(0), Fraction(1, order))


def walker_step(w: FareyWalker) -> FareyWalker:
    """Advance one element: (prev, curr) -> (curr, next)."""
    k = (w.order + w.prev.denominator) // w.curr.denominator
    nxt = Fraction(
        k * w.curr.numerator - w.prev.numerator,
        k * w.curr.denominator - w.prev.denominator,
    )
    return FareyWalker(w.order, w.curr, nxt)


def index_of(w: FareyWalker) -> int:
    """Index of the walker's current element: floor((Q + q_prev)/q_curr) >= 1."""
    return (w.order + w.prev.denominator) // w.curr.denominator


def neighbor_numerators(q: int, q2: int, order: int) -> Tuple[int, int]:
    """Numerators (a, a2) of the consecutive pair a/q < a2/q2 in F_Q.

    Solves a2*q - a*q2 = 1 with a2 in {1, ..., q2}; then a is in {1, ..., q-1}
    except for the boundary pair q = 1 (the pair 0/1 < 1/q2, giving a = 0).
    """
    if not (1 <= q <= order and 1 <= q2 <= order):
        raise ValueError("denominators must lie in [1, Q]")
    if q + q2 <= order:
        raise ValueError("not a consecutive pair: q + q2 must exceed Q")
    if math.gcd(q, q2) != 1:
        raise ValueError("denominators must be coprime")
    a2 = pow(q, -1, q2)
    if a2 == 0:  # modulus 1
        a2 = q2
    a = (a2 * q - 1) // q2
    return a, a2


def seek(order: int, t) -> FareyWalker:
    """Walker positioned around t: prev <= t < curr in the extended sequence.

    The left neighbor is found by a bounded Stern-Brocot descent with batched
    mediant steps (O(log Q) iterations), the right neighbor by the modular
    reconstruction of consecutive pairs.
    """
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError("t must lie in [0, 1]")
    p, r = t.numerator, t.denominator

    if p == r:  # t == 1
        a, b = 1, 1
    else:
        # invariant: a/b <= t < c/d with bc - ad = 1
        a, b, c, d = 0, 1, 1, 1
        while b + d <= order:
            if (a + c) * r <= p * (b + d):
                # mediant <= t: batch-move the left endpoint toward t
                num = p * b - a * r
                den = c * r - p * d
                j = min(num // den, (order - b) // d)
                a, b = a + j * c, b + j * d
            else:
                # mediant > t: batch-move the right endpoint toward t
                num = c * r - p * d
                den = p * b - a * r
                j = (order - d) // b
                if den > 0:
                    j = min((num - 1) // den, j)
                c, d = c + j * a, d + j * b

    # successor of a/b: unique q2 in (Q - b, Q] with a*q2 = -1 (mod b)
    inv = pow(a, -1, b) if b > 1 else 0
    residue = (-inv) % b
    q2 = order - ((order - residue) % b)
    a2 = (1 + a * q2) // b
    return FareyWalker(order, Fraction(a, b), Fraction(a2, q2))


def _moebius(n: int) -> list[int]:
    """mu(0..n) by an Eratosthenes sieve (mu[0] is unused)."""
    mu = [1] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:  # p prime
            for m in range(p, n + 1, p):
                composite[m] = 1
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def farey_ranks(order: int, cuts) -> list[int]:
    """#{gamma in F_Q : gamma <= t} for each t in `cuts`, from one Moebius sieve.

    The pairs (a, q) with 1 <= q <= m and 1 <= a <= t q number
    S_t(m) = sum_{q <= m} floor(t q); removing the non-reduced ones by Moebius
    inversion leaves sum_d mu(d) S_t(floor(Q/d)).  O(Q) time per cut point,
    and no memory beyond the sieve.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    mu = _moebius(order)
    ranks = []
    for t in cuts:
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError("t must lie in [0, 1]")
        p, r = t.numerator, t.denominator
        rank = s = m = 0  # s = S_t(m); m = floor(Q/d) grows as d falls
        for d in range(order, 0, -1):
            while m < order // d:
                m += 1
                s += p * m // r
            rank += mu[d] * s
        ranks.append(rank)
    return ranks


def farey_rank(order: int, t) -> int:
    """#{gamma in F_Q : gamma <= t}, the number of elements of (0, t] in F_Q."""
    return farey_ranks(order, (t,))[0]


def index_stream(order: int) -> Iterator[int]:
    """Indices nu(gamma_1), nu(gamma_2), ... as an infinite generator.

    Denominator-only fast path; the stream is periodic with period N(Q).
    """
    qp, qc = 1, order
    while True:
        k = (order + qp) // qc
        yield k
        qp, qc = qc, k * qc - qp


def index_sequence(order: int) -> list[int]:
    """The indices of all N(Q) elements of F_Q, in order."""
    n = totient_summatory(order)
    out = []
    qp, qc = 1, order
    for _ in range(n):
        k = (order + qp) // qc
        out.append(k)
        qp, qc = qc, k * qc - qp
    return out


def interval_walk(order: int, t0, t1) -> Iterator[Tuple[int, int, int]]:
    """Yield (numerator, denominator, index) for each gamma in (t0, t1] of F_Q."""
    t0 = Fraction(t0)
    t1 = Fraction(t1)
    if not (0 <= t0 <= t1 <= 1):
        raise ValueError("need 0 <= t0 <= t1 <= 1")
    w = seek(order, t0)
    pn, pd = w.prev.numerator, w.prev.denominator
    cn, cd = w.curr.numerator, w.curr.denominator
    n1, d1 = t1.numerator, t1.denominator
    while cn * d1 <= n1 * cd:
        k = (order + pd) // cd
        yield cn, cd, k
        pn, pd, cn, cd = cn, cd, k * cn - pn, k * cd - pd

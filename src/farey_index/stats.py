"""Exact large-Q enumeration of Farey index statistics.

Every statistic is exact: sums and counts are Python integers, comparisons
against asymptotic predictions happen only at report time.  There are three
routes.

The lattice route counts instead of walking.  The consecutive denominators
(q', q) of F_Q are exactly the coprime pairs with q, q' <= Q < q + q', and
for fixed q the index nu = floor((Q+q')/q) takes one of the two values
floor(2Q/q) - 1 and floor(2Q/q) on two ranges of q'.  Moebius inversion on
the runs of `farey._moebius_runs` counts the coprime q' on each range, so
the whole index histogram costs O(Q^(3/4)) beyond the Mertens table; the
power moments and the Hall-Shiu count are read off it.  Coprime lattice
points of a scaled polygon are counted by Moebius inversion over the common
divisor d, whose edge inequalities depend on d only through a few floor(K/d),
so one column count serves each run of d on which all of them are constant.

The gap identity closes the partial index sums.  Let a/b < c/d be
neighbors of some F_r, r <= Q, and n the number of elements of F_Q strictly
between them.  Then their indices sum to
    3 n - floor((Q - d)/b) - floor((Q - b)/d),
by induction on Q - b - d: with b + d > Q there is nothing between them
(n = 0, and both floors are 0), and otherwise the mediant, of index
1 + floor((Q - b)/(b + d)) + floor((Q - d)/(b + d)), splits the gap into
two, whose sums add up to the claim.  Summed along the left ends of the
Stern-Brocot descent toward t, it gives the sum over (0, t] from rank(t) in
O(log Q) steps (`partial_index_sums`); over all of F_Q it is Hall-Shiu's
3 N(Q) - 1.  With r = floor(Q/2) every gap holds two chains, and its
indices run 1, 2, ..., 2, 3, 2, ..., 2, 1 (`_run_counts`), so the counts of
index values between two elements of F_r come from a walk of F_r, about a
quarter of the elements of F_Q between them (`_index_value_counts`, for
the threshold counts).

The walk route reads the denominator-only recurrence (one division per
element) through the stream `farey.index_blocks`.  It serves the
autocorrelations S_{h,t}, which do not add up gap by gap, and `sum_index`,
which walks so that it checks the lattice by an independent route.  Each
walks F_Q at most once per order Q, however many parameters are asked for,
and never past 1/2 but for the lookahead of the lags: the mirror
gamma -> 1 - gamma keeps denominators and indices, nu_{N-i} = nu_i with
nu_0 = nu_N = 2Q.  Let W(c) sum phi_i over the positions 1 <= i <= rank(c),
and T(c, m) over the m positions that end at rank(c).  The index sums and
the counts of index values take phi_i = f(nu_i) and d = 0.  S_h, with
g = h mod N, walks the lag s = min(g, N - g), phi_i = nu_i nu_{i+s}, with
d = s if g = s and d = 0 if g = N - s.  Then for every c in [0, 1]
    W(1 - c) = W(1) - T(0, d + 1) - W(c) + T(c, d + [c in F_Q]),
where for S_h the left side sums nu_i nu_{i+g}.  At c = 1/2 it gives the
whole period (S_s with d = s) from the walk of (0, 1/2], and at c = 1 - t
every 1/2 < t < 1 from the sums up to 1 - t.  (L, U) applies it to its
counts of index values, with W(1) read off the lattice histogram, so t = 1
walks nothing, and at c = 1/2, so a cut c in (1/4, 1/2] is the count over
(0, 1/2] less the mirror of a walk from 1/2 to 1 - c; it needs only those
counts, because every element over q has index floor((2Q+1)/q) - 1 or
floor((2Q+1)/q) and the denominators below a bound are counted by a Farey
rank.  The walk of S_h is split into chunks at `workers` equal slices of
its range and at every min(t, 1 - t).  Each chunk starts from the
denominators `seek` finds at its left end and runs for an exact step count,
the difference of the Farey ranks of its two ends, so no kernel carries
numerators or compares fractions; a serial run has one chunk per cut.  The
chunks run on processes forked for the walk (`_forked_map`), at most one
per CPU, this one included, and their results come back marshalled over a
pipe.  The value at a cut is the sum of the chunk results up to it.
Partial results merge associatively, so results are identical for every
chunk count, which is what makes `workers` a pure throughput knob.  Only
the S_h functions take it: `sum_index` and the walks of F_{Q/2} behind
(L, U) run in one process, and the other routes walk nothing."""

from __future__ import annotations

import marshal
import math
import os
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Tuple, Union

# `bcz` holds the constants of the predictions: the three record functions
# that read them import it, so no other route loads the geometry side
from . import farey
from .farey import farey_ranks, index_blocks, seek, totient_summatory

if TYPE_CHECKING:
    from .geometry import ConvexPolygon

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# analytic constants for the second-moment prediction
# ---------------------------------------------------------------------------

# Euler's constant and zeta'(2)/zeta(2), the doubles that series evaluations
# gave (the harmonic-sum expansion at n = 10^4; the log series to 2*10^4 terms
# with an Euler-Maclaurin tail), within 4e-14 of the true values; pinned, the
# `moment` payloads keep every digit.
EULER_GAMMA = 0.5772156649014979
ZETA_PRIME_OVER_ZETA_TWO = -0.56996099309453


def second_moment_prediction(q_max: int) -> float:
    """Leading term of the sum of squared indices over F_Q."""
    c = math.log(2 * q_max) - ZETA_PRIME_OVER_ZETA_TWO - 17 / 8 + 2 * EULER_GAMMA
    return 24 / math.pi**2 * q_max**2 * c


# ---------------------------------------------------------------------------
# chunked walking machinery
# ---------------------------------------------------------------------------

def _chunk_autocorr(task) -> list:
    """Sums of nu_i * nu_{i+h} over `steps` consecutive elements gamma_i, one per lag h >= 0.

    The walk runs max(h) elements past the chunk, and each block of indices
    is read together with at least the last max(h) indices before it, so
    every lag takes its partner from the same walk.  The older indices are
    dropped once they outnumber those, so a long lag costs O(1) per element.
    """
    order, lags, pd, cd, steps = task
    span = max(lags)
    sums = dict.fromkeys(lags, 0)
    window: list = []  # the last indices walked, at least the last `span`
    first = 0  # chunk position of the block's first index
    for block in index_blocks(order, pd, cd, steps + span):
        if len(window) > 2 * span:
            del window[:len(window) - span]
        shift = len(window) - first  # window position of a chunk position
        window += block
        for h in lags:
            # the pairs whose later index is in this block and earlier one in the chunk
            lo = max(first, h) + shift
            hi = min(first + len(block), steps + h) + shift
            if lo < hi:
                sums[h] += sum(map(mul, window[lo - h:hi - h], window[lo:hi]))
        first += len(block)
    return [sums[h] for h in lags]


def _run_chunks(q_max: int, lags, wanted, workers: int) -> dict:
    """{c: `_chunk_autocorr` of `lags`, summed over the chunks that tile (0, c]} for c in `wanted`.

    The cuts lie in [0, 1/2]; the walk covers (0, T], T = max(wanted), cut at
    each wanted c and at `workers` equal slices of (0, T], so one walk serves
    every cut.  Each chunk starts from the denominators `seek` finds at its
    left end and runs for the exact step count rank(t1) - rank(t0), so no
    kernel needs a fraction.  The chunks run in `_forked_map` on at most as
    many processes as the host has CPUs, or serially, with a RuntimeWarning,
    where no process can be forked; the chunks, and so every merged result,
    do not depend on it.
    """
    t_end = max(wanted)
    cuts = sorted({t_end * j / workers for j in range(workers + 1)}.union(wanted))
    ranks = farey_ranks(q_max, cuts)
    tasks = []
    for t0, r0, r1 in zip(cuts, ranks, ranks[1:]):
        _, pd, _, cd = seek(q_max, t0)
        tasks.append((q_max, lags, pd, cd, r1 - r0))
    results = None
    processes = min(workers, os.cpu_count() or 1, len(tasks))
    if processes > 1:
        try:
            results = _forked_map(tasks, processes)
        except OSError as exc:
            warnings.warn(
                f"forked workers unavailable ({exc}); running {len(tasks)} chunks serially",
                RuntimeWarning,
                stacklevel=3,
            )
    if results is None:
        results = [_chunk_autocorr(task) for task in tasks]
    return {c: [sum(column) for column in zip(*results[:cuts.index(c)])] for c in wanted}


def _forked_map(tasks: list, processes: int) -> list:
    """[`_chunk_autocorr`(task) for task in tasks], shared by this process and processes - 1 forks.

    The tasks are dealt largest first, each to the share with the fewest
    steps so far; this process runs the first share while each forked child
    runs one other and writes its results, marshalled, down its own pipe
    before `os._exit`.  A child that does not exit 0 has its share run here
    again, so a chunk's exception surfaces from this process.  Every child
    is reaped before this returns or raises; one still running then (this
    process raised first) is killed.  OSError: no process could be forked,
    or os.fork is missing, and nothing is left running.
    """
    if not hasattr(os, "fork"):
        raise OSError("os.fork is missing")
    shares, loads = [[] for _ in range(processes)], [0] * processes
    for i in sorted(range(len(tasks)), key=lambda i: tasks[i][-1], reverse=True):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += tasks[i][-1]
    results = [None] * len(tasks)
    children = {}  # pid -> (the read end of its pipe, its share), until reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:  # the child: it never returns from here
                status = 1
                try:
                    payload = marshal.dumps([_chunk_autocorr(tasks[i]) for i in share])
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = open(read, "rb"), share
        for i in shares[0]:
            results[i] = _chunk_autocorr(tasks[i])
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                payload = pipe.read()  # up to the end the child's exit makes
            del children[pid]
            failed = os.waitpid(pid, 0)[1]
            values = [_chunk_autocorr(tasks[i]) for i in share] if failed else marshal.loads(payload)
            for i, value in zip(share, values):
                results[i] = value
    finally:
        if children:
            import signal  # only a run that raised kills

            for pid, (pipe, _) in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _index_of(q_max: int, c: Fraction) -> int:
    """The index of c, an element of F_Q.

    It is floor((Q + q')/q) for either neighbor denominator q', so the
    successor's, which `seek` gives, serves as well.
    """
    _, q, _, q_next = seek(q_max, c)
    return (q_max + q_next) // q


def _indices_around(q_max: int, t, before: int, after: int) -> list:
    """The indices at positions R - before + 1, ..., R + after, where R = rank(t).

    Position R holds the last element <= t.  The elements after it are
    walked forward from the denominators `seek` finds at t, and those up to
    it backward: the recurrence is symmetric, so read from the swapped pair
    it yields nu_R, nu_{R-1}, ..., and past position 0 it runs on into the
    previous period.
    """
    _, q, _, q_next = seek(q_max, t)
    back = list(chain.from_iterable(index_blocks(q_max, q_next, q, before)))
    return back[::-1] + list(chain.from_iterable(index_blocks(q_max, q, q_next, after)))


def _walk_args(ts, allow_zero: bool = False) -> list:
    """The cutoffs as fractions, each in (0, 1], or [0, 1] with allow_zero."""
    ts = [Fraction(t) for t in ts]
    if not ts:
        raise ValueError("need at least one t")
    if not all(0 < t <= 1 or (allow_zero and t == 0) for t in ts):
        raise ValueError("t must lie in [0, 1]" if allow_zero else "t must lie in (0, 1]")
    return ts


# ---------------------------------------------------------------------------
# whole-sequence statistics
# ---------------------------------------------------------------------------

def partial_index_sums(q_max: int, ts) -> list[int]:
    """Exact sums of indices over gamma <= t, one per t in `ts`, by the gap identity; no walk.

    With R = rank(t), the left moves of the Stern-Brocot descent toward t
    pass the elements x_1 < ... < x_V = the left neighbor of t in F_Q, over
    b_1, ..., b_V, each next to the one before it (x_0 = 0/1, b_0 = 1).  The
    gap identity of the module docstring then gives the sum as
        3 (R - V) + sum_i (floor((Q + b_{i-1})/b_i) - floor((Q - b_i)/b_{i-1})),
    and a run of j moves toward one right end over d telescopes to
    2 j + floor((Q - d)/b_i) - floor((Q - d)/b_{i-j}), which is 0 for a move
    of the right end (j = 0): O(log Q) steps and one Farey rank per t.
    """
    ts = _walk_args(ts, allow_zero=True)
    sums = []
    for t, rank in zip(ts, farey_ranks(q_max, ts)):
        total = 3 * rank
        if t == 1:
            total -= 1  # 3 N(Q) - 1, the gap (0/1, 1/1) and nu(1/1) = 2Q
        else:
            for _, b, _, d, j in farey._descent(q_max, t.numerator, t.denominator):
                total += (q_max - d) // b - (q_max - d) // (b - j * d) - j
        sums.append(total)
    return sums


def sum_index(q_max: int) -> int:
    """Exact sum of all N(Q) indices; equals 3 N(Q) - 1 identically.

    Walked, never read off the lattice or the gap identity, so that
    `identities` checks the lattice histogram against an independent route:
    one walk in this process covers (0, 1/2] from 0/1, 1/Q, and the mirror
    identity at c = 1/2 gives the whole period.
    """
    half = sum(map(sum, index_blocks(q_max, 1, q_max, farey_ranks(q_max, [_HALF])[0])))
    tail = _index_of(q_max, _HALF) if q_max > 1 else 0  # T(1/2, [1/2 in F_Q])
    return half - (tail - 2 * q_max - half)  # the mirror identity at c = 1/2; T(0, 1) = nu_0 = 2Q


def partial_index_sum(q_max: int, t) -> int:
    """Exact sum of indices over gamma <= t."""
    return partial_index_sums(q_max, [t])[0]


@lru_cache(maxsize=1)  # `identities` reads the histogram and the count identity per order
def _lattice_counts(q_max: int) -> Tuple[dict, int]:
    """(index histogram, count of elements of index floor(2Q/q) - 1 over q) of F_Q.

    The elements over q match the q' coprime to q in (Q - q, Q], of index
    floor((Q + q')/q).  Of the j multiples of d there, q = j d, h = [b even] +
    (b mod j) have index M = floor(b/j), b = floor(2Q/d), and j - h have M - 1;
    Moebius inversion sums w G(b) over the runs of b, where G(b) sums h and
    j - h over each run of j <= b/2 sharing M as arithmetic series.  The
    histogram is shared by the callers of the cached order.
    """
    counts, low = Counter(), 0
    for d, w in farey._moebius_runs([2 * q_max], q_max):
        b = 2 * q_max // d
        j, half, even = 1, b // 2, 1 - b % 2
        while j <= half:
            m = b // j
            end = min(b // m, half)
            js = (j + end) * (end - j + 1) // 2  # the sum of j over the run
            hs = (end - j + 1) * (b + even) - m * js  # the sum of h
            counts[m] += w * hs
            counts[m - 1] += w * (js - hs)
            low += w * (js - hs)
            j = end + 1
    return {k: c for k, c in sorted(counts.items()) if c}, low


def index_histogram(q_max: int) -> dict:
    """Exact counts {index value: occurrences} over F_Q, ascending; a copy, the cache is shared."""
    return dict(_lattice_counts(q_max)[0])


def _power_sum(hist: dict, alpha: Fraction) -> Union[int, float]:
    """Sum of c * k^alpha over a histogram, in ascending order of k."""
    if alpha.denominator == 1:
        e = alpha.numerator
        return sum(c * k**e for k, c in sorted(hist.items()))
    a = float(alpha)
    return sum(c * float(k) ** a for k, c in sorted(hist.items()))


def sum_index_power(q_max: int, alpha) -> Union[int, float]:
    """Sum of nu^alpha over F_Q: exact integer for integer alpha, float otherwise.

    Evaluated from the exact index histogram in a fixed value order, so the
    result is bit-identical on every run.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _power_sum(index_histogram(q_max), alpha)


def autocorr_sums(q_max: int, lags, ts=(1,), workers: int = 1) -> list[list[int]]:
    """S_{h,t}(Q) for every lag h in `lags` (rows) and cutoff t in `ts` (columns).

    S_{h,t} sums nu_i * nu_{i+h} over gamma_i <= t, with indices cyclic mod
    N(Q), so t = 1 gives the full-period S_h(Q).  The index sequence has
    period N = N(Q), so every lag is reduced mod N first (lag 0 sums the
    squares).  One walk covers (0, min(t, 1/2)] with the lookahead each
    lag s = min(g, N - g) needs, g = h mod N.  A cutoff above 1/2 is read
    off it by the mirror identity, and at a cutoff t <= 1/2 the lag g = N - s
    pairs nu_{i-s} with nu_i, so S_{g,t} = W(t) - T(t, s) + T(0, s) for the
    lag s; T is read from the 2 max(s) + 1 indices around each cut.
    `workers` is the chunk count of the walk (`_run_chunks`).
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, not {workers!r}")
    if not lags:
        raise ValueError("need at least one h")
    if any(h < 1 for h in lags):
        raise ValueError("h must be >= 1")
    ts = _walk_args(ts)
    n = totient_summatory(q_max)
    reduced = [h % n for h in lags]
    mirrored = [min(g, n - g) for g in reduced]
    span = max(mirrored)
    distinct = tuple(sorted(set(mirrored)))
    cuts = {min(t, 1 - t) for t in ts if t < 1}.union([_HALF] if max(ts) > _HALF else [])
    walked = {c: dict(zip(distinct, sums))
              for c, sums in _run_chunks(q_max, distinct, cuts, workers).items()}
    windows = {}

    def window_sum(c, s, m):
        """T(c, m) for the lag s, read off the indices around c."""
        if c not in windows:
            windows[c] = _indices_around(q_max, c, span + 1, span)
        w, lo = windows[c], span + 1 - m
        return sum(map(mul, w[lo:span + 1], w[lo + s:span + 1 + s]))

    def mirror(c, s, d):  # W(1 - c) - W(1) by the mirror identity, for the walked lag s
        tail = window_sum(c, s, d + int(c.denominator <= q_max))
        return tail - window_sum(Fraction(0), s, d + 1) - walked[c][s]

    if max(ts) > _HALF:
        whole = {s: walked[_HALF][s] - mirror(_HALF, s, s) for s in distinct}  # S_g = S_s

    def lag_sum(t, g, s):
        """S_{g,t} from the walked lag s."""
        if t <= _HALF:
            if g == s:
                return walked[t][s]
            # g = N - s pairs nu_{i-s} with nu_i: the walked pairs, shifted back by s
            return walked[t][s] - window_sum(t, s, s) + window_sum(Fraction(0), s, s)
        return whole[s] if t == 1 else whole[s] + mirror(1 - t, s, s if g == s else 0)

    return [[lag_sum(t, g, s) for t in ts] for g, s in zip(reduced, mirrored)]


def autocorr_sum(q_max: int, h: int, workers: int = 1) -> int:
    """S_h(Q): sum of nu_i * nu_{i+h} over one period, indices cyclic mod N(Q)."""
    return autocorr_sums(q_max, [h], [1], workers)[0][0]


def autocorr_sum_interval(q_max: int, h: int, t, workers: int = 1) -> int:
    """S_{h,t}(Q): the autocorrelation sum restricted to gamma_i <= t."""
    return autocorr_sums(q_max, [h], [t], workers)[0][0]


def _run_counts(q_max: int, b: int, d: int, m: int, counts: Counter) -> None:
    """Add to `counts` the index values of the first m elements of F_Q between neighbors over b, d.

    The neighbors are consecutive in F_s, s = floor(Q/2), so 2(b + d) > Q:
    the elements between them are over i b + d, i = K..1, then b + j d,
    j = 2..L, with K = floor((Q - d)/b) and L = floor((Q - b)/d), and their
    indices run 1, 2, ..., 2, 3, 2, ..., 2, 1; without a left chain (K = 1)
    the run loses its first 1 and the 3 becomes a 2, and likewise on the right.
    """
    k, l = (q_max - d) // b, (q_max - b) // d
    for value, n in ((1, k > 1), (2, max(k - 2, 0)), (1 + (k > 1) + (l > 1), 1),
                     (2, max(l - 2, 0)), (1, l > 1)):
        n = min(n, m)
        counts[value] += n
        m -= n


def _index_value_counts(q_max: int, cuts, start=Fraction(0)) -> dict:
    """{c: Counter of the indices of F_Q over (start, c]} for each c in `cuts`, from one walk.

    start is 0/1 or 1/2, an element of F_s, s = floor(Q/2), and every cut
    lies in [start, 1).  The walk runs over F_s from start up to max(cuts):
    about a quarter of the elements of F_Q there.  An element of F_s over b,
    next to one over p, has index floor((Q - p)/b) + floor((Q + p)/b) >= 3
    in F_Q, and each of the G gaps of F_s from start up to c holds a run of
    `_run_counts`.  Of the elements in them, G + C have index 1, C index 3
    and the rest index 2, where C counts the gaps with two chains:
    2b + d <= Q and b + 2d <= Q.  A cut not in F_s lies in a gap, which adds
    the first rank_Q(c) - rank_Q(x) entries of its run, x the gap's left end.
    """
    s = q_max // 2
    cuts = sorted(cuts)
    if not (s and cuts):  # F_1 has no element below 1
        return {c: Counter() for c in cuts}
    first, *steps = farey_ranks(s, [start] + cuts)
    ends = [seek(s, c) for c in cuts]
    base, *ranks = farey_ranks(q_max, [start] + cuts + [Fraction(a, b) for a, b, _, _ in ends])
    ranks, gap_starts = ranks[:len(cuts)], ranks[len(cuts):]
    values, counts = Counter(), {}
    _, b, _, d = seek(s, start)  # the denominators of start and its successor in F_s
    done = double = 0  # elements of F_s walked; gaps with two chains among them
    for i, c in enumerate(cuts):
        while done < steps[i] - first:
            block = []
            append = block.append
            for _ in range(min(steps[i] - first - done, farey._BLOCK)):
                l = (q_max - b) // d
                append(l + (q_max + b) // d)
                if l > 1 and 2 * b + d <= q_max:
                    double += 1
                b, d = d, (s + b) // d * d - b
            values.update(block)
            done += len(block)
        at_c = values.copy()
        at_c[1] += done + double
        at_c[2] += gap_starts[i] - base - 2 * done - 2 * double
        at_c[3] += double
        _, left, _, right = ends[i]
        _run_counts(q_max, left, right, ranks[i] - gap_starts[i], at_c)
        counts[c] = at_c
    return counts


def lu_count_table(q_max: int, ks, ts=(1,)) -> list[list[Tuple[int, int]]]:
    """(L, U) for every k in `ks` (rows) and cutoff t in `ts` (columns), from walks of F_{Q/2}.

    Every element over q has index floor((2Q+1)/q) - 1 or floor((2Q+1)/q),
    so an element of index k counts in L(k) iff q <= c_k, with
    c_k = min(Q, floor((2Q+1)/(k+1))), and every element of index above k
    has q <= c_k.  Hence, with R = rank(t),
        L(k) = #{gamma <= t : q <= c_k} - #{i <= R : nu_i > k},
        U(k) = #{i <= R : nu_i = k} - L(k),
    where the first count is the rank of t in F_{c_k}.  The counts of index
    values are needed over (0, c] at each c = min(t, 1 - t), and over all of
    F_Q, which the lattice histogram gives, so t = 1 walks nothing.  A cut
    c <= 1/4 is walked from 0/1 by `_index_value_counts`.  Above 1/4 (for
    Q >= 4, so that 1/2 is in F_s) the counts over (0, c] are those over
    (0, 1/2], (histogram - {2Q} + {nu(1/2)})/2 by the mirror identity at
    c = 1/2, less those over (c, 1/2], the mirror image of [1/2, 1 - c),
    walked from 1/2.  Either walk covers at most min(c, 1/2 - c), a quarter
    of F_s at most.  Above 1/2 the mirror identity closes every t from the
    counts up to 1 - t.  The walks run in this process.
    """
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    ts = _walk_args(ts)
    cuts = {min(t, 1 - t) for t in ts if t < 1}
    far = {c for c in cuts if 4 * c > 1 and q_max >= 4}
    counts = _index_value_counts(q_max, cuts - far)
    if far or max(ts) > _HALF:
        counts[Fraction(1)] = whole = Counter(index_histogram(q_max))
        head = Counter({2 * q_max: 1})  # T(0, 1): nu_0 = 2Q
    if far:
        middle = _index_of(q_max, _HALF)
        half = whole - head
        half[middle] += 1
        half = Counter({v: n // 2 for v, n in half.items()})  # over (0, 1/2]
        for end, beyond in _index_value_counts(q_max, {1 - c for c in far}, _HALF).items():
            # over [1/2, 1 - c): with 1/2, without 1 - c where it is in F_Q
            beyond[middle] += 1
            if end.denominator <= q_max:
                beyond[_index_of(q_max, end)] -= 1
            counts[1 - end] = half - beyond
    for t in ts:
        if _HALF < t < 1:
            counts[t] = whole - head - counts[1 - t]
            if t.denominator <= q_max:  # T(1 - t, 1)
                counts[t][_index_of(q_max, 1 - t)] += 1
    rows = {}
    for k in set(ks):
        c = min(q_max, (2 * q_max + 1) // (k + 1))
        rows[k] = []
        for below, t in zip(farey_ranks(c, ts) if c else [0] * len(ts), ts):
            low = below - sum(n for v, n in counts[t].items() if v > k)
            rows[k].append((low, counts[t][k] - low))
    return [rows[k] for k in ks]


def lu_counts(q_max: int, k: int, t=Fraction(1)) -> Tuple[int, int]:
    """(L, U): counts of gamma <= t with nu = k hitting floor((2Q+1)/q) - 1 resp. - 0."""
    return lu_count_table(q_max, [k], [t])[0][0]


def hall_shiu_identity(q_max: int) -> Tuple[int, int]:
    """Both sides of the exact closed-form count identity; they must be equal.

    lhs counts fractions whose index equals floor(2Q/q) - 1 for their
    denominator q, the low count of `_lattice_counts`; rhs is
    Q(2Q+1) - N(2Q) - 2N(Q) + 1.  The identity holds for every Q >= 1.  With
    the threshold floor((2Q+1)/q) - 1 instead, the count exceeds the rhs by
    sum of phi(d) over the divisors d <= Q of 2Q+1 (those denominators admit
    only the lower index value), so that variant agrees with no similarly
    clean closed form.
    """
    lhs = _lattice_counts(q_max)[1]
    rhs = q_max * (2 * q_max + 1) - totient_summatory(2 * q_max) - 2 * totient_summatory(q_max) + 1
    return lhs, rhs


def visible_points_count(p: ConvexPolygon, scale: int) -> int:
    """Number of coprime integer pairs inside the closed polygon scale * p.

    Moebius inversion over the common divisor d of a point gives
    sum_d mu(d) * #(integer points of (scale/d) * p other than the origin),
    d <= the largest coordinate of scale * p.  Each edge of scale * p is an
    integer inequality a x + b y >= c / den, so (u, v) lies in (scale/d) * p
    iff a u + b v >= ceil(c / (den d)) = ceil(ceil(c / den) / d) on every
    edge.  The count thus depends on d only through floor(K/d) for one integer
    K per edge and per column bound, where floor(K/d) = -1 - floor((-1 - K)/d),
    so the points are counted column by column, in integers only, once per
    Moebius run of d on which all of them are constant, weighted by its mu-sum.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    coords, den = p.coords, p.den
    reach = max((max(abs(x), abs(y)) for x, y in coords), default=0) * scale // den
    if not reach:  # no integer point but the origin
        return 0
    edges = []
    for (ax, ay), (bx, by) in zip(coords, coords[1:] + coords[:1]):
        a, b = ay - by, bx - ax  # counterclockwise: inside is a x + b y >= a ax + b ay
        edges.append((a, b, (a * ax + b * ay) * scale))
    origin = all(c <= 0 for _, _, c in edges)
    # edges bounding v from below (b > 0) and from above (b < 0); a vertical
    # edge only bounds the columns, which the vertices bound too
    lower = [edge for edge in edges if edge[1] > 0]
    upper = [edge for edge in edges if edge[1] < 0]
    x_lo = min(x for x, _ in coords) * scale
    x_hi = max(x for x, _ in coords) * scale
    ks = [-c // den for _, _, c in lower + upper] + [-x_lo // den, x_hi // den]
    total = 0
    for d, w in farey._moebius_runs([max(k, -1 - k) for k in ks], reach):
        dd = den * d
        below = [(a, b, -(-c // dd)) for a, b, c in lower]
        above = [(a, b, -(-c // dd)) for a, b, c in upper]
        count = -1 if origin else 0  # the origin is not a coprime pair
        for u in range(-(-x_lo // dd), x_hi // dd + 1):
            v_lo = max(-((a * u - c) // b) for a, b, c in below)
            v_hi = min((c - a * u) // b for a, b, c in above)
            if v_hi >= v_lo:
                count += v_hi - v_lo + 1
        total += w * count
    return total


# ---------------------------------------------------------------------------
# statistics paired with their asymptotic predictions
# ---------------------------------------------------------------------------

class StatRecord(NamedTuple):
    """One experiment row: exact value next to its predicted leading term."""

    order: int
    stat: str
    parameter: str
    exact_value: Union[int, Fraction]
    prediction: Union[Fraction, float]
    ratio: float
    error_bound_form: str


def _make_record(order, stat, parameter, exact, prediction, bound_form) -> StatRecord:
    if prediction == 0:
        ratio = math.nan
    elif isinstance(prediction, Fraction):
        ratio = float(Fraction(exact) / prediction)
    else:
        ratio = float(exact) / prediction
    return StatRecord(order, stat, parameter, exact, prediction, ratio, bound_form)


def autocorr_records(q_max: int, lags, ts=(1,), workers: int = 1) -> list[StatRecord]:
    """One S_h row per (h, t), h outer and t inner, all from one walk of F_Q."""
    from . import bcz

    ts = [Fraction(t) for t in ts]
    n = totient_summatory(q_max)
    records = []
    for h, row in zip(lags, autocorr_sums(q_max, lags, ts, workers)):
        a_h = bcz.autocorrelation_constant(h)
        for t, exact in zip(ts, row):
            if t == 1:
                records.append(_make_record(q_max, "S_h", f"h={h}", exact, a_h * n, "Q*log(Q)^2"))
            else:
                records.append(_make_record(
                    q_max, "S_h", f"h={h};t={t}", exact, t * a_h * n, "Q^(3/2+eps)"
                ))
    return records


def moment_records(q_max: int, alphas) -> list[StatRecord]:
    """One moment row per alpha, in order; alpha = 2 against the second-moment term.

    Every alpha, alpha = 1 included, is read off one lattice index histogram;
    F_Q is not walked.
    """
    from . import bcz

    alphas = [Fraction(a) for a in alphas]
    if any(alpha <= 0 for alpha in alphas):
        raise ValueError("alpha must be positive")
    if q_max < 2 and 2 in alphas:
        raise ValueError("need Q >= 2")
    hist = index_histogram(q_max)
    exact = {alpha: _power_sum(hist, alpha) for alpha in alphas}
    n = sum(hist.values())
    records = []
    for alpha in alphas:
        if alpha == 2:
            prediction, bound = second_moment_prediction(q_max), "Q*log(Q)^2"
        else:
            prediction = 2 * n * bcz.b_alpha(alpha).value
            bound = "Q*log(Q)^2" if alpha == 1 else "Q*log(Q)" if alpha < 1 else "Q^alpha*log(Q)"
        records.append(
            _make_record(q_max, "moment", f"alpha={alpha}", exact[alpha], prediction, bound)
        )
    return records


def lu_table_records(q_max: int, ks, ts=(1,)) -> list[StatRecord]:
    """An L row and a U row per (k, t), k outer and t inner, all from one walk of F_{Q/2}."""
    from . import bcz

    ts = [Fraction(t) for t in ts]
    n = totient_summatory(q_max)
    records = []
    for k, row in zip(ks, lu_count_table(q_max, ks, ts)):
        for t, (low, high) in zip(ts, row):
            suffix = f"k={k}" if t == 1 else f"k={k};t={t}"
            records.append(_make_record(
                q_max, "L", suffix, low, t * bcz.lower_frequency(k) * n, "k + Q*log(Q)/k"
            ))
            records.append(_make_record(
                q_max, "U", suffix, high, t * bcz.upper_frequency(k) * n, "k + Q*log(Q)/k"
            ))
    return records


def partial_records(q_max: int, ts) -> list[StatRecord]:
    """One partial-sum row per t, by the gap identity; no walk."""
    ts = [Fraction(t) for t in ts]
    n = totient_summatory(q_max)
    return [
        _make_record(q_max, "partial", f"t={t}", exact, 3 * n * t, "Q^(3/2+eps)")
        for t, exact in zip(ts, partial_index_sums(q_max, ts))
    ]

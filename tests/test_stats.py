"""Exact index statistics against brute enumeration and their predictions."""

import math
import os
import tracemalloc
from fractions import Fraction

import pytest

from farey_index import (
    ConvexPolygon,
    FAREY_TRIANGLE,
    autocorr_records,
    autocorr_sum,
    autocorr_sum_interval,
    autocorr_sums,
    hall_shiu_identity,
    lu_count_table,
    lu_counts,
    lu_table_records,
    moment_records,
    partial_index_sum,
    partial_index_sums,
    partial_records,
    polygon_area,
    region_polygon,
    region_star_polygon,
    sum_index,
    sum_index_power,
    totient_summatory,
    visible_points_count,
)
from farey_index import bcz, farey, stats
from farey_index.stats import (
    EULER_GAMMA,
    ZETA_PRIME_OVER_ZETA_TWO,
    index_histogram,
    second_moment_prediction,
)

from conftest import (
    brute_autocorr,
    brute_farey,
    brute_indices,
    brute_lu,
    brute_partial,
    brute_visible_count,
    full_period_sums,
    index_sequence,
)

F = Fraction


def test_sum_index_examples_and_identity():
    assert sum_index(2) == 5
    assert sum_index(3) == 11
    assert totient_summatory(100) == 3044 and sum_index(100) == 9131
    for q in range(1, 121):
        assert sum_index(q) == 3 * totient_summatory(q) - 1


def test_sum_index_power_examples():
    assert sum_index_power(3, 1) == sum_index(3) == 11
    assert sum_index_power(3, 2) == 47
    assert sum_index_power(2, 2) == 17
    # non-integer exponents agree with direct evaluation over the oracle
    for q in (5, 12):
        _, _, nus = brute_indices(q)
        want = sum(nu**0.5 for nu in sorted(nus))
        assert math.isclose(sum_index_power(q, F(1, 2)), want, rel_tol=1e-12)
    # and against the walk at a larger order
    walked = sorted(index_sequence(400))
    assert math.isclose(sum_index_power(400, F(1, 2)), sum(nu**0.5 for nu in walked), rel_tol=1e-12)


def test_index_histogram_matches_oracle():
    for q in (1, 4, 9, 21):
        _, _, nus = brute_indices(q)
        expected = {}
        for nu in nus:
            expected[nu] = expected.get(nu, 0) + 1
        assert index_histogram(q) == expected


def test_index_histogram_is_a_fresh_dict():
    # the lattice counts are cached and shared by the callers of one order
    first = index_histogram(50)
    expected = dict(first)
    first[1] += 7
    first[10**6] = 1
    assert index_histogram(50) == expected


def test_index_histogram_holds_no_list_per_denominator():
    # lists indexed by q peaked at 11.6 MB at this order; the runs are O(sqrt Q)
    farey._mertens_table(10**5)
    stats._lattice_counts.cache_clear()
    tracemalloc.start()
    try:
        index_histogram(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_autocorr_examples():
    assert autocorr_sum(3, 1) == 18
    assert autocorr_sum(3, 4) == 47  # h equal to the period gives the square sum
    for q in (5, 11, 23, 40):
        _, _, nus = brute_indices(q)
        n = len(nus)
        assert autocorr_sum(q, n) == sum(nu * nu for nu in nus)
        for h in (1, 2, 7):
            want = sum(nus[i] * nus[(i + h) % n] for i in range(n))
            assert autocorr_sum(q, h) == want


def test_autocorr_interval_examples():
    assert autocorr_sum_interval(3, 1, F(1, 2)) == 6
    for q in (8, 17):
        fr, _, nus = brute_indices(q)
        n = len(nus)
        for h in (1, 3):
            assert autocorr_sum_interval(q, h, 1) == autocorr_sum(q, h)
            for t in (F(1, 4), F(1, 2), F(7, 9)):
                want = sum(
                    nus[i] * nus[(i + h) % n] for i in range(n) if fr[i] <= t
                )
                assert autocorr_sum_interval(q, h, t) == want


def test_subinterval_additivity():
    for q in range(2, 101, 13):
        for t1, t2 in ((F(1, 4), F(1, 2)), (F(1, 3), F(5, 6))):
            left = autocorr_sum_interval(q, 1, t1)
            right = autocorr_sum_interval(q, 1, t2)
            fr, _, nus = brute_indices(q)
            n = len(nus)
            middle = sum(nus[i] * nus[(i + 1) % n] for i in range(n) if t1 < fr[i] <= t2)
            assert left + middle == right


def test_partial_index_sum_examples():
    assert partial_index_sum(3, 0) == 0
    assert partial_index_sum(3, F(1, 2)) == 4
    for q in (7, 20, 45):
        assert partial_index_sum(q, 1) == 3 * totient_summatory(q) - 1
        fr, _, nus = brute_indices(q)
        for t in (F(1, 5), F(3, 8), F(2, 3)):
            want = sum(nu for f, nu in zip(fr, nus) if f <= t)
            assert partial_index_sum(q, t) == want


def test_index_sum_by_the_walk_the_gap_identity_and_the_lattice():
    for q in list(range(1, 61)) + [1000, 3001]:
        hist = index_histogram(q)
        assert sum_index(q) == partial_index_sums(q, [1])[0] == sum(k * c for k, c in hist.items())


def test_lu_counts_examples_and_partition():
    assert lu_counts(3, 1) == (2, 0)  # 1/3 and 2/3 hit the low threshold
    for q in range(1, 101, 9):
        fr, dens, nus = brute_indices(q)
        top = 2 * q + 1
        assert lu_counts(q, 1)[1] == 0  # the high count vanishes at k = 1
        for k in (1, 2, 3, 5, 8):
            low = sum(1 for nu, d in zip(nus, dens) if nu == k == top // d - 1)
            high = sum(1 for nu, d in zip(nus, dens) if nu == k == top // d)
            assert lu_counts(q, k) == (low, high)
            total = sum(1 for nu in nus if nu == k)
            assert low + high <= total
            assert low + high == total  # every index hits one of the two thresholds


def test_lu_counts_subinterval():
    for q in (9, 14):
        fr, dens, nus = brute_indices(q)
        top = 2 * q + 1
        for t in (F(1, 3), F(4, 7)):
            for k in (1, 2):
                low = sum(
                    1 for f, nu, d in zip(fr, nus, dens) if f <= t and nu == k == top // d - 1
                )
                high = sum(
                    1 for f, nu, d in zip(fr, nus, dens) if f <= t and nu == k == top // d
                )
                assert lu_counts(q, k, t) == (low, high)


def test_hall_shiu_identity_holds_everywhere():
    for q in range(1, 201):
        lhs, rhs = hall_shiu_identity(q)
        assert lhs == rhs, q
    # brute-force the left side independently for a few orders
    for q in (4, 7, 30):
        _, dens, nus = brute_indices(q)
        count = sum(1 for nu, d in zip(nus, dens) if nu == (2 * q) // d - 1)
        assert hall_shiu_identity(q)[0] == count


def test_workers_reproduce_single_threaded_results():
    for workers in (2, 5):
        assert autocorr_sum(400, 1, workers=workers) == autocorr_sum(400, 1)
        assert autocorr_sum_interval(400, 2, F(2, 3), workers=workers) == autocorr_sum_interval(
            400, 2, F(2, 3)
        )


@pytest.mark.parametrize("workers", (1, 2, 3, 7))
def test_every_statistic_is_chunk_count_invariant(workers, monkeypatch):
    # only the chunking is under test, so every chunk runs in this process;
    # Q = 1, 2 leave chunks with no element, and most cuts j*t/workers land
    # exactly on an element of F_Q
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    for q in (1, 2, 6, 12):
        fr, dens, nus = brute_indices(q)
        n = len(nus)
        top = 2 * q + 1
        assert sum_index(q) == sum(nus)
        # the index sum walks in one process, the moments, partial sums and
        # (L, U) take no chunk count either; their oracles stay
        assert sum_index_power(q, 2) == sum(nu * nu for nu in nus)
        assert math.isclose(sum_index_power(q, F(1, 2)), sum(nu**0.5 for nu in sorted(nus)),
                            rel_tol=1e-12)
        assert autocorr_sum(q, 2, workers=workers) == sum(
            nus[i] * nus[(i + 2) % n] for i in range(n)
        )
        for t in (F(1, 3), F(1, 2), F(2, 3), F(1)):
            inside = [i for i in range(n) if fr[i] <= t]
            assert partial_index_sum(q, t) == sum(nus[i] for i in inside)
            assert autocorr_sum_interval(q, 1, t, workers=workers) == sum(
                nus[i] * nus[(i + 1) % n] for i in inside
            )
            for k in (1, 2):
                low = sum(1 for i in inside if nus[i] == k == top // dens[i] - 1)
                high = sum(1 for i in inside if nus[i] == k == top // dens[i])
                assert lu_counts(q, k, t) == (low, high)


@pytest.mark.parametrize("workers", (1, 2, 3, 7))
def test_multi_parameter_walks_match_oracle(workers, monkeypatch):
    # repeated and unsorted lags, k values and cutoffs; lags at and past the
    # period N(Q); Q = 1, 2 leave chunks with no element
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    ts = [F(2, 3), F(1, 3), F(1), F(1, 3), F(1, 2)]
    for q in (1, 2, 6, 12):
        n = totient_summatory(q)
        lags = [3, 1, n, 2 * n + 1, 1]
        want = brute_autocorr(q, lags, ts)
        assert autocorr_sums(q, lags, ts, workers) == want
        with monkeypatch.context() as patch:
            patch.setattr(farey, "_BLOCK", 2)  # block ends and lags past a block
            assert autocorr_sums(q, lags, ts, workers) == want
        ks = [2, 1, 4, 2]
        assert lu_count_table(q, ks, ts) == brute_lu(q, ks, ts)
        assert partial_index_sums(q, ts + [F(0)]) == brute_partial(q, ts + [F(0)])


@pytest.mark.parametrize("workers", (1, 3))
def test_mirror_route_matches_full_period_walk(workers, monkeypatch):
    # every cutoff above 1/2 is assembled from the walk of (0, 1/2]; the
    # oracle sums over the whole period.  Every t of F_12, t = 1 among them;
    # for Q <= 3, N(Q) <= 4 lies below most lags, and k = 2Q counts gamma = 1
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    grid = sorted({F(a, b) for b in range(1, 13) for a in range(1, b + 1)})
    for q in range(1, 13):
        n = totient_summatory(q)
        lags = list(range(1, 25)) + [n, n + 1, 2 * n + 3, 10**12 + 1]
        ks = list(range(1, 2 * q + 2))
        autocorr, lu, partial = full_period_sums(q, lags, ks, [F(0)] + grid)
        assert autocorr_sums(q, lags, grid, workers) == [row[1:] for row in autocorr]
        assert lu_count_table(q, ks, grid) == [row[1:] for row in lu]
        assert partial_index_sums(q, [F(0)] + grid) == partial


def test_lags_past_half_the_period_walk_their_mirror(monkeypatch):
    # S_h = S_{N-h}, and at every cutoff a lag h > N/2 is read off the lag
    # N - h, so no walk runs more than N - h + 1 elements past its chunk or cut
    walked = []
    index_blocks = stats.index_blocks

    def logged(order, pd, cd, count):
        walked.append(count)
        return index_blocks(order, pd, cd, count)

    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(stats, "index_blocks", logged)
    n = totient_summatory(40)
    ts = [F(1, 3), F(3, 4), F(1)]
    assert autocorr_sums(40, [n - 1, n - 2], ts) == brute_autocorr(40, [n - 1, n - 2], ts)
    assert sum(walked) <= farey.farey_ranks(40, (F(1, 2),))[0] + 3 * len(walked)


def test_lags_reduced_mod_period_at_every_cutoff(monkeypatch):
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    # 10**12 + 3 steps of lookahead would never finish: the lag is reduced first
    n = totient_summatory(5)
    for h in (n + 2, 10**12 + 3):
        for t in (F(1, 4), F(3, 5), F(1)):
            assert autocorr_sum_interval(5, h, t) == brute_autocorr(5, [h], [t])[0][0]
    # Q = 120 has N = 4386 elements: lags past the kernel's block take their
    # partner from a carry longer than a block
    n = totient_summatory(120)
    lags = [n - 1, farey._BLOCK + 1, 2, farey._BLOCK, n + 5]
    ts = [F(2, 7), F(1)]
    want = brute_autocorr(120, lags, ts)
    for workers in (1, 3):
        assert autocorr_sums(120, lags, ts, workers) == want


def test_multi_parameter_records_match_single_ones():
    ts = [F(1, 2), F(1), F(1, 3)]
    assert autocorr_records(40, [2, 1], ts) == [
        rec for h in (2, 1) for t in ts for rec in autocorr_records(40, [h], [t])
    ]
    assert lu_table_records(40, [3, 1], ts) == [
        rec for k in (3, 1) for t in ts for rec in lu_table_records(40, [k], [t])
    ]
    assert partial_records(40, ts) == [rec for t in ts for rec in partial_records(40, [t])]
    alphas = [F(3, 2), 1, 2, F(1, 2)]
    assert moment_records(40, alphas) == [rec for a in alphas for rec in moment_records(40, [a])]


def _no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_processes_capped_at_cpu_count(monkeypatch, tmp_path):
    forks, log = [], tmp_path / "chunks"
    fork, chunk_autocorr = os.fork, stats._chunk_autocorr

    def counted_fork():
        forks.append(1)
        return fork()

    def logged(task):
        with open(log, "a") as out:  # appends from both processes
            out.write(f"{os.getpid()}\n")
        return chunk_autocorr(task)

    serial = autocorr_sum_interval(60, 2, F(5, 7))
    monkeypatch.setattr(stats.os, "fork", counted_fork)
    monkeypatch.setattr(stats, "_chunk_autocorr", logged)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 2)
    # the walk covers (0, 1/2] in seven equal slices; the cut 1 - 5/7 = 4/14
    # is the end of one of them
    assert autocorr_sum_interval(60, 2, F(5, 7), workers=7) == serial
    assert forks == [1]  # two processes, this one and one child ...
    pids = log.read_text().split()
    assert len(pids) == 7 and set(pids) - {str(os.getpid())}  # ... still running seven chunks
    _no_child_left()


def test_pool_failure_warns_and_runs_serially(monkeypatch):
    fork = os.fork
    calls = []

    def no_fork():
        raise OSError("no process support")

    def second_fork_fails():  # the child started first must not outlive the fallback
        calls.append(1)
        if len(calls) > 1:
            raise OSError("no process support")
        return fork()

    serial = autocorr_sum_interval(80, 2, F(5, 7))
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
    for patch in (lambda: monkeypatch.setattr(stats.os, "fork", no_fork),
                  lambda: monkeypatch.setattr(stats.os, "fork", second_fork_fails),
                  lambda: monkeypatch.delattr(stats.os, "fork")):
        patch()
        with pytest.warns(RuntimeWarning, match="serially"):
            assert autocorr_sum_interval(80, 2, F(5, 7), workers=3) == serial
        _no_child_left()
    assert calls == [1, 1]


def test_forked_workers_match_the_serial_run_and_the_oracle(monkeypatch):
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
    for q in (1, 2, 7, 31, 60):
        n = totient_summatory(q)
        lags, ts = [1, 3, n + 2] + [n - 1] * (n > 1), [F(1, 5), F(1, 2), F(4, 7), F(1)]
        want = brute_autocorr(q, lags, ts)
        assert autocorr_sums(q, lags, ts) == want
        for workers in (2, 3, 4):
            assert autocorr_sums(q, lags, ts, workers) == want, (q, workers)
    _no_child_left()


def test_a_failing_chunk_raises_here_and_leaves_no_child(monkeypatch):
    chunk_autocorr, parent = stats._chunk_autocorr, os.getpid()
    tasks = []

    def logged(task):
        tasks.append(task)
        return chunk_autocorr(task)

    monkeypatch.setattr(stats, "_chunk_autocorr", logged)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    serial = autocorr_sums(200, [1, 2], [F(2, 5)], workers=3)  # the three chunks, in this process
    assert len(tasks) == 3
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 3)
    # whichever process runs the failing chunk, its exception surfaces here:
    # a child's share is run again in this process
    for bad in tasks:
        def failing(task, bad=bad):
            if task == bad:
                raise ZeroDivisionError(f"chunk of {task[-1]} steps")
            return chunk_autocorr(task)

        monkeypatch.setattr(stats, "_chunk_autocorr", failing)
        with pytest.raises(ZeroDivisionError, match=f"chunk of {bad[-1]} steps"):
            autocorr_sums(200, [1, 2], [F(2, 5)], workers=3)
        _no_child_left()

    def fails_in_children(task):
        if os.getpid() != parent:
            os._exit(3)  # a child that dies without a result
        return chunk_autocorr(task)

    monkeypatch.setattr(stats, "_chunk_autocorr", fails_in_children)
    assert autocorr_sums(200, [1, 2], [F(2, 5)], workers=3) == serial
    _no_child_left()


def test_moment_records_walk_one_histogram(monkeypatch):
    histograms = []
    lattice = stats.index_histogram

    def no_walk(*args, **kwargs):
        raise AssertionError("moments walked F_Q")

    def counted(q_max):
        histograms.append(q_max)
        return lattice(q_max)

    monkeypatch.setattr(stats, "_run_chunks", no_walk)
    monkeypatch.setattr(stats, "index_histogram", counted)
    alphas = [1, 2, F(1, 2), F(3, 2)]
    records = moment_records(200, alphas)
    assert histograms == [200]  # one lattice histogram; alpha = 1 is read off it too
    monkeypatch.undo()
    # reference values from the walk: the index sequence, summed in ascending order
    walked = sorted(index_sequence(200))
    assert [rec.exact_value for rec in records[:2]] == [sum(walked), sum(nu * nu for nu in walked)]
    for rec, a in zip(records[2:], (0.5, 1.5)):
        assert math.isclose(rec.exact_value, sum(nu**a for nu in walked), rel_tol=1e-12)
    n = totient_summatory(200)
    assert [rec.prediction for rec in records] == [
        2 * n * bcz.b_alpha(1).value,
        second_moment_prediction(200),
        2 * n * bcz.b_alpha(F(1, 2)).value,
        2 * n * bcz.b_alpha(F(3, 2)).value,
    ]
    assert [(rec.parameter, rec.error_bound_form) for rec in records] == [
        ("alpha=1", "Q*log(Q)^2"),
        ("alpha=2", "Q*log(Q)^2"),
        ("alpha=1/2", "Q*log(Q)"),
        ("alpha=3/2", "Q^alpha*log(Q)"),
    ]
    with pytest.raises(ValueError):
        moment_records(200, [F(1, 2), 0])


# every public function that takes an order Q, with the arguments after Q:
# the chunked S_h walks, which take `workers`, then the ones that walk in one
# process or not at all
_WALKS = [
    (autocorr_sum, (1,)),
    (autocorr_sum_interval, (1, F(1, 3))),
    (autocorr_sums, ([1, 2], [F(2, 3), 1])),
    (autocorr_records, ([1],)),
]
_UNCHUNKED = [
    (sum_index, ()),
    (partial_index_sum, (F(1, 3),)),
    (partial_index_sums, ([F(2, 3), 1],)),
    (lu_counts, (1,)),
    (lu_count_table, ([1], [1])),
    (lu_table_records, ([1],)),
    (partial_records, ([F(1, 3)],)),
]
_ORDER_TAKING = _WALKS + _UNCHUNKED + [
    (farey.seek, (F(1, 2),)),
    (farey.farey_ranks, ([F(1, 2)],)),
    (totient_summatory, ()),
    (index_histogram, ()),
    (sum_index_power, (2,)),
    (hall_shiu_identity, ()),
    (moment_records, ([1],)),
]


@pytest.mark.parametrize("order", [0, -3])
@pytest.mark.parametrize("fn, args", _ORDER_TAKING, ids=[fn.__name__ for fn, _ in _ORDER_TAKING])
def test_orders_below_one_are_refused(fn, args, order):
    # seek(0, 1/2) used to return a successor over 0, index_histogram(0) an
    # empty histogram and lu_count_table(0, [1]) a count
    with pytest.raises(ValueError, match="order must be >= 1"):
        fn(order, *args)


def _no_walk(*args):
    raise AssertionError("walked before validating")


@pytest.mark.parametrize("workers", [0, -1, 2.7])
@pytest.mark.parametrize("fn, args", _WALKS + _UNCHUNKED,
                         ids=[fn.__name__ for fn, _ in _WALKS + _UNCHUNKED])
def test_chunk_counts_below_one_or_not_integers_are_refused(fn, args, workers, monkeypatch):
    # they used to become max(1, int(workers)) chunks, or none where t = 1
    # walks nothing; a function that starts no pool takes no chunk count
    monkeypatch.setattr(stats, "_run_chunks", _no_walk)
    error, message = ((ValueError, "workers must be an integer >= 1") if (fn, args) in _WALKS
                      else (TypeError, "unexpected keyword argument 'workers'"))
    with pytest.raises(error, match=message):
        fn(30, *args, workers=workers)


@pytest.mark.parametrize("t", [F(1, 3), F(1, 2), F(2, 3), F(1)])
def test_empty_lags_are_refused(t, monkeypatch):
    # above 1/2 they used to fail in max() of an empty sequence, and up to
    # 1/2 give no rows
    monkeypatch.setattr(stats, "_run_chunks", _no_walk)
    for fn in (autocorr_sums, autocorr_records):
        with pytest.raises(ValueError, match="need at least one h"):
            fn(100, [], [t])


def test_visible_points_counts():
    square = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    # 63 coprime pairs with 1 <= a, b <= 10, plus the two axis points (0,1), (1,0)
    assert visible_points_count(square, 10) == 65
    assert visible_points_count(ConvexPolygon(()), 7) == 0

    # brute gcd-table oracle on an assortment of regions
    for poly, scale in ((region_polygon(2), 12), (FAREY_TRIANGLE, 9), (square, 6)):
        verts = [(v.x * scale, v.y * scale) for v in poly.vertices]
        count = 0
        for x in range(-1, scale + 2):
            for y in range(-1, scale + 2):
                if math.gcd(x, y) != 1:
                    continue
                inside = True
                n = len(verts)
                for i in range(n):
                    ax, ay = verts[i]
                    bx, by = verts[(i + 1) % n]
                    if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0:
                        inside = False
                        break
                count += inside
        assert visible_points_count(poly, scale) == count

    for poly in (FAREY_TRIANGLE, square, region_polygon(2), region_star_polygon(3)):
        for scale in (1, 2, 37, 120):
            assert visible_points_count(poly, scale) == brute_visible_count(poly, scale)


def test_visible_points_pinned_at_large_scales():
    # counted by a loop over every d <= scale, one column count per d
    square = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    pinned = [(FAREY_TRIANGLE, 5102068, 273810478), (square, 10200041, 547560937),
              (region_polygon(1), 1701376, 91280140), (region_polygon(2), 1700682, 91270204),
              (region_polygon(3), 680410, 36510026), (region_polygon(7), 81084, 4347350),
              (region_star_polygon(2), 3401375, 182540341), (region_star_polygon(5), 680683, 36514027)]
    for poly, at_4096, at_30011 in pinned:
        assert [visible_points_count(poly, scale) for scale in (4096, 30011)] == [at_4096, at_30011]


def test_visible_points_farey_bijection():
    # lattice points of the closed scaled triangle, minus the coprime points
    # on the closed hypotenuse, are the consecutive-denominator pairs of F_Q
    for q in (1, 2, 10, 31, 60):
        closed = visible_points_count(FAREY_TRIANGLE, q)
        on_hypotenuse = sum(1 for a in range(0, q + 1) if math.gcd(a, q - a) == 1)
        assert closed - on_hypotenuse == totient_summatory(q)


def test_visible_points_density_trend():
    for k in (1, 2, 3):
        area = float(polygon_area(region_polygon(k)))
        devs = []
        for scale in (40, 160):
            count = visible_points_count(region_polygon(k), scale)
            predicted = 6 * area * scale**2 / math.pi**2
            devs.append(abs(count / predicted - 1))
        assert devs[1] < 0.06
        assert devs[1] < devs[0] + 0.02


def test_analytic_constants_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    assert abs(EULER_GAMMA - float(mp.euler)) < 1e-13
    reference = float(mp.zeta(2, derivative=1) / mp.zeta(2))
    assert abs(ZETA_PRIME_OVER_ZETA_TWO - reference) < 1e-13


def test_second_moment_record():
    [rec] = moment_records(300, [2])
    assert rec.exact_value == sum_index_power(300, 2)
    assert rec.prediction == second_moment_prediction(300)
    assert abs(rec.ratio - 1) < 0.01


def test_records_have_consistent_ratios():
    [rec] = autocorr_records(200, [1])
    assert rec.exact_value == autocorr_sum(200, 1)
    assert math.isclose(rec.ratio, float(F(rec.exact_value) / rec.prediction))

    [rec] = moment_records(200, [1])
    n = totient_summatory(200)
    assert F(rec.exact_value) == 3 * n - 1
    assert math.isclose(rec.ratio, 1 - 1 / (3 * n))

    rec_l, rec_u = lu_table_records(200, [1])
    assert rec_u.exact_value == 0 and rec_u.prediction == 0
    assert math.isnan(rec_u.ratio)

    [rec] = partial_records(200, [F(1, 2)])
    assert rec.prediction == 3 * totient_summatory(200) * F(1, 2)


def test_convergence_ladder_shrinks_within_error_term(autocorr_ratios):
    # the deviations sit orders of magnitude below the Q log^2 Q error budget,
    # so pairwise monotonicity is noise; assert the budget and the end-to-end
    # decrease across the ladder instead
    from farey_index import autocorrelation_constant

    for h in (1, 2):
        limit = float(autocorrelation_constant(h))
        devs = []
        for q in (500, 1000, 2000, 4000):
            ratio = autocorr_ratios[h, q]
            devs.append(abs(ratio - 1))
            absolute = abs(ratio - 1) * limit * totient_summatory(q)
            assert absolute <= q * math.log(q) ** 2, (h, q, absolute)
        assert devs[-1] <= 1.5 * devs[0], (h, devs)
        assert devs[-1] < 1e-4, (h, devs)

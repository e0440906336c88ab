"""The index stream, seeking, ranks and the walk, checked against brute enumeration."""

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

from farey_index import farey, seek, totient_summatory

from conftest import brute_farey, brute_indices, brute_moebius, farey_rank, index_sequence, interval_walk


def test_totient_summatory_examples():
    assert totient_summatory(1) == 1
    assert totient_summatory(3) == 4
    assert totient_summatory(5) == 10
    assert totient_summatory(100) == 3044


def test_totient_summatory_against_gcd_counting():
    for q_max in (1, 2, 10, 57, 100):
        count = sum(
            1
            for q in range(1, q_max + 1)
            for a in range(1, q + 1)
            if math.gcd(a, q) == 1
        )
        assert totient_summatory(q_max) == count


def test_moebius_table_is_shared_and_grows_by_doubling(monkeypatch):
    def brute_mu(n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    monkeypatch.setattr(farey, "_mertens", farey._mertens[:0])
    largest = 0
    for n in (10, 3, 11, 50, 49, 200, 1):
        largest = max(largest, n)
        mertens = farey._mertens_table(n)
        with pytest.raises(TypeError):  # read-only: callers share it
            mertens[1] = 0
        assert n + 1 <= len(mertens) <= 2 * largest + 1
        assert list(mertens) == list(accumulate(map(brute_mu, range(1, len(mertens))), initial=0))
    assert farey._mertens_table(100) is farey._mertens_table(7)  # no resieve inside the table


def test_mertens_sieve_matches_a_list_sieve():
    # the square zeroing runs over the primes to sqrt(n) only, so every
    # prefix and the n just below and at a prime square are checked
    table = farey._sieve_mertens(10**6)
    assert list(table) == list(accumulate(brute_moebius(10**6)[1:], initial=0))
    assert (table[10**5], table[10**6]) == (-48, 212)  # the published values
    for n in list(range(0, 400)) + [960, 961, 962, 10**4 - 1, 10**4, 10**5 - 1, 10**5]:
        assert farey._sieve_mertens(n) == table[:n + 1], n


def test_mertens_table_refuses_an_order_past_the_index_range(monkeypatch):
    def fail(n):
        raise AssertionError("sieved")

    monkeypatch.setattr(farey, "_sieve_mertens", fail)
    for n in (sys.maxsize, 10**20):
        with pytest.raises(ValueError, match=f"order {n} is too large"):
            farey._mertens_table(n)


def test_mertens_sieve_holds_bytes_per_entry():
    # a list or tuple of 10^6 entries alone takes 8 MB of pointers; the
    # byte slices and the int32 table of M take about 6 MB
    tracemalloc.start()
    try:
        farey._sieve_mertens(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


def test_farey_rank_against_sorted_fractions():
    cuts = {Fraction(a, b) for b in range(1, 13) for a in range(0, b + 1)}
    for q_max in range(1, 31):
        fr = brute_farey(q_max)
        for t in cuts:
            assert farey_rank(q_max, t) == sum(1 for f in fr if f <= t), (q_max, t)
        assert farey_rank(q_max, 0) == 0
        assert farey_rank(q_max, 1) == len(fr) == totient_summatory(q_max)
    with pytest.raises(ValueError):
        farey_rank(5, Fraction(3, 2))
    with pytest.raises(ValueError):
        farey_rank(0, Fraction(1, 2))


def test_walker_start_examples():
    # the walk of F_Q from t = 0 starts at the pair (0/1, 1/Q)
    for q, expect in ((2, Fraction(1, 2)), (1, Fraction(1, 1)), (7, Fraction(1, 7))):
        assert seek(q, 0) == (0, 1, expect.numerator, expect.denominator)
        a, b, _ = next(interval_walk(q, 0, 1))
        assert Fraction(a, b) == expect


def test_walker_step_examples():
    # one step takes the pair (prev, curr) to (curr, next); seek at curr gives it
    assert seek(5, Fraction(1, 5)) == (1, 5, 1, 4)
    assert seek(3, Fraction(1, 2)) == (1, 2, 2, 3)
    assert seek(2, 1) == (1, 1, 3, 2)  # past 1/1 onto the extension element 3/2
    # the same steps through the walk itself
    assert [Fraction(a, b) for a, b, _ in interval_walk(5, 0, Fraction(1, 4))] == [
        Fraction(1, 5),
        Fraction(1, 4),
    ]
    assert [Fraction(a, b) for a, b, _ in interval_walk(3, Fraction(1, 3), Fraction(2, 3))] == [
        Fraction(1, 2),
        Fraction(2, 3),
    ]


def test_walk_enumerates_farey_sequence_exactly():
    for q in range(1, 51):
        expected = brute_farey(q)
        seen = [Fraction(a, b) for a, b, _ in interval_walk(q, 0, 1)]
        assert seen == expected
        assert seen[-1] == 1  # N(Q) elements end at 1/1
        # neighbours are unimodular, from the element 0/1 before 1/Q on
        for left, right in zip([Fraction(0)] + seen, seen):
            assert right.numerator * left.denominator - left.numerator * right.denominator == 1


def test_walk_reaches_one_after_n_minus_one_steps_up_to_300():
    # nu = floor((Q + q_prev)/q) <= 2Q, with equality only at q = 1, q_prev = Q:
    # the element 1/1.  So 1/1 is the N(Q)-th element, and no earlier one,
    # exactly when the last of the N(Q) indices is 2Q and no other is.
    for q in range(1, 301):
        nus = index_sequence(q)
        assert nus[-1] == 2 * q and max(nus[:-1], default=0) < 2 * q, q


def test_denominator_periodicity_after_full_period():
    # the walk's state after N(Q) steps is again (q_prev, q) = (1, Q), so the
    # stream carries on with the same indices
    for q in (7, 12, 30):
        n = totient_summatory(q)
        stream = [k for block in farey.index_blocks(q, 1, q, n + 2) for k in block]
        assert stream[n:] == stream[:2]


def test_index_examples():
    assert index_sequence(3) == [1, 3, 1, 6]  # 1/3 has index 1, 1/1 has 6
    assert index_sequence(2) == [1, 4]
    assert index_sequence(1) == [2]


def test_index_consistency_all_three_forms():
    # floor form == neighbor-sum quotient on denominators == on numerators
    for q_max in range(1, 101):
        fr, dens, nus = brute_indices(q_max)
        nums = [f.numerator for f in fr]
        n = len(fr)
        for i in range(n):
            before_d = dens[i - 1] if i else 1
            after_d = dens[i + 1] if i + 1 < n else dens[0]
            before_n = nums[i - 1] if i else 0
            after_n = nums[i + 1] if i + 1 < n else nums[0] + dens[0]
            floor_form = (q_max + before_d) // dens[i]
            assert floor_form == nus[i]
            assert (before_d + after_d) % dens[i] == 0
            assert (before_n + after_n) % nums[i] == 0
            assert (before_n + after_n) // nums[i] == nus[i]


def test_index_sequence_matches_oracle():
    for q in (1, 2, 3, 5, 17, 40):
        _, _, nus = brute_indices(q)
        assert index_sequence(q) == nus
    assert index_sequence(5) == [1, 2, 3, 1, 5, 1, 3, 2, 1, 10]


def test_index_stream_is_periodic(monkeypatch):
    q = 9
    n = totient_summatory(q)
    for block in (2, 5, farey._BLOCK):
        monkeypatch.setattr(farey, "_BLOCK", block)
        blocks = list(farey.index_blocks(q, 1, q, 2 * n))
        assert all(0 < len(b) <= block for b in blocks)
        stream = [k for b in blocks for k in b]
        assert stream[:n] == stream[n:] == index_sequence(q)
    assert list(farey.index_blocks(q, 1, q, 0)) == []


def test_seek_examples():
    assert seek(5, 0) == (0, 1, 1, 5)
    assert seek(5, Fraction(1, 2)) == (1, 2, 3, 5)
    assert seek(3, Fraction(3, 5)) == (1, 2, 2, 3)
    assert seek(1, 0) == (0, 1, 1, 1)
    assert seek(2, 1) == (1, 1, 3, 2)  # 1/1 is followed by the extension element 3/2
    for q in (1, 2, 7):  # the walk from t = 0 starts with 0/1, 1/Q
        assert seek(q, 0) == (0, 1, 1, q)
    for t in (Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError):
            seek(5, t)


def test_seek_brackets_t_on_a_grid():
    for q in range(1, 51):
        fr = brute_farey(q)
        grid = [Fraction(i, 24) for i in range(25)] + [Fraction(1, q), Fraction(2, 3)]
        for t in grid:
            a, b, a2, q2 = seek(q, t)
            assert all(isinstance(x, int) for x in (a, b, a2, q2))
            assert Fraction(a, b) <= t < Fraction(a2, q2)
            later = [f for f in fr if f > t]
            if later:
                assert Fraction(a2, q2) == later[0]
            else:
                assert Fraction(a2, q2) == fr[0] + 1  # extension element


def test_seek_then_walk_covers_interval():
    for q in (6, 11, 23):
        fr = brute_farey(q)
        for t in (Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(9, 10)):
            expected = [f for f in fr if f > t]
            assert [Fraction(a, b) for a, b, _ in interval_walk(q, t, 1)] == expected


def test_interval_walk_yields_indexed_fractions():
    q = 12
    fr, dens, nus = brute_indices(q)
    got = list(interval_walk(q, Fraction(1, 4), Fraction(3, 4)))
    expected = [
        (f.numerator, f.denominator, nu)
        for f, nu in zip(fr, nus)
        if Fraction(1, 4) < f <= Fraction(3, 4)
    ]
    assert got == expected

"""Farey walking, seeking and the index, checked against brute enumeration."""

import math
from fractions import Fraction

import pytest

from farey_index import (
    FareyWalker,
    farey_rank,
    index_of,
    index_sequence,
    index_stream,
    interval_walk,
    neighbor_numerators,
    seek,
    totient_summatory,
    walker_start,
    walker_step,
)

from conftest import brute_farey, brute_indices


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
    for q, expect in ((2, Fraction(1, 2)), (1, Fraction(1, 1)), (7, Fraction(1, 7))):
        w = walker_start(q)
        assert w.prev == 0 and w.curr == expect


def test_walker_step_examples():
    w = FareyWalker(5, Fraction(0), Fraction(1, 5))
    w = walker_step(w)
    assert (w.prev, w.curr) == (Fraction(1, 5), Fraction(1, 4))

    w = FareyWalker(3, Fraction(1, 3), Fraction(1, 2))
    w = walker_step(w)
    assert (w.prev, w.curr) == (Fraction(1, 2), Fraction(2, 3))

    w = FareyWalker(2, Fraction(1, 2), Fraction(1, 1))
    w = walker_step(w)
    assert (w.prev, w.curr) == (Fraction(1, 1), Fraction(3, 2))


def test_walker_invariants_rejected():
    with pytest.raises(ValueError):
        FareyWalker(5, Fraction(1, 5), Fraction(1, 3))  # not unimodular
    with pytest.raises(ValueError):
        FareyWalker(5, Fraction(0), Fraction(1, 7))  # denominator out of range


def test_walk_enumerates_farey_sequence_exactly():
    for q in range(1, 51):
        expected = brute_farey(q)
        w = walker_start(q)
        seen = []
        for _ in range(len(expected)):
            seen.append(w.curr)
            assert w.curr.numerator * w.prev.denominator - w.prev.numerator * w.curr.denominator == 1
            w = walker_step(w)
        assert seen == expected
        assert seen[-1] == 1  # N(Q) elements end at 1/1


def test_walk_reaches_one_after_n_minus_one_steps_up_to_300():
    # the walker starts at the first element, so 1/1 appears N(Q) - 1 steps in
    for q in range(1, 301):
        n = totient_summatory(q)
        w = walker_start(q)
        for _ in range(n - 1):
            w = walker_step(w)
        assert w.curr == 1, q


def test_denominator_periodicity_after_full_period():
    for q in (7, 12, 30):
        n = totient_summatory(q)
        w = walker_start(q)
        states = [(w.prev.denominator, w.curr.denominator)]
        for _ in range(n):
            w = walker_step(w)
            states.append((w.prev.denominator, w.curr.denominator))
        assert states[n] == states[0]


def test_index_examples():
    assert index_of(FareyWalker(3, Fraction(0), Fraction(1, 3))) == 1
    assert index_of(FareyWalker(3, Fraction(2, 3), Fraction(1, 1))) == 6
    assert index_of(FareyWalker(2, Fraction(1, 2), Fraction(1, 1))) == 4


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


def test_index_stream_is_periodic():
    q = 9
    n = totient_summatory(q)
    stream = index_stream(q)
    first = [next(stream) for _ in range(n)]
    second = [next(stream) for _ in range(n)]
    assert first == second


def test_neighbor_numerators_examples():
    assert neighbor_numerators(2, 1, 2) == (1, 1)
    assert neighbor_numerators(5, 4, 5) == (1, 1)
    assert neighbor_numerators(3, 2, 4) == (1, 1)


def test_neighbor_numerators_against_brute_pairs():
    for q_max in (5, 8, 13):
        fr = brute_farey(q_max)
        for left, right in zip(fr, fr[1:]):
            a, a2 = neighbor_numerators(left.denominator, right.denominator, q_max)
            assert (a, a2) == (left.numerator, right.numerator)
    with pytest.raises(ValueError):
        neighbor_numerators(4, 2, 5)   # not coprime
    with pytest.raises(ValueError):
        neighbor_numerators(2, 2, 5)   # q + q2 <= Q


def test_seek_examples():
    w = seek(5, 0)
    assert (w.prev, w.curr) == (Fraction(0), Fraction(1, 5))
    w = seek(5, Fraction(1, 2))
    assert (w.prev, w.curr) == (Fraction(1, 2), Fraction(3, 5))
    w = seek(3, Fraction(3, 5))
    assert (w.prev, w.curr) == (Fraction(1, 2), Fraction(2, 3))


def test_seek_brackets_t_on_a_grid():
    for q in range(1, 51):
        fr = brute_farey(q)
        grid = [Fraction(i, 24) for i in range(25)] + [Fraction(1, q), Fraction(2, 3)]
        for t in grid:
            w = seek(q, t)
            assert w.prev <= t < w.curr
            later = [f for f in fr if f > t]
            if later:
                assert w.curr == later[0]
            else:
                assert w.curr == fr[0] + 1  # extension element


def test_seek_then_walk_covers_interval():
    for q in (6, 11, 23):
        fr = brute_farey(q)
        for t in (Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(9, 10)):
            expected = [f for f in fr if f > t]
            w = seek(q, t)
            seen = []
            while w.curr <= 1:
                seen.append(w.curr)
                w = walker_step(w)
            assert seen == expected


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

"""Property tests: random parameters against the brute-force oracles."""

import csv
import io
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from farey_index import cli
from farey_index import (
    ConvexPolygon,
    Point2,
    autocorr_sums,
    bcz,
    clip_convex,
    farey,
    lu_count_table,
    partial_index_sums,
    polygon_area,
    push_forward,
    region_polygon,
    region_star_polygon,
    seek,
    stats,
)

from conftest import (
    brute_autocorr,
    brute_indices,
    brute_lu,
    brute_lu_counts,
    brute_moebius,
    brute_partial,
    brute_totient_summatory,
    brute_visible_count,
    fraction_region_parts,
    full_period_sums,
    hull,
    index_sequence,
    interval_walk,
    per_denominator_lattice_counts,
    shoelace2,
    symmetric_difference_area,
)


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 40),
    lags=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    ts=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=15).filter(lambda t: t > 0),
        min_size=1,
        max_size=4,
    ),
    workers=st.integers(1, 6),
    block=st.sampled_from((2, 5, farey._BLOCK)),
)
def test_multi_parameter_walks_property(q, lags, ks, ts, workers, block):
    # small blocks put block ends, and lags past a block, inside F_Q
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats.os, "cpu_count", lambda: 1)
        patch.setattr(farey, "_BLOCK", block)
        assert autocorr_sums(q, lags, ts, workers) == brute_autocorr(q, lags, ts)
        assert lu_count_table(q, ks, ts) == brute_lu(q, ks, ts)
        assert partial_index_sums(q, [0] + ts) == brute_partial(q, [0] + ts)


@settings(max_examples=20, deadline=None)
@given(
    q=st.integers(1, 300),
    lags=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    ts=st.lists(
        st.one_of(
            st.just(Fraction(1)),
            st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda t: t > 0),
        ),
        min_size=1,
        max_size=4,
    ),
    workers=st.integers(1, 4),
    data=st.data(),
)
def test_mirror_route_matches_full_period_walk_property(q, lags, ks, ts, workers, data):
    # cutoffs above 1/2 come from the walk of (0, 1/2]; the oracle walks the
    # whole period.  One lag up to three periods, and k = 2Q, which counts 1/1
    lags = lags + [data.draw(st.integers(1, 3 * stats.totient_summatory(q)))]
    ks = ks + [2 * q]
    autocorr, lu, partial = full_period_sums(q, lags, ks, [0] + ts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats.os, "cpu_count", lambda: 1)
        assert autocorr_sums(q, lags, ts, workers) == [row[1:] for row in autocorr]
        assert lu_count_table(q, ks, ts) == [row[1:] for row in lu]
        assert partial_index_sums(q, [0] + ts) == partial


@settings(max_examples=30, deadline=None)
@given(
    q=st.integers(1, 300),
    ks=st.lists(st.integers(1, 12), max_size=3),
    ts=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda t: t > 0),
        max_size=3,
    ),
    inner=st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=Fraction(1, 2), max_denominator=60)
        .filter(lambda t: Fraction(1, 4) < t < Fraction(1, 2)),
        min_size=1, max_size=2,
    ),
)
def test_lu_counts_match_the_per_element_threshold_test(q, ks, ts, inner):
    # L(k) = rank of t in F_{c_k} - #{nu > k}, U(k) = #{nu = k} - L(k), the
    # counts up to t > 1/2 closed by the lattice histogram, and those up to
    # 1/4 < t <= 1/2 by the counts over (0, 1/2] less a walk from 1/2;
    # k = 1, 2Q (the index of 1/1) and 2Q + 1 (never an index, c_k = 0),
    # t = 1/4, 1/2, t in (1/4, 1/2) and its mirror, t > 1/2, 1; and every
    # Q <= 3, where 1/2 is not in F_{Q/2}
    for order in (1, 2, 3, q):
        lu_ks = [1, 2 * order, 2 * order + 1] + ks
        lu_ts = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)] + ts + inner
        lu_ts += [1 - t for t in inner]
        table = lu_count_table(order, lu_ks, lu_ts)
        assert [list(column) for column in zip(*table)] == [
            brute_lu_counts(order, lu_ks, t) for t in lu_ts
        ]


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 300))
def test_index_sequence_is_even(q):
    # the mirror gamma -> 1 - gamma keeps q and nu: nu_{N-i} = nu_i for
    # 0 < i < N, and nu_N = nu_0 = 2Q
    nus = index_sequence(q)
    assert nus[-1] == 2 * q
    assert nus[:-1] == nus[-2::-1]


@settings(max_examples=30, deadline=None)
@given(
    qs=st.lists(st.integers(1, 3000), min_size=1, max_size=5),
    order=st.sampled_from(("ascending", "descending", "as drawn")),
)
def test_totient_summatory_over_a_grown_or_larger_table(qs, order):
    # N(Q) reads the shared Mertens table: sieved for Q, regrown past it, or
    # left larger by an earlier order, it gives the phi sieve's count; each
    # order is asked twice, the second time from a table that holds it
    if order != "as drawn":
        qs = sorted(qs, reverse=order == "descending")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(farey, "_mertens", farey._mertens[:0])
        for q in qs + qs:
            assert stats.totient_summatory(q) == brute_totient_summatory(q), (qs, q)


@st.composite
def unit_rationals(draw):
    """Rationals in [0, 1], with small denominators or ones of 10^12 and more."""
    r = draw(st.one_of(st.integers(1, 200), st.integers(10**12, 10**18)))
    return Fraction(draw(st.integers(0, r)), r)


@settings(max_examples=100, deadline=None)
@given(q=st.one_of(st.integers(1, 60), st.integers(1, 10**9)), t=unit_rationals())
def test_seek_returns_the_consecutive_pair_around_t(q, t):
    a, b, a2, q2 = seek(q, t)
    assert Fraction(a, b) <= t < Fraction(a2, q2)
    assert a2 * b - a * q2 == 1
    assert 1 <= b <= q and 1 <= q2 <= q
    assert b + q2 > q


@settings(max_examples=30, deadline=None)
@given(q=st.integers(1, 40), ends=st.lists(unit_rationals(), min_size=2, max_size=2))
def test_interval_walk_matches_brute_farey(q, ends):
    t0, t1 = sorted(ends)
    fr, _, nus = brute_indices(q)
    assert list(interval_walk(q, t0, t1)) == [
        (f.numerator, f.denominator, nu) for f, nu in zip(fr, nus) if t0 < f <= t1
    ]


@st.composite
def triangle_pieces(draw):
    """Rational convex pieces of the Farey triangle, some filling the corner (1, 0).

    The hull of a few points of the triangle with y > 0; a corner piece also
    holds (1, 0) and a point on each of the two edges x = 1 and x + y = 1
    there, so it contains every star region from some index on.
    """
    den = draw(st.integers(1, 30))
    points = []
    for _ in range(draw(st.integers(3, 6))):
        a = draw(st.integers(0, den))
        b = draw(st.integers(max(den - a, 1), den))
        points.append((Fraction(a, den), Fraction(b, den)))
    if draw(st.booleans()):
        s = Fraction(draw(st.integers(1, den)), den)
        t = Fraction(draw(st.integers(1, den)), den)
        points += [(Fraction(1), Fraction(0)), (Fraction(1), s), (1 - t, t)]
    return ConvexPolygon(tuple(hull(points)))


@settings(max_examples=30, deadline=None)
@given(piece=triangle_pieces())
def test_region_sweep_matches_region_clips(piece):
    assume(piece)
    area = polygon_area(piece)
    parts, stars = bcz._region_parts(piece)
    # the integer sweep against the same sweep in Fraction arithmetic
    ref_parts, ref_stars = fraction_region_parts([(v.x, v.y) for v in piece.vertices])
    assert [(k, [(v.x, v.y) for v in part.vertices]) for k, part in parts] == ref_parts
    assert stars == ref_stars
    for (k, part), (_, ref) in zip(parts, ref_parts):
        assert polygon_area(part) == abs(shoelace2(ref)) / 2
        assert part == clip_convex(piece, region_polygon(k))
    for j in stars:
        assert j > parts[-1][0]
        assert clip_convex(piece, region_star_polygon(j)) == region_star_polygon(j)
        area -= bcz.star_area(j)
    assert sum(polygon_area(part) for _, part in parts) == area

    pushed = push_forward(piece, 1)
    assert pushed.area == polygon_area(piece)
    assert symmetric_difference_area(push_forward(pushed, -1), piece) == 0


@st.composite
def triangle_points(draw):
    """Rational points of the triangle 0 < x, y <= 1 < x + y, x and y over
    different denominators."""
    dx, dy = draw(st.lists(st.integers(1, 60), min_size=2, max_size=2, unique=True))
    x = Fraction(draw(st.integers(1, dx)), dx)
    y = Fraction(draw(st.integers(math.floor((1 - x) * dy) + 1, dy)), dy)
    assume(x.denominator != y.denominator)
    return x, y


@settings(max_examples=60, deadline=None)
@given(start=triangle_points(), r=st.integers(0, 200))
def test_integer_orbit_matches_fraction_steps(start, r):
    point = Point2(*start)
    state = bcz.orbit(point, r)
    values, kappas = [point.x, point.y], []
    for _ in range(r):
        point, k = bcz.bcz_apply(point)
        values.append(point.y)
        kappas.append(k)
    assert state.L == tuple(values)
    assert state.kappas == tuple(kappas)


@settings(max_examples=60, deadline=None)
@given(start=triangle_points(), r=st.integers(0, 200))
@example(start=(Fraction(1), Fraction(1)), r=5)
def test_orbit_dump_matches_the_orbit(start, r):
    # the CLI formats L_i from integers over the start's common denominator
    x, y = start
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        assert cli.main(["orbit", "--x", str(x), "--y", str(y), "--r", str(r)]) == 0
    state = bcz.orbit(Point2(x, y), r)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert rows[0] == ["i", "L_i", "kappa_i"]
    assert rows[1:] == [[str(i), str(value), str(k)] for i, (value, k)
                        in enumerate(zip(state.L, ("", *state.kappas, "")))]


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 300))
def test_lattice_histogram_matches_the_walk(q):
    assert stats.index_histogram(q) == dict(Counter(index_sequence(q)))


@settings(max_examples=20, deadline=None)
@given(q=st.integers(1, 40))
def test_lattice_counts_match_brute_force(q):
    _, dens, nus = brute_indices(q)
    assert stats.index_histogram(q) == dict(Counter(nus))
    lhs, _ = stats.hall_shiu_identity(q)
    assert lhs == sum(1 for nu, d in zip(nus, dens) if nu == (2 * q) // d - 1)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 3000))
@example(q=10**4)
@example(q=30011)
def test_lattice_counts_match_the_per_denominator_count(q):
    # the sums over Moebius runs give the histogram and the count identity's
    # left side of the per-denominator count they replaced
    hist, low = per_denominator_lattice_counts(q)
    assert list(stats.index_histogram(q).items()) == list(hist.items())
    assert stats.hall_shiu_identity(q)[0] == low


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), halved=st.booleans())
def test_moebius_runs_tile_the_divisors(n, halved):
    # each run is the next maximal block of d sharing floor(n/d) = m, and its
    # weight sums mu over the block; the blocks end at d_max
    d_max = n // 2 if halved else n
    mu = brute_moebius(n)
    d = 1
    for m, w in farey._moebius_runs(n, d_max):
        start = d
        while d <= d_max and n // d == m:
            d += 1
        assert d > start, (n, d_max, m)
        assert w == sum(mu[start:d]), (n, d_max, m)
    assert d == d_max + 1


@st.composite
def rational_polygons(draw):
    """Rational convex polygons in [-2, 2]^2: hulls of a few points over one
    denominator, some with a small triangle around the origin added."""
    den = draw(st.integers(1, 12))
    coordinate = st.integers(-2 * den, 2 * den)
    points = [
        (Fraction(draw(coordinate), den), Fraction(draw(coordinate), den))
        for _ in range(draw(st.integers(3, 6)))
    ]
    if draw(st.booleans()):
        e = Fraction(1, den)
        points += [(-e, -e), (e, -e), (0, e)]
    return ConvexPolygon(tuple(hull(points)))


@settings(max_examples=50, deadline=None)
@given(poly=rational_polygons(), scale=st.integers(1, 40))
def test_visible_lattice_count_matches_brute_scan(poly, scale):
    assume(poly)
    assert stats.visible_points_count(poly, scale) == brute_visible_count(poly, scale)


@st.composite
def cutoffs_of(draw, q):
    """Cutoffs in [0, 1] for order q: 0, 1/2 and 1, over a denominator of F_q
    above q/2, beyond q, or of 10^12 and more."""
    den = draw(st.one_of(st.integers(q // 2 + 1, q), st.integers(q + 1, 4 * q + 4),
                         st.integers(1, 60), st.integers(10**12, 10**18)))
    return draw(st.one_of(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))),
                          st.integers(0, den).map(lambda a: Fraction(a, den))))


@settings(max_examples=80, deadline=None)
@given(q=st.integers(1, 60), ks=st.lists(st.integers(1, 8), max_size=3), data=st.data())
@example(q=1, ks=[], data=None)
@example(q=2, ks=[], data=None)
@example(q=3, ks=[], data=None)
def test_partial_sums_and_lu_match_sorted_fractions(q, ks, data):
    # the gap identity closes the partial sums without a walk, and LU counts
    # index values from a walk of F_{Q/2}; the oracle sorts all fractions
    fixed = [Fraction(0), Fraction(1, 2), Fraction(1)]
    ts = fixed + (data.draw(st.lists(cutoffs_of(q), max_size=4)) if data else [])
    assert partial_index_sums(q, ts) == brute_partial(q, ts)
    ks = [1, 2, 3, 2 * q] + ks
    positive = [t for t in ts if t > 0]
    assert lu_count_table(q, ks, positive) == brute_lu(q, ks, positive)


def test_gap_identity_over_every_gap_of_every_farey_subsequence():
    # for neighbors a/b < c/d of F_r, r <= Q, the n elements of F_Q strictly
    # between them have index sum 3n - floor((Q - d)/b) - floor((Q - b)/d)
    gaps = 0
    for q in range(1, 40):
        fr, _, nus = brute_indices(q)
        dens = [1] + [f.denominator for f in fr]  # 0/1 opens F_Q
        before = [0]
        for nu in nus:
            before.append(before[-1] + nu)  # before[i]: index sum of positions < i + 1
        for r in range(1, q + 1):
            ends = [i for i, den in enumerate(dens) if den <= r]
            for i, j in zip(ends, ends[1:]):
                b, d, n = dens[i], dens[j], j - i - 1
                assert before[j - 1] - before[i] == 3 * n - (q - d) // b - (q - b) // d
                gaps += 1
    assert gaps == 68233  # sum over Q < 40 and r <= Q of N(r)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 300), t=unit_rationals())
def test_partial_sums_match_a_raw_walk(q, t):
    # the closed form against the index stream summed up to rank(t)
    rank = farey.farey_ranks(q, (t,))[0]
    assert partial_index_sums(q, [t]) == [sum(map(sum, farey.index_blocks(q, 1, q, rank)))]


@settings(max_examples=25, deadline=None)
@given(q=st.integers(1, 10**5), t=unit_rationals())
def test_partial_sums_obey_the_mirror_identity(q, t):
    # P(t) + P(1 - t) = 3 N - 1 - 2Q + [t in F_Q] nu(t), with nu(0) = 2Q; the
    # index of a/b in F_Q is floor((Q + q')/b), q' its predecessor's denominator
    a, b = t.numerator, t.denominator
    if b > q:
        nu = 0
    elif b == 1:
        nu = 2 * q
    else:
        nu = (2 * q - (q - pow(a, -1, b)) % b) // b
    n = stats.totient_summatory(q)
    assert sum(partial_index_sums(q, [t, 1 - t])) == 3 * n - 1 - 2 * q + nu

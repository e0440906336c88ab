"""Transfer-map geometry: regions, push-forwards, tables and exact constants."""

import functools
import math
from fractions import Fraction

import pytest

from farey_index import (
    FAREY_TRIANGLE,
    ConvexPolygon,
    GeometryError,
    bcz,
    Point2,
    PolygonSet,
    TailCertificateError,
    autocorrelation_constant,
    b_alpha,
    bcz_apply,
    intersection_area_table,
    lower_frequency,
    orbit,
    polygon_area,
    push_forward,
    region_polygon,
    region_star_polygon,
    star_intersection_area,
    totient_summatory,
    upper_frequency,
    upper_lower_triangles,
)
from farey_index.bcz import mirror_polygon, mirror_set, star_area

from conftest import (
    brute_farey,
    set_intersection_area,
    set_polygon_intersection_area,
    split_route_intersection_area,
    symmetric_difference_area,
)

F = Fraction


def test_bcz_apply_examples():
    image, k = bcz_apply(Point2(1, 1))
    assert (image, k) == (Point2(1, 1), 2)  # fixed point

    image, k = bcz_apply(Point2(F(3, 5), F(4, 5)))
    assert k == 2 and image == Point2(F(4, 5), 1)

    # denominators (1, 5)/5 advance to (5, 4)/5 for Q = 5
    image, k = bcz_apply(Point2(F(1, 5), 1))
    assert k == 1 and image == Point2(1, F(4, 5))

    with pytest.raises(ValueError):
        bcz_apply(Point2(F(1, 4), F(1, 4)))  # below the diagonal
    with pytest.raises(ValueError):
        bcz_apply(Point2(1, 0))


def test_orbit_examples():
    state = orbit(Point2(F(2, 3), F(2, 3)), 0)
    assert state.L == (F(2, 3), F(2, 3)) and state.kappas == ()

    state = orbit(Point2(1, 1), 3)
    assert state.kappas == (2, 2, 2)
    assert state.L == (1, 1, 1, 1, 1)

    # orbit of (1/5, 1) carries the index sequence of F_5
    state = orbit(Point2(F(1, 5), 1), 9)
    assert state.kappas == (1, 2, 3, 1, 5, 1, 3, 2, 1)
    # the L-recursion invariant holds along the orbit
    for i in range(1, len(state.kappas) + 1):
        assert state.L[i + 1] == state.kappas[i - 1] * state.L[i] - state.L[i - 1]


def test_orbit_matches_farey_denominators():
    # kappa_{r+1} equals the index of the (i+r)-th fraction, for every start i
    for q_max in range(2, 51, 7):
        fr = brute_farey(q_max)
        dens = [1] + [f.denominator for f in fr]
        ext = dens + dens[1:]
        for i in range(1, len(fr) + 1):
            state = orbit(Point2(F(dens[i - 1], q_max), F(dens[i], q_max)), 3)
            for r in range(3):
                assert state.kappas[r] == (q_max + ext[i + r - 1]) // ext[i + r]


def test_region_polygon_areas():
    assert polygon_area(region_polygon(1)) == F(1, 6)
    assert polygon_area(region_polygon(2)) == F(1, 6)
    assert polygon_area(region_polygon(5)) == F(2, 105)
    for k in range(2, 101):
        assert polygon_area(region_polygon(k)) == F(4, k * (k + 1) * (k + 2))


def test_region_star_areas_and_partition():
    assert region_star_polygon(1) == FAREY_TRIANGLE
    assert star_area(1) == F(1, 2)
    assert star_area(2) == F(1, 3)
    assert star_area(5) == F(1, 15)
    for cut in range(1, 101):
        partial = sum((polygon_area(region_polygon(k)) for k in range(1, cut + 1)), F(0))
        assert partial + star_area(cut + 1) == F(1, 2)


def test_upper_lower_triangles_and_frequencies():
    upper, lower = upper_lower_triangles(1)
    assert not upper and polygon_area(lower) == F(1, 6)
    assert upper_frequency(1) == 0
    assert lower_frequency(1) == F(1, 3)
    assert upper_frequency(2) == F(2, 9)

    for k in range(1, 51):
        upper, lower = upper_lower_triangles(k)
        # the two triangles tile the region
        assert polygon_area(upper) + polygon_area(lower) == polygon_area(region_polygon(k))
        assert lower_frequency(k) == 4 * (F(1, (k + 1) ** 2) - F(1, k + 1) + F(1, k + 2))
        if k >= 2:
            assert upper_frequency(k) == 4 * (F(1, k) - F(1, k + 1) - F(1, (k + 1) ** 2))


def test_upper_lower_triangles_are_the_vertex_formulas():
    # the splits of the triangle along 1 + x = k y and 1 + x = (k+1) y, and
    # of region k along y = 2/(k+1), against their vertices written out
    for k in range(1, 201):
        lower = ConvexPolygon(((F(k, k + 2), F(2, k + 2)), (F(k - 1, k + 1), F(2, k + 1)),
                               (1, F(2, k + 1))))
        upper = ConvexPolygon() if k == 1 else ConvexPolygon(
            ((1, F(2, k)), (F(k - 1, k + 1), F(2, k + 1)), (1, F(2, k + 1))))
        assert upper_lower_triangles(k) == (upper, lower)
        if k == 1:
            region = ConvexPolygon(((0, 1), (1, 1), (F(1, 3), F(2, 3))))
            star = FAREY_TRIANGLE
        else:
            corner, edge = (F(k - 1, k + 1), F(2, k + 1)), (1, F(2, k))
            region = ConvexPolygon((corner, edge, (1, F(2, k + 1)), (F(k, k + 2), F(2, k + 2))))
            star = ConvexPolygon((corner, edge, (1, 0)))
        for split, formula in ((region_polygon(k), region), (region_star_polygon(k), star)):
            assert (split.coords, split.den) == (formula.coords, formula.den)


def test_push_forward_identity_and_mirror():
    assert push_forward(region_polygon(3), 0).pieces == (region_polygon(3),)
    for k in range(1, 51):
        pushed = push_forward(region_polygon(k), 1)
        assert symmetric_difference_area(pushed, PolygonSet((mirror_polygon(region_polygon(k)),))) == 0


def test_push_forward_preserves_area_to_depth_four():
    for k in range(1, 51):
        target = polygon_area(region_polygon(k))
        current = PolygonSet((region_polygon(k),))
        for _ in range(4):
            current = push_forward(current, 1)
            assert current.area == target


def test_push_forward_inverse_round_trip():
    for k in range(1, 51):
        start = PolygonSet((region_polygon(k),))
        round_trip = push_forward(push_forward(start, 1), -1)
        assert symmetric_difference_area(round_trip, start) == 0
    # and through the stars, which exercise the corner absorption
    for m in (2, 3, 5):
        start = PolygonSet((region_star_polygon(m),))
        round_trip = push_forward(push_forward(start, 2), -2)
        assert symmetric_difference_area(round_trip, start) == 0


EXPECTED_TABLE_H1 = [
    ["1/2", "1/3", "1/6", "1/10", "1/15"],
    ["1/3", "1/6", "1/30", "1/210", "0"],
    ["1/6", "1/30", "0", "0", "0"],
    ["1/10", "1/210", "0", "0", "0"],
    ["1/15", "0", "0", "0", "0"],
]

EXPECTED_TABLE_H2 = [
    ["1/2", "1/3", "1/6", "1/10", "1/15", "1/21", "1/28", "1/36"],
    ["1/3", "23/84", "31/210", "2/21", "1/15", "1/21", "1/28", "1/36"],
    ["1/6", "31/210", "1/10", "13/210", "1/30", "1/70", "1/220", "1/1170"],
    ["1/10", "2/21", "13/210", "1/42", "1/231", "0", "0", "0"],
    ["1/15", "1/15", "1/30", "1/231", "0", "0", "0", "0"],
    ["1/21", "1/21", "1/70", "0", "0", "0", "0", "0"],
    ["1/28", "1/28", "1/220", "0", "0", "0", "0", "0"],
    ["1/36", "1/36", "1/1170", "0", "0", "0", "0", "0"],
]


def test_intersection_table_h1():
    table = intersection_area_table(1, 5)
    for m in range(5):
        for n in range(5):
            assert table[m][n] == F(EXPECTED_TABLE_H1[m][n]), (m + 1, n + 1)
    # the large-index families: first column 2/(m(m+1)), all later columns empty
    for m in (5, 10, 20, 50):
        assert star_intersection_area(1, m, 1) == F(2, m * (m + 1))
        assert star_intersection_area(1, m, 2) == 0


def test_intersection_table_h2():
    table = intersection_area_table(2, 8)
    for m in range(8):
        for n in range(8):
            assert table[m][n] == F(EXPECTED_TABLE_H2[m][n]), (m + 1, n + 1)
    for m in (9, 12, 30):
        assert star_intersection_area(2, m, 1) == F(2, m * (m + 1))
        assert star_intersection_area(2, m, 2) == F(2, m * (m + 1))
        assert star_intersection_area(2, m, 3) == 0


@pytest.mark.parametrize("h", [1, 2, 3])
def test_intersection_table_symmetry(h):
    size = 4 * h + 4
    table = intersection_area_table(h, size)
    for m in range(size):
        for n in range(m + 1, size):
            assert table[m][n] == table[n][m], (h, m + 1, n + 1)


def test_emptiness_bounds():
    # coarse bound: images of star m avoid star n when min(m, n) > 2^(h+1)
    for h in (1, 2):
        c = 2 ** (h + 1)
        for m, n in ((c + 1, c + 1), (c + 1, c + 4), (c + 4, c + 1)):
            assert star_intersection_area(h, m, n) == 0
    # sharper bound: at m = 4h + 2 the image already avoids star 3
    for h in (1, 2, 3):
        assert star_intersection_area(h, 4 * h + 2, 3) == 0


def test_autocorrelation_constants_exact():
    assert autocorrelation_constant(1) == F(192, 35)
    assert autocorrelation_constant(2) == F(796727, 90090)


def test_autocorrelation_constant_from_table_sum():
    # h=1: full double sum assembled from the 5x5 table plus analytic tails
    table = intersection_area_table(1, 5)
    block = sum(table[m][n] for m in range(1, 4) for n in range(1, 4))
    row_and_column = 2 * sum((star_area(m) for m in range(1, 5)), F(0)) - star_area(1)
    tails = 2 * F(2, 5)  # remaining first-row and first-column star areas
    assert 2 * (block + row_and_column + tails) == F(192, 35)


def test_autocorrelation_matches_enumeration():
    # the exact geometric constant explains the actual Farey statistic
    from farey_index import autocorr_sum

    for h in (1, 2, 3):
        limit = float(autocorrelation_constant(h))
        n = totient_summatory(800)
        ratio = autocorr_sum(800, h) / (limit * n)
        assert abs(ratio - 1) < 0.005, (h, ratio)


def test_autocorrelation_certificate_failure_is_loud():
    with pytest.raises((TailCertificateError, ValueError)):
        autocorrelation_constant(2, block_limit=3)


def test_b_alpha_exact_at_one():
    result = b_alpha(1)
    assert result.exact and result.value == F(3, 2) and result.tail_bound == 0


def test_b_alpha_near_zero_exponent():
    # as alpha -> 0 the sum tends to the triangle area 1/2
    result = b_alpha(F(1, 100), tol=1e-9)
    assert abs(float(result.value) - 0.5) < 0.02


def test_b_alpha_two_evaluation_routes_agree():
    # direct sum over regions vs the increment form over star regions
    for alpha in (F(1, 2), F(3, 4)):
        direct = b_alpha(alpha, tol=1e-10)
        a = float(alpha)
        total = 0.0
        cutoff = 40_000
        for m in range(1, cutoff + 1):
            inc = m**a - (m - 1) ** a
            area = 0.5 if m == 1 else 2.0 / (m * (m + 1))
            total += inc * area
        tail = 2 * a * cutoff ** (a - 2) / (2 - a)
        assert abs(float(direct.value) - total) <= direct.tail_bound + tail + 1e-12


def test_b_alpha_certifies_the_area_closed_form(monkeypatch):
    # every call checks 4/(k (k+1) (k+2)) against the region polygons before
    # summing it, whatever ran earlier in the process
    b_alpha(F(1, 3))
    region_area = bcz.region_area
    monkeypatch.setattr(bcz, "region_area", lambda k: region_area(k) + (k == 37))
    with pytest.raises(GeometryError, match="closed form failed certification"):
        b_alpha(F(1, 2))


def test_b_alpha_rejects_bad_input():
    with pytest.raises(ValueError):
        b_alpha(2)
    with pytest.raises(ValueError):
        b_alpha(F(1, 2), tol=0)


# exponents through (0, 2): both ends, both sides of 1, and the benchmark's heavy ones
_B_ALPHA_GRID = ("1/100", "1/10", "2/11", "1/3", "1/2", "2/3", "11/12", "5/4", "10/7",
                 "16/11", "3/2", "7/4", "19/10", "99/50")


@functools.lru_cache(maxsize=None)
def _b_alpha_reference(alpha: Fraction):
    """B_alpha to 30 digits by mpmath, along two routes that must agree.

    Both sum k <= 64 from the closed-form areas.  One takes the tail as
    4 sum_n (-1)^n (2^(n+1) - 1) zeta(3 + n - alpha, 65) with mpmath's Hurwitz
    zeta.  The other is mpmath's Euler-Maclaurin sum with numerical
    derivatives, given the tail integral as the analytically continued
    integral over (0, oo), 4 pi (1 - 2^(alpha-1)) / sin(pi alpha), less a
    quadrature over (0, 65).  (A plain nsum of the series converges to a
    wrong value near alpha = 2.)
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(30):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        head = mp.mpf(1) / 6 + mp.fsum(
            mp.mpf(k) ** a * 4 / (k * (k + 1) * (k + 2)) for k in range(2, 65)
        )
        by_zeta = 4 * mp.fsum(
            (-1) ** n * (2 ** (n + 1) - 1) * mp.zeta(3 + n - a, 65) for n in range(40)
        )
        g = lambda x: 4 / ((x + 1) * (x + 2))
        f = lambda x: x ** (a - 1) * g(x)
        # x = t^(1/alpha) takes the x^(alpha-1) singularity at 0 out of the quadrature
        near = mp.quad(lambda t: g(t ** (1 / a)), [0, 1]) / a + mp.quad(f, [1, 65])
        integral = 4 * mp.pi * (1 - 2 ** (a - 1)) / mp.sin(mp.pi * a) - near
        by_sumem = mp.sumem(f, [65, mp.inf], integral=integral)
        assert abs(by_zeta - by_sumem) < mp.mpf(10) ** -25 * by_zeta
        return head + by_sumem


@pytest.mark.parametrize("alpha", _B_ALPHA_GRID)
def test_b_alpha_encloses_the_mpmath_value(alpha):
    reference = _b_alpha_reference(F(alpha))
    for tol in (1e-8, 1e-12):
        result = b_alpha(F(alpha), tol=tol)
        assert abs(result.value - reference) <= result.tail_bound <= tol


def test_b_alpha_sums_few_terms():
    # the tail is closed: no call sums O(1/tol) terms, whatever alpha
    for alpha in _B_ALPHA_GRID:
        assert b_alpha(F(alpha), tol=1e-12).terms <= 128


# (value, tail_bound) of the direct sum with an integral tail bracket that
# b_alpha used before the tail was closed, at the default tol 1e-8
_DIRECT_SUM_ENCLOSURES = {
    F(1, 3): (0.661432646059456, 6.2812015183525486e-09),
    F(1, 2): (0.7813782697039232, 4.097251055982073e-09),
    F(2, 11): (0.5777840187835641, 1.922090094245562e-09),
    F(11, 12): (1.3188406682377283, 8.097798503931908e-09),
    F(10, 7): (3.5902750408059068, 5.9826208509763945e-09),
    F(16, 11): (3.8488889024066655, 8.515605499394285e-09),
}


def test_b_alpha_lies_in_the_direct_sum_enclosure():
    for alpha, (value, bound) in _DIRECT_SUM_ENCLOSURES.items():
        assert abs(b_alpha(alpha).value - value) <= bound, alpha


def test_star_images_under_pushes_keep_area():
    for m in (2, 3, 7):
        for h in (1, 2, 3):
            base = PolygonSet((region_star_polygon(m),))
            assert push_forward(base, h).area == star_area(m)


def test_direct_push_route_agrees_with_split_route():
    # the direct push of the star through two steps, clipped against the
    # stars, must land on the same areas as the table entries
    pushed = push_forward(PolygonSet((region_star_polygon(3),)), 2)
    assert set_polygon_intersection_area(pushed, region_star_polygon(3)) == F(1, 10)
    assert set_polygon_intersection_area(pushed, region_star_polygon(2)) == F(31, 210)
    pushed1 = push_forward(PolygonSet((region_star_polygon(2),)), 1)
    assert set_polygon_intersection_area(pushed1, region_star_polygon(4)) == F(1, 210)


def test_push_forward_rejects_pieces_outside_triangle():
    from farey_index import ConvexPolygon, GeometryError

    outside = PolygonSet((ConvexPolygon(((0, 0), (1, 0), (0, 1))),))
    with pytest.raises(GeometryError):
        push_forward(outside, 1)
    with pytest.raises(ValueError):
        orbit(Point2(1, 1), -1)


def test_set_intersection_area_against_symmetry():
    left = push_forward(PolygonSet((region_star_polygon(2),)), 1)
    right = PolygonSet((region_star_polygon(3),))
    value = set_intersection_area(left, right)
    assert value == star_intersection_area(1, 2, 3) == F(1, 30)
    mirrored = mirror_set(left)
    assert mirrored.area == left.area


def test_autocorrelation_constants_pinned_to_eight():
    assert autocorrelation_constant(3) == F(2582873, 323323)
    assert autocorrelation_constant(4) == F(57489842351, 6692786100)
    assert autocorrelation_constant(5) == F(5354851752161, 644658718275)
    assert autocorrelation_constant(6) == F(116203372313309, 13095420237900)
    assert autocorrelation_constant(7) == F(9741578165532117673, 1177448519850302700)
    assert autocorrelation_constant(8) == F(6764311305628664274121, 774761126061499176600)


def test_autocorrelation_constants_pinned_to_twelve():
    assert autocorrelation_constant(9) == F(930218852149053265199, 110382633551772732150)
    assert autocorrelation_constant(10) == F(
        131816385944150668671940853, 14778336051285278343892020
    )
    assert autocorrelation_constant(11) == F(
        1298186444045794982040088351, 150022502338805098339509900
    )
    assert autocorrelation_constant(12) == F(
        125141783173367727228963623761, 13851389353590761249604012840
    )


def test_autocorrelation_constants_do_not_depend_on_build_order(monkeypatch):
    # every (m, depth) split is built once whichever order A(1..8) runs in:
    # star_m is needed to depth 8 for m = 2..34, the rows and the certificate
    # of A(8); a shallower depth is read off its kept summary
    compute = autocorrelation_constant.__wrapped__
    steps = []
    map_split = bcz._map_split

    def counted(parts, stars):
        steps.append(len(parts))
        return map_split(parts, stars)

    monkeypatch.setattr(bcz, "_map_split", counted)
    values = []
    for order in (range(1, 9), range(8, 0, -1)):
        monkeypatch.setattr(bcz, "_star_splits", {})
        steps.clear()
        values.append({h: compute(h) for h in order})
        assert len(steps) == 33 * 8
    assert values[0] == values[1]
    assert values[0][8] == F(6764311305628664274121, 774761126061499176600)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_star_intersection_area_matches_split_route(h):
    # the region split of T^h star_m against every pair of pieces of
    # T^f star_m and T^(f-h) star_n, clipped one by one
    for m in range(1, 4 * h + 4):
        for n in range(1, 4 * h + 4):
            assert star_intersection_area(h, m, n) == split_route_intersection_area(h, m, n), (m, n)

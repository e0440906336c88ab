"""The area-preserving transfer map on the Farey triangle and its constants.

Phase space is the triangle {(x, y) in [0,1]^2 : x + y > 1}.  The map sends
(x, y) to (y, k y - x) with k = floor((1+x)/y); on the region where k is
constant it acts as a fixed unimodular matrix, so it preserves area exactly
and maps rational convex polygons to rational convex polygons.

Key structural facts used throughout (all verified by the test suite):

  * the region of index k is a triangle (k = 1) or quadrilateral (k >= 2)
    with area 1/6 resp. 4/(k (k+1) (k+2));
  * the map mirrors each region across the diagonal: T R_k = S R_k where
    S(x, y) = (y, x), and T^{-1} = S T S;
  * the "star" region (index >= k) is a triangle of area 2/(k (k+1)) whose
    one-step image is its mirror, which makes infinite tails of region sums
    telescope in closed form.

Every step of the map starts from one region split of a convex piece: a
sweep from the piece's smallest branch index upward cuts it once along each
line 1 + x = k y, which leaves the region parts in increasing k.  A piece
containing the corner (1, 0) meets infinitely many regions; once the uncut
rest equals a full star region the sweep stops, and that star's image is its
mirror (exact, by the mirror identity), so every push-forward stays a finite
union of convex polygons.

The constants read the same split.  The split of T^h star_m is built from
depth h - 1, and a point of region k lies in star_n for exactly n = 1..k, so
every star-intersection area and every row of A(h) is a sum over the region
parts and whole stars of one image.  Pieces are integer-vertex polygons
(`geometry`), and every branch of the map is an integer matrix of
determinant 1, so a map image keeps its denominator; only the cuts make new
ones.  The orbit of a point runs on integers over its common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from .geometry import (
    ConvexPolygon,
    GeometryError,
    Point2,
    UnimodularMap,
    _polygon,
    _split_halfplane_points,
    apply_map,
    polygon_area,
)

#: The Farey triangle, as a closed polygon.
FAREY_TRIANGLE = ConvexPolygon(((0, 1), (1, 0), (1, 1)))

#: Mirror across the diagonal x = y.
SWAP = UnimodularMap(0, 1, 1, 0)

# decomposition loops abort past this region index; legitimate absorption
# of a full corner star happens at small index
_REGION_SCAN_LIMIT = 1024


class TailCertificateError(GeometryError):
    """A geometric tail-containment certificate failed at the chosen cutoff."""


def _branch(k: int) -> UnimodularMap:
    # (x, y) -> (y, k y - x), determinant +1
    return UnimodularMap(0, 1, -1, k)


def region_index(p: Point2) -> int:
    """The branch index floor((1+x)/y) of a point strictly inside the triangle."""
    if not (0 < p.x <= 1 and 0 < p.y <= 1 and p.x + p.y > 1):
        raise ValueError("point is outside the Farey triangle")
    ratio = (1 + p.x) / p.y
    return ratio.numerator // ratio.denominator


def bcz_apply(p: Point2) -> Tuple[Point2, int]:
    """One step of the transfer map; returns ((y, k y - x), k)."""
    k = region_index(p)
    return Point2(p.y, k * p.y - p.x), k


@dataclass(frozen=True)
class OrbitState:
    """Orbit data: L_0, ..., L_{r+1} and the branch indices kappa_1..kappa_r."""

    L: Tuple[Fraction, ...]
    kappas: Tuple[int, ...]


def orbit(p: Point2, r: int) -> OrbitState:
    """Iterate the map r times from p, recording the L-recursion and indices.

    Satisfies L_{i+1} = kappa_i * L_i - L_{i-1} with L_0 = x, L_1 = y.  The
    orbit runs on integers (X, Y) over the common denominator D of the start,
    which the map keeps: k = (D + X) // Y and (X, Y) <- (Y, k Y - X).
    """
    if r < 0:
        raise ValueError("orbit length must be >= 0")
    region_index(p)  # the triangle is invariant, so checking the start suffices
    den = math.lcm(p.x.denominator, p.y.denominator)
    x = p.x.numerator * (den // p.x.denominator)
    y = p.y.numerator * (den // p.y.denominator)
    ys = []
    kappas = []
    for _ in range(r):
        k = (den + x) // y
        x, y = y, k * y - x
        kappas.append(k)
        ys.append(y)
    # built after the loop, not inside it: at r = N(300) the interleaved
    # version peaked about 0.2 MB higher in max RSS
    values = (p.x, p.y, *(Fraction(y, den) for y in ys))
    return OrbitState(values, tuple(kappas))


@lru_cache(maxsize=None)
def region_polygon(k: int) -> ConvexPolygon:
    """Closure of the region with branch index k.

    k = 1 is the top triangle (0,1), (1,1), (1/3, 2/3); for k >= 2 the region
    is the quadrilateral between the lines y = (1+x)/k and y = (1+x)/(k+1).
    """
    if k < 1:
        raise ValueError("region index must be >= 1")
    if k == 1:
        return ConvexPolygon(((0, 1), (1, 1), (Fraction(1, 3), Fraction(2, 3))))
    return ConvexPolygon(
        (
            (Fraction(k - 1, k + 1), Fraction(2, k + 1)),
            (1, Fraction(2, k)),
            (1, Fraction(2, k + 1)),
            (Fraction(k, k + 2), Fraction(2, k + 2)),
        )
    )


@lru_cache(maxsize=None)
def region_star_polygon(k: int) -> ConvexPolygon:
    """Closure of the union of all regions with index >= k (a triangle)."""
    if k < 1:
        raise ValueError("region index must be >= 1")
    if k == 1:
        return FAREY_TRIANGLE
    return ConvexPolygon(
        (
            (Fraction(k - 1, k + 1), Fraction(2, k + 1)),
            (1, Fraction(2, k)),
            (1, 0),
        )
    )


@lru_cache(maxsize=None)
def region_area(k: int) -> Fraction:
    return polygon_area(region_polygon(k))


@lru_cache(maxsize=None)
def star_area(k: int) -> Fraction:
    return polygon_area(region_star_polygon(k))


def upper_lower_triangles(k: int) -> Tuple[ConvexPolygon, ConvexPolygon]:
    """Split region k into its upper and lower triangle (upper empty for k=1).

    Doubling their areas gives the limit frequencies u_k and l_k of the two
    index/denominator count statistics.
    """
    if k < 1:
        raise ValueError("region index must be >= 1")
    lower = ConvexPolygon(
        (
            (Fraction(k, k + 2), Fraction(2, k + 2)),
            (Fraction(k - 1, k + 1), Fraction(2, k + 1)),
            (1, Fraction(2, k + 1)),
        )
    )
    if k == 1:
        return ConvexPolygon(), lower
    upper = ConvexPolygon(
        (
            (1, Fraction(2, k)),
            (Fraction(k - 1, k + 1), Fraction(2, k + 1)),
            (1, Fraction(2, k + 1)),
        )
    )
    return upper, lower


@lru_cache(maxsize=None)
def lower_frequency(k: int) -> Fraction:
    """l_k = 2 * area of the lower triangle of region k."""
    return 2 * polygon_area(upper_lower_triangles(k)[1])


@lru_cache(maxsize=None)
def upper_frequency(k: int) -> Fraction:
    """u_k = 2 * area of the upper triangle of region k (0 for k = 1)."""
    return 2 * polygon_area(upper_lower_triangles(k)[0])


def mirror_polygon(p: ConvexPolygon) -> ConvexPolygon:
    return apply_map(p, SWAP)


@dataclass(frozen=True)
class PolygonSet:
    """A finite union of convex polygons with pairwise disjoint interiors."""

    pieces: Tuple[ConvexPolygon, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "pieces", tuple(p for p in self.pieces if p.vertices)
        )

    @property
    def area(self) -> Fraction:
        return sum((polygon_area(p) for p in self.pieces), Fraction(0))


SetLike = Union[PolygonSet, ConvexPolygon]


def _as_set(s: SetLike) -> PolygonSet:
    if isinstance(s, PolygonSet):
        return s
    return PolygonSet((s,))


def mirror_set(s: SetLike) -> PolygonSet:
    s = _as_set(s)
    return PolygonSet(tuple(mirror_polygon(p) for p in s.pieces))


def _check_inside_triangle(p: ConvexPolygon) -> None:
    den = p.den
    for x, y in p.coords:
        if not (0 <= x <= den and 0 <= y <= den and x + y >= den):
            raise GeometryError(f"piece escaped the Farey triangle at ({x}/{den}, {y}/{den})")


def _region_parts(piece: ConvexPolygon):
    """Split a nonempty convex piece of the triangle into its region parts.

    Returns the parts (k, piece . R_k) in increasing k, and the index of the
    star region that the rest of the piece fills: a 1-tuple, or () when the
    parts cover the whole piece.
    """
    _check_inside_triangle(piece)
    # the branch index (1+x)/y is a ratio of linear forms, so its minimum over
    # a convex polygon is attained at a vertex; the corner (1, 0) has none
    den = piece.den
    k = min((den + x) // y for x, y in piece.coords if y)
    parts = []
    rest = piece
    while True:
        # rest is piece . star_k; the line 1 + x = (k+1) y cuts off region k
        below, above, den = _split_halfplane_points(rest.coords, rest.den, 1, -(k + 1), -1)
        parts.append((k, _polygon(below, den)))
        rest = _polygon(above, den)
        if not rest:
            return parts, ()
        if rest == region_star_polygon(k + 1):
            return parts, (k + 1,)
        if k >= _REGION_SCAN_LIMIT:
            raise GeometryError("region decomposition did not terminate")
        k += 1


def _map_split(parts, stars) -> list[ConvexPolygon]:
    """Image under the map of region parts (k, part) and whole star regions."""
    return [apply_map(part, _branch(k)) for k, part in parts] + [
        mirror_polygon(region_star_polygon(j)) for j in stars
    ]


def push_forward(s: SetLike, h: int) -> PolygonSet:
    """Exact image of a polygon set under the h-th iterate of the map.

    Negative h applies the inverse, via T^{-1} = S T S.  Total area is
    preserved exactly at every step.
    """
    s = _as_set(s)
    if h == 0:
        return s
    if h < 0:
        return mirror_set(push_forward(mirror_set(s), -h))
    for _ in range(h):
        s = PolygonSet(tuple(q for p in s.pieces for q in _map_split(*_region_parts(p))))
    return s


# ---------------------------------------------------------------------------
# Star-intersection areas and the autocorrelation constants
# ---------------------------------------------------------------------------

# The split of T^h star_m is built from the split of depth h - 1.  Only the
# parts of the deepest split built so far are kept per m, since nothing else
# reads parts; the small (stars, profile) summary is kept for every (m, h).
_star_summaries: dict = {}
_deepest_split: dict = {}


def _star_image(m: int, h: int):
    """The region split of T^h star_m, summarized as (stars, profile).

    `stars` is as in `_region_parts`, over all pieces of the image; `profile`
    pairs each region k with the area of the image in it.  Depth 0 is star_m
    whole; depth h splits the image of depth h - 1.
    """
    summary = _star_summaries.get((m, h))
    if summary is not None:
        return summary
    depth, parts, stars = _deepest_split.get(m, (0, (), (m,)))
    if depth >= h:  # the parts of depth h were discarded: split again from star_m
        depth, parts, stars = 0, (), (m,)
    while depth < h:
        pieces = _map_split(parts, stars)
        parts = []
        stars = ()
        for piece in pieces:
            split, star = _region_parts(piece)
            parts += split
            stars += star
        depth += 1
        profile = {}
        for k, part in parts:
            profile[k] = profile.get(k, 0) + polygon_area(part)
        if sum(profile.values()) + sum(star_area(j) for j in stars) != star_area(m):
            raise GeometryError("push-forward lost area")
        _star_summaries[m, depth] = stars, tuple(sorted(profile.items()))
    if depth > _deepest_split.get(m, (0,))[0]:
        _deepest_split[m] = depth, parts, stars
    return _star_summaries[m, h]


def star_intersection_area(h: int, m: int, n: int) -> Fraction:
    """Exact area of (T^h star_m) . star_n.

    Region k lies in star_n exactly when k >= n, and star_j . star_n is
    star_max(j, n), so the area is read off the region split of T^h star_m.
    """
    if h < 1 or m < 1 or n < 1:
        raise ValueError("need h >= 1 and region indices >= 1")
    if m == 1:
        return star_area(n)
    if n == 1:
        return star_area(m)
    stars, profile = _star_image(m, h)
    total = sum((area for k, area in profile if k >= n), Fraction(0))
    return total + sum((star_area(max(j, n)) for j in stars), Fraction(0))


def intersection_area_table(h: int, size: int) -> list[list[Fraction]]:
    """The size-by-size matrix of star-intersection areas for exponent h."""
    if h < 1 or size < 2:
        raise ValueError("need h >= 1 and size >= 2")
    return [
        [star_intersection_area(h, m, n) for n in range(1, size + 1)]
        for m in range(1, size + 1)
    ]


def _star_row_sum(h: int, m: int) -> Fraction:
    """Sum over n >= 2 of area((T^h star_m) . star_n), in closed form.

    A point of region k lies in star_2, ..., star_k, so region k's area counts
    k - 1 times; a whole star_j counts (j - 1) star_area(j) plus the
    telescoped areas 2/(j+1) of the stars beyond it.
    """
    stars, profile = _star_image(m, h)
    total = sum(((k - 1) * area for k, area in profile), Fraction(0))
    for j in stars:
        total += (j - 1) * star_area(j) + Fraction(2, j + 1)
    return total


@lru_cache(maxsize=None)
def autocorrelation_constant(h: int, block_limit: int | None = None) -> Fraction:
    """The exact rational autocorrelation constant A(h).

    A(h)/2 is the doubly infinite sum of star-intersection areas.  Row m=1 and
    column n=1 are analytic (each equals the sum of all star areas, 3/2, so
    together they contribute 5/2).  Each row 2 <= m < M is summed in closed
    form from the region split of T^h star_m.  Rows m >= M (default
    M = 4h + 2) are certified by the split of T^h star_M: the image must
    avoid star_3 entirely, and must either avoid star_2 (rows contribute
    nothing) or lie inside it (rows contribute the telescoped star areas,
    2/M).  Nestedness of the stars transfers the certificate to every row
    beyond M; any other configuration raises.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    cutoff = block_limit if block_limit is not None else 4 * h + 2
    if cutoff < 3:
        raise ValueError("block limit too small")

    half = Fraction(5, 2)
    for m in range(2, cutoff):
        half += _star_row_sum(h, m)

    into_star3 = star_intersection_area(h, cutoff, 3)
    if into_star3 != 0:
        raise TailCertificateError(
            f"tail rows still meet star_3 at cutoff {cutoff}; raise the block limit"
        )
    into_star2 = star_intersection_area(h, cutoff, 2)
    if into_star2 == star_area(cutoff):
        half += Fraction(2, cutoff)
    elif into_star2 != 0:
        raise TailCertificateError(
            f"image of star_{cutoff} splits across star_2; raise the block limit"
        )
    return 2 * half


# ---------------------------------------------------------------------------
# The power-moment constant B_alpha
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerMomentConstant:
    """Value of B_alpha with a certified error bound.

    `value` is exact (a Fraction, tail_bound 0) when alpha is an integer;
    otherwise it is a float enclosed within +/- tail_bound.
    """

    value: Union[Fraction, float]
    tail_bound: float
    terms: int
    exact: bool

    def __float__(self) -> float:
        return float(self.value)


def b_alpha(alpha, tol: float = 1e-8) -> PowerMomentConstant:
    """B_alpha = sum over k of k^alpha * area(region k), for 0 < alpha < 2.

    For alpha = 1 the sum telescopes and the exact value is returned.  For
    other alpha the partial sum is completed with an integral enclosure of the
    tail: the k-th term lies between 4 k^(alpha-3) (1 - 3/k) and 4 k^(alpha-3),
    so bracketing integrals pin the tail within a width that is driven below
    2*tol before summation starts.
    """
    alpha = Fraction(alpha)
    if not (0 < alpha < 2):
        raise ValueError("alpha must lie in (0, 2)")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # the exact tail at alpha = 1 and the direct sum otherwise both use the
    # closed form past k = 64: certify it against the polygons first
    for k in range(2, 65):
        if region_area(k) * k * (k + 1) * (k + 2) != 4:
            raise GeometryError("region area closed form failed certification")

    if alpha.denominator == 1:  # alpha == 1
        cut = 64
        value = sum((k * region_area(k) for k in range(1, cut + 1)), Fraction(0))
        value += Fraction(4, cut + 2)  # telescoped tail of 4/((k+1)(k+2))
        return PowerMomentConstant(value, 0.0, cut, True)

    a = float(alpha)

    def tail_bracket(cut: int):
        upper = 4.0 * cut ** (a - 2) / (2 - a)
        lower = 4.0 * (cut + 1) ** (a - 2) / (2 - a) - 12.0 * cut ** (a - 3) / (3 - a)
        return lower, upper

    cut = 1024
    while True:
        lower, upper = tail_bracket(cut)
        if (upper - lower) / 2 <= tol:
            break
        cut *= 2
        if cut > 1 << 26:
            raise ValueError("tolerance not achievable by direct summation")

    partial = float(region_area(1))  # k = 1 term: 1^alpha * 1/6
    for k in range(2, 65):
        partial += k ** a * float(region_area(k))
    for k in range(65, cut + 1):
        partial += k ** a * (4.0 / (k * (k + 1.0) * (k + 2.0)))
    value = partial + (upper + lower) / 2
    return PowerMomentConstant(value, (upper - lower) / 2, cut, False)

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
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Tuple, Union

from .farey import index_blocks
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


class OrbitState(NamedTuple):
    """Orbit data: L_0, ..., L_{r+1} and the branch indices kappa_1..kappa_r."""

    L: Tuple[Fraction, ...]
    kappas: Tuple[int, ...]


def orbit(p: Point2, r: int) -> OrbitState:
    """Iterate the map r times from p, recording the L-recursion and indices.

    Satisfies L_{i+1} = kappa_i * L_i - L_{i-1} with L_0 = x, L_1 = y.  Over
    the common denominator D of the start the orbit is the Farey recurrence of
    order D, kappa = (D + X) // Y, so the kappas are `index_blocks(D, X, Y, r)`.
    """
    if r < 0:
        raise ValueError("orbit length must be >= 0")
    region_index(p)  # the triangle is invariant, so checking the start suffices
    den = math.lcm(p.x.denominator, p.y.denominator)
    ls = [int(p.x * den), int(p.y * den)]
    kappas = tuple(chain.from_iterable(index_blocks(den, *ls, r)))
    for k in kappas:
        ls.append(k * ls[-1] - ls[-2])
    return OrbitState((p.x, p.y, *(Fraction(y, den) for y in ls[2:])), kappas)


@lru_cache(maxsize=None)
def region_polygon(k: int) -> ConvexPolygon:
    """Closure of the region with branch index k.

    It is star_k cut by 1 + x <= (k+1) y: for k = 1 the top triangle (0,1),
    (1,1), (1/3, 2/3); for k >= 2 the quadrilateral between the lines
    y = (1+x)/k and y = (1+x)/(k+1).
    """
    below, _, den = _split_halfplane_points(*region_star_polygon(k), 1, -(k + 1), -1)
    return _polygon(below, den)


@lru_cache(maxsize=None)
def region_star_polygon(k: int) -> ConvexPolygon:
    """Closure of the union of all regions with index >= k (a triangle).

    It is the Farey triangle cut by 1 + x >= k y; for k = 1 the whole
    triangle, for k >= 2 the triangle (1, 0), (1, 2/k), ((k-1)/(k+1), 2/(k+1)).
    """
    if k < 1:
        raise ValueError("region index must be >= 1")
    below, _, den = _split_halfplane_points(*FAREY_TRIANGLE, -1, k, 1)
    return _polygon(below, den)


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
    # the diagonal y = 2/(k+1) of region k; for k = 1 it is the top edge
    below, above, den = _split_halfplane_points(*region_polygon(k), 0, k + 1, 2)
    return _polygon(above, den), _polygon(below, den)


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


class PolygonSet(NamedTuple("PolygonSet", [("pieces", Tuple[ConvexPolygon, ...])])):
    """A finite union of convex polygons with pairwise disjoint interiors.

    Empty pieces are dropped on construction.
    """

    __slots__ = ()

    def __new__(cls, pieces=()):
        return super().__new__(cls, tuple(p for p in pieces if p))

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
        below, above, den = _split_halfplane_points(*rest, 1, -(k + 1), -1)
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

# The split of T^h star_m is built from the split of depth h - 1.  Per m,
# _star_splits keeps the parts and stars of the deepest split built so far,
# since nothing else reads parts, and the (stars, profile) summary of every
# depth up to it.
_star_splits: dict = {}


def _star_image(m: int, h: int):
    """The region split of T^h star_m, summarized as (stars, profile).

    `stars` is as in `_region_parts`, over all pieces of the image; `profile`
    pairs each region k with the area of the image in it.  Depth 0 is star_m
    whole; depth h splits the image of depth h - 1.
    """
    parts, stars, summaries = _star_splits.setdefault(m, ((), (m,), [((m,), ())]))
    while len(summaries) <= h:
        pieces = _map_split(parts, stars)
        parts = []
        stars = ()
        for piece in pieces:
            split, star = _region_parts(piece)
            parts += split
            stars += star
        profile = {}
        for k, part in parts:
            profile[k] = profile.get(k, 0) + polygon_area(part)
        if sum(profile.values()) + sum(star_area(j) for j in stars) != star_area(m):
            raise GeometryError("push-forward lost area")
        summaries.append((stars, tuple(sorted(profile.items()))))
        _star_splits[m] = parts, stars, summaries
    return summaries[h]


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

class PowerMomentConstant(NamedTuple):
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


# The sum over k runs term by term to _HEAD; past it the region areas are the
# closed form 4/(k (k+1) (k+2)), whose tail is summed analytically.
_HEAD = 64

# Terms kept of the series 1/((1 + u)(1 + 2u)) = sum_n (-1)^n (2^(n+1) - 1) u^n
# at u = 1/k <= 1/65; the rest is below 10^-18 of the tail.
_SERIES_TERMS = 12

# B_2, B_4, ..., B_12 over (2j)!: the Euler-Maclaurin terms kept per Hurwitz zeta.
_EULER_MACLAURIN = tuple(
    Fraction(b) / math.factorial(2 * j)
    for j, b in enumerate(("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730"), 1)
)

# Unit roundoff of a double, and an allowance for the platform pow: within
# 2 ulp (correctly rounded libms are within 1/2), so a relative error <= 4u.
_UNIT = 2.0**-53
_POW_ERROR = 4 * _UNIT


def _tail_bracket(alpha: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact (X, Y) with the tail past _HEAD equal to 4 a^(alpha-2) (X +/- Y), a = _HEAD + 1.

    With u = 1/k, 4 k^alpha / (k (k+1) (k+2)) = 4 k^(alpha-3) / ((1+u)(1+2u))
    = 4 sum_n c_n k^(alpha-3-n) with c_n = (-1)^n (2^(n+1) - 1), so the tail
    is 4 sum_n c_n zeta(s_n, a), s_n = 3 + n - alpha.  Euler-Maclaurin gives

        zeta(s, a) = a^-s (a/(s-1) + 1/2 + sum_j b_j (s)_(2j-1) a^(1-2j)) + R,

    b_j = B_2j/(2j)!, (s)_m the rising factorial, and |R| at most the size of
    the last kept term (|P_2J| <= |B_2J| under the integral of f^(2J) > 0).
    X sums the first N = _SERIES_TERMS of these, with a^-s_n written as
    a^(alpha-2) a^(-1-n).  Y bounds both remainders: R for each n, and the
    series past n = N, whose terms are at most (2^(N+1) + 1) k^-N in size, so
    that its part of the tail is at most (2^(N+1) + 1) zeta(s_N, a), below
    a^(alpha-2) (2^(N+1) + 1) a^(-1-N) (1 + a/(s_N - 1)).

    With alpha = p/q, q (s_n + i) = (3 + n + i) q - p is an integer, so the
    Euler-Maclaurin terms of every n sum as integers over one denominator.
    """
    a, big_n = _HEAD + 1, _SERIES_TERMS
    p, q = alpha.numerator, alpha.denominator
    depth = 2 * len(_EULER_MACLAURIN) - 1  # (aq)^depth clears every a^(1-2j) q^(1-2j)
    common = math.lcm(*(b.denominator for b in _EULER_MACLAURIN))
    weights = [  # b_j (aq)^(1-2j) times common (aq)^depth
        b.numerator * (common // b.denominator) * (a * q) ** (depth + 1 - 2 * j)
        for j, b in enumerate(_EULER_MACLAURIN, 1)
    ]
    denominator = common * (a * q) ** depth * a**big_n
    pole = Fraction(0)  # sum of c_n a^(-n) / (s_n - 1)
    smooth = 0  # sum of c_n a^(-1-n) (1/2 + sum_j ...), times 2 denominator
    last = 0  # sum of |c_n| a^(-1-n) (s_n)_(2J-1) a^(1-2J), times (aq)^depth a^N
    for n in range(big_n):
        c = (-1) ** n * (2 ** (n + 1) - 1)
        pole += Fraction(c * q, ((2 + n) * q - p) * a**n)
        rising = 1  # (s_n)_(2j-1) q^(2j-1)
        inner = common * (a * q) ** depth  # 1/2 times 2 common (aq)^depth
        for j, weight in enumerate(weights):
            for i in range(max(0, 2 * j - 1), 2 * j + 1):
                rising *= (3 + n + i) * q - p
            inner += 2 * weight * rising
        smooth += c * a ** (big_n - 1 - n) * inner
        last += abs(c) * a ** (big_n - 1 - n) * rising
    x = pole + Fraction(smooth, 2 * denominator)
    y = abs(_EULER_MACLAURIN[-1]) * Fraction(last, (a * q) ** depth * a**big_n)
    y += Fraction(2 ** (big_n + 1) + 1, a ** (big_n + 1)) * (1 + a / (2 + big_n - alpha))
    return x, y


def b_alpha(alpha, tol: float = 1e-8) -> PowerMomentConstant:
    """B_alpha = sum over k of k^alpha * area(region k), for 0 < alpha < 2.

    For alpha = 1 the sum telescopes and the exact value is returned.  For
    other alpha the regions k <= 64 are summed term by term and the tail
    sum over k >= 65 of 4 k^alpha / (k (k+1) (k+2)) is evaluated in closed
    form: a series in Hurwitz zeta values, each by Euler-Maclaurin with an
    explicit remainder bound, all in exact rational arithmetic but for one
    factor 65^(alpha-2).  `tail_bound` is a proven half-width of the returned
    float: the two remainders plus the rounding of every float operation
    (the powers k^alpha, the areas, float(alpha), the final correctly rounded
    sum).  It does not depend on `tol`; a bound above `tol` raises
    ValueError rather than return a looser value.  `terms` counts the 64
    region terms and the 12 series terms of the tail.
    """
    alpha = Fraction(alpha)
    if not (0 < alpha < 2):
        raise ValueError("alpha must lie in (0, 2)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    # both the exact tail at alpha = 1 and the closed tail otherwise use the
    # closed form past k = 64: certify it against the polygons first
    for k in range(2, _HEAD + 1):
        if region_area(k) != Fraction(4, k * (k + 1) * (k + 2)):
            raise GeometryError("region area closed form failed certification")

    if alpha.denominator == 1:  # alpha == 1
        value = sum((k * region_area(k) for k in range(1, _HEAD + 1)), Fraction(0))
        value += Fraction(4, _HEAD + 2)  # telescoped tail of 4/((k+1)(k+2))
        return PowerMomentConstant(value, 0.0, _HEAD, True)

    a = float(alpha)
    terms = [k**a * float(region_area(k)) for k in range(1, _HEAD + 1)]
    # a term's relative error: the pow, float(area) and the product, plus
    # float(alpha), off by <= u alpha, which moves k^alpha by <= u alpha ln k
    error = sum(t * (_POW_ERROR + 2 * _UNIT + _UNIT * a * math.log(k))
                for k, t in enumerate(terms, 1))
    x, y = _tail_bracket(alpha)
    exponent = alpha - 2
    scale = 4.0 * (_HEAD + 1.0) ** float(exponent)
    tail = scale * float(x)
    # the pow, float(x) and the product; float(alpha - 2) moves the power by
    # <= u |alpha - 2| ln 65
    error += tail * (_POW_ERROR + 2 * _UNIT + _UNIT * float(-exponent) * math.log(_HEAD + 1))
    error += scale * float(y)
    value = math.fsum(terms + [tail])
    error += _UNIT * value
    # 1% covers the second-order rounding terms and the rounding of the bound
    bound = 1.01 * error
    if bound > tol:
        raise ValueError(
            f"cannot certify B({alpha}) within tol {tol:g}: the double-precision "
            f"evaluation reaches +/- {bound:.3g}"
        )
    return PowerMomentConstant(value, bound, _HEAD + _SERIES_TERMS, False)

"""Exact rational plane geometry on integers.

A convex polygon is held as integer vertex pairs (X, Y) over one common
denominator D > 0, the vertex (X/D, Y/D), with D reduced by the gcd of D and
all coordinates.  Splits, unimodular images and areas run on these integers
alone, so every operation is exact: there are no epsilons and no rounding,
and no `fractions.Fraction` arithmetic on the hot path.  A polygon is a
`(coords, den)` NamedTuple, like every other value type here, in a canonical
form (counterclockwise order, no repeated or collinear vertices, vertex cycle
rotated to start at the lexicographically smallest point), so it is
immutable, has tuple length and iteration, and compares and hashes by its
fields.  The `vertices` view gives the same vertices as `Point2`s of
`Fraction` coordinates, and a reported area is a `Fraction`.

A half-plane split is the only operation that makes new denominators; its
outputs, and constructor input, are the only polygons normalized in full.
An image under an integer map of determinant +1 is canonical up to its start
vertex, and one of determinant -1 up to its order and start vertex, and both
keep the reduced D.

Degenerate intersections (points, segments) normalize to the empty polygon:
only areas matter downstream and those sets carry none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Tuple, Union

RationalLike = Union[int, Fraction]


class GeometryError(ValueError):
    """An exact-geometry invariant was violated."""


def _coerce(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact geometry needs int or Fraction, got {type(value).__name__}")


class Point2(NamedTuple("Point2", [("x", Fraction), ("y", Fraction)])):
    """A point with exact rational coordinates; ints are coerced to Fractions."""

    __slots__ = ()

    def __new__(cls, x: RationalLike, y: RationalLike):
        return super().__new__(cls, _coerce(x), _coerce(y))


PointLike = Union[Point2, Tuple[RationalLike, RationalLike]]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _area2(pts) -> int:
    """Twice the signed area of integer points, over the square of their denominator."""
    total = 0
    x0, y0 = pts[-1]
    for x1, y1 in pts:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return total


def _canonical(pts, den: int):
    """The canonical (points, den) of integer points over den, or ((), 1) if degenerate."""
    dedup: list = []
    for p in pts:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    if len(dedup) < 3:
        return (), 1

    area2 = _area2(dedup)
    if area2 == 0:
        return (), 1
    if area2 < 0:
        dedup.reverse()

    # drop vertices interior to an edge, one at a time until none is left
    while True:
        n = len(dedup)
        if n < 3:
            return (), 1
        turns = [_cross(dedup[i - 1], dedup[i], dedup[i + 1 - n]) for i in range(n)]
        if 0 not in turns:
            break
        del dedup[turns.index(0)]
    if min(turns) < 0:
        raise GeometryError("vertices do not describe a convex polygon")

    g = math.gcd(den, *(c for p in dedup for c in p))
    if g > 1:
        den //= g
        dedup = [(x // g, y // g) for x, y in dedup]
    start = min(range(n), key=dedup.__getitem__)
    return tuple(dedup[start:] + dedup[:start]), den


def _over_common_denominator(raw):
    """Rational points as integer pairs over the lcm of their denominators."""
    pts = [Point2(*p) for p in raw]
    den = math.lcm(*(c.denominator for p in pts for c in (p.x, p.y)))
    return [(p.x.numerator * (den // p.x.denominator), p.y.numerator * (den // p.y.denominator))
            for p in pts], den


class ConvexPolygon(NamedTuple("ConvexPolygon", [("coords", Tuple[Tuple[int, int], ...]),
                                                ("den", int)])):
    """A convex polygon in canonical form; may be empty.

    `coords` holds the integer vertex pairs and `den` their common
    denominator.  Any iterable of points (or coordinate pairs of ints and
    Fractions) is accepted and normalized on construction, so two polygons
    describing the same set compare equal.  Non-convex input raises
    GeometryError; degenerate input becomes empty.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[PointLike] = ()):
        return cls._make(_canonical(*_over_common_denominator(vertices)))

    def __reduce__(self):
        # __new__ takes vertices, not fields
        return ConvexPolygon._make, (tuple(self),)

    def __bool__(self) -> bool:
        return bool(self.coords)

    @property
    def vertices(self) -> Tuple[Point2, ...]:
        """The vertices as exact rational points, in canonical order."""
        den = self.den
        return tuple(Point2(Fraction(x, den), Fraction(y, den)) for x, y in self.coords)


def _polygon(pts, den: int) -> ConvexPolygon:
    """The canonical polygon of integer points over den."""
    return ConvexPolygon._make(_canonical(pts, den))


EMPTY_POLYGON = ConvexPolygon()


class UnimodularMap(NamedTuple("UnimodularMap", [("a", int), ("b", int), ("c", int), ("d", int)])):
    """Integer linear map (x, y) -> (a x + b y, c x + d y) with |ad - bc| = 1.

    Determinant +/-1 means the map preserves area exactly (orientation may
    flip; polygon normalization restores counterclockwise order).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        self = super().__new__(cls, a, b, c, d)
        if not all(isinstance(v, int) for v in self):
            raise TypeError("UnimodularMap entries must be integers")
        if abs(self.determinant) != 1:
            raise GeometryError("determinant must be +1 or -1")
        return self

    @property
    def determinant(self) -> int:
        return self.a * self.d - self.b * self.c


def polygon_area(p: ConvexPolygon) -> Fraction:
    """Exact area by the shoelace formula; empty and degenerate give 0."""
    if not p.coords:
        return Fraction(0)
    return Fraction(_area2(p.coords), 2 * p.den * p.den)


def _split_halfplane_points(pts, den: int, a: int, b: int, c: int):
    """One Sutherland-Hodgman pass on integers.

    For the convex polygon with integer vertices pts over den, and integer
    a, b, c, returns (below, above, den2): the vertex lists of
    {a x + b y <= c} and {a x + b y >= c} inside it, both over den2.  The cut
    vertex on an edge p -> q is (f_p q - f_q p) / (den (f_p - f_q)), where
    f = a X + b Y - c den, so den2 is den times the lcm of the |f_p - f_q|.
    """
    cd = c * den
    f = [a * x + b * y - cd for x, y in pts]
    n = len(pts)
    scale = 1
    for i in range(n):
        fp, fq = f[i - 1], f[i]
        if (fp < 0 < fq) or (fq < 0 < fp):
            scale = math.lcm(scale, abs(fp - fq))
    below = []
    above = []
    for i in range(n):
        px, py = pts[i]
        fp = f[i]
        vertex = (px * scale, py * scale)
        if fp <= 0:
            below.append(vertex)
        if fp >= 0:
            above.append(vertex)
        fq = f[i + 1 - n]
        if (fp < 0 < fq) or (fq < 0 < fp):
            qx, qy = pts[i + 1 - n]
            s = scale // (fp - fq)
            cut = ((fp * qx - fq * px) * s, (fp * qy - fq * py) * s)
            below.append(cut)
            above.append(cut)
    return below, above, den * scale


def clip_convex(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact intersection p . q of two convex polygons (possibly empty)."""
    if not p.coords or not q.coords:
        return EMPTY_POLYGON
    pts, den = list(p.coords), p.den
    qv, e = q.coords, q.den
    n = len(qv)
    for i in range(n):
        ax, ay = qv[i]
        bx, by = qv[(i + 1) % n]
        # left of A->B, with A = (ax, ay)/e:  (by-ay) x + (ax-bx) y <= ((by-ay) ax + (ax-bx) ay)/e
        pts, _, den = _split_halfplane_points(
            pts, den, e * (by - ay), e * (ax - bx), (by - ay) * ax + (ax - bx) * ay
        )
        if not pts:
            return EMPTY_POLYGON
    return _polygon(pts, den)


def apply_map(p: ConvexPolygon, m: UnimodularMap) -> ConvexPolygon:
    """Image of p under the linear map x -> m x; area is preserved.

    The image keeps p's reduced denominator and needs only its start vertex
    (and, for determinant -1, its order) restored.
    """
    if not p.coords:
        return EMPTY_POLYGON
    pts = [(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in p.coords]
    if m.determinant < 0:
        pts.reverse()
    start = min(range(len(pts)), key=pts.__getitem__)
    return ConvexPolygon._make((tuple(pts[start:] + pts[:start]), p.den))

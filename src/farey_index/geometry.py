"""Exact rational plane geometry.

Every coordinate, area and clip result is an arbitrary-precision rational
(`fractions.Fraction`), so all operations here are exact: there are no
epsilons and no rounding anywhere.  Polygons are immutable value objects
normalized to a canonical form (counterclockwise order, collinear vertices
dropped, vertex cycle rotated to start at the lexicographically smallest
point), which makes equality structural and hashing safe.

Degenerate intersections (points, segments) normalize to the empty polygon:
only areas matter downstream and those sets carry none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

RationalLike = Union[int, Fraction]


class GeometryError(ValueError):
    """An exact-geometry invariant was violated."""


def _coerce(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact geometry needs int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Point2:
    """A point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _coerce(self.x))
        object.__setattr__(self, "y", _coerce(self.y))

    def as_tuple(self) -> Tuple[Fraction, Fraction]:
        return (self.x, self.y)


ORIGIN = Point2(0, 0)

PointLike = Union[Point2, Tuple[RationalLike, RationalLike]]


def cross(o: Point2, a: Point2, b: Point2) -> Fraction:
    """Signed cross product (a-o) x (b-o); positive iff o->a->b turns left."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _as_point(p: PointLike) -> Point2:
    if isinstance(p, Point2):
        return p
    x, y = p
    return Point2(_coerce(x), _coerce(y))


def _signed_area2(pts) -> Fraction:
    total = Fraction(0)
    n = len(pts)
    for i in range(n):
        a = pts[i]
        b = pts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _canonical(raw) -> Tuple[Point2, ...]:
    pts = [_as_point(p) for p in raw]

    dedup: list[Point2] = []
    for p in pts:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    if len(dedup) < 3:
        return ()

    area2 = _signed_area2(dedup)
    if area2 == 0:
        return ()
    if area2 < 0:
        dedup.reverse()

    # drop vertices interior to an edge; repeat until stable
    changed = True
    while changed and len(dedup) >= 3:
        changed = False
        n = len(dedup)
        for i in range(n):
            if cross(dedup[i - 1], dedup[i], dedup[(i + 1) % n]) == 0:
                del dedup[i]
                changed = True
                break
    if len(dedup) < 3:
        return ()

    n = len(dedup)
    for i in range(n):
        if cross(dedup[i - 1], dedup[i], dedup[(i + 1) % n]) <= 0:
            raise GeometryError("vertices do not describe a convex polygon")

    start = min(range(n), key=lambda i: dedup[i].as_tuple())
    return tuple(dedup[start:] + dedup[:start])


@dataclass(frozen=True)
class ConvexPolygon:
    """A convex polygon in canonical form; may be empty.

    Any iterable of points (or coordinate pairs) is accepted and normalized on
    construction, so two polygons describing the same set compare equal.
    Non-convex input raises GeometryError; degenerate input becomes empty.
    """

    vertices: Tuple[Point2, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", _canonical(self.vertices))

    def __bool__(self) -> bool:
        return bool(self.vertices)


EMPTY_POLYGON = ConvexPolygon()


@dataclass(frozen=True)
class UnimodularMap:
    """Integer linear map (x, y) -> (a x + b y, c x + d y) with |ad - bc| = 1.

    Determinant +/-1 means the map preserves area exactly (orientation may
    flip; polygon normalization restores counterclockwise order).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, int):
                raise TypeError("UnimodularMap entries must be integers")
        if abs(self.determinant) != 1:
            raise GeometryError("determinant must be +1 or -1")

    @property
    def determinant(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Point2) -> Point2:
        return Point2(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def inverse(self) -> "UnimodularMap":
        det = self.determinant
        if det == 1:
            return UnimodularMap(self.d, -self.b, -self.c, self.a)
        return UnimodularMap(-self.d, self.b, self.c, -self.a)


def polygon_area(p: ConvexPolygon) -> Fraction:
    """Exact area by the shoelace formula; empty and degenerate give 0."""
    if not p.vertices:
        return Fraction(0)
    return _signed_area2(p.vertices) / 2


def _bbox(p: ConvexPolygon):
    xs = [v.x for v in p.vertices]
    ys = [v.y for v in p.vertices]
    return min(xs), min(ys), max(xs), max(ys)


def _bboxes_cannot_overlap(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    px0, py0, px1, py1 = _bbox(p)
    qx0, qy0, qx1, qy1 = _bbox(q)
    # touching boxes can only share a degenerate slice, which normalizes empty
    return px1 <= qx0 or qx1 <= px0 or py1 <= qy0 or qy1 <= py0


def _split_halfplane_points(pts, a, b, c):
    """One Sutherland-Hodgman pass: the vertex lists of {a x + b y <= c} and
    {a x + b y >= c} inside the convex polygon with vertices pts."""
    below = []
    above = []
    n = len(pts)
    for i in range(n):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % n]
        fp = a * px + b * py - c
        fq = a * qx + b * qy - c
        if fp <= 0:
            below.append((px, py))
        if fp >= 0:
            above.append((px, py))
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            cut = (px + t * (qx - px), py + t * (qy - py))
            below.append(cut)
            above.append(cut)
    return below, above


def clip_convex(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact intersection p . q of two convex polygons (possibly empty)."""
    if not p.vertices or not q.vertices:
        return EMPTY_POLYGON
    if _bboxes_cannot_overlap(p, q):
        return EMPTY_POLYGON
    pts = [v.as_tuple() for v in p.vertices]
    qv = q.vertices
    n = len(qv)
    for i in range(n):
        A = qv[i]
        B = qv[(i + 1) % n]
        # left of A->B  <=>  (B.y-A.y) x + (A.x-B.x) y <= (B.y-A.y) A.x + (A.x-B.x) A.y
        a = B.y - A.y
        b = A.x - B.x
        c = a * A.x + b * A.y
        pts = _split_halfplane_points(pts, a, b, c)[0]
        if not pts:
            return EMPTY_POLYGON
    return ConvexPolygon(tuple(pts))


def half_plane_clip(
    p: ConvexPolygon,
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    closed: bool = True,
) -> ConvexPolygon:
    """Clip p against {a x + b y <= c} (closed) or {a x + b y < c} (open).

    Polygons are closed sets, so the open variant returns the closure of the
    open intersection: identical to the closed clip when p reaches strictly
    inside the half plane, empty otherwise.
    """
    a = _coerce(a)
    b = _coerce(b)
    c = _coerce(c)
    if a == 0 and b == 0:
        raise GeometryError("half plane normal must be nonzero")
    if not p.vertices:
        return EMPTY_POLYGON
    result = ConvexPolygon(tuple(_split_halfplane_points([v.as_tuple() for v in p.vertices], a, b, c)[0]))
    if closed:
        return result
    if any(a * v.x + b * v.y < c for v in p.vertices):
        return result
    return EMPTY_POLYGON


def apply_map(p: ConvexPolygon, m: UnimodularMap, translation: Point2 = ORIGIN) -> ConvexPolygon:
    """Image of p under the affine map x -> m x + translation; area is preserved."""
    pts = [
        (m.a * v.x + m.b * v.y + translation.x, m.c * v.x + m.d * v.y + translation.y)
        for v in p.vertices
    ]
    return ConvexPolygon(tuple(pts))


def contains_point(p: ConvexPolygon, pt: PointLike) -> bool:
    """Exact closed-polygon membership test."""
    if not p.vertices:
        return False
    pt = _as_point(pt)
    n = len(p.vertices)
    for i in range(n):
        if cross(p.vertices[i], p.vertices[(i + 1) % n], pt) < 0:
            return False
    return True

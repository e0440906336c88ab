"""Exactness and algebra of the rational geometry layer."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from farey_index import (
    ConvexPolygon,
    EMPTY_POLYGON,
    FAREY_TRIANGLE,
    GeometryError,
    OrbitState,
    Point2,
    PolygonSet,
    PowerMomentConstant,
    StatRecord,
    UnimodularMap,
    apply_map,
    clip_convex,
    polygon_area,
)
from farey_index.bcz import mirror_polygon, region_polygon, region_star_polygon

from conftest import contains_point, cross, hull, shoelace2

UNIT_SQUARE = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


def rect(x0, y0, x1, y1):
    return ConvexPolygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def test_polygon_area_examples():
    assert polygon_area(ConvexPolygon(((0, 0), (1, 0), (0, 1)))) == Fraction(1, 2)
    assert polygon_area(EMPTY_POLYGON) == 0
    tri = ConvexPolygon(((0, 1), (1, 1), (Fraction(1, 3), Fraction(2, 3))))
    assert polygon_area(tri) == Fraction(1, 6)


def test_polygon_area_matches_integer_shoelace_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        pts = [(rng.randrange(-8, 9), rng.randrange(-8, 9)) for _ in range(rng.randrange(3, 9))]
        h = hull(pts)
        if len(h) < 3:
            continue
        assert polygon_area(ConvexPolygon(tuple(h))) == Fraction(abs(shoelace2(h)), 2)


def test_degenerate_inputs_normalize_to_empty():
    assert not ConvexPolygon(((0, 0), (1, 1), (2, 2)))          # collinear
    assert not ConvexPolygon(((0, 0), (1, 0)))                  # segment
    assert not ConvexPolygon(((3, 3), (3, 3), (3, 3)))          # point
    with pytest.raises(GeometryError):
        ConvexPolygon(((0, 0), (2, 0), (2, 2), (1, 1), (0, 2)))  # reflex vertex


def test_canonical_form_is_rotation_invariant():
    a = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    b = ConvexPolygon(((1, 1), (0, 1), (0, 0), (1, 0)))
    c = ConvexPolygon(((0, 1), (0, 0), (Fraction(1, 2), 0), (1, 0), (1, 1)))  # collinear extra
    assert a == b == c
    assert a.vertices[0] == Point2(0, 0)


def test_clip_idempotent_and_disjoint():
    for poly in (UNIT_SQUARE, region_polygon(3), region_star_polygon(4)):
        assert clip_convex(poly, poly) == poly
    shifted = rect(2, 0, 3, 1)
    assert clip_convex(UNIT_SQUARE, shifted) == EMPTY_POLYGON
    touching = rect(1, 0, 2, 1)  # shares only an edge: degenerate, hence empty
    assert clip_convex(UNIT_SQUARE, touching) == EMPTY_POLYGON


def test_clip_star_mirror_area_third():
    # intersection of the full triangle with the one-step image of star region 2
    image = mirror_polygon(region_star_polygon(2))
    assert polygon_area(clip_convex(region_star_polygon(1), image)) == Fraction(1, 3)


def _random_convex(rng, span=7):
    while True:
        pts = [(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
               for _ in range(rng.randrange(3, 8))]
        h = hull(pts)
        if len(h) >= 3:
            return ConvexPolygon(tuple(h))


def test_clip_commutative_and_bounded():
    rng = random.Random(99)
    for _ in range(150):
        p = _random_convex(rng)
        q = _random_convex(rng)
        pq = clip_convex(p, q)
        qp = clip_convex(q, p)
        assert pq == qp
        assert polygon_area(pq) <= min(polygon_area(p), polygon_area(q))


def test_clip_membership_consistency():
    rng = random.Random(7)
    for _ in range(60):
        p = _random_convex(rng)
        q = _random_convex(rng)
        pq = clip_convex(p, q)
        for _ in range(40):
            pt = (Fraction(rng.randrange(-14, 15), 2), Fraction(rng.randrange(-14, 15), 2))
            inside_both = contains_point(p, pt) and contains_point(q, pt)
            if contains_point(pq, pt):
                assert inside_both
            elif inside_both:
                # boundary-only intersections are normalized away; accept only
                # points that fail to be interior to the clip
                assert polygon_area(pq) == 0 or not _strictly_inside(pq, pt)


def _strictly_inside(poly, pt):
    pt = Point2(*pt)
    verts = poly.vertices
    n = len(verts)
    return all(cross(verts[i], verts[(i + 1) % n], pt) > 0 for i in range(n))


def test_inclusion_exclusion_on_rectangles():
    rng = random.Random(42)
    for _ in range(100):
        x0, x1 = sorted(rng.sample(range(-6, 7), 2))
        y0, y1 = sorted(rng.sample(range(-6, 7), 2))
        u0, u1 = sorted(rng.sample(range(-6, 7), 2))
        v0, v1 = sorted(rng.sample(range(-6, 7), 2))
        p = rect(x0, y0, x1, y1)
        q = rect(u0, v0, u1, v1)
        inter = polygon_area(clip_convex(p, q))
        # union area via the rectangle overlap formula
        ox = max(0, min(x1, u1) - max(x0, u0))
        oy = max(0, min(y1, v1) - max(y0, v0))
        assert inter == ox * oy
        union = polygon_area(p) + polygon_area(q) - inter
        assert polygon_area(p) + polygon_area(q) == inter + union


def test_half_plane_clip_examples():
    # each half plane is stood in for by a polygon whose only edge that meets
    # the clipped polygon lies on the bounding line; here x <= 1/2
    half = clip_convex(UNIT_SQUARE, rect(-5, -5, Fraction(1, 2), 5))
    assert polygon_area(half) == Fraction(1, 2)

    # triangle clipped below the region-1 boundary leaves the star-2 triangle
    triangle = region_star_polygon(1)
    # -x + 2y <= 1, i.e. y <= (1+x)/2
    below = clip_convex(triangle, ConvexPolygon(((-5, -5), (5, -5), (5, 3), (-5, -2))))
    assert polygon_area(below) == Fraction(1, 3)
    assert below == region_star_polygon(2)

    # half plane containing the polygon is a no-op: x + y <= 10
    assert clip_convex(UNIT_SQUARE, ConvexPolygon(((-5, -5), (15, -5), (-5, 15)))) == UNIT_SQUARE


def test_apply_map_examples():
    identity = UnimodularMap(1, 0, 0, 1)
    for poly in (UNIT_SQUARE, region_polygon(2)):
        assert apply_map(poly, identity) == poly

    shear = UnimodularMap(0, 1, -1, 2)  # (x, y) -> (y, 2y - x)
    image = apply_map(region_polygon(2), shear)
    assert polygon_area(image) == polygon_area(region_polygon(2))

    swap = UnimodularMap(0, 1, 1, 0)
    mirrored = apply_map(region_polygon(1), swap)
    assert polygon_area(mirrored) == Fraction(1, 6)
    assert mirrored == ConvexPolygon(((1, 0), (1, 1), (Fraction(2, 3), Fraction(1, 3))))


def test_apply_map_with_translation_and_area_preservation():
    rng = random.Random(5)
    maps = [UnimodularMap(1, 1, 0, 1), UnimodularMap(2, 1, 1, 1), UnimodularMap(0, 1, 1, 0)]
    for _ in range(60):
        p = _random_convex(rng)
        m = rng.choice(maps)
        assert polygon_area(apply_map(p, m)) == polygon_area(p)


def test_unimodular_map_rejects_bad_determinant():
    with pytest.raises(GeometryError):
        UnimodularMap(1, 0, 0, 2)
    with pytest.raises(GeometryError):
        UnimodularMap(2, 1, 2, 1)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Point2(1, Fraction(1, 2)), "x"),
        (lambda: ConvexPolygon(((0, 1), (1, 0), (1, Fraction(1, 2)))), "coords"),
        (lambda: UnimodularMap(0, 1, -1, 2), "d"),
        (lambda: OrbitState((Fraction(1), Fraction(1, 2)), (3,)), "kappas"),
        (lambda: PolygonSet((FAREY_TRIANGLE, EMPTY_POLYGON)), "pieces"),
        (lambda: PowerMomentConstant(Fraction(3, 2), 0.0, 1, True), "value"),
        (lambda: StatRecord(10, "L", "k=1", 3, Fraction(0), math.nan, "k"), "ratio"),
    ],
)
def test_value_objects_compare_hash_and_pickle_by_field(make, field):
    # equal fields give equal, equally hashed values, a NaN ratio included;
    # a field cannot be reassigned, and a pickled copy keeps type and fields
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    assert repr(a).startswith(f"{type(a).__name__}(") and f"{field}=" in repr(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and repr(copy) == repr(a)


def test_value_objects_validate_on_construction():
    assert Point2(1, 2) == Point2(Fraction(1), Fraction(2))
    assert type(Point2(1, 2).x) is Fraction
    with pytest.raises(TypeError):
        Point2(0.5, 1)
    with pytest.raises(TypeError):
        ConvexPolygon(((0.5, 0), (1, 0), (1, 1)))
    with pytest.raises(TypeError):
        UnimodularMap(1.0, 0, 0, 1)
    assert PolygonSet((EMPTY_POLYGON, FAREY_TRIANGLE, EMPTY_POLYGON)).pieces == (FAREY_TRIANGLE,)
    assert PolygonSet().pieces == ()

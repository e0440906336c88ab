"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package internals: Farey
sequences come from sorting all reduced fractions, index values from the
neighbor-sum quotient, N(Q) from a phi sieve, coprime lattice points from a
scan of the bounding box, convex hulls from a monotone chain over integer
points.  The exceptions walk with the package's recurrence: `index_sequence`
(the index stream over one whole period), `interval_walk` (a walk from
`seek` that carries numerators), `full_period_sums`, which sums over the
whole period, the route the walk statistics replaced by the mirror
identities, and `brute_lu_counts`, the per-element threshold test that the
index-value counts replaced.  `per_denominator_lattice_counts` counts the
index histogram one denominator at a time over its own mu sieve, the route
the sums over Moebius runs replaced.
Areas of unions of polygons come from clipping every pair of pieces with the
public `clip_convex`, never from the region profiles that
`star_intersection_area` reads.  The region sweep is redone in `Fraction`
arithmetic, with hulls for normal forms, as a reference for the integer
polygon kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from farey_index import (
    Point2,
    farey,
    PolygonSet,
    clip_convex,
    polygon_area,
    push_forward,
    region_star_polygon,
)
from farey_index.bcz import mirror_polygon, mirror_set


def brute_farey(q_max):
    """All reduced fractions in (0, 1] with denominator <= q_max, ascending."""
    seen = set()
    for q in range(1, q_max + 1):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                seen.add(Fraction(a, q))
    return sorted(seen)


def brute_totient_summatory(q_max):
    """N(Q) = sum of Euler phi(j) for j <= Q, by an Eratosthenes phi sieve."""
    phi = list(range(q_max + 1))
    for p in range(2, q_max + 1):
        if phi[p] == p:  # p prime
            for multiple in range(p, q_max + 1, p):
                phi[multiple] -= phi[multiple] // p
    return sum(phi[1:])


def farey_rank(order, t):
    """#{gamma in F_Q : gamma <= t}, from the package's rank of one cut."""
    return farey.farey_ranks(order, (t,))[0]


def index_sequence(q_max):
    """The indices of all N(Q) elements of F_Q, in order, from the package's stream."""
    steps = brute_totient_summatory(q_max)
    return [k for block in farey.index_blocks(q_max, 1, q_max, steps) for k in block]


def interval_walk(order, t0, t1):
    """Yield (numerator, denominator, index) for each gamma in (t0, t1] of F_Q.

    Starts from the pair `farey.seek` finds at t0 and steps the recurrence on
    numerators and denominators both.
    """
    t0 = Fraction(t0)
    t1 = Fraction(t1)
    if not (0 <= t0 <= t1 <= 1):
        raise ValueError("need 0 <= t0 <= t1 <= 1")
    pn, pd, cn, cd = farey.seek(order, t0)
    n1, d1 = t1.numerator, t1.denominator
    while cn * d1 <= n1 * cd:
        k = (order + pd) // cd
        yield cn, cd, k
        pn, pd, cn, cd = cn, cd, k * cn - pn, k * cd - pd


def brute_indices(q_max):
    """(fractions, denominators, indices) of F_Q by the neighbor-sum quotient."""
    fr = brute_farey(q_max)
    dens = [f.denominator for f in fr]
    n = len(fr)
    out = []
    for i in range(n):
        before = dens[i - 1] if i else 1            # predecessor of 1/Q is 0/1
        after = dens[i + 1] if i + 1 < n else dens[0]  # successor of 1/1 is 1 + 1/Q
        assert (before + after) % dens[i] == 0
        out.append((before + after) // dens[i])
    return fr, dens, out


def brute_autocorr(q_max, lags, ts):
    """S_{h,t}: sum of nu_i * nu_{i+h mod N} over gamma_i <= t, rows per lag, columns per t."""
    fr, _, nus = brute_indices(q_max)
    n = len(nus)
    return [
        [sum(nus[i] * nus[(i + h) % n] for i in range(n) if fr[i] <= t) for t in ts]
        for h in lags
    ]


def brute_lu(q_max, ks, ts):
    """(L, U) per k (rows) and t (columns): nu = k = floor((2Q+1)/q) - 1 resp. - 0, gamma <= t."""
    fr, dens, nus = brute_indices(q_max)
    top = 2 * q_max + 1
    rows = []
    for k in ks:
        row = []
        for t in ts:
            inside = [i for i in range(len(nus)) if fr[i] <= t and nus[i] == k]
            row.append((
                sum(1 for i in inside if k == top // dens[i] - 1),
                sum(1 for i in inside if k == top // dens[i]),
            ))
        rows.append(row)
    return rows


def brute_lu_counts(order, ks, t):
    """(L, U) per k over gamma <= t, testing every element against its threshold.

    Walks the rank(t) elements from 1/Q on denominators, and counts an
    element of index k in L(k) if k = floor((2Q+1)/q) - 1 and in U(k) if
    k = floor((2Q+1)/q).
    """
    top = 2 * order + 1
    low = dict.fromkeys(ks, 0)
    high = dict.fromkeys(ks, 0)
    pd, cd = 1, order
    for _ in range(farey.farey_ranks(order, (t,))[0]):
        k = (order + pd) // cd
        if k in low:
            v = top // cd
            if k == v - 1:
                low[k] += 1
            elif k == v:
                high[k] += 1
        pd, cd = cd, k * cd - pd
    return [(low[k], high[k]) for k in ks]


def brute_moebius(n):
    """mu(0..n) by an Eratosthenes sieve (mu[0] is unused)."""
    mu = [1] * (n + 1)
    prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if prime[p]:
            for m in range(p, n + 1, p):
                prime[m] = m == p
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def per_denominator_lattice_counts(q_max):
    """(index histogram, count of index floor(2Q/q) - 1) of F_Q, one denominator q at a time.

    The elements over q are the q' coprime to q in (Q - q, Q], of index
    m_q - 1 for q' <= m_q q - Q - 1 and m_q above, m_q = floor(2Q/q).  Each
    squarefree d adds mu(d) times its multiples in both ranges to every
    q = j d, in O(Q log Q), into two lists indexed by q.
    """
    mu = brute_moebius(q_max)
    low = [0] * (q_max + 1)
    high = [0] * (q_max + 1)
    cut = [0] + [(2 * q_max // q) * q - q_max - 1 for q in range(1, q_max + 1)]
    for d in range(1, q_max + 1):
        if mu[d]:
            top = q_max // d
            # q = j d: floor((Q - q)/d) = top - j, so the low range holds
            # floor(cut/d) - top + j multiples of d and the high one top - floor(cut/d)
            for j, q in enumerate(range(d, q_max + 1, d), 1):
                h = top - cut[q] // d
                high[q] += mu[d] * h
                low[q] += mu[d] * (j - h)
    counts = {}
    for q in range(1, q_max + 1):
        m = 2 * q_max // q
        counts[m - 1] = counts.get(m - 1, 0) + low[q]
        counts[m] = counts.get(m, 0) + high[q]
    return {k: c for k, c in sorted(counts.items()) if c}, sum(low)


def brute_partial(q_max, ts):
    """Sums of the indices over gamma <= t, one per t."""
    fr, _, nus = brute_indices(q_max)
    return [sum(nu for f, nu in zip(fr, nus) if f <= t) for t in ts]


def full_period_sums(q_max, lags, ks, ts):
    """S_{h,t}, (L, U) and the partial index sums (rows per lag or k, columns per t).

    Each is a cyclic sum over `index_sequence`, the walk of all of F_Q,
    with the elements gamma <= t read off the sorted fractions.
    """
    nus = index_sequence(q_max)
    fr = brute_farey(q_max)
    n = len(nus)
    top = 2 * q_max + 1
    inside = {t: [i for i in range(n) if fr[i] <= t] for t in ts}
    autocorr = [[sum(nus[i] * nus[(i + h) % n] for i in inside[t]) for t in ts] for h in lags]
    lu = [
        [(sum(1 for i in inside[t] if nus[i] == k == top // fr[i].denominator - 1),
          sum(1 for i in inside[t] if nus[i] == k == top // fr[i].denominator)) for t in ts]
        for k in ks
    ]
    partial = [sum(nus[i] for i in inside[t]) for t in ts]
    return autocorr, lu, partial


def brute_visible_count(p, scale):
    """Coprime integer pairs inside the closed polygon scale * p, by scanning its bounding box.

    Every integer point of the box is tested against each edge, cleared of
    denominators, and kept if its coordinates are coprime.  O(scale^2).
    """
    if not p.vertices:
        return 0
    verts = [(v.x * scale, v.y * scale) for v in p.vertices]
    n = len(verts)
    edges = []
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        # inside <=> (bx-ax)(y-ay) - (by-ay)(x-ax) >= 0, cleared of denominators
        a = -(by - ay)
        b = bx - ax
        c = a * ax + b * ay
        den = math.lcm(a.denominator, b.denominator, c.denominator)
        edges.append((int(a * den), int(b * den), int(c * den)))
    x_lo = math.ceil(min(v[0] for v in verts))
    x_hi = math.floor(max(v[0] for v in verts))
    y_lo = math.ceil(min(v[1] for v in verts))
    y_hi = math.floor(max(v[1] for v in verts))
    count = 0
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            if math.gcd(x, y) != 1:
                continue
            if all(a * x + b * y >= c for a, b, c in edges):
                count += 1
    return count


def cross(o, a, b):
    """Signed cross product (a-o) x (b-o) of Point2s; positive iff o->a->b turns left."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def contains_point(p, pt):
    """Exact closed-polygon membership of a Point2 or coordinate pair."""
    if not p:
        return False
    pt = pt if isinstance(pt, Point2) else Point2(*pt)
    verts = p.vertices
    n = len(verts)
    return all(cross(verts[i], verts[(i + 1) % n], pt) >= 0 for i in range(n))


def cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points):
    """Convex hull, counterclockwise without collinear points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def shoelace2(points):
    """Twice the signed area of a polygon given as coordinate tuples."""
    total = 0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def fraction_split_halfplane(pts, a, b, c):
    """One Sutherland-Hodgman pass on Fraction coordinate pairs: the vertex
    lists of {a x + b y <= c} and {a x + b y >= c} inside the convex polygon
    with vertices pts, each cut vertex interpolated along its edge."""
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
            t = Fraction(fp) / (fp - fq)
            cut = (px + t * (qx - px), py + t * (qy - py))
            below.append(cut)
            above.append(cut)
    return below, above


def fraction_region_parts(pts):
    """The region sweep of a convex piece of the triangle, on Fraction pairs.

    Cuts the piece along 1 + x = (k+1) y for k upward from its smallest
    branch index, as `bcz._region_parts` does, but with Fraction arithmetic,
    hulls for normal forms and the star triangles from their closed form.
    Returns [(k, hull of the part)] and the 1-tuple of the absorbed star index,
    or () when the parts cover the piece.
    """
    k = min((1 + x) // y for x, y in pts if y)
    parts = []
    rest = pts
    while k < 1024:
        below, above = fraction_split_halfplane(rest, 1, -(k + 1), -1)
        part = hull(below)
        parts.append((k, part if len(part) >= 3 else []))
        rest = hull(above)
        if len(rest) < 3:
            return parts, ()
        j = k + 1
        if rest == hull([(Fraction(j - 1, j + 1), Fraction(2, j + 1)), (1, Fraction(2, j)), (1, 0)]):
            return parts, (j,)
        k += 1
    raise AssertionError("region sweep did not terminate")


def _pieces(s):
    return s.pieces if isinstance(s, PolygonSet) else (s,)


def set_polygon_intersection_area(s, poly):
    """Area of a polygon set (or polygon) inside one convex polygon."""
    return sum((polygon_area(clip_convex(p, poly)) for p in _pieces(s)), Fraction(0))


def set_intersection_area(s1, s2):
    """Area of the intersection of two polygon sets, one clip per pair of pieces."""
    return sum(
        (polygon_area(clip_convex(p, q)) for p in _pieces(s1) for q in _pieces(s2)), Fraction(0)
    )


def symmetric_difference_area(s1, s2):
    """Area of the symmetric difference; 0 iff the two unions agree as sets."""
    area = PolygonSet(_pieces(s1)).area + PolygonSet(_pieces(s2)).area
    return area - 2 * set_intersection_area(s1, s2)


@lru_cache(maxsize=None)
def _mirrored_star_pushed(m, steps):
    """T^(steps+1) star_m as a polygon set: the free mirror, then push_forward."""
    return push_forward(PolygonSet((mirror_polygon(region_star_polygon(m)),)), steps)


def split_route_intersection_area(h, m, n):
    """area((T^h star_m) . star_n) as T^f star_m . T^(f-h) star_n, f = (h+2)//2.

    Each side is pushed about h/2 steps and every pair of pieces is clipped.
    """
    fwd = (h + 2) // 2
    left = _mirrored_star_pushed(m, fwd - 1)
    # T^(f-h) star_n = S T^(h-f) S star_n, and S star_n = T star_n
    right = mirror_set(_mirrored_star_pushed(n, h - fwd)) if h > fwd else region_star_polygon(n)
    return set_intersection_area(left, right)


@pytest.fixture(scope="session")
def autocorr_ratios():
    """S_h(Q) / (A(h) N(Q)) for h in {1, 2} across the convergence ladder."""
    from farey_index import autocorr_sum, autocorrelation_constant, totient_summatory

    data = {}
    for h in (1, 2):
        limit = float(autocorrelation_constant(h))
        for q in (500, 1000, 2000, 4000):
            data[h, q] = autocorr_sum(q, h) / (limit * totient_summatory(q))
    return data

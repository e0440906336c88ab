"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them) and
asserts the criterion exactly as stated, including the runtime budget.
"""

import math
import time
from fractions import Fraction

import pytest

from farey_index import (
    ConvexPolygon,
    FAREY_TRIANGLE,
    Point2,
    PolygonSet,
    autocorr_sum,
    autocorr_sum_interval,
    autocorrelation_constant,
    b_alpha,
    hall_shiu_identity,
    intersection_area_table,
    lower_frequency,
    lu_counts,
    orbit,
    polygon_area,
    push_forward,
    region_polygon,
    region_star_polygon,
    star_intersection_area,
    sum_index,
    sum_index_power,
    totient_summatory,
    upper_frequency,
    upper_lower_triangles,
)
from farey_index.bcz import mirror_polygon, star_area
from farey_index.stats import second_moment_prediction

from conftest import brute_indices, symmetric_difference_area

F = Fraction


def report(number, name, started, detail=""):
    elapsed = time.monotonic() - started
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s){suffix}")


def test_criterion_01_exact_autocorrelation_constants():
    start = time.monotonic()
    a1 = autocorrelation_constant(1)
    a2 = autocorrelation_constant(2)
    assert a1 == F(192, 35)
    assert a2 == F(796727, 90090)
    assert time.monotonic() - start < 10
    report(1, "exact constants", start, f"A(1)={a1}, A(2)={a2}")


def test_criterion_02_exact_tables():
    start = time.monotonic()
    expected_h1 = {
        (1, 1): "1/2", (1, 2): "1/3", (1, 3): "1/6", (1, 4): "1/10",
        (2, 1): "1/3", (2, 2): "1/6", (2, 3): "1/30", (2, 4): "1/210",
        (3, 1): "1/6", (3, 2): "1/30", (3, 3): "0", (3, 4): "0",
        (4, 1): "1/10", (4, 2): "1/210", (4, 3): "0", (4, 4): "0",
    }
    table = intersection_area_table(1, 4)
    for (m, n), want in expected_h1.items():
        assert table[m - 1][n - 1] == F(want), (1, m, n)
    for m in (5, 10, 20, 50, 100):
        assert star_intersection_area(1, m, 1) == F(2, m * (m + 1))
        assert star_intersection_area(1, 1, m) == F(2, m * (m + 1))
        assert star_intersection_area(1, m, 2) == 0

    expected_h2 = [
        ["1/2", "1/3", "1/6", "1/10", "1/15", "1/21", "1/28", "1/36"],
        ["1/3", "23/84", "31/210", "2/21", "1/15", "1/21", "1/28", "1/36"],
        ["1/6", "31/210", "1/10", "13/210", "1/30", "1/70", "1/220", "1/1170"],
        ["1/10", "2/21", "13/210", "1/42", "1/231", "0", "0", "0"],
        ["1/15", "1/15", "1/30", "1/231", "0", "0", "0", "0"],
        ["1/21", "1/21", "1/70", "0", "0", "0", "0", "0"],
        ["1/28", "1/28", "1/220", "0", "0", "0", "0", "0"],
        ["1/36", "1/36", "1/1170", "0", "0", "0", "0", "0"],
    ]
    table2 = intersection_area_table(2, 8)
    for m in range(8):
        for n in range(8):
            assert table2[m][n] == F(expected_h2[m][n]), (2, m + 1, n + 1)
    for m in (9, 12, 25, 60, 100):
        assert star_intersection_area(2, m, 1) == F(2, m * (m + 1))
        assert star_intersection_area(2, m, 2) == F(2, m * (m + 1))
        assert star_intersection_area(2, m, 3) == 0
    assert time.monotonic() - start < 30
    report(2, "exact tables", start, "tables for both exponents, bit-exact")


def test_criterion_03_closed_form_identities():
    start = time.monotonic()
    for q in range(1, 301):
        assert sum_index(q) == 3 * totient_summatory(q) - 1, q
    for q in range(2, 201):
        lhs, rhs = hall_shiu_identity(q)
        assert lhs == rhs, q
    assert time.monotonic() - start < 60
    report(3, "closed-form identities", start, "index sum Q<=300, count identity Q<=200")


def test_criterion_04_b_constants_and_frequencies():
    start = time.monotonic()
    one = b_alpha(1)
    assert one.exact and one.value == F(3, 2)
    partial = sum((polygon_area(region_polygon(k)) for k in range(1, 101)), F(0))
    assert partial + star_area(101) == F(1, 2)
    for k in range(1, 51):
        upper, lower = upper_lower_triangles(k)
        assert lower_frequency(k) == 2 * polygon_area(lower)
        assert upper_frequency(k) == 2 * polygon_area(upper)
        assert lower_frequency(k) == 4 * (F(1, (k + 1) ** 2) - F(1, k + 1) + F(1, k + 2))
        if k == 1:
            assert upper_frequency(k) == 0
        else:
            assert upper_frequency(k) == 4 * (F(1, k) - F(1, k + 1) - F(1, (k + 1) ** 2))
    assert time.monotonic() - start < 5
    report(4, "B constants and frequencies", start, "B(1)=3/2 exact, partitions, l/u closed forms")


@pytest.fixture(scope="module")
def desk_scale():
    started = time.monotonic()
    values = {}
    for q in (2000, 4000):
        values["N", q] = totient_summatory(q)
        for h in (1, 2):
            values["S", h, q] = autocorr_sum(q, h)
    values["elapsed"] = time.monotonic() - started
    return values


def test_criterion_05_autocorrelation_at_desk_scale(desk_scale):
    start = time.monotonic()
    tolerances = {2000: 0.02, 4000: 0.01}
    devs = []
    for q, tol in tolerances.items():
        n = desk_scale["N", q]
        for h in (1, 2):
            limit = float(autocorrelation_constant(h))
            dev = abs(desk_scale["S", h, q] / (limit * n) - 1)
            assert dev <= tol, (h, q, dev)
            devs.append(dev)
    total = desk_scale["elapsed"] + (time.monotonic() - start)
    assert total < 120
    print(
        f"ACCEPTANCE 05 autocorrelation sums: PASS ({total:.2f}s)"
        f" -- max deviation {max(devs):.2e}"
    )


def test_criterion_06_interval_autocorrelation():
    start = time.monotonic()
    q = 2000
    n = totient_summatory(q)
    a1 = float(autocorrelation_constant(1))
    devs = []
    for t in (F(1, 4), F(1, 3), F(1, 2), F(2, 3)):
        s = autocorr_sum_interval(q, 1, t)
        dev = abs(s / (float(t) * a1 * n) - 1)
        assert dev <= 0.03, (t, dev)
        devs.append(dev)
    assert time.monotonic() - start < 120
    report(6, "interval autocorrelation", start, f"max deviation {max(devs):.2e}")


def test_criterion_07_power_moments():
    start = time.monotonic()
    q = 3000
    n = totient_summatory(q)
    devs = []
    for alpha in (F(1, 2), F(1), F(3, 2)):
        constant = b_alpha(alpha, tol=1e-9)
        total = sum_index_power(q, alpha)
        dev = abs(float(total) / (2 * n * float(constant.value)) - 1)
        assert dev <= 0.02, (alpha, dev)
        devs.append(dev)
    squares = sum_index_power(q, 2)
    dev = abs(squares / second_moment_prediction(q) - 1)
    assert dev <= 0.02
    devs.append(dev)
    assert time.monotonic() - start < 120
    report(7, "power moments", start, f"max deviation {max(devs):.2e}")


def test_criterion_08_threshold_counts():
    start = time.monotonic()
    q = 2000
    n = totient_summatory(q)
    devs = []
    for k in (1, 2, 3, 5):
        low, high = lu_counts(q, k)
        dev_low = abs(low / (float(lower_frequency(k)) * n) - 1)
        assert dev_low <= 0.05, (k, dev_low)
        devs.append(dev_low)
        if k >= 2:
            dev_high = abs(high / (float(upper_frequency(k)) * n) - 1)
            assert dev_high <= 0.05, (k, dev_high)
            devs.append(dev_high)
    for q_small in (1, 7, 50, 300, 2000):
        assert lu_counts(q_small, 1)[1] == 0
    assert time.monotonic() - start < 120
    report(8, "threshold counts", start, f"max deviation {max(devs):.2e}")


def test_criterion_09_property_suite():
    start = time.monotonic()
    # area preservation to depth 4
    for k in range(1, 51):
        target = polygon_area(region_polygon(k))
        current = PolygonSet((region_polygon(k),))
        for _ in range(4):
            current = push_forward(current, 1)
            assert current.area == target
    # mirror identity and inverse identity
    for k in range(1, 51):
        pushed = push_forward(region_polygon(k), 1)
        mirrored = PolygonSet((mirror_polygon(region_polygon(k)),))
        assert symmetric_difference_area(pushed, mirrored) == 0
        back = push_forward(pushed, -1)
        assert symmetric_difference_area(back, PolygonSet((region_polygon(k),))) == 0
    # table symmetry
    for h in (1, 2, 3):
        size = 4 * h + 4
        table = intersection_area_table(h, size)
        for m in range(size):
            for n in range(m + 1, size):
                assert table[m][n] == table[n][m], (h, m + 1, n + 1)
    # emptiness bounds, coarse and sharp
    for h in (1, 2):
        c = 2 ** (h + 1)
        for m, n in ((c + 1, c + 1), (c + 1, c + 3), (c + 3, c + 1)):
            assert star_intersection_area(h, m, n) == 0
    for h in (1, 2, 3):
        assert star_intersection_area(h, 4 * h + 2, 3) == 0
    # orbit consistency with Farey denominators
    for q in range(2, 51):
        _, dens, nus = brute_indices(q)
        ext = [1] + dens + dens
        for i in range(1, len(dens) + 1, 3):
            state = orbit(Point2(F(ext[i - 1], q), F(ext[i], q)), 2)
            for r in range(2):
                assert state.kappas[r] == (q + ext[i + r - 1]) // ext[i + r]
    assert time.monotonic() - start < 60
    report(9, "property suite", start, "push-forwards, symmetry, emptiness, orbits")


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    for q in range(1, 41):
        fr, dens, nus = brute_indices(q)
        n = len(nus)
        top = 2 * q + 1
        for h in (1, 2, 5):
            want = sum(nus[i] * nus[(i + h) % n] for i in range(n))
            assert autocorr_sum(q, h) == want, (q, h)
        for k in (1, 2, 3, 6):
            low = sum(1 for nu, d in zip(nus, dens) if nu == k == top // d - 1)
            high = sum(1 for nu, d in zip(nus, dens) if nu == k == top // d)
            assert lu_counts(q, k) == (low, high), (q, k)
        for t in (F(1, 3), F(1, 2), F(3, 4), F(1)):
            want = sum(nu for f, nu in zip(fr, nus) if f <= t)
            from farey_index import partial_index_sum

            assert partial_index_sum(q, t) == want, (q, t)
    assert time.monotonic() - start < 60
    report(10, "oracle equivalence", start, "walker equals brute force for Q <= 40")

"""The benchmark's tracer can still find every function it wraps; the CLI starts light."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is not in this checkout")
def test_every_traced_name_resolves():
    # the tracer looks each name up with getattr, so a pruned name would
    # break `--trace 1` only when a traced benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"farey_index.{module_name}"), name, None))
    ]
    assert missing == []


def test_cli_start_imports_no_heavy_modules(tmp_path):
    # every command pays for what the CLI imports: `dataclasses` (with
    # `inspect`) and `multiprocessing` cost about 30 ms a process.  The
    # chunked S_h walk forks its workers without `multiprocessing`, and
    # `partial` and `LU` fork none at any --workers, even where two CPUs
    # would allow it.  -S keeps site hooks out of the count
    code = ("import os, sys; os.cpu_count = lambda: 2; forks = []; fork = os.fork; "
            "os.fork = lambda: forks.append(1) or fork(); import farey_index.cli as c; "
            "c.build_parser(); sys.argv[1:] and c.main(sys.argv[1:]); "
            "print(sorted({'dataclasses', 'inspect', 'multiprocessing'} & set(sys.modules)), "
            "len(forks))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = ["--out", str(tmp_path / "rows.csv"), "--workers", "2"]
    for argv, forks in (([], 0),
                        (["converge", "S_h", "--q-list", "60", "--h", "1,2", "--t", "2/5,1", *out], 1),
                        (["converge", "partial", "--q-list", "60", "--t", "2/5,3/5", *out], 0),
                        (["converge", "LU", "--q-list", "60", "--k", "1,2", "--t", "3/5", *out], 0)):
        result = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.strip() == f"[] {forks}", argv


def test_public_surface_is_pinned():
    # a name enters or leaves the package's public surface only with an edit here
    import farey_index

    assert sorted(farey_index.__all__) == [
        "ConvexPolygon", "EMPTY_POLYGON", "FAREY_TRIANGLE", "GeometryError", "OrbitState",
        "Point2", "PolygonSet", "PowerMomentConstant", "StatRecord", "TailCertificateError",
        "UnimodularMap", "apply_map", "autocorr_records", "autocorr_sum",
        "autocorr_sum_interval", "autocorr_sums", "autocorrelation_constant", "b_alpha", "bcz",
        "bcz_apply", "clip_convex", "farey", "geometry", "hall_shiu_identity",
        "intersection_area_table", "lower_frequency",
        "lu_count_table", "lu_counts", "lu_table_records", "moment_records", "orbit",
        "partial_index_sum", "partial_index_sums", "partial_records", "polygon_area",
        "push_forward", "region_polygon", "region_star_polygon", "seek",
        "star_intersection_area", "stats", "sum_index", "sum_index_power", "totient_summatory",
        "upper_frequency", "upper_lower_triangles", "visible_points_count",
    ]

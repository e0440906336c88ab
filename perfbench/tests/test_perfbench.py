"""Tests of the benchmark itself: inputs, oracles, checks, span arithmetic, smoke mode.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import tracer
import workloads


def test_inputs_are_a_function_of_the_seed():
    assert workloads.make_inputs("enumerate", 3) == workloads.make_inputs("enumerate", 3)
    assert workloads.make_inputs("enumerate", 3) == workloads.make_inputs("enumerate-pool", 3)
    assert workloads.make_inputs("geometry", 3) != workloads.make_inputs("geometry", 4)
    for seed in range(50):
        inputs = workloads.make_inputs("geometry", seed)
        assert all(0 < a <= Fraction(3, 2) for a in inputs["alphas"])
        enum = workloads.make_inputs("enumerate", seed)
        assert 2995 <= enum["q"] <= 3005 and max(enum["k"]) <= 5
        assert sum(enum["t_partial"]) == 1 and enum["t_autocorr"] + enum["t_lu"] == 1


def test_pool_commands_differ_only_in_workers():
    inputs = workloads.make_inputs("enumerate", 1)
    serial = workloads.commands("enumerate", inputs)
    pooled = workloads.commands("enumerate-pool", inputs)
    assert [c[:-1] for c in pooled] == [c[:-1] for c in serial[: len(pooled)]]
    assert {c[-1] for c in pooled} == {"2"} and {c[-1] for c in serial} == {"1"}


def test_oracles_on_small_orders():
    # F_5 in (0, 1]: 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1
    assert workloads.farey_count(5) == 10
    assert workloads.farey_count(5, Fraction(1, 2)) == 5
    indices = workloads.farey_indices(5)
    assert len(indices) == 10 and sum(indices) == 3 * 10 - 1


def test_pool_payload_mismatch_is_a_failure():
    inputs = workloads.make_inputs("enumerate", 0, smoke=True)
    n = workloads.farey_count(inputs["q"])
    moment = f"Q,stat,param,exact\n{inputs['q']},moment,alpha=1,{3 * n - 1}\n".encode()
    results = [(0, b"a"), (0, moment), (0, b"c"), (0, b"d")]
    assert workloads.check_outputs("enumerate-pool", inputs, results, results) == [[]] * 4
    reference = [(0, b"a"), (0, moment), (0, b"X"), (0, b"d")]
    problems = workloads.check_outputs("enumerate-pool", inputs, results, reference)
    assert [bool(p) for p in problems] == [False, False, True, False]


def test_self_time_subtracts_children_and_recursion_counts_once():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["bcz.push_forward", 0, 1.0, 5.0, 3],
        ["bcz.push_forward", 1, 2.0, 4.0, 2],
        ["geometry.clip_convex", 2, 2.5, 3.0, 1],
        ["stats.pool", 0, 6.0, 9.0, {"tasks": 2, "fallback": 0}],
    ]
    summary = tracer._summarise(spans)
    assert summary["cli.main"]["self_s"] == 10.0 - 4.0 - 3.0
    assert summary["bcz.push_forward"]["s"] == 4.0
    assert summary["bcz.push_forward"]["calls"] == 2
    assert summary["bcz.push_forward"]["self_s"] == (4.0 - 2.0) + (2.0 - 0.5)
    metrics = tracer.layer_metrics([{"spans": spans, "bcz_cache": [3, 1]}], 300)
    assert metrics["bcz.push_forward.pieces"] == 5
    assert metrics["geometry.clip_convex.nonempty_ratio"] == 1.0
    assert metrics["stats.pool.tasks"] == 2 and metrics["stats.pool.s"] == 3.0
    assert metrics["stats.elements_per_s"] == 100.0
    assert metrics["bcz.cache_hit_ratio"] == 0.75


def test_smoke_reports_every_metric_without_failures(tmp_path):
    assert run.smoke(results_dir=tmp_path) == []


def test_wrong_expected_constant_makes_fail_ratio_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXPECTED_CONSTANT_LINES", ("A(1) = 192/36",))
    result, lines = run.run_benchmark("geometry", 0, 0, 0, smoke=True, results_dir=tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert any(line.startswith("fail_ratio") and "0.333" in line for line in lines)


def test_wrong_expected_index_sum_makes_fail_ratio_nonzero(tmp_path, monkeypatch):
    real = workloads.farey_count
    monkeypatch.setattr(workloads, "farey_count", lambda q, t=Fraction(1): real(q, t) + 1)
    result, _ = run.run_benchmark("enumerate", 0, 0, 0, smoke=True, results_dir=tmp_path)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enumerate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_launcher_kills_a_command_past_its_budget(tmp_path):
    request = tmp_path / "request.json"
    sink = str(tmp_path / "out")
    sleeper = {"argv": [sys.executable, "-c", "import time; time.sleep(60)"], "stdout": sink, "stderr": sink}
    request.write_text(json.dumps({"commands": [sleeper], "env": {}, "timeout_s": 1}))
    proc = subprocess.run([sys.executable, "-S", str(run.BENCH_DIR / "launch.py"), str(request)],
                          capture_output=True, text=True, timeout=30)
    report = json.loads(proc.stdout)
    assert report["commands"][0]["code"] == -9 and report["wall_s"] < 10

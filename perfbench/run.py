"""Benchmark of the farey-index command line.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  A run draws its inputs from --seed, then
runs the workload's commands as fresh `python -m farey_index` processes, one
at a time (a closed loop with one client), pass after pass for about
--seconds seconds.  Every pass is checked outside its timed span.

With --trace 0 the result carries the end-to-end metrics: the median over the
passes of the run.  With --trace 1 each untraced pass is followed by a traced
one (`tracer.py` in place of `python -m farey_index`), and the result carries
the per-layer metrics.  The last line of standard output is the result as one
JSON object; the lines before it give each metric's median, quartiles and
sample count.  The inputs, every pass and the host-drift probe times are kept
in perfbench/results/.  --smoke runs every workload at tiny sizes and checks
that every metric of BENCHMARK.json is reported and no check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_SAMPLES_PER_PASS = 3
RUN_BUDGET_S = 150.0  # no command runs past this, so a run ends well within 180 s
SETUP_CODE = "import farey_index.cli as cli; cli.build_parser()"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("FAREY_INDEX_WORKERS", None)
    return env


def host_probe() -> float:
    """Seconds taken by a fixed stdlib-only loop; tracks host speed per pass."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def summarise(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One benchmark run: inputs, passes, checks and the resulting metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 workdir: Path, started: float):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.inputs = workloads.make_inputs(workload, seed, smoke)
        self.cmds = workloads.commands(workload, self.inputs)
        self.elements = workloads.elements(workload, self.inputs)
        self.env = child_env()
        self.workdir, self.started = workdir, started
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None

    def launch(self, commands: list[dict]) -> dict:
        """Run commands one after another in `launch.py`; returns its report."""
        request = self.workdir / "request.json"
        budget = max(1.0, self.started + RUN_BUDGET_S - time.perf_counter())
        request.write_text(json.dumps({"commands": commands, "env": self.env, "timeout_s": budget}),
                           encoding="utf-8")
        reply = subprocess.run([sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(request)],
                               stdin=subprocess.DEVNULL, capture_output=True, check=True, cwd=ROOT)
        return json.loads(reply.stdout)

    def setup_times(self, count: int) -> list[float]:
        """Wall time of `count` fresh interpreters that import the package and build the parser."""
        sink = str(self.workdir / "setup.log")
        argv = [sys.executable, "-c", SETUP_CODE]
        report = self.launch([{"argv": argv, "stdout": sink, "stderr": sink}] * count)
        if any(cmd["code"] != 0 for cmd in report["commands"]):
            raise RuntimeError("farey_index does not import: " + Path(sink).read_text(encoding="utf-8"))
        return [cmd["wall_s"] for cmd in report["commands"]]

    def run_pass(self, cmds: list[list[str]], traced: bool) -> dict:
        """Run the commands one after another; time the whole pass and read the outputs."""
        tag = "traced" if traced else "plain"
        outs = [self.workdir / f"{tag}-{i}.out" for i in range(len(cmds))]
        errs = [self.workdir / f"{tag}-{i}.err" for i in range(len(cmds))]
        spans = [self.workdir / f"{tag}-{i}.spans.json" for i in range(len(cmds))]
        prefix = [sys.executable] + ([str(BENCH_DIR / "tracer.py")] if traced else ["-m", "farey_index"])
        report = self.launch([{"argv": prefix + ([str(spans[i])] if traced else []) + cmd,
                               "stdout": str(outs[i]), "stderr": str(errs[i])}
                              for i, cmd in enumerate(cmds)])
        commands = report["commands"]
        return {
            "wall_s": report["wall_s"],
            "cpu_s": sum(cmd["cpu_s"] for cmd in commands),
            "peak_rss_mb": max(cmd["maxrss_kb"] for cmd in commands) / 1024,  # KiB on Linux
            "results": [(cmd["code"], out.read_bytes()) for cmd, out in zip(commands, outs)],
            "stderr_tails": [e.read_bytes()[-400:].decode("utf-8", "replace") for e in errs],
            "dumps": [json.loads(p.read_text(encoding="utf-8")) for p in spans if traced and p.exists()],
            "commands": commands,
        }

    def gate(self, label: str, pass_result: dict) -> list[str]:
        """Check a pass against the workload's expectations; counts attempts and failures."""
        problems = workloads.check_outputs(self.workload, self.inputs, pass_result["results"],
                                           self.reference)
        found = []
        for cmd, faults, tail in zip(self.cmds, problems, pass_result["stderr_tails"]):
            self.attempted += 1
            if faults:
                found.append(f"{label}: {' '.join(cmd)}: {'; '.join(faults)} [stderr: {tail.strip()[-200:]}]")
        self.failures += found
        return found

    def execute(self) -> dict:
        self.setup_times(1)  # writes the bytecode caches, which users pay once
        setup = []
        if self.workload == "enumerate-pool":
            serial = [cmd[:-1] + ["1"] for cmd in self.cmds]
            ref = self.run_pass(serial, traced=False)
            self.gate("one-worker reference", ref)
            self.reference = ref["results"]
        passes = []
        durations = []
        limit = min(self.seconds, RUN_BUDGET_S)
        while True:
            began = time.perf_counter()
            probe = host_probe()
            setup += self.setup_times(SETUP_SAMPLES_PER_PASS)
            plain = self.run_pass(self.cmds, traced=False)
            record = {"probe_s": probe, "wall_s": plain["wall_s"], "cpu_s": plain["cpu_s"],
                      "peak_rss_mb": plain["peak_rss_mb"],
                      "elements_per_s": self.elements / plain["wall_s"],
                      "commands": plain["commands"]}
            record["failures"] = self.gate(f"pass {len(passes)}", plain)
            if self.trace:
                traced = self.run_pass(self.cmds, traced=True)
                record["failures"] += self.gate(f"traced pass {len(passes)}", traced)
                record["layers"] = tracer.layer_metrics(traced["dumps"], self._walk_elements())
                record["layers"]["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
                record["layers"]["host.probe_s"] = probe
                record["untraced_pool_tasks"] = record["layers"]["stats.pool.tasks"]
            passes.append(record)
            durations.append(time.perf_counter() - began)
            # no pass starts that is expected to end past the run's time limit
            if time.perf_counter() - self.started + statistics.median(durations) > limit:
                break
        return {"setup": setup, "passes": passes}

    def _walk_elements(self) -> int:
        """Elements walked by the stats layer (the orbit is not a stats walk)."""
        return 0 if self.workload == "geometry" else self.elements

    def result(self, measured: dict, spec: dict) -> tuple[dict, list[str]]:
        passes = measured["passes"]
        lines = [f"workload {self.workload}  seed {self.seed}  trace {self.trace}  passes {len(passes)}",
                 f"inputs {json.dumps(self.inputs, default=str)}",
                 f"logical elements per pass {self.elements}"]
        if self.trace:
            names = spec["per_layer"]
            series = {m["name"]: [p["layers"][m["name"]] for p in passes] for m in names}
            lost = passes[0]["untraced_pool_tasks"]
            if lost:
                lines.append(f"spans inside {lost} pool tasks per pass were not recorded (pool children)")
        else:
            names = spec["end_to_end"]
            series = {m["name"]: [p[m["name"]] for p in passes] for m in names if m["name"] != "setup_s"}
            series["setup_s"] = measured["setup"]
        failed = len(self.failures)
        stats_by_name = {}
        for metric in names:
            stats_by_name[metric["name"]] = summarise(series[metric["name"]])
        stats_by_name["fail_ratio"] = summarise([failed / self.attempted])
        units = {m["name"]: m["unit"] for m in names}
        units["fail_ratio"] = "ratio"
        lines.append(f"{'metric':40} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
        for name, s in stats_by_name.items():
            lines.append(f"{name:40} {units[name]:>6} {s['median']:14.6g} {s['q1']:14.6g} "
                         f"{s['q3']:14.6g} {s['n']:3d}")
        lines.append("host probe per pass (s): " + " ".join(f"{p['probe_s']:.4f}" for p in passes))
        lines += [f"FAILED {f}" for f in self.failures]
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": stats_by_name[m["name"]]["median"], "unit": m["unit"]}
                        for m in names},
        }
        return result, lines

    def record(self, measured: dict, result: dict, results_dir: Path) -> None:
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{self.workload}-seed{self.seed}-trace{self.trace}.json"
        document = {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                    "inputs": self.inputs, "commands": self.cmds,
                    "logical_elements": self.elements, "setup_s_samples": measured["setup"],
                    "passes": measured["passes"], "failures": self.failures, "result": result}
        path.write_text(json.dumps(document, indent=1, default=str) + "\n", encoding="utf-8")


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False,
                  results_dir: Path = RESULTS_DIR) -> tuple[dict, list[str]]:
    """Measure one run; returns the result object and the report lines."""
    started = time.perf_counter()
    spec = load_spec()
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=results_dir))
    try:
        run = Run(workload, seed, seconds, trace, smoke, workdir, started)
        measured = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result, lines = run.result(measured, spec)
    run.record(measured, result, results_dir)
    return result, lines


def smoke(results_dir: Path = RESULTS_DIR) -> list[str]:
    """Every workload at tiny sizes, untraced and traced; returns the problems found."""
    spec = load_spec()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_benchmark(workload, 0, 0, trace, smoke=True, results_dir=results_dir)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(expected)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: fail_ratio "
                                f"{result['failed']}/{result['attempted']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, self-check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "farey_index" / "__init__.py").is_file():
        print(f"error: no farey_index sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for line in problems:
            print(line)
        print("smoke: " + ("FAIL" if problems else "PASS"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

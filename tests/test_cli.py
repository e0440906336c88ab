"""Command-line harness: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from farey_index.cli import _BLOCK_ROWS, MAX_LAG, main
from farey_index import bcz, farey, stats, totient_summatory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_identities_pass(capsys):
    code, out, err = run_cli(capsys, "identities", "--q", "60")
    assert code == 0
    assert "identities: PASS (60/60)" in out
    assert "Q=1 boundary" in out
    assert "manifest:" in err


def test_identities_sieves_one_growing_moebius_table(capsys, monkeypatch):
    # every order 1..60 is checked, and the count identity asks N(2Q) = N(120):
    # one shared table, regrown by doubling, sieves O(log Q) times, not per order
    sieve = farey._sieve_mertens
    passes = []

    def logged_sieve(n):
        passes.append(n)
        return sieve(n)

    monkeypatch.setattr(farey, "_mertens", farey._mertens[:0])
    monkeypatch.setattr(farey, "_sieve_mertens", logged_sieve)
    code, out, _ = run_cli(capsys, "identities", "--q", "60")
    assert code == 0 and "identities: PASS (60/60)" in out
    assert 1 <= len(passes) <= math.ceil(math.log2(120)) + 1
    assert 121 <= len(farey._mertens) <= 2 * 120 + 1


def test_identities_walks_the_index_sum(capsys, monkeypatch):
    # `identities` checks the index sum walk against lattice, so sum_index
    # walks (0, 1/2] of every order from 0/1, 1/Q, in this process, and
    # never reads the lattice histogram
    walks = []
    index_blocks = stats.index_blocks

    def logged(order, pd, cd, count):
        walks.append((order, pd, cd, count))
        return index_blocks(order, pd, cd, count)

    def no_chunks(*args):
        raise AssertionError("sum_index cut its walk into chunks")

    monkeypatch.setattr(stats, "index_blocks", logged)
    monkeypatch.setattr(stats, "_run_chunks", no_chunks)
    code, out, _ = run_cli(capsys, "identities", "--q", "12")
    assert code == 0 and "identities: PASS (12/12)" in out
    assert walks == [(q, 1, q, farey.farey_ranks(q, (Fraction(1, 2),))[0]) for q in range(1, 13)]

    def no_lattice(q_max):
        raise AssertionError("sum_index read the lattice histogram")

    monkeypatch.setattr(stats, "index_histogram", no_lattice)
    assert stats.sum_index(300) == 3 * totient_summatory(300) - 1


def test_identities_usage_error(capsys):
    code, out, err = run_cli(capsys, "identities", "--q", "0")
    assert code == 2


def test_constants_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--h", "1", "--alpha", "1", "--k", "2")
    assert code == 0
    assert "A(1) = 192/35" in out
    assert "B(1) = 3/2 (exact)" in out
    assert "u(1) = 0" in out

    code, out, _ = run_cli(
        capsys, "constants", "--h", "1,2", "--alpha", "1/2", "--k", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["A"]["1"] == "192/35"
    assert doc["A"]["2"] == "796727/90090"
    assert doc["frequencies"][0]["u"] == "0"
    assert float(doc["B"]["1/2"]["tail_bound"]) < 1e-7
    assert doc["manifest"]["command"] == "constants"


def test_constants_tol_is_met_or_refused(capsys):
    # a small tol near alpha = 2 is met, and one below double precision is refused
    code, out, _ = run_cli(capsys, "constants", "--alpha", "19/10", "--tol", "1e-12",
                           "--format", "json")
    assert code == 0
    reached = float(json.loads(out)["B"]["19/10"]["tail_bound"])
    assert 0 < reached <= 1e-12
    # exit 1, naming the bound reached
    code, out, err = run_cli(capsys, "constants", "--alpha", "19/10", "--tol", "1e-30")
    assert code == 1
    assert out == ""
    assert "error: cannot certify B(19/10) within tol 1e-30" in err
    assert f"reaches +/- {reached:.3g}" in err


def test_tables_h1_round_trip(capsys):
    code, out, _ = run_cli(capsys, "tables", "--h", "1", "--M", "5")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["m/n", "1", "2", "3", "4", "5"]
    grid = [[Fraction(cell) for cell in row[1:]] for row in rows[1:]]
    assert grid[1][3] == Fraction(1, 210)
    assert grid[0][0] == Fraction(1, 2)
    for m in range(5):
        for n in range(5):
            assert grid[m][n] == grid[n][m]


def test_tables_h2_entry(capsys):
    code, out, _ = run_cli(capsys, "tables", "--h", "2", "--M", "3")
    assert code == 0
    rows = parse_csv(out)
    assert Fraction(rows[2][2]) == Fraction(23, 84)


def test_converge_moment_alpha_one_ratio(capsys):
    code, out, _ = run_cli(capsys, "converge", "moment", "--q-list", "50,100", "--alpha", "1")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][:4] == ["Q", "stat", "param", "exact"]
    for row in rows[1:]:
        q = int(row[0])
        n = totient_summatory(q)
        assert int(row[3]) == 3 * n - 1
        assert abs(float(row[5]) - (1 - 1 / (3 * n))) < 1e-12


def test_converge_lu_high_column_zero(capsys):
    code, out, _ = run_cli(capsys, "converge", "LU", "--q-list", "200", "--k", "1")
    assert code == 0
    rows = parse_csv(out)
    u_rows = [r for r in rows[1:] if r[1] == "U"]
    assert u_rows and all(r[3] == "0" for r in u_rows)


def test_converge_s_h_with_interval(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "S_h", "--q-list", "100", "--h", "1", "--t", "1/2"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][2] == "h=1;t=1/2"
    assert rows[1][7] == "Q^(3/2+eps)"


def test_converge_requires_ascending_orders(capsys):
    code, _, _ = run_cli(capsys, "converge", "S_h", "--q-list", "100,50")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("S_h", "--q-list", "50,60", "--h", "1,0"),
        ("LU", "--q-list", "50", "--k", "2,0"),
        ("moment", "--q-list", "50", "--alpha", "1,0"),
        ("moment", "--q-list", "50", "--alpha", "1/2,5/2"),
        ("S_h", "--q-list", "50", "--t", "0"),
        ("LU", "--q-list", "50", "--t", "1/2,3/2"),
        ("partial", "--q-list", "50", "--t", "3/2"),
        ("partial", "--q-list", "50", "--t=-1/2"),
        ("moment", "--q-list", "0,50"),
        ("S_h", "--q", "-3"),
        ("moment", "--q-list", "1", "--alpha", "2"),
        ("S_h", "--q", "5", "--h", f"1,{MAX_LAG + 1}"),
        # an empty comma list is refused, not read as the default
        ("S_h", "--q", "50", "--h", ","),
        ("partial", "--q", "50", "--t", ","),
        ("LU", "--q", "50", "--k", ","),
        ("moment", "--q", "50", "--alpha", ","),
        ("S_h", "--q-list", ","),
        # a repeated value is refused, not computed and printed twice
        ("partial", "--q-list", "50,50"),
        ("S_h", "--q", "50", "--h", "1,2,1"),
        ("LU", "--q", "50", "--k", "3,3"),
        ("partial", "--q", "50", "--t", "1/2,2/4"),
        ("moment", "--q", "50", "--alpha", "1,1/2,1"),
    ],
)
def test_converge_out_of_domain_is_a_usage_error(capsys, monkeypatch, argv):
    def no_walk(*args):
        raise AssertionError("walked before validating")

    monkeypatch.setattr(stats, "_run_chunks", no_walk)
    monkeypatch.setattr(stats, "index_histogram", no_walk)
    code, out, err = run_cli(capsys, "converge", *argv)
    assert code == 2
    assert out == ""
    assert "converge:" in err
    if argv in _REPEATS:
        assert f"converge: {_REPEATS[argv]}" in err


# the option a repeated value must be reported under
_REPEATS = {
    ("partial", "--q-list", "50,50"): "--q-list repeats the value 50",
    ("S_h", "--q", "50", "--h", "1,2,1"): "--h repeats the value 1",
    ("LU", "--q", "50", "--k", "3,3"): "--k repeats the value 3",
    ("partial", "--q", "50", "--t", "1/2,2/4"): "--t repeats the value 1/2",
    ("moment", "--q", "50", "--alpha", "1,1/2,1"): "--alpha repeats the value 1",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("visible", "--scale", "0"),
        ("visible", "--scale", "5", "--k", "0"),
        ("constants", "--alpha", "2"),
        ("constants", "--alpha", "0"),
        ("constants", "--h", "0"),
        ("constants", "--alpha", "1/2", "--tol", "0"),
        ("orbit", "--x", "1/4", "--y", "1/4"),
        ("orbit", "--q", "5", "--r", "-1"),
        ("constants", "--h", "40"),
        ("constants", "--h", f"1,{MAX_LAG + 1}"),
        ("converge", "S_h", "--q", "5", "--h", "3000000"),
        ("tables", "--h", str(MAX_LAG + 1), "--M", "2"),
        ("orbit", "--q", "5", "--x", "1/2"),
        ("orbit", "--q", "5", "--x", "1/2", "--y", "3/4"),
        ("orbit", "--x", "1/2"),
        ("orbit", "--y", "3/4"),
        ("converge", "S_h", "--q", "0", "--h", "1"),
        ("constants", "--h", ",", "--k", "1"),
        ("constants", "--alpha", ","),
        ("constants", "--h", "2,1,2"),
    ],
)
def test_out_of_domain_is_a_usage_error(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before validating")

    for module, name in ((stats, "visible_points_count"), (bcz, "autocorrelation_constant"),
                         (bcz, "b_alpha"), (bcz, "orbit"), (farey, "index_blocks"),
                         (bcz, "intersection_area_table")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[0]}:" in err
    assert _USAGE_MESSAGES.get(argv, "") in err


# the reason a case must give where a wrong check would also exit 2: --q 0 is an
# order below 1, not a missing --q
_USAGE_MESSAGES = {
    ("converge", "S_h", "--q", "0", "--h", "1"): "every order in --q-list must be >= 1",
    ("constants", "--h", ",", "--k", "1"): "--h needs at least one value",
    ("constants", "--alpha", ","): "--alpha needs at least one value",
    ("constants", "--h", "2,1,2"): "--h repeats the value 2",
}


@pytest.mark.parametrize(
    "flags",
    [
        ("--k", "2", "--star", "3"),
        ("--square", "--k", "2"),
        ("--square", "--star", "3"),
    ],
)
def test_visible_region_flags_are_exclusive(capsys, monkeypatch, flags):
    def no_count(*args):
        raise AssertionError("counted before validating")

    monkeypatch.setattr(stats, "visible_points_count", no_count)
    with pytest.raises(SystemExit) as exc:
        main(["visible", "--scale", "3", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_largest_lag_is_accepted(capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(h):
        raise Reached(h)

    monkeypatch.setattr(bcz, "autocorrelation_constant", reached)
    with pytest.raises(Reached):
        run_cli(capsys, "constants", "--h", str(MAX_LAG))
    with pytest.raises(Reached):
        run_cli(capsys, "converge", "S_h", "--q", "5", "--h", str(MAX_LAG))


@pytest.mark.parametrize(
    "argv, environment",
    [
        (("--workers", "0"), None),
        (("--workers", "-3"), None),
        (("--workers", "abc"), "2"),  # FAREY_INDEX_WORKERS is not read, even when valid
        (("--workers", "257"), None),
    ],
)
def test_workers_below_one_or_not_an_integer_is_a_usage_error(capsys, monkeypatch, argv,
                                                              environment):
    def no_walk(*args):
        raise AssertionError("walked before validating")

    monkeypatch.setattr(stats, "_run_chunks", no_walk)
    if environment is not None:
        monkeypatch.setenv("FAREY_INDEX_WORKERS", environment)
    with pytest.raises(SystemExit) as exc:
        main(["converge", "partial", "--q", "20", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err and "positive integer" in captured.err


def test_workers_default_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # the default is 1; no environment variable supplies it
    monkeypatch.setenv("FAREY_INDEX_WORKERS", "3")
    out_file = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "converge", "partial", "--q", "20", "--out", str(out_file))
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["workers"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("identities", "--q", "5"),
        ("constants", "--k", "2"),
        ("tables", "--h", "1", "--M", "2"),
        ("converge", "S_h", "--q", "10"),
        ("converge", "moment", "--q", "10"),
        ("converge", "LU", "--q", "10"),
        ("converge", "partial", "--q", "10"),
        ("orbit", "--q", "5"),
        ("visible", "--scale", "5"),
    ],
)
def test_manifest_records_the_requested_workers(capsys, monkeypatch, argv):
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)  # chunks run in this process
    code, _, err = run_cli(capsys, *argv, "--workers", "3")
    assert code == 0
    [line] = [line for line in err.splitlines() if line.startswith("manifest: ")]
    assert json.loads(line[len("manifest: "):])["workers"] == 3


@pytest.mark.parametrize(
    "argv, kernel",
    [
        (("S_h", "--h", "3,1,2", "--t", "1/2,1,1/3"), "_chunk_autocorr"),
        (("LU", "--k", "2,1,4", "--t", "2/3,1/4"), "_index_value_counts"),
        (("partial", "--t", "1/2,0,1"), None),
        (("moment", "--alpha", "1,2,1/2"), None),
        (("moment", "--alpha", "1"), None),
        (("S_h", "--h", "2,5", "--t", "1"), "_chunk_autocorr"),
        (("S_h", "--h", "1", "--t", "4/5,3/5"), "_chunk_autocorr"),
        (("LU", "--k", "1,3", "--t", "1,5/6"), "_index_value_counts"),
        (("partial", "--t", "1"), None),
        (("LU", "--k", "1,3", "--t", "1"), None),
        (("LU", "--k", "2", "--t", "5/6"), "_index_value_counts"),
        (("LU", "--k", "1,2", "--t", "1/2,3/5,1/7"), "_index_value_counts"),
    ],
)
def test_converge_walks_each_order_once(capsys, monkeypatch, argv, kernel):
    # moments are read off the lattice histogram and never walk.  S_h walks
    # (0, 1/2] of F_Q at most: a cutoff above 1/2 is assembled from its
    # mirror.  The chunks tile (0, T] exactly, every walk starts at a point
    # seek finds at or below T, and none runs more than the largest lag past
    # the end of its chunk.  partial walks nothing: the gap identity closes
    # every cutoff.  LU walks F_{Q/2}, not F_Q, at most twice per order:
    # from 0/1 for the cuts c = min(t, 1 - t) up to 1/4 and from 1/2 for the
    # rest, so that no walk is longer than max min(c, 1/2 - c); t = 1 walks
    # nothing.  Neither starts a chunk
    walks, chunks, starts, steps, halves = [], [], [], [], []
    run_chunks, seek, index_blocks = stats._run_chunks, stats.seek, stats.index_blocks
    chunk_autocorr, value_counts = stats._chunk_autocorr, stats._index_value_counts

    def counted(order, *args):
        walks.append((chunk_autocorr.__name__, order))
        return run_chunks(order, *args)

    def logged_chunk(task):
        chunks.append((task[0], task[-1]))
        return chunk_autocorr(task)

    def logged_seek(order, t):
        starts.append(Fraction(t))
        return seek(order, t)

    def logged_blocks(order, pd, cd, count):
        steps.append((order, count))
        return index_blocks(order, pd, cd, count)

    def logged_counts(order, cuts, start=Fraction(0)):
        if cuts:
            halves.append((order, start, max(cuts)))
        return value_counts(order, cuts, start)

    monkeypatch.setattr(stats.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(stats, "_run_chunks", counted)
    monkeypatch.setattr(stats, "_chunk_autocorr", logged_chunk)
    monkeypatch.setattr(stats, "seek", logged_seek)
    monkeypatch.setattr(stats, "index_blocks", logged_blocks)
    monkeypatch.setattr(stats, "_index_value_counts", logged_counts)
    code, out, _ = run_cli(capsys, "converge", argv[0], "--q-list", "30,40", *argv[1:],
                           "--workers", "3")
    assert code == 0
    options = dict(zip(argv[1::2], argv[2::2]))
    ts = [Fraction(t) for t in options.get("--t", "1").split(",")]
    if argv[0] == "S_h":
        reach = Fraction(1, 2) if max(ts) > Fraction(1, 2) else max(ts)
        assert all(t <= reach for t in starts)
    elif kernel is None:
        assert starts == []
    if kernel == "_index_value_counts":
        cuts = {min(t, 1 - t) for t in ts if t < 1}
        reach = max(min(c, Fraction(1, 2) - c) for c in cuts)
        near = [c for c in cuts if c <= Fraction(1, 4)]
        far = [1 - c for c in cuts if c > Fraction(1, 4)]
        assert (walks, steps) == ([], [])
        assert halves == [(q, start, max(ends)) for q in (30, 40)
                          for start, ends in ((Fraction(0), near), (Fraction(1, 2), far)) if ends]
        assert all(end - start <= reach for _, start, end in halves)
    elif kernel is None:
        assert (walks, steps, halves) == ([], [], [])
    else:
        assert (walks, halves) == ([(kernel, 30), (kernel, 40)], [])
        lag = max(map(int, options["--h"].split(",")))
        for q in (30, 40):
            walked = farey.farey_ranks(q, (reach,))[0]
            assert sum(count for order, count in chunks if order == q) == walked
            counts = [count for order, count in steps if order == q]
            assert sum(counts) <= walked + len(counts) * (lag + 1) < totient_summatory(q) * 2 // 3


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--t", "1/2"),
        ("moment", "--h", "1"),
        ("moment", "--k", "2"),
        ("S_h", "--alpha", "1/2"),
        ("S_h", "--alpha", "1/2", "--k", "3"),
        ("LU", "--alpha", "1"),
        ("LU", "--h", "2"),
        ("partial", "--alpha", "1"),
        ("partial", "--h", "1"),
        ("partial", "--k", "1"),
    ],
)
def test_converge_refuses_parameters_of_other_stats(capsys, monkeypatch, argv):
    # a parameter the statistic does not read used to be ignored, the run
    # exiting 0 with it in the manifest
    def no_work(*args, **kwargs):
        raise AssertionError("computed before validating")

    for name in ("_run_chunks", "index_histogram"):
        monkeypatch.setattr(stats, name, no_work)
    code, out, err = run_cli(capsys, "converge", argv[0], "--q", "10", *argv[1:])
    assert code == 2
    assert out == ""
    flag = next(arg for arg in argv[1:] if arg.startswith("--"))
    assert f"converge: {flag} does not apply to {argv[0]}" in err


def test_converge_q_and_q_list_are_exclusive(capsys, monkeypatch):
    # --q used to be dropped silently in favour of --q-list
    def no_work(*args, **kwargs):
        raise AssertionError("computed before validating")

    for name in ("_run_chunks", "index_histogram"):
        monkeypatch.setattr(stats, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(["converge", "partial", "--q", "10", "--q-list", "20"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_converge_partial_accepts_t_zero(capsys):
    code, out, _ = run_cli(capsys, "converge", "partial", "--q-list", "20", "--t", "0")
    assert code == 0
    assert parse_csv(out)[1][3] == "0"


def test_converge_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "partial", "--q-list", "50", "--t", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    n = totient_summatory(50)
    assert doc["rows"][0]["exact"] == str(3 * n - 1)
    assert doc["manifest"]["command"] == "converge"


def test_tables_json_payload(capsys):
    code, out, _ = run_cli(capsys, "tables", "--h", "1", "--M", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][1][1] == "1/6"
    assert Fraction(doc["entries"][0][0]) == Fraction(1, 2)


def test_payload_determinism_across_workers(tmp_path, capsys):
    paths = []
    for i, workers in enumerate(("1", "4")):
        out_file = tmp_path / f"run{i}.csv"
        code, _, _ = run_cli(
            capsys,
            "converge",
            "S_h",
            "--q-list",
            "150,300",
            "--h",
            "1,2",
            "--workers",
            workers,
            "--out",
            str(out_file),
        )
        assert code == 0
        paths.append(out_file)
    payload_one = paths[0].read_bytes()
    payload_four = paths[1].read_bytes()
    assert payload_one == payload_four
    manifest = json.loads((tmp_path / "run1.csv.manifest.json").read_text())
    assert manifest["workers"] == 4
    assert manifest["parameters"]["q_list"] == [150, 300]


def test_repeated_runs_identical(tmp_path, capsys):
    blobs = []
    for i in range(2):
        out_file = tmp_path / f"again{i}.csv"
        code, _, _ = run_cli(
            capsys, "converge", "partial", "--q-list", "80", "--t", "1/3,1", "--out", str(out_file)
        )
        assert code == 0
        blobs.append(out_file.read_bytes())
    assert blobs[0] == blobs[1]


def test_orbit_dump(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--q", "5")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["i", "L_i", "kappa_i"]
    kappas = [r[2] for r in rows[1:] if r[2]]
    assert kappas == ["1", "2", "3", "1", "5", "1", "3", "2", "1", "10"]

    code, out, _ = run_cli(capsys, "orbit", "--x", "1", "--y", "1", "--r", "3")
    rows = parse_csv(out)
    assert [r[1] for r in rows[1:]] == ["1", "1", "1", "1", "1"]


def test_orbit_out_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "orbit", "--q", "30")
    assert code == 0
    out_file = tmp_path / "orbit.csv"
    code, printed, _ = run_cli(capsys, "orbit", "--q", "30", "--out", str(out_file))
    assert code == 0 and printed == ""
    assert out_file.read_bytes() == out.encode("utf-8")
    manifest = json.loads((tmp_path / "orbit.csv.manifest.json").read_text())
    assert manifest["command"] == "orbit"
    assert manifest["parameters"] == {"x": "1/30", "y": "1", "r": totient_summatory(30)}


class _DiscardingStdout:
    """A standard output that keeps only the number of writes."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1

    def flush(self):
        pass


def test_orbit_streams_in_bounded_memory(monkeypatch):
    # the rows are formatted and written a block at a time: nothing of size
    # N(Q) ~ 0.3 Q^2 is held, and there is one write per block, not per row
    sink = _DiscardingStdout()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(["orbit", "--q", "600"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000
    rows = totient_summatory(600) + 3  # the header and rows 0..N(Q) + 1
    assert sink.writes == math.ceil(rows / _BLOCK_ROWS)


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--q", "5"),
        ("converge", "partial", "--q-list", "50", "--t", "1/3"),
        ("identities", "--q", "5"),
        ("constants", "--h", "1"),
        ("tables", "--h", "1", "--M", "2"),
        ("visible", "--scale", "5"),
    ],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before opening --out")

    for module, name in ((stats, "partial_records"), (stats, "sum_index"),
                         (stats, "visible_points_count"), (bcz, "autocorrelation_constant"),
                         (bcz, "intersection_area_table"), (bcz, "orbit"),
                         (farey, "index_blocks")):
        monkeypatch.setattr(module, name, no_work)
    path = tmp_path / "missing" / "payload.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"{argv[0]}: cannot write --out {path}: No such file or directory" in err
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [("identities", "--q", "5"), ("orbit", "--q", "5")])
def test_json_format_is_a_usage_error_where_unsupported(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before validating")

    for module, name in ((stats, "sum_index"), (stats, "index_histogram"),
                         (stats, "hall_shiu_identity"), (bcz, "orbit"), (farey, "index_blocks")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert f"{argv[0]}: --format json is not supported" in err


def tail_certificate_fails(monkeypatch):
    def fail(h, *args):
        raise bcz.TailCertificateError(f"tail of A({h}) escapes the cutoff")

    monkeypatch.setattr(bcz, "autocorrelation_constant", fail)


def sieve_runs_out_of_memory(monkeypatch):
    # a scale of 10^12 asks a Mertens table of 10^12 entries; the patched
    # sieve fails as that allocation would, without asking for the memory
    def fail(n):
        raise MemoryError

    monkeypatch.setattr(farey, "_sieve_mertens", fail)


def sieve_never_runs(monkeypatch):
    # an order past the host's index range is refused before any sieve,
    # which used to fail with an OverflowError traceback
    def fail(n):
        raise AssertionError("sieved")

    monkeypatch.setattr(farey, "_sieve_mertens", fail)


def region_scan_gives_up(monkeypatch):
    # T^h star_m is split afresh, and the scan stops at region 4; this table
    # needs region 11, so 12 is the lowest limit at which it completes
    monkeypatch.setattr(bcz, "_star_splits", {})
    monkeypatch.setattr(bcz, "_REGION_SCAN_LIMIT", 4)


@pytest.mark.parametrize(
    "argv, abort, message",
    [
        (("constants", "--h", "2"), tail_certificate_fails, "tail of A(2) escapes the cutoff"),
        (("converge", "S_h", "--q-list", "30", "--h", "2"), tail_certificate_fails,
         "tail of A(2) escapes the cutoff"),
        (("tables", "--h", "3", "--M", "3"), region_scan_gives_up,
         "region decomposition did not terminate"),
        (("visible", "--scale", "1000000000000", "--k", "100000"), sieve_runs_out_of_memory,
         "out of memory"),
        (("converge", "moment", "--q-list", str(10**20), "--alpha", "1"), sieve_never_runs,
         f"order {10**20} is too large"),
        (("visible", "--scale", str(10**20), "--square"), sieve_never_runs,
         f"order {10**20} is too large"),
    ],
)
def test_aborted_run_exits_one_without_payload_or_manifest(tmp_path, capsys, monkeypatch,
                                                           argv, abort, message):
    abort(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"error: {message}" in err
    assert "manifest" not in err
    path = tmp_path / "payload.csv"
    abort(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert f"error: {message}" in err
    assert path.read_text() == ""
    assert not (tmp_path / "payload.csv.manifest.json").exists()


def test_visible_json_payload(capsys):
    code, out, _ = run_cli(capsys, "visible", "--scale", "10", "--square", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    [row] = doc["rows"]
    assert row["region"] == "unit_square" and row["scale"] == 10 and row["count"] == 65
    assert row["area"] == "1"
    assert doc["manifest"]["command"] == "visible"
    assert doc["manifest"]["parameters"] == {"region": "unit_square", "scale": 10}
    _, csv_out, _ = run_cli(capsys, "visible", "--scale", "10", "--square")
    header, values = parse_csv(csv_out)
    assert [str(row[key]) for key in header] == values


def test_visible_output(capsys):
    code, out, _ = run_cli(capsys, "visible", "--scale", "10", "--square")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][2] == "65"

    code, out, _ = run_cli(capsys, "visible", "--scale", "25")
    rows = parse_csv(out)
    assert rows[1][0] == "triangle"
    assert abs(float(rows[1][5]) - 1) < 0.5


# sha256 of the stdout of each command, as computed by the Fraction polygon
# kernel (geometry), by the walks and the bounding-box scan (enumeration) and,
# for S_h, LU and partial, by walks over the whole of F_Q; a change of route
# must leave every payload byte-identical.  The B(alpha) digits in `constants`
# and `moment` are those of the closed Euler-Maclaurin tail; each lies inside
# the enclosure that the earlier direct sum printed.
GOLDEN_PAYLOADS = [
    (("constants", "--h", "1,2,3,4,5,6,7,8", "--alpha", "1,1/3,10/7", "--k", "50"),
     "0b8d345ffd2fbfbf5061e14356bd027c20a8ee4ef61e352dd55d9581d6393098"),
    (("tables", "--h", "7", "--M", "9"),
     "b467e031e962f13853db781a093c81f61cef24c479a7542221ac97f5e09ef25c"),
    (("orbit", "--q", "30"),
     "6b80d1f9f7099ba183c0de7502ecefc0defe085d62b72402eb5bf986e904e3ef"),
    (("converge", "moment", "--q-list", "2,300,3005", "--alpha", "1,2,11/12,1/2"),
     "15756f748f8ebbab97474a7796d198266ea2e89fd7d5a32092ddcc2f26e7c32d"),
    (("identities", "--q", "60"),
     "11af5d550a24b9aabf08fabb7c1d6d8cbb0486627c81ff8c5de88478ff7361a7"),
    (("visible", "--scale", "595"),
     "fc7afa04641e3e91362b0853b81f164be51818951d3fb228e56cb9665060f9be"),
    (("visible", "--scale", "100", "--k", "2"),
     "b2490457cd6b2b87cd74dcd5bfbb534de9508dc734958f107b13a53844b4f45f"),
    (("visible", "--scale", "100", "--star", "3"),
     "2f4226e5292a472fa7b166e98a299d5707d145b74855b2988dd655961336f8d9"),
    (("visible", "--scale", "100", "--square"),
     "d88213e508f2801e48d61407f93e28a167e785bfa2d6bc3002506f5dab00c959"),
    (("converge", "S_h", "--q-list", "1502,3005", "--h", "1,2,3", "--t", "3/7,1"),
     "89a56f42cd95a2bcd0e1bd49cf2c44d05c0a0eeabc3780fa2fc6f2d7417bcb3e"),
    # lags 5 and 8 exceed N(Q) at Q <= 3
    (("converge", "S_h", "--q-list", "1,2,3,40", "--h", "1,2,5,8", "--t", "1/2,4/7,1"),
     "5b7d6516d5cee650ffb2f0f66709f14c77e971061c2abaacb88685994640d10d"),
    # k = 2Q = 600 is the index of 1/1 at Q = 300
    (("converge", "LU", "--q-list", "2,300,1000", "--k", "1,2,4,600", "--t", "1/2,4/7,4/5,1"),
     "7ec24995c40b92780cf7cf7c2bf65051f8dcd0af0865d5912914fb1722db4d2b"),
    (("converge", "partial", "--q-list", "1,2,1000", "--t", "0,1/5,1/2,2/3,4/5,1"),
     "cdc7668eda53b4d5c3eb8aad9b5adcc0b5bffb3d27f95a0099ed613863a8539e"),
    # both mirror branches (h mod N at most N/2 and above it) and odd N = 1 at
    # Q = 1, with cutoffs on both sides of 1/2
    (("converge", "S_h", "--q-list", "1,2,3,4,5,6", "--h", "1,2,3,4,5,6,7,8,9,10,11,12",
      "--t", "1/3,1/2,4/7,5/6,1"),
     "6314ef8ffe9ddc65e108a33b67cf8a80ec10b60aa94647af2456b4e95ff6123f"),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_PAYLOADS,
    ids=("constants", "tables", "orbit", "moment", "identities", "visible", "visible-k2",
         "visible-star3", "visible-square", "S_h", "S_h-small", "LU", "partial", "S_h-tiny"),
)
def test_golden_payloads(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

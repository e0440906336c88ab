"""Command-line harness: verifications, exact tables, convergence experiments.

Subcommands
    identities   exact closed-form identity checks up to an order bound
    constants    exact A(h), B_alpha with tail bounds, frequency constants
    tables       star-intersection area tables as CSV of exact rationals
    converge     StatRecord experiments (S_h / moment / LU / partial) as CSV
    orbit        kappa-sequence dump for a transfer-map orbit
    visible      coprime lattice-point counts against the 6/pi^2 density

Standard output carries data only; progress notes go to standard error.
Payloads are streamed to standard output or to the --out file, which is
opened before any work; CSV goes out in blocks of rows, and the `orbit` dump
is formatted from integers as it is written, so its memory does not grow
with its length.  A run manifest (command, parameters, artifact version,
wall-clock duration, the requested --workers) is written next to --out
files, embedded in JSON output, or sent to standard error otherwise.
Numeric payloads are deterministic: the same manifest reproduces
byte-identical data for any worker count.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from fractions import Fraction

# Each command imports the layers it runs, and `json` and `csv` are imported
# where they are written, so a process compiles only what its command uses:
# `orbit` loads `farey` alone, `constants` and `tables` skip `stats`, and
# `identities` and `converge partial` skip `bcz` and `geometry`.
from . import __version__


def _real(value: float) -> str:
    return format(value, ".15g")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [_parse_fraction(part) for part in text.split(",") if part]


# The most chunks --workers may cut a walk into: every chunk costs a Farey rank,
# O(sqrt Q log r) for a cut p/r, and a seek, O(log Q), before any walk (256 add
# about 0.03 s at Q = 3000, most of it the ranks).
MAX_WORKERS = 256


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"not a positive integer <= {MAX_WORKERS}: {text!r}")
    return value


# The largest lag whose A(h) has been measured and certified: `constants --h 24`
# takes 4.0-5.5 s and 32 MB max RSS in a fresh process on a 2-core host
# (Python 3.11, six runs).  The cost of A(h) and of a star-intersection table
# grows steeply with h, so a larger --h is refused before any work.
MAX_LAG = 24


# Rows per write of a CSV payload.  With an unbuffered standard output
# (PYTHONUNBUFFERED) every write is a system call, so rows go out in blocks;
# a block of `orbit` lines holds about 0.2 MB while it is joined.
_BLOCK_ROWS = 1024


class _UsageError(Exception):
    """A usage problem, out-of-domain input included: `main` prints it and exits 2."""


class _Output:
    """Routes the data payload and its manifest per the output options.

    The payload is streamed to standard output or to the --out file, which is
    opened here, before any work; CSV rows go out in blocks of `_BLOCK_ROWS`.
    `finish` writes the manifest.  Use as a context manager, which closes an
    --out file also when the command stops early.
    """

    def __init__(self, args, command: str, parameters: dict):
        self.out_path: str | None = getattr(args, "out", None)
        self.format = args.format
        self.command = command
        self.parameters = parameters
        self.workers = args.workers
        self.started = time.monotonic()
        self.sink = sys.stdout
        if self.out_path:
            try:
                self.sink = open(self.out_path, "w", encoding="utf-8", newline="")
            except OSError as exc:
                raise _UsageError(f"{command}: cannot write --out {self.out_path}: "
                                  f"{exc.strerror or exc}") from exc

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.out_path:
            self.sink.close()

    def write(self, text: str) -> None:
        self.sink.write(text)

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "artifact_version": __version__,
            "duration_seconds": round(time.monotonic() - self.started, 6),
            "workers": self.workers,
        }

    def write_rows(self, header: list, rows) -> None:
        """A header and rows: CSV, or JSON {"rows": [...], "manifest": ...}."""
        if self.format == "json":
            self.write_document({"rows": [dict(zip(header, row)) for row in rows]})
            return
        import csv
        import io

        rows = iter(rows)
        block = [header, *itertools.islice(rows, _BLOCK_ROWS)]
        while block:
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(block)
            self.write(text.getvalue())
            block = list(itertools.islice(rows, _BLOCK_ROWS))

    def write_document(self, document: dict) -> None:
        """One JSON document, with the manifest embedded."""
        import json

        document = {**document, "manifest": self.manifest()}
        self.write(json.dumps(document, indent=2, sort_keys=True) + "\n")

    def finish(self) -> None:
        import json

        manifest = json.dumps(self.manifest(), sort_keys=True)
        if self.out_path:
            self.sink.close()
            with open(self.out_path + ".manifest.json", "w", encoding="utf-8") as fh:
                fh.write(manifest + "\n")
        else:
            self.sink.flush()
            print(f"manifest: {manifest}", file=sys.stderr)


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_identities(args) -> int:
    from . import stats

    if args.q < 1:
        raise _UsageError("identities: --q must be >= 1")
    if args.format == "json":
        raise _UsageError("identities: --format json is not supported; the report is plain text")
    with _Output(args, "identities", {"q_max": args.q}) as out:
        failures = []
        for q in range(1, args.q + 1):
            n = stats.totient_summatory(q)
            expected = 3 * n - 1
            # the index sum by two independent routes: the walk and the lattice histogram
            total = stats.sum_index(q)
            if total != expected:
                failures.append((q, f"index sum {total} != {expected}"))
            hist = stats.index_histogram(q)
            count, weighted = sum(hist.values()), sum(k * c for k, c in hist.items())
            if (count, weighted) != (n, expected):
                failures.append((q, f"lattice histogram has {count} elements and index sum "
                                    f"{weighted}, not {n} and {expected}"))
            lhs, rhs = stats.hall_shiu_identity(q)
            if lhs != rhs:
                failures.append((q, f"count identity {lhs} != {rhs}"))
        lhs1, rhs1 = stats.hall_shiu_identity(1)
        out.write(f"# Q=1 boundary: count identity gives {lhs1} == {rhs1} (holds)\n")
        for q, message in failures:
            out.write(f"Q={q}: {message}\n")
        failed = len({q for q, _ in failures})
        verdict = "PASS" if not failures else "FAIL"
        out.write(f"identities: {verdict} ({args.q - failed}/{args.q})\n")
        out.finish()
    return 0 if not failures else 1


def _constants_usage_problem(args) -> None:
    """Refuse what is out of domain in the constants arguments."""
    if any(not 1 <= h <= MAX_LAG for h in args.h or []):
        raise _UsageError(f"constants: every --h must lie in [1, {MAX_LAG}]")
    if any(not 0 < alpha < 2 for alpha in args.alpha or []):
        raise _UsageError("constants: every --alpha must lie in (0, 2)")
    if args.k is not None and args.k < 1:
        raise _UsageError("constants: --k must be >= 1")
    if not args.tol > 0:
        raise _UsageError("constants: --tol must be positive")


def cmd_constants(args) -> int:
    from . import bcz

    _constants_usage_problem(args)
    h_list = args.h or [1]
    alpha_list = args.alpha or []
    k_max = args.k or 1
    with _Output(
        args,
        "constants",
        {"h": h_list, "alpha": [str(a) for a in alpha_list], "k_max": k_max, "tol": args.tol},
    ) as out:
        data: dict = {"A": {}, "B": {}, "frequencies": []}
        exit_code = 0
        for h in h_list:
            _progress(f"computing A({h}) ...")
            data["A"][str(h)] = str(bcz.autocorrelation_constant(h))
        for alpha in alpha_list:
            result = bcz.b_alpha(alpha, tol=args.tol)
            data["B"][str(alpha)] = {
                "value": str(result.value) if result.exact else _real(result.value),
                "tail_bound": _real(result.tail_bound),
                "terms": result.terms,
                "exact": result.exact,
            }
        closed_l = lambda k: 4 * (Fraction(1, (k + 1) ** 2) - Fraction(1, k + 1) + Fraction(1, k + 2))
        closed_u = lambda k: Fraction(0) if k == 1 else 4 * (
            Fraction(1, k) - Fraction(1, k + 1) - Fraction(1, (k + 1) ** 2)
        )
        for k in range(1, k_max + 1):
            l_k = bcz.lower_frequency(k)
            u_k = bcz.upper_frequency(k)
            if l_k != closed_l(k) or u_k != closed_u(k):
                _progress(f"frequency mismatch against closed form at k={k}")
                exit_code = 1
            data["frequencies"].append({"k": k, "l": str(l_k), "u": str(u_k)})

        if args.format == "json":
            out.write_document(data)
        else:
            for h in h_list:
                out.write(f"A({h}) = {data['A'][str(h)]}\n")
            for alpha in alpha_list:
                entry = data["B"][str(alpha)]
                suffix = " (exact)" if entry["exact"] else f" +/- {entry['tail_bound']}"
                out.write(f"B({alpha}) = {entry['value']}{suffix}\n")
            for row in data["frequencies"]:
                out.write(f"l({row['k']}) = {row['l']}\tu({row['k']}) = {row['u']}\n")
        out.finish()
    return exit_code


def cmd_tables(args) -> int:
    from . import bcz

    if not 1 <= args.h <= MAX_LAG or args.M < 2:
        raise _UsageError(f"tables: need --h in [1, {MAX_LAG}] and --M >= 2")
    with _Output(args, "tables", {"h": args.h, "M": args.M}) as out:
        _progress(f"computing {args.M}x{args.M} star-intersection table for h={args.h} ...")
        table = bcz.intersection_area_table(args.h, args.M)
        symmetric = all(
            table[m][n] == table[n][m] for m in range(args.M) for n in range(m + 1, args.M)
        )
        if args.format == "json":
            out.write_document({"h": args.h, "entries": [[str(v) for v in row] for row in table]})
        else:
            out.write_rows(["m/n"] + [str(n) for n in range(1, args.M + 1)],
                           ([str(m + 1)] + [str(v) for v in row] for m, row in enumerate(table)))
        out.finish()
    if not symmetric:
        _progress("tables: symmetry violation in computed table")
        return 1
    return 0


# The parameters each converge statistic reads; any other is refused, not ignored.
_CONVERGE_PARAMETERS = {"S_h": ("h", "t"), "moment": ("alpha",), "LU": ("k", "t"), "partial": ("t",)}


def _converge_usage_problem(args, q_list: list[int]) -> None:
    """Refuse what is out of domain in the converge arguments."""
    for name in ("h", "alpha", "k", "t"):
        if getattr(args, name) is not None and name not in _CONVERGE_PARAMETERS[args.stat]:
            raise _UsageError(f"converge: --{name} does not apply to {args.stat}")
    if q_list[0] < 1:
        raise _UsageError("converge: every order in --q-list must be >= 1")
    if any(not 1 <= h <= MAX_LAG for h in args.h or []):
        raise _UsageError(f"converge: every --h must lie in [1, {MAX_LAG}]")
    if any(k < 1 for k in args.k or []):
        raise _UsageError("converge: every --k must be >= 1")
    if any(not 0 < alpha <= 2 for alpha in args.alpha or []):
        raise _UsageError("converge: every --alpha must lie in (0, 2]")
    if args.stat == "moment" and 2 in (args.alpha or []) and q_list[0] < 2:
        raise _UsageError("converge: --alpha 2 needs every order in --q-list to be >= 2")
    if args.stat == "partial":
        if any(not 0 <= t <= 1 for t in args.t or []):
            raise _UsageError("converge: every --t must lie in [0, 1]")
    elif any(not 0 < t <= 1 for t in args.t or []):
        raise _UsageError("converge: every --t must lie in (0, 1]")


def _cell(value) -> str:
    """An exact int or Fraction as it prints; any other value by `_real`."""
    return str(value) if isinstance(value, (int, Fraction)) else _real(value)


def cmd_converge(args) -> int:
    from . import stats

    q_list = args.q_list or ([args.q] if args.q is not None else [])
    if not q_list or sorted(q_list) != q_list:
        raise _UsageError("converge: need an ascending --q-list")
    _converge_usage_problem(args, q_list)
    with _Output(
        args,
        "converge",
        {
            "stat": args.stat,
            "q_list": q_list,
            "h": args.h,
            "alpha": [str(a) for a in (args.alpha or [])],
            "k": args.k,
            "t": [str(t) for t in (args.t or [])],
        },
    ) as out:
        records = []
        ts = args.t or [Fraction(1)]
        for q in q_list:
            _progress(f"converge {args.stat}: Q={q}")
            if args.stat == "S_h":
                records.extend(stats.autocorr_records(q, args.h or [1], ts, workers=args.workers))
            elif args.stat == "moment":
                records.extend(stats.moment_records(q, args.alpha or [Fraction(1)]))
            elif args.stat == "LU":
                records.extend(stats.lu_table_records(q, args.k or [1], ts))
            else:
                records.extend(stats.partial_records(q, ts))

        rows = [
            [rec.order, rec.stat, rec.parameter, _cell(rec.exact_value), _cell(rec.prediction),
             _real(rec.ratio), _real(abs(rec.ratio - 1)), rec.error_bound_form]
            for rec in records
        ]
        out.write_rows(["Q", "stat", "param", "exact", "prediction", "ratio", "abs_dev", "error_bound"],
                       rows)
        out.finish()
    return 0


def cmd_orbit(args) -> int:
    from . import farey

    if args.format == "json":
        raise _UsageError("orbit: --format json is not supported; the dump is CSV")
    if args.x is not None and args.y is not None and args.q is None:
        start = (args.x, args.y)
        if not (0 < args.x <= 1 and 0 < args.y <= 1 and args.x + args.y > 1):
            raise _UsageError(
                "orbit: the start (x, y) must lie in the Farey triangle 0 < x, y <= 1 < x + y")
    elif args.q is not None and args.q >= 1 and args.x is None and args.y is None:
        start = (Fraction(1, args.q), Fraction(1))
    else:
        raise _UsageError("orbit: give either --q >= 1 or both --x and --y")
    if args.r is not None and args.r < 0:
        raise _UsageError("orbit: --r must be >= 0")
    r = args.r if args.r is not None else (farey.totient_summatory(args.q) if args.q else 10)
    with _Output(args, "orbit", {"x": str(start[0]), "y": str(start[1]), "r": r}) as out:
        # no field needs CSV quoting, so each line is one f-string; kappa is
        # empty on the first and last rows
        lines = itertools.chain(["i,L_i,kappa_i\n"],
                                (f"{i},{L},{k}\n" for i, L, k in _orbit_rows(*start, r)))
        while block := "".join(itertools.islice(lines, _BLOCK_ROWS)):
            out.write(block)
        out.finish()
    return 0


def _orbit_rows(x: Fraction, y: Fraction, r: int):
    """The rows (i, L_i, kappa_i), i = 0..r+1, of the orbit of (x, y), one at a time.

    As in `bcz.orbit`, L_i = Y/D over the start's common denominator D, and
    L_{i+1} = kappa_i L_i - L_{i-1}; it is printed in lowest terms as
    `str(Fraction)` prints it, without building the Fraction.
    """
    from . import farey

    den = math.lcm(x.denominator, y.denominator)

    def ratio(n: int) -> str:
        g = math.gcd(n, den)
        return str(n // g) if g == den else f"{n // g}/{den // g}"

    before, last = int(x * den), int(y * den)
    yield 0, ratio(before), ""
    # row i pairs L_i with kappa_i, the index of the step from (L_{i-1}, L_i)
    kappas = itertools.chain.from_iterable(farey.index_blocks(den, before, last, r))
    for i, k in enumerate(kappas, 1):
        yield i, ratio(last), k
        before, last = last, k * last - before
    yield r + 1, ratio(last), ""


def cmd_visible(args) -> int:
    from . import bcz, stats
    from .geometry import ConvexPolygon, polygon_area

    if args.scale < 1:
        raise _UsageError("visible: --scale must be >= 1")
    if any(index is not None and index < 1 for index in (args.k, args.star)):
        raise _UsageError("visible: --k and --star must be >= 1")
    if args.square:
        region = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        label = "unit_square"
    elif args.star:
        region = bcz.region_star_polygon(args.star)
        label = f"star_{args.star}"
    elif args.k:
        region = bcz.region_polygon(args.k)
        label = f"region_{args.k}"
    else:
        region = bcz.FAREY_TRIANGLE
        label = "triangle"
    with _Output(args, "visible", {"region": label, "scale": args.scale}) as out:
        count = stats.visible_points_count(region, args.scale)
        area = polygon_area(region)
        predicted = 6 * float(area) * args.scale**2 / math.pi**2
        ratio = count / predicted if predicted else math.nan
        out.write_rows(["region", "scale", "count", "area", "predicted", "ratio"],
                       [[label, args.scale, count, str(area), _real(predicted), _real(ratio)]])
        out.finish()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farey-index",
        description="Exact Farey index statistics and transfer-map geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the data payload to this file")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="payload format"
        )
        p.add_argument(
            "--workers",
            type=_worker_count,
            default="1",
            help="chunk count of the converge S_h walk, recorded in every manifest (default 1)",
        )

    p = sub.add_parser("identities", help="exact identity checks for all Q <= bound")
    p.add_argument("--q", type=int, required=True, help="largest order to check")
    add_common(p)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("constants", help="exact A(h), B_alpha, frequency constants")
    p.add_argument("--h", type=_parse_int_list, help="comma list of lags")
    p.add_argument("--alpha", type=_parse_fraction_list, help="comma list of exponents")
    p.add_argument("--k", type=int, help="largest frequency index to print")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="largest accepted certified half-width of each non-integer B_alpha; "
                        "exit 1 if the double-precision evaluation cannot reach it")
    add_common(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("tables", help="star-intersection area table as CSV")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("converge", help="exact statistics against predictions")
    p.add_argument("stat", choices=("S_h", "moment", "LU", "partial"))
    orders = p.add_mutually_exclusive_group()
    orders.add_argument("--q", type=int, help="single order (alternative to --q-list)")
    orders.add_argument("--q-list", dest="q_list", type=_parse_int_list,
                        help="ascending comma list of orders")
    p.add_argument("--h", type=_parse_int_list, help="comma list of lags (S_h)")
    p.add_argument("--alpha", type=_parse_fraction_list, help="comma list of exponents (moment)")
    p.add_argument("--k", type=_parse_int_list, help="comma list of index values (LU)")
    p.add_argument("--t", type=_parse_fraction_list, help='comma list of rational cutoffs, e.g. "1/3"')
    add_common(p)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("orbit", help="kappa-sequence dump for a map orbit")
    p.add_argument("--q", type=int, help="start at (1/Q, 1), the orbit of F_Q")
    p.add_argument("--x", type=_parse_fraction, help="explicit start x")
    p.add_argument("--y", type=_parse_fraction, help="explicit start y")
    p.add_argument("--r", type=int, help="number of steps (default N(Q))")
    add_common(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("visible", help="coprime lattice points in a scaled region")
    p.add_argument("--scale", type=int, required=True)
    region = p.add_mutually_exclusive_group()
    region.add_argument("--k", type=int, help="count inside region k")
    region.add_argument("--star", type=int, help="count inside star region k")
    region.add_argument("--square", action="store_true", help="count inside the unit square")
    add_common(p)
    p.set_defaults(fn=cmd_visible)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if not isinstance(value, list):
                continue
            option = "--" + name.replace("_", "-")
            if not value:  # an empty comma list, which must not fall back to a default
                raise _UsageError(f"{args.command}: {option} needs at least one value")
            repeated = [v for i, v in enumerate(value) if v in value[:i]]
            if repeated:  # it would be computed and printed twice
                raise _UsageError(f"{args.command}: {option} repeats the value {repeated[0]}")
        return args.fn(args)
    except _UsageError as exc:
        _progress(str(exc))
        return 2
    except (ValueError, MemoryError) as exc:  # aborted: every GeometryError is a ValueError
        _progress(f"error: {exc if isinstance(exc, ValueError) else 'out of memory'}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

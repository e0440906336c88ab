"""Seeded inputs, command lines, element counts and correctness checks.

The CLI processes receive only the argument lists built here.  Everything the
checks compare against is computed in this file by routes independent of the
package (a Moebius count of Farey elements, a sorted list of reduced
fractions), so the benchmark process never imports `farey_index`.
"""

from __future__ import annotations

import csv
import io
import math
import random
from fractions import Fraction

WORKLOADS = ("enumerate", "enumerate-pool", "geometry")

# Published exact constants the `constants` payload must reproduce.
EXPECTED_CONSTANT_LINES = ("A(1) = 192/35", "A(2) = 796727/90090", "B(1) = 3/2 (exact)")


def _rationals(lo: Fraction, hi: Fraction, max_den: int) -> list[Fraction]:
    found = {
        Fraction(p, q)
        for q in range(1, max_den + 1)
        for p in range(1, q + 1)
        if lo <= Fraction(p, q) <= hi
    }
    return sorted(found)


# The work of a pass should not depend on the seed, or the spread between
# seeds would hide the program's own.  So the S_h cutoff t is drawn near 1/2
# and LU takes 1 - t, and the partial-sum command takes a pair t', 1 - t':
# #{gamma <= t} + #{gamma <= 1 - t} = N(Q) + [t = 1/2].
_T_BAND = _rationals(Fraction(2, 5), Fraction(3, 5), 12)
_T_SPLIT = [t for t in _rationals(Fraction(1, 5), Fraction(4, 5), 12) if t != Fraction(1, 2)]
_ALPHA_BELOW_ONE = _rationals(Fraction(1, 12), Fraction(11, 12), 12)
# B_alpha sums 2^19 terms for each of these at tol 1e-8, so the heavy
# non-integer exponent costs the same on every seed; alpha <= 3/2 keeps
# b_alpha from swamping the workload.
_ALPHA_HEAVY = [Fraction(7, 5), Fraction(17, 12), Fraction(10, 7), Fraction(13, 9), Fraction(16, 11)]


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """The workload's parameters, drawn from `seed` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload.replace('-pool', '')}:{seed}")
    if workload == "geometry":
        return {
            "h_max": 2 if smoke else 8,
            "alphas": [Fraction(1), rng.choice(_ALPHA_BELOW_ONE)]
            + ([] if smoke else [rng.choice(_ALPHA_HEAVY)]),
            "k_max": 5 if smoke else 50,
            "table_h": rng.choice((1, 2) if smoke else (6, 7)),
            "table_m": 3 if smoke else 9,
            "orbit_q": rng.randint(18, 22) if smoke else rng.randint(297, 303),
        }
    q = rng.randint(48, 52) if smoke else rng.randint(2995, 3005)
    t = rng.choice(_T_BAND)
    t_split = rng.choice(_T_SPLIT)
    return {
        "q": q,
        "q_low": q // 2,
        "h": [1, 2] if smoke else [1, 2, 3],
        "t_autocorr": t,
        "alpha": rng.choice(_ALPHA_BELOW_ONE),
        "k": sorted(rng.sample(range(1, 6), 3)),
        "t_lu": 1 - t,
        "t_partial": [t_split, 1 - t_split],
        "identities_q": rng.randint(8, 12) if smoke else rng.randint(148, 152),
        "visible_scale": rng.randint(28, 32) if smoke else rng.randint(595, 605),
    }


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def commands(workload: str, inputs: dict) -> list[list[str]]:
    """Argument lists of one pass, in the order they run."""
    if workload == "geometry":
        return [
            ["constants", "--h", _csv(range(1, inputs["h_max"] + 1)),
             "--alpha", _csv(inputs["alphas"]), "--k", str(inputs["k_max"])],
            ["tables", "--h", str(inputs["table_h"]), "--M", str(inputs["table_m"])],
            ["orbit", "--q", str(inputs["orbit_q"])],
        ]
    workers = "2" if workload == "enumerate-pool" else "1"
    q = str(inputs["q"])
    cmds = [
        ["converge", "S_h", "--q-list", _csv([inputs["q_low"], inputs["q"]]),
         "--h", _csv(inputs["h"]), "--t", _csv([inputs["t_autocorr"], 1])],
        ["converge", "moment", "--q-list", q, "--alpha", _csv([1, 2, inputs["alpha"]])],
        ["converge", "LU", "--q-list", q, "--k", _csv(inputs["k"]), "--t", str(inputs["t_lu"])],
        ["converge", "partial", "--q-list", q, "--t", _csv(inputs["t_partial"])],
    ]
    if workload == "enumerate":
        cmds += [["identities", "--q", str(inputs["identities_q"])],
                 ["visible", "--scale", str(inputs["visible_scale"])]]
    return [cmd + ["--workers", workers] for cmd in cmds]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _moebius(n: int) -> list[int]:
    mu = [1] * (n + 1)
    is_composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if not is_composite[p]:
            for m in range(p, n + 1, p):
                is_composite[m] = m != p
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def farey_count(q_max: int, t=Fraction(1)) -> int:
    """#{a/q in F_Q : a/q <= t}, by Moebius inversion over the divisors of q."""
    t = Fraction(t)
    mu = _moebius(q_max)
    total = 0
    for d in range(1, q_max + 1):
        if mu[d]:
            total += mu[d] * sum(
                (t.numerator * q // t.denominator) // d for q in range(d, q_max + 1, d)
            )
    return total


def farey_indices(q_max: int) -> list[int]:
    """Index sequence of F_Q from the sorted list of all reduced fractions."""
    fractions = sorted(
        ((a, q) for q in range(1, q_max + 1) for a in range(1, q + 1) if math.gcd(a, q) == 1),
        key=lambda f: Fraction(*f),
    )
    dens = [1] + [q for _, q in fractions]
    return [(q_max + dens[i - 1]) // dens[i] for i in range(1, len(dens))]


def elements(workload: str, inputs: dict) -> int:
    """Logical Farey elements one pass covers; fixed by the inputs, not the route.

    Each statistic counts the elements it ranges over: N(Q) for a whole-period
    statistic, #{gamma <= t} for a t-restricted one.  `identities` walks every
    order up to its bound twice (index sum and count identity).  On `geometry`
    the orbit of (1/Q, 1) covers the N(Q) elements of F_Q.
    """
    if workload == "geometry":
        return farey_count(inputs["orbit_q"])
    q, q_low = inputs["q"], inputs["q_low"]
    n_q = farey_count(q)
    per_h = farey_count(q_low) + farey_count(q_low, inputs["t_autocorr"]) + n_q + farey_count(
        q, inputs["t_autocorr"]
    )
    total = len(inputs["h"]) * per_h
    total += 3 * n_q  # moment: alpha = 1, alpha = 2, the non-integer alpha
    total += len(inputs["k"]) * farey_count(q, inputs["t_lu"])
    total += sum(farey_count(q, t) for t in inputs["t_partial"])
    if workload == "enumerate":
        total += 2 * sum(farey_count(j) for j in range(1, inputs["identities_q"] + 1))
    return total


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_outputs(workload: str, inputs: dict, results: list, reference=None) -> list[list[str]]:
    """Problems found with each command of a pass, one list per command.

    `results` holds (exit code, stdout bytes) per command, in `commands` order.
    `reference` holds the payloads of the same commands run with one worker;
    pooled payloads must equal them byte for byte.
    """
    problems: list[list[str]] = [[] for _ in results]
    for i, (code, _) in enumerate(results):
        if code != 0:
            problems[i].append(f"exit code {code}")
    texts = [out.decode("utf-8", "replace") for _, out in results]

    if workload == "geometry":
        lines = texts[0].splitlines()
        for expected in EXPECTED_CONSTANT_LINES:
            if expected not in lines:
                problems[0].append(f"missing line {expected!r}")
        problems[1] += _check_table(texts[1], inputs["table_m"])
        kappas = [row[2] for row in list(csv.reader(io.StringIO(texts[2])))[1:] if len(row) > 2 and row[2]]
        if kappas != [str(k) for k in farey_indices(inputs["orbit_q"])]:
            problems[2].append("orbit kappa column differs from the index sequence of F_Q")
        return problems

    moment = {row.get("param"): row.get("exact") for row in csv.DictReader(io.StringIO(texts[1]))}
    expected_sum = 3 * farey_count(inputs["q"]) - 1
    if moment.get("alpha=1") != str(expected_sum):
        problems[1].append(f"alpha=1 moment {moment.get('alpha=1')} != 3N(Q)-1 = {expected_sum}")
    if workload == "enumerate":
        last = texts[4].strip().splitlines()[-1:] or [""]
        if not last[0].startswith("identities: PASS"):
            problems[4].append(f"identities did not print PASS: {last[0]!r}")
    if reference is not None:
        for i, ((_, out), (_, ref)) in enumerate(zip(results, reference)):
            if out != ref:
                problems[i].append("payload differs from the one-worker payload")
    return problems


def _check_table(text: str, size: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    cells = [row[1:] for row in rows[1:]]
    if len(cells) != size or any(len(row) != size for row in cells):
        return [f"table is not {size}x{size}"]
    if any(cells[m][n] != cells[n][m] for m in range(size) for n in range(m)):
        return ["table is not symmetric"]
    return []

"""The benchmark workloads: CLI command sequences and their output checks.

A workload is a list of commands that one client runs in one fresh
interpreter (an "op"), repeated in a closed loop.  `prep` runs once before
timing starts; for the warm workloads it fills the count cache that every op
then reads.  Each command carries a check that compares the JSON document it
prints with a reference from `references`, not from the package under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from references import index_matrices, vectors_of_norm

FAY_DOC = Path(__file__).resolve().parent / "fay_genus2_e8.json"


@dataclass(frozen=True)
class Command:
    argv: tuple
    # (exit code, parsed stdout document) -> list of problems, empty if correct
    check: Callable[[int, dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    prep: tuple                      # Commands, run once and untimed
    ops: Callable[[int], tuple]      # k -> Commands of the k-th op
    cold: bool                       # each op starts from an empty cache
    # per-layer metrics that a traced op must report as exactly 0
    zero_in_trace: tuple = ()


def _expect(cond: bool, what: str, problems: list):
    if not cond:
        problems.append(what)


# -- checks ------------------------------------------------------------------


def check_schottky_verify(g: int, max_trace: int):
    """F_g = theta(E8+E8) - theta(D16+) vanishes for g <= 3, and the first
    nonzero coefficient of F_4 has trace 8 (diagonal (2,2,2,2)).  So below
    trace 8 every scanned coefficient is zero: genus <= 3 reports `pass`
    (exit 0); genus 4 reports no nonzero index, status `fail` (exit 1)."""
    if g >= 4 and max_trace >= 8:
        raise ValueError("the reference covers genus-4 scans below trace 8")
    want_checked = len(index_matrices(g, max_trace))

    def check(code, doc):
        problems = []
        _expect(doc.get("checked") == want_checked,
                f"checked {doc.get('checked')} != {want_checked}", problems)
        if g <= 3:
            _expect(code == 0 and doc.get("status") == "pass",
                    f"genus {g}: exit {code}, status {doc.get('status')}",
                    problems)
            _expect("counterexample" not in doc, "counterexample reported",
                    problems)
        else:
            _expect(code == 1 and doc.get("status") == "fail",
                    f"genus {g}: exit {code}, status {doc.get('status')}",
                    problems)
            _expect(doc.get("nonzero_indices") == [],
                    "nonzero coefficient below trace 8", problems)
            _expect("first_nonzero" not in doc, "first_nonzero reported",
                    problems)
        return problems
    return check


def check_theta_coeffs(lattice: str, g: int, max_trace: int):
    """Summing the coefficients over the off-diagonal entries counts all
    g-tuples with the given norms, so it equals prod_p N(d_p), with N(n)
    from the genus-1 Eisenstein series.  The index set must be the full
    set of trace <= max_trace index matrices."""
    want_keys = sorted(index_matrices(g, max_trace))
    diag_pos = [p * g - p * (p - 1) // 2 for p in range(g)]

    def check(code, doc):
        problems = []
        _expect(code == 0, f"exit {code}", problems)
        entries = doc.get("entries", [])
        keys = sorted(tuple(e["S"]) for e in entries)
        _expect(keys == want_keys, "index set differs from the reference",
                problems)
        sums = {}
        for e in entries:
            diag = tuple(e["S"][i] for i in diag_pos)
            a = int(e["a"])
            _expect(a >= 0, f"negative count at {e['S']}", problems)
            sums[diag] = sums.get(diag, 0) + a
        for diag, total in sums.items():
            want = math.prod(vectors_of_norm(lattice, d) for d in diag)
            _expect(total == want,
                    f"diagonal {diag}: sum {total} != {want}", problems)
        return problems
    return check


def check_eval(tolerance: float = 1e-8):
    """The series and the direct sum agree; the relative difference is
    recomputed from the two reported values."""
    def check(code, doc):
        problems = []
        _expect(code == 0 and doc.get("status") == "pass",
                f"exit {code}, status {doc.get('status')}", problems)
        a, b = complex(*doc["value"]), complex(*doc["direct_value"])
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        _expect(rel <= tolerance, f"relative difference {rel:.3e}", problems)
        return problems
    return check


def check_fay(code, doc):
    problems = []
    _expect(code == 0 and doc.get("status") == "pass",
            f"exit {code}, status {doc.get('status')}", problems)
    failed = [c["name"] for c in doc.get("checks", [])
              if c.get("status") != "pass"]
    _expect(not failed, f"failed checks {failed}", problems)
    _expect(len(doc.get("checks", [])) == 4, "expected four checks",
            problems)
    return problems


# -- workloads ---------------------------------------------------------------


def verify_warm(seed: int, g: int = 4, max_trace: int = 6) -> Workload:
    argv = ("schottky-verify", "--genus", str(g), "--max-trace",
            str(max_trace))
    cmd = Command(argv, check_schottky_verify(g, max_trace))
    return Workload("verify-warm", prep=(cmd,), ops=lambda k: (cmd,),
                    cold=False,
                    zero_in_trace=("cache.misses", "lattices.shells_calls"))


def coeffs_cold(seed: int, lattice: str = "D16plus", g: int = 2,
                max_trace: int = 6) -> Workload:
    argv = ("theta-coeffs", "--lattice", lattice, "--genus", str(g),
            "--max-trace", str(max_trace))
    cmd = Command(argv, check_theta_coeffs(lattice, g, max_trace))
    return Workload("coeffs-cold", prep=(cmd,), ops=lambda k: (cmd,),
                    cold=True)


def random_tau(rng: random.Random) -> str:
    """A 2x2 Siegel point: real part in [-1/2, 1/2], imaginary part
    [[a, c], [c, b]] with a, b in [0.9, 1.4] and |c| <= 0.2 (positive
    definite), as the CLI's JSON matrix of [re, im] pairs."""
    a, b = rng.uniform(0.9, 1.4), rng.uniform(0.9, 1.4)
    c = rng.uniform(-0.2, 0.2)
    x = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    rows = [[[x[0], a], [x[1], c]], [[x[1], c], [x[2], b]]]
    return json.dumps(rows)


def two_path(seed: int, lattice: str = "D16plus",
             max_trace: int = 4) -> Workload:
    """`eval` at two seeded tau points with budget = max_trace, so the
    series and the direct sum cover the same tuples, then `fay-check` on
    the fixed genus-2 E8 document."""
    taus = random.Random(seed)
    fay_cmd = Command(("fay-check", "--input", str(FAY_DOC)), check_fay)
    eval_check = check_eval()

    def eval_cmd(tau):
        return Command(("eval", "--lattice", lattice, "--genus", "2",
                        "--max-trace", str(max_trace),
                        "--budget", str(max_trace), "--tau", tau),
                       eval_check)

    # op k evaluates at points 2k and 2k+1 of the seeded tau sequence
    points = []

    def ops(k):
        while len(points) < 2 * k + 2:
            points.append(random_tau(taus))
        return (eval_cmd(points[2 * k]), eval_cmd(points[2 * k + 1]),
                fay_cmd)

    return Workload("two-path", prep=ops(0), ops=lambda k: ops(k + 1),
                    cold=False, zero_in_trace=("cache.misses",))


WORKLOADS = {
    "verify-warm": verify_warm,
    "coeffs-cold": coeffs_cold,
    "two-path": two_path,
}

"""Command-line front end.

Each subcommand returns (exit code, document) and prints nothing; `main`
stamps the document with `command` and `generated_at`, or replaces it with
{"error": ...} when the subcommand raises a usage or input error, and writes
it to standard output as one line of JSON with sorted keys.  Exit codes:
0 success / verification passed, 1 verification failed (the JSON carries the
counterexample), 2 usage or input error, including a command line that the
parser rejects and, for a subcommand that takes --cache, an unusable cache
file.  Only --help prints text instead, and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import indices as idx
from .cache import ENV_CACHE_PATH, cache_from_env
from .counting import CountEngine
from .expansion import FourierExpansion, SiegelPoint, check_table_bound, \
    evaluate, json_complex, siegel_operator
from .fay import DegenerationData, fay_check
from .lattices import lattice_by_id, shell_sizes, short_vector_shells
from .schottky import nonzero_report, verify_vanishing
from .theta import default_norm_budget, theta_eval, theta_expansion

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# relative difference within which eval's two paths agree
_EVAL_TOLERANCE = 1e-8


class UsageError(Exception):
    """Bad command-line input or malformed input file."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError where argparse would print
    usage and exit 2; add_subparsers makes its subparsers of this class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_tau(text: str, g: int) -> SiegelPoint:
    """Parse a tau argument: either a complex scalar z (meaning z * identity)
    or a JSON matrix whose entries expansion.json_complex reads.

    Scalar grammar: [real [+|-]] imag "i", e.g. "i", "1.2i", "0.3+1.2i".
    """
    text = text.strip()
    if text.startswith("["):
        try:
            tau = tuple(tuple(map(json_complex, row))
                        for row in json.loads(text))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad tau matrix: {exc}") from None
        return SiegelPoint(g, tau)
    try:
        z = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise UsageError(f"bad tau expression {text!r}") from None
    return SiegelPoint.scalar(g, z)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read JSON from {path!r}: {exc}") from None


# -- subcommands -----------------------------------------------------------


def cmd_lattice_enum(args, cache) -> tuple:
    lat = lattice_by_id(args.lattice)
    doc = {"lattice": lat.name, "rank": lat.rank, "max_norm": args.max_norm}
    if args.vectors:
        shells = short_vector_shells(lat, args.max_norm)
        doc["vectors"] = {str(m): v.tolist() for m, v in shells.items()}
    # from the theta series' modular form, never from the shells above, so
    # with --vectors the document carries two independent counts
    doc["shell_sizes"] = {str(m): int(c) for m, c in
                          shell_sizes(lat, args.max_norm).items()}
    return EXIT_OK, doc


def cmd_theta_coeffs(args, cache) -> tuple:
    lat = lattice_by_id(args.lattice)
    doc = theta_expansion(lat, args.genus, args.max_trace, cache=cache).to_json()
    doc["lattice"] = lat.name
    return EXIT_OK, doc


def cmd_siegel_phi(args, cache) -> tuple:
    try:
        f = FourierExpansion.from_json(_read_doc(args.input))
        return EXIT_OK, siegel_operator(f).to_json()
    except ValueError as exc:
        raise UsageError(f"bad expansion document: {exc}") from None


def cmd_schottky_verify(args, cache) -> tuple:
    if 1 <= args.genus <= 3:
        rep = verify_vanishing(args.genus, args.max_trace, cache=cache)
    else:
        rep = nonzero_report(args.genus, args.max_trace, cache=cache)
        nonzero = rep["nonzero_indices"]
        # from genus 4 on the expected outcome is a nonzero difference
        rep["status"] = "pass" if nonzero else "fail"
        if nonzero:
            rep["first_nonzero"] = dict(nonzero[0])
    return (EXIT_OK if rep["status"] == "pass" else EXIT_FAIL), rep


def cmd_eval(args, cache) -> tuple:
    lat = lattice_by_id(args.lattice)
    point = parse_tau(args.tau, args.genus)
    budget = args.budget if args.budget is not None \
        else default_norm_budget(args.max_trace)
    # every input rule runs before the first count: the index table's, then
    # the direct sum's (even budget, int64 and int16 bounds)
    idx.index_table(args.genus, args.max_trace)
    direct = theta_eval(lat, args.genus, point, budget)
    f = theta_expansion(lat, args.genus, args.max_trace, cache=cache)
    from_series = evaluate(f, point)
    a, b = complex(from_series.value), complex(direct.value)
    diff = abs(a - b)
    scale = max(abs(a), abs(b), 1e-300)
    rel = diff / scale
    passed = rel <= _EVAL_TOLERANCE
    return (EXIT_OK if passed else EXIT_FAIL), {
        "lattice": lat.name,
        "genus": args.genus,
        "max_trace": args.max_trace,
        "norm_budget": budget,
        "value": [a.real, a.imag],
        "direct_value": [b.real, b.imag],
        "series_tail_estimate": from_series.tail_estimate,
        "direct_tail_estimate": direct.tail_estimate,
        "rel_difference": rel,
        "tolerance": _EVAL_TOLERANCE,
        "status": "pass" if passed else "fail",
    }


def cmd_fay_check(args, cache) -> tuple:
    try:
        data = DegenerationData.from_json(_read_doc(args.input))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad degeneration-data document: {exc}") from None
    g = data.g
    max_trace = args.max_trace if args.max_trace is not None \
        else (8 if g <= 2 else 6)
    # the checks build the genus-(g+1) table: bound it as siegel-phi does
    check_table_bound(g + 1, max_trace)
    lat = lattice_by_id(args.lattice)
    rep = fay_check(data, theta_expansion(lat, g + 1, max_trace, cache=cache))
    rep["lattice"] = lat.name
    rep["max_trace"] = max_trace
    return (EXIT_OK if rep["status"] == "pass" else EXIT_FAIL), rep


def cmd_cache_stats(args, cache) -> tuple:
    doc = cache.stats()
    code = EXIT_OK
    if args.verify_cache:
        def recompute(lattice_id, key):
            try:
                rec = json.loads(key)
                target = idx.from_upper_triangle(rec["g"], rec["u"])
            except (ValueError, KeyError, TypeError) as exc:
                raise UsageError(
                    f"cache key {key!r} is not an index: {exc}") from None
            # fresh engine with its own empty cache: forces real recomputation
            return CountEngine(lattice_by_id(lattice_id)).count(target)
        mismatches = cache.verify_sample(recompute, fraction=args.fraction)
        doc["verified_fraction"] = args.fraction
        doc["mismatches"] = mismatches
        code = EXIT_FAIL if mismatches else EXIT_OK
    return code, doc


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="schottky-workbench",
        description="Siegel theta series, the Schottky form, and "
                    "first-order period-matrix degenerations.")
    sub = top.add_subparsers(dest="command", required=True)

    def counts(p, genus=True, trace=True):
        # --cache only where counts are read or written: `main` opens the
        # cache for these subcommands alone
        p.add_argument("--cache", default=None,
                       help=f"cache file path (default: ${ENV_CACHE_PATH})")
        if genus:
            p.add_argument("--genus", type=int, required=True)
        if trace:
            p.add_argument("--max-trace", type=int, required=True)

    p = sub.add_parser("lattice-enum", help="enumerate short vectors by norm")
    p.add_argument("--lattice", required=True)
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--vectors", action="store_true",
                   help="include the coordinate lists, not just shell sizes")
    p.set_defaults(func=cmd_lattice_enum)

    p = sub.add_parser("theta-coeffs", help="exact theta Fourier coefficients")
    p.add_argument("--lattice", required=True)
    counts(p)
    p.set_defaults(func=cmd_theta_coeffs)

    p = sub.add_parser("siegel-phi",
                       help="apply the Siegel operator to an expansion file")
    p.add_argument("--input", required=True, help="expansion JSON ('-' stdin)")
    p.set_defaults(func=cmd_siegel_phi)

    p = sub.add_parser("schottky-verify",
                       help="check vanishing (g <= 3) or locate the first "
                            "nonzero coefficient (g >= 4)")
    counts(p)
    p.set_defaults(func=cmd_schottky_verify)

    p = sub.add_parser("eval",
                       help="evaluate a theta series two ways and compare")
    p.add_argument("--lattice", required=True)
    p.add_argument("--tau", required=True,
                   help='scalar like "i", "1.2i", "0.3+1.2i" (times the '
                        'identity) or a JSON matrix of reals or [re,im] pairs')
    p.add_argument("--budget", type=int, default=None,
                   help="norm budget of the direct sum (default 2*max_trace+4)")
    counts(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fay-check",
                       help="run all degeneration checks on a data file")
    p.add_argument("--input", required=True,
                   help="degeneration-data JSON ('-' stdin)")
    p.add_argument("--lattice", default="E8",
                   help="theta series used as the test form (default E8)")
    p.add_argument("--max-trace", type=int, default=None)
    counts(p, genus=False, trace=False)
    p.set_defaults(func=cmd_fay_check)

    p = sub.add_parser("cache-stats", help="cache statistics and spot checks")
    p.add_argument("--verify-cache", action="store_true",
                   help="recompute a random sample of cached counts")
    p.add_argument("--fraction", type=float, default=0.01)
    counts(p, genus=False, trace=False)
    p.set_defaults(func=cmd_cache_stats)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cache = cache_from_env(args.cache) if "cache" in args else None
        code, doc = args.func(args, cache)
        doc["command"] = args.command
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    except SystemExit:
        # only --help exits, after printing its text: _Parser raises
        # UsageError for a rejected command line
        return EXIT_OK
    except UsageError as exc:
        code, doc = EXIT_USAGE, {"error": str(exc)}
    except (ValueError, KeyError, OSError) as exc:
        code, doc = EXIT_USAGE, {"error": f"{type(exc).__name__}: {exc}"}
    # json.dumps without indent is what runs the C encoder; an indented dump
    # runs the pure-Python one, ten times slower on a large --vectors document
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

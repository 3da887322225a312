"""Benchmark of the schottky-workbench command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's CLI commands in a closed loop, each op in a
fresh interpreter (the package keeps process-wide memos of shells, pair
Gram matrices and count engines, so a second op in the same process would
measure a warmer program).  Ops start until S seconds have passed; every
command's output is checked against an independent reference.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over the ops); with --trace 1 traced and
untraced ops alternate, and the object holds the per-layer metrics of the
median traced op.  Lines before
it report the environment, the untimed preparation and the spread of each
metric.  Exit code 2 means the program under test is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER, invariants, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLIENT = HERE / "client.py"
TMP = ROOT / ".perfbench_tmp"

OP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0   # start no op that would likely end after this


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    setup_s: float
    peak_rss_mb: float
    output_bytes: int
    problems: list
    commands: int
    failed: int
    trace: dict = None


def run_op(workdir: Path, commands, cache: Path, trace: bool) -> Op:
    """Run `commands` in one fresh interpreter and check their outputs."""
    request = workdir / "request.json"
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    request.write_text(json.dumps({
        "commands": [list(c.argv) + ["--cache", str(cache)]
                     for c in commands],
        "trace": trace}))
    with open(workdir / "stderr.txt", "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CLIENT), str(SRC), str(request), str(result)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
            setup_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
            output_bytes=0, problems=[], commands=len(commands),
            failed=len(commands))
    if proc.returncode != 0 or not result.exists():
        tail = (workdir / "stderr.txt").read_text()[-2000:]
        op.problems.append(f"client exited {proc.returncode}: {tail}")
        return op
    doc = json.loads(result.read_text())
    if not Path(doc["package"]).resolve().is_relative_to(SRC.resolve()):
        op.problems.append(f"imported {doc['package']}, not the checkout")
        return op
    if doc["dispatch_at"] is not None:
        op.setup_s = doc["dispatch_at"] - t0
    op.trace = doc.get("trace")
    op.failed = 0
    for cmd, res in zip(commands, doc["commands"]):
        op.output_bytes += len(res["stdout"].encode())
        name = cmd.argv[0]
        if res["error"] is not None:
            problems = [f"raised:\n{res['error']}"]
        else:
            try:
                problems = cmd.check(res["exit"], json.loads(res["stdout"]))
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        op.failed += bool(problems)
        op.problems += [f"{name}: {p}" for p in problems]
    return op


def _shuffle_lines(path: Path, seed: int):
    """The cache file's record order is arbitrary; the seed fixes it."""
    lines = path.read_text().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    path.write_text("".join(lines))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _blas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, if it has one."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": _blas_threads(numpy)}


def measure(wl, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Prepare, run the closed loop, and return the result object."""
    started = perf_counter()
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        warm = workdir / "counts.jsonl"
        t0 = perf_counter()
        prep = run_op(workdir, wl.prep, workdir / "prep.jsonl" if wl.cold
                      else warm, trace=False)
        if prep.problems:
            raise RuntimeError("preparation failed:\n" +
                               "\n".join(prep.problems))
        if not wl.cold:
            _shuffle_lines(warm, seed)
        log(f"# prep: {perf_counter() - t0:.2f} s, untimed")

        ops, traced = [], []
        loop_start = perf_counter()
        while True:
            elapsed = perf_counter() - loop_start
            if ops:
                done = elapsed >= seconds and (traced or not trace)
                last = (traced or ops)[-1].wall_s
                late = perf_counter() - started + 1.5 * last > RUN_LIMIT_S
                if done or late:
                    break
            # traced ops alternate with untraced ones, so both see the
            # same machine; the untraced ones give the tracing overhead
            tracing = trace and len(ops) > len(traced)
            cache = warm
            if wl.cold:
                cache = workdir / "cold.jsonl"
                cache.write_text("")
            op = run_op(workdir, wl.ops(len(ops) + len(traced)), cache,
                        trace=tracing)
            (traced if tracing else ops).append(op)
        if trace and not traced:
            raise RuntimeError("no time left for a traced op")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(op.commands for op in ops + traced)
    failed = 0
    for op in ops + traced:
        failed += op.failed
        for p in op.problems[:5]:
            print(f"FAILED {wl.name}: {p}", file=sys.stderr)

    if not trace:
        metrics = {}
        for m, (unit, _) in END_TO_END.items():
            vals = [getattr(op, m) for op in ops]
            med = statistics.median(vals)
            q1, q3 = _quartiles(vals)
            log(f"# {m}: median {med:.4f} {unit}, quartiles {q1:.4f}"
                f"..{q3:.4f}, {len(vals)} ops")
            metrics[m] = {"value": med, "unit": unit}
    else:
        complete = sorted((o for o in traced if o.trace is not None),
                          key=lambda o: o.wall_s)
        if not complete:
            raise RuntimeError("no traced op completed")
        op = complete[(len(complete) - 1) // 2]
        overhead = statistics.median(o.wall_s for o in traced) - \
            statistics.median(o.wall_s for o in ops)
        layer = layer_metrics(op.trace, op.wall_s, overhead, op.output_bytes)
        problems = invariants(layer, wl.zero_in_trace)
        for p in problems:
            print(f"FAILED {wl.name} trace invariant: {p}", file=sys.stderr)
        failed += len(problems)
        log(f"# traced op {op.wall_s:.2f} s; {len(traced)} traced, "
            f"{len(ops)} untraced ops")
        for m, v in sorted(layer.items()):
            log(f"#   {m} = {v:.4f}" if isinstance(v, float)
                else f"#   {m} = {v}")
        metrics = {m: {"value": layer[m], "unit": PER_LAYER[m][0]}
                   for m in PER_LAYER}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the op it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "schottky_workbench" / "cli.py").is_file():
        print(f"program not found under {SRC}", file=sys.stderr)
        return 2
    print("# environment: " + json.dumps(environment()))
    result = measure(WORKLOADS[args.workload](args.seed), args.seed,
                     args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Small-size self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

Runs each workload at a size that takes seconds (E8 and genus 4 at trace 4)
and checks the harness, not the timings: every declared metric appears with
its unit, each traced layer records work on the workloads the layer map
names, the trace invariants hold, and the harness refuses to run without
the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "verify-warm": lambda: workloads.verify_warm(7, g=4, max_trace=4),
    "coeffs-cold": lambda: workloads.coeffs_cold(7, lattice="E8",
                                                 max_trace=4),
    "two-path": lambda: workloads.two_path(7, lattice="E8"),
}


def test_benchmark_json_matches_declarations():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == \
        {k: v[:2] for k, v in metrics.PER_LAYER.items()}
    # every span has a self-time metric, so they add up to the traced wall
    assert set(metrics.SELF_TIMES.values()) == set(tracer.SPANS)
    assert set(metrics.CALLS.values()) <= set(tracer.SPANS) | \
        set(tracer.COUNTERS)


@pytest.mark.parametrize("name", list(SMALL))
def test_end_to_end_metrics(name):
    res = run.measure(SMALL[name](), 7, 0, trace=False, log=lambda s: None)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m: v["unit"] for m, v in res["metrics"].items()} == \
        {m: unit for m, (unit, _) in metrics.END_TO_END.items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_layers(name):
    res = run.measure(SMALL[name](), 7, 0, trace=True, log=lambda s: None)
    assert res["correct"] and res["failed"] == 0
    got = res["metrics"]
    assert {m: v["unit"] for m, v in got.items()} == \
        {m: v[0] for m, v in metrics.PER_LAYER.items()}
    silent = [m for m, v in metrics.PER_LAYER.items()
              if name in v[3] and got[m]["value"] <= 0]
    assert not silent, f"no work recorded on {name}: {silent}"
    spans = sum(got[m]["value"] for m in metrics.SELF_TIMES)
    assert spans + got["trace.other_s"]["value"] == \
        pytest.approx(got["trace.wall_s"]["value"])


def test_wrappers_reach_every_binding():
    code = ("import sys, json; sys.path.insert(0, sys.argv[1]);"
            "import schottky_workbench.cli, tracer;"
            "print(json.dumps(tracer.install(tracer.Tracer())))")
    out = subprocess.run([sys.executable, "-c", code, str(run.SRC)],
                         cwd=HERE, capture_output=True, text=True, check=True)
    bound = json.loads(out.stdout)
    pkg = "schottky_workbench."
    for span, modules in {
            "lattices.shells": ("lattices", "counting", "theta", "cli"),
            "theta.expansion": ("theta", "schottky", "cli"),
            "expansion.evaluate": ("expansion", "fay", "cli"),
            "schottky.scan": ("schottky", "cli")}.items():
        where = {b.rsplit(".", 1)[0] for b in bound[span]}
        assert {pkg + m for m in modules} <= where, (span, where)


def test_self_time_counts_recursion_once():
    t = tracer.Tracer()

    def countdown(n):
        sum(range(20000))
        return n and wrapped(n - 1)

    wrapped = t.span("rec", countdown)
    outer = t.span("outer", lambda: wrapped(5))
    start = run.perf_counter()
    outer()
    total = run.perf_counter() - start
    assert t.calls["rec"] == 6
    assert 0.9 * total <= t.self_s["rec"] + t.self_s["outer"] <= total


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                          "--workload", "coeffs-cold", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

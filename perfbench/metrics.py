"""Metric declarations and the layer map.

END_TO_END metrics are measured with tracing off; PER_LAYER metrics come
from a traced op.  For each layer metric, PER_LAYER also names the
end-to-end metrics it should move and the workloads on which it must be
nonzero; the self-test holds the harness to this map, and BENCHMARK.json
repeats the names, units and directions.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),        # spawn to exit of one op
    "cpu_s": ("s", "lower"),         # user + sys of the op's process
    "setup_s": ("s", "lower"),       # spawn to first subcommand dispatch
    "peak_rss_mb": ("MB", "lower"),  # ru_maxrss of the op's process
}

VW, CC, TP = "verify-warm", "coeffs-cold", "two-path"
ALL = (VW, CC, TP)
WALL, WALL_CPU, WALL_RSS = ("wall_s",), ("wall_s", "cpu_s"), \
    ("wall_s", "peak_rss_mb")

# name -> (unit, better, end-to-end metrics it should move, nonzero on)
PER_LAYER = {
    "lattices.shells_self_s": ("s", "lower", WALL_RSS, (CC, TP)),
    "lattices.shells_calls": ("count", "lower", WALL, (CC, TP)),
    "lattices.vectors_max": ("count", "lower", ("peak_rss_mb",), (CC, TP)),
    "indices.canonical_self_s": ("s", "lower", WALL_CPU, (VW,)),
    "indices.canonical_calls": ("count", "lower", WALL_CPU, ALL),
    "indices.psd_self_s": ("s", "lower", WALL_CPU, (VW,)),
    "indices.psd_calls": ("count", "lower", WALL_CPU, ALL),
    "indices.enumerate_self_s": ("s", "lower", WALL_CPU, (VW,)),
    "indices.enumerate_calls": ("count", "lower", WALL_CPU, ALL),
    "indices.validate_calls": ("count", "lower", WALL_CPU, ALL),
    "counting.count_self_s": ("s", "lower", WALL_RSS, (CC,)),
    "counting.count_calls": ("count", "lower", WALL, ALL),
    "cache.load_s": ("s", "lower", ("setup_s",), (VW, TP)),
    "cache.loaded_records": ("count", "lower", ("setup_s",), (VW, TP)),
    "cache.get_self_s": ("s", "lower", WALL, (VW,)),
    "cache.hits": ("count", "higher", WALL, (VW, TP)),
    "cache.misses": ("count", "lower", WALL, (CC,)),
    "cache.hit_ratio": ("ratio", "higher", WALL, (VW, TP)),
    "cache.put_self_s": ("s", "lower", WALL, (CC,)),
    "cache.puts": ("count", "lower", WALL, (CC,)),
    "expansion.construct_self_s": ("s", "lower", WALL, (VW,)),
    "expansion.construct_calls": ("count", "lower", WALL, ALL),
    "expansion.coefficient_calls": ("count", "lower", WALL, (VW,)),
    "expansion.evaluate_self_s": ("s", "lower", WALL, (TP,)),
    "expansion.evaluate_calls": ("count", "lower", WALL, (TP,)),
    "theta.eval_self_s": ("s", "lower", WALL_CPU, (TP,)),
    "theta.expansion_self_s": ("s", "lower", WALL, ALL),
    "theta.expansion_calls": ("count", "lower", WALL, ALL),
    "schottky.expansion_self_s": ("s", "lower", WALL, (VW,)),
    "schottky.expansion_builds": ("count", "lower", WALL, (VW,)),
    "schottky.scan_self_s": ("s", "lower", WALL, (VW,)),
    "fay.check_self_s": ("s", "lower", WALL, (TP,)),
    "fay.coefficient_calls": ("count", "lower", WALL, (TP,)),
    "cli.dispatch_self_s": ("s", "lower", WALL, ALL),
    "cli.output_bytes": ("bytes", "lower", WALL, ALL),
    "trace.wall_s": ("s", "lower", WALL, ALL),
    "trace.other_s": ("s", "lower", ("wall_s", "setup_s"), ALL),
    "trace.overhead_s": ("s", "lower", (), ()),
}

# per-layer self-time metric -> span it reads; together they cover every span
SELF_TIMES = {
    "lattices.shells_self_s": "lattices.shells",
    "indices.canonical_self_s": "indices.canonical",
    "indices.psd_self_s": "indices.psd",
    "indices.enumerate_self_s": "indices.enumerate",
    "counting.count_self_s": "counting.count",
    "cache.load_s": "cache.load",
    "cache.get_self_s": "cache.get",
    "cache.put_self_s": "cache.put",
    "expansion.construct_self_s": "expansion.construct",
    "expansion.evaluate_self_s": "expansion.evaluate",
    "theta.eval_self_s": "theta.eval",
    "theta.expansion_self_s": "theta.expansion",
    "schottky.expansion_self_s": "schottky.expansion",
    "schottky.scan_self_s": "schottky.scan",
    "fay.check_self_s": "fay.check",
    "cli.dispatch_self_s": "cli.dispatch",
}

# per-layer call-count metric -> span or counter it reads
CALLS = {
    "lattices.shells_calls": "lattices.shells",
    "indices.canonical_calls": "indices.canonical",
    "indices.psd_calls": "indices.psd",
    "indices.enumerate_calls": "indices.enumerate",
    "indices.validate_calls": "indices.validate",
    "counting.count_calls": "counting.count",
    "cache.puts": "cache.put",
    "expansion.construct_calls": "expansion.construct",
    "expansion.coefficient_calls": "expansion.coefficient",
    "expansion.evaluate_calls": "expansion.evaluate",
    "theta.expansion_calls": "theta.expansion",
    "schottky.expansion_builds": "schottky.expansion",
    "fay.coefficient_calls": "fay.coefficient",
}


def layer_metrics(trace: dict, wall_s: float, overhead_s: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics of one traced op from its span/counter snapshot;
    `overhead_s` is the median traced minus the median untraced wall."""
    self_s, calls, values = trace["self_s"], trace["calls"], trace["values"]
    out = {m: self_s.get(span, 0.0) for m, span in SELF_TIMES.items()}
    out.update({m: calls.get(name, 0) for m, name in CALLS.items()})
    hits = values.get("cache.hits", 0)
    misses = values.get("cache.misses", 0)
    out.update({
        "lattices.vectors_max": values.get("lattices.vectors_max", 0),
        "cache.loaded_records": values.get("cache.loaded_records", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall_s,
        "trace.other_s": wall_s - sum(self_s.values()),
        "trace.overhead_s": overhead_s,
    })
    return out


def invariants(layer: dict, zero_in_trace=()) -> list:
    """Problems with a traced op's layer metrics; empty when they hold."""
    problems = []
    if layer["cache.hits"] + layer["cache.misses"] != \
            layer["counting.count_calls"]:
        problems.append("cache hits + misses != count calls")
    if layer["cache.misses"] != layer["cache.puts"]:
        problems.append("cache misses != puts")
    if layer["trace.other_s"] < 0:
        problems.append("span self times exceed the traced wall time")
    problems += [f"{m} = {layer[m]}, expected 0" for m in zero_in_trace
                 if layer[m] != 0]
    return problems

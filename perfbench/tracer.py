"""Spans and counters around the package's public functions, installed from
outside the package.

A wrapper replaces the original object in every loaded `schottky_workbench`
module that binds it (functions imported by name, such as
`short_vector_shells` in `counting`, `theta` and `cli`, are separate
bindings), and methods are replaced on their class.  Spans live on a
per-thread stack; a span's self time is its duration minus that of its
child spans, so recursive calls (`CountEngine.count` recurses through its
reductions) are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "schottky_workbench"

# span name -> (module, attribute paths)
SPANS = {
    "lattices.shells": ("lattices", ("short_vector_shells",)),
    "indices.canonical": ("indices", ("canonical_signed_perm",)),
    "indices.psd": ("indices", ("is_psd",)),
    "indices.enumerate": ("indices", ("enumerate_indices",)),
    "counting.count": ("counting", ("CountEngine.count",)),
    "cache.load": ("cache", ("CountCache._load",)),
    "cache.get": ("cache", ("CountCache.get",)),
    "cache.put": ("cache", ("CountCache.put",)),
    "expansion.construct": ("expansion", ("FourierExpansion.__init__",)),
    "expansion.evaluate": ("expansion", ("evaluate",)),
    "theta.eval": ("theta", ("theta_eval",)),
    "theta.expansion": ("theta", ("theta_expansion",)),
    "schottky.expansion": ("schottky", ("schottky_expansion",)),
    "schottky.scan": ("schottky", ("verify_vanishing", "first_nonzero_index",
                                   "nonzero_report")),
    "fay.check": ("fay", ("fay_check",)),
    "cli.dispatch": ("cli", ("cmd_lattice_enum", "cmd_theta_coeffs",
                             "cmd_siegel_phi", "cmd_schottky_verify",
                             "cmd_eval", "cmd_fay_check", "cmd_cache_stats")),
}

# counter name -> (module, attribute paths); calls only, no span
COUNTERS = {
    "indices.validate": ("indices", ("validate_index",)),
    "expansion.coefficient": ("expansion", ("FourierExpansion.coefficient",)),
    "fay.coefficient": ("fay", ("coefficient_A", "coefficient_B")),
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(int)   # counters derived from results

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.self_s[name] += dt - children[0]
                    self.calls[name] += 1
            if on_result is not None:
                with self._lock:
                    on_result(self.values, result, args)
            return result
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "values": dict(self.values)}


def _shells_seen(values, shells, args):
    total = sum(len(v) for v in shells.values())
    values["lattices.vectors_max"] = max(values["lattices.vectors_max"], total)


def _cache_get_seen(values, got, args):
    values["cache.misses" if got is None else "cache.hits"] += 1


def _cache_loaded(values, result, args):
    values["cache.loaded_records"] += args[0].loaded_records


ON_RESULT = {
    "lattices.shells": _shells_seen,
    "cache.get": _cache_get_seen,
    "cache.load": _cache_loaded,
}


def _replace(original, wrapper) -> list:
    """Bind `wrapper` wherever a package module binds `original`."""
    where = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE
                               or modname.startswith(PACKAGE + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                where.append(f"{modname}.{attr}")
    return where


def _install(module: str, path: str, make) -> list:
    mod = sys.modules[f"{PACKAGE}.{module}"]
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(getattr(cls, meth)))
        return [f"{PACKAGE}.{module}.{path}"]
    original = getattr(mod, path)
    return _replace(original, make(original))


def install(tracer: Tracer) -> dict:
    """Wrap every listed function; returns span/counter -> bound names."""
    bound = {}
    for name, (module, paths) in SPANS.items():
        hook = ON_RESULT.get(name)
        bound[name] = [b for p in paths for b in _install(
            module, p, lambda fn: tracer.span(name, fn, hook))]
    for name, (module, paths) in COUNTERS.items():
        bound[name] = [b for p in paths for b in _install(
            module, p, lambda fn: tracer.counter(name, fn))]
    return bound

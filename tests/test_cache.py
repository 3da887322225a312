"""Persistent count cache: round trips, corruption handling, verification."""

import json
import os
import subprocess
import sys
import time

import pytest

import schottky_workbench
from schottky_workbench.cache import (ENGINE_VERSION, ENV_CACHE_PATH,
                                      CountCache, cache_from_env, index_key)
from schottky_workbench.counting import CountEngine


def test_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = CountCache(path)
    key = index_key(1, [2])
    assert cache.get("E8", key) is None
    cache.put("E8", key, 240)
    assert cache.get("E8", key) == 240
    fresh = CountCache(path)
    assert fresh.get("E8", key) == 240
    assert fresh.loaded_records == 1


def test_get_on_empty_cache_is_miss(tmp_path):
    cache = CountCache(tmp_path / "missing.jsonl")
    assert cache.get("E8", index_key(1, [2])) is None
    assert cache.misses == 1 and cache.hits == 0


def test_corrupt_lines_skipped_with_warning(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    cache = CountCache(path)
    cache.put("E8", index_key(1, [2]), 240)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
        fh.write('{"lattice_id": "E8"}\n')          # missing fields
        # fields of the wrong type, and counts that are not ASCII digits
        fh.write('{"count":"1","engine_version":"1","index_key":"x",'
                 '"lattice_id":["E8"]}\n')
        for count in ('2.7', '"2.7"', '"-1"', '" 1"', '"\\u00b2"', '3'):
            fh.write('{"count":%s,"engine_version":"1","index_key":"y",'
                     '"lattice_id":"E8"}\n' % count)
        fh.write('[1, 2]\n')
        # ASCII digits, but too many for int()
        fh.write('{"count":"%s","engine_version":"1","index_key":"z",'
                 '"lattice_id":"E8"}\n' % ("1" * 5000))
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")                      # not UTF-8
        # well-formed records whose lattice_id holds a byte put never writes
        for lid in (b"E\xff8", "E\u00e98".encode("utf-8")):
            fh.write(b'{"count":"1","engine_version":"1","index_key":"w",'
                     b'"lattice_id":"' + lid + b'"}\n')
    with caplog.at_level("WARNING"):
        fresh = CountCache(path)
    assert fresh.corrupt_records == 14
    assert fresh.loaded_records == 1
    assert list(fresh.entries()) == [("E8", index_key(1, [2]))]
    assert fresh.get("E8", index_key(1, [2])) == 240
    assert any("corrupt" in r.message for r in caplog.records)


def test_put_after_torn_line_starts_a_new_line(tmp_path):
    # a writer that died mid-line left no newline; the next record must
    # not be appended onto the torn line
    path = tmp_path / "c.jsonl"
    cache = CountCache(path)
    cache.put("E8", index_key(1, [2]), 240)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"count":"21')
    cache.put("E8", index_key(1, [4]), 2160)
    fresh = CountCache(path)
    assert fresh.corrupt_records == 1
    assert fresh.entries() == {("E8", index_key(1, [2])): 240,
                               ("E8", index_key(1, [4])): 2160}


def test_engine_version_gates_records(tmp_path):
    path = tmp_path / "c.jsonl"
    CountCache(path).put("E8", index_key(1, [4]), 2160)
    with open(path, "a", encoding="utf-8") as fh:
        # a well-formed record of an obsolete engine, wrong on purpose
        fh.write('{"count":"999","engine_version":"0-obsolete",'
                 '"index_key":%s,"lattice_id":"E8"}\n'
                 % json.dumps(index_key(1, [2])))
    current = CountCache(path)
    assert current.stats()["engine_version"] == ENGINE_VERSION
    assert current.get("E8", index_key(1, [2])) is None
    assert current.entries() == {("E8", index_key(1, [4])): 2160}
    assert current.loaded_records == 1 and current.corrupt_records == 0


def test_hits_plus_misses_equals_calls(tmp_path, e8):
    cache = CountCache(tmp_path / "c.jsonl")
    eng = CountEngine(e8, cache=cache)
    for s in (((2,),), ((2, 0), (0, 2)), ((2,),), ((4,),)):
        eng.count(s)
    assert cache.hits + cache.misses == eng.calls
    assert cache.hits == 1


def test_cached_counts_match_recomputation(tmp_path, e8):
    cache = CountCache(tmp_path / "c.jsonl")
    eng = CountEngine(e8, cache=cache)
    for s in (((2,),), ((4,),), ((2, 1), (1, 2))):
        eng.count(s)

    def recompute(lattice_id, key):
        rec = json.loads(key)
        from schottky_workbench.indices import from_upper_triangle
        return CountEngine(e8).count(from_upper_triangle(rec["g"], rec["u"]))

    assert cache.verify_sample(recompute, fraction=1.0) == []


def test_verify_sample_reports_mismatches(tmp_path):
    cache = CountCache(tmp_path / "c.jsonl")
    cache.put("E8", index_key(1, [2]), 239)         # poisoned entry
    bad = cache.verify_sample(lambda lid, key: 240, fraction=1.0)
    assert len(bad) == 1
    assert bad[0]["cached"] == 239 and bad[0]["recomputed"] == 240


@pytest.mark.parametrize("fraction", [0, -1, 1.5, float("nan")])
def test_verify_sample_rejects_bad_fraction(fraction):
    cache = CountCache()
    cache.put("E8", index_key(1, [2]), 240)
    with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
        cache.verify_sample(lambda lid, key: 240, fraction=fraction)


def test_cache_from_env(tmp_path, monkeypatch):
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv(ENV_CACHE_PATH, str(path))
    cache = cache_from_env()
    cache.put("E8", index_key(1, [2]), 240)
    assert path.exists()
    explicit = cache_from_env(tmp_path / "other.jsonl")
    assert explicit.path.endswith("other.jsonl")
    monkeypatch.setenv(ENV_CACHE_PATH, "")     # empty means unset
    assert cache_from_env().path is None


def test_memory_only_cache():
    cache = CountCache()
    cache.put("E8", index_key(1, [2]), 240)
    assert cache.get("E8", index_key(1, [2])) == 240
    assert cache.path is None


_APPEND_CHILD = """
import os, sys, time
from schottky_workbench.cache import CountCache, index_key
path, lattice_id, n, ready, go = sys.argv[1:]
cache = CountCache(path)
open(ready, "w").close()
deadline = time.monotonic() + 60
while not os.path.exists(go) and time.monotonic() < deadline:
    time.sleep(0.001)
for i in range(int(n)):
    cache.put(lattice_id, index_key(1, [2 * i]), 10 ** 30 + i)
"""


def _child_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(schottky_workbench.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_logging():
    # logging is imported only to warn of a corrupt line, so a fresh
    # interpreter that loads the command line has not loaded it
    code = ("import sys, schottky_workbench.cli; "
            "print('logging' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False"]


def _wait_for(paths, timeout):
    deadline = time.monotonic() + timeout
    while not all(p.exists() for p in paths):
        assert time.monotonic() < deadline, "writer did not start"
        time.sleep(0.01)


def test_two_processes_append_concurrently(tmp_path):
    # both writers start appending on the same signal, so their appends
    # interleave under the advisory lock; no record may be lost or torn
    n = 2000
    lids = ("E8", "D16plus")
    path, go = tmp_path / "c.jsonl", tmp_path / "go"
    ready = [tmp_path / f"{lid}.ready" for lid in lids]
    env = _child_env()
    children = [subprocess.Popen([sys.executable, "-c", _APPEND_CHILD,
                                  str(path), lid, str(n), str(r), str(go)],
                                 env=env)
                for lid, r in zip(lids, ready)]
    try:
        _wait_for(ready, 120)
        go.touch()
        for child in children:
            assert child.wait(timeout=120) == 0
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    fresh = CountCache(path)
    assert fresh.corrupt_records == 0
    assert fresh.loaded_records == 2 * n
    assert fresh.entries() == {(lid, index_key(1, [2 * i])): 10 ** 30 + i
                               for lid in lids for i in range(n)}

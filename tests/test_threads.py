"""numpy's OpenBLAS thread pool: the package's idle-spin default, and counts
that do not depend on the pool's size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schottky_workbench import CountEngine, lattice_by_id

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the counting recursion is exact int64, and so is the shell walk it reads,
# on rows from an exact elimination; neither calls BLAS or LAPACK (the
# float64 users are `theta._ip_histogram`, `SiegelPoint.im_min_eig` through
# `eigvalsh`, and `fay`), so counts must not move with OPENBLAS_NUM_THREADS;
# these classes reach their one open slot after two or three orbit levels,
# on both lattices
CLASSES = [
    ("E8", ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), 47174400),
    ("E8", ((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 4)), 29030400),
    ("D16plus", ((2, 0, 0), (0, 2, 0), (0, 0, 4)), 3019887360),
    ("D16plus", ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 4)),
     404089620480),
]

_COUNT_CHILD = """
import json, sys
from schottky_workbench import CountEngine, lattice_by_id
classes = json.loads(sys.argv[1])
print(json.dumps([CountEngine(lattice_by_id(lid)).count(s)
                  for lid, s in classes]))
"""

# records the variable at the moment numpy is first imported
_ORDER_CHILD = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None
sys.meta_path.insert(0, Spy())
import schottky_workbench
print(seen[0], os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def _run(code, *args, **env_vars):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_idle_spin_default_is_set_before_numpy_loads():
    assert _run(_ORDER_CHILD).split() == ["4", "4"]


def test_a_preset_idle_spin_value_wins():
    out = _run(_ORDER_CHILD, OPENBLAS_THREAD_TIMEOUT="30")
    assert out.split() == ["30", "30"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_counts_do_not_depend_on_the_thread_split(threads):
    arg = json.dumps([[lid, s] for lid, s, _ in CLASSES])
    got = json.loads(_run(_COUNT_CHILD, arg, OPENBLAS_NUM_THREADS=threads))
    here = [CountEngine(lattice_by_id(lid)).count(s) for lid, s, _ in CLASSES]
    assert got == here == [want for _, _, want in CLASSES]

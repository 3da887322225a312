"""The index table as nested int tuples, for tests that hash, compare or
look up matrices one at a time: `x in array` is elementwise in numpy, so a
membership or set test on table rows goes through these tuples."""

from functools import lru_cache

from schottky_workbench import indices as idx


def as_tuples(mats) -> tuple:
    """A K x g x g array as a tuple of nested int tuples."""
    return tuple(tuple(map(tuple, m)) for m in mats.tolist())


@lru_cache(maxsize=None)
def index_tuples(g: int, max_trace: int) -> tuple:
    """The rows of index_table(g, max_trace), in table order."""
    return as_tuples(idx.index_table(g, max_trace).mats)


def trace(s) -> int:
    return sum(s[p][p] for p in range(len(s)))

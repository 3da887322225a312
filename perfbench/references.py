"""Reference values computed without the package under test.

Each value here comes from a classical identity or from a brute-force
enumeration written independently of `schottky_workbench`, so a wrong
program cannot also move its own reference.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

# Genus-1 theta series of the even unimodular lattices are Eisenstein series:
# theta_E8 = E4 = 1 + 240 sum sigma_3(m) q^m, and every rank-16 even
# unimodular lattice has theta = E8 = 1 + 480 sum sigma_7(m) q^m, where a
# vector of norm n = 2m contributes q^m.
_EISENSTEIN = {8: (240, 3), 16: (480, 7)}
RANK = {"E8": 8, "D16plus": 16}


def vectors_of_norm(lattice: str, n: int) -> int:
    """N(n): the number of lattice vectors of norm n (n even, >= 0)."""
    if n == 0:
        return 1
    c, k = _EISENSTEIN[RANK[lattice]]
    m = n // 2
    return c * sum(d ** k for d in range(1, m + 1) if m % d == 0)


def _det(m) -> int:
    """Exact integer determinant by Laplace expansion (small matrices)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                            for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _is_psd(m) -> bool:
    """Every principal minor is non-negative (exact, integer arithmetic)."""
    g = len(m)
    return all(_det([[m[p][q] for q in rows] for p in rows]) >= 0
               for k in range(1, g + 1)
               for rows in itertools.combinations(range(g), k))


@lru_cache(maxsize=None)
def index_matrices(g: int, max_trace: int) -> tuple:
    """All symmetric integer g x g matrices with even non-negative diagonal,
    trace <= max_trace and positive semi-definite, as upper triangles.

    Off-diagonal entries range over |s_pq| <= sqrt(s_pp s_qq), which every
    psd matrix satisfies; psd itself is decided by principal minors.
    """
    pairs = [(p, q) for p in range(g) for q in range(p + 1, g)]
    out = []
    for diag in itertools.product(range(0, max_trace + 1, 2), repeat=g):
        if sum(diag) > max_trace:
            continue
        boxes = [range(-math.isqrt(diag[p] * diag[q]),
                       math.isqrt(diag[p] * diag[q]) + 1) for p, q in pairs]
        for offs in itertools.product(*boxes):
            m = [[0] * g for _ in range(g)]
            for p in range(g):
                m[p][p] = diag[p]
            for (p, q), v in zip(pairs, offs):
                m[p][q] = m[q][p] = v
            if _is_psd(m):
                out.append(tuple(m[p][q] for p in range(g)
                                 for q in range(p, g)))
    return tuple(out)

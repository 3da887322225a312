"""Theta series of even unimodular lattices.

Two computation paths on purpose: theta_expansion builds exact Fourier
coefficients from representation counts, while theta_eval sums the defining
series directly over lattice-vector tuples and never consults an expansion.
Their agreement is the workhorse cross-check of the package.
"""

from __future__ import annotations

import math

import numpy as np

from . import indices as idx
from .counting import CountEngine
from .expansion import (EvalResult, FourierExpansion,
                        IncompatibleExpansionError, SiegelPoint)
from .lattices import (_BLOCK_ENTRIES, Lattice, _shell_counts, check_norm,
                       short_vector_shells)


def theta_expansion(lat: Lattice, g: int, max_trace: int,
                    cache=None) -> FourierExpansion:
    """Fourier expansion of the genus-g theta series, weight rank/2.

    The coefficient at S is the number of g-tuples of lattice vectors with
    Gram matrix S, counted once per class of the index table.
    """
    engine = CountEngine(lat, cache)
    table = idx.index_table(g, max_trace)
    counts = [engine.count(s) for s in table.class_keys]
    return FourierExpansion(g=g, weight=lat.rank // 2, max_trace=max_trace,
                            coeffs=[counts[c] for c in table.classes])


def default_norm_budget(max_trace: int) -> int:
    """Budget making both truncation tails negligible at Im(tau) >~ 1.2 I."""
    return 2 * max_trace + 4


def _ip_histogram(xs: np.ndarray, ys: np.ndarray, gram: np.ndarray,
                  bound: int, u=None, w=None) -> np.ndarray:
    """Histogram over t in [-bound, bound] (stored at t + bound) of the inner
    products <x, y> for x in xs, y in ys.

    Without weights entry t is the exact int64 number of pairs with
    <x, y> = t; with row weights u and column weights w it is the complex sum
    of u(x) w(y) over those pairs.  X_block G Y^T is formed in float64 from
    int8 coordinates and the small integer Gram matrix, so every product is
    an exact integer (far below 2**53); `bound` is the Cauchy-Schwarz bound
    isqrt(|x|^2 |y|^2), and a rounded value outside [-bound, bound] raises.
    """
    n = 2 * bound + 1
    hist = np.zeros(n, dtype=np.int64 if u is None else complex)
    if len(xs) == 0 or len(ys) == 0:
        return hist
    right = gram.astype(np.float64) @ ys.T.astype(np.float64)
    rows = max(1, _BLOCK_ENTRIES // len(ys))
    for lo in range(0, len(xs), rows):
        block = xs[lo : lo + rows].astype(np.float64) @ right
        block += bound
        np.rint(block, out=block)
        if block.min() < 0 or block.max() > 2 * bound:
            raise ArithmeticError(
                f"inner product outside [-{bound}, {bound}]: the float64 "
                f"pair block is not exact")
        vals = block.astype(np.intp).ravel()
        if u is None:
            hist += np.bincount(vals, minlength=n)
        else:
            wts = np.outer(u[lo : lo + rows], w).ravel()
            hist += np.bincount(vals, wts.real, n) \
                + 1j * np.bincount(vals, wts.imag, n)
    return hist


def theta_eval(lat: Lattice, g: int, point: SiegelPoint,
               norm_budget: int) -> EvalResult:
    """Direct theta sum over tuples (x_1..x_g) with total norm <= budget B.

    Independent numerical oracle: it sums over actual lattice vectors from
    the shell walk and never consults representation counts or stored
    expansions.  The shell sizes N(m), m <= B, come from the count-only
    walk lattices._shell_counts, not from lattices.shell_sizes: that
    modular form serves the series side, and the direct path stays
    independent of it.  Genus 1 is a closed sum over these sizes and
    builds no shell.  From genus 2 on, a vector of norm B > 0 fits only in
    a tuple whose other slots are zero, so those g N(B) tuples are one
    closed term; every other tuple takes its vectors from
    short_vector_shells, built to norm max(B - 2, 0) only.  The first g - 2
    slots are walked vector by vector and the last two are summed per pair
    of shell norms (m1, m2) in one blockwise operation: the integer inner
    products <x, y> of a block of the norm-m1 shell against the whole
    norm-m2 shell are binned (weighted, from genus 3, by the phases the
    earlier slots give each row and column) and the bins are dotted with
    the phase table exp(2 pi i tau t), |t| <= isqrt(m1 m2).  An unweighted
    histogram walks half of the longer shell and mirrors it
    (_pair_histogram).  A pair with a norm-0 shell is a product of two row
    sums.

    Memory: a block pairs some vectors of the longer shell with the whole
    shorter one, so it holds at most max(_BLOCK_ENTRIES, N) pairs, N the
    shorter shell's size and _BLOCK_ENTRIES = 2**15.  Its temporaries stay
    under 1 MB beside the shells while N <= 2**15; past that a block is one
    vector against N, such as 61920 pairs at D16+'s (4, 4) pair of norms
    and 1,050,240 at its (6, 6) pair (8 MB per float64 temporary).
    Exactness: the inner products are float64 products of int8 coordinates
    and the integer Gram matrix, exact integers far below 2**53; a rounded
    value outside [-isqrt(m1 m2), isqrt(m1 m2)] raises ArithmeticError.
    """
    if point.g != g:
        raise IncompatibleExpansionError("point genus mismatch")
    check_norm(norm_budget, "norm_budget")
    tau = point.matrix
    pii = 1j * math.pi
    sizes = _shell_counts(lat.gram_array, norm_budget)
    norms = sorted(sizes)
    if g == 1:
        total = 0j
        for m in norms:
            total += sizes[m] * np.exp(pii * m * complex(tau[0, 0]))
    else:
        shells = short_vector_shells(lat, max(norm_budget - 2, 0))
        total = _last_two_slots(shells, lat.gram_array, tau, norm_budget)
        if norm_budget:
            total += sizes[norm_budget] * np.exp(
                pii * norm_budget * np.diag(tau)).sum()

    # tuples of total norm exactly norm_budget, by norm composition
    ways = {0: 1}
    for _ in range(g):
        nxt = {}
        for used, c in ways.items():
            for m in norms:
                if used + m <= norm_budget:
                    nxt[used + m] = nxt.get(used + m, 0) + c * sizes[m]
        ways = nxt
    boundary = ways.get(norm_budget, 0)
    lam = point.im_min_eig
    tail = math.exp(-math.pi * lam * (norm_budget + 2)) * max(boundary, 1)
    return EvalResult(value=complex(total), tail_estimate=tail)


def _pair_histogram(xs: np.ndarray, ys: np.ndarray, gram: np.ndarray,
                    bound: int, u=None, w=None) -> np.ndarray:
    """_ip_histogram of two nonzero shells, blocked over the longer one.

    <x, y> is symmetric, so the longer shell takes the rows, which makes the
    fuller blocks.  Unweighted, the rows are the second half of that shell
    alone: a shell is closed under negation and its second half holds
    exactly one of x and -x (lattices._shells), and <-x, y> = -<x, y>, so
    the full histogram is h + h[::-1], exactly.  Weighted sums (genus >= 3)
    keep the whole shell, since there u(-x) = 1 / u(x), not u(x).
    """
    if len(xs) < len(ys):
        xs, ys, u, w = ys, xs, w, u
    if u is not None:
        return _ip_histogram(xs, ys, gram, bound, u, w)
    hist = _ip_histogram(xs[len(xs) // 2:], ys, gram, bound)
    return hist + hist[::-1]


def _last_two_slots(shells, gram, tau, norm_budget) -> complex:
    """The genus >= 2 direct sum over the tuples of total norm <= B =
    norm_budget whose vectors all lie in `shells` (see theta_eval): a
    depth-first walk over the first g - 2 slots, each leaf a blockwise pair
    sum over the last two."""
    g = len(tau)
    a, b = g - 2, g - 1
    pii = 1j * math.pi
    half = norm_budget // 2
    norms = sorted(shells)
    table = np.exp(2 * pii * complex(tau[a, b]) * np.arange(-half, half + 1))

    def pair_sum(m1, m2, u, w):
        """sum of u(x) w(y) exp(2 pi i tau_ab <x, y>), x in shell m1 and
        y in shell m2; u = w = None means unit weights."""
        if m1 == 0 or m2 == 0:
            # every inner product is 0: a product of two row sums
            return ((len(shells[m1]) if u is None else u.sum())
                    * (len(shells[m2]) if w is None else w.sum()))
        bound = math.isqrt(m1 * m2)
        hist = _pair_histogram(shells[m1], shells[m2], gram, bound, u, w)
        return hist @ table[half - bound : half + bound + 1]

    def slot_weights(p, chosen, rest):
        """exp(2 pi i sum_j tau_jp <x_j, x>) over each shell of norm <=
        rest, for the chosen prefix vectors x_j (given as G x_j); none at
        genus 2."""
        out = {}
        for m in norms:
            if m > rest or not chosen:
                break
            vecs = shells[m].astype(np.float64)
            expo = np.zeros(len(vecs), dtype=complex)
            for j, gx in enumerate(chosen):
                expo += 2 * pii * complex(tau[j, p]) * (vecs @ gx)
            out[m] = np.exp(expo)
        return out

    def last_two(used, phase, chosen):
        rest = norm_budget - used
        u, w = slot_weights(a, chosen, rest), slot_weights(b, chosen, rest)
        total = 0j
        for m1 in norms:
            for m2 in norms:
                if m1 + m2 > rest:
                    break
                ph = np.exp(phase + pii * (m1 * complex(tau[a, a])
                                           + m2 * complex(tau[b, b])))
                total += ph * pair_sum(m1, m2, u.get(m1), w.get(m2))
        return total

    def walk(level, used, phase, chosen):
        if level == a:
            return last_two(used, phase, chosen)
        total = 0j
        for m in norms:
            if used + m > norm_budget:
                break
            ph = phase + pii * m * complex(tau[level, level])
            for row in shells[m]:
                x = row.astype(np.int64)
                phx = ph
                for j, gx in enumerate(chosen):
                    phx += 2 * pii * complex(tau[j, level]) * int(gx @ x)
                total += walk(level + 1, used + m, phx, chosen + [gram @ x])
        return total

    return walk(0, 0, 0j, [])

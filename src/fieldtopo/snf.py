"""Exact integer matrix reductions: Smith normal form, rank, kernel bases.

All arithmetic uses Python integers, so there is no overflow regardless of
coefficient growth.  One sparse column elimination, ``_Elimination``, takes
the +-1 pivots for both reductions in the same order.  The kernel basis
alternates its unit pivots with Euclidean column steps and tracks the
column transform.  Both reductions first remove, in numpy, what needs no
elimination at all.  The Smith form does so in two stages:

1. A +-1 entry that is the only live entry of its row or column is a pivot
   that causes no fill: its Schur complement is the matrix without its row
   and column.  Such pivots are taken in vectorized rounds, at most one per
   row and per column in a round (coreductions, Mrozek-Batko, DCG 2009).
2. Only the leftover core goes to ``_Elimination``, and its unit-free
   remainder to the dense textbook algorithm.

The boundary maps of an oriented mesh next to its vertices and its tets
are graph incidences and never come here: ``homology`` reads their ranks
off a spanning forest.

The kernel basis has one numpy stage, ``_forced_zero_columns``: a row whose
only live entry is +-1 zeroes that column in every kernel vector, so the
column is peeled (the coreduction of Dlotko-Specogna, CPC 2013).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

import numpy as np
import scipy.sparse as sp


def _entries(A) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """Nonzero entries of an integer matrix as int64 (row, col, value)
    arrays in row-major order, each position once, and the shape."""
    coo = sp.coo_matrix(A if sp.issparse(A) else np.asarray(A), dtype=np.int64)
    coo.sum_duplicates()
    coo.eliminate_zeros()
    return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data, coo.shape


@dataclass
class SnfResult:
    """Diagonal invariant factors of an integer matrix.

    When transforms are retained, U @ A @ V equals the diagonal form, with U
    and V unimodular.
    """

    shape: tuple[int, int]
    invariant_factors: list[int]
    U: np.ndarray | None = None
    V: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _dense_snf(M: list[list[int]], want_transforms: bool):
    """Textbook SNF on a dense list-of-lists matrix (modified in place).

    Pivot choice: smallest absolute value, then lowest (row, col) index.
    Returns (diag, U, V) with U, V as list-of-lists or None.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)] if want_transforms else None
    V = [[int(i == j) for j in range(n)] for i in range(n)] if want_transforms else None

    def swap_rows(a, b):
        if a != b:
            M[a], M[b] = M[b], M[a]
            if U is not None:
                U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        if a != b:
            for row in M:
                row[a], row[b] = row[b], row[a]
            if V is not None:
                for row in V:
                    row[a], row[b] = row[b], row[a]

    def add_row(dst, src, f):
        # row_dst += f * row_src
        Ms, Md = M[src], M[dst]
        for j in range(n):
            Md[j] += f * Ms[j]
        if U is not None:
            Us, Ud = U[src], U[dst]
            for j in range(m):
                Ud[j] += f * Us[j]

    def add_col(dst, src, f):
        for row in M:
            row[dst] += f * row[src]
        if V is not None:
            for row in V:
                row[dst] += f * row[src]

    def negate_row(i):
        M[i] = [-v for v in M[i]]
        if U is not None:
            U[i] = [-v for v in U[i]]

    t = 0
    while t < min(m, n):
        # locate pivot
        best = None
        pi = pj = -1
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                v = abs(Mi[j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
                    if v == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)

        while True:
            # clear column t
            for i in range(m):
                if i != t and M[i][t]:
                    add_row(i, t, -(M[i][t] // M[t][t]))
            leftover = [i for i in range(m) if i != t and M[i][t]]
            if leftover:
                # remainders are smaller than the pivot: promote one and retry
                i = min(leftover, key=lambda r: abs(M[r][t]))
                swap_rows(t, i)
                continue
            # clear row t
            for j in range(n):
                if j != t and M[t][j]:
                    add_col(j, t, -(M[t][j] // M[t][t]))
            leftover_c = [j for j in range(n) if j != t and M[t][j]]
            if leftover_c:
                j = min(leftover_c, key=lambda c: abs(M[t][c]))
                swap_cols(t, j)
                continue
            break

        if M[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_0 | d_1 | ...
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if a and b and b % a != 0:
                # fold d_{i+1} into column i and rediagonalize the 2x2 block
                add_col(i, i + 1, 1)
                g = gcd(a, b)
                # Euclidean steps on the (i, i+1) block
                while M[i + 1][i]:
                    if abs(M[i][i]) >= abs(M[i + 1][i]):
                        add_row(i, i + 1, -(M[i][i] // M[i + 1][i]))
                    swap_rows(i, i + 1)
                # now row i has the gcd at (i,i); clear row i and column i
                if M[i][i] < 0:
                    negate_row(i)
                for j in range(n):
                    if j != i and M[i][j]:
                        add_col(j, i, -(M[i][j] // M[i][i]))
                for r in range(m):
                    if r != i and M[r][i]:
                        add_row(r, i, -(M[r][i] // M[i][i]))
                if M[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                assert abs(M[i][i]) == g
                changed = True

    diag = [M[k][k] for k in range(t) if M[k][k]]
    return diag, U, V


class _Elimination:
    """Sparse integer column elimination under the unit-pivot rule.

    The matrix, COO entries without zeros or repeats, is held as columns,
    {row: value} dicts, and ``row_cols`` lists the active columns of each
    row.  With ``transform=True`` the unimodular column transform V is
    tracked too, one dict per column.

    Pivot rule: the active row first in (entry count, index) order among
    rows holding a +-1 entry, and in it the +-1 column first in (entry
    count, index) order.  A min-heap of (entry count, row) keys finds that
    row; a row's key or unit entries change only when an update touches it,
    so touched rows are re-queued and stale or unit-free entries skipped.
    """

    def __init__(self, A: sp.coo_matrix, transform: bool):
        self.m, self.n = A.shape
        self.cols: list[dict[int, int]] = [dict() for _ in range(self.n)]
        for i, j, v in zip(A.row.tolist(), A.col.tolist(), A.data.tolist()):
            self.cols[j][i] = v
        self.row_cols: dict[int, set[int]] = {}
        for j, c in enumerate(self.cols):
            for i in c:
                self.row_cols.setdefault(i, set()).add(j)
        self.V = [{j: 1} for j in range(self.n)] if transform else None
        self.active_cols = set(range(self.n))
        self.active_rows = set(self.row_cols)
        self.touched: set[int] = set()  # rows whose entries changed since the last pivot
        self.heap = [(len(self.row_cols[i]), i) for i in self.active_rows]
        heapq.heapify(self.heap)

    def add_col(self, dst, src, f):
        """col_dst += f * col_src, and the same on V when it is tracked."""
        cd, cs = self.cols[dst], self.cols[src]
        row_cols = self.row_cols
        for i, v in cs.items():
            w = cd.get(i, 0) + f * v
            if w:
                if i not in cd:
                    row_cols.setdefault(i, set()).add(dst)
                cd[i] = w
            elif i in cd:
                del cd[i]
                row_cols[i].discard(dst)
        self.touched.update(cs)
        if self.V is not None:
            vd, vs = self.V[dst], self.V[src]
            for k, v in vs.items():
                w = vd.get(k, 0) + f * v
                if w:
                    vd[k] = w
                elif k in vd:
                    del vd[k]

    def retire(self, i, j):
        """Retire pivot row i and column j; re-queue the rows touched since
        the last pivot."""
        self.active_cols.discard(j)
        for r in self.cols[j]:
            self.row_cols[r].discard(j)
        self.touched.update(self.cols[j])
        self.active_rows.discard(i)
        for r in self.touched:
            if r in self.active_rows:
                heapq.heappush(self.heap, (len(self.row_cols[r]), r))
        self.touched.clear()

    def unit_pivots(self) -> int:
        """Eliminate +-1 pivots until no active row holds one; return how
        many were taken.

        A pivot's row is cleared by column operations.  That leaves the same
        Schur complement as clearing its column by row operations, so each
        pivot contributes one invariant factor 1.
        """
        cols, row_cols, active_rows = self.cols, self.row_cols, self.active_rows
        heap = self.heap
        taken = 0
        while heap:
            length, i = heapq.heappop(heap)
            if i not in active_rows or length != len(row_cols[i]):
                continue  # stale: retired, or re-queued under its new length
            unit = [c for c in row_cols[i] if abs(cols[c][i]) == 1]
            if not unit:
                continue  # the row waits until an update touches it
            j = min(unit, key=lambda c: (len(cols[c]), c))
            piv = cols[j][i]
            for k in list(row_cols[i]):
                if k != j:
                    self.add_col(k, j, -cols[k][i] * piv)
            self.retire(i, j)
            taken += 1
        return taken


def _fill_free_pivots(r, c, v, m, n):
    """Take +-1 entries alone in their row or column, in rounds.

    Each round takes at most one such entry per row and per column; none of
    them causes fill, so they are all pivots of one another's Schur
    complements and nothing but their rows and columns is removed.  Returns
    the number of pivots and the entries left over.
    """
    taken = 0
    dead_row, dead_col = np.zeros(m, dtype=bool), np.zeros(n, dtype=bool)
    while True:
        alone = (np.bincount(r, minlength=m)[r] == 1) | (np.bincount(c, minlength=n)[c] == 1)
        cand = np.flatnonzero(alone & (np.abs(v) == 1))
        if not len(cand):
            return taken, (r, c, v)
        cand = cand[np.unique(c[cand], return_index=True)[1]]
        cand = cand[np.unique(r[cand], return_index=True)[1]]
        taken += len(cand)
        dead_row[r[cand]] = True
        dead_col[c[cand]] = True
        keep = ~(dead_row[r] | dead_col[c])
        r, c, v = r[keep], c[keep], v[keep]


def _forced_zero_columns(r, c, v, m, n) -> np.ndarray:
    """Mask of the columns that are zero in every integer kernel vector.

    A row whose only live entry is +-1 forces that column to zero; dropping
    it may leave new such rows, so the peel runs in vectorized rounds until
    none is left.  Unlike ``_fill_free_pivots`` it skips entries alone only
    in their column, and rows whose one entry is not +-1: peeling those
    would change the elimination's pivots, and with them the vectors.
    """
    dead = np.zeros(n, dtype=bool)
    while True:
        alone = (np.bincount(r, minlength=m)[r] == 1) & (np.abs(v) == 1)
        if not alone.any():
            return dead
        dead[c[alone]] = True
        keep = ~dead[c]
        r, c, v = r[keep], c[keep], v[keep]


def smith_normal_form(A, transforms: bool = False) -> SnfResult:
    """Exact Smith normal form of an integer matrix.

    Invariant factors satisfy the divisibility chain d1 | d2 | ... .  The
    sparse path runs the two stages of the module docstring: fill-free unit
    pivots are peeled in rounds, and the core left over goes to
    ``_Elimination`` and then to the dense algorithm.  With
    ``transforms=True`` the dense algorithm runs on the whole matrix
    (intended for small matrices) and retains the unimodular U, V with
    U @ A @ V diagonal.
    """
    if transforms:
        arr = A.toarray() if sp.issparse(A) else np.asarray(A)
        if arr.ndim != 2:
            raise ValueError("need a 2-D matrix")
        diag, U, V = _dense_snf([[int(x) for x in row] for row in arr], True)
        return SnfResult(arr.shape, diag, np.array(U, dtype=object), np.array(V, dtype=object))

    r, c, v, (m, n) = _entries(A)
    taken, (r, c, v) = _fill_free_pivots(r, c, v, m, n)

    core_rows, r = np.unique(r, return_inverse=True)
    core_cols, c = np.unique(c, return_inverse=True)
    el = _Elimination(sp.coo_matrix((v, (r, c)), shape=(len(core_rows), len(core_cols))), transform=False)
    taken += el.unit_pivots()
    # active columns hold entries in active rows only: the remainder
    live = [j for j in sorted(el.active_cols) if el.cols[j]]
    rmap = {i: a for a, i in enumerate(sorted({i for j in live for i in el.cols[j]}))}
    M = [[0] * len(live) for _ in rmap]
    for b, j in enumerate(live):
        for i, val in el.cols[j].items():
            M[rmap[i]][b] = val
    diag, _, _ = _dense_snf(M, False)
    return SnfResult((m, n), [1] * taken + diag)


def integer_kernel_basis(A) -> list[np.ndarray]:
    """Basis of the integer kernel lattice {x : A @ x = 0}.

    Column elimination to column echelon form with a tracked unimodular
    column transform; columns that reduce to zero yield the kernel basis.
    Unit pivots follow the rule of ``_Elimination``.  When no unit entry is
    left, the sparsest row is reduced by Euclidean column steps to a single
    entry, which becomes the pivot.  The kernel vectors depend on the pivot
    order, and the cocycles and cut surfaces are built from them, so the
    only numpy stage is ``_forced_zero_columns``, which keeps that order:
    the elimination takes a row with one live +-1 entry before any longer
    row, and that pivot changes no other column.  The core keeps the
    relative order of its rows and columns, hence every tie-break, and its
    empty columns, so the vectors are the ones the whole of A gives.
    """
    r, c, v, (m, n) = _entries(A)
    alive = ~_forced_zero_columns(r, c, v, m, n)
    keep = alive[c]
    core = np.flatnonzero(alive)
    c = (np.cumsum(alive) - 1)[c[keep]]
    el = _Elimination(sp.coo_matrix((v[keep], (r[keep], c)), shape=(m, len(core))), transform=True)
    cols, row_cols = el.cols, el.row_cols
    while True:
        el.unit_pivots()
        live = [i for i in el.active_rows if row_cols[i]]
        if not live:
            break
        i = min(live, key=lambda r: (len(row_cols[r]), r))
        while len(row_cols[i]) > 1:
            j = min(row_cols[i], key=lambda c: (abs(cols[c][i]), c))
            for k in list(row_cols[i]):
                if k != j:
                    el.add_col(k, j, -(cols[k][i] // cols[j][i]))
        el.retire(i, next(iter(row_cols[i])))

    kernel = []
    for j in sorted(el.active_cols):
        if not cols[j]:
            vec = np.zeros(n, dtype=np.int64)
            for k, val in el.V[j].items():
                vec[core[k]] = val
            kernel.append(vec)
    return kernel

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

The dense algorithm, ``_dense_snf``, is one pivot loop on Python lists.
Its unimodular transforms ride along as identity blocks that every row and
column operation updates, and a non-unit pivot keeps the divisibility chain
inside the loop.  Its traffic is tiny: on the benchmark and golden meshes
the sparse path hands it only empty remainders, and the transforms, asked
for on the saturated pairing of ``homology.dual_loops`` and on the
restriction pairing T' and its V, come from matrices of at most 4 x 4.  So
it stays plain rather than fast.

The kernel basis has one numpy stage, ``_forced_zero_columns``: a row whose
only live entry is +-1 zeroes that column in every kernel vector, so the
column is peeled (the coreduction of Dlotko-Specogna, CPC 2013).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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

    invariant_factors: list[int]
    U: np.ndarray | None = None
    V: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _dense_snf(A: list[list[int]], m: int, n: int, want_transforms: bool):
    """Textbook SNF of the dense m x n list-of-lists ``A``: (diag, U, V).

    Pivot: the smallest |entry|, first in row-major order (a +-1 ends the
    search).  Row operations clear its column, then column operations its
    row; a smaller remainder is swapped in as the pivot.  A non-unit pivot
    adds to its row a remaining row it does not divide and clears again (so
    d1 | d2 | ...).  U and V ride as identity blocks that every operation
    updates: [[A, I], [I, 0]] ends as [[D, U], [V, 0]], U @ A @ V = D.
    """
    M = A
    if want_transforms:
        M = [row + [int(i == k) for k in range(m)] for i, row in enumerate(A)]
        M += [[int(j == k) for k in range(n)] + [0] * m for j in range(n)]

    def add_row(dst, src, f):  # row dst += f * row src
        M[dst] = [x + f * y for x, y in zip(M[dst], M[src])]

    def add_col(dst, src, f):  # column dst += f * column src
        for row in M:
            row[dst] += f * row[src]

    def swap_cols(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (best is None or abs(M[i][j]) < best[0]):
                    best = (abs(M[i][j]), i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, i, j = best
        M[t], M[i] = M[i], M[t]
        swap_cols(t, j)
        while True:
            for i in range(m):
                if i != t and M[i][t]:
                    add_row(i, t, -(M[i][t] // M[t][t]))
            rest = [i for i in range(m) if i != t and M[i][t]]
            if rest:
                i = min(rest, key=lambda r: abs(M[r][t]))
                M[t], M[i] = M[i], M[t]
                continue
            for j in range(n):
                if j != t and M[t][j]:
                    add_col(j, t, -(M[t][j] // M[t][t]))
            rest = [j for j in range(n) if j != t and M[t][j]]
            if rest:
                swap_cols(t, min(rest, key=lambda c: abs(M[t][c])))
                continue
            p = M[t][t]
            bad = [i for i in range(t + 1, m) if abs(p) > 1 and any(x % p for x in M[i][t:n])]
            if not bad:
                break
            add_row(t, bad[0], 1)
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        t += 1
    return [M[k][k] for k in range(t)], [row[n:] for row in M[:m]], [row[:n] for row in M[m:]]


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
        m, n = arr.shape
        diag, U, V = _dense_snf([[int(x) for x in row] for row in arr], m, n, True)
        U, V = np.array(U, dtype=object).reshape(m, m), np.array(V, dtype=object).reshape(n, n)
        return SnfResult(diag, U, V)

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
    diag, _, _ = _dense_snf(M, len(rmap), len(live), False)
    return SnfResult([1] * taken + diag)


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

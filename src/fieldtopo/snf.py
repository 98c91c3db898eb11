"""Exact integer matrix reductions: Smith normal form, rank, kernel bases.

All arithmetic uses Python integers, so there is no overflow regardless of
coefficient growth.  Large sparse matrices go through a unit-pivot
elimination phase (Markowitz-style fill control) that strips the
invariant-factor-1 part cheaply; whatever remains is finished with the dense
textbook algorithm.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

import numpy as np
import scipy.sparse as sp

_SPARSE_CUTOFF = 64  # below this, go straight to the dense algorithm


def _to_int_rows(A) -> tuple[list[dict[int, int]], int, int]:
    """Matrix as a list of {col: value} dicts with exact Python ints."""
    if sp.issparse(A):
        coo = A.tocoo()
        m, n = coo.shape
        rows: list[dict[int, int]] = [dict() for _ in range(m)]
        for i, j, v in zip(coo.row, coo.col, coo.data):
            v = int(v)
            if v:
                rows[int(i)][int(j)] = v
        return rows, m, n
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ValueError("need a 2-D matrix")
    m, n = arr.shape
    rows = [
        {j: int(arr[i, j]) for j in range(n) if arr[i, j] != 0} for i in range(m)
    ]
    return rows, m, n


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

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.shape, dtype=object)
        for k, f in enumerate(self.invariant_factors):
            d[k, k] = f
        return d


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
                    q = M[i][i] // M[i + 1][i] if M[i + 1][i] else 0
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


def _unit_pivot_phase(rows: list[dict[int, int]]):
    """Strip +-1 pivots from a sparse matrix via integer row elimination.

    Modifies ``rows`` in place; returns the number of eliminated pivots.
    Remaining entries form a submatrix with no unit entries.
    """
    m = len(rows)
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)

    active = set(range(m))
    heap = [(len(rows[i]), i) for i in active if rows[i]]
    heapq.heapify(heap)
    stash: list[int] = []  # rows with no unit entry, revisited after updates
    npiv = 0

    def refresh(i):
        if i in active and rows[i]:
            heapq.heappush(heap, (len(rows[i]), i))

    while heap or stash:
        if not heap:
            # rows without unit pivots may have gained one after updates
            retry = [s for s in stash if s in active and rows[s]]
            stash = []
            found = False
            for i in retry:
                if any(abs(v) == 1 for v in rows[i].values()):
                    heapq.heappush(heap, (len(rows[i]), i))
                    found = True
                else:
                    stash.append(i)
            if not found:
                break
        length, p = heapq.heappop(heap)
        if p not in active or not rows[p]:
            continue
        if length != len(rows[p]):
            refresh(p)  # stale heap entry; re-queue with the current length
            continue
        # pick the unit entry with the fewest other rows in its column
        unit_cols = [j for j, v in rows[p].items() if abs(v) == 1]
        if not unit_cols:
            stash.append(p)
            continue
        q = min(unit_cols, key=lambda j: (len(col_rows[j]), j))
        piv = rows[p][q]

        for i in list(col_rows[q]):
            if i == p or i not in active:
                continue
            f = rows[i][q] * piv  # (value / pivot) since pivot is +-1
            ri, rp = rows[i], rows[p]
            for j, v in rp.items():
                w = ri.get(j, 0) - f * v
                if w:
                    if j not in ri:
                        col_rows.setdefault(j, set()).add(i)
                    ri[j] = w
                else:
                    if j in ri:
                        del ri[j]
                        col_rows[j].discard(i)
            refresh(i)

        # column q now has only the pivot; retire row p and column q
        for j in rows[p]:
            col_rows[j].discard(p)
        rows[p] = {}
        active.discard(p)
        col_rows.pop(q, None)
        npiv += 1

    return npiv


def _remainder_dense(rows: list[dict[int, int]]):
    live_rows = [i for i, r in enumerate(rows) if r]
    cols = sorted({j for i in live_rows for j in rows[i]})
    cmap = {j: k for k, j in enumerate(cols)}
    M = [[0] * len(cols) for _ in live_rows]
    for a, i in enumerate(live_rows):
        for j, v in rows[i].items():
            M[a][cmap[j]] = v
    return M


def smith_normal_form(A, transforms: bool = False) -> SnfResult:
    """Exact Smith normal form of an integer matrix.

    Invariant factors satisfy the divisibility chain d1 | d2 | ... ; with
    ``transforms=True`` the unimodular U, V with U @ A @ V diagonal are
    retained (dense algorithm, intended for small matrices).
    """
    rows, m, n = _to_int_rows(A)
    if transforms or max(m, n) <= _SPARSE_CUTOFF:
        M = [[rows[i].get(j, 0) for j in range(n)] for i in range(m)]
        diag, U, V = _dense_snf(M, transforms)
        result = SnfResult((m, n), diag)
        if transforms:
            result.U = np.array(U, dtype=object)
            result.V = np.array(V, dtype=object)
        return result

    npiv = _unit_pivot_phase(rows)
    M = _remainder_dense(rows)
    diag, _, _ = _dense_snf(M, False) if M and M[0] else ([], None, None)
    return SnfResult((m, n), [1] * npiv + diag)


def integer_rank(A) -> int:
    return smith_normal_form(A).rank


def rank_mod_p(A, p: int = 2147483629) -> int:
    """Rank over GF(p); used as the fast fallback above the exact-SNF cutoff."""
    rows, m, n = _to_int_rows(A)
    rows = [{j: v % p for j, v in r.items() if v % p} for r in rows]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    active = set(range(m))
    heap = [(len(rows[i]), i) for i in active if rows[i]]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, pr = heapq.heappop(heap)
        if pr not in active or not rows[pr] or length != len(rows[pr]):
            if pr in active and rows[pr]:
                heapq.heappush(heap, (len(rows[pr]), pr))
            continue
        q = min(rows[pr], key=lambda j: (len(col_rows[j]), j))
        inv = pow(rows[pr][q], p - 2, p)
        for i in list(col_rows[q]):
            if i == pr or i not in active:
                continue
            f = (rows[i][q] * inv) % p
            ri, rp = rows[i], rows[pr]
            for j, v in rp.items():
                w = (ri.get(j, 0) - f * v) % p
                if w:
                    if j not in ri:
                        col_rows.setdefault(j, set()).add(i)
                    ri[j] = w
                elif j in ri:
                    del ri[j]
                    col_rows[j].discard(i)
            if rows[i]:
                heapq.heappush(heap, (len(rows[i]), i))
        for j in rows[pr]:
            col_rows[j].discard(pr)
        rows[pr] = {}
        active.discard(pr)
        col_rows.pop(q, None)
        rank += 1
    return rank


def integer_kernel_basis(A) -> list[np.ndarray]:
    """Basis of the integer kernel lattice {x : A @ x = 0}.

    Column elimination to column echelon form with a tracked unimodular
    column transform; columns that reduce to zero yield the kernel basis.

    Pivot rule: the active row first in (entry count, index) order among
    rows holding a +-1 entry, and in it the +-1 column first in (entry
    count, index) order.  A min-heap of (entry count, row) keys finds that
    row; a row's key or unit entries change only when an update touches it,
    so touched rows are re-queued and stale or unit-free entries skipped.
    When no unit entry is left, the sparsest row is reduced by Euclidean
    column steps.
    """
    rows, m, n = _to_int_rows(A)
    cols: list[dict[int, int]] = [dict() for _ in range(n)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            cols[j][i] = v
    row_cols: dict[int, set[int]] = {}
    for j, c in enumerate(cols):
        for i in c:
            row_cols.setdefault(i, set()).add(j)

    V: list[dict[int, int]] = [{j: 1} for j in range(n)]
    active_cols = set(range(n))
    active_rows = set(row_cols)
    touched: set[int] = set()  # rows whose entries changed since the last pivot

    def add_col(dst, src, f):
        # col_dst += f * col_src, tracked in V
        cd, cs = cols[dst], cols[src]
        for i, v in cs.items():
            w = cd.get(i, 0) + f * v
            if w:
                if i not in cd:
                    row_cols.setdefault(i, set()).add(dst)
                cd[i] = w
            elif i in cd:
                del cd[i]
                row_cols[i].discard(dst)
        touched.update(cs)
        vd, vs = V[dst], V[src]
        for k, v in vs.items():
            w = vd.get(k, 0) + f * v
            if w:
                vd[k] = w
            elif k in vd:
                del vd[k]

    heap = [(len(row_cols[i]), i) for i in active_rows]
    heapq.heapify(heap)

    while active_rows:
        pivot = None
        while heap:
            length, i = heapq.heappop(heap)
            if i not in active_rows or length != len(row_cols[i]):
                continue  # stale: retired, or re-queued under its new length
            unit = [c for c in row_cols[i] if abs(cols[c][i]) == 1]
            if unit:
                pivot = (i, min(unit, key=lambda c: (len(cols[c]), c)))
                break
            # no unit entry: the row waits until an update touches it
        if pivot is None:
            # no unit entries left: Euclidean reduction on the sparsest row
            live = [i for i in active_rows if row_cols[i]]
            if not live:
                break
            i = min(live, key=lambda r: (len(row_cols[r]), r))
            while len(row_cols[i]) > 1:
                j = min(row_cols[i], key=lambda c: (abs(cols[c][i]), c))
                for k in list(row_cols[i]):
                    if k != j:
                        add_col(k, j, -(cols[k][i] // cols[j][i]))
            j = next(iter(row_cols[i]))
            pivot = (i, j)
        i, j = pivot
        piv = cols[j][i]
        if abs(piv) == 1:
            for k in list(row_cols[i]):
                if k != j:
                    add_col(k, j, -cols[k][i] * piv)
        # retire pivot column and row
        active_cols.discard(j)
        for r in cols[j]:
            row_cols[r].discard(j)
        touched.update(cols[j])
        active_rows.discard(i)
        for r in touched:
            if r in active_rows:
                heapq.heappush(heap, (len(row_cols[r]), r))
        touched.clear()

    kernel = []
    for j in sorted(active_cols):
        if not cols[j]:
            vec = np.zeros(n, dtype=np.int64)
            for k, v in V[j].items():
                vec[k] = v
            kernel.append(vec)
    return kernel

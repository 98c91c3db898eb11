"""Exact integer (co)homology: Betti numbers, torsion, H^1 generator bases.

Cohomology generators come from two routes.  Periodic grids carry seam
cochains (one per periodic axis) that are closed by construction.  For
everything else we use a tree gauge: every class of closed 1-cochains has a
unique representative vanishing on a spanning forest, so H^1(Z) is exactly
the integer kernel of the curl operator restricted to non-tree edges.  Dual
cycles are edge loops found by a breadth-first search over (vertex, partial
pairing) states, constrained to close up with a prescribed pairing vector.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import TrivialH1
from .mesh import SimplicialComplex3, memo, spanning_forest
from .snf import integer_kernel_basis, rank_mod_p, smith_normal_form
from .surface import SurfaceComplex

EXACT_SNF_LIMIT = 20000


@dataclass
class BettiNumbers:
    betti: tuple[int, int, int, int]
    torsion: list[list[int]]  # invariant factors > 1, per degree
    exact: bool

    @property
    def torsion_free(self) -> bool:
        return not any(self.torsion)

    def flat_torsion(self) -> list[int]:
        return [f for deg in self.torsion for f in deg]


@dataclass
class DualCycle:
    """Integer 1-cycle realized as a closed edge walk."""

    chain: np.ndarray        # signed edge multiplicities
    vertices: list[int]      # closed vertex walk, first == last


@dataclass
class CohomologyBasis:
    cocycles: list[np.ndarray]     # integer closed 1-cochains
    dual_cycles: list[DualCycle]   # edge loops with pairing = identity
    pairing: np.ndarray            # integer period matrix

    @property
    def rank(self) -> int:
        return len(self.cocycles)


def _use_exact(counts) -> bool:
    if max(counts) <= EXACT_SNF_LIMIT:
        return True
    warnings.warn(
        f"complex exceeds {EXACT_SNF_LIMIT} simplices per degree; "
        "computing Betti numbers over GF(p), torsion not certified",
        stacklevel=4,
    )
    return False


def _chain_betti(counts, boundaries, exact: bool) -> BettiNumbers:
    """Betti numbers and torsion of a chain complex from its three boundary ranks."""
    ranks, torsion = [], []
    for A in boundaries:
        if exact:
            r = smith_normal_form(A)
            ranks.append(r.rank)
            torsion.append([int(f) for f in r.invariant_factors if f > 1])
        else:
            ranks.append(rank_mod_p(A))
            torsion.append([])
    r1, r2, r3 = ranks
    betti = (
        counts[0] - r1,
        counts[1] - r1 - r2,
        counts[2] - r2 - r3,
        counts[3] - r3,
    )
    return BettiNumbers(betti=betti, torsion=torsion + [[]], exact=exact)


def _cached_betti(cx, kind: str, counts, boundaries) -> BettiNumbers:
    # the exactness decision (and its warning) is made on every call and is
    # part of the key, so a changed EXACT_SNF_LIMIT never sees a stale record
    exact = _use_exact(counts)
    b = memo(cx, (kind, exact), lambda: _chain_betti(counts, boundaries(), exact))
    return BettiNumbers(betti=b.betti, torsion=[list(t) for t in b.torsion], exact=b.exact)


def betti_numbers(cx: SimplicialComplex3) -> BettiNumbers:
    """Betti numbers and torsion of H_* from Smith normal form ranks.

    Computed once per complex (and exactness decision); each call returns
    its own copy.
    """
    counts = [cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets]
    return _cached_betti(cx, "absolute", counts, lambda: (cx.D0, cx.D1, cx.D2))


def relative_betti(cx: SimplicialComplex3) -> BettiNumbers:
    """Betti numbers of (M, dM) from the quotient chain complex.

    Boundary simplices (the vertices, edges and faces of boundary faces) are
    deleted; for a closed mesh this returns the absolute homology.  Satisfies
    beta_k(M) = beta_{3-k}(M, dM).
    """
    bfaces = cx.boundary_faces
    if len(bfaces) == 0:
        return betti_numbers(cx)
    int_verts = np.setdiff1d(np.arange(cx.num_vertices), cx.faces[bfaces])
    int_edges = np.setdiff1d(np.arange(cx.num_edges), cx.D1[bfaces].indices)
    int_faces = np.setdiff1d(np.arange(cx.num_faces), bfaces)

    def boundaries():
        D0r = cx.D0[int_edges][:, int_verts]
        D1r = cx.D1[int_faces][:, int_edges]
        D2r = cx.D2[:, int_faces]
        return D0r, D1r, D2r

    counts = [len(int_verts), len(int_edges), len(int_faces), cx.num_tets]
    return _cached_betti(cx, "relative", counts, boundaries)


def _adjacency(edges: np.ndarray) -> dict[int, list[tuple[int, int, int]]]:
    """vertex -> sorted list of (neighbour, edge index, sign along canonical)."""
    adj: dict[int, list[tuple[int, int, int]]] = {}
    for k, (a, b) in enumerate(edges):
        adj.setdefault(int(a), []).append((int(b), k, 1))
        adj.setdefault(int(b), []).append((int(a), k, -1))
    for v in adj:
        adj[v].sort()
    return adj


def tree_gauge_cocycles(edges: np.ndarray, D1: sp.spmatrix) -> list[np.ndarray]:
    """Integer basis of H^1(Z) as closed 1-cochains vanishing on a forest.

    Gauging a closed cochain by an exact one makes it vanish on any spanning
    forest, uniquely; the gauged representatives form the integer kernel of
    D1 restricted to non-tree edge columns.
    """
    ne = D1.shape[1]
    nontree = np.setdiff1d(np.arange(ne), spanning_forest(edges).tree_edges)
    if len(nontree) == 0:
        return []
    K = integer_kernel_basis(D1.tocsc()[:, nontree])
    out = []
    for vec in K:
        full = np.zeros(ne, dtype=np.int64)
        full[nontree] = vec
        out.append(full)
    return out


def pairing_loop(
    edges: np.ndarray,
    cocycles: list[np.ndarray],
    target_index: int,
    max_offset: int = 4,
) -> DualCycle:
    """Closed edge walk whose pairing with the cocycle basis is e_j.

    Breadth-first search over (vertex, partial pairing offset) states with
    offsets clamped to |.|_inf <= bound; the bound is widened on failure.
    """
    b = len(cocycles)
    q = np.stack(cocycles, axis=1)  # (E, b) pairing increments
    adj = _adjacency(edges)
    target = tuple(int(i == target_index) for i in range(b))

    roots = spanning_forest(edges).roots.tolist()

    for bound in range(1, max_offset + 1):
        for root in roots:
            start = (root, (0,) * b)
            goal = (root, target)
            parents: dict = {start: None}
            queue = deque([start])
            found = False
            while queue:
                state = queue.popleft()
                if state == goal:
                    found = True
                    break
                u, off = state
                for v, k, s in adj[u]:
                    noff = tuple(o + s * int(q[k, i]) for i, o in enumerate(off))
                    if max(abs(o) for o in noff) > bound:
                        continue
                    nstate = (v, noff)
                    if nstate not in parents:
                        parents[nstate] = (state, k, s)
                        queue.append(nstate)
            if found:
                chain = np.zeros(len(edges), dtype=np.int64)
                verts = [root]
                state = goal
                while parents[state] is not None:
                    prev, k, s = parents[state]
                    chain[k] += s
                    verts.append(prev[0])
                    state = prev
                verts.reverse()
                return DualCycle(chain=chain, vertices=verts)
    raise RuntimeError(
        f"no dual loop with pairing e_{target_index} within offset bound {max_offset}"
    )


def h1_cocycles_auto(cx: SimplicialComplex3) -> list[np.ndarray]:
    """Integer H^1 basis cocycles, computed once per complex.

    Periodic grids carry one closed seam cochain per periodic axis and these
    generate H^1 for every grid product geometry, so the Smith normal form
    ranks are only computed when no seam data is available; then the tree
    gauge supplies the basis and b1 checks its size.  Each call returns its
    own copies of the cocycles.
    """

    def compute() -> list[np.ndarray]:
        seams = cx.meta.get("seam_crossings")
        if seams is not None:
            cocycles = [np.asarray(seams[ax], dtype=np.int64) for ax in sorted(seams)]
            if all(np.abs(cx.D1 @ c).max(initial=0) == 0 for c in cocycles):
                return cocycles
        b1 = betti_numbers(cx).betti[1]
        cocycles = tree_gauge_cocycles(cx.edges, cx.D1) if b1 else []
        if len(cocycles) != b1:
            raise RuntimeError(f"found {len(cocycles)} cocycles, expected {b1}")
        return cocycles

    return [c.copy() for c in memo(cx, "h1_cocycles", compute)]


def _dual_basis(edges: np.ndarray, cocycles: list[np.ndarray], what: str) -> CohomologyBasis:
    """Cocycles plus dual loops searched for each; checks the identity pairing."""
    cycles = [pairing_loop(edges, cocycles, j) for j in range(len(cocycles))]
    pairing = np.array(
        [[int(c @ z.chain) for z in cycles] for c in cocycles], dtype=np.int64
    )
    if not np.array_equal(pairing, np.eye(len(cocycles), dtype=np.int64)):
        raise RuntimeError(f"{what} is not the identity:\n{pairing}")
    return CohomologyBasis(cocycles=cocycles, dual_cycles=cycles, pairing=pairing)


def h1_basis(cx: SimplicialComplex3) -> CohomologyBasis:
    """Integer H^1 basis with dual edge loops; pairing is the identity.

    The dual loops are searched once per complex; each call returns its own
    copy of the basis.
    """

    def compute() -> CohomologyBasis:
        cocycles = h1_cocycles_auto(cx)
        if not cocycles:
            raise TrivialH1("H^1 is trivial")
        return _dual_basis(cx.edges, cocycles, "period pairing")

    basis = memo(cx, "h1_basis", compute)
    return CohomologyBasis(
        cocycles=[c.copy() for c in basis.cocycles],
        dual_cycles=[DualCycle(z.chain.copy(), list(z.vertices)) for z in basis.dual_cycles],
        pairing=basis.pairing.copy(),
    )


def surface_h1_basis(surf: SurfaceComplex) -> CohomologyBasis:
    """H^1 basis of a closed triangulated surface (sum of 2g per component)."""
    cocycles = tree_gauge_cocycles(surf.edges, surf.D1s)
    if not cocycles:
        raise TrivialH1("surface H^1 is trivial")
    return _dual_basis(surf.edges, cocycles, "surface period pairing")

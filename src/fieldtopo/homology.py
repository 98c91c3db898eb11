"""Exact integer (co)homology: Betti numbers, torsion, H^1 generator bases.

Cohomology generators come from two routes.  Periodic grids carry seam
cochains (one per periodic axis) that are closed by construction.  For
everything else we use a tree gauge: every class of closed 1-cochains has a
unique representative vanishing on a spanning forest, so H^1(Z) is exactly
the integer kernel of the curl operator restricted to non-tree edges.  Dual
cycles are integer combinations of the fundamental cycles of a spanning
forest, chosen so that their pairing with the cocycle basis is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.sparse as sp

from .errors import TrivialH1
from .mesh import SimplicialComplex3, integrate_potential, memo, spanning_forest
from .snf import integer_kernel_basis, smith_normal_form
from .surface import SurfaceComplex


@dataclass
class BettiNumbers:
    betti: tuple[int, int, int, int]
    torsion: list[list[int]]  # invariant factors > 1, per degree

    @property
    def exact(self) -> bool:
        """Always true: ranks and torsion come from exact Smith normal forms."""
        return True

    @property
    def torsion_free(self) -> bool:
        return not any(self.torsion)

    def flat_torsion(self) -> list[int]:
        return [f for deg in self.torsion for f in deg]


@dataclass
class CohomologyBasis:
    cocycles: list[np.ndarray]     # integer closed 1-cochains
    dual_cycles: list[np.ndarray]  # integer 1-cycles with pairing = identity
    pairing: np.ndarray            # integer period matrix

    @property
    def rank(self) -> int:
        return len(self.cocycles)


def _chain_betti(counts, boundaries) -> BettiNumbers:
    """Betti numbers and torsion of a chain complex from its three boundary ranks."""
    ranks, torsion = [], []
    for A in boundaries:
        r = smith_normal_form(A)
        ranks.append(r.rank)
        torsion.append([int(f) for f in r.invariant_factors if f > 1])
    r1, r2, r3 = ranks
    betti = (
        counts[0] - r1,
        counts[1] - r1 - r2,
        counts[2] - r2 - r3,
        counts[3] - r3,
    )
    return BettiNumbers(betti=betti, torsion=torsion + [[]])


def _cached_betti(cx, kind: str, counts, boundaries) -> BettiNumbers:
    b = memo(cx, kind, lambda: _chain_betti(counts, boundaries()))
    return BettiNumbers(betti=b.betti, torsion=[list(t) for t in b.torsion])


def betti_numbers(cx: SimplicialComplex3) -> BettiNumbers:
    """Betti numbers and torsion of H_* from Smith normal form ranks.

    Computed once per complex; each call returns its own copy.
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


def dual_loops(edges: np.ndarray, cocycles: list[np.ndarray]) -> list[np.ndarray]:
    """Integer 1-cycles z_j with <c_i, z_j> = delta_ij, one per cocycle.

    Every non-tree edge e of a spanning forest closes a fundamental cycle
    z_e (e plus the tree path back from its head to its tail), which pairs
    with c as c[e] - (phi[head] - phi[tail]), phi the integer potential of c
    along the forest.  Distinct nonzero pairing columns are taken in order
    of first edge id, each kept only if it enlarges their lattice, until
    that lattice is all of Z^b; a Smith form then gives the integer right
    inverse Y with P_S Y = I, and z_j = sum_s Y[s, j] z_{e_s}.  Raises
    RuntimeError if the cocycles do not span a saturated rank-b lattice.
    """
    b = len(cocycles)
    forest = spanning_forest(edges)
    C = np.stack(cocycles)
    phi = np.rint([integrate_potential(forest, c) for c in C]).astype(np.int64)
    P = C - (phi[:, edges[:, 1]] - phi[:, edges[:, 0]])

    nonzero = np.flatnonzero(P.any(axis=0))
    _, first = np.unique(P[:, nonzero], axis=1, return_index=True)
    chosen: list[int] = []
    best = (0, 0)  # (rank, -index of the lattice in its saturation)
    for e in nonzero[np.sort(first)].tolist():
        res = smith_normal_form(P[:, chosen + [e]])
        key = (res.rank, -prod(res.invariant_factors))
        if key > best:
            chosen.append(e)
            best = key
            if best == (b, -1):
                break
    if best != (b, -1):
        raise RuntimeError(
            f"cocycles do not span a saturated rank-{b} lattice of periods "
            f"(rank {best[0]}, index {-best[1]})"
        )
    res = smith_normal_form(P[:, chosen], transforms=True)
    Y = np.array((res.V[:, :b] @ res.U).tolist(), dtype=np.int64)

    # column s of Z is the fundamental cycle of edge chosen[s]
    parent, tree_edge, sign = forest.parent.tolist(), forest.edge.tolist(), forest.sign.tolist()
    Z = np.zeros((len(edges), len(chosen)), dtype=np.int64)
    for s, e in enumerate(chosen):
        Z[e, s] = 1
        for v, f in ((int(edges[e, 1]), -1), (int(edges[e, 0]), 1)):
            while parent[v] >= 0:
                Z[tree_edge[v], s] += f * sign[v]
                v = parent[v]
    return [Z @ Y[:, j] for j in range(b)]


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
    """Cocycles plus their dual loops; checks the identity pairing."""
    cycles = dual_loops(edges, cocycles)
    pairing = np.array([[int(c @ z) for z in cycles] for c in cocycles], dtype=np.int64)
    if not np.array_equal(pairing, np.eye(len(cocycles), dtype=np.int64)):
        raise RuntimeError(f"{what} is not the identity:\n{pairing}")
    return CohomologyBasis(cocycles=cocycles, dual_cycles=cycles, pairing=pairing)


def h1_basis(cx: SimplicialComplex3) -> CohomologyBasis:
    """Integer H^1 basis with dual edge loops; pairing is the identity.

    The dual loops are built once per complex; each call returns its own
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
        dual_cycles=[z.copy() for z in basis.dual_cycles],
        pairing=basis.pairing.copy(),
    )


def surface_h1_basis(surf: SurfaceComplex) -> CohomologyBasis:
    """H^1 basis of a closed triangulated surface (sum of 2g per component)."""
    cocycles = tree_gauge_cocycles(surf.edges, surf.D1s)
    if not cocycles:
        raise TrivialH1("surface H^1 is trivial")
    return _dual_basis(surf.edges, cocycles, "surface period pairing")

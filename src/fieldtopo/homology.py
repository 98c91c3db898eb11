"""Exact integer (co)homology: Betti numbers, torsion, H^1 generator bases.

Cohomology generators come from two routes.  Periodic grids carry seam
cochains (one per periodic axis) that are closed by construction.  For
everything else we use a tree gauge: every class of closed 1-cochains has a
unique representative vanishing on a spanning forest, so H^1(Z) is exactly
the integer kernel of the curl operator restricted to non-tree edges.  Dual
cycles are integer combinations of the fundamental cycles of a spanning
forest, chosen so that their pairing with the cocycle basis is the identity.

The boundary classes, H^1 of the boundary surface paired with H^1 of the
mesh, are one record per complex (``boundary_classes``); the trace boundary
conditions of the curl eigenproblem only choose among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.sparse as sp

from .errors import TrivialH1
from .mesh import SimplicialComplex3, SpanningForest, integrate_potential, memo, spanning_forest
from .snf import integer_kernel_basis, smith_normal_form
from .surface import SurfaceComplex, boundary_surface


@dataclass
class BettiNumbers:
    betti: tuple[int, int, int, int]
    torsion: list[list[int]]  # invariant factors > 1, per degree

    @property
    def exact(self) -> bool:
        """Always true: ranks and torsion come from spanning forests and exact
        Smith normal forms."""
        return True

    def flat_torsion(self) -> list[int]:
        return [f for deg in self.torsion for f in deg]


@dataclass
class CohomologyBasis:
    cocycles: list[np.ndarray]     # integer closed 1-cochains
    dual_cycles: list[np.ndarray]  # integer 1-cycles with pairing = identity

    @property
    def rank(self) -> int:
        return len(self.cocycles)


@dataclass
class BoundaryClasses(CohomologyBasis):
    """H^1 basis sigma', zeta' of the boundary surface, normalized against the mesh.

    T' = <trace of the H^1(M) cocycles, zeta'_j> is column-reduced over the
    integers, so the classes whose dual cycles bound inside the mesh
    ("meridian-like") come first with zero columns: on a solid torus zeta'_0
    is the meridian.  The reduction does not fix the completion: adding a
    zero column's cycle zeta'_i to another zeta'_j keeps T', the order and
    sigma'_j but moves sigma'_i to sigma'_i - sigma'_j.  So a choice of
    zero-column classes, such as closed-trace:0 on box-ring, depends on the
    completion picked, and so does its spectrum (README, boundary classes).
    """

    restriction_pairing: np.ndarray  # T', (b1, rank)


def _incidence_forest(A) -> SpanningForest | None:
    """Spanning forest of A read as a graph's incidence, or None if it is not one.

    Each row is an edge on a ground node, node 0, and the columns, node
    j + 1 for column j: +1 and -1 join their two columns, a lone +-1 joins
    its column to the ground, and an empty row is a self-loop.  The tree
    edges are a maximal independent set of rows.  Paired with the columns
    of the nodes below them (the ground, the lowest node, is always a root)
    they span a triangular block of determinant +-1.  Any other matrix
    gives None: a row with more than two entries, an entry other than +-1,
    or two of the same sign.
    """
    A = sp.csr_matrix(A, dtype=np.int64)
    A.sum_duplicates()
    A.eliminate_zeros()
    count = np.diff(A.indptr)
    rowsum = np.asarray(A.sum(axis=1)).ravel()
    if np.any(np.abs(A.data) != 1) or np.any(count > 2) or np.any(rowsum[count == 2]):
        return None
    ends = np.zeros((A.shape[0], 2), dtype=np.int64)
    ends[count > 0, 1] = A.indices[A.indptr[1:][count > 0] - 1] + 1
    ends[count == 2, 0] = A.indices[A.indptr[:-1][count == 2]] + 1
    return spanning_forest(ends, A.shape[1] + 1)


def _chain_betti(counts, D1, outer) -> BettiNumbers:
    """Betti numbers and torsion of a chain complex from its three boundary ranks.

    ``outer`` pairs each outer map, D0 and D2 transposed, with its spanning
    forest read as a graph (``_incidence_forest``), or None where the map is
    no graph incidence.  A forest's tree edges give the map's rank and a
    unimodular pivot set with no elimination.  Those pivots certify
    dependences in D1 (clearing; Chen-Kerber 2011): D1 D0 = 0 makes the
    columns of D1 at D0's pivot rows integer combinations of the other
    columns, and D2 D1 = 0 does the same for the rows at D2's pivot columns.
    D1 without them has the same rank and invariant factors, and it is all
    that ``smith_normal_form`` sees.  An outer map without a forest, as on a
    non-orientable complex, goes whole to ``smith_normal_form`` and clears
    nothing.
    """
    rows, cols = np.ones(D1.shape[0], dtype=bool), np.ones(D1.shape[1], dtype=bool)
    outer_factors = []
    for (A, forest), mask in zip(outer, (cols, rows)):
        if forest is None:
            outer_factors.append(smith_normal_form(A).invariant_factors)
        else:
            outer_factors.append([1] * len(forest.tree_edges))
            mask[forest.tree_edges] = False
    f1 = smith_normal_form(D1[rows][:, cols]).invariant_factors
    factors = [outer_factors[0], f1, outer_factors[1]]
    r1, r2, r3 = (len(f) for f in factors)
    betti = (
        counts[0] - r1,
        counts[1] - r1 - r2,
        counts[2] - r2 - r3,
        counts[3] - r3,
    )
    torsion = [[int(f) for f in fs if f > 1] for fs in factors]
    return BettiNumbers(betti=betti, torsion=torsion + [[]])


def betti_numbers(cx: SimplicialComplex3) -> BettiNumbers:
    """Betti numbers and torsion of H_* from Smith normal form ranks.

    D0 is the incidence of the mesh's edge graph, so its forest is the
    mesh's own ``cx.forest``.  Computed once per complex and shared, so
    read-only.
    """

    def chain():
        D2t = cx.D2.T
        return cx.D1, [(cx.D0, cx.forest), (D2t, _incidence_forest(D2t))]

    counts = [cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets]
    return memo(cx, "absolute", lambda: _chain_betti(counts, *chain()))


def relative_betti(cx: SimplicialComplex3) -> BettiNumbers:
    """Betti numbers of (M, dM) from the quotient chain complex.

    Boundary simplices (the vertices, edges and faces of boundary faces) are
    deleted; for a closed mesh this returns the absolute homology.  Satisfies
    beta_k(M) = beta_{3-k}(M, dM).  Computed once per complex and shared,
    so read-only.
    """
    bfaces = cx.boundary_faces
    if len(bfaces) == 0:
        return betti_numbers(cx)
    int_verts, int_edges, int_faces = (
        np.flatnonzero(np.bincount(cells, minlength=n) == 0)
        for n, cells in (
            (cx.num_vertices, cx.faces[bfaces].ravel()),
            (cx.num_edges, cx.D1[bfaces].indices),
            (cx.num_faces, bfaces),
        )
    )

    def chain():
        D0r = cx.D0[int_edges][:, int_verts]
        D1r = cx.D1[int_faces][:, int_edges]
        D2rt = cx.D2[:, int_faces].T
        return D1r, [(D0r, _incidence_forest(D0r)), (D2rt, _incidence_forest(D2rt))]

    counts = [len(int_verts), len(int_edges), len(int_faces), cx.num_tets]
    return memo(cx, "relative", lambda: _chain_betti(counts, *chain()))


def tree_gauge_cocycles(forest: SpanningForest, D1: sp.spmatrix) -> list[np.ndarray]:
    """Integer basis of H^1(Z) as closed 1-cochains vanishing on a forest.

    Gauging a closed cochain by an exact one makes it vanish on any spanning
    forest, uniquely; the gauged representatives form the integer kernel of
    A = D1 restricted to the edges outside ``forest``.  ``integer_kernel_basis``
    first peels the edges that are the single live edge of some face, zero
    in every kernel vector, so its elimination sees only the core: 106 of
    2336 columns on box-ring n=7, 18 of 652 on its boundary surface.
    """
    ne = D1.shape[1]
    nontree = np.flatnonzero(np.bincount(forest.tree_edges, minlength=ne) == 0)
    out = []
    for vec in integer_kernel_basis(D1.tocsc()[:, nontree]):
        full = np.zeros(ne, dtype=np.int64)
        full[nontree] = vec
        out.append(full)
    return out


def dual_loops(
    edges: np.ndarray, forest: SpanningForest, cocycles: list[np.ndarray]
) -> list[np.ndarray]:
    """Integer 1-cycles z_j with <c_i, z_j> = delta_ij, one per cocycle.

    Every edge e outside ``forest``, a spanning forest of ``edges``, closes
    a fundamental cycle z_e (e plus the tree path back from its head to its
    tail), which pairs with c as c[e] - (phi[head] - phi[tail]), phi the
    integer potential of c along the forest.  Distinct nonzero pairing
    columns are taken in order of first edge id, each kept only if it
    enlarges their lattice, until that lattice is all of Z^b; a Smith form
    then gives the integer right inverse Y with P_S Y = I, and z_j = sum_s
    Y[s, j] z_{e_s}.  Raises RuntimeError if the cocycles do not span a
    saturated rank-b lattice.
    """
    b = len(cocycles)
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
    gauge supplies the basis and b1 checks its size.  The list is shared,
    so it and its arrays are read-only.
    """

    def compute() -> list[np.ndarray]:
        seams = cx.meta.get("seam_crossings")
        if seams is not None:
            cocycles = [np.asarray(seams[ax], dtype=np.int64) for ax in sorted(seams)]
            if all(np.abs(cx.D1 @ c).max(initial=0) == 0 for c in cocycles):
                return cocycles
        b1 = betti_numbers(cx).betti[1]
        cocycles = tree_gauge_cocycles(cx.forest, cx.D1) if b1 else []
        if len(cocycles) != b1:
            raise RuntimeError(f"found {len(cocycles)} cocycles, expected {b1}")
        return cocycles

    return memo(cx, "h1_cocycles", compute)


def _dual_basis(graph, cocycles: list[np.ndarray], what: str) -> CohomologyBasis:
    """Cocycles plus dual loops on the forest of a complex or surface; checks the pairing."""
    cycles = dual_loops(graph.edges, graph.forest, cocycles)
    pairing = np.array([[int(c @ z) for z in cycles] for c in cocycles], dtype=np.int64)
    if not np.array_equal(pairing, np.eye(len(cocycles), dtype=np.int64)):
        raise RuntimeError(f"{what} is not the identity:\n{pairing}")
    return CohomologyBasis(cocycles=cocycles, dual_cycles=cycles)


def h1_basis(cx: SimplicialComplex3) -> CohomologyBasis:
    """Integer H^1 basis with dual edge loops; pairing is the identity.

    Built once per complex and shared, so it and its arrays are read-only.
    """

    def compute() -> CohomologyBasis:
        cocycles = h1_cocycles_auto(cx)
        if not cocycles:
            raise TrivialH1("H^1 is trivial")
        return _dual_basis(cx, cocycles, "period pairing")

    return memo(cx, "h1_basis", compute)


def surface_h1_basis(surf: SurfaceComplex) -> CohomologyBasis:
    """H^1 basis of a closed triangulated surface (sum of 2g per component)."""
    cocycles = tree_gauge_cocycles(surf.forest, surf.D1s)
    if not cocycles:
        raise TrivialH1("surface H^1 is trivial")
    return _dual_basis(surf, cocycles, "surface period pairing")


def boundary_classes(cx: SimplicialComplex3) -> BoundaryClasses:
    """H^1 of the boundary surface with its restriction pairing.

    Built once per complex and shared, like the boundary surface, so it is
    read-only.  A boundary of genus 0 (or none) has a (b1, 0) pairing.
    """
    return memo(cx, "boundary_classes", lambda: _boundary_classes(cx))


def _boundary_classes(cx: SimplicialComplex3) -> BoundaryClasses:
    surf = boundary_surface(cx)
    omegas = h1_cocycles_auto(cx)
    if sum(surf.genus) == 0:
        return BoundaryClasses([], [], np.zeros((len(omegas), 0), dtype=np.int64))
    sbasis = surface_h1_basis(surf)
    T = np.array(
        [[int(surf.restrict_edge_cochain(w) @ z) for z in sbasis.dual_cycles] for w in omegas],
        dtype=np.int64,
    ).reshape(len(omegas), sbasis.rank)
    # T' = T V P, zeta' = zeta V P and sigma' = sigma V^{-T} P, where V is
    # unimodular (from the Smith form of T) and P moves the zero columns of
    # T V to the front; <sigma'_i, zeta'_j> = delta_ij is kept
    res = smith_normal_form(T, transforms=True)
    V = np.array(res.V.tolist(), dtype=np.int64)
    TV = T @ V
    perm = np.argsort(TV.any(axis=0), kind="stable").tolist()
    # V is unimodular, so its own Smith form U2 V V2 = I gives V^{-1} = V2 U2
    inv = smith_normal_form(V, transforms=True)
    Vinv = np.array((inv.V @ inv.U).tolist(), dtype=np.int64)
    zeta, sigma = sbasis.dual_cycles, sbasis.cocycles
    return BoundaryClasses(
        cocycles=[sum(int(Vinv[j, l]) * sigma[l] for l in range(len(sigma))) for j in perm],
        dual_cycles=[sum(int(V[l, j]) * zeta[l] for l in range(len(zeta))) for j in perm],
        restriction_pairing=TV[:, perm],
    )


def admitted_cocycles(cx: SimplicialComplex3, chosen: tuple[int, ...]) -> list[np.ndarray]:
    """Integer H^1(M) cocycles whose traces lie in the span of the ``chosen``
    boundary classes: the combinations a of the ``h1_cocycles_auto`` basis
    with a @ T'[:, unchosen] = 0 (with nothing chosen, the kernel of
    restriction to H^1(dM))."""
    cocycles = h1_cocycles_auto(cx)
    T = boundary_classes(cx).restriction_pairing
    unchosen = np.flatnonzero(np.bincount(chosen, minlength=T.shape[1]) == 0)
    combos = integer_kernel_basis(T[:, unchosen].T)
    return [sum(int(ak) * ck for ak, ck in zip(a, cocycles)) for a in combos]

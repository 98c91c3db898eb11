"""Self-adjoint curl eigenproblem: linear force-free fields curl H = lambda H.

The edge-element pencil (S, M1) is reduced to a constrained DOF space in
which the boundary pairing vanishes:

* CLOSED_MESH  - no boundary, all edge DOFs;
* ZERO_TRACE   - boundary-edge DOFs forced to zero;
* CLOSED_TRACE - boundary-edge DOFs substituted by a boundary vertex
  potential (one pin per boundary component) plus a chosen isotropic set of
  harmonic boundary cochains; the choice is the Lagrangian data of the
  self-adjoint extension.

The huge curl kernel (gradients plus harmonic fields) is kept out of the
eigensolver in two ways.  Inside the Krylov iteration a polynomial filter of
the shift-inverted operator maps every null vector of the curl pairing to
exactly zero, so each step costs two solves on one factor.  An explicit
kernel basis gives the M1-orthogonal projector that is applied to the start
vector and to the returned eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IncompatibleBC, NoConvergence
from .fem import FemMatrices, field_proxies
from .homology import h1_basis, h1_cocycles_auto, surface_h1_basis, tree_gauge_cocycles
from .mesh import SimplicialComplex3, integrate_potential, spanning_forest
from .snf import integer_kernel_basis, smith_normal_form
from .surface import SurfaceComplex, boundary_surface


class BCKind(Enum):
    CLOSED_MESH = "closed-mesh"
    ZERO_TRACE = "zero-trace"
    CLOSED_TRACE = "closed-trace"


@dataclass
class BoundaryCondition:
    """Boundary condition for the curl eigenproblem.

    ``lagrangian_choice`` indexes into the boundary surface's H^1 basis and
    selects which harmonic trace classes are admitted under CLOSED_TRACE;
    the selected classes must pairwise have vanishing intersection pairing.
    """

    kind: BCKind
    lagrangian_choice: tuple[int, ...] = ()

    @staticmethod
    def closed_mesh() -> "BoundaryCondition":
        return BoundaryCondition(BCKind.CLOSED_MESH)

    @staticmethod
    def zero_trace() -> "BoundaryCondition":
        return BoundaryCondition(BCKind.ZERO_TRACE)

    @staticmethod
    def closed_trace(*choice: int) -> "BoundaryCondition":
        return BoundaryCondition(BCKind.CLOSED_TRACE, tuple(choice))

    def describe(self) -> str:
        if self.kind is BCKind.CLOSED_TRACE:
            return f"closed-trace:{','.join(map(str, self.lagrangian_choice))}"
        return self.kind.value


@dataclass
class BoundaryData:
    """Boundary bookkeeping for trace substitution.

    The boundary H^1 basis is normalized against the mesh: the restriction
    pairing (traces of the mesh's H^1 generators against boundary cycles) is
    column-reduced over the integers, so basis elements whose dual cycles
    bound inside the mesh ("meridian-like") come first and carry zero
    columns.  On a solid torus this makes index 0 the meridian choice and
    index 1 the longitude choice.
    """

    surface: SurfaceComplex
    pins: list[int]                      # one vertex per boundary component
    alpha_verts: np.ndarray              # non-pinned boundary vertices (sorted)
    sigma_all: list[np.ndarray]          # normalized H^1 basis cocycles (surface edges)
    zeta_all: list[np.ndarray]           # dual 1-cycles as surface edge chains
    sigma: list[np.ndarray]              # the chosen subset
    restriction_pairing: np.ndarray      # <trace of M cocycles, zeta_all>


@dataclass
class ReducedPencil:
    """Constrained pencil (S_tilde, M1_tilde) plus the DOF embedding C."""

    complex: SimplicialComplex3
    fem: FemMatrices
    bc: BoundaryCondition
    C: sp.csr_matrix            # (E, ndof) embedding of DOFs into edge space
    S: sp.csr_matrix            # symmetrized reduced curl pairing
    M1: sp.csr_matrix           # reduced mass
    interior_edges: np.ndarray
    boundary: BoundaryData | None
    symmetry_defect: float      # max|R - R^T| / max|R| for R = C^T S C

    @property
    def ndof(self) -> int:
        return self.C.shape[1]

    def to_full(self, x: np.ndarray) -> np.ndarray:
        return self.C @ x

    def full_to_dof(self, h: np.ndarray) -> np.ndarray:
        """Coordinates of an admissible edge cochain; exact for exact input."""
        h = np.asarray(h)
        cx = self.complex
        if self.bc.kind is BCKind.CLOSED_MESH:
            return h.copy()
        if self.bc.kind is BCKind.ZERO_TRACE:
            return h[self.interior_edges].copy()
        bd = self.boundary
        surf = bd.surface
        trace = surf.restrict_edge_cochain(h)
        t = np.array(
            [trace @ bd.zeta_all[l] for l in self.bc.lagrangian_choice]
        ) if bd.sigma else np.zeros(0)
        rem = trace - sum(
            tl * sig for tl, sig in zip(t, bd.sigma)
        ) if len(t) else trace
        forest = spanning_forest(surf.edges, surf.parent.num_vertices, bd.pins)
        alpha = integrate_potential(forest, rem)
        x = np.concatenate([h[self.interior_edges], alpha[bd.alpha_verts], t])
        back = self.C @ x
        if np.max(np.abs(back - h)) > 1e-8 * max(1.0, np.max(np.abs(h))):
            raise ValueError("cochain is not admissible under this boundary condition")
        return x


def _boundary_data(cx: SimplicialComplex3, bc: BoundaryCondition) -> BoundaryData:
    surf = boundary_surface(cx)
    comp_of_vertex = surf.vertex_component
    pins = [
        min(v for v, c in comp_of_vertex.items() if c == comp)
        for comp in range(surf.num_components)
    ]
    alpha_verts = np.array(sorted(set(comp_of_vertex) - set(pins)), dtype=np.int64)

    sigma_all: list[np.ndarray] = []
    zeta_all: list[np.ndarray] = []
    sigma: list[np.ndarray] = []
    pairing = np.zeros((0, 0), dtype=np.int64)
    if sum(surf.genus) > 0:
        sbasis = surface_h1_basis(surf)
        nb = sbasis.rank
        sigma_all = sbasis.cocycles
        zeta_all = sbasis.dual_cycles

        omegas = h1_cocycles_auto(cx)
        if omegas:
            T = np.array(
                [
                    [int(surf.restrict_edge_cochain(w) @ z) for z in zeta_all]
                    for w in omegas
                ],
                dtype=np.int64,
            )
            sigma_all, zeta_all, pairing = _normalize_boundary_basis(
                T, sigma_all, zeta_all
            )

        for l in bc.lagrangian_choice:
            if not (0 <= l < nb):
                raise IncompatibleBC(
                    f"lagrangian choice {l} out of range for boundary H^1 rank {nb}"
                )
        for l in bc.lagrangian_choice:
            for m in bc.lagrangian_choice:
                cup = surf.cup_integral(sigma_all[l], sigma_all[m])
                if cup != 0:
                    raise IncompatibleBC(
                        f"chosen classes {l},{m} are not isotropic (pairing {cup})"
                    )
        sigma = [sigma_all[l] for l in bc.lagrangian_choice]
    elif bc.lagrangian_choice:
        raise IncompatibleBC("lagrangian choice given but boundary has genus 0")

    return BoundaryData(
        surface=surf,
        pins=pins,
        alpha_verts=alpha_verts,
        sigma_all=sigma_all,
        zeta_all=zeta_all,
        sigma=sigma,
        restriction_pairing=pairing,
    )


def _normalize_boundary_basis(T, sigma_all, zeta_all):
    """Column-reduce the restriction pairing over Z and transform the basis.

    Returns (sigma', zeta', T') with T' = T V P, zeta' = zeta V P and
    sigma' = sigma V^{-T} P, where V is unimodular (from the Smith form of T)
    and P moves zero columns of T V to the front.  Duality <sigma'_i,
    zeta'_j> = delta_ij is preserved.
    """
    if T.size == 0:
        return sigma_all, zeta_all, T
    res = smith_normal_form(T, transforms=True)
    V = np.array(res.V.tolist(), dtype=np.int64)
    TV = T @ V
    zero_cols = [j for j in range(V.shape[1]) if not TV[:, j].any()]
    nonzero_cols = [j for j in range(V.shape[1]) if TV[:, j].any()]
    perm = zero_cols + nonzero_cols
    # V is unimodular, so its own Smith form U2 V V2 = I gives V^{-1} = V2 U2
    inv = smith_normal_form(V, transforms=True)
    Vinv = np.array((inv.V @ inv.U).tolist(), dtype=np.int64)
    new_zeta = [sum(int(V[l, j]) * zeta_all[l] for l in range(len(zeta_all))) for j in perm]
    new_sigma = [
        sum(int(Vinv[j, l]) * sigma_all[l] for l in range(len(sigma_all)))
        for j in perm
    ]
    return new_sigma, new_zeta, TV[:, perm]


def reduce_system(
    cx: SimplicialComplex3, fem: FemMatrices, bc: BoundaryCondition
) -> ReducedPencil:
    """Constrain the (S, M1) pencil so the boundary pairing vanishes."""
    has_boundary = len(cx.boundary_faces) > 0
    E = cx.num_edges

    if bc.kind is BCKind.CLOSED_MESH:
        if has_boundary:
            raise IncompatibleBC("CLOSED_MESH requires a mesh without boundary")
        C = sp.identity(E, format="csr")
        interior = np.arange(E)
        bd = None
    elif bc.kind in (BCKind.ZERO_TRACE, BCKind.CLOSED_TRACE):
        if not has_boundary:
            raise IncompatibleBC(f"{bc.kind.value} requires a mesh with boundary")
        bd = _boundary_data(cx, bc)
        surf = bd.surface
        interior = np.setdiff1d(np.arange(E), surf.parent_edge_ids)
        n_int = len(interior)
        rows = [interior]
        cols = [np.arange(n_int)]
        vals = [np.ones(n_int)]
        ncols = n_int
        if bc.kind is BCKind.CLOSED_TRACE:
            # alpha columns: gradient of a boundary vertex potential
            col_of_vertex = {int(v): ncols + i for i, v in enumerate(bd.alpha_verts)}
            r, c, v = [], [], []
            for k, (a, b) in enumerate(surf.edges):
                pe = surf.parent_edge_ids[k]
                if int(a) in col_of_vertex:
                    r.append(pe)
                    c.append(col_of_vertex[int(a)])
                    v.append(-1.0)
                if int(b) in col_of_vertex:
                    r.append(pe)
                    c.append(col_of_vertex[int(b)])
                    v.append(1.0)
            rows.append(np.array(r, dtype=np.int64))
            cols.append(np.array(c, dtype=np.int64))
            vals.append(np.array(v))
            ncols += len(bd.alpha_verts)
            for sig in bd.sigma:
                nz = np.flatnonzero(sig)
                rows.append(surf.parent_edge_ids[nz])
                cols.append(np.full(len(nz), ncols, dtype=np.int64))
                vals.append(sig[nz].astype(float))
                ncols += 1
        C = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(E, ncols),
        ).tocsr()
    else:
        raise IncompatibleBC(f"unknown boundary condition kind {bc.kind}")

    R = (C.T @ fem.S @ C).tocsr()
    M1r = (C.T @ fem.M1 @ C).tocsr()
    defect_mat = (R - R.T).tocoo()
    smax = np.abs(R.data).max() if R.nnz else 1.0
    defect = (np.abs(defect_mat.data).max() / smax) if defect_mat.nnz else 0.0
    S_sym = ((R + R.T) * 0.5).tocsr()
    return ReducedPencil(
        complex=cx,
        fem=fem,
        bc=bc,
        C=C,
        S=S_sym,
        M1=M1r,
        interior_edges=interior,
        boundary=bd,
        symmetry_defect=float(defect),
    )


@dataclass
class KernelBasis:
    """Explicit basis of the curl kernel in DOF coordinates."""

    gradient: sp.csr_matrix      # (ndof, ng) constrained gradient injections
    harmonic: np.ndarray         # (ndof, nh) harmonic representatives

    @property
    def harmonic_dimension(self) -> int:
        return self.harmonic.shape[1]


def _gradient_columns(pencil: ReducedPencil) -> sp.csr_matrix:
    """Injection of every BC-admissible potential into the DOF space."""
    cx = pencil.complex
    bc = pencil.bc
    labels = cx.vertex_components()
    drop: set[int] = set()
    for comp in range(labels.max() + 1):
        drop.add(int(np.flatnonzero(labels == comp)[0]))

    D0 = cx.D0.tocsc()
    if bc.kind is BCKind.CLOSED_MESH:
        keep = [v for v in range(cx.num_vertices) if v not in drop]
        return D0[:, keep].tocsr()

    surf = pencil.boundary.surface
    interior_edges = pencil.interior_edges
    D0_int = D0[interior_edges, :]

    if bc.kind is BCKind.ZERO_TRACE:
        # admissible potentials: free on interior vertices, locally constant
        # on each boundary component; one parameter per mesh component is
        # redundant (global constants) and gets dropped
        comp_of_vertex = surf.vertex_component
        bcomp_rep: dict[int, int] = {}
        for v, c in comp_of_vertex.items():
            bcomp_rep.setdefault(c, v)
        drop_bcomp: set[int] = set()
        drop_ivert: set[int] = set()
        for mcomp in range(labels.max() + 1):
            owned = sorted(c for c, v in bcomp_rep.items() if labels[v] == mcomp)
            if owned:
                drop_bcomp.add(owned[0])
            else:
                drop_ivert.add(int(np.flatnonzero(labels == mcomp)[0]))
        cols = []
        for v in range(cx.num_vertices):
            if v in comp_of_vertex or v in drop_ivert:
                continue
            cols.append(D0_int[:, v])
        for comp in range(surf.num_components):
            if comp in drop_bcomp:
                continue
            verts = [v for v, c in comp_of_vertex.items() if c == comp]
            combined = sum(D0_int[:, v] for v in verts)
            cols.append(sp.csc_matrix(combined))
        if not cols:
            return sp.csr_matrix((len(interior_edges), 0))
        return sp.hstack(cols, format="csr")

    # CLOSED_TRACE: phi on all vertices except one drop per mesh component
    bd = pencil.boundary
    n_int = len(interior_edges)
    nalpha = len(bd.alpha_verts)
    nt = len(bd.sigma)
    alpha_col = {int(v): n_int + i for i, v in enumerate(bd.alpha_verts)}
    comp_of_vertex = surf.vertex_component
    pins = bd.pins
    rows, cols, vals = [], [], []
    ncol = 0
    for u in range(cx.num_vertices):
        if u in drop:
            continue
        block = D0_int[:, u].tocoo()
        rows.extend(block.row.tolist())
        cols.extend([ncol] * block.nnz)
        vals.extend(block.data.tolist())
        if u in comp_of_vertex:
            if u in pins:
                comp = comp_of_vertex[u]
                for v, c in comp_of_vertex.items():
                    if c == comp and v not in pins:
                        rows.append(alpha_col[v])
                        cols.append(ncol)
                        vals.append(-1.0)
            else:
                rows.append(alpha_col[u])
                cols.append(ncol)
                vals.append(1.0)
        ncol += 1
    ndof = n_int + nalpha + nt
    return sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ncol)).tocsr()


def _relative_cocycles(cx: SimplicialComplex3, surf: SurfaceComplex) -> list[np.ndarray]:
    """Integer basis of H^1(M, dM): closed cochains vanishing on the boundary.

    Tree gauge on the quotient graph in which the whole boundary is
    contracted to node 0 and every other vertex v becomes node v + 1.
    """
    interior = np.setdiff1d(np.arange(cx.num_edges), surf.parent_edge_ids)
    node = np.arange(1, cx.num_vertices + 1)
    node[list(surf.vertex_component)] = 0
    out = []
    for vec in tree_gauge_cocycles(node[cx.edges[interior]], cx.D1.tocsc()[:, interior]):
        full = np.zeros(cx.num_edges, dtype=np.int64)
        full[interior] = vec
        out.append(full)
    return out


def _harmonic_columns(pencil: ReducedPencil) -> np.ndarray:
    """Curl-free non-gradient representatives in DOF coordinates."""
    cx = pencil.complex
    bc = pencil.bc

    if bc.kind is BCKind.CLOSED_MESH:
        cocycles = h1_cocycles_auto(cx)
        if not cocycles:
            return np.zeros((pencil.ndof, 0))
        return np.column_stack([c.astype(float) for c in cocycles])

    surf = pencil.boundary.surface
    if bc.kind is BCKind.ZERO_TRACE:
        reps = _relative_cocycles(cx, surf)
        if not reps:
            return np.zeros((pencil.ndof, 0))
        # keep only representatives with independent absolute classes; the
        # others are gradients of potentials that are constant per boundary
        # component (already in the gradient block)
        if not h1_cocycles_auto(cx):
            return np.zeros((pencil.ndof, 0))
        duals = h1_basis(cx).dual_cycles
        classes = np.array([[int(r @ z) for z in duals] for r in reps])
        keep: list[int] = []
        rank = 0
        for i in range(len(reps)):
            sub = classes[keep + [i]]
            r = smith_normal_form(sub).rank
            if r > rank:
                keep.append(i)
                rank = r
        cols = [pencil.full_to_dof(reps[i].astype(float)) for i in keep]
        return np.column_stack(cols) if cols else np.zeros((pencil.ndof, 0))

    # CLOSED_TRACE: combinations of absolute classes whose trace class lies
    # in the span of the chosen boundary classes
    bd = pencil.boundary
    cocycles = h1_cocycles_auto(cx)
    b1 = len(cocycles)
    if b1 == 0:
        return np.zeros((pencil.ndof, 0))
    T = bd.restriction_pairing  # (b1, boundary rank)
    chosen = set(pencil.bc.lagrangian_choice)
    non_chosen = [j for j in range(T.shape[1]) if j not in chosen]
    if non_chosen:
        # combos a with a @ T[:, non_chosen] = 0 are admissible
        combos = integer_kernel_basis(T[:, non_chosen].T)
    else:
        combos = list(np.eye(b1, dtype=np.int64))
    cols = []
    for a in combos:
        c = sum(int(ak) * ck for ak, ck in zip(a, cocycles)).astype(float)
        cols.append(pencil.full_to_dof(c))
    return np.column_stack(cols) if cols else np.zeros((pencil.ndof, 0))


class KernelProjector:
    """M1-orthogonal projector onto the complement of the curl kernel.

    P v = v - W (W^T M1 W)^{-1} W^T M1 v with W = [G | H], gradients and
    harmonic fields.  The harmonic columns are M1-orthogonal to G, so the
    Gram matrix is block-diagonal: the sparse G^T M1 G, whose factor
    ``gradient_gram`` is passed in, next to a dense nh x nh block.
    Idempotent and M1-self-adjoint by construction.  The eigensolver applies
    it to its start vector and to the vectors it returns.
    """

    def __init__(self, pencil: ReducedPencil, basis: KernelBasis, gradient_gram):
        self.pencil = pencil
        self.basis = basis
        self._gram_lu = gradient_gram
        H = basis.harmonic
        self._M1 = pencil.M1
        self._harmonic_gram = H.T @ (self._M1 @ H)

    @property
    def harmonic_dimension(self) -> int:
        return self.basis.harmonic_dimension

    def _kernel_part(self, x: np.ndarray) -> np.ndarray:
        """Kernel component W (W^T M1 W)^{-1} W^T x of the momentum x = M1 v."""
        G, H = self.basis.gradient, self.basis.harmonic
        return G @ self._gram_lu.solve(G.T @ x) + H @ np.linalg.solve(
            self._harmonic_gram, H.T @ x
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v - self._kernel_part(self._M1 @ v)

    def apply_dual(self, x: np.ndarray) -> np.ndarray:
        """Adjoint projector on momentum vectors: P_dual(M v) = M (P v)."""
        return x - self._M1 @ self._kernel_part(x)

    __call__ = apply


def kernel_projector(
    cx: SimplicialComplex3,
    fem: FemMatrices,
    bc: BoundaryCondition,
    pencil: ReducedPencil | None = None,
) -> KernelProjector:
    """Build the structural kernel deflation for the given boundary condition."""
    if pencil is None:
        pencil = reduce_system(cx, fem, bc)
    G = _gradient_columns(pencil)
    H = _harmonic_columns(pencil)
    gram = spla.splu((G.T @ pencil.M1 @ G).tocsc())
    # harmonic columns may contain gradient components; M1-orthogonalize
    # (which leaves the projector one factor, of the gradient Gram) and drop
    # anything that projects to (numerically) nothing
    if H.shape[1]:
        Hp = H - G @ gram.solve(G.T @ (pencil.M1 @ H))
        keep = []
        for j in range(Hp.shape[1]):
            nrm = np.sqrt(Hp[:, j] @ (pencil.M1 @ Hp[:, j]))
            ref = np.sqrt(H[:, j] @ (pencil.M1 @ H[:, j]))
            if nrm > 1e-8 * max(ref, 1.0):
                keep.append(j)
        H = Hp[:, keep]
    basis = KernelBasis(gradient=G, harmonic=H)
    return KernelProjector(pencil, basis, gram)


@dataclass
class BeltramiSolution:
    """Eigenpairs of the constrained curl operator, sorted by |lambda|."""

    lambdas: np.ndarray          # (k,)
    cochains: np.ndarray         # (E, k) full edge cochains, M1-normalized
    dof_vectors: np.ndarray      # (ndof, k)
    residuals: np.ndarray        # ||S x - lambda M1 x||_{M1^{-1}}
    div_residuals: np.ndarray    # BC-admissible weak divergence norm
    helicities: np.ndarray       # 0.5 h^T S h
    energies: np.ndarray         # 0.5 h^T M1 h
    bc: BoundaryCondition
    shift: float
    pencil: ReducedPencil

    @property
    def pairs(self) -> list[tuple[float, np.ndarray]]:
        return [
            (float(l), self.cochains[:, i]) for i, l in enumerate(self.lambdas)
        ]


def default_shift(cx: SimplicialComplex3) -> float:
    """0.1 x (domain-scale estimate of the smallest nonzero |lambda|).

    The estimate is 2*pi over the largest bounding-box extent of the tet
    coordinates; shift-invert only needs the order of magnitude.
    """
    coords = cx.tet_coords.reshape(-1, 3)
    extent = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
    return 0.1 * (2.0 * np.pi / extent)


def _shift_side_order(lams: np.ndarray, sigma: float, tol: float) -> np.ndarray:
    """Indices that sort ``lams`` by |lambda|.

    Values whose |lambda| agree within tol * max(1, |lambda|) are tied, and a
    tie lists the shift's sign first, so that rounding cannot pick the sign
    of a +-lambda pair.
    """
    mag = np.abs(lams)
    order = np.argsort(mag, kind="stable")
    tie = np.empty(len(order))
    head = -np.inf
    for pos, m in enumerate(mag[order]):
        if m - head > tol * max(1.0, head):
            head = m
        tie[pos] = head
    away = np.sign(lams[order]) != np.sign(sigma)
    return order[np.lexsort((away, tie))]


def smallest_beltrami(
    pencil: ReducedPencil,
    projector: KernelProjector,
    k: int = 1,
    tol: float = 1e-8,
    shift: float | None = None,
    seed: int = 0,
    maxiter: int | None = None,
) -> BeltramiSolution:
    """k eigenpairs of smallest nonzero |lambda| on the shift's side of
    S x = lambda M1 x.

    Implicitly-restarted Lanczos (ARPACK's shift-invert mode) on the filter
    f(OP) = OP^2 + OP/sigma of OP = (S - sigma M1)^{-1} M1: two solves on one
    factor per step.  f vanishes on the whole curl kernel, so the zero
    eigenvalue of the pencil is invisible to the iteration; the kernel
    projector is applied only to the start vector and to the Ritz vectors.

    The filter damps eigenvalues of the sign opposite to the shift, so the
    contract is the smallest |lambda| on the shift's side: where the
    spectrum is not sign-symmetric (closed-trace conditions), a smaller
    |lambda| of the other sign needs a shift of that sign.  Pairs come sorted
    by |lambda|; values tied within tol * max(1, |lambda|) list the shift's
    sign first.  Deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = pencil.ndof
    sigma = default_shift(pencil.complex) if shift is None else float(shift)

    A = pencil.S
    M = pencil.M1
    # A - sigma M is symmetric indefinite; symmetric-mode ordering keeps the
    # fill an order of magnitude below the default unsymmetric one
    op_lu = spla.splu(
        (A - sigma * M).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        options=dict(SymmetricMode=True, DiagPivotThresh=0.01),
    )

    def filtered(y):
        # ARPACK passes y = M v and wants f(OP) v with OP = (A - sigma M)^{-1} M
        # (eigenvalue nu = 1/(lambda - sigma)) and f(nu) = nu^2 + nu/sigma.
        # Gradients, harmonic fields and curls in the dead space of the mixed
        # edge/face pairing all have A x = 0, i.e. lambda = 0 or
        # nu = -1/sigma, where f vanishes: the filter removes the whole kernel
        # exactly, with no projection inside the loop (rounding leaves below
        # 1e-12, in M-norm, of kernel in the Ritz vectors, which the final
        # projection removes).  f boosts eigenvalues near sigma, and with
        # sigma well below |lambda|_min distinct lambdas cannot collide.
        u = op_lu.solve(y)
        return op_lu.solve(M @ u) + u / sigma

    n_req = min(n - 2, max(2 * k + 4, 12))
    if n_req < k:
        raise NoConvergence(f"system too small for k={k} pairs")
    rng = np.random.default_rng(seed)
    v0 = projector.apply(rng.standard_normal(n))

    ncv = min(n, max(4 * n_req, 40))
    try:
        _, vecs = spla.eigsh(
            A,
            k=n_req,
            M=M,
            sigma=sigma,
            OPinv=spla.LinearOperator((n, n), matvec=filtered),
            which="LM",
            v0=v0,
            ncv=ncv,
            maxiter=maxiter,
            tol=1e-12,
        )
    except spla.ArpackNoConvergence as exc:
        if getattr(exc, "eigenvectors", None) is not None and exc.eigenvectors.shape[1] >= k:
            vecs = exc.eigenvectors
        else:
            raise NoConvergence(f"ARPACK did not converge: {exc}") from exc

    X = projector.apply(vecs)
    nrm = np.sqrt(np.einsum("ik,ik->k", X, M @ X))
    usable = nrm >= 1e-12
    X = X[:, usable] / nrm[usable]
    lams = np.einsum("ik,ik->k", X, A @ X)  # Rayleigh quotients; M-norms are 1
    chosen = _shift_side_order(lams, sigma, tol)[:k]
    X, lams = X[:, chosen], lams[chosen]
    # sign convention: largest-magnitude component positive
    X = X * np.sign(X[np.argmax(np.abs(X), axis=0), np.arange(X.shape[1])])

    # the Whitney mass matrix is uniformly well conditioned: Jacobi-CG
    # replaces a factorization for the M^{-1}-norm of each residual
    m_diag_inv = 1.0 / M.diagonal()
    m_pre = spla.LinearOperator(M.shape, matvec=lambda x: m_diag_inv * x)

    def m_solve(x):
        y, info = spla.cg(M, x, rtol=1e-13, atol=0.0, maxiter=500, M=m_pre)
        if info != 0:
            raise NoConvergence(f"mass solve CG failed (info={info})")
        return y

    R = A @ X - (M @ X) * lams
    res = [float(np.sqrt(r @ m_solve(r))) for r in R.T]
    G = projector.basis.gradient
    divs = np.linalg.norm(G.T @ (M @ X), axis=0) if G.shape[1] else np.zeros(len(lams))

    if len(lams) < k:
        raise NoConvergence(
            f"only {len(lams)} usable pairs of {k} requested",
            best_residual=min(res) if res else None,
        )
    worst = max(res)
    if worst > tol:
        raise NoConvergence(
            f"eigen residual {worst:.3e} above tol {tol:.1e}", best_residual=worst
        )

    H = pencil.C @ X
    Sfull = pencil.fem.S
    M1full = pencil.fem.M1
    hel = 0.5 * np.einsum("ek,ek->k", H, Sfull @ H)
    ene = 0.5 * np.einsum("ek,ek->k", H, M1full @ H)
    return BeltramiSolution(
        lambdas=lams,
        cochains=H,
        dof_vectors=X,
        residuals=np.array(res),
        div_residuals=divs,
        helicities=hel,
        energies=ene,
        bc=pencil.bc,
        shift=sigma,
        pencil=pencil,
    )


def cluster_align(
    solution: BeltramiSolution, target, rtol: float = 1e-6
) -> np.ndarray:
    """Combination of the leading (numerically degenerate) eigencluster that
    best matches a target edge cochain, M1-normalized.

    Any combination of eigenvectors sharing an eigenvalue is itself an
    eigenvector; this picks a well-conditioned representative (e.g. one with
    uniform magnitude) out of a cluster whose individual Ritz vectors are an
    arbitrary rotation of the eigenspace.
    """
    target = np.asarray(target, dtype=float)
    lam0 = solution.lambdas[0]
    members = [
        i
        for i, lam in enumerate(solution.lambdas)
        if abs(lam - lam0) <= rtol * max(abs(lam0), 1.0)
    ]
    B = solution.cochains[:, members]
    M1 = solution.pencil.fem.M1
    coeff = np.linalg.lstsq(B.T @ (M1 @ B), B.T @ (M1 @ target), rcond=None)[0]
    h = B @ coeff
    nrm = np.sqrt(h @ (M1 @ h))
    if nrm == 0:
        raise ValueError("target has no component in the leading cluster")
    return h / nrm


@dataclass
class PairDiagnostics:
    lam: float
    eigen_residual: float
    proxy_curl_residual: float   # ||curlH - lam H||_{L2 proxy} / ||H||_{L2 proxy}
    div_residual: float
    div_full: float              # ||D0^T M1 h||_2 on the full edge space
    helicity: float
    energy: float
    helicity_over_energy: float


def residual_report(solution: BeltramiSolution, fem: FemMatrices) -> list[PairDiagnostics]:
    """Per-pair strong-form and constraint diagnostics."""
    cx = solution.pencil.complex
    from .fem import tet_geometry

    _, vols, _ = tet_geometry(cx)
    out = []
    for i, lam in enumerate(solution.lambdas):
        h = solution.cochains[:, i]
        H, curlH = field_proxies(cx, h)
        num = np.sqrt(np.sum(np.sum((curlH - lam * H) ** 2, axis=1) * vols))
        den = np.sqrt(np.sum(np.sum(H**2, axis=1) * vols))
        div_full = float(np.linalg.norm(cx.D0.T @ (fem.M1 @ h)))
        out.append(
            PairDiagnostics(
                lam=float(lam),
                eigen_residual=float(solution.residuals[i]),
                proxy_curl_residual=float(num / den) if den else 0.0,
                div_residual=float(solution.div_residuals[i]),
                div_full=div_full,
                helicity=float(solution.helicities[i]),
                energy=float(solution.energies[i]),
                helicity_over_energy=float(solution.helicities[i] / solution.energies[i]),
            )
        )
    return out

"""Self-adjoint curl eigenproblem: linear force-free fields curl H = lambda H.

The edge-element pencil (S, M1) is reduced to a constrained DOF space in
which the boundary pairing vanishes:

* CLOSED_MESH  - no boundary: zero trace on the empty surface, all edge DOFs;
* ZERO_TRACE   - boundary-edge DOFs forced to zero;
* CLOSED_TRACE - boundary-edge DOFs substituted by a boundary vertex
  potential (one pin per boundary component) plus a chosen isotropic set of
  harmonic boundary cochains; the choice is the Lagrangian data of the
  self-adjoint extension.

The boundary topology comes from ``homology.boundary_classes`` and the
boundary surface's forest (the pins); this module only picks the Lagrangian
classes.

The curl kernel holds the admissible gradients and the harmonic fields.
The harmonic fields follow one rule for every condition: the classes of
H^1(M) whose boundary trace lies in the span of the chosen classes.  With no
class chosen (ZERO_TRACE) that is the kernel of restriction to H^1(dM).

The huge curl kernel is kept out of the eigensolver in two ways.  The
Cayley transform (S - sigma M1)^{-1} S maps every null vector of the curl
pairing to exactly zero, so the iteration never sees it, and an explicit
kernel basis gives the M1-orthogonal projector that is applied to the start
block and to the returned eigenvectors.  The
iteration is thick-restart block Lanczos (Grimes-Lewis-Simon, SIMAX 1994)
with b = min(k, n) columns per block: each step is one b-column solve on one
factor, it stops once the k leading pairs have converged, and a cluster of
multiplicity up to k comes out complete.  Besides the factor it holds one
M1-orthonormal basis V and its image M1 V, not the image of V under the
transform: that maps every block but the newest into span V, so the Ritz
residuals come from the Lanczos remainder of the newest block, which is
also the next block.

A solve factors one matrix, the indefinite S - sigma M1.  The two positive
definite systems it also meets, the projector's gradient Gram G^T M1 G and
the mass matrix M1 in the residual norm, see only a few right-hand sides
each and are solved by Jacobi-preconditioned CG.

The factor is SuperLU's (Demmel-Eisenstat-Gilbert-Li-Liu, SIMAX 1999) in
symmetric mode, ordered by minimum degree on A^T + A, with a 0.01 diagonal
pivot threshold and without relaxed supernodes (relax=1).  SuperLU's
default relaxation pads small elimination-tree subtrees into dense
supernodes (Ashcraft-Grimes, ACM TOMS 1989); the fill of this pencil is
sparse near the leaves, so the padding costs flops and memory and saves
nothing.  At torus3 n=12 (one thread, six alternating factorizations) the
factor keeps its 9,136,690 nonzeros and its median time falls from 1.89 to
1.22 s, a two-column solve from 28.5 to 21.8 ms.  The pivot threshold stays
at 0.01: 0.1 multiplied the fill of box-ring n=9 by ten (1.13 M to 10.9 M
nonzeros), and 0.001 or 0 raised the relative residual of a two-column solve
at box-ring n=15 from 2.5e-12 to 2.8e-11 or 1.7e-11.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IncompatibleBC, NoConvergence
from .fem import build_fem, energy, helicity, tet_geometry
from .homology import admitted_cocycles, boundary_classes
from .mesh import SimplicialComplex3, integrate_potential
from .surface import boundary_surface


class BCKind(Enum):
    CLOSED_MESH = "closed-mesh"
    ZERO_TRACE = "zero-trace"
    CLOSED_TRACE = "closed-trace"


@dataclass
class BoundaryCondition:
    """Boundary condition for the curl eigenproblem.

    ``lagrangian_choice`` indexes the classes of ``homology.boundary_classes``
    and selects which harmonic trace classes are admitted under CLOSED_TRACE;
    the selected classes must pairwise have vanishing intersection pairing.

    ``describe`` writes ``closed-mesh``, ``zero-trace`` or ``closed-trace:I,J,...``
    (``closed-trace:`` when no class is chosen); ``parse`` reads just that, in
    any case, with surrounding spaces, and ``closed-trace`` without the colon.
    """

    kind: BCKind
    lagrangian_choice: tuple[int, ...] = ()

    def __post_init__(self):
        if self.lagrangian_choice and self.kind is not BCKind.CLOSED_TRACE:
            raise ValueError(f"{self.kind.value} takes no lagrangian choice")

    def describe(self) -> str:
        if self.kind is BCKind.CLOSED_TRACE:
            return f"closed-trace:{','.join(map(str, self.lagrangian_choice))}"
        return self.kind.value

    @staticmethod
    def parse(text: str) -> "BoundaryCondition":
        """Read the text form given above; ValueError on any other text."""
        descr = text.strip().lower()
        kind, _, choice = descr.partition(":")
        try:
            indices = tuple(map(int, choice.split(","))) if choice else ()
            bc = BoundaryCondition(BCKind(kind), indices)
        except ValueError:
            bc = None
        if bc is None or bc.describe() not in (descr, descr + ":"):
            raise ValueError(f"unknown boundary condition {text!r}")
        return bc


@dataclass
class ReducedPencil:
    """Constrained pencil (S_tilde, M1_tilde) plus the DOF embedding C."""

    complex: SimplicialComplex3
    bc: BoundaryCondition
    C: sp.csr_matrix            # (E, ndof) embedding of DOFs into edge space
    S: sp.csr_matrix            # symmetrized reduced curl pairing
    M1: sp.csr_matrix           # reduced mass
    interior_edges: np.ndarray
    symmetry_defect: float      # max|R - R^T| / max|R| for R = C^T S C

    @property
    def ndof(self) -> int:
        return self.C.shape[1]

    def full_to_dof(self, h: np.ndarray) -> np.ndarray:
        """Coordinates of an admissible edge cochain; exact for exact input.

        The trace's periods t on the chosen classes' dual cycles zeta' are
        their coordinates; the trace left after t sigma is integrated to a
        potential alpha on the boundary surface's forest, zero at the pins.
        Under CLOSED_TRACE alpha is part of the coordinates; otherwise the
        exact trace is stripped, and the coordinates are those of h - D0
        alpha (h itself on a closed mesh).  Raises ValueError when what is
        left is not admissible (a trace class the condition does not admit).
        """
        h = np.asarray(h, dtype=float)
        surf = boundary_surface(self.complex)
        classes = boundary_classes(self.complex)
        choice = self.bc.lagrangian_choice
        trace = surf.restrict_edge_cochain(h)
        t = np.array([trace @ classes.dual_cycles[l] for l in choice])
        rem = trace - sum(tl * classes.cocycles[l] for tl, l in zip(t, choice))
        alpha = integrate_potential(surf.forest, rem)
        if self.bc.kind is BCKind.CLOSED_TRACE:
            x = np.concatenate([h[self.interior_edges], alpha[surf.forest.parent >= 0], t])
        else:
            h = h - self.complex.D0 @ alpha
            x = h[self.interior_edges]
        back = self.C @ x
        if np.max(np.abs(back - h)) > 1e-8 * max(1.0, np.max(np.abs(h))):
            raise ValueError("cochain is not admissible under this boundary condition")
        return x


def _lagrangian_classes(cx: SimplicialComplex3, bc: BoundaryCondition) -> list[np.ndarray]:
    """The classes sigma' of ``boundary_classes`` that ``bc`` chooses; raises
    IncompatibleBC unless the choice is in range, unrepeated and isotropic."""
    classes = boundary_classes(cx)
    choice = bc.lagrangian_choice
    if choice and classes.rank == 0:
        raise IncompatibleBC("lagrangian choice given but boundary has genus 0")
    for pos, l in enumerate(choice):
        if not (0 <= l < classes.rank):
            raise IncompatibleBC(
                f"lagrangian choice {l} out of range for boundary H^1 rank {classes.rank}"
            )
        if l in choice[:pos]:
            raise IncompatibleBC(f"lagrangian choice {l} is repeated")
    surf = boundary_surface(cx)
    for l in choice:
        for m in choice:
            cup = surf.cup_integral(classes.cocycles[l], classes.cocycles[m])
            if cup != 0:
                raise IncompatibleBC(
                    f"chosen classes {l},{m} are not isotropic (pairing {cup})"
                )
    return [classes.cocycles[l] for l in choice]


def reduce_system(cx: SimplicialComplex3, bc: BoundaryCondition) -> ReducedPencil:
    """Constrain the complex's (S, M1) pencil, ``build_fem(cx)``, so the
    boundary pairing vanishes.

    DOFs: the interior edges, then under CLOSED_TRACE alpha at the boundary
    vertices but the pins and one per chosen class.  CLOSED_MESH is the
    zero-trace reduction of the empty boundary surface (C = I).
    """
    fem = build_fem(cx)
    has_boundary = len(cx.boundary_faces) > 0
    if bc.kind is BCKind.CLOSED_MESH and has_boundary:
        raise IncompatibleBC("CLOSED_MESH requires a mesh without boundary")
    if bc.kind is not BCKind.CLOSED_MESH and not has_boundary:
        raise IncompatibleBC(f"{bc.kind.value} requires a mesh with boundary")
    E = cx.num_edges
    surf = boundary_surface(cx)
    sigma = _lagrangian_classes(cx, bc)
    interior = np.flatnonzero(np.bincount(surf.parent_edge_ids, minlength=E) == 0)
    n_int = len(interior)
    rows = [interior]
    cols = [np.arange(n_int)]
    vals = [np.ones(n_int)]
    ncols = n_int
    if bc.kind is BCKind.CLOSED_TRACE:
        # alpha columns: gradient of a boundary vertex potential
        alpha_verts = np.flatnonzero(surf.forest.parent >= 0)
        alpha = cx.D0[surf.parent_edge_ids][:, alpha_verts].tocoo()
        rows.append(surf.parent_edge_ids[alpha.row])
        cols.append(ncols + alpha.col)
        vals.append(alpha.data.astype(float))
        ncols += len(alpha_verts)
        for sig in sigma:
            nz = np.flatnonzero(sig)
            rows.append(surf.parent_edge_ids[nz])
            cols.append(np.full(len(nz), ncols, dtype=np.int64))
            vals.append(sig[nz].astype(float))
            ncols += 1
    C = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(E, ncols),
    ).tocsr()

    if not has_boundary:
        # C = I: the pencil shares fem.M1, where C^T M1 C would copy it
        # (1.6 MB more peak RSS at torus3 n=12, and the two products take
        # 9 ms); R drops the explicit zeros of S as C^T S C does, so the
        # pencil is byte for byte the products'
        R = fem.S.copy()
        R.eliminate_zeros()
        M1r = fem.M1
    else:
        R = (C.T @ fem.S @ C).tocsr()
        M1r = (C.T @ fem.M1 @ C).tocsr()
    defect_mat = (R - R.T).tocoo()
    smax = np.abs(R.data).max() if R.nnz else 1.0
    defect = (np.abs(defect_mat.data).max() / smax) if defect_mat.nnz else 0.0
    S_sym = ((R + R.T) * 0.5).tocsr()
    return ReducedPencil(
        complex=cx,
        bc=bc,
        C=C,
        S=S_sym,
        M1=M1r,
        interior_edges=interior,
        symmetry_defect=float(defect),
    )


def _gradient_columns(pencil: ReducedPencil) -> sp.csr_matrix:
    """Injection of every BC-admissible potential into the DOF space.

    G = P @ Phi[:, keep].  P maps a vertex potential to DOF coordinates: its
    gradient on the DOF edges, then under CLOSED_TRACE the boundary potential
    relative to the component pins and zero sigma coordinates.  Phi holds the
    admissible potentials, one per vertex, except that under the zero-trace
    reduction each boundary component moves as one block.  One column per
    mesh component is a global constant and gets dropped: its first
    boundary block if it has one, else its lowest vertex.
    """
    cx = pencil.complex
    V = cx.num_vertices
    surf = boundary_surface(cx)
    rows = [cx.D0[pencil.interior_edges]]
    block = surf.vertex_component
    if pencil.bc.kind is BCKind.CLOSED_TRACE:
        block = np.full(V, -1)
        forest = surf.forest
        alpha = np.flatnonzero(forest.parent >= 0)
        pins = forest.order[forest.parent[forest.order] < 0]  # in component-label order
        pin = pins[surf.vertex_component[alpha]]
        k = np.arange(len(alpha))
        rows.append(sp.csr_matrix(
            (np.repeat([1, -1], len(alpha)), (np.tile(k, 2), np.concatenate([alpha, pin]))),
            shape=(len(alpha), V),
        ))
        rows.append(sp.csr_matrix((len(pencil.bc.lagrangian_choice), V), dtype=np.int64))
    P = sp.vstack(rows, format="csr")

    free = block < 0
    nfree = int(free.sum())
    column = np.where(free, np.cumsum(free) - 1, nfree + block)
    Phi = sp.csr_matrix((np.ones(V, dtype=np.int64), (np.arange(V), column)))
    key = np.where(free, V + np.arange(V), block)
    order = np.argsort(key, kind="stable")
    _, first = np.unique(cx.forest.component[order], return_index=True)
    keep = np.flatnonzero(np.bincount(column[order[first]], minlength=Phi.shape[1]) == 0)
    return (P @ Phi[:, keep]).sorted_indices()


def _harmonic_columns(pencil: ReducedPencil) -> np.ndarray:
    """Curl-free non-gradient representatives in DOF coordinates.

    One rule for every boundary condition: the ``admitted_cocycles`` of the
    Lagrangian choice, the H^1(M) classes whose traces lie in the span of
    the chosen boundary classes, mapped through ``full_to_dof``.  ZERO_TRACE
    chooses none, so it keeps the kernel of restriction to H^1(dM), which by
    exactness of H^1(M, dM) -> H^1(M) -> H^1(dM) is the zero-trace harmonic
    space.
    """
    cocycles = admitted_cocycles(pencil.complex, pencil.bc.lagrangian_choice)
    cols = [pencil.full_to_dof(c.astype(float)) for c in cocycles]
    return np.column_stack(cols) if cols else np.zeros((pencil.ndof, 0))


# Relative residual at which every Jacobi-CG solve stops.  The mass matrix
# and the gradient Gram are well enough conditioned that CG reaches it in
# under 150 steps on the benchmark meshes, as accurate as a sparse LU.
_CG_RTOL = 1e-15


def _jacobi_cg(A: sp.spmatrix, what: str):
    """Solver of A Y = B for a symmetric positive definite A.

    Returns a function of B, a vector or an (n, k) block, that solves one
    column at a time by Jacobi-preconditioned CG, stopping at relative
    residual _CG_RTOL; a column still short of it after 2n + 20 steps raises
    NoConvergence.  In exact arithmetic CG ends within n steps, but scipy's
    cg tests the residual only at the top of a step, so a system solved in
    the last allowed step (any 1 x 1 one) would read as a failure; the
    margin also covers roundoff that leaves a small system's residual just
    above _CG_RTOL after n steps.  Nothing is factored, so A needs no more
    memory than its own nonzeros.
    """
    A = A.tocsr()
    jacobi = sp.diags(1.0 / A.diagonal())

    def solve(B: np.ndarray) -> np.ndarray:
        B = np.asarray(B, dtype=float)
        cols = B if B.ndim == 2 else B[:, None]
        Y = np.empty(cols.shape)
        for j in range(cols.shape[1]):
            Y[:, j], info = spla.cg(
                A, cols[:, j], rtol=_CG_RTOL, atol=0.0, maxiter=2 * A.shape[0] + 20, M=jacobi
            )
            if info != 0:
                raise NoConvergence(f"{what} CG failed (info={info})")
        return Y.reshape(B.shape)

    return solve


class KernelProjector:
    """M1-orthogonal projector onto the complement of the curl kernel.

    P v = v - W (W^T M1 W)^{-1} W^T M1 v with W = [G | H], both held in
    DOF coordinates: ``gradient`` G, the gradients of every BC-admissible
    potential, and ``harmonic`` H, the harmonic fields of the one rule in
    ``_harmonic_columns``, the H^1(M) classes whose trace lies in the span
    of the chosen boundary classes (none under ZERO_TRACE, so the kernel of
    restriction to H^1(dM)).  The constructor M1-orthogonalizes the given
    harmonic columns against G and drops those that project to
    (numerically) nothing, so the Gram matrix is block-diagonal: the sparse
    G^T M1 G, solved by Jacobi CG with no factor kept, next to a dense
    nh x nh block.  Idempotent and M1-self-adjoint by construction.  The
    eigensolver applies it to its start vector and to the vectors it
    returns.
    """

    def __init__(self, gradient: sp.csr_matrix, harmonic: np.ndarray, M1):
        self.gradient = gradient    # (ndof, ng)
        self._M1 = M1
        self._gram_solve = _jacobi_cg(gradient.T @ M1 @ gradient, "gradient Gram")
        H = harmonic
        Hp = H - gradient @ self._gram_solve(gradient.T @ (M1 @ H))
        nrm = np.sqrt(np.einsum("ij,ij->j", Hp, M1 @ Hp))
        ref = np.sqrt(np.einsum("ij,ij->j", H, M1 @ H))
        H = Hp[:, nrm > 1e-8 * np.maximum(ref, 1.0)]
        self.harmonic = H           # (ndof, nh)
        self._harmonic_gram = H.T @ (M1 @ H)

    @property
    def harmonic_dimension(self) -> int:
        return self.harmonic.shape[1]

    def _kernel_part(self, x: np.ndarray) -> np.ndarray:
        """Kernel component W (W^T M1 W)^{-1} W^T x of the momentum x = M1 v."""
        G, H = self.gradient, self.harmonic
        return G @ self._gram_solve(G.T @ x) + H @ np.linalg.solve(
            self._harmonic_gram, H.T @ x
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v - self._kernel_part(self._M1 @ v)

    def apply_dual(self, x: np.ndarray) -> np.ndarray:
        """Adjoint projector on momentum vectors: P_dual(M v) = M (P v).

        Nothing in the package calls it; it is kept only because
        ``bench/tracer.py`` wraps it by name, and ROADMAP item 4 removes both.
        """
        return x - self._M1 @ self._kernel_part(x)


def kernel_projector(pencil: ReducedPencil) -> KernelProjector:
    """Build the structural kernel deflation of a reduced pencil.

    No factorization: the gradient Gram is solved by Jacobi CG, so the
    eigensolver's shifted pencil is the only matrix a Beltrami solve factors.
    """
    return KernelProjector(_gradient_columns(pencil), _harmonic_columns(pencil), pencil.M1)


@dataclass
class BeltramiSolution:
    """Eigenpairs of the constrained curl operator, sorted by |lambda|."""

    lambdas: np.ndarray          # (k,)
    cochains: np.ndarray         # (E, k) full edge cochains, M1-normalized
    residuals: np.ndarray        # ||S x - lambda M1 x||_{M1^{-1}}
    div_residuals: np.ndarray    # BC-admissible weak divergence norm
    helicities: np.ndarray       # 0.5 h^T S h
    energies: np.ndarray         # 0.5 h^T M1 h
    shift: float
    harmonic_dimension: int      # of the kernel projector the solve applied
    pencil: ReducedPencil


def default_shift(cx: SimplicialComplex3) -> float:
    """0.1 x (domain-scale estimate of the smallest nonzero |lambda|).

    The estimate is 2*pi over the largest bounding-box extent of the tet
    coordinates; shift-invert only needs the order of magnitude.
    """
    coords = cx.tet_coords.reshape(-1, 3)
    extent = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
    return 0.1 * (2.0 * np.pi / extent)


# Gram eigenvalue below which a direction of unit-M-norm columns counts as
# dependent: the eigenvalues carry an absolute rounding error of a few eps,
# so a dependent direction reads about 1e-16, and one kept at this bound
# still has an M-norm of 5e-7 of the columns it combines
_DEPENDENT = 1e3 * np.finfo(float).eps


def _m_orthonormalize(
    W: np.ndarray, V: np.ndarray, MV: np.ndarray, M
) -> tuple[np.ndarray, np.ndarray]:
    """M-orthonormal basis of the part of span W that is M-orthogonal to the
    M-orthonormal columns of V, returned with its image under M.

    MV = M V.  The columns of W are first scaled to unit M-norm, so what is
    dropped does not depend on their scale.  Two passes of block
    Gram-Schmidt follow, each with an eigendecomposition of the small Gram
    matrix; a direction whose Gram eigenvalue is below _DEPENDENT (1000 eps,
    an M-norm of about 5e-7) lies in span V or depends on the other columns
    and is dropped, so the result may have fewer columns than W.  M W is
    formed once and then carried through the same small-matrix updates as
    W, so the call makes one product with M.
    """
    MW = M @ W
    nrm = np.sqrt(np.einsum("ij,ij->j", W, MW))
    scale = np.divide(1.0, nrm, out=np.zeros_like(nrm), where=nrm > 0)
    W, MW = W * scale, MW * scale
    for _ in range(2):
        coef = MV.T @ W
        W = W - V @ coef
        MW = MW - MV @ coef
        s, U = np.linalg.eigh(W.T @ MW)
        keep = s > _DEPENDENT
        U = U[:, keep] / np.sqrt(s[keep])
        W, MW = W @ U, MW @ U
    return W, MW


# Krylov basis of 20 blocks, restarted on its leading half; the step cap only
# bounds a stagnating iteration, whose vectors then meet the residual gate.
_BASIS_BLOCKS = 20
_MAX_STEPS = 500
_RITZ_RTOL = 1e-12
_RESTART_ROWS = 1024


def _block_lanczos(g, M, Q: np.ndarray, k: int, sigma: float):
    """The k leading Ritz pairs of the M-self-adjoint g, by thick-restart
    block Lanczos in the M inner product from the start block Q.

    ``g(Y, MY)`` returns g Y given MY = M Y.  The basis V is M-orthonormal
    and carries its image M V; the projected matrix is T = V^T M g V.  A
    step applies g to the newest block Q only: T gains the columns
    (M V)^T g Q, and the remainder R = g Q - V T[:, new] is all of g V that
    span V misses, because g maps every older block into span V.  So the
    residual g V y - theta V y of a Ritz pair is R y[new], and the next
    block is R, M-orthonormalized against V.  The leading pairs are those
    of largest f = theta (theta - 1/sigma).  The iteration stops when the k
    leading pairs have M-norm residual at most _RITZ_RTOL |theta|.  A full
    basis restarts on its leading half of Ritz vectors, which g maps to
    themselves times theta plus a part of R, so R stays the next block.

    Returns (theta, X, rnorm) of the k leading pairs: Ritz values, Ritz
    vectors and the residual norms read off the newest block.
    """
    n = Q.shape[0]
    # the basis never holds more than n columns, so a basis of n + k columns
    # never restarts
    m = min(_BASIS_BLOCKS * k, n + k)
    # the basis and its image under M live in preallocated arrays; j
    # columns are in use
    V, MV = (np.empty((n, m), order="F") for _ in range(2))
    T = np.empty((m, m))
    j = 0
    for _ in range(_MAX_STEPS):
        Q, MQ = _m_orthonormalize(Q, V[:, :j], MV[:, :j], M)
        q = Q.shape[1]
        if not q:
            break
        new = slice(j, j + q)
        V[:, new] = Q
        MV[:, new] = MQ
        j += q
        R = g(Q, MQ)
        T[:j, new] = MV[:, :j].T @ R
        T[new, : j - q] = T[: j - q, new].T
        R -= V[:, :j] @ T[:j, new]
        # Rayleigh-Ritz; the leading pairs are those of largest f(nu) =
        # nu^2 + nu/sigma = theta (theta - 1/sigma), which is largest for the
        # lambdas nearest sigma on its side (with sigma well below
        # |lambda|_min distinct lambdas cannot collide) and zero on the kernel
        theta, Y = np.linalg.eigh(T[:j, :j])
        lead = np.argsort(-theta * (theta - 1.0 / sigma), kind="stable")
        theta, Y = theta[lead], Y[:, lead]
        X = V[:, :j] @ Y[:, :k]
        resid = R @ Y[new, :k]
        rnorm = np.sqrt(np.einsum("ik,ik->k", resid, M @ resid))
        if np.all(rnorm <= _RITZ_RTOL * np.abs(theta[:k])):
            break
        if j + k > m:
            # thick restart on the leading half of the Ritz vectors, a row
            # block at a time so that no (n, p) temporary is made
            p = m // 2
            for r in range(0, n, _RESTART_ROWS):
                rows = slice(r, r + _RESTART_ROWS)
                V[rows, :p] = V[rows, :j] @ Y[:, :p]
                MV[rows, :p] = MV[rows, :j] @ Y[:, :p]
            T[:p, :p] = np.diag(theta[:p])
            j = p
        Q = R
    return theta[:k], X, rnorm


def smallest_beltrami(
    pencil: ReducedPencil,
    k: int = 1,
    tol: float = 1e-8,
    shift: float | None = None,
    seed: int = 0,
) -> BeltramiSolution:
    """k eigenpairs of smallest nonzero |lambda| on the shift's side of
    S x = lambda M1 x.

    Thick-restart block Lanczos (``_block_lanczos``), in the M1 inner
    product, on the Cayley transform g(OP) = OP + I/sigma =
    (S - sigma M1)^{-1} S / sigma of OP = (S - sigma M1)^{-1} M1.  g spans
    the same Krylov space as OP.  The block has b = min(k, n) columns (n
    DOFs; a wider block would have dependent columns), so each step is one
    solve with b right-hand sides on one factor.  The loop holds the
    factor, the basis V and its image M1 V, and not g V: the Ritz residuals
    come from the Lanczos remainder of the newest block, which is also the
    next block.  A step multiplies by M1 twice, once for the new block and
    once for the residual norms.  A Ritz value theta of g stands for nu =
    theta - 1/sigma = 1/(lambda - sigma), and the leading pairs are those of
    largest f(nu) = nu^2 + nu/sigma = theta (theta - 1/sigma).  The
    iteration stops when the k leading pairs have residual
    ||g x - theta x||_M1 <= 1e-12 |theta|.  A block of k columns holds up to
    k copies of one eigenvalue, so a cluster of multiplicity up to k comes
    out complete, not through rounding.  The factor is built without
    relaxed supernodes, whose dense padding this pencil's sparse leaf fill
    does not use (see the module docstring).

    g, and so f, vanishes on the whole curl kernel, so the zero eigenvalue
    of the pencil is invisible to the iteration; the ``kernel_projector``,
    built here before the factor, is applied only to the start block and to
    the Ritz vectors, and the solution reports its harmonic dimension.  In
    terms of lambda, f = lambda / (sigma (lambda - sigma)^2): positive
    exactly on the shift's side, zero on the kernel and negative on the
    other sign.  So with the shift below the smallest |lambda| the contract
    is the smallest |lambda| on the shift's side: where the spectrum is not
    sign-symmetric (closed-trace conditions), a smaller |lambda| of the
    other sign needs a shift of that sign.  A shift above the smallest
    |lambda| returns the k lambdas of largest f.  Only pairs on the shift's
    side with |lambda| > tol are returned, sorted by |lambda|; a pencil with
    fewer than k of them raises NoConvergence with their count, whatever k
    and however few DOFs it has, none included.  Deterministic for a fixed
    seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    projector = kernel_projector(pencil)
    n = pencil.ndof
    if not n:
        raise NoConvergence(f"only 0 pairs on the shift's side of {k} requested")
    sigma = default_shift(pencil.complex) if shift is None else float(shift)

    A = pencil.S
    M = pencil.M1
    # A - sigma M is symmetric indefinite; symmetric-mode ordering keeps the
    # fill an order of magnitude below the default unsymmetric one; relax=1
    # turns off relaxed supernodes (see the module docstring)
    op_lu = spla.splu(
        (A - sigma * M).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        relax=1,
        options=dict(SymmetricMode=True, DiagPivotThresh=0.01),
    )

    def filtered(Y, MY):
        # g(OP) Y = (OP + I/sigma) Y = (A - sigma M)^{-1} A Y / sigma, the
        # Cayley transform, with OP = (A - sigma M)^{-1} M (eigenvalue nu =
        # 1/(lambda - sigma)) and theta = nu + 1/sigma.  Gradients, harmonic
        # fields and curls in the dead space of the mixed edge/face pairing
        # all have A x = 0, where g vanishes: the filter removes the whole
        # kernel exactly, with no projection inside the loop (rounding leaves
        # below 1e-12, in M-norm, of kernel in the Ritz vectors, which the
        # final projection removes).
        # MY = M Y is carried by the caller
        return op_lu.solve(MY) + Y / sigma

    b = min(k, n)
    rng = np.random.default_rng(seed)
    start = projector.apply(rng.standard_normal((n, b)))
    _, vecs, _ = _block_lanczos(filtered, M, start, b, sigma)

    X = projector.apply(vecs)
    nrm = np.sqrt(np.einsum("ik,ik->k", X, M @ X))
    usable = nrm >= 1e-12
    X = X[:, usable] / nrm[usable]
    lams = np.einsum("ik,ik->k", X, A @ X)  # Rayleigh quotients; M-norms are 1
    # f ranks the kernel (f = 0) and the other sign (f < 0) below every pair
    # on the shift's side, so they reach the k pairs only when that side has
    # fewer than k; |lambda| <= tol cannot be told from the kernel, whose
    # (x, 0) passes the same residual gate
    side = np.flatnonzero(np.sign(sigma) * lams > tol)
    chosen = side[np.argsort(np.abs(lams[side]), kind="stable")]
    X, lams = X[:, chosen], lams[chosen]
    # sign convention: largest-magnitude component positive
    X = X * np.sign(X[np.argmax(np.abs(X), axis=0), np.arange(X.shape[1])])

    # the Whitney mass matrix is uniformly well conditioned: Jacobi-CG
    # replaces a factorization for the M^{-1}-norm of each residual
    R = A @ X - (M @ X) * lams
    res = np.sqrt(np.einsum("ik,ik->k", R, _jacobi_cg(M, "mass")(R))).tolist()
    divs = np.linalg.norm(projector.gradient.T @ (M @ X), axis=0)

    if len(lams) < k:
        raise NoConvergence(f"only {len(lams)} pairs on the shift's side of {k} requested")
    worst = max(res)
    if worst > tol:
        raise NoConvergence(f"eigen residual {worst:.3e} above tol {tol:.1e}")

    H = pencil.C @ X
    fem = build_fem(pencil.complex)
    return BeltramiSolution(
        lambdas=lams,
        cochains=H,
        residuals=np.array(res),
        div_residuals=divs,
        helicities=helicity(fem, H),
        energies=energy(fem, H),
        shift=sigma,
        harmonic_dimension=projector.harmonic_dimension,
        pencil=pencil,
    )


def proxy_curl_residual(
    cx: SimplicialComplex3, H: np.ndarray, curlH: np.ndarray, lam: float
) -> float:
    """Strong-form residual ||curlH - lam H|| / ||H|| of one eigenpair's
    barycenter proxies, in the volume-weighted L2 norm over tets."""
    _, vols = tet_geometry(cx)
    num = np.sqrt(np.sum(np.sum((curlH - lam * H) ** 2, axis=1) * vols))
    den = np.sqrt(np.sum(np.sum(H**2, axis=1) * vols))
    return float(num / den) if den else 0.0

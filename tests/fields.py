"""Test helpers: interpolants of vector fields, eigencluster alignment, the
per-tet reference slicer for cut surfaces and the mesh faces under a cut's
boundary polygon edges, a mesh that is a manifold except at one vertex,
a Gmsh file writer, the quadratic reference for integer kernel bases and
the exact (S, M1) spectrum of the periodic Freudenthal grid."""

import itertools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from fieldtopo.fem import build_fem
from fieldtopo.generators import GridSpec, gen_grid
from fieldtopo.mesh import EDGE_LOCAL, FACE_LOCAL, SimplicialComplex3


def cluster_align(solution, target, rtol: float = 1e-6) -> np.ndarray:
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
    M1 = build_fem(solution.pencil.complex).M1
    coeff = np.linalg.lstsq(B.T @ (M1 @ B), B.T @ (M1 @ target), rcond=None)[0]
    h = B @ coeff
    nrm = np.sqrt(h @ (M1 @ h))
    if nrm == 0:
        raise ValueError("target has no component in the leading cluster")
    return h / nrm


_GAUSS_5 = np.polynomial.legendre.leggauss(5)


def edge_interpolant(cx: SimplicialComplex3, func) -> np.ndarray:
    """Edge cochain of a vector field: line integral along each canonical edge.

    5-point Gauss quadrature per edge (exact for polynomial fields up to
    degree 9; near-exact for smooth benchmark fields at mesh scale).
    Periodic meshes integrate along the minimal-image segment of the first
    tet containing each edge.
    """
    xi, wi = _GAUSS_5
    p = cx.tet_coords
    vals = np.zeros(cx.num_edges)
    seen = np.zeros(cx.num_edges, dtype=bool)
    for k in range(6):
        a, b = EDGE_LOCAL[k]
        eids = cx.tet_to_edge[:, k]
        first = ~seen[eids]
        if not np.any(first):
            continue
        tsel = np.flatnonzero(first)
        # keep only the first occurrence of each edge id
        _, keep = np.unique(eids[tsel], return_index=True)
        tsel = tsel[keep]
        pa, pb = p[tsel, a], p[tsel, b]
        sgn = cx.tet_edge_sign[tsel, k]
        acc = np.zeros(len(tsel))
        for x, w in zip(xi, wi):
            pts = pa + (x + 1) / 2 * (pb - pa)
            acc += w * np.einsum("ic,ic->i", np.asarray(func(pts)), pb - pa) / 2
        vals[eids[tsel]] = sgn * acc
        seen[eids[tsel]] = True
    return vals


def face_flux_interpolant(cx: SimplicialComplex3, func) -> np.ndarray:
    """Face cochain of a vector field: flux through each canonical face.

    Centroid rule on each face (exact for affine fields), using the geometry
    of the first tet containing the face.
    """
    p = cx.tet_coords
    vals = np.zeros(cx.num_faces)
    seen = np.zeros(cx.num_faces, dtype=bool)
    for k in range(4):
        va, vb, vc = FACE_LOCAL[k]
        fids = cx.tet_to_face[:, k]
        first = ~seen[fids]
        if not np.any(first):
            continue
        tsel = np.flatnonzero(first)
        _, keep = np.unique(fids[tsel], return_index=True)
        tsel = tsel[keep]
        pa, pb, pc = p[tsel, va], p[tsel, vb], p[tsel, vc]
        # normal area vector of the local (ordered) triple, mapped to canonical
        normal = 0.5 * np.cross(pb - pa, pc - pa)
        centroid = (pa + pb + pc) / 3.0
        sgn = cx.tet_face_sign[tsel, k]
        flux = np.einsum("ic,ic->i", np.asarray(func(centroid)), normal)
        vals[fids[tsel]] = sgn * flux
        seen[fids[tsel]] = True
    return vals


def reference_cut(cx, rep, level: float) -> dict:
    """Level set of ``rep`` at level + Z, sliced one tet and one level copy
    at a time, with the same arithmetic as ``cuts.extract_cut`` but the
    orientation read off each tet's phase gradient.  Returns the corner
    points, triangles, source tets and corner keys, the crossing sign per
    key and the boundary polygon edges as sorted key pairs."""
    base = rep.vertex_phases()
    p = cx.tet_coords
    faces_of = [{i for i in range(4) if i not in e} for e in EDGE_LOCAL.tolist()]
    bfaces = set(cx.boundary_faces.tolist())
    points, keys, tris, tets, crossing, bedges = [], [], [], [], {}, set()
    for t in range(cx.num_tets):
        th = np.empty(4)
        th[0] = base[cx.tets[t, 0]]
        for j in (1, 2, 3):
            th[j] = th[0] + cx.tet_edge_sign[t, j - 1] * rep.omega[cx.tet_to_edge[t, j - 1]]
        grad = np.linalg.solve(p[t, 1:] - p[t, :1], th[1:] - th[0])
        for kk in range(int(np.ceil(th.min() - level)), int(np.floor(th.max() - level)) + 1):
            ell = level + kk
            cut = {}
            for le, (a, b) in enumerate(EDGE_LOCAL.tolist()):
                if (th[a] > ell) == (th[b] > ell):
                    continue
                tloc = (ell - th[a]) / (th[b] - th[a])
                sgn = int(cx.tet_edge_sign[t, le])
                tail = a if sgn > 0 else b
                key = (int(cx.tet_to_edge[t, le]), kk - int(round(th[tail] - base[cx.tets[t, tail]])))
                crossing[key] = 1 if (th[b] > th[a]) == (sgn > 0) else -1
                cut[le] = (key, p[t, a] + tloc * (p[t, b] - p[t, a]))
            les = list(cut)
            polys = [les] if len(les) == 3 else []
            if len(les) == 4:
                near = [le for le in les[1:] if faces_of[les[0]] & faces_of[le]]
                far = [le for le in les[1:] if le not in near]
                polys = [[les[0], near[0], far[0]], [les[0], far[0], near[1]]]
            for poly in polys:
                idx = [len(points), len(points) + 1, len(points) + 2]
                points += [cut[le][1] for le in poly]
                keys += [cut[le][0] for le in poly]
                v0, v1, v2 = points[-3:]
                if np.cross(v1 - v0, v2 - v0) @ grad < 0:
                    idx[1], idx[2] = idx[2], idx[1]
                tris.append(idx)
                tets.append(t)
            for i, j in itertools.combinations(les, 2):
                if any(int(cx.tet_to_face[t, lf]) in bfaces for lf in faces_of[i] & faces_of[j]):
                    bedges.add(tuple(sorted((cut[i][0], cut[j][0]))))
    return {
        "points": np.array(points).reshape(-1, 3),
        "triangles": np.array(tris, dtype=np.int64).reshape(-1, 3),
        "source_tet": np.array(tets, dtype=np.int64),
        "corner_keys": keys,
        "crossing": crossing,
        "boundary_edges": sorted(bedges),
    }


def boundary_edge_faces(cx, cut) -> set[int]:
    """Mesh faces holding the cut's boundary polygon edges: for each, the one
    face whose boundary contains both mesh edges that its corners lie on."""
    D1 = cx.D1.tocsc()
    out = set()
    for ea, eb in cut.keys[cut.boundary_edges, 0].tolist():
        faces = np.intersect1d(D1[:, ea].indices, D1[:, eb].indices)
        assert len(faces) == 1, f"corner edges {ea}, {eb} share {len(faces)} faces"
        out.add(int(faces[0]))
    return out


def cubes_glued_at_a_corner():
    """Vertices and tets of two unit 3x3x3 cubes whose only common point is
    the first cube's corner (1, 1, 1), the second cube's origin."""
    cube = gen_grid(GridSpec(3, 3, 3))
    corner = int(np.flatnonzero((cube.vertices == 1).all(axis=1))[0])
    origin = int(np.flatnonzero((cube.vertices == 0).all(axis=1))[0])
    V = len(cube.vertices)
    relabel = V + np.arange(V) - (np.arange(V) > origin)
    relabel[origin] = corner
    verts = np.vstack([cube.vertices, np.delete(cube.vertices, origin, axis=0) + 1.0])
    return verts, np.vstack([cube.tets, relabel[cube.tets]])


def write_msh(path, vertices, tets):
    """Gmsh 2.2 ASCII file with one linear tet element per row of ``tets``."""
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(vertices))]
    lines += [f"{i + 1} {x!r} {y!r} {z!r}" for i, (x, y, z) in enumerate(vertices.tolist())]
    lines += ["$EndNodes", "$Elements", str(len(tets))]
    lines += [f"{i + 1} 4 2 0 1 " + " ".join(str(v + 1) for v in t) for i, t in enumerate(tets.tolist())]
    lines += ["$EndElements"]
    path.write_text("\n".join(lines) + "\n")


def reference_kernel_basis(A) -> list[np.ndarray]:
    """The quadratic pivot search that ``integer_kernel_basis`` replaced.

    Every pivot re-sorts all active rows by (entry count, index) and takes
    the first +-1 entry, scanning the row's columns in (entry count, index)
    order; without unit entries the sparsest row is reduced by Euclidean
    column steps.  It peels nothing, so it is the oracle for the pivot
    order and for the forced-zero peel of ``integer_kernel_basis``.
    """
    A = np.asarray(A.todense()) if sp.issparse(A) else np.asarray(A)
    m, n = A.shape
    cols: list[dict[int, int]] = [
        {i: int(A[i, j]) for i in range(m) if A[i, j]} for j in range(n)
    ]
    row_cols: dict[int, set[int]] = {}
    for j, c in enumerate(cols):
        for i in c:
            row_cols.setdefault(i, set()).add(j)
    V: list[dict[int, int]] = [{j: 1} for j in range(n)]
    active_cols = set(range(n))
    active_rows = set(row_cols)

    def add_col(dst, src, f):
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
        vd, vs = V[dst], V[src]
        for k, v in vs.items():
            w = vd.get(k, 0) + f * v
            if w:
                vd[k] = w
            elif k in vd:
                del vd[k]

    while True:
        pivot = None
        for i in sorted(active_rows, key=lambda r: (len(row_cols[r]), r)):
            for j in sorted(row_cols[i], key=lambda c: (len(cols[c]), c)):
                if abs(cols[j][i]) == 1:
                    pivot = (i, j)
                    break
            if pivot is not None:
                break
        if pivot is None:
            live = [i for i in active_rows if row_cols[i]]
            if not live:
                break
            i = min(live, key=lambda r: (len(row_cols[r]), r))
            while len(row_cols[i]) > 1:
                j = min(row_cols[i], key=lambda c: (abs(cols[c][i]), c))
                for k in list(row_cols[i]):
                    if k != j:
                        add_col(k, j, -(cols[k][i] // cols[j][i]))
            pivot = (i, next(iter(row_cols[i])))
        i, j = pivot
        piv = cols[j][i]
        if abs(piv) == 1:
            for k in list(row_cols[i]):
                if k != j:
                    add_col(k, j, -cols[k][i] * piv)
        active_cols.discard(j)
        for r in cols[j]:
            row_cols[r].discard(j)
        active_rows.discard(i)
        if not active_rows:
            break

    kernel = []
    for j in sorted(active_cols):
        if not cols[j]:
            vec = np.zeros(n, dtype=np.int64)
            for k, v in V[j].items():
                vec[k] = v
            kernel.append(vec)
    return kernel


def bloch_spectrum(n: int, L: float) -> np.ndarray:
    """Every eigenvalue of S x = lambda M1 x on the 3-torus grid of n^3 cells
    and side L (``torus3``), sorted, from one 7 x 7 Hermitian pencil per
    wavevector.

    Each vertex of a periodic Freudenthal grid starts 7 edges, one for each
    step s in {0, 1}^3 other than 0; edge type t = s . (1, 2, 4) - 1.  The
    grid is translation invariant, so S and M1 couple an edge of type t at
    vertex v with one of type t' at v + d, d in {-1, 0, 1}^3, by a coefficient
    c(t, t', d) that does not depend on v.  It is read off the assembled
    matrices of a 4^3 grid with the same cell size h = L / n (offsets in
    {-1, 0, 1} stay distinct mod 4), each edge mapped to its start vertex,
    type and orientation sign.  On the Bloch wave x_e = sign_e a_t exp(i
    theta . v), theta = 2 pi m / n, the pencil acts on a by the symbols
    sum_d c(t, t', d) exp(i theta . d).
    """
    h = L / n
    cx = gen_grid(GridSpec(4, 4, 4, 4 * h, 4 * h, 4 * h, periodic=(True, True, True)))
    fem = build_fem(cx)
    ends = np.stack(np.unravel_index(cx.edges, (4, 4, 4)), axis=-1)  # (E, 2, 3)
    step = (ends[:, 1] - ends[:, 0] + 1) % 4 - 1
    sign = np.where((step >= 0).all(axis=1), 1, -1)
    step = step * sign[:, None]
    start = np.where(sign[:, None] > 0, ends[:, 0], ends[:, 1])
    kind = step @ [1, 2, 4] - 1
    assert set(step.ravel()) <= {0, 1} and np.all(np.bincount(kind, minlength=7) == 64)

    theta = 2 * np.pi / n * np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), -1)
    offsets = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), -1)
    phase = np.exp(1j * np.einsum("mnoa,xyza->mnoxyz", theta, offsets))
    symbols = []
    for A in (fem.S, fem.M1):
        A = sp.coo_matrix((A + A.T) / 2)  # the symmetric part, as reduce_system takes it
        d = (start[A.col] - start[A.row] + 1) % 4 - 1
        c = np.zeros((7, 7, 3, 3, 3))
        np.add.at(c, (kind[A.row], kind[A.col], *(d + 1).T), sign[A.row] * sign[A.col] * A.data)
        c /= 64  # each coupling once per start vertex of the 4^3 grid
        symbols.append(np.einsum("mnoxyz,tuxyz->mnotu", phase, c).reshape(-1, 7, 7))
    return np.sort(np.concatenate([sla.eigh(s, m, eigvals_only=True) for s, m in zip(*symbols)]))

"""Simplicial 3-complexes with exact integer boundary/coboundary operators.

Simplices are keyed canonically: edges and faces are stored as sorted vertex
tuples in lexicographic order, and every incidence sign is the permutation
parity between a simplex's intrinsic vertex order and the canonical key.
All incidence matrices are exact integer matrices and satisfy D1@D0 = 0 and
D2@D1 = 0 identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateTet, InvalidComplex, NonManifoldFace

# local vertex pairs/triples of a tet, in canonical local order
EDGE_LOCAL = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
FACE_LOCAL = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])

DEGENERACY_REL_VOLUME = 1e-14


def _parity_sorting(rows: np.ndarray) -> np.ndarray:
    """Permutation parity (+1/-1) that sorts each row of a (n,2) or (n,3) array."""
    if rows.shape[1] == 2:
        return np.where(rows[:, 0] < rows[:, 1], 1, -1)
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    # parity = sign of the product of pairwise differences
    sign = np.sign((b - a) * (c - a) * (c - b))
    return sign.astype(np.int64)


def signed_volumes(tet_coords: np.ndarray) -> np.ndarray:
    """Signed volume of each tet from its per-tet coordinates (T,4,3)."""
    e = tet_coords[:, 1:, :] - tet_coords[:, :1, :]
    return np.linalg.det(e) / 6.0


@dataclass
class SimplicialComplex3:
    """A tetrahedral complex with canonical edge/face enumeration.

    ``tet_coords`` carries the true geometric shape of each tet; for periodic
    meshes it holds minimal-image (unwrapped) coordinates, so seam tets have
    honest shapes even though they reference wrapped vertex indices.
    """

    vertices: np.ndarray        # (V,3) float
    tets: np.ndarray            # (T,4) int, positively oriented
    tet_coords: np.ndarray      # (T,4,3) float
    edges: np.ndarray           # (E,2) int, sorted rows, lexicographic order
    faces: np.ndarray           # (F,3) int, sorted rows, lexicographic order
    D0: sp.csr_matrix           # (E,V) signed incidence, gradient/coboundary
    D1: sp.csr_matrix           # (F,E) signed incidence, curl/coboundary
    D2: sp.csr_matrix           # (T,F) signed incidence, divergence/coboundary
    tet_to_edge: np.ndarray     # (T,6) global edge ids per EDGE_LOCAL
    tet_edge_sign: np.ndarray   # (T,6) +-1, local vs canonical orientation
    tet_to_face: np.ndarray     # (T,4) global face ids per FACE_LOCAL
    tet_face_sign: np.ndarray   # (T,4) +-1, local triple vs sorted triple
    boundary_faces: np.ndarray  # indices of faces lying in exactly one tet
    meta: dict = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_tets(self) -> int:
        return len(self.tets)

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces - self.num_tets

    def volumes(self) -> np.ndarray:
        return signed_volumes(self.tet_coords)

    @property
    def forest(self) -> SpanningForest:
        """Spanning forest of the edge graph, built once per complex; read-only."""
        return memo(self, "forest", lambda: spanning_forest(self.edges, self.num_vertices))

    def edge_lengths(self) -> np.ndarray:
        """Length per edge, measured in one tet containing it."""
        lengths = np.zeros(self.num_edges)
        p = self.tet_coords
        for k in range(6):
            a, b = EDGE_LOCAL[k]
            le = np.linalg.norm(p[:, b] - p[:, a], axis=1)
            lengths[self.tet_to_edge[:, k]] = le
        return lengths


def memo(cx: SimplicialComplex3, key, compute):
    """Record ``key`` of ``cx``, computed once and kept in ``cx.meta``.

    Nothing is stored when ``compute`` raises, so the failure repeats on the
    next call.
    """
    records = cx.meta.setdefault("_records", {})
    if key not in records:
        records[key] = compute()
    return records[key]


class SpanningForest(NamedTuple):
    """Breadth-first spanning forest of a multigraph on nodes 0..N-1; the
    nodes with ``parent < 0``, its roots, are the lowest of each component."""

    order: np.ndarray   # nodes with an edge in visit order, one tree after another
    parent: np.ndarray  # (N,) tree parent; -1 at roots and at nodes without edges
    edge: np.ndarray    # (N,) edge id joining a node to its parent, else -1
    sign: np.ndarray    # (N,) +1 when that edge runs parent -> node, -1 when reversed
    component: np.ndarray  # (N,) component label, numbered in order of lowest node

    @property
    def tree_edges(self) -> np.ndarray:
        return self.edge[self.edge >= 0]


def spanning_forest(edges, num_nodes: int) -> SpanningForest:
    """Deterministic breadth-first spanning forest of an edge list on ``num_nodes`` nodes.

    One tree grows from the lowest node of every component with an edge, in
    ascending order of those roots.  Neighbours are visited in ascending
    order, among parallel edges the lowest edge id joins the tree, and
    self-loops never do.  The labels of ``connected_components`` number the
    components in order of lowest node: its sweep starts each one there.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # one arc per ordered node pair, carrying its lowest edge id and the sign
    # of that edge along the arc
    ids = np.flatnonzero(edges[:, 0] != edges[:, 1])
    a, b = edges[ids, 0], edges[ids, 1]
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    eid = np.concatenate([ids, ids])
    sgn = np.repeat([1, -1], len(ids))
    perm = np.lexsort((eid, dst, src))
    src, dst, eid, sgn = src[perm], dst[perm], eid[perm], sgn[perm]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst, eid, sgn = src[first], dst[first], eid[first], sgn[first]
    indptr = np.searchsorted(src, np.arange(num_nodes + 1))
    graph = sp.csr_matrix((np.ones(len(src)), dst, indptr), shape=(num_nodes, num_nodes))

    # nodes with an edge, ascending
    candidates = np.flatnonzero(np.bincount(edges.ravel(), minlength=num_nodes))
    _, labels = sp.csgraph.connected_components(graph, directed=False)
    _, lowest = np.unique(labels[candidates], return_index=True)

    parent = np.full(num_nodes, -1, dtype=np.int64)
    order = []
    for root in candidates[lowest].tolist():
        nodes, pred = sp.csgraph.breadth_first_order(
            graph, root, directed=True, return_predecessors=True
        )
        parent[nodes[1:]] = pred[nodes[1:]]
        order.append(nodes)

    child = np.flatnonzero(parent >= 0)
    arc = np.searchsorted(src * num_nodes + dst, parent[child] * num_nodes + child)
    edge = np.full(num_nodes, -1, dtype=np.int64)
    sign = np.zeros(num_nodes, dtype=np.int64)
    edge[child], sign[child] = eid[arc], sgn[arc]
    order = np.concatenate(order) if order else np.zeros(0, dtype=np.int64)
    return SpanningForest(order=order, parent=parent, edge=edge, sign=sign, component=labels)


def integrate_potential(forest: SpanningForest, cochain) -> np.ndarray:
    """Node potential whose difference along every tree edge is the cochain.

    Roots and nodes without edges get 0.  Values accumulate parent before
    child in visit order, one addition per node.
    """
    c = np.asarray(cochain, dtype=float).tolist()
    parent, edge, sign = forest.parent.tolist(), forest.edge.tolist(), forest.sign.tolist()
    phi = [0.0] * len(parent)
    for v in forest.order.tolist():
        if parent[v] >= 0:
            phi[v] = phi[parent[v]] + sign[v] * c[edge[v]]
    return np.array(phi)


def _canonical_rows(rows: np.ndarray, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted rows in lexicographic order, and the index of each
    input row among them.

    Each sorted row (a, b) or (a, b, c) of vertex ids below V is ranked by
    one int64 key, a·V + b or (a·V + b)·V + c, which orders rows as
    lexicographic order does, so one flat sort replaces a row-wise one.
    Where V**width overflows int64 (V > 2097151 for faces) the rows are
    sorted row-wise.
    """
    rows = np.sort(rows, axis=1)
    if num_vertices ** rows.shape[1] > np.iinfo(np.int64).max:
        return np.unique(rows, axis=0, return_inverse=True)
    key = rows[:, 0]
    for col in rows.T[1:]:
        key = key * num_vertices + col
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return rows[first], inverse


def build_complex(vertices, tets, tet_coords=None) -> SimplicialComplex3:
    """Build a validated complex from vertex coordinates and tet connectivity.

    Negative-volume tets are reoriented by swapping two vertices.  Raises
    ValueError for non-finite coordinates, DegenerateTet for tets below the
    relative volume threshold and NonManifoldFace if a face lies in more
    than two tets.
    """
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    tets = np.array(tets, dtype=np.int64).reshape(-1, 4)
    if tets.size and (tets.min() < 0 or tets.max() >= len(vertices)):
        raise ValueError("tet vertex index out of range")
    # a flat key of four ids overflows int64 above V = 55108; two keys per
    # sorted tet, (a·V + b, c·V + d), fit up to V = 3.03e9
    V = len(vertices)
    sorted_tets = np.sort(tets, axis=1)
    hi = sorted_tets[:, 0] * V + sorted_tets[:, 1]
    lo = sorted_tets[:, 2] * V + sorted_tets[:, 3]
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    if np.any((hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])):
        raise ValueError("duplicate tets")

    if tet_coords is None:
        tet_coords = vertices[tets]
    else:
        tet_coords = np.array(tet_coords, dtype=float).reshape(len(tets), 4, 3)
    # NaN compares False with the volume threshold, so it must be caught here
    if not (np.isfinite(vertices).all() and np.isfinite(tet_coords).all()):
        raise ValueError("non-finite vertex coordinates")

    vols = signed_volumes(tet_coords)
    mean_vol = np.mean(np.abs(vols)) if len(vols) else 0.0
    bad = np.abs(vols) <= DEGENERACY_REL_VOLUME * mean_vol
    if np.any(bad):
        raise DegenerateTet(f"tets {np.flatnonzero(bad).tolist()} have near-zero volume")
    flip = vols < 0
    # both arrays are this function's own copies, so they are swapped in place
    tets[flip] = tets[flip][:, [0, 2, 1, 3]]
    tet_coords[flip] = tet_coords[flip][:, [0, 2, 1, 3]]

    T = len(tets)

    # edges: canonical sorted pairs, deduplicated in lexicographic order
    raw_edges = tets[:, EDGE_LOCAL].reshape(-1, 2)          # (T*6,2) local order
    edge_sign_flat = _parity_sorting(raw_edges)
    edges, edge_inv = _canonical_rows(raw_edges, V)
    tet_to_edge = edge_inv.reshape(T, 6)
    tet_edge_sign = edge_sign_flat.reshape(T, 6)

    # faces: canonical sorted triples
    raw_faces = tets[:, FACE_LOCAL].reshape(-1, 3)
    face_sign_flat = _parity_sorting(raw_faces)
    faces, face_inv = _canonical_rows(raw_faces, V)
    tet_to_face = face_inv.reshape(T, 4)
    tet_face_sign = face_sign_flat.reshape(T, 4)

    face_count = np.bincount(face_inv, minlength=len(faces))
    if np.any(face_count > 2):
        raise NonManifoldFace(
            f"faces {np.flatnonzero(face_count > 2).tolist()} lie in more than 2 tets"
        )
    boundary_faces = np.flatnonzero(face_count == 1)

    E, F = len(edges), len(faces)

    rows = np.repeat(np.arange(E), 2)
    cols = edges.ravel()
    data = np.tile([-1, 1], E)
    D0 = sp.csr_matrix((data, (rows, cols)), shape=(E, V), dtype=np.int64)

    # boundary of sorted face (a,b,c): +(b,c) -(a,c) +(a,b), all keys sorted
    # edges are in lexicographic order, so their integer keys are sorted
    keys = edges[:, 0] * V + edges[:, 1]
    fa, fb, fc = faces[:, 0], faces[:, 1], faces[:, 2]
    rows = np.repeat(np.arange(F), 3)
    cols = np.searchsorted(keys, np.column_stack([fb * V + fc, fa * V + fc, fa * V + fb])).ravel()
    data = np.tile([1, -1, 1], F)
    D1 = sp.csr_matrix((data, (rows, cols)), shape=(F, E), dtype=np.int64)

    # boundary of tet in stored order: face omitting local vertex i enters with
    # (-1)^i times the parity sorting its triple
    rows = np.repeat(np.arange(T), 4)
    cols = tet_to_face.ravel()
    omit_sign = np.array([1, -1, 1, -1])
    data = (tet_face_sign * omit_sign[None, :]).ravel()
    D2 = sp.csr_matrix((data, (rows, cols)), shape=(T, F), dtype=np.int64)

    return SimplicialComplex3(
        vertices=vertices,
        tets=tets,
        tet_coords=tet_coords,
        edges=edges,
        faces=faces,
        D0=D0,
        D1=D1,
        D2=D2,
        tet_to_edge=tet_to_edge,
        tet_edge_sign=tet_edge_sign,
        tet_to_face=tet_to_face,
        tet_face_sign=tet_face_sign,
        boundary_faces=boundary_faces,
    )


# local faces at each local vertex: those omitting one of the other three
VERTEX_FACES_LOCAL = np.array([np.setdiff1d(np.arange(4), [i]) for i in range(4)])


def _link_failures(cx: SimplicialComplex3) -> list[str]:
    """Vertices whose link is not a sphere or a disk, with no per-vertex loop.

    The link of a vertex v has a triangle per tet, an edge per face and a
    node per edge at v; its edges lie in at most two triangles because
    faces lie in at most two tets.  Such a link is a sphere (v inside) or a
    disk (v on the boundary) exactly when its triangles are connected across
    shared edges and its Euler characteristic deg_E - deg_F + deg_T is 2 or
    1: splitting each pinched node raises the Euler characteristic and
    leaves a connected surface, whose Euler characteristic is at most 2,
    or 1 with boundary.  Every edge link, the link of a node in a vertex
    link, is then one cycle (interior edge) or one path (boundary edge).
    The triangles are joined in one sparse graph: a node per (tet, local
    vertex) links to a hub per (face, vertex of it) for each of its three
    faces at that vertex.
    """
    V, F, T = cx.num_vertices, cx.num_faces, cx.num_tets
    # hub 4 T + 3 f + k for the vertex of face f with k lower ones
    below = cx.tets[:, :, None] > cx.tets[:, None, :]
    k = below.sum(axis=2)[:, :, None] - below[:, np.arange(4)[:, None], VERTEX_FACES_LOCAL]
    hub = 4 * T + 3 * cx.tet_to_face[:, VERTEX_FACES_LOCAL] + k
    n = 4 * T + 3 * F
    indptr = np.concatenate([np.arange(0, 12 * T, 3), np.full(3 * F + 1, 12 * T)])
    graph = sp.csr_matrix((np.ones(12 * T), hub.ravel(), indptr), shape=(n, n))
    ncomp, labels = sp.csgraph.connected_components(graph, directed=False)
    owner = np.zeros(ncomp, dtype=np.int64)
    owner[labels[: 4 * T]] = cx.tets.ravel()  # every hub is linked from a corner
    count = np.bincount(owner, minlength=V)
    chi = (
        np.bincount(cx.edges.ravel(), minlength=V)
        - np.bincount(cx.faces.ravel(), minlength=V)
        + np.bincount(cx.tets.ravel(), minlength=V)
    )
    on_boundary = np.zeros(V, dtype=bool)
    on_boundary[cx.faces[cx.boundary_faces]] = True
    bad = np.flatnonzero((count != 1) | (chi != np.where(on_boundary, 1, 2)))[:10].tolist()
    return [f"vertex links not a sphere or disk at vertices {bad}"] if bad else []


@dataclass
class ValidationReport:
    num_components: int
    boundary_components: int
    boundary_genus: list[int]
    failures: list[str]

    def raise_if_failed(self):
        if self.failures:
            raise InvalidComplex("; ".join(self.failures))


def validate_complex(complex: SimplicialComplex3) -> ValidationReport:
    """Check all structural invariants; failures are aggregated, never dropped."""
    failures = []

    vols = complex.volumes()
    if len(vols):
        mean_vol = np.mean(np.abs(vols))
        if np.any(vols <= DEGENERACY_REL_VOLUME * mean_vol):
            failures.append("non-positive or degenerate tet volumes")

    dd0 = (complex.D1 @ complex.D0).tocoo()
    if np.any(dd0.data != 0):
        failures.append("D1@D0 != 0")
    dd1 = (complex.D2 @ complex.D1).tocoo()
    if np.any(dd1.data != 0):
        failures.append("D2@D1 != 0")

    counts = np.bincount(complex.tet_to_face.ravel(), minlength=complex.num_faces)
    if np.any(counts > 2):
        failures.append("face shared by more than 2 tets")

    d0_rowsum = np.asarray(complex.D0.sum(axis=1)).ravel()
    if np.any(d0_rowsum != 0):
        failures.append("D0 row without one -1 and one +1")

    failures += _link_failures(complex)

    # boundary faces must close up: every boundary edge in exactly two of them
    bgenus: list[int] = []
    n_bcomp = 0
    if len(complex.boundary_faces):
        from .surface import boundary_surface

        try:
            surf = boundary_surface(complex)
            n_bcomp = surf.num_components
            bgenus = list(surf.genus)
            if not surf.oriented:
                failures.append("boundary surface orientation inconsistent")
        except Exception as exc:  # noqa: BLE001 - aggregate everything
            failures.append(f"boundary surface: {exc}")

    labels = complex.forest.component
    ncomp = int(labels.max()) + 1 if len(labels) else 0

    return ValidationReport(
        num_components=ncomp,
        boundary_components=n_bcomp,
        boundary_genus=bgenus,
        failures=failures,
    )

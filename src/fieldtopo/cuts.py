"""Harmonic circle-valued maps with prescribed periods, and their level sets.

A cut is the inverse image of a regular value of the circle map determined
by an integer cocycle class.  The integer cocycle carries the class (periods
stay exact); the harmonic representative only smooths the geometry.  Level
sets are extracted per tet from locally integrated phases (a tet is simply
connected), so no covering space is ever built.  Every (tet, level copy)
pair is sliced at once: the bitmask of its vertices above the level selects
the triangles and polygon sides from a 16-entry table.  Intersection
vertices are keyed by (edge id, integer level index seen from the edge's
tail vertex) in one int64 array, and one ``np.unique`` numbers them, which
makes the manifoldness and crossing bookkeeping exact and independent of
the periodic unwrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoGap, NonManifoldCut, NonRegularLevel, SolverFailure
from .fem import build_fem, field_proxies
from .homology import CohomologyBasis
from .mesh import EDGE_LOCAL, SimplicialComplex3, integrate_potential

VERTEX_CLEARANCE = 1e-9
CRITICAL_EPS = 1e-6


@dataclass
class HarmonicRep:
    """Dirichlet-energy minimizer in the cohomology class of an integer cocycle."""

    complex: SimplicialComplex3
    omega: np.ndarray             # harmonic real 1-cochain
    coclosure_residual: float     # ||D0^T M1 omega|| / ||M1 omega||

    def vertex_phases(self) -> np.ndarray:
        """Circle phase per vertex, integrated over the complex's spanning forest.

        Well defined modulo 1 up to the coclosure/roundoff drift; the integer
        ambiguity along non-tree edges is exactly the period lattice.
        """
        cached = getattr(self, "_phases", None)
        if cached is None:
            cached = self._phases = integrate_potential(self.complex.forest, self.omega)
        return cached


def harmonic_representative(cx: SimplicialComplex3, cocycle) -> HarmonicRep:
    """Minimize the Dirichlet energy within the class of an integer cocycle.

    Solves D0^T M1 D0 phi = -D0^T M1 c, with the complex's ``build_fem``
    mass M1, formed on the columns of the vertices with a parent in the
    complex's forest, so each component is pinned at its root.  The result
    omega = c + D0 phi is coclosed to solver accuracy while keeping the
    exact integer periods of c.
    """
    c = np.asarray(cocycle)
    if np.abs(cx.D1 @ c).max(initial=0) > 1e-12 * max(1.0, np.abs(c).max(initial=0)):
        raise ValueError("source cochain is not closed")
    M1 = build_fem(cx).M1
    Mc = M1 @ c.astype(float)
    rhs = -(cx.D0.T @ Mc)
    free = np.flatnonzero(cx.forest.parent >= 0)
    phi = np.zeros(cx.num_vertices)
    if len(free):
        G = cx.D0[:, free].astype(float)
        phi[free] = spla.spsolve((G.T @ M1 @ G).tocsc(), rhs[free])
    omega = c + cx.D0 @ phi
    Mw = M1 @ omega
    num = np.linalg.norm(cx.D0.T @ Mw)
    den = np.linalg.norm(Mw)
    if den <= 1e-9 * max(np.linalg.norm(Mc), 1.0):
        resid = 0.0  # trivial class: omega is numerically zero
    else:
        resid = num / den
        if resid > 1e-10:
            raise SolverFailure(f"coclosure residual {resid:.3e} above 1e-10")
    return HarmonicRep(
        complex=cx,
        omega=omega,
        coclosure_residual=float(resid),
    )


def choose_level(vertex_phases: np.ndarray) -> float:
    """Midpoint of the largest gap in the sorted vertex phases mod 1.

    Ties go to the lowest midpoint.  Raises NoGap when the phases are so
    dense that no level keeps the required clearance.
    """
    phases = np.sort(np.mod(vertex_phases, 1.0))
    if len(phases) == 0:
        return 0.5
    gaps = np.diff(phases, append=phases[0] + 1.0)
    best = np.max(gaps)
    if best < 2 * VERTEX_CLEARANCE:
        raise NoGap(f"largest phase gap {best:.2e} leaves no regular level")
    candidates = np.flatnonzero(np.isclose(gaps, best))
    mids = np.mod(phases[candidates] + best / 2.0, 1.0)
    return float(np.min(mids))


def _slice_table():
    """How the level plane cuts a tet, for each bitmask of vertices above it.

    Corners are positions in the mask's list of cut edges (EDGE_LOCAL
    order).  A slice with 3 cut edges is one triangle; with 4 it is the quad
    (first, lower adjacent, opposite, higher adjacent edge) split along
    first-opposite.  ``flip`` marks triangles whose corner order points
    down the phase gradient in a positively oriented tet, read off the
    midpoint slice of the unit tet: the orientation is affine invariant.
    Sides are the cut-edge pairs sharing a vertex, with the local face that
    holds them (the one omitting the vertex in neither edge).
    """
    ref = np.vstack([np.zeros(3), np.eye(3)])
    tris = np.zeros((16, 2, 3), dtype=np.int64)
    flip = np.zeros((16, 2), dtype=bool)
    sides = np.zeros((16, 4, 3), dtype=np.int64)
    ntri = np.zeros(16, dtype=np.int64)
    nside = np.zeros(16, dtype=np.int64)
    for mask in range(1, 15):
        above = (mask >> np.arange(4)) & 1
        cut = EDGE_LOCAL[above[EDGE_LOCAL[:, 0]] != above[EDGE_LOCAL[:, 1]]]
        pairs = [
            (i, j, ({0, 1, 2, 3} - {*cut[i], *cut[j]}).pop())
            for i in range(len(cut)) for j in range(i + 1, len(cut))
            if {*cut[i]} & {*cut[j]}
        ]
        if len(cut) == 3:
            poly = np.array([[0, 1, 2]])
        else:  # the two edges next to the first come first among the sides
            (_, lower, _), (_, higher, _) = pairs[:2]
            opposite = 6 - lower - higher
            poly = np.array([[0, lower, opposite], [0, opposite, higher]])
        mid = ref[cut].mean(axis=1)[poly]
        normal = np.cross(mid[:, 1] - mid[:, 0], mid[:, 2] - mid[:, 0])
        ntri[mask], nside[mask] = len(poly), len(pairs)
        tris[mask, : len(poly)] = poly
        flip[mask, : len(poly)] = normal @ (above[1:] - above[0]) < 0
        sides[mask, : len(pairs)] = pairs
    return tris, flip, ntri, sides, nside


_TRIS, _FLIP, _NTRI, _SIDES, _NSIDE = _slice_table()


def _expand(counts):
    """Owner and rank of each item when item i of a list brings counts[i]."""
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - start[owner]


@dataclass
class CutSurface:
    """Oriented triangle soup extracted as a level set of the circle map.

    Surface vertices are keyed by (edge id, level index): the index of the
    level copy theta0 + k that crosses the edge, counted from the global
    phase of the edge's tail vertex.  The same physical intersection point
    reached from different tets shares a key even when periodic unwrapping
    gives it different coordinates.  ``keys`` holds the distinct keys in
    lexicographic order, and every vertex reference below indexes it.
    """

    level: float
    points: np.ndarray          # (P,3) one entry per triangle corner (soup)
    triangles: np.ndarray       # (K,3) indices into points
    source_tet: np.ndarray      # (K,)
    keys: np.ndarray            # (N,2) distinct (edge id, level index)
    corner_vertex: np.ndarray   # (P,) key index of each point
    crossing_sign: np.ndarray   # (N,) +1 where the phase rises along the edge, else -1
    boundary_edges: np.ndarray  # (B,2) key-index pairs, low first, of sides on dM

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def _edges(self):
        """Distinct undirected polygon edges, coded low * N + high over the N
        keys, with the number of triangles using each and the sum of their
        directions (+1 from low to high)."""
        u = self.corner_vertex[self.triangles]
        v = u[:, [1, 2, 0]]
        n = len(self.keys)
        code, inv, count = np.unique(
            np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True, return_counts=True
        )
        net = np.bincount(inv.ravel(), weights=np.where(u < v, 1, -1).ravel(), minlength=len(code))
        return code, count, net.astype(np.int64)

    def validate_manifold(self):
        """Interior polygon edges must be shared by exactly two triangles with
        opposite induced orientation; remaining edges must lie on dM."""
        code, count, net = self._edges
        n = len(self.keys)
        on_boundary = np.isin(code, self.boundary_edges @ [n, 1])
        bad = np.flatnonzero(~(((count == 2) & (net == 0)) | ((count == 1) & on_boundary)))
        if len(bad):
            i = bad[0]
            raise NonManifoldCut(
                f"polygon edge {self.keys[list(divmod(code[i], n))].tolist()} used by "
                f"{count[i]} triangles with net direction {net[i]} "
                f"({'boundary' if on_boundary[i] else 'interior'})"
            )

    def euler_characteristic(self) -> int:
        return len(self.keys) - len(self._edges[0]) + len(self.triangles)

    def num_components(self) -> int:
        n = len(self.keys)
        low, high = np.divmod(self._edges[0], n)
        graph = sp.csr_matrix((np.ones(len(low)), (low, high)), shape=(n, n))
        return int(sp.csgraph.connected_components(graph, directed=False)[0])


def extract_cut(rep: HarmonicRep, level: float) -> CutSurface:
    """Slice the locally integrated phase of every tet at level + Z.

    Raises NonRegularLevel if the level comes within 1e-9 of a vertex phase.
    """
    cx = rep.complex
    theta0 = float(level)
    base = rep.vertex_phases()
    dist = np.abs(np.mod(base, 1.0) - theta0)
    dist = np.minimum(dist, 1.0 - dist)
    if len(dist) and np.min(dist) < VERTEX_CLEARANCE:
        raise NonRegularLevel(
            f"level {theta0} within {np.min(dist):.2e} of a vertex phase"
        )

    # per-tet unwrapped phases from the local base vertex: theta_j = theta(t0)
    # + omega on the in-tet edge (t0 -> tj); edges 0,1,2 of EDGE_LOCAL are
    # exactly (0,j)
    theta = np.empty((cx.num_tets, 4))
    theta[:, :1] = base[cx.tets[:, :1]]
    theta[:, 1:] = theta[:, :1] + cx.tet_edge_sign[:, :3] * rep.omega[cx.tet_to_edge[:, :3]]

    # one slice per (tet, level copy theta0 + kk inside its phase range)
    lo = np.ceil(theta.min(axis=1) - theta0).astype(np.int64)
    hi = np.floor(theta.max(axis=1) - theta0).astype(np.int64)
    tet, rank = _expand(np.maximum(hi - lo + 1, 0))
    kk = lo[tet] + rank
    ell = theta0 + kk
    th = theta[tet]
    above = th > ell[:, None]
    mask = above @ (1 << np.arange(4))

    # one corner per cut edge of each slice, in (slice, local edge) order
    s, le = np.nonzero(above[:, EDGE_LOCAL[:, 0]] != above[:, EDGE_LOCAL[:, 1]])
    t = tet[s]
    a, b = EDGE_LOCAL[le].T
    tha, thb = th[s, a], th[s, b]
    tloc = (ell[s] - tha) / (thb - tha)
    near = np.flatnonzero(np.minimum(tloc, 1 - tloc) < 1e-12)
    if len(near):
        i = near[0]
        raise NonRegularLevel(f"level {ell[s[i]]} passes through a vertex of tet {t[i]}")
    sgn = cx.tet_edge_sign[t, le]
    # this tet's unwrapping differs from the global phase at the edge's tail
    # vertex by an integer, so the level index kk seen from that vertex is
    # exact
    tail = np.where(sgn > 0, a, b)
    lift = np.rint(th[s, tail] - base[cx.tets[t, tail]]).astype(np.int64)
    keys, first, vertex = np.unique(
        np.column_stack([cx.tet_to_edge[t, le], kk[s] - lift]),
        axis=0, return_index=True, return_inverse=True,
    )
    vertex = vertex.ravel()
    pts = cx.tet_coords[t, a] + tloc[:, None] * (cx.tet_coords[t, b] - cx.tet_coords[t, a])
    crossing = np.where((thb > tha) == (sgn > 0), 1, -1)
    first_corner = np.searchsorted(s, np.arange(len(tet)))

    ts, j = _expand(_NTRI[mask])
    corners = (first_corner[ts, None] + _TRIS[mask[ts], j]).ravel()
    order = np.where(_FLIP[mask[ts], j, None], [0, 2, 1], [0, 1, 2])

    ss, j = _expand(_NSIDE[mask])
    side = _SIDES[mask[ss], j]
    on = np.isin(cx.tet_to_face[tet[ss], side[:, 2]], cx.boundary_faces)
    ends = vertex[first_corner[ss[on], None] + side[on, :2]]

    return CutSurface(
        level=theta0,
        points=pts[corners],
        triangles=3 * np.arange(len(ts))[:, None] + order,
        source_tet=tet[ts],
        keys=keys,
        corner_vertex=vertex[corners],
        crossing_sign=crossing[first],
        boundary_edges=np.unique(np.sort(ends, axis=1), axis=0),
    )


def verify_cut(
    cx: SimplicialComplex3, cut: CutSurface, basis: CohomologyBasis
) -> np.ndarray:
    """Signed crossing count of each dual cycle through the cut surface.

    Exact integers; for a cut extracted from basis class j the result is the
    j-th identity row.  Raises NonManifoldCut if the shared-edge invariant
    fails.
    """
    cut.validate_manifold()
    per_edge = np.zeros(cx.num_edges, dtype=np.int64)
    np.add.at(per_edge, cut.keys[:, 0], cut.crossing_sign)
    return np.array([int(z @ per_edge) for z in basis.dual_cycles], dtype=np.int64)


def critical_scan(rep: HarmonicRep) -> np.ndarray:
    """Tets where the field proxy magnitude drops to CRITICAL_EPS x median.

    An empty result certifies that every regular level set is a leaf of a
    foliation (no critical points at proxy resolution).
    """
    H, _ = field_proxies(rep.complex, rep.omega)
    mag = np.linalg.norm(H, axis=1)
    med = float(np.median(mag))
    return np.flatnonzero(mag <= CRITICAL_EPS * med)

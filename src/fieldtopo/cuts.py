"""Harmonic circle-valued maps with prescribed periods, and their level sets.

A cut is the inverse image of a regular value of the circle map determined
by an integer cocycle class.  The integer cocycle carries the class (periods
stay exact); the harmonic representative only smooths the geometry.  Level
sets are extracted per tet from locally integrated phases (a tet is simply
connected), so no covering space is ever built; intersection vertices are
keyed by (edge id, parameter) which makes the manifoldness and crossing
bookkeeping independent of the periodic unwrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NoGap, NonManifoldCut, NonRegularLevel, SolverFailure
from .fem import FemMatrices, field_proxies
from .homology import CohomologyBasis
from .mesh import EDGE_LOCAL, SimplicialComplex3, integrate_potential, spanning_forest

VERTEX_CLEARANCE = 1e-9


@dataclass
class HarmonicRep:
    """Dirichlet-energy minimizer in the cohomology class of an integer cocycle."""

    complex: SimplicialComplex3
    source_cocycle: np.ndarray    # integer closed 1-cochain
    phi: np.ndarray               # vertex potential, omega = source + D0 phi
    omega: np.ndarray             # harmonic real 1-cochain
    coclosure_residual: float     # ||D0^T M1 omega|| / ||M1 omega||

    def vertex_phases(self) -> np.ndarray:
        """Circle phase per vertex, integrated over a spanning forest.

        Well defined modulo 1 up to the coclosure/roundoff drift; the integer
        ambiguity along non-tree edges is exactly the period lattice.
        """
        cached = getattr(self, "_phases", None)
        if cached is None:
            cx = self.complex
            forest = spanning_forest(cx.edges, cx.num_vertices)
            cached = self._phases = integrate_potential(forest, self.omega)
        return cached


def harmonic_representative(
    cx: SimplicialComplex3, fem: FemMatrices, cocycle
) -> HarmonicRep:
    """Minimize the Dirichlet energy within the class of an integer cocycle.

    Solves L0 phi = -D0^T M1 c with one vertex pinned per component; the
    result omega = c + D0 phi is coclosed to solver accuracy while keeping
    the exact integer periods of c.
    """
    c = np.asarray(cocycle)
    if np.abs(cx.D1 @ c).max(initial=0) > 1e-12 * max(1.0, np.abs(c).max(initial=0)):
        raise ValueError("source cochain is not closed")
    rhs = -(cx.D0.T @ (fem.M1 @ c.astype(float)))
    labels = cx.vertex_components()
    pins = [int(np.flatnonzero(labels == comp)[0]) for comp in range(labels.max() + 1)]
    free = np.setdiff1d(np.arange(cx.num_vertices), pins)
    phi = np.zeros(cx.num_vertices)
    if len(free):
        L = fem.L0.tocsr()[free][:, free].tocsc()
        phi[free] = spla.spsolve(L, rhs[free])
    omega = c + cx.D0 @ phi
    num = np.linalg.norm(cx.D0.T @ (fem.M1 @ omega))
    den = np.linalg.norm(fem.M1 @ omega)
    src = np.linalg.norm(fem.M1 @ c.astype(float))
    if den <= 1e-9 * max(src, 1.0):
        resid = 0.0  # trivial class: omega is numerically zero
    else:
        resid = num / den
        if resid > 1e-10:
            raise SolverFailure(f"coclosure residual {resid:.3e} above 1e-10")
    return HarmonicRep(
        complex=cx,
        source_cocycle=c.copy(),
        phi=phi,
        omega=omega,
        coclosure_residual=float(resid),
    )


def choose_level(rep) -> float:
    """Midpoint of the largest gap in the sorted vertex phases mod 1.

    Ties go to the lowest midpoint.  Raises NoGap when the phases are so
    dense that no level keeps the required clearance.  Accepts a HarmonicRep
    or a raw phase array.
    """
    raw = rep.vertex_phases() if isinstance(rep, HarmonicRep) else np.asarray(rep)
    phases = np.sort(np.mod(raw, 1.0))
    if len(phases) == 0:
        return 0.5
    gaps = np.diff(phases, append=phases[0] + 1.0)
    best = np.max(gaps)
    if best < 2 * VERTEX_CLEARANCE:
        raise NoGap(f"largest phase gap {best:.2e} leaves no regular level")
    candidates = np.flatnonzero(np.isclose(gaps, best))
    mids = np.mod(phases[candidates] + best / 2.0, 1.0)
    return float(np.min(mids))


@dataclass
class CutSurface:
    """Oriented triangle soup extracted as a level set of the circle map.

    Vertices are keyed by (edge id, quantized parameter): the same physical
    intersection point reached from different tets shares a key even when
    periodic unwrapping gives it different coordinates.
    """

    level: float
    points: np.ndarray              # (P,3) one entry per polygon corner (soup)
    triangles: np.ndarray           # (K,3) indices into points
    source_tet: np.ndarray          # (K,)
    corner_keys: list[tuple[int, int]]     # per point: (edge id, quantized t)
    crossing_sign: dict[tuple[int, int], int]  # per key: sign of the crossing
    boundary_edges: list[tuple[int, int]]  # triangle corner-key pairs on dM
    boundary_edge_faces: dict[tuple, int] = field(default_factory=dict)  # -> mesh face

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def edge_multiplicity(self) -> dict[tuple, list[int]]:
        """Directed traversals per undirected polygon edge (by corner keys)."""
        runs: dict[tuple, list[int]] = {}
        for t in range(len(self.triangles)):
            ka, kb, kc = (self.corner_keys[i] for i in self.triangles[t])
            for u, v in ((ka, kb), (kb, kc), (kc, ka)):
                key = (min(u, v), max(u, v))
                runs.setdefault(key, []).append(1 if u < v else -1)
        return runs

    def validate_manifold(self, boundary_keys: set[tuple] | None = None):
        """Interior polygon edges must be shared by exactly two triangles with
        opposite induced orientation; remaining edges must lie on dM."""
        bset = set(self.boundary_edges)
        for key, runs in self.edge_multiplicity().items():
            if len(runs) == 2 and sum(runs) == 0:
                continue
            if len(runs) == 1 and key in bset:
                continue
            raise NonManifoldCut(
                f"polygon edge {key} has traversals {runs} "
                f"({'boundary' if key in bset else 'interior'})"
            )

    def euler_characteristic(self) -> int:
        nv = len(set(self.corner_keys))
        ne = len(self.edge_multiplicity())
        return nv - ne + len(self.triangles)

    def num_components(self) -> int:
        keys = {}
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in range(len(self.triangles)):
            ks = [self.corner_keys[i] for i in self.triangles[t]]
            for k in ks:
                parent.setdefault(k, k)
            a = find(ks[0])
            for k in ks[1:]:
                b = find(k)
                parent[b] = a
        return len({find(k) for k in parent})


def _quantize(t: float) -> int:
    return int(round(t * 1e8))


def extract_cut(cx: SimplicialComplex3, rep: HarmonicRep, level: float) -> CutSurface:
    """Slice the locally integrated phase of every tet at level + Z.

    Raises NonRegularLevel if the level comes within 1e-9 of a vertex phase.
    """
    theta0 = float(level)

    phases = np.mod(rep.vertex_phases(), 1.0)
    dist = np.abs(phases - theta0)
    dist = np.minimum(dist, 1.0 - dist)
    if len(dist) and np.min(dist) < VERTEX_CLEARANCE:
        raise NonRegularLevel(
            f"level {theta0} within {np.min(dist):.2e} of a vertex phase"
        )

    base = rep.vertex_phases()
    omega = rep.omega
    p = cx.tet_coords

    # per-tet unwrapped phases from the local base vertex: theta_j = theta(t0)
    # + omega on the in-tet edge (t0 -> tj); edge 0,1,2 of EDGE_LOCAL are
    # exactly (0,j)
    T = cx.num_tets
    theta = np.empty((T, 4))
    theta[:, 0] = base[cx.tets[:, 0]]
    for j in (1, 2, 3):
        k = j - 1  # EDGE_LOCAL rows (0,1),(0,2),(0,3)
        theta[:, j] = theta[:, 0] + cx.tet_edge_sign[:, k] * omega[cx.tet_to_edge[:, k]]

    # tet-local edge -> the two local faces containing it (FACE_LOCAL omits i)
    edge_faces_local = []
    for a, b in EDGE_LOCAL:
        fs = [i for i in range(4) if a != i and b != i]
        edge_faces_local.append(fs)

    points: list[np.ndarray] = []
    keys: list[tuple[int, int]] = []
    tris: list[tuple[int, int, int]] = []
    tri_tet: list[int] = []
    crossing_sign: dict[tuple[int, int], int] = {}
    boundary_edges: list[tuple[int, int]] = []
    boundary_edge_faces: dict[tuple, int] = {}
    bface_set = set(int(f) for f in cx.boundary_faces)

    for t in range(T):
        th = theta[t]
        lo = np.ceil(np.min(th) - theta0)
        hi = np.floor(np.max(th) - theta0)
        for kk in range(int(lo), int(hi) + 1):
            ell = theta0 + kk
            above = th > ell
            nab = int(above.sum())
            if nab in (0, 4):
                continue
            # intersection points on sign-change edges
            cut_pts = {}
            for le, (a, b) in enumerate(EDGE_LOCAL):
                if above[a] == above[b]:
                    continue
                tloc = (ell - th[a]) / (th[b] - th[a])
                if min(tloc, 1 - tloc) < 1e-12:
                    raise NonRegularLevel(
                        f"level {ell} passes through a vertex of tet {t}"
                    )
                ge = int(cx.tet_to_edge[t, le])
                sgn = int(cx.tet_edge_sign[t, le])
                # parameter along the canonical edge direction
                tcanon = tloc if sgn > 0 else 1.0 - tloc
                key = (ge, _quantize(tcanon))
                pt = p[t, a] + tloc * (p[t, b] - p[t, a])
                csign = 1 if (th[b] > th[a]) == (sgn > 0) else -1
                crossing_sign[key] = csign
                cut_pts[le] = (key, pt)

            # affine phase gradient orients the polygon toward increasing phase
            E = p[t, 1:] - p[t, :1]
            g = np.linalg.solve(E, th[1:] - th[0])

            if len(cut_pts) == 3:
                polys = [list(cut_pts.keys())]
            elif len(cut_pts) == 4:
                les = list(cut_pts.keys())
                # order the quad: pick the two edges sharing the lone vertex
                # side; opposite edges of the quad do not share a tet face
                first = les[0]
                shared = [
                    le for le in les[1:]
                    if set(edge_faces_local[first]) & set(edge_faces_local[le])
                ]
                lone = [le for le in les[1:] if le not in shared]
                order = [first, shared[0], lone[0], shared[1]]
                polys = [[order[0], order[1], order[2]], [order[0], order[2], order[3]]]
            else:
                raise NonRegularLevel(f"degenerate slice in tet {t}")

            for poly in polys:
                idx = []
                for le in poly:
                    key, pt = cut_pts[le]
                    points.append(pt)
                    keys.append(key)
                    idx.append(len(points) - 1)
                v0, v1, v2 = (points[i] for i in idx)
                nrm = np.cross(v1 - v0, v2 - v0)
                if nrm @ g < 0:
                    idx[1], idx[2] = idx[2], idx[1]
                tris.append(tuple(idx))
                tri_tet.append(t)

            # boundary edges: polygon edges lying in a boundary face of the tet
            if len(cut_pts) >= 3:
                les = list(cut_pts.keys())
                for i in range(len(les)):
                    for j in range(i + 1, len(les)):
                        common = set(edge_faces_local[les[i]]) & set(
                            edge_faces_local[les[j]]
                        )
                        for lf in common:
                            gf = int(cx.tet_to_face[t, lf])
                            if gf in bface_set:
                                ka = cut_pts[les[i]][0]
                                kb = cut_pts[les[j]][0]
                                key = (min(ka, kb), max(ka, kb))
                                boundary_edges.append(key)
                                boundary_edge_faces[key] = gf

    cut = CutSurface(
        level=theta0,
        points=np.array(points).reshape(-1, 3),
        triangles=np.array(tris, dtype=np.int64).reshape(-1, 3),
        source_tet=np.array(tri_tet, dtype=np.int64),
        corner_keys=keys,
        crossing_sign=crossing_sign,
        boundary_edges=sorted(set(boundary_edges)),
        boundary_edge_faces=boundary_edge_faces,
    )
    return cut


def verify_cut(
    cx: SimplicialComplex3, cut: CutSurface, basis: CohomologyBasis
) -> np.ndarray:
    """Signed crossing count of each dual cycle through the cut surface.

    Exact integers; for a cut extracted from basis class j the result is the
    j-th identity row.  Raises NonManifoldCut if the shared-edge invariant
    fails.
    """
    cut.validate_manifold()
    crossings_per_edge: dict[int, int] = {}
    for (ge, _), s in cut.crossing_sign.items():
        crossings_per_edge[ge] = crossings_per_edge.get(ge, 0) + s
    out = []
    for z in basis.dual_cycles:
        total = 0
        for ge in np.flatnonzero(z):
            total += int(z[ge]) * crossings_per_edge.get(int(ge), 0)
        out.append(total)
    return np.array(out, dtype=np.int64)


def critical_scan(
    cx: SimplicialComplex3, rep: HarmonicRep, eps: float = 1e-6
) -> np.ndarray:
    """Tets where the field proxy magnitude drops to eps x median.

    An empty result certifies that every regular level set is a leaf of a
    foliation (no critical points at proxy resolution).
    """
    H, _ = field_proxies(cx, rep.omega)
    mag = np.linalg.norm(H, axis=1)
    med = float(np.median(mag))
    return np.flatnonzero(mag <= eps * med)

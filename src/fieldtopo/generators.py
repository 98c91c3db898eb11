"""Parametric benchmark meshes and Gmsh MSH 2.2 ingestion.

All structured meshes use the Freudenthal (6-tet, shared main diagonal)
subdivision of a hex grid, so the triangulation matches across periodic
seams.  Periodic meshes store wrapped vertex indices but keep unwrapped
per-tet coordinates (minimal-image convention), and record on which edges
the mesh wraps around each periodic axis ("seam crossings") for use by the
cohomology machinery.  A fully periodic grid also records its lattice
layout, the edges that start at each vertex (``GridLattice``), so that a
solver can use its translation invariance.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyMesh, ParseError, RingTouchesBoundary
from .mesh import EDGE_LOCAL, SimplicialComplex3, build_complex

# the 6 axis permutations of the Freudenthal split, with their parities
_PERMS = list(itertools.permutations((0, 1, 2)))
_PERM_SIGN = {p: (1 if (p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]) else -1) for p in _PERMS}


@dataclass
class GridSpec:
    """Structured hex grid: cell counts, edge lengths, per-axis periodicity."""

    nx: int
    ny: int
    nz: int
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0
    periodic: tuple[bool, bool, bool] = (False, False, False)

    def validate(self):
        counts = (self.nx, self.ny, self.nz)
        if min(counts) < 1:
            raise ValueError("cell counts must be >= 1")
        if not all(0 < length < np.inf for length in self.lengths):
            raise ValueError("edge lengths must be finite and > 0")
        for n, per in zip(counts, self.periodic):
            if per and n < 3:
                # n <= 2 wraps two distinct grid edges onto one vertex pair,
                # which is no longer a simplicial complex
                raise ValueError("periodic axes need >= 3 cells")

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.lx, self.ly, self.lz)


def _freudenthal_cells(spec: GridSpec, cell_mask=None):
    """Tets for every (unmasked) cell.

    Returns wrapped vertex ids (T,4), unwrapped integer grid coordinates
    (T,4,3) and unwrapped real coordinates (T,4,3).
    """
    n = np.array(spec.counts)
    h = np.array(spec.lengths) / n
    per = np.array(spec.periodic)
    pts = np.where(per, n, n + 1)  # grid points per axis

    ii, jj, kk = np.meshgrid(
        np.arange(spec.nx), np.arange(spec.ny), np.arange(spec.nz), indexing="ij"
    )
    cells = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()])
    if cell_mask is not None:
        cells = cells[cell_mask(cells)]

    all_tets = []
    all_grid = []
    for perm in _PERMS:
        e = np.eye(3, dtype=np.int64)
        o1 = e[perm[0]]
        o2 = e[perm[0]] + e[perm[1]]
        offsets = np.array([[0, 0, 0], o1, o2, [1, 1, 1]], dtype=np.int64)
        if _PERM_SIGN[perm] < 0:
            offsets = offsets[[0, 2, 1, 3]]
        grid = cells[:, None, :] + offsets[None, :, :]  # (C,4,3) unwrapped ints
        wrapped = np.where(per[None, None, :], grid % n[None, None, :], grid)
        ids = (
            wrapped[..., 0] * (pts[1] * pts[2])
            + wrapped[..., 1] * pts[2]
            + wrapped[..., 2]
        )
        all_tets.append(ids)
        all_grid.append(grid)

    tets = np.concatenate(all_tets, axis=0)
    grid = np.concatenate(all_grid, axis=0)
    coords = grid * h[None, None, :]
    return tets, grid, coords, pts, h


def _grid_vertices(pts, h):
    ii, jj, kk = np.meshgrid(
        np.arange(pts[0]), np.arange(pts[1]), np.arange(pts[2]), indexing="ij"
    )
    return np.column_stack([ii.ravel() * h[0], jj.ravel() * h[1], kk.ravel() * h[2]])


def _attach_seam_crossings(cx: SimplicialComplex3, grid, spec: GridSpec):
    """Per-edge wrap counts for each periodic axis, on canonical edges.

    An edge crosses the seam of axis a when its unwrapped grid coordinate
    reaches n[a]; the crossing sign follows the canonical edge orientation.
    These cochains are closed (every face lifts to a triangle in the cover)
    and generate H^1 for the periodic directions.
    """
    n = np.array(spec.counts)
    crossings = {}
    for ax in range(3):
        if not spec.periodic[ax]:
            continue
        col = np.zeros(cx.num_edges, dtype=np.int64)
        hit = (grid[:, :, ax] == n[ax]).astype(np.int64)  # (T,4)
        for k in range(6):
            a, b = EDGE_LOCAL[k]
            local = hit[:, b] - hit[:, a]
            col[cx.tet_to_edge[:, k]] = cx.tet_edge_sign[:, k] * local
        crossings[ax] = col
    cx.meta["seam_crossings"] = crossings


# the 7 Freudenthal edge steps s in {0, 1}^3 other than 0, step t having
# s . (1, 2, 4) = t + 1: (1,0,0), (0,1,0), (1,1,0), (0,0,1), ..., (1,1,1)
LATTICE_STEPS = (np.arange(1, 8)[:, None] >> np.arange(3)) & 1


class GridLattice(NamedTuple):
    """Lattice layout of a fully periodic Freudenthal grid.

    Vertex v sits at grid point ``np.unravel_index(v, shape)``; the edge
    from it to its neighbour at ``LATTICE_STEPS[t]`` (wrapped) is
    ``edge[v, t]``, and ``sign[v, t]`` is +1 when the canonical edge runs
    from v to that neighbour, else -1.  Every edge appears exactly once.
    """

    shape: tuple[int, int, int]  # vertex (= cell) counts per axis
    edge: np.ndarray             # (V, 7) edge ids
    sign: np.ndarray             # (V, 7) +-1


def _attach_lattice(cx: SimplicialComplex3, spec: GridSpec):
    shape = spec.counts
    V = cx.num_vertices
    at = np.stack(np.unravel_index(np.arange(V), shape), axis=-1)  # (V,3)
    nbr = np.ravel_multi_index(
        tuple(np.moveaxis((at[:, None, :] + LATTICE_STEPS) % shape, -1, 0)), shape
    )  # (V,7)
    v = np.broadcast_to(np.arange(V)[:, None], nbr.shape)
    lo, hi = np.minimum(v, nbr), np.maximum(v, nbr)
    edge = np.searchsorted(cx.edges[:, 0] * V + cx.edges[:, 1], lo * V + hi)
    cx.meta["lattice"] = GridLattice(shape, edge, np.where(v < nbr, 1, -1))


def gen_grid(spec: GridSpec) -> SimplicialComplex3:
    """Freudenthal subdivision of a structured hex grid.

    periodic=(F,F,F) gives a ball-like cube, (F,F,T) a solid torus,
    (T,T,F) T^2 x I, and (T,T,T) the 3-torus, which also records its
    ``GridLattice`` as ``cx.meta["lattice"]``.
    """
    spec.validate()
    tets, grid, coords, pts, h = _freudenthal_cells(spec)
    vertices = _grid_vertices(pts, h)
    cx = build_complex(vertices, tets, tet_coords=coords)
    _attach_seam_crossings(cx, grid, spec)
    if all(spec.periodic):
        _attach_lattice(cx, spec)
    return cx


def default_ring(n: int) -> list[tuple[int, int, int]]:
    """Square loop of 8 cells around the center column, in the middle slab."""
    if n < 5:
        raise ValueError("need n >= 5 for an interior ring")
    c, k = n // 2, n // 2
    ring = [
        (i, j, k)
        for i in range(c - 1, c + 2)
        for j in range(c - 1, c + 2)
        if (i, j) != (c, c)
    ]
    return ring


def gen_box_minus_ring(n: int, ring=None, l: float = 1.0) -> SimplicialComplex3:
    """Cube grid with a closed loop of cells deleted.

    The deleted ring must be a face-adjacent closed loop of cells strictly
    inside the box; the result is a ball minus an unknotted solid torus
    (boundary = outer sphere + inner torus).
    """
    if ring is None:
        ring = default_ring(n)
    ring = [tuple(int(v) for v in c) for c in ring]
    ring_set = set(ring)
    if len(ring_set) != len(ring):
        raise ValueError("ring cells must be distinct")
    for c in ring:
        if min(c) < 0 or max(c) >= n:
            raise ValueError(f"ring cell {c} outside the box")
        if min(c) == 0 or max(c) == n - 1:
            raise RingTouchesBoundary(f"ring cell {c} touches the box wall")
    for c in ring:
        nbrs = sum(
            (c[0] + dx, c[1] + dy, c[2] + dz) in ring_set
            for dx, dy, dz in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        if nbrs != 2:
            raise ValueError(f"ring cell {c} has {nbrs} ring neighbours, not a closed loop")

    spec = GridSpec(n, n, n, l, l, l)
    spec.validate()

    def keep(cells):
        return np.array([tuple(c) not in ring_set for c in cells])

    tets, grid, coords, pts, h = _freudenthal_cells(spec, cell_mask=keep)
    vertices = _grid_vertices(pts, h)
    used, conn = np.unique(tets, return_inverse=True)
    return build_complex(vertices[used], conn, tet_coords=coords)


def read_msh(path) -> SimplicialComplex3:
    """Read a Gmsh MSH 2.2 ASCII file; tets only (element type 4).

    Non-tet elements, and nodes that no tet uses, are skipped with a warning.
    Raises ParseError with the offending line number on malformed input and
    EmptyMesh when no tets are present.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    # the non-blank lines, stripped, with their 1-based line numbers
    rows = ((row, ln) for ln, line in enumerate(lines, 1) if (row := line.strip()))

    def next_line():
        row = next(rows, None)
        if row is None:
            raise ParseError("unexpected end of file", line=len(lines))
        return row

    def counted_rows(what, parse_row):
        """A count line, then that many rows, each parsed as soon as it is read."""
        count_s, ln = next_line()
        try:
            count = int(count_s)
            if count < 0:
                raise ValueError
        except ValueError:
            raise ParseError(f"bad {what} count {count_s!r}", line=ln) from None
        for _ in range(count):
            row, ln = next_line()
            if row.startswith("$"):
                raise ParseError(f"{what} list shorter than declared count", line=ln)
            parse_row(row, row.split(), ln)

    nodes = {}
    tets, tet_lines, non_tet_lines = [], [], []

    def node_row(row, parts, ln):
        try:
            nid, x, y, z = parts
            nid, xyz = int(nid), [float(x), float(y), float(z)]
        except ValueError:
            raise ParseError(f"bad node line {row!r}", line=ln) from None
        if nid in nodes:
            raise ParseError(f"repeated node id {nid}", line=ln)
        nodes[nid] = xyz

    def element_row(row, parts, ln):
        try:
            etype, ntags = int(parts[1]), int(parts[2])
            if ntags < 0:
                raise ValueError
            conn = [int(v) for v in parts[3 + ntags:]]
        except (ValueError, IndexError):
            raise ParseError(f"bad element line {row!r}", line=ln) from None
        if etype != 4:
            non_tet_lines.append(ln)
        elif len(conn) != 4:
            raise ParseError(f"tet with {len(conn)} nodes", line=ln)
        elif not -(2**63) <= min(conn) <= max(conn) < 2**63:
            raise ParseError("tet node id outside the int64 range", line=ln)
        else:
            tets.append(conn)
            tet_lines.append(ln)

    counted = {"Nodes": ("node", node_row), "Elements": ("element", element_row)}
    seen = set()
    for section, secline in rows:
        if not section.startswith("$"):
            raise ParseError(f"expected section marker, got {section!r}", line=secline)
        name = section[1:]
        end = f"$End{name}"
        if name == "MeshFormat":
            fmt, ln = next_line()
            parts = fmt.split()
            if len(parts) != 3 or not parts[0].startswith("2.2"):
                raise ParseError(f"unsupported MSH format {fmt!r}", line=ln)
            if parts[1] != "0":
                raise ParseError("binary MSH not supported", line=ln)
        elif name in counted:
            counted_rows(*counted[name])
        else:  # an unknown section is skipped to its end marker
            while next_line()[0] != end:
                pass
            continue
        row, ln = next_line()
        if row != end:
            raise ParseError(f"missing {end}", line=ln)
        seen.add(name)

    if not {"Nodes", "Elements"} <= seen:
        raise ParseError("missing $Nodes or $Elements section", line=len(lines))
    if non_tet_lines:
        warnings.warn(f"ignored {len(non_tet_lines)} non-tet elements", stacklevel=2)
    if not tets:
        raise EmptyMesh("no tetrahedra (element type 4) in file")

    # one sort of the tets' node ids finds unknown and unused nodes and
    # numbers the used ones in id order
    ids, conn = np.unique(np.array(tets, dtype=np.int64), return_inverse=True)
    unknown = np.argwhere(np.array([nid not in nodes for nid in ids.tolist()])[conn].reshape(-1, 4))
    if len(unknown):
        t, k = unknown[0]
        raise ParseError(f"element references unknown node {tets[t][k]}", line=tet_lines[t])
    # a node that no tet uses would be a connected component of its own
    if len(ids) < len(nodes):
        warnings.warn(f"ignored {len(nodes) - len(ids)} nodes used by no tet", stacklevel=2)
    return build_complex(np.array([nodes[nid] for nid in ids.tolist()]), conn)

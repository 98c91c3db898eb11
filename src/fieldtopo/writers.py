"""Legacy VTK (ASCII 3.0) and reproducible JSON emission.

Floats are printed with 17 significant digits everywhere so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .mesh import SimplicialComplex3

if TYPE_CHECKING:
    from .cuts import CutSurface


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def dumps_json(obj, indent: int = 0) -> str:
    """JSON with fixed float formatting and insertion-ordered keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {dumps_json(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq)
        if flat and len(seq) <= 16:
            return "[" + ", ".join(dumps_json(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if obj is None:
        return "null"
    # escapes quotes, backslashes and control characters only
    return json.dumps(str(obj), ensure_ascii=False)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))
        fh.write("\n")


def _rows(fmt: str, values) -> str:
    """One ``fmt`` line per row of ``values``."""
    values = np.asarray(values)
    return (fmt * len(values)) % tuple(values.ravel().tolist())


def _float_rows(values, width: int) -> str:
    """Lines of ``width`` floats each, every float printed as ``_fmt`` does.

    Each distinct bit pattern is formatted once, so -0.0 and 0.0 stay
    apart; mesh coordinates repeat across the 4T per-tet points.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    text = ("%.17g\n" * len(bits)) % tuple(bits.view(float).tolist())
    words = np.array(text.split("\n")[:-1], dtype=object)
    line = " ".join(["%s"] * width) + "\n"
    return (line * (values.size // width)) % tuple(words[inverse].tolist())


def write_mesh_vtk(
    path,
    cx: SimplicialComplex3,
    cell_scalars: dict[str, np.ndarray] | None = None,
    cell_vectors: dict[str, np.ndarray] | None = None,
):
    """UNSTRUCTURED_GRID with per-tet data.

    Points are written per tet (4T points), so periodic meshes keep honest
    tet shapes instead of cells stretched across the fundamental domain.
    """
    T = cx.num_tets
    pts = cx.tet_coords.reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("fieldtopo mesh\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        fh.write(_float_rows(pts, 3))
        fh.write(f"CELLS {T} {5 * T}\n")
        fh.write(_rows("4 %d %d %d %d\n", np.arange(4 * T).reshape(T, 4)))
        fh.write(f"CELL_TYPES {T}\n")
        fh.write("10\n" * T)
        if cell_scalars or cell_vectors:
            fh.write(f"CELL_DATA {T}\n")
            for name, data in (cell_scalars or {}).items():
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                fh.write(_float_rows(data, 1))
            for name, data in (cell_vectors or {}).items():
                fh.write(f"VECTORS {name} double\n")
                fh.write(_float_rows(data, 3))


def write_cut_vtk(path, cut: CutSurface):
    """POLYDATA with the oriented triangle soup and source-tet provenance."""
    P = len(cut.points)
    K = cut.num_triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("fieldtopo cut\n")
        fh.write("ASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {P} double\n")
        fh.write(_float_rows(cut.points, 3))
        fh.write(f"POLYGONS {K} {4 * K}\n")
        fh.write(_rows("3 %d %d %d\n", cut.triangles))
        if K:
            fh.write(f"CELL_DATA {K}\n")
            fh.write("SCALARS source_tet int 1\n")
            fh.write("LOOKUP_TABLE default\n")
            fh.write(_rows("%d\n", cut.source_tet))

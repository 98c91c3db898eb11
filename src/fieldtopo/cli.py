"""Command-line driver: mesh generation, homology, cuts, spectra, reports.

Heavy imports happen inside run() so that --threads can pin the BLAS/OpenMP
thread count through environment variables before numpy loads.  All emitted
JSON is byte-reproducible for a fixed seed and --threads 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

COMMANDS = ("gen", "homology", "cuts", "beltrami", "classify", "pipeline")
SCHEMA_VERSION = "fieldtopo/1"


@dataclass
class RunConfig:
    command: str
    geometry: str = "cube"
    n: tuple[int, ...] = (4,)
    size: tuple[float, ...] = (1.0,)
    periodic: str | None = None
    bc: str | None = None
    k: int = 1
    tol: float = 1e-8
    level: str = "auto"
    cut_class: int = 0
    shift: float | None = None
    seed: int = 0
    out: str = "."
    threads: int = 0

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.k < 1:
            raise ValueError("--k must be >= 1")
        if self.tol <= 0:
            raise ValueError("--tol must be > 0")
        if self.level != "auto":
            lv = float(self.level)
            if not (0.0 <= lv < 1.0):
                raise ValueError("--level must be in [0,1) or 'auto'")


def _parse_tuple(text, count, cast):
    parts = [cast(p) for p in str(text).split(",")]
    if len(parts) == 1:
        parts = parts * count
    if len(parts) != count:
        raise ValueError(f"expected 1 or {count} comma-separated values, got {text!r}")
    return tuple(parts)


def _parse_periodic(mask: str):
    mask = mask.strip().lower()
    if mask in ("", "none"):
        return (False, False, False)
    if set(mask) <= {"0", "1"} and len(mask) == 3:
        return tuple(c == "1" for c in mask)
    if set(mask) <= {"x", "y", "z"}:
        return ("x" in mask, "y" in mask, "z" in mask)
    raise ValueError(f"bad periodic mask {mask!r} (use e.g. 'xy', 'xyz', '101', 'none')")


def build_geometry(cfg: RunConfig):
    from .generators import GridSpec, gen_box_minus_ring, gen_grid, read_msh

    if cfg.geometry.startswith("msh:"):
        return read_msh(cfg.geometry[4:])
    presets = {
        "cube": (False, False, False),
        "solid-torus": (False, False, True),
        "torus3": (True, True, True),
    }
    if cfg.geometry == "box-ring":
        return gen_box_minus_ring(int(cfg.n[0]), l=float(cfg.size[0]))
    if cfg.geometry not in presets:
        raise ValueError(f"unknown geometry {cfg.geometry!r}")
    periodic = presets[cfg.geometry]
    if cfg.periodic is not None:
        periodic = _parse_periodic(cfg.periodic)
    n = cfg.n if len(cfg.n) == 3 else cfg.n * 3
    size = cfg.size if len(cfg.size) == 3 else cfg.size * 3
    return gen_grid(GridSpec(*n, *size, periodic=periodic))


def _parse_bc(descr: str | None, cx):
    from .beltrami import BoundaryCondition

    if descr is None:
        if len(cx.boundary_faces) == 0:
            return BoundaryCondition.closed_mesh()
        return BoundaryCondition.zero_trace()
    descr = descr.strip().lower()
    if descr == "closed-mesh":
        return BoundaryCondition.closed_mesh()
    if descr == "zero-trace":
        return BoundaryCondition.zero_trace()
    if descr.startswith("closed-trace"):
        rest = descr[len("closed-trace"):].lstrip(":")
        choice = tuple(int(v) for v in rest.split(",") if v != "")
        return BoundaryCondition.closed_trace(*choice)
    raise ValueError(f"unknown boundary condition {descr!r}")


def _emit_homology(cx, outdir):
    from .homology import betti_numbers, relative_betti
    from .writers import write_json

    b = betti_numbers(cx)
    r = relative_betti(cx)
    has_boundary = len(cx.boundary_faces) > 0
    duality = [b.betti[k] == r.betti[3 - k] for k in range(4)]
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "betti",
        "counts": {
            "vertices": cx.num_vertices,
            "edges": cx.num_edges,
            "faces": cx.num_faces,
            "tets": cx.num_tets,
        },
        "euler_characteristic": cx.euler_characteristic,
        "absolute": list(b.betti),
        "relative": list(r.betti),
        "torsion": b.flat_torsion(),
        "relative_torsion": r.flat_torsion(),
        "exact": b.exact,
        "has_boundary": has_boundary,
        "lefschetz_duality_ok": all(duality),
    }
    write_json(os.path.join(outdir, "betti.json"), doc)
    return doc


def _emit_cuts(cx, fem, outdir, cfg: RunConfig):
    from .cuts import choose_level, critical_scan, extract_cut, harmonic_representative, verify_cut
    from .homology import h1_basis
    from .writers import write_cut_vtk, write_json

    basis = h1_basis(cx)
    j = cfg.cut_class
    if not (0 <= j < basis.rank):
        raise ValueError(f"--cut-class {j} out of range (H^1 rank {basis.rank})")
    rep = harmonic_representative(cx, fem, basis.cocycles[j])
    level = choose_level(rep) if cfg.level == "auto" else float(cfg.level)
    cut = extract_cut(cx, rep, level)
    cut.validate_manifold()
    crossings = verify_cut(cx, cut, basis)
    flagged = critical_scan(cx, rep)
    periods = [float(rep.omega @ z) for z in basis.dual_cycles]
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "cuts",
        "class_index": j,
        "h1_rank": basis.rank,
        "level": level,
        "periods": periods,
        "crossings": [int(v) for v in crossings],
        "coclosure_residual": rep.coclosure_residual,
        "fibration_certificate": len(flagged) == 0,
        "critical_tets": [int(t) for t in flagged],
        "surface": {
            "triangles": cut.num_triangles,
            "components": cut.num_components(),
            "euler_characteristic": cut.euler_characteristic(),
            "boundary_edges": len(cut.boundary_edges),
        },
    }
    write_json(os.path.join(outdir, "cuts.json"), doc)
    write_cut_vtk(os.path.join(outdir, "cut.vtk"), cut)
    return doc


def _emit_beltrami(cx, fem, outdir, cfg: RunConfig):
    from .beltrami import kernel_projector, reduce_system, residual_report, smallest_beltrami
    from .fem import field_proxies
    from .writers import write_json, write_mesh_vtk

    bc = _parse_bc(cfg.bc, cx)
    pencil = reduce_system(cx, fem, bc)
    projector = kernel_projector(cx, fem, bc, pencil)
    sol = smallest_beltrami(
        pencil, projector, k=cfg.k, tol=cfg.tol, shift=cfg.shift, seed=cfg.seed
    )
    report = residual_report(sol, fem)
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "spectrum",
        "bc": bc.describe(),
        "k": cfg.k,
        "shift": sol.shift,
        "dofs": pencil.ndof,
        "symmetry_defect": pencil.symmetry_defect,
        "harmonic_dimension": projector.harmonic_dimension,
        "pairs": [
            {
                "lambda": d.lam,
                "residual": d.eigen_residual,
                "proxy_curl_residual": d.proxy_curl_residual,
                "div_residual": d.div_residual,
                "helicity": d.helicity,
                "energy": d.energy,
            }
            for d in report
        ],
    }
    write_json(os.path.join(outdir, "spectrum.json"), doc)
    vectors = {}
    for i in range(sol.cochains.shape[1]):
        H, curlH = field_proxies(cx, sol.cochains[:, i])
        vectors[f"H_{i}"] = H
        vectors[f"curlH_{i}"] = curlH
    write_mesh_vtk(os.path.join(outdir, "modes.vtk"), cx, cell_vectors=vectors)
    return sol, doc


def _emit_classify(cx, fem, h, outdir):
    from .analysis import analyze_field
    from .writers import write_json, write_mesh_vtk

    rep = analyze_field(cx, fem, h)
    doc = {"schema": SCHEMA_VERSION, "kind": "field-report"}
    doc.update(rep.to_dict())
    write_json(os.path.join(outdir, "report.json"), doc)
    write_mesh_vtk(
        os.path.join(outdir, "twist.vtk"),
        cx,
        cell_scalars={"m": rep.twist},
    )
    return doc


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the exit status and writes output files.

    Every failure (module errors, bad values, unreadable files, failed
    topology checks) exits with status 2 through ``write_error``.
    """
    from .errors import FieldTopoError
    from .fem import build_fem
    from .mesh import validate_complex
    from .writers import write_json, write_mesh_vtk

    try:
        cfg.validate()
        os.makedirs(cfg.out, exist_ok=True)
        cx = build_geometry(cfg)
        report = validate_complex(cx)
        report.raise_if_failed()

        if cfg.command == "gen":
            doc = {
                "schema": SCHEMA_VERSION,
                "kind": "mesh",
                "counts": {
                    "vertices": cx.num_vertices,
                    "edges": cx.num_edges,
                    "faces": cx.num_faces,
                    "tets": cx.num_tets,
                },
                "euler_characteristic": report.euler_characteristic,
                "components": report.num_components,
                "boundary_components": report.boundary_components,
                "boundary_genus": report.boundary_genus,
            }
            write_json(os.path.join(cfg.out, "mesh.json"), doc)
            write_mesh_vtk(os.path.join(cfg.out, "mesh.vtk"), cx)
            return 0

        if cfg.command == "homology":
            _emit_homology(cx, cfg.out)
            return 0

        fem = build_fem(cx)
        if cfg.command == "cuts":
            _emit_cuts(cx, fem, cfg.out, cfg)
            return 0
        if cfg.command == "beltrami":
            _emit_beltrami(cx, fem, cfg.out, cfg)
            return 0
        if cfg.command == "classify":
            sol, _ = _emit_beltrami(cx, fem, cfg.out, cfg)
            _emit_classify(cx, fem, sol.cochains[:, 0], cfg.out)
            return 0

        # pipeline
        _emit_homology(cx, cfg.out)
        from .homology import betti_numbers

        if betti_numbers(cx).betti[1] >= 1:
            _emit_cuts(cx, fem, cfg.out, cfg)
        sol, _ = _emit_beltrami(cx, fem, cfg.out, cfg)
        _emit_classify(cx, fem, sol.cochains[:, 0], cfg.out)
        return 0

    except (FieldTopoError, ValueError, OSError, RuntimeError) as exc:
        write_error(cfg.out, exc)
        return 2


def write_error(outdir, exc, name=None):
    """Print ``{"error": ..., "message": ...}`` and, when ``outdir`` is
    given, also write it to ``outdir/error.json``."""
    from .writers import dumps_json

    doc = {"error": name or type(exc).__name__, "message": str(exc)}
    text = dumps_json(doc)
    print(text)
    if outdir is None:
        return
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "error.json"), "w") as fh:
            fh.write(text + "\n")
    except OSError:
        pass


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r} (expected key=value)")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so they follow the JSON error
    contract instead of exiting from inside argparse."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="fieldtopo",
        description="Topology and spectra of magnetic fields on tet meshes",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--geometry", default=None,
                   help="cube | solid-torus | torus3 | box-ring | msh:PATH")
    p.add_argument("--n", default=None, help="NX[,NY,NZ] cell counts")
    p.add_argument("--size", default=None, help="LX[,LY,LZ] edge lengths")
    p.add_argument("--periodic", default=None, help="axis mask, e.g. xy / 110 / none")
    p.add_argument("--bc", default=None,
                   help="closed-mesh | zero-trace | closed-trace:I[,J...]")
    p.add_argument("--k", type=int, default=None, help="number of eigenpairs")
    p.add_argument("--tol", type=float, default=None, help="eigen residual tolerance")
    p.add_argument("--level", default=None, help="cut level in [0,1) or 'auto'")
    p.add_argument("--cut-class", type=int, default=None, help="H^1 class index")
    p.add_argument("--shift", type=float, default=None, help="shift-invert target")
    p.add_argument("--seed", type=int, default=None, help="solver start vector seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS/OpenMP threads (1 = bit-reproducible)")
    p.add_argument("--config", default=None, help="key=value file; flags win")
    return p


def main(argv=None) -> int:
    try:
        cfg = _config_from_args(argv)
    except (ValueError, OSError) as exc:
        write_error(None, exc, name="ConfigError")
        return 2
    return run(cfg)


def _config_from_args(argv) -> RunConfig:
    """Parse flags and the --config file (flags win); sets the thread
    environment variables before numpy is loaded."""
    args = build_parser().parse_args(argv)
    filecfg = _read_config_file(args.config) if args.config else {}

    def pick(name, default, cast=None):
        val = getattr(args, name, None)
        if val is None:
            val = filecfg.get(name)
        if val is None:
            return default
        return cast(val) if cast else val

    threads = int(pick("threads", 0))
    if threads > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(threads)

    return RunConfig(
        command=args.command,
        geometry=pick("geometry", "cube"),
        n=_parse_tuple(pick("n", "4"), 3, int),
        size=_parse_tuple(pick("size", "1.0"), 3, float),
        periodic=pick("periodic", None),
        bc=pick("bc", None),
        k=int(pick("k", 1)),
        tol=float(pick("tol", 1e-8)),
        level=str(pick("level", "auto")),
        cut_class=int(pick("cut_class", 0)),
        shift=pick("shift", None, float),
        seed=int(pick("seed", 0)),
        out=pick("out", "."),
        threads=threads,
    )


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: mesh generation, homology, cuts, spectra, reports.

Heavy imports happen inside run() so that --threads can pin the BLAS/OpenMP
thread count through environment variables before numpy loads.  All emitted
JSON is byte-reproducible for a fixed seed and --threads 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

COMMANDS = ("gen", "homology", "cuts", "beltrami", "classify", "pipeline")
SCHEMA_VERSION = "fieldtopo/1"


@dataclass
class RunConfig:
    command: str
    geometry: str = "cube"
    n: tuple[int, ...] | None = None  # None: (4,) for generated meshes
    size: tuple[float, ...] | None = None  # None: (1.0,) for generated meshes
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
        if self.threads < 0:
            raise ValueError(f"--threads must be >= 0, got {self.threads}")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.cut_class < 0:
            raise ValueError(f"--cut-class must be >= 0, got {self.cut_class}")
        if not 0 < self.tol < float("inf"):
            raise ValueError(f"--tol must be finite and > 0, got {self.tol!r}")
        if self.shift is not None and not 0 < abs(self.shift) < float("inf"):
            raise ValueError(f"--shift must be finite and nonzero, got {self.shift!r}")
        if self.level != "auto":
            try:
                in_range = 0.0 <= float(self.level) < 1.0
            except ValueError:
                in_range = False
            if not in_range:
                raise ValueError(f"--level must be in [0,1) or 'auto', got {self.level!r}")
        if self.bc is not None:
            from .beltrami import BoundaryCondition

            BoundaryCondition.parse(self.bc)


def _triple(cast):
    """Argparse type: 1 or 3 comma-separated values, as a 3-tuple."""

    def parse(text):
        try:
            parts = [cast(p) for p in text.split(",")]
        except ValueError:
            parts = []
        if len(parts) not in (1, 3):
            raise argparse.ArgumentTypeError(
                f"expected 1 or 3 comma-separated {cast.__name__} values, got {text!r}"
            )
        return tuple(parts * (3 // len(parts)))

    return parse


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

    presets = {
        "cube": (False, False, False),
        "solid-torus": (False, False, True),
        "torus3": (True, True, True),
    }
    if cfg.periodic is not None and cfg.geometry not in presets:
        raise ValueError(f"--periodic applies to {', '.join(presets)}, not {cfg.geometry!r}")
    if cfg.geometry.startswith("msh:"):
        for flag, value in (("--n", cfg.n), ("--size", cfg.size)):
            if value is not None:
                raise ValueError(f"{flag} applies to generated meshes, not {cfg.geometry!r}")
        return read_msh(cfg.geometry[4:])
    n = cfg.n or (4,)
    size = cfg.size or (1.0,)
    if cfg.geometry == "box-ring":
        if len(set(n)) > 1 or len(set(size)) > 1:
            raise ValueError("box-ring takes one --n and one --size for all three axes")
        return gen_box_minus_ring(int(n[0]), l=float(size[0]))
    if cfg.geometry not in presets:
        raise ValueError(f"unknown geometry {cfg.geometry!r}")
    periodic = presets[cfg.geometry]
    if cfg.periodic is not None:
        periodic = _parse_periodic(cfg.periodic)
    n = n if len(n) == 3 else n * 3
    size = size if len(size) == 3 else size * 3
    return gen_grid(GridSpec(*n, *size, periodic=periodic))


def _counts(cx) -> dict:
    return {
        "vertices": cx.num_vertices,
        "edges": cx.num_edges,
        "faces": cx.num_faces,
        "tets": cx.num_tets,
    }


def _betti_doc(cx) -> dict:
    from .homology import betti_numbers, relative_betti

    b = betti_numbers(cx)
    r = relative_betti(cx)
    has_boundary = len(cx.boundary_faces) > 0
    duality = [b.betti[k] == r.betti[3 - k] for k in range(4)]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "betti",
        "counts": _counts(cx),
        "euler_characteristic": cx.euler_characteristic,
        "absolute": list(b.betti),
        "relative": list(r.betti),
        "torsion": b.flat_torsion(),
        "relative_torsion": r.flat_torsion(),
        "exact": b.exact,
        "has_boundary": has_boundary,
        "lefschetz_duality_ok": all(duality),
    }


def _cuts_stage(cx, cfg: RunConfig) -> dict:
    from .cuts import choose_level, critical_scan, extract_cut, harmonic_representative, verify_cut
    from .homology import h1_basis
    from .writers import write_cut_vtk, write_json

    basis = h1_basis(cx)
    j = cfg.cut_class
    if not (0 <= j < basis.rank):
        raise ValueError(f"--cut-class {j} out of range (H^1 rank {basis.rank})")
    rep = harmonic_representative(cx, basis.cocycles[j])
    level = choose_level(rep.vertex_phases()) if cfg.level == "auto" else float(cfg.level)
    cut = extract_cut(rep, level)
    crossings = verify_cut(cx, cut, basis)
    flagged = critical_scan(rep)
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
    return {
        "cuts.json": partial(write_json, obj=doc),
        "cut.vtk": partial(write_cut_vtk, cut=cut),
    }


def _beltrami_stage(pencil, cfg: RunConfig):
    from .beltrami import proxy_curl_residual, smallest_beltrami
    from .fem import field_proxies
    from .writers import write_json, write_mesh_vtk

    cx = pencil.complex
    sol = smallest_beltrami(pencil, k=cfg.k, tol=cfg.tol, shift=cfg.shift, seed=cfg.seed)
    pairs, vectors = [], {}
    for i, lam in enumerate(sol.lambdas):
        H, curlH = field_proxies(cx, sol.cochains[:, i])
        vectors[f"H_{i}"], vectors[f"curlH_{i}"] = H, curlH
        pairs.append({
            "lambda": float(lam),
            "residual": float(sol.residuals[i]),
            "proxy_curl_residual": proxy_curl_residual(cx, H, curlH, lam),
            "div_residual": float(sol.div_residuals[i]),
            "helicity": float(sol.helicities[i]),
            "energy": float(sol.energies[i]),
        })
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "spectrum",
        "bc": pencil.bc.describe(),
        "k": cfg.k,
        "shift": sol.shift,
        "dofs": pencil.ndof,
        "symmetry_defect": pencil.symmetry_defect,
        "harmonic_dimension": sol.harmonic_dimension,
        "pairs": pairs,
    }
    return sol, {
        "spectrum.json": partial(write_json, obj=doc),
        "modes.vtk": partial(write_mesh_vtk, cx=cx, cell_vectors=vectors),
    }


def _classify_stage(cx, h) -> dict:
    from .analysis import analyze_field
    from .writers import write_json, write_mesh_vtk

    rep = analyze_field(cx, h)
    doc = {"schema": SCHEMA_VERSION, "kind": "field-report"}
    doc.update(rep.to_dict())
    return {
        "report.json": partial(write_json, obj=doc),
        "twist.vtk": partial(write_mesh_vtk, cx=cx, cell_scalars={"m": rep.twist}),
    }


def _compute(cfg: RunConfig) -> dict:
    """Run the command's stages in order and return its outputs, as a map
    from file name to a writer call that takes the path; writes nothing."""
    from .mesh import validate_complex
    from .writers import write_json, write_mesh_vtk

    cx = build_geometry(cfg)
    report = validate_complex(cx)
    report.raise_if_failed()

    if cfg.command == "gen":
        doc = {
            "schema": SCHEMA_VERSION,
            "kind": "mesh",
            "counts": _counts(cx),
            "euler_characteristic": cx.euler_characteristic,
            "components": report.num_components,
            "boundary_components": report.boundary_components,
            "boundary_genus": report.boundary_genus,
        }
        return {
            "mesh.json": partial(write_json, obj=doc),
            "mesh.vtk": partial(write_mesh_vtk, cx=cx),
        }

    if cfg.command == "homology":
        return {"betti.json": partial(write_json, obj=_betti_doc(cx))}

    if cfg.command == "cuts":
        return _cuts_stage(cx, cfg)
    from .beltrami import BoundaryCondition, reduce_system

    default = "zero-trace" if len(cx.boundary_faces) else "closed-mesh"
    bc = BoundaryCondition.parse(default if cfg.bc is None else cfg.bc)
    pencil = reduce_system(cx, bc)
    outputs = {}
    if cfg.command == "pipeline":
        betti = _betti_doc(cx)
        if betti["absolute"][1] >= 1:
            outputs = _cuts_stage(cx, cfg)
        outputs["betti.json"] = partial(write_json, obj=betti)
    sol, solved = _beltrami_stage(pencil, cfg)
    if cfg.command != "beltrami":
        solved |= _classify_stage(cx, sol.cochains[:, 0])
    return outputs | solved


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the exit status and writes output files.

    Every failure (module errors, bad values, unreadable files, failed
    topology checks, a solve that does not converge) exits with status 2
    through ``write_error``.  The command computes all its stages before it
    writes its first output file, so any failure leaves only ``error.json``
    in the output directory; only an error in writing itself can leave the
    files written before it.
    """
    from .errors import FieldTopoError

    try:
        cfg.validate()
        os.makedirs(cfg.out, exist_ok=True)
        for name, write in _compute(cfg).items():
            write(os.path.join(cfg.out, name))
        return 0

    except (FieldTopoError, ValueError, OSError, RuntimeError) as exc:
        write_error(cfg.out, exc)
        return 2


def write_error(outdir, exc, name=None):
    """Print ``{"error": ..., "message": ...}`` and, when ``outdir`` is
    given, also write it to ``outdir/error.json``."""
    from .writers import dumps_json, write_json

    doc = {"error": name or type(exc).__name__, "message": str(exc)}
    print(dumps_json(doc))
    if outdir is None:
        return
    try:
        os.makedirs(outdir, exist_ok=True)
        write_json(os.path.join(outdir, "error.json"), doc)
    except OSError:
        pass


def _read_config_file(path) -> dict:
    out = {}
    for line in Path(path).read_text().split("\n"):
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
    p.add_argument("--n", type=_triple(int), default=None, help="NX[,NY,NZ] cell counts")
    p.add_argument("--size", type=_triple(float), default=None, help="LX[,LY,LZ] edge lengths")
    p.add_argument("--periodic", default=None,
                   help="axis mask for cube | solid-torus | torus3, e.g. xy / 110 / none")
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
    environment variables before numpy is loaded.

    The file's values become the parser's defaults, so argparse converts
    them with each flag's own type; an option set nowhere keeps the
    RunConfig default.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        filecfg = _read_config_file(args.config)
        unknown = sorted(set(filecfg) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown} in {args.config}")
        parser.set_defaults(**filecfg)
        args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse stores an explicit "--" value (--k=--) as [] and skips
        # the flag's type
        if isinstance(value, list):
            raise ValueError(f"argument --{name.replace('_', '-')}: expected one value")
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if v is not None and k != "config"})
    if cfg.threads > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(cfg.threads)
    return cfg


if __name__ == "__main__":
    sys.exit(main())

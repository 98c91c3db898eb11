"""Byte-identity manifests of the fieldtopo CLI outputs.

    python3 tools/golden.py manifest [--checkout DIR] [-o FILE]
    python3 tools/golden.py diff A.json B.json

``manifest`` runs every case in CASES (gen, homology, cuts, beltrami,
classify and pipeline at small sizes, each with ``--threads 1``) and in
CONFIG_CASES against the package under DIR/src (default: the checkout
holding this script) and prints
a JSON manifest, ``{case: {"argv": [...], "exit": status, "files": {name:
sha256}, "json": {name: content}}}``, or writes it to FILE; "json" holds the
parsed content of every JSON output.  Outputs go to a temporary directory.
``diff`` compares two manifests and exits 1 if any case differs in its
arguments, exit status, file set or file bytes.  For a JSON output whose
bytes differ it also prints every changed leaf, as ``case/file/path: old ->
new``, with the relative change of numbers.  A case of CONFIG_CASES passes
the options of the case it names through a ``--config`` file, written next
to the case's output directory; ``diff`` also reports, in either manifest,
a config case whose output bytes differ from those of its flag case.

Besides the Freudenthal grids, two pipeline cases read ``delaunay-ring.msh``,
a Delaunay mesh of a box minus a solid ring (generic connectivity) that
``delaunay_ring_msh`` writes from a fixed seed, and a gen and a homology case
read ``tagged-box.msh``, whose sections, elements and node ids take the
reader's skip and renumbering paths (``tagged_box_msh``).  Both files are
written into the same directory as the config files; the cases name them by
that relative path, so their arguments do not depend on where the manifest
runs.

To check that a change keeps every output byte for byte, write a manifest
from a checkout of the parent commit and one from the working tree, then
diff them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
from scipy.spatial import Delaunay

TAU = "6.283185307179586"

CASES: dict[str, list[str]] = {
    "gen-cube": ["gen", "--geometry", "cube", "--n", "3"],
    "gen-box-ring": ["gen", "--geometry", "box-ring", "--n", "5"],
    "homology-cube": ["homology", "--geometry", "cube", "--n", "3"],
    "homology-solid-torus": ["homology", "--geometry", "solid-torus", "--n", "3,3,6"],
    "homology-t2xi": ["homology", "--geometry", "cube", "--periodic", "xy", "--n", "3,3,2"],
    "homology-torus3": ["homology", "--geometry", "torus3", "--n", "3"],
    "homology-box-ring": ["homology", "--geometry", "box-ring", "--n", "5"],
    "homology-cube-12": ["homology", "--geometry", "cube", "--n", "12"],
    "cuts-solid-torus": ["cuts", "--geometry", "solid-torus", "--n", "2,2,8", "--size", "1,1,2"],
    "cuts-torus3": ["cuts", "--geometry", "torus3", "--n", "4", "--cut-class", "1"],
    "cuts-box-ring": ["cuts", "--geometry", "box-ring", "--n", "5"],
    "cuts-cube-trivial": ["cuts", "--geometry", "cube", "--n", "2"],
    "cuts-t2xi": ["cuts", "--geometry", "cube", "--periodic", "xy", "--n", "5,5,4", "--cut-class", "1"],
    "beltrami-torus3": ["beltrami", "--geometry", "torus3", "--n", "4", "--size", TAU, "--k", "2"],
    "beltrami-solid-torus-closed-trace": [
        "beltrami", "--geometry", "solid-torus", "--n", "3,3,8", "--size", "1,1,3",
        "--bc", "closed-trace:1",
    ],
    "beltrami-box-ring": ["beltrami", "--geometry", "box-ring", "--n", "5"],
    "beltrami-box-ring-closed-trace": [
        "beltrami", "--geometry", "box-ring", "--n", "5", "--bc", "closed-trace:0",
    ],
    "beltrami-box-ring-closed-trace-1": [
        "beltrami", "--geometry", "box-ring", "--n", "5", "--bc", "closed-trace:1",
    ],
    "beltrami-box-ring-not-isotropic": [
        "beltrami", "--geometry", "box-ring", "--n", "5", "--bc", "closed-trace:0,1",
    ],
    "beltrami-cube-closed-trace": [
        "beltrami", "--geometry", "cube", "--n", "3", "--bc", "closed-trace",
    ],
    "beltrami-t2xi-closed-trace": [
        "beltrami", "--geometry", "cube", "--periodic", "xy", "--n", "4,4,3",
        "--bc", "closed-trace:2",
    ],
    # exactly the 52 positive eigenvalues of the 189-DOF pencil
    "beltrami-torus3-whole-side": ["beltrami", "--geometry", "torus3", "--n", "3", "--k", "52"],
    # non-cubic, unequal lengths: pins the per-axis handling of the lattice solve
    "beltrami-torus3-3x4x5": [
        "beltrami", "--geometry", "torus3", "--n", "3,4,5", "--size", "1,2,3", "--k", "2",
    ],
    # one DOF, eigenvalue 0: the solver reports no pair on the shift's side
    "beltrami-cube-1": ["beltrami", "--geometry", "cube", "--n", "1"],
    "classify-torus3": ["classify", "--geometry", "torus3", "--n", "4", "--size", TAU],
    "classify-solid-torus-closed-trace": [
        "classify", "--geometry", "solid-torus", "--n", "2,2,8", "--size", "1,1,2",
        "--bc", "closed-trace:1",
    ],
    # b1 = 0: the pipeline skips the cut
    "pipeline-cube": ["pipeline", "--geometry", "cube", "--n", "3"],
    "pipeline-solid-torus": [
        "pipeline", "--geometry", "solid-torus", "--n", "2,2,8", "--size", "1,1,2",
        "--bc", "zero-trace",
    ],
    "pipeline-torus3": ["pipeline", "--geometry", "torus3", "--n", "4", "--size", TAU],
    "pipeline-box-ring": ["pipeline", "--geometry", "box-ring", "--n", "5"],
    "pipeline-box-ring-7": ["pipeline", "--geometry", "box-ring", "--n", "7"],
    "gen-msh-tagged-box": ["gen", "--geometry", "msh:tagged-box.msh"],
    "homology-msh-tagged-box": ["homology", "--geometry", "msh:tagged-box.msh"],
    "pipeline-delaunay-ring": ["pipeline", "--geometry", "msh:delaunay-ring.msh"],
    "pipeline-delaunay-ring-closed-trace-1": [
        "pipeline", "--geometry", "msh:delaunay-ring.msh", "--bc", "closed-trace:1",
    ],
}

# case -> the case in CASES whose options it reads from a --config file
CONFIG_CASES: dict[str, str] = {"beltrami-torus3-config": "beltrami-torus3"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def delaunay_ring_msh(path: str, seed: int = 1) -> None:
    """Write a Delaunay tet mesh of the unit box minus a solid ring as Gmsh 2.2.

    The points are an h = 0.1 grid whose interior coordinates move by up to
    0.2 h (so a face point stays on its face), without the grid points within
    r + 0.3 h of the ring's core circle (radius R = 0.25 in the plane z = 0.5
    about the box centre), plus 24 x 8 points on the ring's surface (tube
    radius r = 0.08) with angles moved by up to 0.15 of a step.  Of their
    Delaunay tets, those whose centroid lies within r of the core circle and
    those with all four vertices on one face of the box are dropped.  Seeds 1
    and 3 give a valid mesh (about 1460 vertices and 7100 tets, Betti numbers
    (1, 1, 1, 0)); seeds 0 and 2 give a pinched boundary.
    """
    h, R, r, c = 0.1, 0.25, 0.08, np.array([0.5, 0.5, 0.5])
    rng = np.random.default_rng(seed)
    ticks = np.linspace(0.0, 1.0, 11)
    grid = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    inner = (grid > 0.0) & (grid < 1.0)
    grid = grid + inner * rng.uniform(-0.2 * h, 0.2 * h, grid.shape)

    def core_distance(p):
        d = p - c
        return np.hypot(np.hypot(d[:, 0], d[:, 1]) - R, d[:, 2])

    grid = grid[core_distance(grid) > r + 0.3 * h]
    nu, nv = 24, 8
    u = (np.arange(nu)[:, None] + rng.uniform(-0.15, 0.15, (nu, nv))) * (2 * np.pi / nu)
    v = (np.arange(nv)[None, :] + rng.uniform(-0.15, 0.15, (nu, nv))) * (2 * np.pi / nv)
    rho = R + r * np.cos(v)
    ring = c + np.stack([rho * np.cos(u), rho * np.sin(u), r * np.sin(v)], axis=-1).reshape(-1, 3)
    points = np.vstack([grid, ring])

    tets = Delaunay(points).simplices
    corners = points[tets]
    keep = core_distance(corners.mean(axis=1)) > r
    for axis in range(3):
        for side in (0.0, 1.0):
            keep &= ~np.all(corners[:, :, axis] == side, axis=1)
    tets = tets[keep]
    used, tets = np.unique(tets, return_inverse=True)
    tets = tets.reshape(-1, 4)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(used))]
    lines += [f"{i + 1} {x!r} {y!r} {z!r}" for i, (x, y, z) in enumerate(points[used].tolist())]
    lines += ["$EndNodes", "$Elements", str(len(tets))]
    lines += [f"{i + 1} 4 2 0 1 " + " ".join(str(k + 1) for k in t) for i, t in enumerate(tets.tolist())]
    lines += ["$EndElements"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def tagged_box_msh(path: str) -> None:
    """Write a 2 x 1 x 1 box of 12 Kuhn tets as Gmsh 2.2, with what the reader skips.

    The file has a $PhysicalNames section, two triangles on the face x = 0
    and a node that no tet uses.  Node ids run 62, 57, ..., 7 along the
    points and are listed even points first, so they neither run 1..V nor
    rise in file order.
    """
    points = [(x, y, z) for x in range(3) for y in range(2) for z in range(2)]
    ids = [5 * (len(points) - k) + 2 for k in range(len(points))]
    tets = []
    for x in range(2):
        for axes in itertools.permutations(range(3)):
            corner = [x, 0, 0]
            walk = [ids[points.index(tuple(corner))]]
            for axis in axes:
                corner[axis] += 1
                walk.append(ids[points.index(tuple(corner))])
            tets.append(walk)
    order = list(range(0, len(points), 2)) + list(range(1, len(points), 2))
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat"]
    lines += ["$PhysicalNames", "2", '2 1 "wall"', '3 2 "box"', "$EndPhysicalNames"]
    lines += ["$Nodes", str(len(points) + 1), "30 0.5 0.5 3.0"]
    lines += [f"{ids[k]} " + " ".join(map(str, points[k])) for k in order]
    lines += ["$EndNodes", "$Elements", str(len(tets) + 2)]
    wall = [(0, 2, 3), (0, 3, 1)]
    lines += [f"{k + 1} 2 2 1 1 " + " ".join(str(ids[v]) for v in tri) for k, tri in enumerate(wall)]
    lines += [f"{k + 3} 4 2 2 1 " + " ".join(map(str, t)) for k, t in enumerate(tets)]
    lines += ["$EndElements"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def config_text(argv: list[str]) -> str:
    """The ``--key value`` options of a case as ``key=value`` lines."""
    opts = argv[1:]
    return "".join(f"{key[2:]}={value}\n" for key, value in zip(opts[::2], opts[1::2]))


def run_case(checkout: str, argv: list[str], outdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update({var: "1" for var in THREAD_VARS})
    full = [*argv, "--threads", "1", "--out", outdir]
    # config files are named relative to the directory above outdir
    proc = subprocess.run(
        [sys.executable, "-m", "fieldtopo.cli", *full], cwd=os.path.dirname(outdir),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
    files, contents = {}, {}
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            path = os.path.join(outdir, name)
            files[name] = _sha256(path)
            if name.endswith(".json"):
                with open(path) as fh:
                    contents[name] = json.load(fh)
    return {"argv": argv, "exit": proc.returncode, "files": files, "json": contents}


def manifest(checkout: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        delaunay_ring_msh(os.path.join(tmp, "delaunay-ring.msh"))
        tagged_box_msh(os.path.join(tmp, "tagged-box.msh"))
        out = {}
        for name, argv in CASES.items():
            print(f"golden: {name}", file=sys.stderr)
            out[name] = run_case(checkout, argv, os.path.join(tmp, name))
        for name, twin in CONFIG_CASES.items():
            print(f"golden: {name}", file=sys.stderr)
            with open(os.path.join(tmp, f"{name}.cfg"), "w") as fh:
                fh.write(config_text(CASES[twin]))
            argv = [CASES[twin][0], "--config", f"{name}.cfg"]
            out[name] = run_case(checkout, argv, os.path.join(tmp, name))
        return out


def _leaves(doc, path: str = "") -> dict:
    """Scalars (and empty containers) of a JSON document, keyed by their path."""
    if isinstance(doc, dict) and doc:
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return {path: doc}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}/{key}"))
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaf_changes(old, new) -> list[str]:
    """One line per leaf that differs between two JSON documents."""
    a, b = _leaves(old), _leaves(new)
    lines = []
    for path in sorted(set(a) | set(b)):
        if path in a and path in b and a[path] == b[path] and type(a[path]) is type(b[path]):
            continue
        x, y = a.get(path), b.get(path)
        line = f"{path}: {repr(x) if path in a else '<absent>'} -> {repr(y) if path in b else '<absent>'}"
        if _is_number(x) and _is_number(y):
            line += f" (rel {(y - x) / abs(x):+.3e})" if x else " (rel inf)"
        lines.append(line)
    return lines


def diff(a: dict, b: dict) -> list[str]:
    problems = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            problems.append(f"{name}: only in {'second' if name not in a else 'first'} manifest")
            continue
        ca, cb = a[name], b[name]
        for key in ("argv", "exit"):
            if ca[key] != cb[key]:
                problems.append(f"{name}: {key} {ca[key]!r} != {cb[key]!r}")
        for fname in sorted(set(ca["files"]) | set(cb["files"])):
            ha, hb = ca["files"].get(fname), cb["files"].get(fname)
            if ha != hb:
                what = "missing" if ha is None or hb is None else "differs"
                problems.append(f"{name}/{fname}: {what}")
                ja, jb = ca.get("json", {}), cb.get("json", {})
                if what == "differs" and fname in ja and fname in jb:
                    problems += [f"  {name}/{fname}{line}" for line in leaf_changes(ja[fname], jb[fname])]
    for name, twin in CONFIG_CASES.items():
        for which, m in (("first", a), ("second", b)):
            if name in m and twin in m and m[name]["files"] != m[twin]["files"]:
                problems.append(f"{name}: outputs differ from {twin} in the {which} manifest")
    return problems


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("manifest", help="run the cases and print a sha256 manifest")
    m.add_argument("--checkout", default=here, help="checkout whose src/ is run")
    m.add_argument("-o", "--output", default=None, help="write the manifest here")
    d = sub.add_parser("diff", help="compare two manifests")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args(argv)

    if args.cmd == "manifest":
        doc = manifest(os.path.abspath(args.checkout))
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    with open(args.a) as fa, open(args.b) as fb:
        problems = diff(json.load(fa), json.load(fb))
    for line in problems:
        print(line)
    files = sum(not line.startswith(" ") for line in problems)
    print(f"golden: {files} difference(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

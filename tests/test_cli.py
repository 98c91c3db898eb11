import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fieldtopo
from fieldtopo.cli import RunConfig, build_geometry, main, run
from fieldtopo.writers import dumps_json
from fields import cubes_glued_at_a_corner, write_msh


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def parse_vtk_counts(path):
    """Minimal legacy-VTK reader: declared vs actual points/cells."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# vtk DataFile Version 3.0")
    assert lines[2] == "ASCII"
    dataset = lines[3].split()[1]
    out = {"dataset": dataset}
    i = 4
    while i < len(lines):
        tok = lines[i].split()
        if not tok:
            i += 1
            continue
        if tok[0] == "POINTS":
            n = int(tok[1])
            for j in range(n):
                assert len(lines[i + 1 + j].split()) == 3
            out["points"] = n
            i += n + 1
        elif tok[0] in ("CELLS", "POLYGONS"):
            n, total = int(tok[1]), int(tok[2])
            count = 0
            for j in range(n):
                row = lines[i + 1 + j].split()
                count += len(row)
                assert int(row[0]) == len(row) - 1
            assert count == total
            out["cells"] = n
            i += n + 1
        elif tok[0] == "CELL_TYPES":
            n = int(tok[1])
            out["cell_types"] = [int(lines[i + 1 + j]) for j in range(n)]
            i += n + 1
        elif tok[0] == "CELL_DATA":
            out["cell_data"] = int(tok[1])
            i += 1
        else:
            i += 1
    return out


def test_homology_torus3(tmp_path):
    rc = main(
        [
            "homology",
            "--geometry",
            "torus3",
            "--n",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    doc = read_json(tmp_path / "betti.json")
    assert doc["absolute"] == [1, 3, 3, 1]
    assert doc["torsion"] == []
    assert doc["lefschetz_duality_ok"] is True


def test_pipeline_solid_torus(tmp_path):
    rc = main(
        [
            "pipeline",
            "--geometry",
            "solid-torus",
            "--n",
            "2,2,8",
            "--size",
            "1,1,2",
            "--bc",
            "zero-trace",
            "--k",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    betti = read_json(tmp_path / "betti.json")
    assert betti["absolute"] == [1, 1, 0, 0]
    cuts = read_json(tmp_path / "cuts.json")
    assert cuts["crossings"] == [1]
    assert cuts["fibration_certificate"] is True
    spectrum = read_json(tmp_path / "spectrum.json")
    assert spectrum["pairs"][0]["residual"] <= 1e-8
    report = read_json(tmp_path / "report.json")
    assert "verdict" in report
    for name in ("cut.vtk", "modes.vtk", "twist.vtk"):
        assert (tmp_path / name).exists()


def test_incompatible_bc_exit_code(tmp_path, capsys):
    rc = main(
        [
            "beltrami",
            "--geometry",
            "cube",
            "--n",
            "2",
            "--bc",
            "closed-mesh",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "IncompatibleBC"
    assert read_json(tmp_path / "error.json")["error"] == "IncompatibleBC"


@pytest.mark.parametrize("choice", ["0,0", "1,1"])
def test_repeated_lagrangian_choice_exit_code(tmp_path, capsys, choice):
    """A class chosen twice would give the DOF embedding two equal columns;
    it is rejected by name before the pencil is assembled."""
    rc = main([
        "beltrami", "--geometry", "solid-torus", "--n", "4,4,12", "--size", "1,1,3",
        "--bc", f"closed-trace:{choice}", "--out", str(tmp_path),
    ])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "IncompatibleBC", "message": f"lagrangian choice {choice[0]} is repeated"}
    assert read_json(tmp_path / "error.json") == doc


def test_invalid_config_exit_code(tmp_path, capsys):
    rc = main(["cuts", "--geometry", "nowhere", "--out", str(tmp_path)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] in ("ValueError", "ConfigError")


@pytest.mark.parametrize(
    "argv,error",
    [
        (["gen", "--n", '"'], "ConfigError"),
        (["gen", "--n", "2", "--config", "{tmp}/missing.cfg"], "ConfigError"),
        (["gen", "--geometry", "msh:{tmp}/missing.msh"], "FileNotFoundError"),
        (["gen", "--n", "2", "--level", "1.5"], "ValueError"),
        (["gen", "--k", "abc"], "ConfigError"),
        (["nosuch"], "ConfigError"),
        # NaN passes `tol <= 0` and would switch the residual gate off
        (["beltrami", "--n", "2", "--tol", "nan"], "ValueError"),
        (["beltrami", "--n", "2", "--tol", "inf"], "ValueError"),
        # a zero or non-finite shift leaves nothing to factor
        (["beltrami", "--n", "2", "--shift", "0"], "ValueError"),
        (["beltrami", "--n", "2", "--shift", "nan"], "ValueError"),
        (["beltrami", "--n", "2", "--shift", "inf"], "ValueError"),
        # a negative count would leave the thread pools unpinned
        (["gen", "--n", "2", "--threads", "-4"], "ValueError"),
        # commands that build no pencil still read --bc
        (["gen", "--n", "2", "--bc", "foo"], "ValueError"),
        (["homology", "--n", "2", "--bc", "closed-trace:x"], "ValueError"),
        (["cuts", "--geometry", "solid-torus", "--n", "2,2,8", "--bc", "foo"], "ValueError"),
        # the sign of --cut-class needs no mesh, so commands that do not cut check it
        (["gen", "--geometry", "solid-torus", "--n", "2,2,8", "--cut-class", "-1"], "ValueError"),
        # argparse stores an explicit "--" value as [] without calling the type
        (["gen", "--n=--"], "ConfigError"),
        (["beltrami", "--k=--"], "ConfigError"),
        (["gen", "--periodic=--"], "ConfigError"),
    ],
)
def test_error_contract(tmp_path, capsys, argv, error):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["error", "message"]
    assert doc["error"] == error
    # flags that parse name an output directory, created if need be
    if error == "ConfigError":
        assert not out.exists()
    else:
        assert read_json(out / "error.json") == doc
        assert os.listdir(out) == ["error.json"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["--geometry", "box-ring", "--n", "5", "--bc", "closed-trace:x"], "ValueError"),
        (["--geometry", "box-ring", "--n", "5", "--bc", "foo"], "ValueError"),
        (["--geometry", "box-ring", "--n", "5", "--bc", "closed-trace:5"], "IncompatibleBC"),
        (["--geometry", "box-ring", "--n", "5", "--cut-class", "3"], "ValueError"),
        (["--geometry", "box-ring", "--n", "5", "--seed", "-1"], "ValueError"),
        (["--geometry", "box-ring", "--n", "5", "--k", "100000"], "NoConvergence"),
        (["--geometry", "torus3", "--n", "4", "--bc", "zero-trace"], "IncompatibleBC"),
        # 52 pairs on the shift's side: the solve fails after Betti numbers and cut
        (["--geometry", "torus3", "--n", "3", "--k", "53"], "NoConvergence"),
    ],
    ids=["bc-syntax", "bc-unknown", "bc-index", "cut-class", "seed", "k", "bc-kind", "k-side"],
)
def test_input_errors_come_before_any_output(tmp_path, capsys, argv, error):
    """A bad flag, boundary condition or cut class, and a solve that fails,
    leave only error.json: the pipeline writes no file before its last stage."""
    out = tmp_path / "out"
    assert main(["pipeline", *argv, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == error
    assert os.listdir(out) == ["error.json"]


TWO_TETS_SHARING_AN_EDGE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
6
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
5 0 -1 0
6 0 0 -1
$EndNodes
$Elements
2
1 4 2 0 1 1 2 3 4
2 4 2 0 1 1 2 5 6
$EndElements
"""


def test_failed_validation_error_contract(tmp_path, capsys):
    """A mesh that parses but fails validate_complex exits 2 with JSON."""
    path = tmp_path / "edge.msh"
    path.write_text(TWO_TETS_SHARING_AN_EDGE)
    out = tmp_path / "out"
    rc = main(["gen", "--geometry", f"msh:{path}", "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "InvalidComplex"
    assert "do not close up into a surface" in doc["message"]
    assert read_json(out / "error.json") == doc


def tets_sharing_a_vertex():
    ref = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return np.vstack([ref, -ref[1:]]), np.array([[0, 1, 2, 3], [0, 4, 5, 6]])


@pytest.mark.parametrize("mesh", [cubes_glued_at_a_corner, tets_sharing_a_vertex])
@pytest.mark.parametrize("command", ["gen", "homology"])
def test_pinched_vertex_error_contract(tmp_path, capsys, mesh, command):
    """Meshes that are manifolds except at one vertex exit 2 with JSON."""
    path = tmp_path / "pinched.msh"
    write_msh(path, *mesh())
    out = tmp_path / "out"
    rc = main([command, "--geometry", f"msh:{path}", "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "InvalidComplex"
    assert "vertex links not a sphere or disk" in doc["message"]
    assert read_json(out / "error.json") == doc
    assert sorted(os.listdir(out)) == ["error.json"]


def test_unknown_config_key_error_contract(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bcc=zero-trace\n")
    rc = main(["gen", "--n", "2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ConfigError"
    assert "'bcc'" in doc["message"]


@pytest.mark.parametrize(
    "extra",
    [["--n", "5,9,9", "--periodic", "xyz"], ["--n", "5,9,9"], ["--n", "5", "--size", "1,2,1"],
     ["--n", "5", "--periodic", "xyz"]],
)
def test_box_ring_rejects_per_axis_options(tmp_path, capsys, extra):
    """The box-ring is one cube: per-axis counts, sizes and periodicity would be dropped."""
    out = tmp_path / "out"
    rc = main(["gen", "--geometry", "box-ring", *extra, "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ValueError"
    assert read_json(out / "error.json") == doc


def test_msh_rejects_periodic(tmp_path, capsys):
    path = tmp_path / "tets.msh"
    write_msh(path, *tets_sharing_a_vertex())
    out = tmp_path / "out"
    rc = main(["gen", "--geometry", f"msh:{path}", "--periodic", "xy", "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ValueError"
    assert "--periodic" in doc["message"]
    assert read_json(out / "error.json") == doc


@pytest.mark.parametrize("extra", [["--n", "9,9,9"], ["--size", "3"], ["--n", "9", "--size", "3"]])
def test_msh_rejects_grid_options(tmp_path, capsys, extra):
    """A read mesh has its own size and cell count: --n and --size would be dropped."""
    path = tmp_path / "one.msh"
    vertices, tets = tets_sharing_a_vertex()
    write_msh(path, vertices[:4], tets[:1])
    assert main(["gen", "--geometry", f"msh:{path}", "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["gen", "--geometry", f"msh:{path}", *extra, "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ValueError"
    assert extra[0] in doc["message"]
    assert read_json(out / "error.json") == doc


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--geometry", "cube", "--n", "2", "--size", "nan"],
        ["gen", "--geometry", "box-ring", "--n", "5", "--size", "inf"],
        ["homology", "--size", "nan"],
        ["gen", "--geometry", "msh:{msh}"],
    ],
)
def test_non_finite_geometry_error_contract(tmp_path, capsys, argv):
    """NaN passes every `<= 0` test and inf every size test; neither may
    reach mesh.vtk."""
    path = tmp_path / "nan.msh"
    vertices, tets = tets_sharing_a_vertex()
    vertices = vertices[:4].copy()
    vertices[3, 2] = np.nan
    write_msh(path, vertices, tets[:1])
    out = tmp_path / "out"
    rc = main([a.replace("{msh}", str(path)) for a in argv] + ["--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ValueError"
    assert "finite" in doc["message"]
    assert sorted(os.listdir(out)) == ["error.json"]
    assert read_json(out / "error.json") == doc


def test_homology_runtime_error_contract(tmp_path, capsys, monkeypatch):
    import fieldtopo.homology as homology

    def no_loops(*args, **kwargs):
        raise RuntimeError("cocycles do not span a saturated rank-1 lattice of periods")

    monkeypatch.setattr(homology, "dual_loops", no_loops)
    rc = main(["cuts", "--geometry", "solid-torus", "--n", "2,2,8", "--size", "1,1,2",
               "--out", str(tmp_path)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "RuntimeError"
    assert read_json(tmp_path / "error.json") == doc


@pytest.mark.parametrize("system,size", [("gradient Gram", 63), ("mass", 448)])
def test_cg_failure_error_contract(tmp_path, capsys, monkeypatch, system, size):
    """A Jacobi-CG solve that stops short exits 2 with JSON; torus3 n=4 has
    a 63 x 63 gradient Gram and a 448 x 448 mass matrix."""
    import scipy.sparse.linalg as spla

    cg = spla.cg

    def failing(A, b, **kwargs):
        return (np.zeros_like(b), 1) if A.shape[0] == size else cg(A, b, **kwargs)

    monkeypatch.setattr(spla, "cg", failing)
    rc = main(["beltrami", "--geometry", "torus3", "--n", "4", "--size", "6.283185307179586",
               "--out", str(tmp_path)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "NoConvergence", "message": f"{system} CG failed (info=1)"}
    assert read_json(tmp_path / "error.json") == doc


@pytest.mark.parametrize(
    "argv",
    [
        ["--geometry", "cube", "--n", "2"],
        ["--geometry", "cube", "--n", "3,3,1", "--periodic", "xy"],
        ["--geometry", "solid-torus", "--n", "1,1,3", "--bc", "closed-trace:0"],
    ],
)
def test_small_cg_systems_solve(tmp_path, argv):
    """A 1 x 1 gradient Gram and an 18 x 18 mass matrix need more CG steps
    than their order from scipy's cg."""
    assert main(["beltrami", *argv, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "argv,found",
    [
        (["--geometry", "torus3", "--n", "3", "--k", "53"], 52),
        (["--geometry", "torus3", "--n", "4", "--k", "300"], 122),
        (["--geometry", "cube", "--n", "3,1,1"], 0),
        (["--geometry", "solid-torus", "--n", "1,1,3", "--bc", "closed-trace:1"], 0),
        (["--geometry", "cube", "--n", "2,2,1", "--k", "5"], 3),
        (["--geometry", "cube", "--n", "2,2,1", "--k", "1000000000000"], 3),
    ],
)
def test_too_few_shift_side_pairs(tmp_path, capsys, argv, found):
    """A pencil with fewer than k eigenvalues on the shift's side (found, the
    dense count) exits 2 and writes only error.json; curl-kernel pairs at
    lambda ~ 0 do not fill the answer."""
    k = argv[argv.index("--k") + 1] if "--k" in argv else "1"
    assert main(["beltrami", *argv, "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "NoConvergence",
        "message": f"only {found} pairs on the shift's side of {k} requested",
    }
    assert os.listdir(tmp_path) == ["error.json"]


def test_shift_on_an_eigenvalue(tmp_path):
    """A shift equal to the torus3 n=4 eigenvalue 0.8441647995907942 makes
    S - sigma M1 singular, so shift-invert cannot find that pair; solved
    per wavevector, it has the largest f and ranks first."""
    argv = ["beltrami", "--geometry", "torus3", "--n", "4", "--size", "6.283185307179586",
            "--k", "1", "--shift", "0.8441647995907942", "--out", str(tmp_path)]
    assert main(argv) == 0
    (pair,) = read_json(tmp_path / "spectrum.json")["pairs"]
    assert pair["lambda"] == pytest.approx(0.8441647995907942, rel=1e-14)
    assert pair["residual"] <= 1e-14


def test_too_few_dofs_message(tmp_path, capsys):
    """cube n=1 leaves one DOF, whose eigenvalue is 0: the solver reports
    its count of pairs on the shift's side, as for a pencil of any size."""
    rc = main(["beltrami", "--geometry", "cube", "--n", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "NoConvergence",
        "message": "only 0 pairs on the shift's side of 1 requested",
    }


@pytest.mark.parametrize(
    "command, geometry",
    [("pipeline", ["--geometry", "cube", "--n", "1"]),
     ("beltrami", ["--geometry", "msh:{tmp}/tet.msh"]),
     ("pipeline", ["--geometry", "msh:{tmp}/tet.msh"])],
)
def test_tiny_pencil_error_contract(tmp_path, capsys, command, geometry):
    """A pencil with one DOF (cube n=1) or none (a single tet, every edge on
    its boundary) exits 2 with the solver's count and writes only error.json."""
    vertices, tets = tets_sharing_a_vertex()
    write_msh(tmp_path / "tet.msh", vertices[:4], tets[:1])
    out = tmp_path / "out"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in geometry]
    assert main([command, *argv, "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "error": "NoConvergence",
        "message": "only 0 pairs on the shift's side of 1 requested",
    }
    assert os.listdir(out) == ["error.json"]


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet='"\\\n\t{}[],:ab -.', min_size=1, max_size=12))
@example("--")
def test_bad_counts_always_give_json(text):
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(buf):
        rc = main(["gen", f"--n={text}", "--out", tmp])
    assert rc == 2
    assert json.loads(buf.getvalue())["error"] == "ConfigError"


def test_cli_import_leaves_numpy_unloaded():
    """--threads pins the BLAS/OpenMP pools, so numpy must load after parsing."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fieldtopo.__file__)))
    code = "import sys, fieldtopo.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_dumps_json_escapes_strings():
    doc = {"message": 'quote " backslash \\ newline \n tab \t bell \x07'}
    assert json.loads(dumps_json(doc)) == doc


def test_gen_emits_valid_vtk(tmp_path):
    rc = main(["gen", "--geometry", "cube", "--n", "2", "--out", str(tmp_path)])
    assert rc == 0
    info = parse_vtk_counts(tmp_path / "mesh.vtk")
    assert info["dataset"] == "UNSTRUCTURED_GRID"
    assert info["cells"] == 48
    assert info["points"] == 4 * 48
    assert set(info["cell_types"]) == {10}


def test_mesh_vtk_matches_line_by_line_format(tmp_path):
    """Block formatting writes the bytes of one `_fmt` line per row, on a
    grid with random fields and on an `msh:` mesh whose coordinates hold
    -0.0, a subnormal and values shared by many tets."""
    import numpy as np

    from fieldtopo.generators import GridSpec, gen_grid
    from fieldtopo.writers import _fmt, write_mesh_vtk

    def expected(cx, scalars, vectors):
        T = cx.num_tets
        lines = ["# vtk DataFile Version 3.0", "fieldtopo mesh", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {4 * T} double"]
        lines += [" ".join(_fmt(c) for c in p) for p in cx.tet_coords.reshape(-1, 3)]
        lines += [f"CELLS {T} {5 * T}"]
        lines += [f"4 {4 * t} {4 * t + 1} {4 * t + 2} {4 * t + 3}" for t in range(T)]
        lines += [f"CELL_TYPES {T}"] + ["10"] * T + [f"CELL_DATA {T}"]
        for name, data in scalars.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"] + [_fmt(x) for x in data]
        for name, data in vectors.items():
            lines += [f"VECTORS {name} double"] + [" ".join(_fmt(c) for c in row) for row in data]
        return "\n".join(lines) + "\n"

    cx = gen_grid(GridSpec(2, 2, 2, 1.0, 0.3, 7.0))
    T = cx.num_tets
    rng = np.random.default_rng(3)
    s = rng.standard_normal(T) * 10.0 ** rng.integers(-300, 300, T)
    s[:3] = [-0.0, 1.0, 2**-1074]
    v = rng.standard_normal((T, 3))
    scalars, vectors = {"s": s, "i": np.arange(T)}, {"v": v}
    write_mesh_vtk(tmp_path / "m.vtk", cx, cell_scalars=scalars, cell_vectors=vectors)
    assert (tmp_path / "m.vtk").read_text() == expected(cx, scalars, vectors)

    grid = gen_grid(GridSpec(3, 3, 3))
    vertices = grid.vertices.copy()
    vertices[vertices == 0.0] = -0.0
    vertices[vertices[:, 1] == 0.0, 1] = 2**-1074
    write_msh(tmp_path / "grid.msh", vertices, grid.tets)
    cx = build_geometry(RunConfig("gen", geometry=f"msh:{tmp_path / 'grid.msh'}"))
    coords = cx.tet_coords.ravel()
    assert np.any(np.signbit(coords) & (coords == 0.0))
    assert np.any(coords == 2**-1074)
    assert len(np.unique(coords)) * 20 < coords.size
    T = cx.num_tets
    z = np.where(np.arange(T) % 2, 0.0, -0.0)
    scalars, vectors = {"z": z}, {"w": np.column_stack([z, -z, np.full(T, 2**-1074)])}
    write_mesh_vtk(tmp_path / "msh.vtk", cx, cell_scalars=scalars, cell_vectors=vectors)
    assert (tmp_path / "msh.vtk").read_text() == expected(cx, scalars, vectors)


def test_modes_vtk_consistent(tmp_path):
    rc = main(
        [
            "beltrami",
            "--geometry",
            "torus3",
            "--n",
            "4",
            "--size",
            "6.283185307179586",
            "--k",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    info = parse_vtk_counts(tmp_path / "modes.vtk")
    assert info["dataset"] == "UNSTRUCTURED_GRID"
    assert info["cells"] == 6 * 64
    assert info["cell_data"] == info["cells"]


def test_cut_vtk_polydata(tmp_path):
    rc = main(
        [
            "cuts",
            "--geometry",
            "solid-torus",
            "--n",
            "2,2,8",
            "--size",
            "1,1,2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    info = parse_vtk_counts(tmp_path / "cut.vtk")
    assert info["dataset"] == "POLYDATA"
    assert info["cells"] > 0


def test_classify_standalone(tmp_path):
    rc = main(
        [
            "classify",
            "--geometry",
            "torus3",
            "--n",
            "4",
            "--size",
            "6.283185307179586",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    doc = read_json(tmp_path / "report.json")
    assert doc["identity_max_violation"] <= 1e-12
    assert (tmp_path / "twist.vtk").exists()
    info = parse_vtk_counts(tmp_path / "twist.vtk")
    assert info["cell_data"] == info["cells"]


def test_periodic_override_t2xi(tmp_path):
    rc = main(
        [
            "homology",
            "--geometry",
            "cube",
            "--n",
            "3,3,2",
            "--periodic",
            "xy",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert read_json(tmp_path / "betti.json")["absolute"] == [1, 2, 1, 0]


def test_config_file_flags_win(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("geometry=torus3\nn=3\nout=SHOULD_NOT_BE_USED\n")
    outdir = tmp_path / "real"
    rc = main(
        ["homology", "--config", str(cfgfile), "--out", str(outdir)]
    )
    assert rc == 0
    assert (outdir / "betti.json").exists()
    assert read_json(outdir / "betti.json")["absolute"] == [1, 3, 3, 1]


EVERY_OPTION = {
    "geometry": "solid-torus", "n": "2,2,8", "size": "1,1,2", "periodic": "z",
    "bc": "zero-trace", "k": "2", "tol": "1e-8", "level": "0.41", "cut-class": "0",
    "shift": "0.5", "seed": "3", "threads": "1",
}


def test_config_file_every_key_matches_flags(tmp_path):
    """Config values go through each flag's own type: a file that sets every
    key writes the bytes that the same values passed as flags write."""
    flags = [f for key, value in EVERY_OPTION.items() for f in (f"--{key}", value)]
    assert main(["pipeline", *flags, "--out", str(tmp_path / "flags")]) == 0
    cfg = tmp_path / "run.cfg"
    lines = [f"{key}={value}" for key, value in EVERY_OPTION.items()]
    cfg.write_text("\n".join(["command=pipeline", *lines, f"out={tmp_path / 'file'}"]) + "\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    names = sorted(os.listdir(tmp_path / "flags"))
    assert names == sorted(os.listdir(tmp_path / "file"))
    assert "error.json" not in names
    for name in names:
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "file" / name).read_bytes(), name


def test_report_agrees_with_spectrum(tmp_path):
    """One helicity and one energy per field: report.json repeats pair 0."""
    assert main(["pipeline", "--geometry", "box-ring", "--n", "5", "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "report.json")
    pair = read_json(tmp_path / "spectrum.json")["pairs"][0]
    assert (report["helicity"], report["energy"]) == (pair["helicity"], pair["energy"])


@pytest.mark.parametrize("argv,calls", [
    (["beltrami", "--geometry", "torus3", "--n", "4", "--k", "2"], 2),
    (["pipeline", "--geometry", "box-ring", "--n", "5"], 3),
])
def test_proxies_evaluated_once_per_field(tmp_path, monkeypatch, argv, calls):
    """Each eigenpair's proxies serve both the strong-form residual and
    modes.vtk; the pipeline adds one evaluation for the cut's critical scan
    and one for the analysis."""
    import importlib

    from fieldtopo.fem import field_proxies

    count = []

    def counted(*args):
        count.append(1)
        return field_proxies(*args)

    # every module binding of the function, so no caller escapes the count
    for name in ("fem", "analysis", "cuts", "beltrami", "cli"):
        module = importlib.import_module(f"fieldtopo.{name}")
        if hasattr(module, "field_proxies"):
            monkeypatch.setattr(module, "field_proxies", counted)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(count) == calls


def test_explicit_level(tmp_path):
    rc = main(
        [
            "cuts",
            "--geometry",
            "solid-torus",
            "--n",
            "2,2,8",
            "--size",
            "1,1,2",
            "--level",
            "0.41",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    doc = read_json(tmp_path / "cuts.json")
    assert doc["level"] == pytest.approx(0.41)


def test_build_geometry_box_ring():
    cfg = RunConfig(command="gen", geometry="box-ring", n=(5, 5, 5), size=(1.0, 1.0, 1.0))
    cx = build_geometry(cfg)
    assert len(cx.boundary_faces) > 0


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="nope").validate()
    with pytest.raises(ValueError):
        RunConfig(command="gen", k=0).validate()
    with pytest.raises(ValueError):
        RunConfig(command="gen", level="1.5").validate()
    with pytest.raises(ValueError, match="--seed"):
        RunConfig(command="gen", seed=-1).validate()
    with pytest.raises(ValueError, match="--level"):
        RunConfig(command="gen", level="abc").validate()
    with pytest.raises(ValueError, match="--cut-class"):
        RunConfig(command="gen", cut_class=-1).validate()
    RunConfig(command="gen", cut_class=0).validate()


def test_reproducibility_byte_identical(tmp_path):
    """Identical config with --threads 1 twice: byte-identical JSON output."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(
            [
                "pipeline",
                "--geometry",
                "solid-torus",
                "--n",
                "2,2,8",
                "--size",
                "1,1,2",
                "--bc",
                "zero-trace",
                "--threads",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    for fname in ("betti.json", "cuts.json", "spectrum.json", "report.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between runs"

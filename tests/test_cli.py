import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldtopo
from fieldtopo.cli import RunConfig, build_geometry, main, run
from fieldtopo.writers import dumps_json


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


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet='"\\\n\t{}[],:ab -.', min_size=1, max_size=12))
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

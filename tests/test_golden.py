"""``tools/golden.py diff``, the byte-identity gate, on small synthetic
manifests; no CLI command runs."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).parents[1] / "tools" / "golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

(CONFIG, TWIN), = golden.CONFIG_CASES.items()


def _case(argv, files, docs=None):
    return {"argv": argv, "exit": 0, "files": files, "json": docs or {}}


@pytest.fixture
def manifest():
    betti = {"absolute": [1, 1, 0, 0], "exact": True, "torsion": []}
    spectrum = {"lambdas": [0.5, -0.5], "kind": "spectrum"}
    files = {"spectrum.json": "a" * 64, "eigen.vtk": "b" * 64}
    return {
        "homology-x": _case(["homology"], {"betti.json": "c" * 64}, {"betti.json": betti}),
        TWIN: _case(golden.CASES[TWIN], dict(files), {"spectrum.json": spectrum}),
        CONFIG: _case(["beltrami", "--config", f"{CONFIG}.cfg"], dict(files),
                      {"spectrum.json": copy.deepcopy(spectrum)}),
    }


def test_identical_manifests(manifest):
    assert golden.diff(manifest, copy.deepcopy(manifest)) == []


def test_changed_json_output(manifest):
    new = copy.deepcopy(manifest)
    case = new["homology-x"]
    case["files"]["betti.json"] = "d" * 64
    case["json"]["betti.json"]["absolute"][1] = 2
    case["json"]["betti.json"]["exact"] = False
    assert golden.diff(manifest, new) == [
        "homology-x/betti.json: differs",
        "  homology-x/betti.json/absolute/1: 1 -> 2 (rel +1.000e+00)",
        "  homology-x/betti.json/exact: True -> False",
    ]


def test_missing_file_case_and_exit(manifest):
    new = copy.deepcopy(manifest)
    del new[TWIN]["files"]["eigen.vtk"]
    del new[CONFIG]["files"]["eigen.vtk"]
    new["homology-x"]["exit"] = 2
    new["homology-y"] = copy.deepcopy(manifest["homology-x"])
    old = copy.deepcopy(manifest)
    old["gen-z"] = _case(["gen"], {})
    assert sorted(golden.diff(old, new)) == sorted([
        f"{TWIN}/eigen.vtk: missing",
        f"{CONFIG}/eigen.vtk: missing",
        "gen-z: only in first manifest",
        "homology-x: exit 0 != 2",
        "homology-y: only in second manifest",
    ])


def test_config_case_differs_from_its_twin(manifest):
    manifest[CONFIG]["files"]["eigen.vtk"] = "e" * 64
    assert golden.diff(manifest, copy.deepcopy(manifest)) == [
        f"{CONFIG}: outputs differ from {TWIN} in the first manifest",
        f"{CONFIG}: outputs differ from {TWIN} in the second manifest",
    ]


def test_diff_command_exit_status(manifest, tmp_path, capsys):
    paths = []
    for name, doc in (("a", manifest), ("b", manifest), ("c", {})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert golden.main(["diff", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out == ""
    assert golden.main(["diff", str(paths[0]), str(paths[2])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: only in first manifest" for name in sorted(manifest)
    ]

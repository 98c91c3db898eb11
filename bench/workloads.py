"""The benchmark's workloads: fixed fieldtopo CLI invocations and their output checks.

Each workload is one CLI command on a fixed mesh.  The benchmark adds
``--n``, ``--seed``, ``--threads 1`` and ``--out``.  Reference values are
the outputs, at each workload's size ``n``, of the code the benchmark was
introduced with; at other sizes (the smoke test) only the size-independent
checks apply.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

# The CLI's --tol default; no workload overrides it.
CLI_TOL = 1e-8
LAMBDA_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    n: int
    outputs: tuple[str, ...]
    # check(outdir, n) -> list of problems, empty when the outputs are right
    check: Callable[[str, int], list[str]]


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} = {got!r}, expected {want!r}")


def _check_pairs(problems: list[str], spectrum: dict, k: int, lam_ref: float | None) -> None:
    pairs = spectrum["pairs"]
    _expect(problems, "number of eigenpairs", len(pairs), k)
    for i, pair in enumerate(pairs):
        if lam_ref is not None and not abs(pair["lambda"] - lam_ref) <= LAMBDA_RTOL * lam_ref:
            problems.append(f"lambda[{i}] = {pair['lambda']!r}, expected {lam_ref!r} within {LAMBDA_RTOL:g} relative")
        if not pair["residual"] <= CLI_TOL:
            problems.append(f"residual[{i}] = {pair['residual']!r} above --tol {CLI_TOL:g}")


def check_torus3(outdir: str, n: int) -> list[str]:
    problems: list[str] = []
    s = _load(outdir, "spectrum.json")
    at_ref = n == TORUS3.n
    _check_pairs(problems, s, 2, 0.977988792573648 if at_ref else None)
    _expect(problems, "harmonic_dimension", s["harmonic_dimension"], 3)
    if at_ref:
        _expect(problems, "dofs", s["dofs"], 12096)
    return problems


def check_boxring(outdir: str, n: int) -> list[str]:
    problems: list[str] = []
    b = _load(outdir, "betti.json")
    _expect(problems, "absolute Betti numbers", b["absolute"], [1, 1, 1, 0])
    _expect(problems, "relative Betti numbers", b["relative"], [0, 1, 1, 1])
    _expect(problems, "exact", b["exact"], True)
    _expect(problems, "lefschetz_duality_ok", b["lefschetz_duality_ok"], True)
    c = _load(outdir, "cuts.json")
    _expect(problems, "crossings", c["crossings"], [1])
    _expect(problems, "fibration_certificate", c["fibration_certificate"], True)
    s = _load(outdir, "spectrum.json")
    _check_pairs(problems, s, 1, 0.927184986153660 if n == BOXRING.n else None)
    r = _load(outdir, "report.json")
    if not r["identity_max_violation"] <= 1e-12:
        problems.append(f"identity_max_violation = {r['identity_max_violation']!r} above 1e-12")
    return problems


TORUS3 = Workload(
    name="torus3-beltrami",
    args=("beltrami", "--geometry", "torus3", "--size", "6.283185307179586", "--k", "2"),
    n=12,
    outputs=("spectrum.json", "modes.vtk"),
    check=check_torus3,
)
BOXRING = Workload(
    name="boxring-pipeline",
    args=("pipeline", "--geometry", "box-ring"),
    n=7,
    outputs=(
        "betti.json", "cuts.json", "cut.vtk", "spectrum.json", "modes.vtk",
        "report.json", "twist.vtk",
    ),
    check=check_boxring,
)

WORKLOADS = {w.name: w for w in (TORUS3, BOXRING)}

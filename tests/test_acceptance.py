"""Acceptance suite: one criterion per test, one [PASS]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.

Two sub-criteria measure what the mathematics lets them bound:

* 9b, the sign swap: the twist density m = H . curl H is quadratic in the
  field, so h -> -h leaves every label unchanged.  The sign of a contact
  structure is set by the orientation, so the swap is checked tet by tet
  under the field's mirror image, the pull-back by the central inversion
  of the periodic Freudenthal grid.
* 10b, the 1e-6 force-free tolerance at n=16: it bounds the current of the
  discrete curl operator, the Galerkin curl J_h = M1^-1 S^T h, against the
  field on the support.  The strong (piecewise constant) curl and the
  barycenter field live in different discrete spaces and are never parallel
  at lowest order; criterion 10 checks that their defect tightens.
"""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fieldtopo.analysis import (
    TetLabel,
    Verdict,
    analyze_field,
    helicity,
    identity_check,
    near_forcefree_check,
    support_mask,
)
from fieldtopo.beltrami import (
    BoundaryCondition,
    kernel_projector,
    reduce_system,
    smallest_beltrami,
)
from fieldtopo.cuts import (
    choose_level,
    critical_scan,
    extract_cut,
    harmonic_representative,
    verify_cut,
)
from fieldtopo.fem import build_fem, field_proxies
from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid
from fieldtopo.homology import betti_numbers, h1_basis, relative_betti
from fieldtopo.snf import smith_normal_form

from fields import boundary_edge_faces, cluster_align, edge_interpolant
from test_snf import minor_gcd_factors

TAU = 2.0 * np.pi
# the grids of the conftest fixture torus3_8 and of torus16_solution
TORUS3_8 = GridSpec(8, 8, 8, TAU, TAU, TAU, periodic=(True, True, True))
TORUS3_16 = GridSpec(16, 16, 16, TAU, TAU, TAU, periodic=(True, True, True))


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def torus12_solution():
    cx = gen_grid(GridSpec(12, 12, 12, TAU, TAU, TAU, periodic=(True, True, True)))
    fem = build_fem(cx)
    bc = BoundaryCondition.parse("closed-mesh")
    pen = reduce_system(cx, fem, bc)
    proj = kernel_projector(pen)
    return smallest_beltrami(pen, proj, k=1, tol=1e-8)


@pytest.fixture(scope="module")
def torus16_solution():
    t0 = time.time()
    cx = gen_grid(TORUS3_16)
    fem = build_fem(cx)
    bc = BoundaryCondition.parse("closed-mesh")
    pen = reduce_system(cx, fem, bc)
    proj = kernel_projector(pen)
    sol = smallest_beltrami(pen, proj, k=6, tol=1e-8)
    return sol, time.time() - t0


def aligned_field(cx, sol):
    def v(P):
        z = np.zeros(len(P))
        return np.column_stack([z, np.sin(P[:, 0]), np.cos(P[:, 0])])

    return cluster_align(sol, edge_interpolant(cx, v))


def central_inversion(cx, spec):
    """Orientation-reversing automorphism x -> -x of the periodic Freudenthal
    grid ``gen_grid(spec)``.

    Returns the image of every edge (index and the sign of the canonical
    orientation under the map) and of every tet.  The inversion fixes the
    body diagonal, so it maps the triangulation onto itself; the pull-back
    of an edge cochain h is ``edge_sign * h[edge_map]``.
    """
    assert all(spec.periodic)
    n = np.array(spec.counts)
    grid = np.rint(cx.vertices / (np.array(spec.lengths) / n)).astype(np.int64)

    def key(g):
        return (g[:, 0] * n[1] + g[:, 1]) * n[2] + g[:, 2]

    by_key = np.empty(n.prod(), dtype=np.int64)
    by_key[key(grid)] = np.arange(cx.num_vertices)
    vertex_map = by_key[key(-grid % n)]

    ends = vertex_map[cx.edges]
    V = cx.num_vertices
    edge_keys = cx.edges[:, 0] * V + cx.edges[:, 1]
    image_keys = ends.min(axis=1) * V + ends.max(axis=1)
    edge_map = np.searchsorted(edge_keys, image_keys)
    assert np.array_equal(edge_keys[edge_map], image_keys)
    edge_sign = np.where(ends[:, 0] < ends[:, 1], 1.0, -1.0)

    tet_index = {tuple(sorted(t)): i for i, t in enumerate(cx.tets.tolist())}
    tet_map = np.array([tet_index[tuple(sorted(t))] for t in vertex_map[cx.tets].tolist()])
    return edge_map, edge_sign, tet_map


def galerkin_current(fem, h):
    """Current of the discrete curl operator: J_h = M1^-1 S^T h.

    Jacobi-preconditioned CG on the Whitney mass matrix, as in the
    eigensolver's mass solves.
    """
    d_inv = 1.0 / fem.M1.diagonal()
    pre = spla.LinearOperator(fem.M1.shape, matvec=lambda x: d_inv * x)
    J, info = spla.cg(fem.M1, fem.S.T @ h, rtol=1e-13, atol=0.0, maxiter=500, M=pre)
    assert info == 0, f"mass-matrix CG failed (info={info})"
    return J


def forcefree_defect(cx, fem, h):
    """max|J_h x B| / max|J_h||B| over the support of B, from barycenter proxies."""
    B, _ = field_proxies(cx, h)
    J, _ = field_proxies(cx, galerkin_current(fem, h))
    on = support_mask(B)
    cross = np.linalg.norm(np.cross(J, B), axis=1)[on]
    JB = (np.linalg.norm(J, axis=1) * np.linalg.norm(B, axis=1))[on]
    return cross.max() / JB.max()


def test_criterion_01_dec_exactness():
    t0 = time.time()
    meshes = [
        gen_grid(GridSpec(4, 4, 4)),
        gen_grid(GridSpec(4, 4, 12, periodic=(False, False, True))),
        gen_grid(GridSpec(8, 8, 8, periodic=(True, True, True))),
        gen_box_minus_ring(7),
    ]
    worst = 0
    for cx in meshes:
        worst = max(worst, (cx.D1 @ cx.D0).count_nonzero())
        worst = max(worst, (cx.D2 @ cx.D1).count_nonzero())
    wall = time.time() - t0
    ok = worst == 0 and wall < 5.0
    assert report(1, ok, f"D1@D0 = D2@D1 = 0 exactly on 4 meshes, {wall:.1f}s (< 5s)")


def test_criterion_02_homology_table():
    t0 = time.time()
    cases = [
        ("cube", gen_grid(GridSpec(4, 4, 4)), (1, 0, 0, 0)),
        (
            "solid torus",
            gen_grid(GridSpec(4, 4, 12, periodic=(False, False, True))),
            (1, 1, 0, 0),
        ),
        ("T2xI", gen_grid(GridSpec(4, 4, 2, periodic=(True, True, False))), (1, 2, 1, 0)),
        ("torus3", gen_grid(GridSpec(8, 8, 8, periodic=(True, True, True))), (1, 3, 3, 1)),
        ("box-ring", gen_box_minus_ring(7), (1, 1, 1, 0)),
    ]
    ok = True
    for name, cx, expect in cases:
        b = betti_numbers(cx)
        r = relative_betti(cx)
        ok &= b.betti == expect and b.exact
        ok &= not b.flat_torsion() and not r.flat_torsion()
        if len(cx.boundary_faces):
            ok &= all(b.betti[k] == r.betti[3 - k] for k in range(4))
    wall = time.time() - t0
    ok = ok and wall < 60.0
    assert report(2, ok, f"5 Betti tables + torsion + Lefschetz duality, {wall:.1f}s (< 60s)")


def test_criterion_03_snf_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    mismatches = 0
    for _ in range(200):
        m, n = rng.integers(1, 9, size=2)
        A = rng.integers(-9, 10, size=(m, n))
        if smith_normal_form(A).invariant_factors != minor_gcd_factors(A):
            mismatches += 1
    ok = mismatches == 0
    assert report(
        3, ok, f"200 random matrices vs gcd-of-minors oracle, {mismatches} mismatches, "
        f"{time.time() - t0:.1f}s"
    )


def test_criterion_04_cuts(solid_torus, solid_torus_fem, box_ring, box_ring_fem):
    t0 = time.time()
    ok = True
    for cx, fem in ((solid_torus, solid_torus_fem), (box_ring, box_ring_fem)):
        basis = h1_basis(cx)
        rep = harmonic_representative(cx, fem, basis.cocycles[0])
        bfaces = set(int(f) for f in cx.boundary_faces)
        l1 = choose_level(rep.vertex_phases())
        l2 = (l1 + 0.37) % 1.0
        cut1 = extract_cut(cx, rep, l1)
        cut1.validate_manifold()
        ok &= boundary_edge_faces(cx, cut1) <= bfaces
        c1 = verify_cut(cx, cut1, basis)
        c2 = verify_cut(cx, extract_cut(cx, rep, l2), basis)
        rng = np.random.default_rng(1)
        shifted = basis.cocycles[0] + cx.D0 @ rng.integers(-2, 3, cx.num_vertices)
        rep2 = harmonic_representative(cx, fem, shifted)
        c3 = verify_cut(cx, extract_cut(cx, rep2, choose_level(rep2.vertex_phases())), basis)
        ident = np.zeros(basis.rank, dtype=np.int64)
        ident[0] = 1
        ok &= (
            np.array_equal(c1, ident)
            and np.array_equal(c2, ident)
            and np.array_equal(c3, ident)
        )
    wall = time.time() - t0
    ok = ok and wall < 30.0
    assert report(
        4, ok, f"crossing vectors = identity, manifold + boundary containment, "
        f"level/representative invariance, {wall:.1f}s (< 30s)"
    )


def test_criterion_05_fibration_certificate(
    solid_torus, solid_torus_fem, cube4, cube4_fem
):
    t0 = time.time()
    basis = h1_basis(solid_torus)
    rep = harmonic_representative(solid_torus, solid_torus_fem, basis.cocycles[0])
    certificate = len(critical_scan(solid_torus, rep)) == 0

    # constructed saddle: flat interior plateau, growing in x, shrinking in y
    v = cube4.vertices

    def ramp(t):
        return np.maximum(np.abs(t - 0.5) - 0.25, 0.0) ** 2

    from fieldtopo.cuts import HarmonicRep

    phi = ramp(v[:, 0]) - ramp(v[:, 1])
    saddle = HarmonicRep(
        complex=cube4,
        omega=cube4.D0 @ phi,
        coclosure_residual=0.0,
    )
    flagged = critical_scan(cube4, saddle)
    wall = time.time() - t0
    ok = certificate and len(flagged) > 0 and wall < 5.0
    assert report(
        5, ok, f"harmonic rep certified ({certificate}), saddle flags "
        f"{len(flagged)} tets, {wall:.1f}s (< 5s)"
    )


def test_criterion_06_beltrami_benchmark(
    torus8_beltrami, torus12_solution, torus16_solution
):
    _, _, sol8 = torus8_beltrami
    sol12 = torus12_solution
    sol16, wall16 = torus16_solution
    errs = [abs(abs(s.lambdas[0]) - 1.0) for s in (sol8, sol12, sol16)]
    ok = (
        errs[2] <= 0.05
        and errs[0] > errs[1] > errs[2]
        and sol16.residuals.max() <= 1e-8
        and np.abs(sol16.helicities / sol16.energies - sol16.lambdas).max()
        <= 1e-10 * np.abs(sol16.lambdas).max()
        and wall16 < 600.0
    )
    assert report(
        6,
        ok,
        f"|lambda-1| = {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f} (<= 0.05 at n=16), "
        f"residual {sol16.residuals.max():.1e} <= 1e-8, Rayleigh to 1e-10, "
        f"{wall16:.0f}s (< 600s)",
    )


def test_criterion_07_kernel_deflation(torus3_coarse, torus3_coarse_fem, cube4, cube4_fem):
    t0 = time.time()
    bc = BoundaryCondition.parse("closed-mesh")
    pen = reduce_system(torus3_coarse, torus3_coarse_fem, bc)
    proj = kernel_projector(pen)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        g = torus3_coarse.D0 @ rng.standard_normal(torus3_coarse.num_vertices)
        worst = max(worst, np.linalg.norm(proj.apply(g)) / np.linalg.norm(g))
    dims_ok = proj.harmonic_dimension == 3
    penz = reduce_system(cube4, cube4_fem, BoundaryCondition.parse("zero-trace"))
    projz = kernel_projector(penz)
    dims_ok &= projz.harmonic_dimension == 0
    wall = time.time() - t0
    ok = worst <= 1e-10 and dims_ok and wall < 60.0
    assert report(
        7, ok, f"50 gradients annihilated to {worst:.1e} (<= 1e-10), harmonic dims "
        f"3/0, {wall:.1f}s (< 60s)"
    )


def test_criterion_08_pointwise_identity(torus3_coarse, torus3_coarse_fem):
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        h = rng.standard_normal(torus3_coarse.num_edges)
        worst = max(worst, identity_check(*field_proxies(torus3_coarse, h)))
    wall = time.time() - t0
    ok = worst <= 1e-12 and wall < 5.0
    assert report(
        8, ok, f"|J|^2|B|^2 = |JxB|^2 + (J.B)^2 to {worst:.1e} (<= 1e-12) over 100 "
        f"random cochains, {wall:.1f}s (< 5s)"
    )


def test_criterion_09_classification(torus8_beltrami, torus3_8, torus3_8_fem):
    t0 = time.time()
    pen, proj, sol = torus8_beltrami
    h = aligned_field(torus3_8, sol)
    rep = analyze_field(torus3_8, torus3_8_fem, h)
    contact_ok = rep.verdict is Verdict.CONTACT and all(
        rep.twist[t] > 0 for t in np.flatnonzero(rep.support)
    )
    g = torus3_8.D0 @ np.sin(torus3_8.vertices[:, 0])
    foliation_ok = analyze_field(torus3_8, torus3_8_fem, g).verdict is Verdict.FOLIATION
    from fieldtopo.beltrami import default_shift

    neg = smallest_beltrami(pen, proj, k=1, tol=1e-8, shift=-default_shift(torus3_8))
    mixed_ok = (
        analyze_field(torus3_8, torus3_8_fem, sol.cochains[:, 0] + neg.cochains[:, 0]).verdict
        is Verdict.MIXED
    )
    scale_ok = analyze_field(torus3_8, torus3_8_fem, 3.0 * h).verdict is Verdict.CONTACT
    wall = time.time() - t0
    ok = contact_ok and foliation_ok and mixed_ok and scale_ok and wall < 60.0
    assert report(
        9,
        ok,
        f"eigenfield CONTACT (m > 0 on support), gradient FOLIATION, mixed MIXED, "
        f"3h invariant, {wall:.1f}s (< 60s)",
    )


def test_criterion_09b_sign_swap_as_specified(torus8_beltrami, torus3_8, torus3_8_fem):
    """Sub-criterion: the sign branches swap under the field's mirror image.

    m = H . curl H is quadratic, so h -> -h alone leaves every label
    unchanged (tests/test_analysis.py::test_classify_negation_invariance).
    The sign is set by the orientation: pulling h back by the central
    inversion sigma (h -> -h together with x -> -x) gives
    H'(t) = -H(sigma t) and curl H'(t) = curl H(sigma t), so
    m'(t) = -m(sigma t).  Every tet label must swap
    CONTACT_POS <-> CONTACT_NEG against its image, and the helicity must
    change sign.
    """
    _, _, sol = torus8_beltrami
    h = aligned_field(torus3_8, sol)
    edge_map, edge_sign, tet_map = central_inversion(torus3_8, TORUS3_8)
    mirrored = edge_sign * h[edge_map]
    a = analyze_field(torus3_8, torus3_8_fem, h)
    b = analyze_field(torus3_8, torus3_8_fem, mirrored)
    swap = {
        TetLabel.CONTACT_POS: TetLabel.CONTACT_NEG,
        TetLabel.CONTACT_NEG: TetLabel.CONTACT_POS,
        TetLabel.FOLIATION: TetLabel.FOLIATION,
        TetLabel.DEGENERATE: TetLabel.DEGENERATE,
    }
    mismatched = [
        t for t in range(torus3_8.num_tets) if b.labels[t] is not swap[a.labels[tet_map[t]]]
    ]
    contact = sum(lab in (TetLabel.CONTACT_POS, TetLabel.CONTACT_NEG) for lab in a.labels)
    ok = not mismatched and contact > 0 and a.helicity * b.helicity < 0
    report(
        "9b",
        ok,
        f"labels swap contact+ <-> contact- tet by tet under the orientation-reversing "
        f"pull-back ({torus3_8.num_tets - len(mismatched)}/{torus3_8.num_tets} tets, "
        f"{contact} contact), helicity {a.helicity:.4f} -> {b.helicity:.4f}",
    )
    assert not mismatched, (
        f"{len(mismatched)} tets keep their label under x -> -x, h -> -h "
        f"(first: tet {mismatched[0]})"
    )
    assert contact > 0, "no contact tets: the swap check is vacuous"
    assert a.helicity * b.helicity < 0, (
        f"helicity {a.helicity:.4e} -> {b.helicity:.4e} does not change sign "
        "under the orientation-reversing pull-back"
    )


def test_criterion_10_inclusion_chain(torus8_beltrami, torus3_8, torus3_8_fem,
                                      torus16_solution):
    t0 = time.time()
    _, _, sol8 = torus8_beltrami
    sol16, _ = torus16_solution
    cx16 = sol16.pencil.complex

    ratios = {}
    for cx, sol in ((torus3_8, sol8), (cx16, sol16)):
        h = aligned_field(cx, sol)
        H, curlH = field_proxies(cx, h)
        cross = np.linalg.norm(np.cross(curlH, H), axis=1)
        JB = np.linalg.norm(curlH, axis=1) * np.linalg.norm(H, axis=1)
        ratios[cx.num_tets] = cross.max() / JB.max()
    r8, r16 = ratios[torus3_8.num_tets], ratios[cx16.num_tets]

    nff = near_forcefree_check(cx16, *field_proxies(cx16, aligned_field(cx16, sol16)))
    tightening = r16 < r8
    wall = time.time() - t0
    ok = tightening and nff == [True]
    assert report(
        10,
        ok,
        f"near-force-free {nff}, force-free defect tightens {r8:.3f} -> {r16:.3f} "
        f"(n=8 -> 16), {wall:.0f}s",
    )


def test_criterion_10b_forcefree_tolerance_as_specified(torus16_solution):
    """Sub-criterion: max|JxB| <= 1e-6 max|J||B| on the support at n=16.

    J is the current of the self-adjoint curl operator on Whitney edge
    elements, the Galerkin curl J_h = M1^-1 S^T h, and B is the field; both
    proxies are barycenter values of edge cochains.  An eigenfield has
    J_h = lambda h, so the defect is the solver's and the mass solve's
    round-off.  Two controls show the bound can fail: 1e-4 of an
    M1-normalized gradient (invisible to J_h) and 1e-4 of the mirrored
    -lambda eigenfield each push the defect far above 1e-6.
    """
    sol16, _ = torus16_solution
    cx16 = sol16.pencil.complex
    fem16 = sol16.pencil.fem
    h = aligned_field(cx16, sol16)
    defect = forcefree_defect(cx16, fem16, h)
    defect_single = forcefree_defect(cx16, fem16, sol16.cochains[:, 0])

    grad = cx16.D0 @ np.sin(cx16.vertices[:, 0])
    grad /= np.sqrt(grad @ (fem16.M1 @ grad))
    edge_map, edge_sign, _ = central_inversion(cx16, TORUS3_16)
    mirrored = edge_sign * h[edge_map]
    controls = [
        forcefree_defect(cx16, fem16, h + 1e-4 * grad),
        forcefree_defect(cx16, fem16, h + 1e-4 * mirrored),
    ]

    ok = max(defect, defect_single) <= 1e-6 and min(controls) > 1e-6
    report(
        "10b",
        ok,
        f"Galerkin-curl force-free defect {defect:.1e} (aligned), {defect_single:.1e} "
        f"(single eigenvector) <= 1e-6 on support at n=16; controls +1e-4 gradient "
        f"{controls[0]:.1e}, +1e-4 mirrored eigenfield {controls[1]:.1e} > 1e-6",
    )
    assert defect <= 1e-6 and defect_single <= 1e-6, (
        f"max|J_h x B|/max|J_h||B| on support = {defect:.3e} (aligned field), "
        f"{defect_single:.3e} (single eigenvector) at n=16, above the 1e-6 allowance"
    )
    assert min(controls) > 1e-6, (
        f"negative controls {controls[0]:.3e} (gradient), {controls[1]:.3e} "
        "(mirrored eigenfield) stay within 1e-6: the bound cannot detect a "
        "non-force-free field"
    )


def test_criterion_11_gauge_invariance(torus3_coarse, torus3_coarse_fem):
    t0 = time.time()
    rng = np.random.default_rng(11)
    h = rng.standard_normal(torus3_coarse.num_edges)
    base = helicity(torus3_coarse_fem, h)
    worst = 0.0
    for _ in range(20):
        phi = rng.standard_normal(torus3_coarse.num_vertices)
        shifted = helicity(torus3_coarse_fem, h + torus3_coarse.D0 @ phi)
        worst = max(worst, abs(shifted - base) / abs(base))
    wall = time.time() - t0
    ok = worst <= 1e-10 and wall < 5.0
    assert report(
        11, ok, f"helicity(h + D0 phi) = helicity(h) to {worst:.1e} (<= 1e-10 rel) "
        f"for 20 random phi, {wall:.1f}s (< 5s)"
    )


def test_criterion_12_reproducibility(tmp_path):
    from fieldtopo.cli import main

    t0 = time.time()
    args = [
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
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("betti.json", "cuts.json", "spectrum.json", "report.json")
    )
    ok = same
    assert report(
        12, ok, f"--threads 1 twice: byte-identical JSON outputs, "
        f"{time.time() - t0:.1f}s"
    )

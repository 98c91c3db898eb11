import numpy as np
import pytest
import scipy.linalg as sla

from fieldtopo.beltrami import (
    BCKind,
    BoundaryCondition,
    cluster_align,
    default_shift,
    kernel_projector,
    reduce_system,
    residual_report,
    smallest_beltrami,
)
from fieldtopo.errors import IncompatibleBC
from fieldtopo.fem import build_fem, edge_interpolant
from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid

TAU = 2 * np.pi


def test_closed_mesh_pencil_is_full(torus3_coarse, torus3_coarse_fem):
    pen = reduce_system(torus3_coarse, torus3_coarse_fem, BoundaryCondition.closed_mesh())
    assert pen.ndof == torus3_coarse.num_edges
    assert pen.symmetry_defect <= 1e-12


def test_zero_trace_pencil_symmetric(cube4, cube4_fem):
    pen = reduce_system(cube4, cube4_fem, BoundaryCondition.zero_trace())
    assert pen.ndof < cube4.num_edges
    assert pen.symmetry_defect <= 1e-12


def test_closed_trace_pencil_symmetric(solid_torus, solid_torus_fem):
    for choice in (0, 1):
        pen = reduce_system(
            solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(choice)
        )
        assert pen.symmetry_defect <= 1e-12


def test_closed_trace_normalized_restriction(solid_torus, solid_torus_fem):
    """Index 0 is meridian-like (invisible to traces of H^1(M)), index 1
    longitude-like; only the longitude choice admits a harmonic flux state."""
    pen0 = reduce_system(solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(0))
    R = pen0.boundary.restriction_pairing
    assert R.shape == (1, 2)
    assert R[0, 0] == 0 and abs(R[0, 1]) == 1
    proj0 = kernel_projector(
        solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(0), pen0
    )
    assert proj0.harmonic_dimension == 0
    pen1 = reduce_system(solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(1))
    proj1 = kernel_projector(
        solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(1), pen1
    )
    assert proj1.harmonic_dimension == 1


def test_incompatible_bc_cases(cube4, cube4_fem, torus3_coarse, torus3_coarse_fem,
                               solid_torus, solid_torus_fem):
    with pytest.raises(IncompatibleBC):
        reduce_system(cube4, cube4_fem, BoundaryCondition.closed_mesh())
    with pytest.raises(IncompatibleBC):
        reduce_system(torus3_coarse, torus3_coarse_fem, BoundaryCondition.zero_trace())
    with pytest.raises(IncompatibleBC):
        reduce_system(cube4, cube4_fem, BoundaryCondition.closed_trace(0))
    with pytest.raises(IncompatibleBC):
        reduce_system(solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(0, 1))
    with pytest.raises(IncompatibleBC):
        reduce_system(solid_torus, solid_torus_fem, BoundaryCondition.closed_trace(7))


def test_dof_map_roundtrip(solid_torus, solid_torus_fem):
    bc = BoundaryCondition.closed_trace(1)
    pen = reduce_system(solid_torus, solid_torus_fem, bc)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(pen.ndof)
    h = pen.to_full(x)
    back = pen.full_to_dof(h)
    assert np.abs(pen.to_full(back) - h).max() < 1e-10


def test_projector_properties(torus8_beltrami, torus3_8):
    pen, proj, _ = torus8_beltrami
    rng = np.random.default_rng(2)
    v = rng.standard_normal(pen.ndof)
    Pv = proj.apply(v)
    assert np.abs(proj.apply(Pv) - Pv).max() <= 1e-12 * np.abs(Pv).max()
    # annihilates gradients
    g = torus3_8.D0 @ rng.standard_normal(torus3_8.num_vertices)
    assert np.linalg.norm(proj.apply(g)) <= 1e-10 * np.linalg.norm(g)
    # M1-self-adjoint: <Pu, v>_M = <u, Pv>_M
    u = rng.standard_normal(pen.ndof)
    lhs = proj.apply(u) @ (pen.M1 @ v)
    rhs = u @ (pen.M1 @ proj.apply(v))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_harmonic_dimensions(torus8_beltrami, cube4, cube4_fem):
    _, proj, _ = torus8_beltrami
    assert proj.harmonic_dimension == 3
    pz = reduce_system(cube4, cube4_fem, BoundaryCondition.zero_trace())
    projz = kernel_projector(cube4, cube4_fem, BoundaryCondition.zero_trace(), pz)
    assert projz.harmonic_dimension == 0


def test_torus_eigenvalue_benchmark(torus8_beltrami):
    # analytic oracle: curl (0, sin x, cos x) = (0, sin x, cos x) on [0,2pi]^3
    _, _, sol = torus8_beltrami
    assert abs(sol.lambdas[0]) == pytest.approx(1.0, abs=0.06)
    assert sol.residuals.max() <= 1e-8


def test_rayleigh_identity(torus8_beltrami):
    _, _, sol = torus8_beltrami
    assert np.abs(sol.helicities / sol.energies - sol.lambdas).max() <= 1e-12 * np.abs(
        sol.lambdas
    ).max()


def test_divergence_constraint(torus8_beltrami, torus3_8, torus3_8_fem):
    _, _, sol = torus8_beltrami
    for i in range(sol.cochains.shape[1]):
        h = sol.cochains[:, i]
        div = np.linalg.norm(torus3_8.D0.T @ (torus3_8_fem.M1 @ h))
        assert div <= 1e-10 * np.linalg.norm(torus3_8_fem.M1 @ h)


def test_eigenvector_m_orthogonality(torus8_beltrami):
    pen, _, sol = torus8_beltrami
    X = sol.dof_vectors
    G = X.T @ (pen.M1 @ X)
    lam = sol.lambdas
    for i in range(len(lam)):
        for j in range(i):
            if abs(lam[i] - lam[j]) > 1e-6:
                assert abs(G[i, j]) <= 1e-8


def test_spectrum_sign_symmetry(torus8_beltrami):
    """Central inversion through a cell center reverses orientation, so the
    discrete spectrum is symmetric under lambda -> -lambda."""
    pen, proj, sol = torus8_beltrami
    neg = smallest_beltrami(pen, proj, k=2, tol=1e-8, shift=-default_shift(pen.complex))
    assert neg.lambdas[0] == pytest.approx(-sol.lambdas[0], abs=1e-8)


def _solid_torus_338():
    return gen_grid(GridSpec(3, 3, 8, 1.0, 1.0, 3.0, periodic=(False, False, True)))


def test_sign_tie_goes_to_shift_side():
    """The closed-trace solid torus has both +-1.7949518 in its Ritz set;
    the tie rule, not rounding, picks the one on the shift's side."""
    cx = _solid_torus_338()
    fem = build_fem(cx)
    bc = BoundaryCondition.closed_trace(1)
    pen = reduce_system(cx, fem, bc)
    proj = kernel_projector(cx, fem, bc, pen)
    for sign in (1.0, -1.0):
        sol = smallest_beltrami(pen, proj, k=1, tol=1e-8, shift=sign * default_shift(cx))
        assert sol.lambdas[0] == pytest.approx(sign * 1.7949518, rel=1e-7)


DENSE_CASES = {
    "torus3-3": (
        lambda: gen_grid(GridSpec(3, 3, 3, TAU, TAU, TAU, periodic=(True, True, True))),
        BoundaryCondition.closed_mesh(),
    ),
    "box-ring-zero-trace": (lambda: gen_box_minus_ring(5), BoundaryCondition.zero_trace()),
    "box-ring-closed-trace-0": (lambda: gen_box_minus_ring(5), BoundaryCondition.closed_trace(0)),
    "box-ring-closed-trace-1": (lambda: gen_box_minus_ring(5), BoundaryCondition.closed_trace(1)),
    "solid-torus-closed-trace-1": (_solid_torus_338, BoundaryCondition.closed_trace(1)),
    "cube-zero-trace": (lambda: gen_grid(GridSpec(3, 3, 3)), BoundaryCondition.zero_trace()),
}


@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_matches_dense_spectrum(case):
    """Every returned lambda is an eigenvalue of the dense pencil, and the
    first is the nonzero one of least magnitude on the shift's side."""
    make, bc = DENSE_CASES[case]
    cx = make()
    fem = build_fem(cx)
    pen = reduce_system(cx, fem, bc)
    proj = kernel_projector(cx, fem, bc, pen)
    dense = sla.eigh(pen.S.toarray(), pen.M1.toarray(), eigvals_only=True)
    nonzero = dense[np.abs(dense) > 1e-6 * np.abs(dense).max()]
    for sign, side in ((1.0, nonzero[nonzero > 0]), (-1.0, nonzero[nonzero < 0])):
        sol = smallest_beltrami(pen, proj, k=2, tol=1e-8, shift=sign * default_shift(cx))
        for lam in sol.lambdas:
            assert np.abs(dense - lam).min() <= 1e-9 * abs(lam)
        assert sol.lambdas[0] == pytest.approx(side[np.argmin(np.abs(side))], rel=1e-9)


def test_eigenvalue_scaling():
    """Scaling the mesh by s divides every eigenvalue by s, exactly."""
    sols = []
    for s in (1.0, 2.0):
        L = TAU * s
        cx = gen_grid(GridSpec(6, 6, 6, L, L, L, periodic=(True, True, True)))
        fem = build_fem(cx)
        bc = BoundaryCondition.closed_mesh()
        pen = reduce_system(cx, fem, bc)
        proj = kernel_projector(cx, fem, bc, pen)
        sols.append(smallest_beltrami(pen, proj, k=1, tol=1e-8))
    assert sols[1].lambdas[0] * 2.0 == pytest.approx(sols[0].lambdas[0], rel=1e-9)


def test_residual_report(torus8_beltrami, torus3_8_fem):
    _, _, sol = torus8_beltrami
    report = residual_report(sol, torus3_8_fem)
    for d in report:
        assert d.helicity_over_energy == pytest.approx(d.lam, rel=1e-10)
        assert d.eigen_residual <= 1e-8
        assert d.div_full <= 1e-9
    # strong-form proxy residual is a discretization-level quantity (O(h))
    assert report[0].proxy_curl_residual < 1.0


def test_proxy_residual_tightens_under_refinement(torus8_beltrami):
    _, _, sol8 = torus8_beltrami
    cx = gen_grid(GridSpec(12, 12, 12, TAU, TAU, TAU, periodic=(True, True, True)))
    fem = build_fem(cx)
    bc = BoundaryCondition.closed_mesh()
    pen = reduce_system(cx, fem, bc)
    proj = kernel_projector(cx, fem, bc, pen)
    sol12 = smallest_beltrami(pen, proj, k=1, tol=1e-8)
    r8 = residual_report(sol8, sol8.pencil.fem)[0].proxy_curl_residual
    r12 = residual_report(sol12, fem)[0].proxy_curl_residual
    assert r12 < r8


def test_cluster_align_is_eigenvector(torus8_beltrami, torus3_8):
    pen, _, sol = torus8_beltrami

    def v(P):
        z = np.zeros(len(P))
        return np.column_stack([z, np.sin(P[:, 0]), np.cos(P[:, 0])])

    target = edge_interpolant(torus3_8, v)
    h = cluster_align(sol, target)
    x = pen.full_to_dof(h)
    lam = x @ (pen.S @ x) / (x @ (pen.M1 @ x))
    resid = np.linalg.norm(pen.S @ x - lam * (pen.M1 @ x))
    assert lam == pytest.approx(sol.lambdas[0], rel=1e-9)
    assert resid <= 1e-10


def test_helicity_gauge_invariance(torus3_coarse, torus3_coarse_fem):
    from fieldtopo.analysis import helicity

    rng = np.random.default_rng(6)
    h = rng.standard_normal(torus3_coarse.num_edges)
    base = helicity(torus3_coarse_fem, h)
    for _ in range(20):
        phi = rng.standard_normal(torus3_coarse.num_vertices)
        shifted = helicity(torus3_coarse_fem, h + torus3_coarse.D0 @ phi)
        assert shifted == pytest.approx(base, rel=1e-10)


def test_helicity_of_gradient_is_zero(torus3_coarse, torus3_coarse_fem):
    from fieldtopo.analysis import helicity

    rng = np.random.default_rng(8)
    g = torus3_coarse.D0 @ rng.standard_normal(torus3_coarse.num_vertices)
    assert abs(helicity(torus3_coarse_fem, g)) <= 1e-10


def test_bc_describe():
    assert BoundaryCondition.closed_mesh().describe() == "closed-mesh"
    assert BoundaryCondition.zero_trace().kind is BCKind.ZERO_TRACE
    assert BoundaryCondition.closed_trace(0, 2).describe() == "closed-trace:0,2"

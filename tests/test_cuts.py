import dataclasses

import numpy as np
import pytest

from fieldtopo.cuts import (
    choose_level,
    critical_scan,
    extract_cut,
    harmonic_representative,
    verify_cut,
)
from fieldtopo.errors import NoGap, NonRegularLevel, SolverFailure
from fieldtopo.fem import build_fem
from fieldtopo.generators import gen_box_minus_ring
from fieldtopo.homology import h1_basis
from fieldtopo.mesh import build_complex
from fields import boundary_edge_faces


@pytest.fixture(scope="module")
def st_basis(solid_torus):
    return h1_basis(solid_torus)


@pytest.fixture(scope="module")
def st_rep(solid_torus, solid_torus_fem, st_basis):
    return harmonic_representative(solid_torus, solid_torus_fem, st_basis.cocycles[0])


def test_zero_cocycle_gives_zero(solid_torus, solid_torus_fem):
    rep = harmonic_representative(
        solid_torus, solid_torus_fem, np.zeros(solid_torus.num_edges, dtype=np.int64)
    )
    assert np.abs(rep.omega).max() == 0.0


def test_exact_cocycle_gives_zero(solid_torus, solid_torus_fem):
    psi = (np.arange(solid_torus.num_vertices) % 5).astype(np.int64)
    rep = harmonic_representative(solid_torus, solid_torus_fem, solid_torus.D0 @ psi)
    assert np.abs(rep.omega).max() < 1e-10


def test_harmonic_rep_period_and_coclosure(solid_torus, st_basis, st_rep):
    assert st_rep.coclosure_residual <= 1e-10
    period = st_rep.omega @ st_basis.dual_cycles[0]
    assert period == pytest.approx(1.0, abs=1e-9)


def test_rejects_non_closed_source(solid_torus, solid_torus_fem):
    c = np.zeros(solid_torus.num_edges)
    c[0] = 1.0  # a single edge is not closed on this mesh
    if np.abs(solid_torus.D1 @ c).max() == 0:
        pytest.skip("edge happened to be closed")
    with pytest.raises(ValueError):
        harmonic_representative(solid_torus, solid_torus_fem, c)


def test_choose_level_two_phases():
    assert choose_level(np.array([0.0, 0.5])) == pytest.approx(0.25)


def test_choose_level_single_phase():
    assert choose_level(np.array([0.3])) == pytest.approx(0.8)


def test_choose_level_dense_phases_raise(monkeypatch):
    import fieldtopo.cuts as cuts

    # lower the clearance so a coarse phase set already counts as dense
    monkeypatch.setattr(cuts, "VERTEX_CLEARANCE", 0.2)
    with pytest.raises(NoGap):
        choose_level(np.array([0.0, 0.25, 0.5, 0.75]))


def test_choose_level_gap_bound(st_rep, solid_torus):
    theta0 = choose_level(st_rep.vertex_phases())
    phases = np.mod(st_rep.vertex_phases(), 1.0)
    d = np.abs(phases - theta0)
    d = np.minimum(d, 1 - d)
    assert d.min() >= 0.5 / solid_torus.num_vertices


def test_solid_torus_cut_is_disk(solid_torus, st_rep, st_basis):
    cut = extract_cut(solid_torus, st_rep, choose_level(st_rep.vertex_phases()))
    cut.validate_manifold()
    assert cut.num_components() == 1
    assert cut.euler_characteristic() == 1  # meridian disk
    assert len(cut.boundary_edges) > 0
    assert np.array_equal(verify_cut(solid_torus, cut, st_basis), [1])


def test_cut_boundary_edges_on_boundary_faces(solid_torus, st_rep):
    cut = extract_cut(solid_torus, st_rep, choose_level(st_rep.vertex_phases()))
    bfaces = set(int(f) for f in solid_torus.boundary_faces)
    assert boundary_edge_faces(solid_torus, cut) <= bfaces


def test_zero_omega_empty_surface(solid_torus, solid_torus_fem):
    rep = harmonic_representative(
        solid_torus, solid_torus_fem, np.zeros(solid_torus.num_edges, dtype=np.int64)
    )
    cut = extract_cut(solid_torus, rep, 0.5)
    assert cut.num_triangles == 0


def test_nonregular_level_rejected(st_rep, solid_torus):
    phases = np.mod(st_rep.vertex_phases(), 1.0)
    with pytest.raises(NonRegularLevel):
        extract_cut(solid_torus, st_rep, float(phases[3]))


def test_crossing_vector_level_independent(solid_torus, st_rep, st_basis):
    l1 = choose_level(st_rep.vertex_phases())
    l2 = (l1 + 0.37) % 1.0
    c1 = verify_cut(solid_torus, extract_cut(solid_torus, st_rep, l1), st_basis)
    c2 = verify_cut(solid_torus, extract_cut(solid_torus, st_rep, l2), st_basis)
    assert np.array_equal(c1, c2)


def test_crossing_vector_representative_independent(
    solid_torus, solid_torus_fem, st_basis
):
    rng = np.random.default_rng(4)
    psi = rng.integers(-3, 4, size=solid_torus.num_vertices)
    shifted = st_basis.cocycles[0] + solid_torus.D0 @ psi
    rep = harmonic_representative(solid_torus, solid_torus_fem, shifted)
    cut = extract_cut(solid_torus, rep, choose_level(rep.vertex_phases()))
    assert np.array_equal(verify_cut(solid_torus, cut, st_basis), [1])


def test_torus3_crossings_identity(torus3_coarse, torus3_coarse_fem):
    basis = h1_basis(torus3_coarse)
    for j in range(3):
        rep = harmonic_representative(
            torus3_coarse, torus3_coarse_fem, basis.cocycles[j]
        )
        cut = extract_cut(torus3_coarse, rep, choose_level(rep.vertex_phases()))
        cut.validate_manifold()
        crossings = verify_cut(torus3_coarse, cut, basis)
        expect = np.zeros(3, dtype=np.int64)
        expect[j] = 1
        assert np.array_equal(crossings, expect)
        # a closed slice of the 3-torus: no boundary edges
        assert len(cut.boundary_edges) == 0


def test_box_ring_cut(box_ring, box_ring_fem):
    basis = h1_basis(box_ring)
    rep = harmonic_representative(box_ring, box_ring_fem, basis.cocycles[0])
    cut = extract_cut(box_ring, rep, choose_level(rep.vertex_phases()))
    cut.validate_manifold()
    assert cut.num_components() == 1
    assert len(cut.boundary_edges) > 0
    assert np.array_equal(verify_cut(box_ring, cut, basis), [1])
    # all claimed boundary polygon edges lie on the mesh boundary
    bfaces = set(int(f) for f in box_ring.boundary_faces)
    assert boundary_edge_faces(box_ring, cut) <= bfaces


@pytest.fixture(scope="module")
def jittered_ring_rep():
    """Class-0 harmonic representative on a box-ring n=7 with jittered
    vertices: no seam data and no grid-aligned phases."""
    grid = gen_box_minus_ring(7)
    rng = np.random.default_rng(0)
    verts = grid.vertices + rng.uniform(-0.15 / 7, 0.15 / 7, grid.vertices.shape)
    cx = build_complex(verts, grid.tets)
    basis = h1_basis(cx)
    return cx, basis, harmonic_representative(cx, build_fem(cx), basis.cocycles[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cut_keys_independent_of_phase_lift(jittered_ring_rep, seed):
    """Phases are defined mod 1, so adding an integer per vertex is another
    lift of the same circle map.  Large shifts move the per-tet unwrapped
    phases far from the level, where rounding the edge parameter gave the
    same point different keys in different tets."""
    cx, basis, rep = jittered_ring_rep
    shift = np.random.default_rng(seed).integers(-(10**6), 10**6, cx.num_vertices)
    lifted = dataclasses.replace(rep)
    phases = rep.vertex_phases() + shift
    lifted.vertex_phases = lambda: phases
    for level in (0.02, 0.05, 0.95, 0.98):
        ref = extract_cut(cx, rep, level)
        cut = extract_cut(cx, lifted, level)
        assert np.array_equal(verify_cut(cx, cut, basis), [1])
        assert cut.num_triangles == ref.num_triangles
        assert cut.euler_characteristic() == ref.euler_characteristic()
        assert cut.num_components() == ref.num_components()


def test_critical_scan_certificate(solid_torus, st_rep):
    assert len(critical_scan(solid_torus, st_rep)) == 0


def test_critical_scan_flags_plateau_saddle(cube4, cube4_fem):
    """A potential flat on an interior plateau and saddle-like around it."""
    v = cube4.vertices

    def ramp(t):
        return np.maximum(np.abs(t - 0.5) - 0.25, 0.0) ** 2

    phi = ramp(v[:, 0]) - ramp(v[:, 1])
    from fieldtopo.cuts import HarmonicRep

    omega = cube4.D0 @ phi
    rep = HarmonicRep(
        complex=cube4,
        source_cocycle=np.zeros(cube4.num_edges, dtype=np.int64),
        phi=phi,
        omega=omega,
        coclosure_residual=0.0,
    )
    flagged = critical_scan(cube4, rep)
    assert len(flagged) > 0


def test_critical_scan_zero_field_flags_all(solid_torus, solid_torus_fem):
    rep = harmonic_representative(
        solid_torus, solid_torus_fem, np.zeros(solid_torus.num_edges, dtype=np.int64)
    )
    assert len(critical_scan(solid_torus, rep)) == solid_torus.num_tets


def test_coclosure_failure_raises(solid_torus, solid_torus_fem, st_basis, monkeypatch):
    import scipy.sparse.linalg as spla

    def bad_solve(*args, **kwargs):
        return np.zeros(args[1].shape[0])

    monkeypatch.setattr(spla, "spsolve", bad_solve)
    with pytest.raises(SolverFailure):
        harmonic_representative(solid_torus, solid_torus_fem, st_basis.cocycles[0])

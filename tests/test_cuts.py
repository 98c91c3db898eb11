import dataclasses

import numpy as np
import pytest

from fieldtopo.cuts import (
    HarmonicRep,
    choose_level,
    critical_scan,
    extract_cut,
    harmonic_representative,
    verify_cut,
)
from fieldtopo.errors import NoGap, NonManifoldCut, NonRegularLevel, SolverFailure
from fieldtopo.generators import gen_box_minus_ring
from fieldtopo.homology import h1_basis
from fieldtopo.mesh import build_complex
from fields import boundary_edge_faces, reference_cut


@pytest.fixture(scope="module")
def st_basis(solid_torus):
    return h1_basis(solid_torus)


@pytest.fixture(scope="module")
def st_rep(solid_torus, st_basis):
    return harmonic_representative(solid_torus, st_basis.cocycles[0])


def test_zero_cocycle_gives_zero(solid_torus):
    rep = harmonic_representative(
        solid_torus, np.zeros(solid_torus.num_edges, dtype=np.int64)
    )
    assert np.abs(rep.omega).max() == 0.0


def test_exact_cocycle_gives_zero(solid_torus):
    psi = (np.arange(solid_torus.num_vertices) % 5).astype(np.int64)
    rep = harmonic_representative(solid_torus, solid_torus.D0 @ psi)
    assert np.abs(rep.omega).max() < 1e-10


def test_harmonic_rep_period_and_coclosure(solid_torus, st_basis, st_rep):
    assert st_rep.coclosure_residual <= 1e-10
    period = st_rep.omega @ st_basis.dual_cycles[0]
    assert period == pytest.approx(1.0, abs=1e-9)


def test_rejects_non_closed_source(solid_torus):
    c = np.zeros(solid_torus.num_edges)
    c[0] = 1.0  # a single edge is not closed on this mesh
    if np.abs(solid_torus.D1 @ c).max() == 0:
        pytest.skip("edge happened to be closed")
    with pytest.raises(ValueError):
        harmonic_representative(solid_torus, c)


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
    cut = extract_cut(st_rep, choose_level(st_rep.vertex_phases()))
    cut.validate_manifold()
    assert cut.num_components() == 1
    assert cut.euler_characteristic() == 1  # meridian disk
    assert len(cut.boundary_edges) > 0
    assert np.array_equal(verify_cut(solid_torus, cut, st_basis), [1])


def test_cut_boundary_edges_on_boundary_faces(solid_torus, st_rep):
    cut = extract_cut(st_rep, choose_level(st_rep.vertex_phases()))
    bfaces = set(int(f) for f in solid_torus.boundary_faces)
    assert boundary_edge_faces(solid_torus, cut) <= bfaces


def test_zero_omega_empty_surface(solid_torus):
    rep = harmonic_representative(
        solid_torus, np.zeros(solid_torus.num_edges, dtype=np.int64)
    )
    cut = extract_cut(rep, 0.5)
    assert cut.num_triangles == 0


def test_nonregular_level_rejected(st_rep, solid_torus):
    phases = np.mod(st_rep.vertex_phases(), 1.0)
    with pytest.raises(NonRegularLevel):
        extract_cut(st_rep, float(phases[3]))


def test_crossing_vector_level_independent(solid_torus, st_rep, st_basis):
    l1 = choose_level(st_rep.vertex_phases())
    l2 = (l1 + 0.37) % 1.0
    c1 = verify_cut(solid_torus, extract_cut(st_rep, l1), st_basis)
    c2 = verify_cut(solid_torus, extract_cut(st_rep, l2), st_basis)
    assert np.array_equal(c1, c2)


def test_crossing_vector_representative_independent(
    solid_torus, st_basis
):
    rng = np.random.default_rng(4)
    psi = rng.integers(-3, 4, size=solid_torus.num_vertices)
    shifted = st_basis.cocycles[0] + solid_torus.D0 @ psi
    rep = harmonic_representative(solid_torus, shifted)
    cut = extract_cut(rep, choose_level(rep.vertex_phases()))
    assert np.array_equal(verify_cut(solid_torus, cut, st_basis), [1])


def test_torus3_crossings_identity(torus3_coarse):
    basis = h1_basis(torus3_coarse)
    for j in range(3):
        rep = harmonic_representative(
            torus3_coarse, basis.cocycles[j]
        )
        cut = extract_cut(rep, choose_level(rep.vertex_phases()))
        cut.validate_manifold()
        crossings = verify_cut(torus3_coarse, cut, basis)
        expect = np.zeros(3, dtype=np.int64)
        expect[j] = 1
        assert np.array_equal(crossings, expect)
        # a closed slice of the 3-torus: no boundary edges
        assert len(cut.boundary_edges) == 0


def test_box_ring_cut(box_ring):
    basis = h1_basis(box_ring)
    rep = harmonic_representative(box_ring, basis.cocycles[0])
    cut = extract_cut(rep, choose_level(rep.vertex_phases()))
    cut.validate_manifold()
    assert cut.num_components() == 1
    assert len(cut.boundary_edges) > 0
    assert np.array_equal(verify_cut(box_ring, cut, basis), [1])
    # all claimed boundary polygon edges lie on the mesh boundary
    bfaces = set(int(f) for f in box_ring.boundary_faces)
    assert boundary_edge_faces(box_ring, cut) <= bfaces


SKEW_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [0.1, 0.4, 1.3]])


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [1, 0, 2, 3]])
@pytest.mark.parametrize("above", range(1, 15))
def test_single_tet_slice(above, order):
    """Each of the 14 patterns of vertices above the level, on one skewed tet
    given in either orientation: a triangle or a quad split in two, facing up
    the phase gradient, bounded by the tet's faces."""
    cx = build_complex(SKEW_TET, [order])
    bits = (above >> np.arange(4)) & 1
    phases = 0.4 * bits + 0.01 * np.arange(4)
    rep = HarmonicRep(
        complex=cx,
        omega=cx.D0 @ phases,
        coclosure_residual=0.0,
    )
    # vertex phases are integrated from vertex 0, so shift the level with them
    cut = extract_cut(rep, (0.2 - phases[0]) % 1.0)

    num_cut = int(np.sum(bits[cx.edges[:, 0]] != bits[cx.edges[:, 1]]))
    assert num_cut in (3, 4)
    assert len(cut.keys) == num_cut
    assert cut.num_triangles == num_cut - 2
    corners = cut.points[cut.triangles]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    gradient = np.linalg.solve(SKEW_TET[1:] - SKEW_TET[0], phases[1:] - phases[0])
    assert np.all(normals @ gradient > 0)
    tri = cut.corner_vertex[cut.triangles]
    sides = np.sort(np.stack([tri, np.roll(tri, -1, axis=1)], axis=2), axis=2).reshape(-1, 2)
    edges, uses = np.unique(sides, axis=0, return_counts=True)
    assert sorted(uses) == [1] * num_cut + [2] * (num_cut - 3)  # the quad's diagonal
    assert np.array_equal(cut.boundary_edges, edges[uses == 1])
    assert cut.euler_characteristic() == 1
    assert cut.num_components() == 1
    cut.validate_manifold()


@pytest.mark.parametrize("defect", ["drop", "flip"])
def test_verify_cut_rejects_broken_surface(defect):
    """Dropping a triangle opens a hole at interior polygon edges; flipping
    one makes its neighbours traverse shared edges the same way."""
    cx = gen_box_minus_ring(7)
    basis = h1_basis(cx)
    rep = harmonic_representative(cx, basis.cocycles[0])
    cut = extract_cut(rep, choose_level(rep.vertex_phases()))
    assert np.array_equal(verify_cut(cx, cut, basis), [1])
    # a triangle with a side off dM
    tri = cut.corner_vertex[cut.triangles]
    sides = np.sort(np.stack([tri, np.roll(tri, -1, axis=1)], axis=2), axis=2)
    on_dM = (sides[:, :, None] == cut.boundary_edges[None, None]).all(axis=3).any(axis=2)
    k = np.flatnonzero(~on_dM.all(axis=1))[0]
    if defect == "drop":
        keep = np.arange(cut.num_triangles) != k
        broken = dataclasses.replace(cut, triangles=cut.triangles[keep], source_tet=cut.source_tet[keep])
    else:
        triangles = cut.triangles.copy()
        triangles[k] = triangles[k, [0, 2, 1]]
        broken = dataclasses.replace(cut, triangles=triangles)
    with pytest.raises(NonManifoldCut):
        verify_cut(cx, broken, basis)


@pytest.fixture(scope="module")
def jittered_ring_rep():
    """Class-0 harmonic representative on a box-ring n=7 with jittered
    vertices: no seam data and no grid-aligned phases."""
    grid = gen_box_minus_ring(7)
    rng = np.random.default_rng(0)
    verts = grid.vertices + rng.uniform(-0.15 / 7, 0.15 / 7, grid.vertices.shape)
    cx = build_complex(verts, grid.tets)
    basis = h1_basis(cx)
    return cx, basis, harmonic_representative(cx, basis.cocycles[0])


@pytest.mark.parametrize("mesh", ["solid_torus", "box_ring", "torus3_coarse", "jittered_lifted"])
def test_extract_cut_matches_per_tet_reference(request, mesh):
    """The table-driven slicer reproduces the per-tet loop bit for bit."""
    if mesh == "jittered_lifted":
        cx, _, rep = request.getfixturevalue("jittered_ring_rep")
        shift = np.random.default_rng(5).integers(-(10**6), 10**6, cx.num_vertices)
        phases = rep.vertex_phases() + shift
        rep = dataclasses.replace(rep)
        rep.vertex_phases = lambda: phases
    else:
        cx = request.getfixturevalue(mesh)
        basis = h1_basis(cx)
        rep = harmonic_representative(cx, basis.cocycles[basis.rank - 1])
    auto = choose_level(rep.vertex_phases())
    for level in (auto, (auto + 0.37) % 1.0):
        cut = extract_cut(rep, level)
        ref = reference_cut(cx, rep, level)
        assert cut.num_triangles > 0
        assert cut.points.tobytes() == ref["points"].tobytes()
        assert np.array_equal(cut.triangles, ref["triangles"])
        assert np.array_equal(cut.source_tet, ref["source_tet"])
        assert cut.keys[cut.corner_vertex].tolist() == [list(k) for k in ref["corner_keys"]]
        assert dict(zip(map(tuple, cut.keys.tolist()), cut.crossing_sign.tolist())) == ref["crossing"]
        pairs = [tuple(map(tuple, e)) for e in cut.keys[cut.boundary_edges].tolist()]
        assert pairs == ref["boundary_edges"]


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
        ref = extract_cut(rep, level)
        cut = extract_cut(lifted, level)
        assert np.array_equal(verify_cut(cx, cut, basis), [1])
        assert cut.num_triangles == ref.num_triangles
        assert cut.euler_characteristic() == ref.euler_characteristic()
        assert cut.num_components() == ref.num_components()


def test_critical_scan_certificate(solid_torus, st_rep):
    assert len(critical_scan(st_rep)) == 0


def test_critical_scan_flags_plateau_saddle(cube4):
    """A potential flat on an interior plateau and saddle-like around it."""
    v = cube4.vertices

    def ramp(t):
        return np.maximum(np.abs(t - 0.5) - 0.25, 0.0) ** 2

    phi = ramp(v[:, 0]) - ramp(v[:, 1])
    omega = cube4.D0 @ phi
    rep = HarmonicRep(
        complex=cube4,
        omega=omega,
        coclosure_residual=0.0,
    )
    flagged = critical_scan(rep)
    assert len(flagged) > 0


def test_critical_scan_zero_field_flags_all(solid_torus):
    rep = harmonic_representative(
        solid_torus, np.zeros(solid_torus.num_edges, dtype=np.int64)
    )
    assert len(critical_scan(rep)) == solid_torus.num_tets


def test_coclosure_failure_raises(solid_torus, st_basis, monkeypatch):
    import scipy.sparse.linalg as spla

    def bad_solve(*args, **kwargs):
        return np.zeros(args[1].shape[0])

    monkeypatch.setattr(spla, "spsolve", bad_solve)
    with pytest.raises(SolverFailure):
        harmonic_representative(solid_torus, st_basis.cocycles[0])

import warnings
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldtopo.beltrami as beltrami
import fieldtopo.homology as homology
import fieldtopo.snf as snf
import fieldtopo.surface as surface
from fieldtopo import cli
from fieldtopo.errors import TrivialH1
from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid
from fieldtopo.homology import (
    betti_numbers,
    dual_loops,
    h1_basis,
    h1_cocycles_auto,
    relative_betti,
    surface_h1_basis,
    tree_gauge_cocycles,
)
from fieldtopo.mesh import build_complex
from fieldtopo.surface import boundary_surface

KNOWN = [
    ("cube", GridSpec(2, 2, 2), (1, 0, 0, 0), (0, 0, 0, 1)),
    ("solid torus", GridSpec(2, 2, 4, periodic=(False, False, True)), (1, 1, 0, 0), (0, 0, 1, 1)),
    ("T2xI", GridSpec(3, 3, 2, periodic=(True, True, False)), (1, 2, 1, 0), (0, 1, 2, 1)),
    ("torus3", GridSpec(3, 3, 3, periodic=(True, True, True)), (1, 3, 3, 1), (1, 3, 3, 1)),
]


@pytest.mark.parametrize("name,spec,absolute,relative", KNOWN)
def test_betti_tables(name, spec, absolute, relative):
    cx = gen_grid(spec)
    b = betti_numbers(cx)
    r = relative_betti(cx)
    assert b.betti == absolute
    assert r.betti == relative
    assert b.torsion_free and r.torsion_free
    assert b.exact


def test_box_ring_betti(box_ring):
    assert betti_numbers(box_ring).betti == (1, 1, 1, 0)
    assert relative_betti(box_ring).betti == (0, 1, 1, 1)


@pytest.mark.parametrize("name,spec,absolute,relative", KNOWN)
def test_lefschetz_duality(name, spec, absolute, relative):
    cx = gen_grid(spec)
    b = betti_numbers(cx).betti
    r = relative_betti(cx).betti
    for k in range(4):
        assert b[k] == r[3 - k]


def test_euler_from_betti(box_ring):
    for cx in (gen_grid(GridSpec(2, 2, 3)), box_ring):
        b = betti_numbers(cx).betti
        assert b[0] - b[1] + b[2] - b[3] == cx.euler_characteristic


def test_h1_trivial_on_cube(cube4):
    with pytest.raises(TrivialH1):
        h1_basis(cube4)


def test_h1_solid_torus(solid_torus):
    basis = h1_basis(solid_torus)
    assert basis.rank == 1
    c = basis.cocycles[0]
    # seam construction: +-1 exactly on seam-crossing edges
    assert set(np.unique(c)) <= {-1, 0, 1}
    assert np.abs(solid_torus.D1 @ c).max() == 0
    assert np.array_equal(basis.pairing, np.eye(1, dtype=np.int64))
    # the dual loop is a closed integer chain
    z = basis.dual_cycles[0]
    assert z.dtype == np.int64
    assert not (solid_torus.D0.T @ z).any()


def test_h1_torus3(torus3_coarse):
    basis = h1_basis(torus3_coarse)
    assert basis.rank == 3
    assert np.array_equal(basis.pairing, np.eye(3, dtype=np.int64))
    for c in basis.cocycles:
        assert np.abs(torus3_coarse.D1 @ c).max() == 0


def test_h1_box_ring_tree_gauge(box_ring):
    basis = h1_basis(box_ring)
    assert basis.rank == 1
    assert np.abs(box_ring.D1 @ basis.cocycles[0]).max() == 0
    assert np.array_equal(basis.pairing, np.eye(1, dtype=np.int64))


def test_tree_gauge_matches_seam_rank(solid_torus):
    gauged = tree_gauge_cocycles(solid_torus.edges, solid_torus.D1)
    assert len(gauged) == 1
    # both constructions represent the same 1-dimensional lattice: the
    # gauged cocycle pairs +-1 with the seam basis dual loop
    basis = h1_basis(solid_torus)
    pair = int(gauged[0] @ basis.dual_cycles[0])
    assert abs(pair) == 1


def test_h1_cocycles_auto_paths(cube4, solid_torus, box_ring):
    assert h1_cocycles_auto(cube4) == []
    assert len(h1_cocycles_auto(solid_torus)) == 1
    assert len(h1_cocycles_auto(box_ring)) == 1


def test_surface_h1_torus(solid_torus):
    surf = boundary_surface(solid_torus)
    sb = surface_h1_basis(surf)
    assert sb.rank == 2
    P = np.array(
        [[surf.cup_integral(a, b) for b in sb.cocycles] for a in sb.cocycles]
    )
    assert np.array_equal(P, -P.T)
    assert abs(round(float(np.linalg.det(P)))) == 1


def test_large_mesh_topology_is_exact():
    """21.6 k faces, above the size where ranks were once taken over GF(p)."""
    cx = gen_grid(GridSpec(12, 12, 12))
    assert cx.num_faces > 20000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b, r = betti_numbers(cx), relative_betti(cx)
    assert b.exact and r.exact
    assert b.betti == (1, 0, 0, 0) and r.betti == (0, 0, 0, 1)
    assert b.torsion_free and r.torsion_free


def test_dual_loops_reject_unsaturated_basis(solid_torus):
    c = h1_cocycles_auto(solid_torus)[0]
    z = dual_loops(solid_torus.edges, [c])[0]
    assert int(c @ z) == 1
    with pytest.raises(RuntimeError, match="saturated"):
        dual_loops(solid_torus.edges, [2 * c])
    with pytest.raises(RuntimeError, match="saturated"):
        dual_loops(solid_torus.edges, [c, -c])


@lru_cache(maxsize=None)
def _relabel_source(name):
    if name == "torus3":
        return gen_grid(GridSpec(3, 3, 3, periodic=(True, True, True)))
    if name == "solid torus":
        return gen_grid(GridSpec(2, 2, 8, 1.0, 1.0, 2.0, periodic=(False, False, True)))
    return gen_box_minus_ring(5)


def _assert_dual(D0, basis):
    for z in basis.dual_cycles:
        assert not (D0.T @ z).any()
    P = [[int(c @ z) for z in basis.dual_cycles] for c in basis.cocycles]
    assert np.array_equal(P, np.eye(basis.rank, dtype=np.int64))


@pytest.mark.parametrize("name,b1", [("torus3", 3), ("solid torus", 1), ("box ring", 1)])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_topology_invariant_under_relabelling(name, b1, seed):
    """Random vertex and tet orders carry no seam data, so H^1 takes the
    tree gauge; Betti numbers, torsion, duality and dual loops must hold."""
    cx = _relabel_source(name)
    rng = np.random.default_rng(seed)
    vp = rng.permutation(cx.num_vertices)
    tp = rng.permutation(cx.num_tets)
    inv = np.argsort(vp)
    rx = build_complex(cx.vertices[vp], inv[cx.tets[tp]], cx.tet_coords[tp])
    assert "seam_crossings" not in rx.meta

    for f in (betti_numbers, relative_betti):
        assert (f(rx).betti, f(rx).torsion) == (f(cx).betti, f(cx).torsion)
    b, r = betti_numbers(rx).betti, relative_betti(rx).betti
    assert b[1] == b1
    assert all(b[k] == r[3 - k] for k in range(4))

    basis = h1_basis(rx)
    assert basis.rank == b1
    _assert_dual(rx.D0, basis)
    if len(rx.boundary_faces):
        surf = boundary_surface(rx)
        _assert_dual(rx.D0[surf.parent_edge_ids], surface_h1_basis(surf))


def test_cached_topology_returns_copies(box_ring):
    first = h1_cocycles_auto(box_ring)
    expect = first[0].copy()
    first[0][:] = 7
    assert np.array_equal(h1_cocycles_auto(box_ring)[0], expect)
    b = betti_numbers(box_ring)
    b.torsion[0].append(99)
    assert betti_numbers(box_ring).torsion[0] == []


def test_pipeline_computes_topology_once(tmp_path, monkeypatch, box_ring):
    """One absolute and one relative Betti computation, one mesh tree gauge,
    one boundary surface and one dual-loop construction per H^1 basis."""
    cx = box_ring  # the CLI builds the same n=5 mesh
    V, E, F, T = cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets
    Fs, Es = boundary_surface(cx).D1s.shape  # before extractions are counted
    snf_shapes = []
    gauge_shapes = []
    loops = []
    extractions = []
    real_snf = snf.smith_normal_form
    real_gauge = homology.tree_gauge_cocycles
    real_loops = homology.dual_loops
    real_extract = surface._extract_surface

    def counting_snf(A, *args, **kwargs):
        if sp.issparse(A):
            snf_shapes.append(A.shape)
        return real_snf(A, *args, **kwargs)

    def counting_gauge(edges, D1):
        gauge_shapes.append(D1.shape)
        return real_gauge(edges, D1)

    def counting_loops(edges, cocycles):
        out = real_loops(edges, cocycles)
        loops.append((len(edges), len(out)))
        return out

    def counting_extract(cx):
        extractions.append(cx.num_tets)
        return real_extract(cx)

    monkeypatch.setattr(snf, "smith_normal_form", counting_snf)
    monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
    monkeypatch.setattr(homology, "tree_gauge_cocycles", counting_gauge)
    monkeypatch.setattr(beltrami, "tree_gauge_cocycles", counting_gauge)
    monkeypatch.setattr(homology, "dual_loops", counting_loops)
    monkeypatch.setattr(surface, "_extract_surface", counting_extract)
    rc = cli.main(["pipeline", "--geometry", "box-ring", "--n", "5",
                   "--threads", "1", "--out", str(tmp_path)])
    assert rc == 0
    absolute = [(E, V), (F, E), (T, F)]
    assert len(snf_shapes) == 6
    assert snf_shapes[:3] == absolute
    assert all(shape not in absolute for shape in snf_shapes[3:])
    # one gauge each: the mesh, the boundary surface, and the interior edges
    # with the boundary contracted (zero-trace harmonic fields)
    assert sorted(gauge_shapes) == sorted([(F, E), (Fs, Es), (F, E - Es)])
    assert extractions == [T]
    # one call per basis: the boundary torus (2 loops), the mesh (b1 = 1)
    assert sorted(loops) == [(Es, 2), (E, 1)]

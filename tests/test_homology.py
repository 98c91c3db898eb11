import importlib.util
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldtopo.fem as fem
import fieldtopo.homology as homology
import fieldtopo.mesh as mesh
import fieldtopo.snf as snf
import fieldtopo.surface as surface
from fieldtopo import cli
from fieldtopo.errors import TrivialH1
from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid, read_msh
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
from fields import reference_kernel_basis, write_msh
from test_snf import minor_gcd_factors

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
    assert not b.flat_torsion() and not r.flat_torsion()
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
    _assert_dual(solid_torus.D0, basis)
    # the dual loop is a closed integer chain
    z = basis.dual_cycles[0]
    assert z.dtype == np.int64
    assert not (solid_torus.D0.T @ z).any()


def test_h1_torus3(torus3_coarse):
    basis = h1_basis(torus3_coarse)
    assert basis.rank == 3
    _assert_dual(torus3_coarse.D0, basis)
    for c in basis.cocycles:
        assert np.abs(torus3_coarse.D1 @ c).max() == 0


def test_h1_box_ring_tree_gauge(box_ring):
    basis = h1_basis(box_ring)
    assert basis.rank == 1
    assert np.abs(box_ring.D1 @ basis.cocycles[0]).max() == 0
    _assert_dual(box_ring.D0, basis)


def test_tree_gauge_matches_seam_rank(solid_torus):
    gauged = tree_gauge_cocycles(solid_torus.forest, solid_torus.D1)
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
    assert not b.flat_torsion() and not r.flat_torsion()


def test_dual_loops_reject_unsaturated_basis(solid_torus):
    c = h1_cocycles_auto(solid_torus)[0]
    z = dual_loops(solid_torus.edges, solid_torus.forest, [c])[0]
    assert int(c @ z) == 1
    with pytest.raises(RuntimeError, match="saturated"):
        dual_loops(solid_torus.edges, solid_torus.forest, [2 * c])
    with pytest.raises(RuntimeError, match="saturated"):
        dual_loops(solid_torus.edges, solid_torus.forest, [c, -c])


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
        assert surf.oriented
        assert sorted(surf.genus) == sorted(boundary_surface(cx).genus)
        sb = surface_h1_basis(surf)
        _assert_dual(rx.D0[surf.parent_edge_ids], sb)
        P = np.array([[surf.cup_integral(a, b) for b in sb.cocycles] for a in sb.cocycles])
        assert np.array_equal(P, -P.T)
        assert abs(round(float(np.linalg.det(P)))) == 1


def test_cached_topology_is_shared(box_ring):
    for f in (betti_numbers, relative_betti, h1_cocycles_auto, h1_basis):
        assert f(box_ring) is f(box_ring)


def test_pipeline_computes_topology_once(tmp_path, monkeypatch, box_ring):
    """One absolute and one relative Betti computation, one mesh tree gauge,
    one boundary surface, one spanning forest per graph (the mesh, whose
    edge graph is also the graph of the absolute D0, its boundary surface,
    and the graphs of the absolute D2 and of the relative D0 and D2), one
    dual-loop construction per H^1 basis and one assembly of each FEM
    matrix."""
    cx = box_ring  # the CLI builds the same n=5 mesh
    V, E, F, T = cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets
    Fs, Es = boundary_surface(cx).D1s.shape  # before extractions are counted
    snf_shapes = []
    gauge_shapes = []
    loops = []
    extractions = []
    forests, outer_forests = [], []
    assemblies = []
    real_snf = snf.smith_normal_form
    real_gauge = homology.tree_gauge_cocycles
    real_loops = homology.dual_loops
    real_extract = surface._extract_surface
    real_forest = mesh.spanning_forest

    def counting_snf(A, *args, **kwargs):
        if sp.issparse(A):
            snf_shapes.append(A.shape)
        return real_snf(A, *args, **kwargs)

    def counting_gauge(forest, D1):
        gauge_shapes.append(D1.shape)
        return real_gauge(forest, D1)

    def counting_loops(edges, forest, cocycles):
        out = real_loops(edges, forest, cocycles)
        loops.append((len(edges), len(out)))
        return out

    def counting_extract(cx):
        extractions.append(cx.num_tets)
        return real_extract(cx)

    def counting_forest(edges, num_nodes):
        forests.append(len(edges))
        return real_forest(edges, num_nodes)

    def counting_outer_forest(edges, num_nodes):
        outer_forests.append((len(edges), num_nodes))
        return real_forest(edges, num_nodes)

    def counting_assembly(assemble):
        def counted(cx):
            assemblies.append(assemble.__name__)
            return assemble(cx)
        return counted

    monkeypatch.setattr(snf, "smith_normal_form", counting_snf)
    monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
    monkeypatch.setattr(homology, "tree_gauge_cocycles", counting_gauge)
    monkeypatch.setattr(homology, "dual_loops", counting_loops)
    monkeypatch.setattr(surface, "_extract_surface", counting_extract)
    monkeypatch.setattr(mesh, "spanning_forest", counting_forest)
    monkeypatch.setattr(surface, "spanning_forest", counting_forest)
    monkeypatch.setattr(homology, "spanning_forest", counting_outer_forest)
    for name in ("mass_matrix", "curl_pairing"):
        monkeypatch.setattr(fem, name, counting_assembly(getattr(fem, name)))
    rc = cli.main(["pipeline", "--geometry", "box-ring", "--n", "5",
                   "--threads", "1", "--out", str(tmp_path)])
    assert rc == 0
    # D0 and D2 as graphs, each forest built once (the absolute D0 reads the
    # mesh's own forest, the others have a ground node); only D1 cleared by
    # their tree edges reaches a Smith form: rank D0 = V - b0 = V - 1 and
    # rank D2 = T - b3 = T absolutely; relatively (no boundary cells) rank
    # D0 = Vr - 0 and rank D2 = T - 1
    bfaces = cx.boundary_faces
    Vr = V - len(np.unique(cx.faces[bfaces]))
    Er = E - len(np.unique(cx.D1[bfaces].indices))
    Fr = F - len(bfaces)
    assert outer_forests == [(F, T + 1), (Er, Vr + 1), (Fr, T + 1)]
    assert snf_shapes == [(F - T, E - (V - 1)), (Fr - (T - 1), Er - Vr)]
    # one gauge each: the mesh and the boundary surface; the zero-trace
    # harmonic fields come from the restriction pairing, with no gauge of
    # their own
    assert sorted(gauge_shapes) == sorted([(F, E), (Fs, Es)])
    assert extractions == [T]
    assert sorted(forests) == sorted([E, Es])
    # one call per basis: the boundary torus (2 loops), the mesh (b1 = 1)
    assert sorted(loops) == [(Es, 2), (E, 1)]
    # the pencil pair is one record per complex, shared by the cut, the
    # solve and the field report
    assert assemblies == ["mass_matrix", "curl_pairing"]
    assert fem.build_fem(cx) is fem.build_fem(cx)


def simplicial_surface(triangles):
    """Boundary maps D0 (edges x vertices) and D1 (triangles x edges) of a
    2-complex, each simplex oriented by increasing vertex index."""
    tris = np.sort(np.asarray(triangles), axis=1)
    edges = np.unique(np.concatenate([tris[:, [1, 2]], tris[:, [0, 2]], tris[:, [0, 1]]]), axis=0)
    eid = {tuple(e): k for k, e in enumerate(edges.tolist())}
    D0 = np.zeros((len(edges), tris.max() + 1), dtype=np.int64)
    D0[np.arange(len(edges)), edges[:, 0]] = -1
    D0[np.arange(len(edges)), edges[:, 1]] = 1
    D1 = np.zeros((len(tris), len(edges)), dtype=np.int64)
    for f, (a, b, c) in enumerate(tris.tolist()):
        D1[f, [eid[b, c], eid[a, c], eid[a, b]]] = [1, -1, 1]
    return D0, D1


def klein_bottle_squares(a, b):
    """Boundary maps of a cellular Klein bottle: an a x b grid of squares,
    periodic in x, with (x, b) glued to (-x, 0)."""

    def vertex(x, y):
        return (-x % a) if y == b else (x % a) + a * y

    def h(x, y):  # (x, y) -> (x + 1, y)
        return (x % a) + a * y

    def v(x, y):  # (x, y) -> (x, y + 1)
        return a * b + (x % a) + a * y

    D0 = np.zeros((2 * a * b, a * b), dtype=np.int64)
    D1 = np.zeros((a * b, 2 * a * b), dtype=np.int64)
    for x in range(a):
        for y in range(b):
            square = x + a * y
            D0[h(x, y), vertex(x, y)] -= 1
            D0[h(x, y), vertex(x + 1, y)] += 1
            D0[v(x, y), vertex(x, y)] -= 1
            D0[v(x, y), vertex(x, y + 1)] += 1
            # the top side of the last row runs from (-x-1, 0) to (-x, 0)
            top = [(h(x, y + 1), -1)] if y + 1 < b else [(h(-x - 1, 0), 1)]
            for e, sign in [(h(x, y), 1), (v(x + 1, y), 1), *top, (v(x, y), -1)]:
                D1[square, e] += sign
    return D0, D1


# the 6-vertex real projective plane (hemi-icosahedron)
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def chain_betti(counts, maps):
    """``_chain_betti`` of three maps, each outer map with its own forest."""
    D0, D1, D2 = (sp.csr_matrix(D) for D in maps)
    outer = [(A, homology._incidence_forest(A)) for A in (D0, D2.T)]
    return homology._chain_betti(counts, D1, outer)


def two_complex(maps):
    """A 2-complex's maps D0 and D1 with an empty top map."""
    D0, D1 = maps
    return D0, D1, np.zeros((0, D1.shape[0]), dtype=np.int64)


def shifted_up(maps):
    """A 2-complex's maps D0 and D1 one degree up, under no vertices."""
    D0, D1 = maps
    return np.zeros((D0.shape[1], 0), dtype=np.int64), D0, D1


@pytest.mark.parametrize(
    "maps,betti,torsion",
    [
        (two_complex(simplicial_surface(RP2)), (1, 0, 0, 0), [[], [2], [], []]),
        (two_complex(klein_bottle_squares(3, 2)), (1, 1, 0, 0), [[], [2], [], []]),
        (shifted_up(simplicial_surface(RP2)), (0, 1, 0, 0), [[], [], [2], []]),
    ],
    ids=["RP2", "Klein bottle", "RP2 shifted up"],
)
def test_torsion_survives_clearing(maps, betti, torsion):
    """Surfaces as chain complexes: clearing D1 by an outer map's forest
    keeps the Z/2 of H_1, and every map agrees with the minor oracle.
    Shifted up, RP2's face map is D2, which has a column with two equal
    signs: it is no graph incidence, and its Smith form finds the Z/2."""
    D0, D1, D2 = maps
    assert not (D1 @ D0).any() and not (D2 @ D1).any()
    counts = [D0.shape[1], D0.shape[0], D1.shape[0], D2.shape[0]]
    got = chain_betti(counts, maps)
    f0, f1, f2 = (minor_gcd_factors(D) if D.size else [] for D in maps)
    r1, r2, r3 = len(f0), len(f1), len(f2)
    expect = (counts[0] - r1, counts[1] - r1 - r2, counts[2] - r2 - r3, counts[3] - r3)
    assert got.betti == expect == betti
    assert got.torsion == [[f for f in fs if f > 1] for fs in (f0, f1, f2, [])] == torsion
    for A, fs in ((D0, f0), (D2.T, f2)):
        if any(f > 1 for f in fs):  # a graph incidence has no torsion
            assert homology._incidence_forest(sp.csr_matrix(A)) is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_betti_invariant_under_cell_permutations_and_flips(seed, monkeypatch):
    """Relabel and reorient every cell of the box-ring: flipping cell i of
    dimension k negates row i of D_(k-1) and column i of D_k.  Vertex flips
    give rows of D0 with two equal signs, and tet flips such columns of D2,
    so both outer maps take the Smith fallback, and the Betti numbers hold."""
    cx = gen_box_minus_ring(5)
    rng = np.random.default_rng(seed)
    counts = [cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets]
    perm = [rng.permutation(k) for k in counts]
    flip = [sp.diags(rng.choice([-1, 1], size=k), dtype=np.int64) for k in counts]
    maps = [
        flip[k + 1] @ D[perm[k + 1]][:, perm[k]] @ flip[k]
        for k, D in enumerate((cx.D0, cx.D1, cx.D2))
    ]
    assert homology._incidence_forest(maps[0]) is None
    assert homology._incidence_forest(maps[2].T) is None
    shapes = []
    real_snf = homology.smith_normal_form

    def counting_snf(A, *args, **kwargs):
        shapes.append(A.shape)
        return real_snf(A, *args, **kwargs)

    monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
    b = chain_betti(counts, maps)
    assert shapes == [maps[0].shape, maps[2].T.shape, maps[1].shape]
    assert b.betti == (1, 1, 1, 0)
    assert b.torsion == [[], [], [], []]


def test_betti_cores_are_small(monkeypatch):
    """Structural guard: on box-ring n=5 the outer maps are graph incidences,
    so over the absolute and the relative complex ``smith_normal_form`` runs
    exactly twice, once per cleared D1, and ``_Elimination`` never sees a D0
    or a D2; each cleared D1 leaves under 5% of its columns to it."""
    cx = gen_box_minus_ring(5)
    snf_shapes, core_shapes = [], []
    real_snf, real_elimination = snf.smith_normal_form, snf._Elimination

    def counting_snf(A, *args, **kwargs):
        snf_shapes.append(A.shape)
        return real_snf(A, *args, **kwargs)

    class CountingElimination(real_elimination):
        def __init__(self, A, transform):
            if not transform:
                core_shapes.append(A.shape)
            super().__init__(A, transform)

    monkeypatch.setattr(homology, "smith_normal_form", counting_snf)
    monkeypatch.setattr(snf, "_Elimination", CountingElimination)
    assert betti_numbers(cx).betti == (1, 1, 1, 0)
    assert relative_betti(cx).betti == (0, 1, 1, 1)
    # D1 cleared by the forests, absolutely and relatively: the ranks are
    # those of test_pipeline_computes_topology_once
    V, E, F, T = cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets
    bfaces = cx.boundary_faces
    Vr = V - len(np.unique(cx.faces[bfaces]))
    Er = E - len(np.unique(cx.D1[bfaces].indices))
    Fr = F - len(bfaces)
    assert snf_shapes == [(F - T, E - (V - 1)), (Fr - (T - 1), Er - Vr)]
    assert len(core_shapes) == 2
    for (rows, cols), core in zip(snf_shapes, core_shapes):
        assert core[0] <= rows and core[1] < 0.05 * cols


def test_dense_snf_traffic(tmp_path, monkeypatch):
    """Structural guard: in a box-ring n=5 pipeline the dense Smith form
    gets only empty unit-free remainders, and transform inputs of at most
    4 x 4 (the saturated pairing of the dual loops, T' and its V), so it can
    stay plain rather than fast."""
    calls = []
    real_dense = snf._dense_snf

    def counting_dense(A, m, n, want_transforms):
        calls.append((m, n, want_transforms))
        return real_dense(A, m, n, want_transforms)

    monkeypatch.setattr(snf, "_dense_snf", counting_dense)
    argv = ["pipeline", "--geometry", "box-ring", "--n", "5", "--bc", "closed-trace:1"]
    assert cli.main(argv + ["--threads", "1", "--out", str(tmp_path)]) == 0
    remainders = [(m, n) for m, n, t in calls if not t]
    transformed = [(m, n) for m, n, t in calls if t]
    assert remainders and all(m * n == 0 for m, n in remainders)
    assert transformed and all(m <= 4 and n <= 4 for m, n in transformed)


def test_delaunay_ring_topology(tmp_path):
    """Generic connectivity: the Delaunay box minus a ring of the golden set
    (seed 1), whose H^1 basis and boundary classes go through the dense
    Smith transforms on a mesh that is not a grid."""
    golden_py = Path(__file__).parents[1] / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", golden_py)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    golden.delaunay_ring_msh(str(tmp_path / "ring.msh"), seed=1)
    cx = read_msh(tmp_path / "ring.msh")
    report = mesh.validate_complex(cx)
    assert report.failures == [] and report.boundary_genus == [0, 1]
    assert betti_numbers(cx).betti == (1, 1, 1, 0)
    assert relative_betti(cx).betti == (0, 1, 1, 1)
    basis = h1_basis(cx)
    assert [[int(c @ z) for z in basis.dual_cycles] for c in basis.cocycles] == [[1]]
    assert homology.boundary_classes(cx).restriction_pairing.tolist() == [[0, 1]]
    assert [len(homology.admitted_cocycles(cx, chosen)) for chosen in ((), (0,), (1,))] == [0, 0, 1]


@pytest.fixture(scope="module")
def box_ring7():
    return gen_box_minus_ring(7)


def _nontree(graph):
    return np.setdiff1d(np.arange(len(graph.edges)), graph.forest.tree_edges)


def _whole_kernel(graph, D1):
    """The tree gauge without the peel: the quadratic reference kernel of
    all non-tree columns."""
    nontree = _nontree(graph)
    out = []
    for vec in reference_kernel_basis(D1.tocsc()[:, nontree]):
        full = np.zeros(D1.shape[1], dtype=np.int64)
        full[nontree] = vec
        out.append(full)
    return out


def _relabelled(cx, seed):
    rng = np.random.default_rng(seed)
    vp = rng.permutation(cx.num_vertices)
    return build_complex(cx.vertices[vp], np.argsort(vp)[cx.tets], cx.tet_coords)


def _msh_round_trip(cx, tmp_path):
    path = tmp_path / "mesh.msh"
    write_msh(path, cx.vertices, cx.tets)
    return read_msh(path)


@pytest.mark.parametrize(
    "source",
    ["box ring", "box ring n=7", "relabelled box ring", "solid torus", "T2xI",
     "box ring surface", "solid torus surface", "msh box ring"],
)
def test_peeled_tree_gauge_is_the_whole_kernel(source, box_ring, box_ring7, solid_torus, tmp_path):
    """The peel only drops columns that the elimination would retire first:
    the cocycles equal those of the whole non-tree kernel, in order."""
    meshes = {
        "box ring": box_ring,
        "box ring n=7": box_ring7,
        "relabelled box ring": _relabelled(box_ring, 3),
        "solid torus": solid_torus,
        "T2xI": gen_grid(GridSpec(3, 3, 2, periodic=(True, True, False))),
        "msh box ring": _msh_round_trip(box_ring, tmp_path),
    }
    if source.endswith(" surface"):
        surf = boundary_surface(box_ring if source.startswith("box") else solid_torus)
        graph, D1 = surf, surf.D1s
    else:
        graph, D1 = meshes[source], meshes[source].D1
    got, expect = tree_gauge_cocycles(graph.forest, D1), _whole_kernel(graph, D1)
    assert len(got) == len(expect) > 0
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


def test_tree_gauge_cores_are_small(monkeypatch, box_ring7):
    """Structural guard: on box-ring n=7 the kernel elimination sees under
    10% of the non-tree columns, for the mesh and for its boundary surface."""
    shapes = []

    class RecordingElimination(snf._Elimination):
        def __init__(self, A, transform):
            if transform:
                shapes.append(A.shape)
            super().__init__(A, transform)

    monkeypatch.setattr(snf, "_Elimination", RecordingElimination)
    cx = box_ring7
    surf = boundary_surface(cx)
    assert len(tree_gauge_cocycles(cx.forest, cx.D1)) == 1
    assert len(tree_gauge_cocycles(surf.forest, surf.D1s)) == 2
    (_, mesh_core), (_, surf_core) = shapes
    assert mesh_core < 0.1 * len(_nontree(cx))
    assert surf_core < 0.1 * len(_nontree(surf))

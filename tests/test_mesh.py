import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldtopo.errors import DegenerateTet, InvalidComplex, NonManifoldFace
from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid, read_msh
from fieldtopo.mesh import (
    EDGE_LOCAL,
    FACE_LOCAL,
    _canonical_rows,
    build_complex,
    integrate_potential,
    spanning_forest,
    validate_complex,
)
from fields import cubes_glued_at_a_corner, write_msh

REF_VERTS = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_single_tet_counts():
    cx = build_complex(REF_VERTS, [[0, 1, 2, 3]])
    assert cx.num_edges == 6
    assert cx.num_faces == 4
    assert cx.euler_characteristic == 1


def test_single_tet_d2_entries():
    cx = build_complex(REF_VERTS, [[0, 1, 2, 3]])
    d2 = cx.D2.toarray()
    assert d2.shape == (1, 4)
    assert sorted(np.abs(d2).ravel()) == [1, 1, 1, 1]


def test_dd_zero_exact():
    cx = gen_grid(GridSpec(2, 3, 2))
    assert (cx.D1 @ cx.D0).count_nonzero() == 0
    assert (cx.D2 @ cx.D1).count_nonzero() == 0


def test_d0_rows():
    cx = gen_grid(GridSpec(2, 2, 2))
    d0 = cx.D0.toarray()
    assert np.all(np.sort(d0, axis=1)[:, 0] == -1)
    assert np.all(np.sort(d0, axis=1)[:, -1] == 1)
    assert np.all(d0.sum(axis=1) == 0)


def test_degenerate_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]])
    with pytest.raises(DegenerateTet):
        build_complex(verts, [[0, 1, 2, 3], [0, 1, 1, 4]])


def test_zero_volume_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    with pytest.raises(DegenerateTet):
        build_complex(verts, [[0, 1, 2, 3]])


def test_nonmanifold_face_rejected():
    # three tets glued along one common face
    verts = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    )
    with pytest.raises(NonManifoldFace):
        build_complex(verts, [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])


def test_duplicate_tets_rejected():
    with pytest.raises(ValueError):
        build_complex(REF_VERTS, [[0, 1, 2, 3], [1, 0, 3, 2]])


def test_duplicate_tets_rejected_beyond_flat_key_range():
    """Past V = 55108 a flat key of four vertex ids would overflow int64."""
    V = 60_000
    verts = np.zeros((V, 3))
    verts[-5:] = [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]]
    a, b, c, d, e = range(V - 5, V)
    # distinct tets that share their three lowest vertices
    assert build_complex(verts, [[a, b, c, d], [e, c, b, a]]).num_tets == 2
    with pytest.raises(ValueError):
        build_complex(verts, [[a, b, c, d], [e, c, b, a], [d, c, a, b]])


def rowwise_reference(tets):
    """Edges, faces, tet maps and their signs by row-wise np.unique."""
    out = {}
    for name, local in (("edge", EDGE_LOCAL), ("face", FACE_LOCAL)):
        raw = tets[:, local].reshape(-1, local.shape[1])
        rows, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
        inversions = sum(raw[:, i] > raw[:, j] for i, j in itertools.combinations(range(raw.shape[1]), 2))
        out[f"{name}s"] = rows
        out[f"tet_to_{name}"] = inverse.reshape(len(tets), -1)
        out[f"tet_{name}_sign"] = (1 - 2 * (inversions % 2)).reshape(len(tets), -1)
    return out


def relabelled_torus3(_tmp_path):
    cx = gen_grid(GridSpec(4, 4, 4, periodic=(True, True, True)))
    perm = np.random.default_rng(3).permutation(cx.num_vertices)
    verts = np.empty_like(cx.vertices)
    verts[perm] = cx.vertices
    return build_complex(verts, perm[cx.tets], cx.tet_coords)


def msh_round_trip(tmp_path):
    cx = gen_box_minus_ring(5)
    tets = np.random.default_rng(5).permutation(cx.tets)[:, [2, 0, 1, 3]]
    write_msh(tmp_path / "box-ring.msh", cx.vertices, tets)
    return read_msh(tmp_path / "box-ring.msh")


@pytest.mark.parametrize(
    "make",
    [relabelled_torus3, lambda _: gen_box_minus_ring(5), msh_round_trip],
    ids=["relabelled-torus3", "box-ring", "msh-round-trip"],
)
def test_flat_keys_match_rowwise_unique(make, tmp_path):
    """Flat int64 keys give the canonical edges and faces byte for byte."""
    cx = make(tmp_path)
    for name, want in rowwise_reference(cx.tets).items():
        got = getattr(cx, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_canonical_rows_beyond_flat_key_range():
    """Past V = 2097151 a face key overflows int64; rows sort row-wise."""
    V = 3_000_000
    rng = np.random.default_rng(1)
    rows = rng.integers(0, V, size=(100, 3))[rng.integers(0, 100, size=300)]
    rows = rng.permuted(rows, axis=1)
    got, inverse = _canonical_rows(rows, V)
    want, want_inverse = np.unique(np.sort(rows, axis=1), axis=0, return_inverse=True)
    assert np.array_equal(got, want)
    assert np.array_equal(inverse.ravel(), want_inverse.ravel())


def test_negative_orientation_fixed():
    cx = build_complex(REF_VERTS, [[1, 0, 2, 3]])
    assert cx.volumes()[0] > 0
    assert not validate_complex(cx).failures


def test_reorientation_invariance():
    """Swapping the input order of any tet leaves all checks passing."""
    spec = GridSpec(2, 2, 2)
    cx = gen_grid(spec)
    tets = cx.tets.copy()
    tets[5, [0, 1]] = tets[5, [1, 0]]
    cx2 = build_complex(cx.vertices, tets)
    r = validate_complex(cx2)
    assert not r.failures
    assert (cx2.D1 @ cx2.D0).count_nonzero() == 0


def test_deterministic_rebuild():
    spec = GridSpec(2, 2, 3)
    a = gen_grid(spec)
    b = gen_grid(spec)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.faces, b.faces)
    assert (a.D0 != b.D0).nnz == 0
    assert (a.D1 != b.D1).nnz == 0
    assert (a.D2 != b.D2).nnz == 0


def test_validate_cube_passes():
    cx = gen_grid(GridSpec(2, 2, 2))
    r = validate_complex(cx)
    assert not r.failures
    assert cx.euler_characteristic == 1
    assert r.boundary_components == 1
    assert r.boundary_genus == [0]


def test_validate_flags_corrupted_d1():
    cx = gen_grid(GridSpec(2, 2, 2))
    bad = cx.D1.tolil()
    bad[0, 0] += 1
    cx.D1 = bad.tocsr()
    r = validate_complex(cx)
    assert r.failures
    assert any("D2@D1" in f or "D1@D0" in f for f in r.failures)
    with pytest.raises(InvalidComplex):
        r.raise_if_failed()


def test_validate_flags_pinched_vertex():
    """Two tets sharing only a vertex: its link is two triangles."""
    verts = np.vstack([REF_VERTS, -REF_VERTS[1:]])
    r = validate_complex(build_complex(verts, [[0, 1, 2, 3], [0, 4, 5, 6]]))
    assert r.failures == ["vertex links not a sphere or disk at vertices [0]"]
    with pytest.raises(InvalidComplex):
        r.raise_if_failed()


def test_validate_flags_pinched_edge():
    """Two tets sharing only an edge: both its ends have a pinched link."""
    verts = np.vstack([REF_VERTS, [[0, -1, 0], [0, 0, -1]]])
    r = validate_complex(build_complex(verts, [[0, 1, 2, 3], [0, 1, 4, 5]]))
    assert "vertex links not a sphere or disk at vertices [0, 1]" in r.failures


def test_validate_flags_cone_over_annulus():
    """The apex's link is an annulus: connected, but with Euler
    characteristic 0 where a disk has 1."""
    ring = np.column_stack([np.cos(np.arange(4) * np.pi / 2), np.sin(np.arange(4) * np.pi / 2), np.zeros(4)])
    verts = np.vstack([[0.0, 0.0, 1.0], ring, 2 * ring])
    inner, outer = 1 + np.arange(4), 5 + np.arange(4)
    tets = [
        tet
        for k, k1 in zip(range(4), np.roll(range(4), -1))
        for tet in ([0, inner[k], outer[k], outer[k1]], [0, inner[k], outer[k1], inner[k1]])
    ]
    r = validate_complex(build_complex(verts, tets))
    assert r.failures == ["vertex links not a sphere or disk at vertices [0]"]


def test_validate_flags_cubes_glued_at_a_corner():
    verts, tets = cubes_glued_at_a_corner()
    corner = int(np.flatnonzero((verts == 1).all(axis=1))[0])
    r = validate_complex(build_complex(verts, tets))
    assert r.failures == [f"vertex links not a sphere or disk at vertices [{corner}]"]


def test_two_disjoint_tets_two_components():
    verts = np.vstack([REF_VERTS, REF_VERTS + 10.0])
    cx = build_complex(verts, [[0, 1, 2, 3], [4, 5, 6, 7]])
    r = validate_complex(cx)
    assert r.num_components == 2


def test_boundary_surface_genus(solid_torus):
    r = validate_complex(solid_torus)
    assert r.boundary_components == 1
    assert r.boundary_genus == [1]


def test_boundary_surface_oriented_flag(cube4):
    from fieldtopo.surface import boundary_surface

    surf = boundary_surface(cube4)
    assert surf.oriented
    assert surf.genus == [0]


def test_boundary_surface_flipped_face_not_oriented():
    from fieldtopo.surface import boundary_surface

    cx = gen_grid(GridSpec(2, 2, 2))
    D2 = cx.D2.tocsc()
    f = cx.boundary_faces[0]
    D2.data[D2.indptr[f]:D2.indptr[f + 1]] *= -1
    cx.D2 = D2.tocsr()
    assert boundary_surface(cx).oriented is False


def test_open_boundary_detected(cube4):
    from fieldtopo.errors import OpenBoundary
    from fieldtopo.surface import boundary_surface

    broken = gen_grid(GridSpec(2, 2, 2))
    # drop one boundary face: the remaining set no longer closes up
    broken.boundary_faces = broken.boundary_faces[1:]
    with pytest.raises(OpenBoundary):
        boundary_surface(broken)


def test_closed_mesh_no_boundary(torus3_coarse):
    assert len(torus3_coarse.boundary_faces) == 0


def reference_forest(edges, num_nodes):
    """Queue-based BFS with sorted adjacency lists: the visit rules the
    spanning-forest helper must reproduce."""
    adj = {}
    for k, (a, b) in enumerate(edges):
        adj.setdefault(a, []).append((b, k, 1))
        adj.setdefault(b, []).append((a, k, -1))
    for v in adj:
        adj[v].sort()
    parent, edge, order, seen = [-1] * num_nodes, [-1] * num_nodes, [], set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v, k, _ in adj.get(u, []):
                if v not in seen:
                    seen.add(v)
                    parent[v], edge[v] = u, k
                    queue.append(v)
    return order, parent, edge


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=30))  # loops, parallels
    return n, edges


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_spanning_forest_properties(graph, data):
    n, edges = graph
    forest = spanning_forest(np.array(edges, dtype=np.int64).reshape(-1, 2), n)
    order, parent, edge = reference_forest(edges, n)
    assert forest.order.tolist() == order
    assert forest.parent.tolist() == parent
    assert forest.edge.tolist() == edge

    # (nodes with edges - components) tree edges and no cycle
    def union_find(pairs):
        find = list(range(n))

        def top(v):
            while find[v] != v:
                v = find[v]
            return v

        joins = []
        for a, b in pairs:
            ra, rb = top(a), top(b)
            joins.append(ra != rb)
            find[ra] = rb
        return [top(v) for v in range(n)], joins

    comp, _ = union_find(edges)
    touched = {v for e in edges for v in e}
    tree = forest.tree_edges
    assert len(tree) == len(touched) - len({comp[v] for v in touched})
    assert all(union_find([edges[k] for k in tree])[1])

    # each tree edge joins a node to its parent, the lowest id among parallels
    for v in np.flatnonzero(forest.parent >= 0):
        p, k = forest.parent[v], forest.edge[v]
        assert sorted(edges[k]) == sorted((p, v))
        assert forest.sign[v] == (1 if edges[k][0] == p else -1)
        assert all(sorted(e) != sorted(edges[k]) for e in edges[:k])

    # component labels partition the nodes as the union-find does, numbered
    # in order of lowest node, and the nodes without a parent are those
    label, lowest = {}, []
    for v in range(n):
        if comp[v] not in label:
            label[comp[v]] = len(lowest)
            lowest.append(v)
    assert forest.component.tolist() == [label[comp[v]] for v in range(n)]
    assert np.flatnonzero(forest.parent < 0).tolist() == lowest

    # each tree's root is the lowest node of its component
    roots = [v for v in sorted(touched) if forest.parent[v] == -1]
    assert roots == sorted({min(u for u in touched if comp[u] == comp[v]) for v in touched})

    # the potential of an exact integer cochain recovers phi - phi(root)
    phi = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
    d0phi = np.array([phi[b] - phi[a] for a, b in edges], dtype=float)
    pot = integrate_potential(forest, d0phi)
    for v in forest.order:
        top = v
        while forest.parent[top] >= 0:
            top = forest.parent[top]
        assert pot[v] == phi[v] - phi[top]

import warnings

import numpy as np
import pytest

from fieldtopo.errors import EmptyMesh, ParseError, RingTouchesBoundary
from fieldtopo.generators import (
    LATTICE_STEPS,
    GridSpec,
    default_ring,
    gen_box_minus_ring,
    gen_grid,
    read_msh,
)
from fieldtopo.homology import betti_numbers
from fieldtopo.mesh import validate_complex


def test_unit_cube_counts():
    # Kuhn subdivision of one hex: 12 cube edges + 6 face diagonals + 1 body
    # diagonal; 12 boundary + 6 interior faces
    cx = gen_grid(GridSpec(1, 1, 1))
    assert (cx.num_vertices, cx.num_edges, cx.num_faces, cx.num_tets) == (8, 19, 18, 6)
    assert cx.euler_characteristic == 1


@pytest.mark.parametrize("n", [3, 4])
def test_fully_periodic_counts(n):
    cx = gen_grid(GridSpec(n, n, n, periodic=(True, True, True)))
    assert cx.num_vertices == n**3
    assert cx.num_edges == 7 * n**3
    assert cx.num_faces == 12 * n**3
    assert cx.num_tets == 6 * n**3
    assert cx.euler_characteristic == 0
    assert len(cx.boundary_faces) == 0


def test_solid_torus_chi():
    cx = gen_grid(GridSpec(2, 2, 4, periodic=(False, False, True)))
    assert cx.euler_characteristic == 0
    assert not validate_complex(cx).failures


def test_periodic_needs_three_cells():
    with pytest.raises(ValueError):
        gen_grid(GridSpec(2, 2, 2, periodic=(False, False, True)))


def test_generated_meshes_validate():
    for spec in [
        GridSpec(1, 2, 3),
        GridSpec(3, 3, 3, periodic=(True, True, True)),
        GridSpec(4, 4, 2, 2.0, 1.0, 3.0, periodic=(True, True, False)),
    ]:
        assert not validate_complex(gen_grid(spec)).failures


def test_grid_boundary_structure():
    cube = gen_grid(GridSpec(2, 2, 2))
    r = validate_complex(cube)
    assert (r.boundary_components, r.boundary_genus) == (1, [0])
    closed = gen_grid(GridSpec(3, 3, 3, periodic=(True, True, True)))
    assert len(closed.boundary_faces) == 0


def test_refinement_preserves_topology():
    for a, b in [(GridSpec(1, 1, 1), GridSpec(2, 2, 2)),
                 (GridSpec(2, 2, 4, periodic=(False, False, True)),
                  GridSpec(4, 4, 8, periodic=(False, False, True)))]:
        ca, cb = gen_grid(a), gen_grid(b)
        assert ca.euler_characteristic == cb.euler_characteristic
        assert betti_numbers(ca).betti == betti_numbers(cb).betti


def test_box_ring_homology_and_chi():
    cx = gen_box_minus_ring(5)
    assert not validate_complex(cx).failures
    # chi = (chi(S^2) + chi(T^2)) / 2
    assert cx.euler_characteristic == 1
    assert betti_numbers(cx).betti == (1, 1, 1, 0)


def test_box_ring_boundary_components():
    r = validate_complex(gen_box_minus_ring(5))
    assert r.boundary_components == 2
    assert sorted(r.boundary_genus) == [0, 1]


def test_ring_touching_wall_rejected():
    ring = [(0, 1, 2), (1, 1, 2), (1, 2, 2), (0, 2, 2)]
    with pytest.raises(RingTouchesBoundary):
        gen_box_minus_ring(5, ring=ring)


def test_ring_not_closed_rejected():
    ring = default_ring(5)[:-1]
    with pytest.raises(ValueError):
        gen_box_minus_ring(5, ring=ring)


MSH_MINIMAL = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 0 1 1 2 3 4
$EndElements
"""


def test_read_msh_minimal(tmp_path):
    path = tmp_path / "one.msh"
    path.write_text(MSH_MINIMAL)
    cx = read_msh(path)
    assert cx.num_tets == 1
    assert cx.num_edges == 6


def test_read_msh_ignores_non_tets(tmp_path):
    text = MSH_MINIMAL.replace(
        "$Elements\n1\n1 4 2 0 1 1 2 3 4\n",
        "$Elements\n2\n1 2 2 0 1 1 2 3\n2 4 2 0 1 1 2 3 4\n",
    )
    path = tmp_path / "mixed.msh"
    path.write_text(text)
    with pytest.warns(UserWarning, match="non-tet"):
        cx = read_msh(path)
    assert cx.num_tets == 1


def test_read_msh_drops_orphan_nodes(tmp_path):
    """A node that no tet uses is dropped with a warning; kept, it would
    count as a second connected component."""
    text = MSH_MINIMAL.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
        "4 0 0 1\n", "4 0 0 1\n5 2 2 2\n"
    )
    path = tmp_path / "orphan.msh"
    path.write_text(text)
    with pytest.warns(UserWarning, match="ignored 1 nodes used by no tet"):
        cx = read_msh(path)
    assert cx.num_vertices == 4
    assert betti_numbers(cx).betti[0] == 1


@pytest.mark.filterwarnings("ignore:ignored 1 non-tet")
def test_read_msh_triangles_only_empty(tmp_path):
    text = MSH_MINIMAL.replace(
        "$Elements\n1\n1 4 2 0 1 1 2 3 4\n",
        "$Elements\n1\n1 2 2 0 1 1 2 3\n",
    )
    path = tmp_path / "tris.msh"
    path.write_text(text)
    with pytest.raises(EmptyMesh):
        read_msh(path)


def test_read_msh_bad_count(tmp_path):
    text = MSH_MINIMAL.replace("$Elements\n1\n", "$Elements\nnope\n")
    path = tmp_path / "bad.msh"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_msh(path)
    assert err.value.line is not None


def test_read_msh_short_node_list(tmp_path):
    text = MSH_MINIMAL.replace("$Nodes\n4\n", "$Nodes\n5\n")
    path = tmp_path / "short.msh"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_msh(path)


@pytest.mark.parametrize(
    "old,new,line,message",
    [
        ("3 0 1 0\n", "3 0 1\n", 8, "bad node line"),
        ("3 0 1 0\n", "2 0 1 0\n", 8, "repeated node id 2"),
        ("1 2 3 4\n", "1 2 3 9\n", 13, "unknown node 9"),
    ],
)
def test_read_msh_bad_node_reference(tmp_path, old, new, line, message):
    """A short node line, a repeated node id and a tet naming a missing node
    each point at their own line."""
    path = tmp_path / "bad.msh"
    path.write_text(MSH_MINIMAL.replace(old, new))
    with pytest.raises(ParseError, match=message) as err:
        read_msh(path)
    assert err.value.line == line


def test_read_msh_binary_rejected(tmp_path):
    text = MSH_MINIMAL.replace("2.2 0 8", "2.2 1 8")
    path = tmp_path / "bin.msh"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_msh(path)


NON_TET = "ignored 1 non-tet elements"
ORPHAN = "ignored 1 nodes used by no tet"
TET_ROW = "1 4 2 0 1 1 2 3 4\n"
ELEMENTS = "$Elements\n1\n" + TET_ROW + "$EndElements\n"

# (edits to MSH_MINIMAL, error class, message, line, warnings), one row per
# way read_msh can fail or warn
MSH_ERRORS = [
    ([("$EndElements\n", "")], ParseError, "unexpected end of file", 13, []),
    ([("$MeshFormat\n", "junk\n$MeshFormat\n")], ParseError,
     "expected section marker, got 'junk'", 1, []),
    ([("2.2 0 8", "4.1 0 8")], ParseError, "unsupported MSH format '4.1 0 8'", 2, []),
    ([("2.2 0 8", "2.2 1 8")], ParseError, "binary MSH not supported", 2, []),
    ([("$EndMeshFormat", "$EndFormat")], ParseError, "missing $EndMeshFormat", 3, []),
    ([("$Nodes\n4\n", "$Nodes\nfour\n")], ParseError, "bad node count 'four'", 5, []),
    ([("$Nodes\n4\n", "$Nodes\n5\n")], ParseError,
     "node list shorter than declared count", 10, []),
    ([("3 0 1 0\n", "3 0 1\n")], ParseError, "bad node line '3 0 1'", 8, []),
    ([("3 0 1 0\n", "2 0 1 0\n")], ParseError, "repeated node id 2", 8, []),
    ([("$Nodes\n4\n", "$Nodes\n3\n")], ParseError, "missing $EndNodes", 9, []),
    ([("$Elements\n1\n", "$Elements\nnope\n")], ParseError, "bad element count 'nope'", 12, []),
    ([("$Elements\n1\n", "$Elements\n2\n")], ParseError,
     "element list shorter than declared count", 14, []),
    ([(TET_ROW, "1 4\n")], ParseError, "bad element line '1 4'", 13, []),
    ([(TET_ROW, "1 4 2 0 1 1 2 3\n")], ParseError, "tet with 3 nodes", 13, []),
    ([("$Elements\n1\n", "$Elements\n0\n")], ParseError, "missing $EndElements", 13, []),
    ([(ELEMENTS, "")], ParseError, "missing $Nodes or $Elements section", 10, []),
    ([(TET_ROW, "1 4 2 0 1 1 2 3 9\n")], ParseError, "element references unknown node 9", 13, []),
    # the warnings come before the checks on the tets
    ([("$Elements\n1\n", "$Elements\n2\n7 2 0 1 2 3\n")], None, None, None,
     [NON_TET]),
    ([("$Nodes\n4\n", "$Nodes\n5\n"), ("4 0 0 1\n", "4 0 0 1\n5 2 2 2\n")], None, None, None,
     [ORPHAN]),
    ([(TET_ROW, "1 2 0 1 2 3\n")], EmptyMesh, "no tetrahedra (element type 4) in file", None,
     [NON_TET]),
    ([("$Elements\n1\n", "$Elements\n2\n7 2 0 1 2 3\n"), (" 4\n$EndE", " 9\n$EndE")],
     ParseError, "element references unknown node 9", 14, [NON_TET]),
    # negative counts
    ([("$Nodes\n4\n", "$Nodes\n-3\n")], ParseError, "bad node count '-3'", 5, []),
    ([("$Elements\n1\n", "$Elements\n-1\n")], ParseError, "bad element count '-1'", 12, []),
    # a negative tag count would shift the node slice onto the tags: a tet on
    # nodes -1, 2, 3, 4
    ([("$Nodes\n4\n", "$Nodes\n5\n"), ("4 0 0 1\n", "4 0 0 1\n-1 2 2 2\n"),
      (TET_ROW, "1 4 -1 2 3 4\n")], ParseError, "bad element line '1 4 -1 2 3 4'", 14, []),
]


@pytest.mark.parametrize("edits,error,message,line,warned", MSH_ERRORS)
def test_read_msh_error_table(tmp_path, edits, error, message, line, warned):
    """Every ParseError of read_msh with its line, both warnings and EmptyMesh."""
    text = MSH_MINIMAL
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "case.msh"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if error is None:
            assert read_msh(path).num_tets == 1
        else:
            with pytest.raises(error) as err:
                read_msh(path)
            assert getattr(err.value, "line", None) == line
            assert str(err.value) == (message if line is None else f"line {line}: {message}")
    assert [str(w.message) for w in caught] == warned


def test_read_msh_numbers_nodes_in_id_order(tmp_path):
    """Vertices come in node id order, whatever the ids and their file order."""
    text = MSH_MINIMAL
    for old, new in [("1 0 0 0", "9 0 0 0"), ("2 1 0 0", "-4 1 0 0"), ("4 0 0 1", "70 0 0 1"),
                     ("1 1 2 3 4", "1 9 -4 3 70")]:
        text = text.replace(old, new)
    path = tmp_path / "ids.msh"
    path.write_text(text)
    assert read_msh(path).vertices.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]]


def test_read_msh_node_id_outside_int64(tmp_path):
    """Tet node ids are renumbered as int64, so one past that range is a
    ParseError on its element line, not an OverflowError."""
    big = 2**63
    text = MSH_MINIMAL.replace("4 0 0 1\n", f"{big} 0 0 1\n").replace(TET_ROW, f"1 4 2 0 1 1 2 3 {big}\n")
    path = tmp_path / "big.msh"
    path.write_text(text)
    with pytest.raises(ParseError, match="tet node id outside the int64 range") as err:
        read_msh(path)
    assert err.value.line == 13
    path.write_text(text.replace(str(big), str(big - 1)))
    assert read_msh(path).num_vertices == 4


def test_lattice_layout():
    """A fully periodic grid records, for each vertex and step, the one edge
    from it to its wrapped neighbour, with the edge's orientation; each edge
    appears once.  A grid with a boundary records no layout."""
    spec = GridSpec(3, 4, 5, 1.0, 2.0, 3.0, periodic=(True, True, True))
    cx = gen_grid(spec)
    lat = cx.meta["lattice"]
    assert lat.shape == (3, 4, 5)
    assert np.array_equal(np.sort(lat.edge.ravel()), np.arange(cx.num_edges))
    ends = cx.edges[lat.edge]  # (V, 7, 2)
    start = np.where(lat.sign > 0, ends[..., 0], ends[..., 1])
    stop = np.where(lat.sign > 0, ends[..., 1], ends[..., 0])
    assert np.array_equal(start, np.broadcast_to(np.arange(cx.num_vertices)[:, None], start.shape))
    step = np.stack(np.unravel_index(stop, lat.shape), -1) - np.stack(np.unravel_index(start, lat.shape), -1)
    assert np.array_equal(step % lat.shape, np.broadcast_to(LATTICE_STEPS, step.shape))
    assert LATTICE_STEPS.tolist() == [
        [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]
    ]
    assert "lattice" not in gen_grid(GridSpec(3, 3, 3, periodic=(True, True, False))).meta


def test_seam_cochains_closed():
    cx = gen_grid(GridSpec(3, 4, 5, periodic=(True, True, True)))
    seams = cx.meta["seam_crossings"]
    assert sorted(seams) == [0, 1, 2]
    for col in seams.values():
        assert np.abs(cx.D1 @ col).max() == 0
        assert np.abs(col).max() == 1

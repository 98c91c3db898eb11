from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fieldtopo.homology as homology
from fieldtopo.beltrami import (
    BCKind,
    BoundaryCondition,
    default_shift,
    kernel_projector,
    proxy_curl_residual,
    reduce_system,
    smallest_beltrami,
)
from fieldtopo.errors import IncompatibleBC, NoConvergence
from fieldtopo.fem import build_fem, field_proxies
from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid
from fieldtopo.homology import betti_numbers, boundary_classes, h1_cocycles_auto
from fieldtopo.mesh import build_complex, spanning_forest
from fieldtopo.surface import boundary_surface
from fields import bloch_spectrum, cluster_align, edge_interpolant
from test_relabelling import _relabel

TAU = 2 * np.pi


def test_closed_mesh_pencil_is_full(torus3_coarse):
    pen = reduce_system(torus3_coarse, BoundaryCondition.parse("closed-mesh"))
    assert pen.ndof == torus3_coarse.num_edges
    assert pen.symmetry_defect <= 1e-12
    fem = build_fem(torus3_coarse)
    assert pen.M1 is fem.M1
    S = fem.S.copy()
    S.eliminate_zeros()
    assert pen.S.nnz == S.nnz
    assert abs(pen.S - S).max() <= 1e-12 * abs(S).max()
    # the zero-trace reduction of the empty boundary surface
    assert boundary_surface(torus3_coarse).genus == []
    assert boundary_classes(torus3_coarse).restriction_pairing.shape == (3, 0)
    h = np.random.default_rng(2).standard_normal(torus3_coarse.num_edges)
    assert pen.full_to_dof(h).tobytes() == h.tobytes()


def test_zero_trace_pencil_symmetric(cube4):
    pen = reduce_system(cube4, BoundaryCondition.parse("zero-trace"))
    assert pen.ndof < cube4.num_edges
    assert pen.symmetry_defect <= 1e-12


def test_closed_trace_pencil_symmetric(solid_torus):
    for choice in (0, 1):
        pen = reduce_system(
            solid_torus, BoundaryCondition.parse(f"closed-trace:{choice}")
        )
        assert pen.symmetry_defect <= 1e-12


def test_closed_trace_normalized_restriction(solid_torus):
    """Index 0 is meridian-like (invisible to traces of H^1(M)), index 1
    longitude-like; only the longitude choice admits a harmonic flux state."""
    pen0 = reduce_system(solid_torus, BoundaryCondition.parse("closed-trace:0"))
    R = boundary_classes(solid_torus).restriction_pairing
    assert R.shape == (1, 2)
    assert R[0, 0] == 0 and abs(R[0, 1]) == 1
    proj0 = kernel_projector(pen0)
    assert proj0.harmonic_dimension == 0
    pen1 = reduce_system(solid_torus, BoundaryCondition.parse("closed-trace:1"))
    proj1 = kernel_projector(pen1)
    assert proj1.harmonic_dimension == 1


def test_boundary_classes_built_once(monkeypatch):
    """Three boundary conditions on one fresh mesh read one shared record of
    boundary classes: the surface H^1 basis is built exactly once."""
    calls = []
    real = homology.surface_h1_basis

    def counting(surf):
        calls.append(surf)
        return real(surf)

    monkeypatch.setattr(homology, "surface_h1_basis", counting)
    cx = gen_box_minus_ring(5)
    for text in ("zero-trace", "closed-trace:0", "closed-trace:1"):
        reduce_system(cx, BoundaryCondition.parse(text))
    assert len(calls) == 1
    assert boundary_classes(cx) is boundary_classes(cx)


def test_incompatible_bc_cases(cube4, torus3_coarse, solid_torus):
    with pytest.raises(IncompatibleBC):
        reduce_system(cube4, BoundaryCondition.parse("closed-mesh"))
    with pytest.raises(IncompatibleBC):
        reduce_system(torus3_coarse, BoundaryCondition.parse("zero-trace"))
    with pytest.raises(IncompatibleBC):
        reduce_system(cube4, BoundaryCondition.parse("closed-trace:0"))
    with pytest.raises(IncompatibleBC):
        reduce_system(solid_torus, BoundaryCondition.parse("closed-trace:0,1"))
    with pytest.raises(IncompatibleBC):
        reduce_system(solid_torus, BoundaryCondition.parse("closed-trace:7"))


def test_dof_map_roundtrip(solid_torus):
    bc = BoundaryCondition.parse("closed-trace:1")
    pen = reduce_system(solid_torus, bc)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(pen.ndof)
    h = pen.C @ x
    back = pen.full_to_dof(h)
    assert np.abs(pen.C @ back - h).max() < 1e-10


def torus_next_to_cube():
    """A 3x3x3 periodic torus and a 2x2x2 cube as two components of one mesh."""
    a = gen_grid(GridSpec(3, 3, 3, periodic=(True, True, True)))
    b = gen_grid(GridSpec(2, 2, 2))
    return build_complex(
        np.vstack([a.vertices, b.vertices + 5.0]),
        np.vstack([a.tets, b.tets + a.num_vertices]),
        np.concatenate([a.tet_coords, b.tet_coords + 5.0]),
    )


def test_gradients_with_closed_component():
    """A torus next to a cube: the torus component has no boundary, so it
    drops its lowest vertex from the gradient columns, and the cube drops
    its boundary block (zero-trace) or its lowest vertex (closed-trace)."""
    cx = torus_next_to_cube()
    on_boundary = np.unique(cx.faces[cx.boundary_faces])
    rng = np.random.default_rng(4)
    for text, ncols in (("zero-trace", 27), ("closed-trace:", 52)):
        bc = BoundaryCondition.parse(text)
        pen = reduce_system(cx, bc)
        surf = boundary_surface(cx)
        pins = surf.forest.order[surf.forest.parent[surf.forest.order] < 0]
        forest = spanning_forest(surf.edges, cx.num_vertices)
        assert (forest.parent[pins] == -1).all()
        assert np.array_equal(surf.vertex_component[pins], np.arange(surf.num_components))
        proj = kernel_projector(pen)
        assert proj.gradient.shape == (pen.ndof, ncols)
        assert proj.harmonic_dimension == 3
        phi = rng.standard_normal(cx.num_vertices)
        if bc.kind is BCKind.ZERO_TRACE:
            phi[on_boundary] = 0.7
        x = pen.full_to_dof(cx.D0 @ phi)
        assert np.linalg.norm(proj.apply(x)) <= 1e-12 * np.linalg.norm(x)


def test_boundary_pins_follow_component_labels():
    """T2xI has two boundary tori: the pins are the roots of the stored
    surface forest, one per torus, in the order of the component labels."""
    cx = gen_grid(GridSpec(3, 3, 2, periodic=(True, True, False)))
    pen = reduce_system(cx, BoundaryCondition.parse("closed-trace:"))
    surf = boundary_surface(cx)
    forest = surf.forest
    pins = forest.order[forest.parent[forest.order] < 0]
    alpha_verts = np.flatnonzero(forest.parent >= 0)
    assert surf.num_components == 2
    assert np.array_equal(surf.vertex_component[pins], [0, 1])
    assert (forest.parent[pins] == -1).all()
    on_boundary = np.flatnonzero(surf.vertex_component >= 0)
    assert np.array_equal(np.sort(np.concatenate([pins, alpha_verts])), on_boundary)
    # the DOFs: interior edges, then alpha on every boundary vertex but the pins
    assert pen.ndof == len(pen.interior_edges) + len(alpha_verts)


def jittered_torus3(n: int, seed: int = 7):
    """The n^3 3-torus with every vertex moved by at most 0.1 h, the move
    added to each tet corner that holds the vertex."""
    cx = gen_grid(GridSpec(n, n, n, TAU, TAU, TAU, periodic=(True, True, True)))
    step = 0.1 * (TAU / n) / np.sqrt(3.0)
    move = np.random.default_rng(seed).uniform(-step, step, (cx.num_vertices, 3))
    return build_complex(cx.vertices + move, cx.tets, cx.tet_coords + move[cx.tets])


def test_projector_properties(torus8_beltrami, torus3_8):
    """Idempotent, zero on gradients and M1-self-adjoint, on a Freudenthal
    grid and on a jittered one."""
    jittered = jittered_torus3(6)
    pen_j = reduce_system(jittered, BoundaryCondition.parse("closed-mesh"))
    for cx, pen in ((torus3_8, torus8_beltrami[0]), (jittered, pen_j)):
        proj = kernel_projector(pen)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(pen.ndof)
        Pv = proj.apply(v)
        assert np.abs(proj.apply(Pv) - Pv).max() <= 1e-12 * np.abs(Pv).max()
        # annihilates gradients
        g = cx.D0 @ rng.standard_normal(cx.num_vertices)
        assert np.linalg.norm(proj.apply(g)) <= 1e-10 * np.linalg.norm(g)
        # M1-self-adjoint: <Pu, v>_M = <u, Pv>_M
        u = rng.standard_normal(pen.ndof)
        lhs = proj.apply(u) @ (pen.M1 @ v)
        rhs = u @ (pen.M1 @ proj.apply(v))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_harmonic_dimensions(torus8_beltrami, cube4):
    _, sol = torus8_beltrami
    assert sol.harmonic_dimension == 3
    pz = reduce_system(cube4, BoundaryCondition.parse("zero-trace"))
    assert kernel_projector(pz).harmonic_dimension == 0


def test_torus_eigenvalue_benchmark(torus8_beltrami):
    # analytic oracle: curl (0, sin x, cos x) = (0, sin x, cos x) on [0,2pi]^3
    _, sol = torus8_beltrami
    assert abs(sol.lambdas[0]) == pytest.approx(1.0, abs=0.06)
    assert sol.residuals.max() <= 1e-8


def test_rayleigh_identity(torus8_beltrami):
    _, sol = torus8_beltrami
    assert np.abs(sol.helicities / sol.energies - sol.lambdas).max() <= 1e-12 * np.abs(
        sol.lambdas
    ).max()


def test_divergence_constraint(torus8_beltrami, torus3_8):
    _, sol = torus8_beltrami
    for i in range(sol.cochains.shape[1]):
        h = sol.cochains[:, i]
        M1h = build_fem(torus3_8).M1 @ h
        div = np.linalg.norm(torus3_8.D0.T @ M1h)
        assert div <= 1e-10 * np.linalg.norm(M1h)


def test_eigenvector_m_orthogonality(torus8_beltrami):
    pen, sol = torus8_beltrami
    X = sol.cochains  # C = I on the closed torus
    G = X.T @ (pen.M1 @ X)
    lam = sol.lambdas
    for i in range(len(lam)):
        for j in range(i):
            if abs(lam[i] - lam[j]) > 1e-6:
                assert abs(G[i, j]) <= 1e-8


def test_spectrum_sign_symmetry(torus8_beltrami):
    """Central inversion through a cell center reverses orientation, so the
    discrete spectrum is symmetric under lambda -> -lambda."""
    pen, sol = torus8_beltrami
    neg = smallest_beltrami(pen, k=2, tol=1e-8, shift=-default_shift(pen.complex))
    assert neg.lambdas[0] == pytest.approx(-sol.lambdas[0], abs=1e-8)


def _solid_torus_338():
    return gen_grid(GridSpec(3, 3, 8, 1.0, 1.0, 3.0, periodic=(False, False, True)))


def test_sign_tie_goes_to_shift_side():
    """The closed-trace solid torus has both +-1.7949518 in its spectrum;
    each shift returns the one on its own side."""
    cx = _solid_torus_338()
    bc = BoundaryCondition.parse("closed-trace:1")
    pen = reduce_system(cx, bc)
    for sign in (1.0, -1.0):
        sol = smallest_beltrami(pen, k=1, tol=1e-8, shift=sign * default_shift(cx))
        assert sol.lambdas[0] == pytest.approx(sign * 1.7949518, rel=1e-7)


def _torus3_minus_cell():
    """The 3-torus grid n=4 with the 6 tets of cell (1, 1, 1) removed:
    Betti (1, 3, 3, 0) and one sphere boundary, so every H^1 class has an
    exact boundary trace, which the tree-gauge cocycles do not all avoid."""
    cx = gen_grid(GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True, True, True)))
    cell = np.floor(cx.tet_coords.mean(axis=1) / (TAU / 4)).astype(int)
    keep = ~np.all(cell == 1, axis=1)
    return build_complex(cx.vertices, cx.tets[keep], cx.tet_coords[keep])


DENSE_CASES = {
    "torus3-3": (
        lambda: gen_grid(GridSpec(3, 3, 3, TAU, TAU, TAU, periodic=(True, True, True))),
        BoundaryCondition.parse("closed-mesh"),
    ),
    "box-ring-zero-trace": (lambda: gen_box_minus_ring(5), BoundaryCondition.parse("zero-trace")),
    "box-ring-closed-trace-0": (
        lambda: gen_box_minus_ring(5), BoundaryCondition.parse("closed-trace:0")
    ),
    "box-ring-closed-trace-1": (
        lambda: gen_box_minus_ring(5), BoundaryCondition.parse("closed-trace:1")
    ),
    "solid-torus-closed-trace-1": (_solid_torus_338, BoundaryCondition.parse("closed-trace:1")),
    "cube-zero-trace": (lambda: gen_grid(GridSpec(3, 3, 3)), BoundaryCondition.parse("zero-trace")),
    "torus3-minus-cell-zero-trace": (_torus3_minus_cell, BoundaryCondition.parse("zero-trace")),
}


def test_zero_trace_strips_exact_traces():
    """Zero-trace harmonic fields are the kernel of restriction to H^1(dM).
    With a sphere boundary that is all of H^1(M): the cocycles' exact traces
    are stripped by a boundary potential, and all 3 classes stay."""
    cx = _torus3_minus_cell()
    assert betti_numbers(cx).betti == (1, 3, 3, 0)
    assert boundary_surface(cx).genus == [0]
    traces = [np.abs(c[boundary_surface(cx).parent_edge_ids]).max() for c in h1_cocycles_auto(cx)]
    assert max(traces) == 1
    pen = reduce_system(cx, BoundaryCondition.parse("zero-trace"))
    assert boundary_classes(cx).restriction_pairing.shape == (3, 0)
    proj = kernel_projector(pen)
    assert proj.harmonic_dimension == 3
    H = proj.harmonic
    assert np.abs(pen.S @ H).max() <= 1e-12 * np.abs(H).max()


def test_zero_trace_rejects_non_exact_trace(box_ring):
    """The box ring's H^1 class has a trace that is not exact on the inner
    torus, so it has no zero-trace representative."""
    pen = reduce_system(box_ring, BoundaryCondition.parse("zero-trace"))
    assert kernel_projector(pen).harmonic_dimension == 0
    with pytest.raises(ValueError, match="not admissible"):
        pen.full_to_dof(h1_cocycles_auto(box_ring)[0])


@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_matches_dense_spectrum(case):
    """The k returned lambdas are the k nonzero eigenvalues of the dense
    pencil of least magnitude on the shift's side, counted with
    multiplicity."""
    make, bc = DENSE_CASES[case]
    cx = make()
    pen = reduce_system(cx, bc)
    dense = sla.eigh(pen.S.toarray(), pen.M1.toarray(), eigvals_only=True)
    nonzero = dense[np.abs(dense) > 1e-6 * np.abs(dense).max()]
    k = 2
    for sign, side in ((1.0, nonzero[nonzero > 0]), (-1.0, nonzero[nonzero < 0])):
        sol = smallest_beltrami(pen, k=k, tol=1e-8, shift=sign * default_shift(cx))
        expected = side[np.argsort(np.abs(side))[:k]]
        np.testing.assert_allclose(sol.lambdas, expected, rtol=1e-9, atol=0.0)


def test_only_shift_side_pairs():
    """cube n=2,2,1 leaves 9 DOFs: three eigenvalues of each sign and a
    three-dimensional curl kernel.  k=3 returns the three dense eigenvalues
    on the shift's side, for either sign of the shift.  A larger k, also one
    above the DOF count and one whose (n, k) block would not fit in memory,
    raises NoConvergence with that count of 3, where kernel pairs at lambda ~
    0 would otherwise fill the answer."""
    cx = gen_grid(GridSpec(2, 2, 1))
    pen = reduce_system(cx, BoundaryCondition.parse("zero-trace"))
    dense = sla.eigh(pen.S.toarray(), pen.M1.toarray(), eigvals_only=True)
    assert pen.ndof == 9
    for sign in (1.0, -1.0):
        side = dense[sign * dense > 1e-6]
        assert len(side) == 3
        shift = sign * default_shift(cx)
        sol = smallest_beltrami(pen, k=3, shift=shift)
        np.testing.assert_allclose(sol.lambdas, side[np.argsort(np.abs(side))], rtol=1e-9)
        for k in (4, 12, 10**12):
            with pytest.raises(NoConvergence, match=f"^only 3 pairs on the shift's side of {k} "):
                smallest_beltrami(pen, k=k, shift=shift)


def test_no_dofs_gives_no_convergence():
    """Every edge of a single tet lies on its boundary, so its zero-trace
    pencil has no DOF; the solver reports that count of 0 pairs like any
    pencil with fewer than k on the shift's side."""
    cx = build_complex(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]]), [[0, 1, 2, 3]])
    pen = reduce_system(cx, BoundaryCondition.parse("zero-trace"))
    assert pen.ndof == 0
    with pytest.raises(NoConvergence, match="^only 0 pairs on the shift's side of 1 requested$"):
        smallest_beltrami(pen)


@pytest.mark.parametrize(
    "shift, expected", [(1.1, [1.0206986]), (2.0, [1.9819987, 2.0167224])]
)
def test_shift_above_smallest_selects_by_filter(shift, expected):
    """With the shift above the smallest |lambda|, the k returned lambdas are
    the dense eigenvalues of largest f(nu) = nu^2 + nu/sigma, nu = 1/(lambda -
    sigma).  At sigma = 1.1 that is 1.0206986, not the smaller 1.0204927."""
    cx = gen_box_minus_ring(5)
    bc = BoundaryCondition.parse("closed-trace:0")
    pen = reduce_system(cx, bc)
    dense = sla.eigh(pen.S.toarray(), pen.M1.toarray(), eigvals_only=True)
    nonzero = dense[np.abs(dense) > 1e-6 * np.abs(dense).max()]
    nu = 1.0 / (nonzero - shift)
    k = len(expected)
    leading = np.sort(nonzero[np.argsort(-(nu * nu + nu / shift))[:k]])
    np.testing.assert_allclose(leading, expected, rtol=1e-7, atol=0.0)
    sol = smallest_beltrami(pen, k=k, tol=1e-8, shift=shift)
    np.testing.assert_allclose(np.sort(sol.lambdas), leading, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "make, bc, k, two_solve_columns, factors",
    [
        (lambda: gen_box_minus_ring(7), BoundaryCondition.parse("zero-trace"), 1, 42, 1),
        (
            lambda: gen_grid(GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True, True, True))),
            BoundaryCondition.parse("closed-mesh"),
            2,
            136,
            0,
        ),
    ],
    ids=["box-ring-7", "torus3-4"],
)
def test_one_solve_per_step(make, bc, k, two_solve_columns, factors, monkeypatch):
    """Each Krylov step is one solve with k right-hand sides, on the shifted
    factor or (periodic grid, no factor) on the lattice, and the iteration
    solves fewer columns than the two-solve filter OP^2 + OP/sigma did.
    Between one solve and the next the loop multiplies by the pencil's M1
    at most twice: M V is carried, not recomputed."""
    import dataclasses

    import fieldtopo.beltrami as beltrami

    cx = make()
    pen = reduce_system(cx, bc)

    solves, steps, products, at_solve, factored = [], [], [0], [], []
    splu, lattice_solve = spla.splu, beltrami._lattice_solve
    orthonormalize = beltrami._m_orthonormalize

    class CountingM1(sp.csr_matrix):
        def __matmul__(self, other):
            products[0] += 1
            return super().__matmul__(other)

    def recorded(solve):
        def recording(b):
            solves.append(b.shape)
            at_solve.append(products[0])
            return solve(b)

        return recording

    def factor(*args, **kwargs):
        factored.append(1)
        return SimpleNamespace(solve=recorded(splu(*args, **kwargs).solve))

    def lattice(*args):
        solve = lattice_solve(*args)
        return solve and recorded(solve)

    def counted(*args):
        steps.append(1)
        return orthonormalize(*args)

    monkeypatch.setattr(spla, "splu", factor)
    monkeypatch.setattr(beltrami, "_lattice_solve", lattice)
    monkeypatch.setattr(beltrami, "_m_orthonormalize", counted)
    smallest_beltrami(dataclasses.replace(pen, M1=CountingM1(pen.M1)), k=k, tol=1e-8)
    assert len(factored) == factors
    assert solves and set(solves) == {(pen.ndof, k)}
    assert len(solves) == len(steps)
    assert len(solves) * k < two_solve_columns
    assert len(at_solve) >= 3 and max(np.diff(at_solve)) <= 2


@pytest.mark.parametrize(
    "make, bc, lattice",
    [
        (lambda: gen_grid(GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True, True, True))),
         BoundaryCondition.parse("closed-mesh"), True),
        (lambda: gen_box_minus_ring(5), BoundaryCondition.parse("zero-trace"), False),
        (lambda: gen_box_minus_ring(5), BoundaryCondition.parse("closed-trace:1"), False),
        (torus_next_to_cube, BoundaryCondition.parse("zero-trace"), False),
        (torus_next_to_cube, BoundaryCondition.parse("closed-trace:"), False),
    ],
    ids=["torus3-4", "box-ring-5-zero-trace", "box-ring-5-closed-trace-1",
         "torus-cube-zero-trace", "torus-cube-closed-trace"],
)
def test_one_factorization_per_solve(make, bc, lattice, monkeypatch):
    """The projector and the eigensolver together factor at most one matrix,
    the shifted pencil, and none on a periodic grid, which is solved on its
    lattice; the gradient Gram and the mass matrix go to CG."""
    import fieldtopo.beltrami as beltrami

    cx = make()
    pen = reduce_system(cx, bc)
    factored, splu = [], beltrami.spla.splu

    def counted(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(beltrami.spla, "splu", counted)
    sol = smallest_beltrami(pen, k=1, tol=1e-8)
    assert factored == ([] if lattice else [(pen.ndof, pen.ndof)])
    assert sol.residuals.max() <= 1e-8


# the smallest legal 3-torus grid (offsets -1 and +1 stay distinct), the n=4
# one and a non-cubic one with unequal lengths
LATTICE_GRIDS = {
    "torus3-3": GridSpec(3, 3, 3, TAU, TAU, TAU, periodic=(True, True, True)),
    "torus3-4": GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True, True, True)),
    "grid-3x4x5": GridSpec(3, 4, 5, 1.0, 2.0, 3.0, periodic=(True, True, True)),
}


def _superlu(A):
    return spla.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
        options=dict(SymmetricMode=True, DiagPivotThresh=0.01),
    ).solve


@pytest.mark.parametrize("name", list(LATTICE_GRIDS))
def test_lattice_solve_matches_superlu(name):
    """On a periodic grid the lattice solve of S - sigma M1 has relative
    residual below 1e-12 per column and agrees with SuperLU's solve."""
    from fieldtopo.beltrami import _lattice_solve

    cx = gen_grid(LATTICE_GRIDS[name])
    pen = reduce_system(cx, BoundaryCondition.parse("closed-mesh"))
    A = pen.S - default_shift(cx) * pen.M1
    solve = _lattice_solve(cx, A)
    assert solve is not None
    B = np.random.default_rng(3).standard_normal((pen.ndof, 3))
    X, X_lu = solve(B), _superlu(A)(B)
    assert np.all(np.linalg.norm(A @ X - B, axis=0) <= 1e-12 * np.linalg.norm(B, axis=0))
    np.testing.assert_allclose(X, X_lu, rtol=0, atol=1e-10 * np.abs(X_lu).max())
    # a vector is solved as a one-column block
    np.testing.assert_allclose(solve(B[:, 1]), X[:, 1], rtol=0, atol=1e-12 * np.abs(X).max())


@pytest.mark.parametrize("name", list(LATTICE_GRIDS))
def test_lattice_path_matches_superlu_path(name, monkeypatch):
    """smallest_beltrami through the lattice and through SuperLU gives the
    same eigenvalues to 1e-12 and the same eigenspace: every principal
    cosine, in the M1 inner product, is 1 to 1e-10.  The vectors may
    differ by a rotation inside a degenerate cluster."""
    import fieldtopo.beltrami as beltrami

    cx = gen_grid(LATTICE_GRIDS[name])
    pen = reduce_system(cx, BoundaryCondition.parse("closed-mesh"))
    lattice = smallest_beltrami(pen, k=2)
    monkeypatch.setattr(beltrami, "_lattice_solve", lambda *args: None)
    factored = smallest_beltrami(pen, k=2)
    np.testing.assert_allclose(lattice.lambdas, factored.lambdas, rtol=1e-12, atol=0)
    R = np.linalg.cholesky(pen.M1.toarray()).T  # x^T M1 y = (R x) . (R y)
    cosines = np.cos(sla.subspace_angles(R @ lattice.cochains, R @ factored.cochains))
    np.testing.assert_allclose(cosines, 1.0, rtol=0, atol=1e-10)


def _nudged_torus3():
    """The n=4 3-torus with one vertex moved by 0.01 h in every tet that
    holds it, before anything is assembled: it keeps its lattice layout,
    but the pencil is no longer translation invariant."""
    cx = gen_grid(GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True, True, True)))
    cx.tet_coords[cx.tets == 5] += 0.01 * (TAU / 4) * np.array([1.0, 0.5, 0.25])
    return cx


@pytest.mark.parametrize(
    "make",
    [lambda: _relabel(gen_grid(GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True,) * 3)), 7)[0],
     _nudged_torus3],
    ids=["relabelled", "nudged"],
)
def test_lattice_fallback_factors_once(make, monkeypatch):
    """A closed mesh without a lattice layout (relabelled through
    build_complex) or whose pencil fails the stencil check (one vertex
    moved) is solved on one SuperLU factor, as any other pencil."""
    import fieldtopo.beltrami as beltrami

    cx = make()
    pen = reduce_system(cx, BoundaryCondition.parse("closed-mesh"))
    factored, splu = [], beltrami.spla.splu

    def counted(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(beltrami.spla, "splu", counted)
    sol = smallest_beltrami(pen, k=2, tol=1e-8)
    assert factored == [(pen.ndof, pen.ndof)]
    assert sol.residuals.max() <= 1e-8


def test_stencil_check_counts_implicit_zeros(torus3_coarse):
    """A coupling absent at one vertex fails the stencil check, even one so
    small (5e-11 max|A|) that the entries present match its mean over the
    64 vertices to 1e-12 max|A|; present at every vertex, it passes."""
    from fieldtopo.beltrami import _lattice_solve

    cx = torus3_coarse
    lat = cx.meta["lattice"]
    pen = reduce_system(cx, BoundaryCondition.parse("closed-mesh"))
    A = pen.S - default_shift(cx) * pen.M1
    # edge step (1,0,0) at v with the same step at v + (1,1,1): no tet holds both
    v = np.arange(cx.num_vertices)
    w = np.ravel_multi_index(tuple((np.stack(np.unravel_index(v, lat.shape)) + 1) % 4), lat.shape)
    a = 5e-11 * abs(A).max() * lat.sign[v, 0] * lat.sign[w, 0]
    coupling = sp.csr_matrix((a, (lat.edge[v, 0], lat.edge[w, 0])), shape=A.shape)
    assert _lattice_solve(cx, A + coupling + coupling.T) is not None
    coupling = sp.csr_matrix((a[1:], (lat.edge[v[1:], 0], lat.edge[w[1:], 0])), shape=A.shape)
    assert _lattice_solve(cx, A + coupling + coupling.T) is None


def test_singular_lattice_symbol_is_a_runtime_error(torus3_coarse):
    """An exactly singular symbol raises RuntimeError, as SuperLU's exactly
    singular factor does, so the CLI exits 2 with error.json either way."""
    from fieldtopo.beltrami import _lattice_solve

    zero = sp.csr_matrix((torus3_coarse.num_edges,) * 2)
    with pytest.raises(RuntimeError, match="exactly singular"):
        _lattice_solve(torus3_coarse, zero)
    with pytest.raises(RuntimeError, match="exactly singular"):
        _superlu(zero)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_cluster_complete(torus8_beltrami, seed):
    """The smallest |lambda| on the n=8 3-torus is an exactly 6-fold
    cluster; k=6 returns all six copies for any start block, with no
    member of the next cluster among them."""
    pen, _ = torus8_beltrami
    sol = smallest_beltrami(pen, k=6, tol=1e-8, seed=seed)
    np.testing.assert_allclose(sol.lambdas, np.full(6, 0.9526012254), rtol=1e-9, atol=0.0)


def test_eigenvalue_scaling():
    """Scaling the mesh by s divides every eigenvalue by s, exactly."""
    sols = []
    for s in (1.0, 2.0):
        L = TAU * s
        cx = gen_grid(GridSpec(6, 6, 6, L, L, L, periodic=(True, True, True)))
        bc = BoundaryCondition.parse("closed-mesh")
        pen = reduce_system(cx, bc)
        sols.append(smallest_beltrami(pen, k=1, tol=1e-8))
    assert sols[1].lambdas[0] * 2.0 == pytest.approx(sols[0].lambdas[0], rel=1e-9)


def first_proxy_residual(sol):
    cx = sol.pencil.complex
    return proxy_curl_residual(cx, *field_proxies(cx, sol.cochains[:, 0]), sol.lambdas[0])


def test_residual_report(torus8_beltrami, torus3_8):
    _, sol = torus8_beltrami
    for i, lam in enumerate(sol.lambdas):
        assert sol.helicities[i] / sol.energies[i] == pytest.approx(lam, rel=1e-10)
        assert sol.residuals[i] <= 1e-8
        h = sol.cochains[:, i]
        assert np.linalg.norm(torus3_8.D0.T @ (build_fem(torus3_8).M1 @ h)) <= 1e-9
    # strong-form proxy residual is a discretization-level quantity (O(h))
    assert first_proxy_residual(sol) < 1.0


def test_proxy_residual_tightens_under_refinement(torus8_beltrami):
    _, sol8 = torus8_beltrami
    cx = gen_grid(GridSpec(12, 12, 12, TAU, TAU, TAU, periodic=(True, True, True)))
    bc = BoundaryCondition.parse("closed-mesh")
    pen = reduce_system(cx, bc)
    sol12 = smallest_beltrami(pen, k=1, tol=1e-8)
    r8 = first_proxy_residual(sol8)
    r12 = first_proxy_residual(sol12)
    assert r12 < r8


def test_cluster_align_is_eigenvector(torus8_beltrami, torus3_8):
    pen, sol = torus8_beltrami

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


def test_helicity_gauge_invariance(torus3_coarse):
    from fieldtopo.analysis import helicity

    rng = np.random.default_rng(6)
    h = rng.standard_normal(torus3_coarse.num_edges)
    fem = build_fem(torus3_coarse)
    base = helicity(fem, h)
    for _ in range(20):
        phi = rng.standard_normal(torus3_coarse.num_vertices)
        shifted = helicity(fem, h + torus3_coarse.D0 @ phi)
        assert shifted == pytest.approx(base, rel=1e-10)


def test_helicity_of_gradient_is_zero(torus3_coarse):
    from fieldtopo.analysis import helicity

    rng = np.random.default_rng(8)
    g = torus3_coarse.D0 @ rng.standard_normal(torus3_coarse.num_vertices)
    assert abs(helicity(build_fem(torus3_coarse), g)) <= 1e-10


def test_bc_describe():
    # built with the constructor, so the round trip does not test parse by parse
    assert BoundaryCondition(BCKind.CLOSED_MESH).describe() == "closed-mesh"
    assert BoundaryCondition.parse("zero-trace").kind is BCKind.ZERO_TRACE
    assert BoundaryCondition(BCKind.CLOSED_TRACE, (0, 2)).describe() == "closed-trace:0,2"
    for bc in (
        BoundaryCondition(BCKind.CLOSED_MESH),
        BoundaryCondition(BCKind.ZERO_TRACE),
        BoundaryCondition(BCKind.CLOSED_TRACE),
        BoundaryCondition(BCKind.CLOSED_TRACE, (1,)),
        BoundaryCondition(BCKind.CLOSED_TRACE, (0, 2)),
    ):
        assert BoundaryCondition.parse(bc.describe()) == bc
    assert BoundaryCondition.parse(" Closed-Trace ") == BoundaryCondition(BCKind.CLOSED_TRACE)
    for text in ("closed-trace0", "closed-trace:x", "zero-trace:1", "closed-trace:0,,1",
                 "closed-trace:+1", "closed-mesh:", ""):
        with pytest.raises(ValueError, match="boundary condition"):
            BoundaryCondition.parse(text)


def test_lagrangian_choice_only_under_closed_trace():
    """A Lagrangian choice is data of CLOSED_TRACE alone: any other kind
    rejects it where it is built, and parse keeps its own message."""
    for kind in (BCKind.ZERO_TRACE, BCKind.CLOSED_MESH):
        with pytest.raises(ValueError, match="lagrangian choice"):
            BoundaryCondition(kind, (1,))
    with pytest.raises(ValueError, match="unknown boundary condition"):
        BoundaryCondition.parse("zero-trace:1")


def test_step_cap_ends_in_no_convergence(torus3_coarse, monkeypatch):
    """An iteration stopped early hands its Ritz vectors to the residual
    gate, which raises NoConvergence with the worst residual."""
    import fieldtopo.beltrami as beltrami

    bc = BoundaryCondition.parse("closed-mesh")
    pen = reduce_system(torus3_coarse, bc)
    monkeypatch.setattr(beltrami, "_MAX_STEPS", 2)
    with pytest.raises(NoConvergence, match=r"eigen residual \S+ above tol 1\.0e-08"):
        smallest_beltrami(pen, k=2, tol=1e-8)


def test_jacobi_cg_solves_one_by_one():
    """scipy's cg checks the residual only at the top of a step, so even a
    1 x 1 system needs more than n steps to report success."""
    from fieldtopo.beltrami import _jacobi_cg

    solve = _jacobi_cg(sp.csr_matrix([[4.0]]), "one")
    assert solve(np.array([2.0])).tolist() == [0.5]


def test_m_orthonormalize_carries_the_product(torus3_coarse):
    """W comes back M-orthonormal and M-orthogonal to V, with the carried MW
    equal to M @ W, and a column inside span V is dropped."""
    from fieldtopo.beltrami import _m_orthonormalize

    M = build_fem(torus3_coarse).M1
    n = M.shape[0]
    rng = np.random.default_rng(3)
    V, MV = _m_orthonormalize(rng.standard_normal((n, 4)), np.empty((n, 0)), np.empty((n, 0)), M)
    R = rng.standard_normal((n, 3))
    W0 = np.column_stack([R[:, :1], V @ [3.0, 0.0, 1.0, -1.0], R[:, 1:]])
    W, MW = _m_orthonormalize(W0, V, MV, M)
    assert W.shape == (n, 3)
    exact = M @ W
    assert np.linalg.norm(MW - exact) <= 1e-12 * np.linalg.norm(exact)
    np.testing.assert_allclose(W.T @ exact, np.eye(3), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(V.T @ exact, 0.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_m_orthonormalize_drop_is_scale_invariant(torus3_coarse, seed):
    """A column that depends on the other columns and on V is dropped, and
    independent columns survive whatever their M-norms."""
    from fieldtopo.beltrami import _m_orthonormalize

    M = build_fem(torus3_coarse).M1
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    V, MV = _m_orthonormalize(rng.standard_normal((n, 4)), np.empty((n, 0)), np.empty((n, 0)), M)
    R = rng.standard_normal((n, 3))
    dependent = R @ rng.standard_normal(3) + V @ rng.standard_normal(4)
    W, _ = _m_orthonormalize(np.column_stack([R, dependent]), V, MV, M)
    assert W.shape == (n, 3)
    pair = rng.standard_normal((n, 2))
    pair /= np.sqrt(np.einsum("ij,ij->j", pair, M @ pair))
    W, MW = _m_orthonormalize(pair * [1.0, 1e-10], V, MV, M)
    assert W.shape == (n, 2)
    np.testing.assert_allclose(W.T @ MW, np.eye(2), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("blocks, steps", [(20, 3), (20, 12), (4, 7), (4, 13)])
def test_lanczos_residual_from_newest_block(torus3_coarse, blocks, steps, monkeypatch):
    """The Ritz residuals read off the Lanczos remainder of the newest block
    are the explicit ||g(Vy) - theta Vy||_M1, before and after thick
    restarts (a 4-block basis restarts every second step from the fourth).
    The steps stop while the residuals are far above the rounding of the
    explicit difference, about eps |theta|."""
    import fieldtopo.beltrami as beltrami

    pen = reduce_system(torus3_coarse, BoundaryCondition.parse("closed-mesh"))
    M = pen.M1
    sigma = default_shift(torus3_coarse)
    lu = spla.splu((pen.S - sigma * M).tocsc(), permc_spec="MMD_AT_PLUS_A")

    def g(Y, MY):
        return lu.solve(MY) + Y / sigma

    start = kernel_projector(pen).apply(np.random.default_rng(0).standard_normal((pen.ndof, 2)))
    monkeypatch.setattr(beltrami, "_BASIS_BLOCKS", blocks)
    monkeypatch.setattr(beltrami, "_MAX_STEPS", steps)
    theta, X, rnorm = beltrami._block_lanczos(g, M, start, 2, sigma)
    R = g(X, M @ X) - X * theta
    explicit = np.sqrt(np.einsum("ik,ik->k", R, M @ R))
    assert explicit.min() > 1e-4 * np.abs(theta).max()
    np.testing.assert_allclose(rnorm, explicit, rtol=1e-10, atol=0.0)


def test_krylov_loop_holds_two_basis_arrays(torus8_beltrami, monkeypatch):
    """The loop's memory peaks below three (n, m) arrays: it holds the basis
    V and its image M1 V, not g V, and a thick restart makes no (n, m/2)
    temporary.  The n=8 torus at k=2 restarts twice."""
    import tracemalloc

    import fieldtopo.beltrami as beltrami

    pen, _ = torus8_beltrami
    k = 2
    peaks, lanczos = [], beltrami._block_lanczos

    def traced(*args):
        tracemalloc.start()
        try:
            return lanczos(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(beltrami, "_block_lanczos", traced)
    smallest_beltrami(pen, k=k, tol=1e-8)
    basis_array = pen.ndof * beltrami._BASIS_BLOCKS * k * 8
    assert 2 * basis_array <= peaks[0] < 2.75 * basis_array


def _negative_count(pen, s):
    """Number of eigenvalues below s of S x = lambda M1 x, by Sylvester's
    law of inertia: the negative pivots of an LU of S - s M1 with no row
    pivoting, which makes it a congruence P (S - s M1) P^T = L D L^T."""
    lu = spla.splu(
        (pen.S - s * pen.M1).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        options=dict(SymmetricMode=True, DiagPivotThresh=0.0),
    )
    assert np.array_equal(lu.perm_r, lu.perm_c), "row pivoting: the count is not an inertia"
    return int(np.count_nonzero(lu.U.diagonal() < 0))


@pytest.mark.parametrize(
    "make, bc, k, window",
    [
        (
            lambda: gen_grid(GridSpec(8, 8, 8, TAU, TAU, TAU, periodic=(True, True, True))),
            BoundaryCondition.parse("closed-mesh"),
            2,
            6,
        ),
        (lambda: gen_box_minus_ring(7), BoundaryCondition.parse("zero-trace"), 1, 1),
    ],
    ids=["torus3-8", "box-ring-7-zero-trace"],
)
def test_inertia_no_pair_missed(make, bc, k, window):
    """Sylvester inertia counts confirm the solver's answer independently:
    no eigenvalue lies between a tiny positive shift a and the smallest
    returned lambda, the 1e-6 window around lambda holds the whole cluster
    (6-fold on the 3-torus), and the count across [-a, a) covers at least
    the gradient and harmonic columns of the structural kernel."""
    cx = make()
    pen = reduce_system(cx, bc)
    proj = kernel_projector(pen)
    lam = smallest_beltrami(pen, k=k, tol=1e-8).lambdas.min()
    assert lam > 0
    a = 1e-3 * default_shift(cx)
    below, above = _negative_count(pen, lam * (1 - 1e-6)), _negative_count(pen, lam * (1 + 1e-6))
    neg_a, neg_minus_a = _negative_count(pen, a), _negative_count(pen, -a)
    assert below - neg_a == 0
    assert above - below == window
    assert neg_a - neg_minus_a >= proj.gradient.shape[1] + proj.harmonic_dimension


def test_inertia_counts_match_bloch_oracle(torus8_beltrami):
    """On the closed torus3 n=8 pencil the Sylvester count below each shift
    equals the Bloch oracle's: on both sides of the curl kernel, on both
    sides of the first 6-fold cluster at 0.95260123 and past the next ones."""
    pen, _ = torus8_beltrami
    oracle = bloch_spectrum(8, TAU)
    a, lam1 = 1e-3 * default_shift(pen.complex), 0.95260123
    shifts = [-1.2, -a, a, lam1 * (1 - 1e-6), lam1 * (1 + 1e-6), 1.05, 1.2, 1.5]
    counts = [_negative_count(pen, s) for s in shifts]
    assert counts == [int(np.sum(oracle < s)) for s in shifts]
    assert counts == [994, 1018, 2566, 2566, 2572, 2572, 2590, 2640]


def test_bloch_oracle_matches_dense_spectrum():
    """The Bloch symbols give all 189 eigenvalues of the torus3 n=3 pencil,
    the 85 of the curl kernel included, and 52 on the positive side."""
    cx = gen_grid(GridSpec(3, 3, 3, TAU, TAU, TAU, periodic=(True, True, True)))
    pen = reduce_system(cx, BoundaryCondition.parse("closed-mesh"))
    dense = sla.eigh(pen.S.toarray(), pen.M1.toarray(), eigvals_only=True)
    oracle = bloch_spectrum(3, TAU)
    np.testing.assert_allclose(oracle, dense, rtol=0, atol=1e-12)
    assert np.sum(oracle > 1e-8) == 52


def test_bloch_oracle_matches_solver(torus8_beltrami):
    """k=12 on torus3 n=8 returns the oracle's 12 smallest positive
    eigenvalues: the first two clusters, 6 x 0.95260123 and 6 x 1.11029212."""
    pen, _ = torus8_beltrami
    sol = smallest_beltrami(pen, k=12)
    oracle = bloch_spectrum(8, TAU)
    positive = oracle[oracle > 1e-8][:12]
    np.testing.assert_allclose(sol.lambdas, positive, rtol=1e-9)
    np.testing.assert_allclose(positive, [0.95260123] * 6 + [1.11029212] * 6, atol=5e-9)

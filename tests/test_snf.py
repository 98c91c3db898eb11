import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fieldtopo.homology as homology
from fieldtopo.mesh import spanning_forest
from fieldtopo.snf import integer_kernel_basis, smith_normal_form
from fields import reference_kernel_basis


def bareiss_det(M):
    """Exact integer determinant (fraction-free elimination)."""
    M = [[int(v) for v in row] for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def minor_gcd_factors(A):
    """Brute-force invariant factors: d_k = gcd(k-minors)/gcd((k-1)-minors)."""
    from itertools import combinations
    from math import gcd

    A = [[int(v) for v in row] for row in np.atleast_2d(A)]
    m, n = len(A), len(A[0])
    prev = 1
    factors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                g = gcd(g, bareiss_det(sub))
                if g == prev:
                    break  # cannot get smaller: gcd(k-1 minors) divides it
            if g == prev:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_identity():
    assert smith_normal_form(np.eye(3, dtype=int)).invariant_factors == [1, 1, 1]


def test_known_2x2():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form([[2, 4], [6, 8]]).invariant_factors == [2, 4]


def test_zero_matrix():
    r = smith_normal_form(np.zeros((3, 5), dtype=int))
    assert r.rank == 0
    assert r.invariant_factors == []


def test_torsion_example():
    # diag(2,6) has factors (2,6); the off-diagonal mix still reduces to it
    assert smith_normal_form([[2, 0], [0, 6]]).invariant_factors == [2, 6]
    assert smith_normal_form([[6, 4], [4, 4]]).invariant_factors == [2, 4]


def test_random_vs_minor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = rng.integers(1, 7, size=2)
        A = rng.integers(-9, 10, size=(m, n))
        assert smith_normal_form(A).invariant_factors == minor_gcd_factors(A)


def test_transforms_unimodular_and_diagonal():
    rng = np.random.default_rng(11)
    mats = [rng.integers(-9, 10, size=rng.integers(1, 8, size=2)) for _ in range(25)]
    # entries without units give non-unit pivots, so the divisibility step runs
    units_free = [0, 2, -2, 3, -3, 4, -4, 5]
    mats += [rng.choice(units_free, size=rng.integers(1, 8, size=2)) for _ in range(25)]
    mats.append(np.array([[2, 0], [0, 3]]))  # diagonal, but its factors are (1, 6)
    for A in mats:
        m, n = A.shape
        r = smith_normal_form(A, transforms=True)
        D = r.U @ A.astype(object) @ r.V
        expect = np.zeros((m, n), dtype=object)
        for k, f in enumerate(r.invariant_factors):
            expect[k, k] = f
        assert np.array_equal(D, expect)
        # divisibility chain
        f = r.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
        # unimodular transforms
        assert abs(bareiss_det(r.U.tolist())) == 1
        assert abs(bareiss_det(r.V.tolist())) == 1


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_transforms_of_empty_matrix(shape):
    m, n = shape
    r = smith_normal_form(np.zeros(shape, dtype=int), transforms=True)
    assert r.invariant_factors == []
    assert np.array_equal(r.U, np.eye(m, dtype=int)) and r.U.shape == (m, m)
    assert np.array_equal(r.V, np.eye(n, dtype=int)) and r.V.shape == (n, n)
    D = r.U @ np.zeros(shape, dtype=object) @ r.V
    assert D.shape == shape and not D.any()


def test_rank_helpers():
    A = np.array([[2, 4], [6, 8]])
    assert smith_normal_form(A).rank == 2
    B = np.array([[1, 2], [2, 4]])
    assert smith_normal_form(B).rank == 1


def test_kernel_basis_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = rng.integers(2, 7, size=2)
        A = rng.integers(-4, 5, size=(m, n))
        K = integer_kernel_basis(A)
        assert len(K) == n - smith_normal_form(A).rank
        for vec in K:
            assert np.all(A @ vec == 0)


def test_kernel_basis_saturated():
    # kernel of [2 0 4; 0 3 6] is generated by (-2,-2,1), primitively
    K = integer_kernel_basis(np.array([[2, 0, 4], [0, 3, 6]]))
    assert len(K) == 1
    from math import gcd

    g = gcd(gcd(int(K[0][0]), int(K[0][1])), int(K[0][2]))
    assert g == 1


def test_boundary_matrix_factors_all_unit(cube4):
    for mat in (cube4.D0, cube4.D1, cube4.D2):
        f = smith_normal_form(mat).invariant_factors
        assert all(v == 1 for v in f)


def assert_same_saturated_kernel(A, K):
    ref = reference_kernel_basis(A)
    assert len(K) == len(ref)
    for got, want in zip(K, ref):
        assert np.array_equal(got, want)
    if K:
        stacked = np.column_stack(K)
        assert not np.any(A @ stacked)
        # saturated lattice: the stacked kernel has all invariant factors 1
        assert smith_normal_form(sp.csr_matrix(stacked)).invariant_factors == [1] * len(K)


@st.composite
def sparse_int_matrices(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1),
                st.integers(0, n - 1),
                st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
            ),
            max_size=2 * (m + n),
        )
    )
    A = np.zeros((m, n), dtype=np.int64)
    for i, j, v in entries:
        A[i, j] = v
    return A


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
# row 2's only entry is a unit in column 2, shared with rows 0, 1 and 3:
# retiring that column alone changes them and must re-queue them
@example(
    np.array(
        [
            [0, 0, -3, 0, 2, -1, 0],
            [-3, -1, -4, 0, -4, 0, 0],
            [0, 0, -1, 0, 0, 0, 0],
            [0, -3, -4, 4, 0, 0, 0],
        ]
    )
)
# the forced-zero peel cascades over three rounds: row 4 is a lone unit,
# peeling its column leaves row 3 one, and that leaves row 2 one; a 2x2
# core of rank 1 is left
@example(
    np.array(
        [
            [0, 0, 0, 2, 4],
            [0, 0, 3, 1, 2],
            [0, 2, -1, 0, 0],
            [-1, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ]
    )
)
# row 1's lone entry is 2: it forces column 0 to zero too, but peeling it
# would change the pivots and return the kernel vectors in the other order
@example(np.array([[0, 2, 2, 0, -1], [2, 0, 0, 0, 0], [-1, -1, 0, 1, 0]]))
# the peel takes columns 2 then 0 and leaves column 1 empty: it is e_1
@example(np.array([[1, 0, 1], [0, 0, 1]]))
def test_kernel_pivot_order_matches_reference(A):
    assert_same_saturated_kernel(A, integer_kernel_basis(sp.csr_matrix(A)))


@st.composite
def torsion_rich_matrices(draw):
    """At least 65 rows, few unit entries: the sparse elimination leaves a
    remainder with torsion for the dense algorithm."""
    m = draw(st.integers(65, 80))
    n = draw(st.integers(20, 40))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1),
                st.integers(0, n - 1),
                st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]),
            ),
            min_size=m,
            max_size=2 * m,
        )
    )
    A = np.zeros((m, n), dtype=np.int64)
    for i, j, v in entries:
        A[i, j] = v
    return A


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_int_matrices(), torsion_rich_matrices()))
def test_sparse_path_matches_dense(A):
    # transforms=True runs the dense algorithm on the whole matrix
    dense = smith_normal_form(A, transforms=True).invariant_factors
    assert smith_normal_form(A).invariant_factors == dense
    assert smith_normal_form(sp.csr_matrix(A)).invariant_factors == dense


def test_kernel_pivot_order_on_tree_gauge_matrix(box_ring):
    tree = spanning_forest(box_ring.edges, box_ring.num_vertices).tree_edges
    nontree = np.setdiff1d(np.arange(box_ring.num_edges), tree)
    A = box_ring.D1.tocsc()[:, nontree]
    assert_same_saturated_kernel(A, integer_kernel_basis(A))


@st.composite
def incidence_matrices(draw):
    """Signed incidence matrices of random multigraphs, edges x vertices or
    transposed."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]), min_size=1, max_size=10))
    A = np.zeros((len(pairs), n), dtype=np.int64)
    for e, (u, v) in enumerate(pairs):
        A[e, u], A[e, v] = -1, 1
    return A.T if draw(st.booleans()) else A


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_int_matrices(), incidence_matrices()))
# rows to the ground (a lone +-1), a self-loop (an empty row) and a repeat,
# as in a relative D0
@example(np.array([[0, 1, 0], [-1, 1, 0], [0, 0, 0], [0, -1, 1], [0, 1, -1], [0, 0, -1]]))
def test_unit_pivots_form_unimodular_block(A):
    """A matrix whose rows are graph edges gets its pivots from a spanning
    forest: the tree edges are distinct rows, as many as its rank, and with
    the columns of the nodes below them they span a block of determinant
    +-1, what clearing a neighbouring map relies on.  Any other matrix gets
    no forest."""
    count, units = (A != 0).sum(axis=1), (np.abs(A) <= 1).all(axis=1)
    is_incidence = ((count <= 2) & units & ((count < 2) | (A.sum(axis=1) == 0))).all()
    forest = homology._incidence_forest(sp.csr_matrix(A))
    assert (forest is not None) == is_incidence
    if forest is None:
        return
    below = np.flatnonzero(forest.parent >= 0)
    rows, cols = forest.edge[below], below - 1
    assert (cols >= 0).all()  # the ground node is never below a tree edge
    assert len(set(rows.tolist())) == len(rows) == smith_normal_form(A, transforms=True).rank
    if len(rows):
        assert abs(bareiss_det(A[np.ix_(rows, cols)])) == 1

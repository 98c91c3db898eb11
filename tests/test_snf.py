import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldtopo.mesh import spanning_forest
from fieldtopo.snf import integer_kernel_basis, smith_normal_form


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
    for _ in range(25):
        m, n = rng.integers(1, 8, size=2)
        A = rng.integers(-9, 10, size=(m, n))
        r = smith_normal_form(A, transforms=True)
        D = r.U @ A.astype(object) @ r.V
        expect = r.diagonal()
        assert np.array_equal(D, expect)
        # divisibility chain
        f = r.invariant_factors
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
        # unimodular transforms
        assert abs(bareiss_det(r.U.tolist())) == 1
        assert abs(bareiss_det(r.V.tolist())) == 1


def test_sparse_path_matches_dense():
    rng = np.random.default_rng(3)
    A = np.zeros((90, 70), dtype=np.int64)
    for _ in range(300):
        A[rng.integers(0, 90), rng.integers(0, 70)] = rng.integers(-5, 6)
    import scipy.sparse as sp

    dense = smith_normal_form(A.tolist()).invariant_factors
    sparse = smith_normal_form(sp.csr_matrix(A)).invariant_factors
    assert dense == sparse


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


def reference_kernel_basis(A) -> list[np.ndarray]:
    """The quadratic pivot search that ``integer_kernel_basis`` replaced.

    Every pivot re-sorts all active rows by (entry count, index) and takes
    the first +-1 entry, scanning the row's columns in (entry count, index)
    order; without unit entries the sparsest row is reduced by Euclidean
    column steps.  Kept as the oracle for the pivot order.
    """
    A = np.asarray(A.todense()) if sp.issparse(A) else np.asarray(A)
    m, n = A.shape
    cols: list[dict[int, int]] = [
        {i: int(A[i, j]) for i in range(m) if A[i, j]} for j in range(n)
    ]
    row_cols: dict[int, set[int]] = {}
    for j, c in enumerate(cols):
        for i in c:
            row_cols.setdefault(i, set()).add(j)
    V: list[dict[int, int]] = [{j: 1} for j in range(n)]
    active_cols = set(range(n))
    active_rows = set(row_cols)

    def add_col(dst, src, f):
        cd, cs = cols[dst], cols[src]
        for i, v in cs.items():
            w = cd.get(i, 0) + f * v
            if w:
                if i not in cd:
                    row_cols.setdefault(i, set()).add(dst)
                cd[i] = w
            elif i in cd:
                del cd[i]
                row_cols[i].discard(dst)
        vd, vs = V[dst], V[src]
        for k, v in vs.items():
            w = vd.get(k, 0) + f * v
            if w:
                vd[k] = w
            elif k in vd:
                del vd[k]

    while True:
        pivot = None
        for i in sorted(active_rows, key=lambda r: (len(row_cols[r]), r)):
            for j in sorted(row_cols[i], key=lambda c: (len(cols[c]), c)):
                if abs(cols[j][i]) == 1:
                    pivot = (i, j)
                    break
            if pivot is not None:
                break
        if pivot is None:
            live = [i for i in active_rows if row_cols[i]]
            if not live:
                break
            i = min(live, key=lambda r: (len(row_cols[r]), r))
            while len(row_cols[i]) > 1:
                j = min(row_cols[i], key=lambda c: (abs(cols[c][i]), c))
                for k in list(row_cols[i]):
                    if k != j:
                        add_col(k, j, -(cols[k][i] // cols[j][i]))
            pivot = (i, next(iter(row_cols[i])))
        i, j = pivot
        piv = cols[j][i]
        if abs(piv) == 1:
            for k in list(row_cols[i]):
                if k != j:
                    add_col(k, j, -cols[k][i] * piv)
        active_cols.discard(j)
        for r in cols[j]:
            row_cols[r].discard(j)
        active_rows.discard(i)
        if not active_rows:
            break

    kernel = []
    for j in sorted(active_cols):
        if not cols[j]:
            vec = np.zeros(n, dtype=np.int64)
            for k, v in V[j].items():
                vec[k] = v
            kernel.append(vec)
    return kernel


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
def test_kernel_pivot_order_matches_reference(A):
    assert_same_saturated_kernel(A, integer_kernel_basis(sp.csr_matrix(A)))


def test_kernel_pivot_order_on_tree_gauge_matrix(box_ring):
    tree = spanning_forest(box_ring.edges).tree_edges
    nontree = np.setdiff1d(np.arange(box_ring.num_edges), tree)
    A = box_ring.D1.tocsc()[:, nontree]
    assert_same_saturated_kernel(A, integer_kernel_basis(A))

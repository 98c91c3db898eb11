import numpy as np
import pytest

from fieldtopo.fem import build_fem, curl_pairing, field_proxies, mass_matrix
from fieldtopo.generators import GridSpec, gen_grid
from fieldtopo.mesh import build_complex
from fields import edge_interpolant, face_flux_interpolant

# unit right-corner reference tet, volume 1/6
REF = build_complex(
    np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), [[0, 1, 2, 3]]
)
TAU = 2 * np.pi


def test_m1_reference_entry():
    # int |lam0 grad lam1 - lam1 grad lam0|^2 over the reference tet
    M1 = mass_matrix(REF).toarray()
    assert M1[0, 0] == pytest.approx(1 / 12, abs=1e-15)


def test_curl_proxy_reference():
    # edge (1,2) is canonical edge index 3; curl w = 2 e1 x e2 = (0,0,2)
    h = np.zeros(6)
    h[3] = 1.0
    _, curlH = field_proxies(REF, h)
    assert np.allclose(curlH[0], [0, 0, 2], atol=1e-15)


def test_mass_matrices_spd(cube4):
    rng = np.random.default_rng(0)
    M = build_fem(cube4).M1
    assert abs(M - M.T).max() < 1e-14
    np.linalg.cholesky(M.toarray())  # SPD iff this succeeds
    for _ in range(5):
        x = rng.standard_normal(M.shape[0])
        assert x @ (M @ x) > 0


def test_curl_pairing_symmetric_on_closed_mesh(torus3_coarse):
    S = build_fem(torus3_coarse).S
    assert abs(S - S.T).max() <= 1e-13 * abs(S).max()


def test_curl_grad_annihilation(cube4, torus3_coarse):
    rng = np.random.default_rng(1)
    # exact identity: the transpose pairing sees curl(grad) = 0 on any mesh
    g = cube4.D0 @ rng.standard_normal(cube4.num_vertices)
    S = build_fem(cube4).S
    assert np.abs(S.T @ g).max() <= 1e-13 * abs(S).max()
    # on a closed mesh S is symmetric, so S itself annihilates gradients too
    g = torus3_coarse.D0 @ rng.standard_normal(torus3_coarse.num_vertices)
    S = build_fem(torus3_coarse).S
    assert np.abs(S @ g).max() <= 1e-13 * abs(S).max()


def test_laplacian_kernel_and_energy(cube4):
    D0 = cube4.D0.astype(float)
    L0 = D0.T @ build_fem(cube4).M1 @ D0
    ones = np.ones(cube4.num_vertices)
    assert np.abs(L0 @ ones).max() < 1e-13
    phi = cube4.vertices[:, 0]
    # Dirichlet energy of a unit gradient = mesh volume = 1
    assert phi @ (L0 @ phi) == pytest.approx(1.0, rel=1e-12)


def test_gradient_proxy_exact(cube4):
    phi = cube4.vertices[:, 0]
    H, curlH = field_proxies(cube4, cube4.D0 @ phi)
    assert np.abs(H - [1, 0, 0]).max() < 1e-13
    assert np.abs(curlH).max() < 1e-13


def test_zero_cochain_zero_proxies(cube4):
    H, curlH = field_proxies(cube4, np.zeros(cube4.num_edges))
    assert not H.any() and not curlH.any()


def test_constant_field_interpolation_exact(cube4):
    v = np.array([1.0, -2.0, 0.5])
    h = edge_interpolant(cube4, lambda P: np.broadcast_to(v, P.shape))
    H, _ = field_proxies(cube4, h)
    assert np.abs(H - v).max() < 1e-13


def test_affine_field_interpolation_first_order():
    A = np.array([[0.4, 1.0, -0.3], [0.2, -0.5, 0.8], [1.1, 0.0, 0.6]])

    def v(P):
        return P @ A.T

    errs = []
    for n in (2, 4):
        cx = gen_grid(GridSpec(n, n, n))
        h = edge_interpolant(cx, v)
        H, _ = field_proxies(cx, h)
        errs.append(np.abs(H - v(cx.tet_coords.mean(axis=1))).max())
    assert errs[1] < 0.7 * errs[0]


def test_commutation_exact_for_affine(cube4):
    A = np.array([[0.0, 1, 2], [3, 4, 5], [0.5, -1, 2]])
    c = np.array([0.3, -0.2, 0.7])

    def v(P):
        return P @ A.T + c

    curl_v = np.array([A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]])
    h = edge_interpolant(cube4, v)
    f = face_flux_interpolant(cube4, lambda P: np.broadcast_to(curl_v, P.shape))
    assert np.abs(cube4.D1 @ h - f).max() < 1e-12


def test_analytic_beltrami_interpolant_consistency():
    """curl proxy approaches the field proxy for curl v = v under refinement.

    Measured convergence of the barycenter proxies is first order in the
    max norm for the plain interpolant.
    """

    def v(P):
        z = np.zeros(len(P))
        return np.column_stack([z, np.sin(P[:, 0]), np.cos(P[:, 0])])

    errs = []
    for n in (8, 16):
        cx = gen_grid(GridSpec(n, n, n, TAU, TAU, TAU, periodic=(True, True, True)))
        h = edge_interpolant(cx, v)
        H, curlH = field_proxies(cx, h)
        errs.append(np.linalg.norm(curlH - H, axis=1).max())
    assert errs[1] < 0.6 * errs[0]


def test_assembly_uses_minimal_image_shapes():
    # periodic mesh: total mass volume must equal the domain volume
    cx = gen_grid(GridSpec(3, 3, 3, 2.0, 2.0, 2.0, periodic=(True, True, True)))
    vols = cx.volumes()
    assert vols.sum() == pytest.approx(8.0, rel=1e-12)
    assert vols.min() > 0


def test_curl_pairing_skew_part_is_boundary_term(cube4):
    """On a bounded mesh the skew part of S pairs only boundary traces:
    fields with vanishing tangential trace see a symmetric S."""
    S = build_fem(cube4).S
    from fieldtopo.surface import boundary_surface

    surf = boundary_surface(cube4)
    interior = np.setdiff1d(np.arange(cube4.num_edges), surf.parent_edge_ids)
    Sii = S[interior][:, interior]
    assert abs(Sii - Sii.T).max() <= 1e-13 * abs(S).max()
    # and the full skew part is nonzero (the boundary pairing itself)
    assert abs(S - S.T).max() > 1e-6

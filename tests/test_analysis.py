import numpy as np
import pytest

from fieldtopo.analysis import (
    TetLabel,
    Verdict,
    analyze_field,
    classify,
    energy,
    helicity,
    identity_check,
    masked_components,
    near_forcefree_check,
    support_mask,
    twist_density,
    twist_noise_floor,
)
from fieldtopo.beltrami import default_shift, smallest_beltrami
from fieldtopo.errors import EmptySupport
from fieldtopo.fem import build_fem, field_proxies
from fieldtopo.generators import GridSpec, gen_grid
from fields import cluster_align, edge_interpolant


@pytest.fixture(scope="module")
def aligned_eigenfield(torus8_beltrami, torus3_8):
    _, sol = torus8_beltrami

    def v(P):
        z = np.zeros(len(P))
        return np.column_stack([z, np.sin(P[:, 0]), np.cos(P[:, 0])])

    return cluster_align(sol, edge_interpolant(torus3_8, v)), sol.lambdas[0]


def test_helicity_of_eigenpair(torus8_beltrami, torus3_8):
    _, sol = torus8_beltrami
    h = sol.cochains[:, 0]
    lam = sol.lambdas[0]
    fem = build_fem(torus3_8)
    assert helicity(fem, h) == pytest.approx(lam * energy(fem, h), rel=1e-10)


def test_twist_of_gradient_is_roundoff(torus3_coarse):
    g = torus3_coarse.D0 @ np.sin(torus3_coarse.vertices[:, 0])
    H, curlH = field_proxies(torus3_coarse, g)
    m = twist_density(H, curlH)
    assert np.abs(m).max() <= twist_noise_floor(torus3_coarse, H)


def test_twist_noise_floor_scales_with_shortest_edge():
    """The floor is 1e-12 |H|^2 over the true shortest edge, also above 1."""
    floors = []
    for L in (1.0, 2 * np.pi, 20.0):
        cx = gen_grid(GridSpec(4, 4, 4, L, L, L, periodic=(True, True, True)))
        floors.append(twist_noise_floor(cx, np.ones((cx.num_tets, 3))) * L)
    assert floors == pytest.approx([floors[0]] * 3, rel=1e-12)
    assert floors[0] == pytest.approx(1e-12 * 3 * 4)


def test_twist_of_beltrami_eigenfield(aligned_eigenfield, torus3_8):
    h, lam = aligned_eigenfield
    H, curlH = field_proxies(torus3_8, h)
    m = twist_density(H, curlH)
    mag2 = np.einsum("tc,tc->t", H, H)
    strong = mag2 >= 0.1 * mag2.mean()
    # m = lambda |H|^2 up to discretization error; strict sign on the support
    assert np.all(np.sign(m[strong]) == np.sign(lam))
    rel = np.abs(m[strong] - lam * mag2[strong]) / (abs(lam) * mag2[strong])
    assert np.median(rel) < 0.5


def test_twist_flips_sign(torus3_coarse):
    rng = np.random.default_rng(0)
    h = rng.standard_normal(torus3_coarse.num_edges)
    m = twist_density(*field_proxies(torus3_coarse, h))
    mneg = twist_density(*field_proxies(torus3_coarse, -h))
    assert np.allclose(mneg, m)  # quadratic: both H and curlH flip
    # odd under flipping only one factor is covered by the identity below


def test_classify_eigenfield_contact(aligned_eigenfield, torus3_8):
    h, lam = aligned_eigenfield
    rep = analyze_field(torus3_8, h)
    assert rep.verdict is Verdict.CONTACT
    assert all(
        rep.labels[t] is TetLabel.CONTACT_POS
        for t in np.flatnonzero(rep.support)
    )


def test_classify_gradient_foliation(torus3_coarse):
    g = torus3_coarse.D0 @ np.sin(torus3_coarse.vertices[:, 0])
    rep = analyze_field(torus3_coarse, g)
    assert rep.verdict is Verdict.FOLIATION


def test_classify_mixed(torus8_beltrami):
    pen, sol = torus8_beltrami
    neg = smallest_beltrami(pen, k=1, tol=1e-8, shift=-default_shift(pen.complex))
    mix = sol.cochains[:, 0] + neg.cochains[:, 0]
    rep = analyze_field(pen.complex, mix)
    assert rep.verdict is Verdict.MIXED


def test_classify_scale_invariant(aligned_eigenfield, torus3_8):
    h, _ = aligned_eigenfield
    a = analyze_field(torus3_8, h)
    b = analyze_field(torus3_8, 3.0 * h)
    assert a.verdict == b.verdict
    assert a.labels == b.labels


def test_classify_negation_invariance(aligned_eigenfield, torus3_8):
    """m = H . curl H is quadratic, hence even under h -> -h: labels and
    verdict are invariant (negating the field does not reverse the twist)."""
    h, _ = aligned_eigenfield
    a = analyze_field(torus3_8, h)
    b = analyze_field(torus3_8, -h)
    assert a.verdict is Verdict.CONTACT and b.verdict is Verdict.CONTACT
    assert b.labels == a.labels


def test_classify_sign_branches_swap_under_m_negation(cube4):
    """The sign branches do swap when the twist itself changes sign."""
    m = np.ones(cube4.num_tets)
    support = np.ones(cube4.num_tets, dtype=bool)
    la, va = classify(m, support)
    lb, vb = classify(-m, support)
    assert va is Verdict.CONTACT and vb is Verdict.CONTACT
    assert all(x is TetLabel.CONTACT_POS for x in la)
    assert all(x is TetLabel.CONTACT_NEG for x in lb)


def test_classify_confoliation_branch(cube4):
    # synthetic m: nonnegative with interior zeros on support
    m = np.zeros(cube4.num_tets)
    m[::2] = 1.0
    support = np.ones(cube4.num_tets, dtype=bool)
    labels, verdict = classify(m, support)
    assert verdict is Verdict.CONFOLIATION_POS
    labels, verdict = classify(-m, support)
    assert verdict is Verdict.CONFOLIATION_NEG


def test_near_forcefree_eigenfield(aligned_eigenfield, torus3_8):
    h, _ = aligned_eigenfield
    assert near_forcefree_check(torus3_8, *field_proxies(torus3_8, h)) == [True]


def test_near_forcefree_perpendicular_field(torus3_coarse):
    # B ~ (1,0,0) + (0,0,x): J ~ (0,-1,0) is orthogonal to B everywhere
    def v(P):
        return np.column_stack(
            [np.ones(len(P)), np.zeros(len(P)), P[:, 0]]
        )

    h = edge_interpolant(torus3_coarse, v)
    assert near_forcefree_check(torus3_coarse, *field_proxies(torus3_coarse, h)) == [False]


def test_near_forcefree_reads_the_labels(aligned_eigenfield, torus3_8, torus3_coarse):
    """A component of the joint support reads True exactly when it holds no
    FOLIATION or DEGENERATE tet: both read |m| <= tau with one tolerance."""
    def perpendicular(P):
        return np.column_stack([np.ones(len(P)), np.zeros(len(P)), P[:, 0]])

    rng = np.random.default_rng(5)
    cases = [
        (torus3_8, aligned_eigenfield[0]),
        (torus3_coarse, edge_interpolant(torus3_coarse, perpendicular)),
        (torus3_coarse, rng.standard_normal(torus3_coarse.num_edges)),
    ]
    zero = {TetLabel.FOLIATION, TetLabel.DEGENERATE}
    seen = set()
    for cx, h in cases:
        rep = analyze_field(cx, h)
        H, curlH = field_proxies(cx, h)
        B2, J2 = (np.einsum("tc,tc->t", v, v) for v in (H, curlH))
        comps = masked_components(cx, (B2 >= 1e-3 * B2.mean()) & (J2 >= 1e-3 * J2.mean()))
        assert len(comps) == len(rep.near_forcefree) > 0
        for comp, ok in zip(comps, rep.near_forcefree):
            assert ok == all(rep.labels[t] not in zero for t in comp)
            seen.add(ok)
    assert seen == {True, False}


def test_near_forcefree_empty_support(torus3_coarse):
    with pytest.raises(EmptySupport):
        near_forcefree_check(
            torus3_coarse, *field_proxies(torus3_coarse, np.zeros(torus3_coarse.num_edges))
        )


def test_identity_random_cochains(torus3_coarse):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        h = rng.standard_normal(torus3_coarse.num_edges)
        worst = max(worst, identity_check(*field_proxies(torus3_coarse, h)))
    assert worst <= 1e-12


def test_identity_zero_field(torus3_coarse):
    assert identity_check(
        *field_proxies(torus3_coarse, np.zeros(torus3_coarse.num_edges))
    ) == 0.0


def test_identity_eigenfield_cross_term_small(aligned_eigenfield, torus3_8):
    h, _ = aligned_eigenfield
    H, curlH = field_proxies(torus3_8, h)
    assert identity_check(H, curlH) <= 1e-12
    cross2 = np.einsum("tc,tc->t", np.cross(curlH, H), np.cross(curlH, H))
    dot2 = np.einsum("tc,tc->t", curlH, H) ** 2
    # force-free up to discretization: the cross term is a small fraction of
    # the identity (proxy misalignment is first order in h; ~0.12 at n=8)
    assert cross2.sum() < 0.2 * dot2.sum()


def test_field_report_shape(aligned_eigenfield, torus3_8):
    h, _ = aligned_eigenfield
    rep = analyze_field(torus3_8, h)
    doc = rep.to_dict()
    assert doc["verdict"] == "contact"
    assert doc["near_forcefree"] == [True]
    assert doc["identity_max_violation"] <= 1e-12
    assert len(rep.twist) == torus3_8.num_tets


def test_support_mask_threshold(torus3_coarse):
    h = np.zeros(torus3_coarse.num_edges)
    h[0] = 1.0
    sup = support_mask(field_proxies(torus3_coarse, h)[0])
    assert 0 < sup.sum() < torus3_coarse.num_tets


def test_zero_field_has_no_support():
    """A zero field is on no tet: every tet is degenerate, the verdict is the
    empty support's foliation and the near-force-free list is empty, with
    support_mask the one rule for B and for J."""
    cx = gen_grid(GridSpec(3, 3, 3, periodic=(True, True, True)))
    assert cx.num_tets == 162
    doc = analyze_field(cx, np.zeros(cx.num_edges)).to_dict()
    assert doc["support_tets"] == 0
    assert doc["label_counts"] == {"degenerate": 162}
    assert doc["verdict"] == "foliation"
    assert doc["near_forcefree"] == []

"""Relabelling invariants: a random order of the vertices and tets changes
neither the spectrum nor the harmonic dimension, and the field report only
follows the tets."""

import numpy as np
import pytest

from fieldtopo.analysis import analyze_field
from fieldtopo.beltrami import BoundaryCondition, reduce_system, smallest_beltrami
from fieldtopo.mesh import build_complex
from fields import edge_interpolant


def _relabel(cx, seed: int):
    """``cx`` with its vertices and tets in random order, and the tet order."""
    rng = np.random.default_rng(seed)
    vp = rng.permutation(cx.num_vertices)
    tp = rng.permutation(cx.num_tets)
    inv = np.argsort(vp)
    return build_complex(cx.vertices[vp], inv[cx.tets[tp]], cx.tet_coords[tp]), tp


def _abc(P):
    """The Arnold-Beltrami-Childress field with A = B = C = 1."""
    x, y, z = P.T
    return np.column_stack([np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)])


# torus3 k=6 is the whole first cluster, so the pairs do not depend on
# which of its vectors the solver picks
@pytest.mark.parametrize(
    "mesh,bc,k", [("torus3_coarse", "closed-mesh", 6), ("box_ring", "zero-trace", 3)]
)
def test_relabelling_keeps_spectrum_and_report(request, mesh, bc, k):
    cx = request.getfixturevalue(mesh)
    rx, tp = _relabel(cx, seed=7)
    assert "seam_crossings" not in rx.meta

    a, b = (smallest_beltrami(reduce_system(m, BoundaryCondition.parse(bc)), k=k) for m in (cx, rx))
    np.testing.assert_allclose(b.lambdas, a.lambdas, rtol=1e-12, atol=0)
    assert b.harmonic_dimension == a.harmonic_dimension

    fa, fb = (analyze_field(m, edge_interpolant(m, _abc)) for m in (cx, rx))
    assert fb.verdict == fa.verdict
    assert fb.to_dict()["label_counts"] == fa.to_dict()["label_counts"]
    scale = np.abs(fa.twist).max()
    np.testing.assert_allclose(fb.twist, fa.twist[tp], rtol=1e-12, atol=1e-12 * scale)

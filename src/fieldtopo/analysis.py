"""Helicity, twist density, contact/confoliation classification, force checks.

All pointwise quantities come from the barycenter proxies: B = H (unit
permeability), J = curl H, twist density m = H . curl H per tet.  Pointwise
the Lagrange identity |J|^2|B|^2 = |JxB|^2 + (J.B)^2 holds to round-off for
any cochain; the sign structure of m distinguishes foliations (m = 0),
contact structures (one strict sign) and confoliations (one weak sign).
A tet has zero twist when |m| <= tau = max(1e-9 max|m|, noise floor): the
labels and the near-force-free check read this one tolerance.  The per-tet
functions take the proxies (H, curl H), not a cochain: ``analyze_field``
evaluates them once per field, and a caller may pass any other per-tet
current in place of curl H.  Helicity and energy are ``fem.helicity`` and
``fem.energy``, the definitions the eigensolver reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import EmptySupport
from .fem import FemMatrices, energy, field_proxies, helicity
from .mesh import SimplicialComplex3

SUPPORT_EPS = 1e-3
LABEL_TOL_FACTOR = 1e-9


class TetLabel(Enum):
    CONTACT_POS = "contact+"
    CONTACT_NEG = "contact-"
    FOLIATION = "foliation"
    DEGENERATE = "degenerate"


class Verdict(Enum):
    CONTACT = "contact"
    CONFOLIATION_POS = "confoliation+"
    CONFOLIATION_NEG = "confoliation-"
    FOLIATION = "foliation"
    MIXED = "mixed"


def _sq(v: np.ndarray) -> np.ndarray:
    return np.einsum("tc,tc->t", v, v)


def twist_density(H: np.ndarray, curlH: np.ndarray) -> np.ndarray:
    """Per-tet twist m = H . curl H from the barycenter proxies."""
    return np.einsum("tc,tc->t", H, curlH)


def support_mask(H: np.ndarray) -> np.ndarray:
    """Tets where |H|^2 >= SUPPORT_EPS x mean |H|^2 > 0; empty for a zero field."""
    mag2 = _sq(H)
    return (mag2 > 0.0) & (mag2 >= SUPPORT_EPS * mag2.mean())


def twist_noise_floor(cx: SimplicialComplex3, H: np.ndarray) -> float:
    """Round-off scale of the twist density for this field and mesh.

    m carries units field^2/length; the floor is 1e-12 x max|H|^2 divided by
    the shortest edge (1 on a mesh without edges), far above accumulated
    round-off of an exact foliation but far below any physical twist at desk
    scale.
    """
    hmin = float(cx.edge_lengths().min()) if cx.num_edges else 1.0
    return 1e-12 * _sq(H).max(initial=0.0) / hmin


def _twist_tolerance(m: np.ndarray, tau_floor: float) -> float:
    return max(LABEL_TOL_FACTOR * np.abs(m).max(initial=0.0), tau_floor)


def classify(
    m: np.ndarray, support: np.ndarray, tau_floor: float = 0.0
) -> tuple[list[TetLabel], Verdict]:
    """Label each tet by the sign of m and reduce to a global verdict.

    Tolerance scales with max|m|, so the verdict is invariant under positive
    rescaling of the field.  Negating the field leaves the labels unchanged
    (m is quadratic in the field); negating m, as an orientation-reversing
    change of coordinates does, swaps the sign branches.
    ``tau_floor`` guards the degenerate case where the whole m array is
    floating-point noise (an exact foliation): without it the tolerance
    would compare noise against noise.
    """
    m = np.asarray(m, dtype=float)
    tau = _twist_tolerance(m, tau_floor)
    labels = np.where(
        np.abs(m) <= tau,
        np.where(support, TetLabel.FOLIATION, TetLabel.DEGENERATE),
        np.where(m > 0, TetLabel.CONTACT_POS, TetLabel.CONTACT_NEG),
    ).tolist()

    on_labels = {lab for lab, on in zip(labels, support) if on}
    if not on_labels or on_labels == {TetLabel.FOLIATION}:
        verdict = Verdict.FOLIATION
    elif on_labels == {TetLabel.CONTACT_POS} or on_labels == {TetLabel.CONTACT_NEG}:
        verdict = Verdict.CONTACT
    elif on_labels <= {TetLabel.CONTACT_POS, TetLabel.FOLIATION}:
        verdict = Verdict.CONFOLIATION_POS
    elif on_labels <= {TetLabel.CONTACT_NEG, TetLabel.FOLIATION}:
        verdict = Verdict.CONFOLIATION_NEG
    else:
        verdict = Verdict.MIXED
    return labels, verdict


def masked_components(cx: SimplicialComplex3, mask: np.ndarray) -> list[np.ndarray]:
    """Connected components (face adjacency) of a tet subset."""
    idx = np.flatnonzero(mask)
    incidence = abs(cx.D2[idx])
    n, labels = sp.csgraph.connected_components(incidence @ incidence.T, directed=False)
    return [idx[labels == c] for c in range(n)]


def near_forcefree_check(
    cx: SimplicialComplex3, H: np.ndarray, curlH: np.ndarray
) -> list[bool]:
    """Nonvanishing twist on every component of the joint support of B and J.

    B = H and J = curlH are per-tet proxies.  Evaluated on every
    face-connected component of Supp(B) & Supp(J), each a ``support_mask``;
    a component passes only if none of its tets has zero twist,
    |m| <= tau, with the tolerance and noise floor that ``analyze_field``
    hands to ``classify``.  So a passing component holds no FOLIATION or
    DEGENERATE tet.  By the Lagrange identity, which ``identity_check``
    audits, m != 0 is |J|^2|B|^2 > |JxB|^2.
    """
    comps = masked_components(cx, support_mask(H) & support_mask(curlH))
    if not comps:
        raise EmptySupport("joint support of B and J is empty")
    m = twist_density(H, curlH)
    twisted = np.abs(m) > _twist_tolerance(m, twist_noise_floor(cx, H))
    return [bool(twisted[comp].all()) for comp in comps]


def identity_check(H: np.ndarray, curlH: np.ndarray) -> float:
    """Max relative violation of |J|^2|B|^2 = |JxB|^2 + (J.B)^2 over tets.

    An exact algebraic identity of the proxy 3-vectors; the return value is
    floating-point noise (<= 1e-12) for any pair of proxies.
    """
    lhs = _sq(curlH) * _sq(H)
    rhs = _sq(np.cross(curlH, H)) + np.einsum("tc,tc->t", curlH, H) ** 2
    scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
    viol = np.abs(lhs - rhs) / scale
    viol[(lhs == 0.0) & (rhs == 0.0)] = 0.0
    return float(viol.max(initial=0.0))


@dataclass
class FieldReport:
    """Full pointwise and global diagnosis of an edge-cochain field."""

    helicity: float
    energy: float
    twist: np.ndarray                  # per-tet m
    labels: list[TetLabel]
    verdict: Verdict
    support: np.ndarray                # on-support mask used for the verdict
    near_forcefree: list[bool]         # per connected component of V
    identity_max_violation: float

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for lab in self.labels:
            counts[lab.value] = counts.get(lab.value, 0) + 1
        return {
            "helicity": self.helicity,
            "energy": self.energy,
            "verdict": self.verdict.value,
            "label_counts": counts,
            "support_tets": int(self.support.sum()),
            "near_forcefree": list(self.near_forcefree),
            "identity_max_violation": self.identity_max_violation,
            "twist_min": float(np.min(self.twist)) if len(self.twist) else 0.0,
            "twist_max": float(np.max(self.twist)) if len(self.twist) else 0.0,
        }


def analyze_field(cx: SimplicialComplex3, fem: FemMatrices, h) -> FieldReport:
    """Assemble the complete FieldReport for one edge cochain."""
    h = np.asarray(h, dtype=float)
    H, curlH = field_proxies(cx, h)
    m = twist_density(H, curlH)
    support = support_mask(H)
    labels, verdict = classify(m, support, tau_floor=twist_noise_floor(cx, H))
    try:
        nff = near_forcefree_check(cx, H, curlH)
    except EmptySupport:
        nff = []
    return FieldReport(
        helicity=float(helicity(fem, h)),
        energy=float(energy(fem, h)),
        twist=m,
        labels=labels,
        verdict=verdict,
        support=support,
        near_forcefree=nff,
        identity_max_violation=identity_check(H, curlH),
    )

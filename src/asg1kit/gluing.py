"""Gluing-data computation and AS-G1 certification for patch interfaces.

For an interface pairing side j of patch i (edge parameter xi) with side J of
patch I, define on the left parameter

    D1(xi) = det grad(G_i)  on the left edge,
    D2(xi) = det grad(G_I)  at the matched point,
    D3(xi) = det [ N_J(e(xi)), N_j(xi) ],

where N is the outward cross-derivative (n . grad)G of the respective side.
The parameterization is AS-G1 along the interface when there are linear
alpha > 0 and beta, one pair per side, with

    D1 * (alpha_J o e) = D2 * alpha_j,
    D1 * (beta_J o e) - D2 * beta_j = D3.

These are the constraints induced by requiring the crossing directions
d = (n + beta t) / alpha to push forward to opposite vectors on the two
sides (`g1_compatibility_residual` applies `fields._crossing_orders`, the
one form of d . grad, to each component of G); boundary edges carry
alpha = 1, beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import _crossing_orders
from .geometry import (
    GeometryError,
    Interface,
    MultiPatch,
    NORMALS,
    edge_coords,
    edge_parameter_map,
    jacobian_det,
)

__all__ = [
    "LinearFunction",
    "EdgeGluing",
    "AsG1Report",
    "GluingData",
    "interface_determinants",
    "recover_gluing",
    "recover_all",
    "g1_compatibility_residual",
]


@dataclass(frozen=True)
class LinearFunction:
    """The linear function a0 + a1 * x on [0, 1]."""

    a0: float
    a1: float

    def __call__(self, x):
        return self.a0 + self.a1 * np.asarray(x, dtype=float)

    @staticmethod
    def from_endpoints(v0: float, v1: float) -> "LinearFunction":
        return LinearFunction(float(v0), float(v1 - v0))

    def endpoints(self) -> tuple[float, float]:
        return self.a0, self.a0 + self.a1

    def flipped(self) -> "LinearFunction":
        """The composition with x -> 1 - x."""
        return LinearFunction(self.a0 + self.a1, -self.a1)


ONE = LinearFunction(1.0, 0.0)
ZERO = LinearFunction(0.0, 0.0)


@dataclass(frozen=True)
class EdgeGluing:
    """Linear gluing data (alpha, beta) of one patch side, own parameter."""

    alpha: LinearFunction = ONE
    beta: LinearFunction = ZERO


@dataclass
class AsG1Report:
    interface: Interface
    residual_alpha: float
    residual_beta: float
    alpha_positive: bool
    normalization_min: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.alpha_positive
            and self.residual_alpha <= self.tol
            and self.residual_beta <= self.tol
        )


@dataclass
class GluingData:
    """Per-edge gluing functions for a whole multi-patch geometry."""

    edges: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)

    def __getitem__(self, key) -> EdgeGluing:
        return self.edges[key]

    def for_patch(self, i: int) -> dict:
        return {j: self.edges[i, j] for j in (1, 2, 3, 4)}

    @property
    def certified(self) -> bool:
        return all(r.passed for r in self.reports)


# -- determinants -----------------------------------------------------------------


def _edge_cross_and_det(patch, j, t):
    """Outward cross-derivative N_j and Jacobian determinant on side j."""
    jet = patch.gmap.jet(*edge_coords(j, t), orders=[(1, 0), (0, 1)])
    n = NORMALS[j]
    N = tuple(n[0] * a + n[1] * b for a, b in zip(jet[1, 0], jet[0, 1]))
    return N, jacobian_det(jet, patch.gmap.zeros)


def interface_determinants(mp: MultiPatch, iface: Interface, xi):
    """(D1, D2, D3) sampled at left-edge parameters ``xi``."""
    xi = np.asarray(xi, dtype=float)
    (i, j), (ii, jj) = iface.left, iface.right
    eta = edge_parameter_map(iface, xi)
    N_left, D1 = _edge_cross_and_det(mp.patches[i], j, xi)
    N_right, D2 = _edge_cross_and_det(mp.patches[ii], jj, eta)
    D3 = N_right[0] * N_left[1] - N_right[1] * N_left[0]  # det [N_J(e) | N_j]
    return D1, D2, D3


def _require_positive(iface: Interface, D1, D2):
    """GeometryError unless the determinants of both sides are positive."""
    low = min(float(np.min(D1)), float(np.min(D2)))
    if low <= 0.0:
        raise GeometryError(
            f"interface {iface.left}-{iface.right}: non-positive Jacobian "
            f"determinant {low:.3e} (geometry not 2-regular along the interface)"
        )


def _chebyshev_samples() -> np.ndarray:
    k = np.arange(64)
    return 0.5 * (1.0 - np.cos((2 * k + 1) * np.pi / 128))


def _sup_residuals(mp, iface, alpha_l, beta_l, alpha_r_left, beta_r_left):
    xi = np.linspace(0.0, 1.0, 501)
    D1, D2, D3 = interface_determinants(mp, iface, xi)
    scale = max(float(np.max(np.abs(D1))), float(np.max(np.abs(D2))),
                float(np.max(np.abs(D3))), 1e-300)
    res_a = float(np.max(np.abs(D1 * alpha_r_left(xi) - D2 * alpha_l(xi)))) / scale
    res_b = float(
        np.max(np.abs(D1 * beta_r_left(xi) - D2 * beta_l(xi) - D3))
    ) / scale
    return res_a, res_b


def _to_right_parameter(fn: LinearFunction, iface: Interface) -> LinearFunction:
    return fn.flipped() if iface.reversed else fn


def recover_gluing(mp: MultiPatch, iface: Interface, tol: float = 1e-10):
    """Normalized gluing data of an interface, plus its AS-G1 report.

    The linear alpha pair minimizes the sampled maximum subject to the
    determinant proportionality (least squares over 64 Chebyshev samples)
    and min-normalization 1; the beta pair is the minimum-norm least-squares
    solution of the D3 constraint.  Near-constant alphas snap to constants.
    """
    xi = _chebyshev_samples()
    D1, D2, D3 = interface_determinants(mp, iface, xi)
    scale = max(float(np.max(np.abs(D1))), float(np.max(np.abs(D2))),
                float(np.max(np.abs(D3))), 1e-300)
    _require_positive(iface, D1, D2)

    phi = np.stack([1.0 - xi, xi], axis=1)
    # the unknowns (alpha or beta)_L, _R in endpoint form: A x = D1 * _R - D2 * _L
    A = np.hstack([-D2[:, None] * phi, D1[:, None] * phi])

    # alpha: D1 * alpha_R - D2 * alpha_L = 0 with linear unknowns
    ratio = D1 / D2
    alpha_positive = True
    if float(np.max(ratio) - np.min(ratio)) <= tol * float(np.max(np.abs(ratio))):
        c = float(np.mean(ratio))
        m = min(c, 1.0)
        aL = LinearFunction(c / m, 0.0)
        aR = LinearFunction(1.0 / m, 0.0)
    else:
        _, _, Vt = np.linalg.svd(A)
        v = Vt[-1]
        if np.all(v < 0):
            v = -v
        if np.any(v <= 0):
            alpha_positive = False
            v = np.abs(v) + 1e-300
        m = float(np.min(v))
        v = v / m
        if abs(v[1] - v[0]) <= tol * max(abs(v[0]), abs(v[1])):
            v[0] = v[1] = 0.5 * (v[0] + v[1])
        if abs(v[3] - v[2]) <= tol * max(abs(v[2]), abs(v[3])):
            v[2] = v[3] = 0.5 * (v[2] + v[3])
        aL = LinearFunction.from_endpoints(v[0], v[1])
        aR = LinearFunction.from_endpoints(v[2], v[3])

    # beta: D1 * beta_R - D2 * beta_L = D3, minimum-norm least squares
    b, *_ = np.linalg.lstsq(A, D3, rcond=None)
    b = np.where(np.abs(b) <= tol * scale, 0.0, b)
    bL = LinearFunction.from_endpoints(b[0], b[1])
    bR = LinearFunction.from_endpoints(b[2], b[3])

    res_a, res_b = _sup_residuals(mp, iface, aL, bL, aR, bR)
    norm_min = min(min(aL.endpoints()), min(aR.endpoints()))
    report = AsG1Report(iface, res_a, res_b, alpha_positive, norm_min, tol)
    left = EdgeGluing(aL, bL)
    right = EdgeGluing(_to_right_parameter(aR, iface), _to_right_parameter(bR, iface))
    return left, right, report


def recover_all(mp: MultiPatch, tol: float = 1e-10) -> GluingData:
    """Recovered gluing for all interfaces plus boundary defaults."""
    data = GluingData()
    for i in range(len(mp.patches)):
        for j in (1, 2, 3, 4):
            data.edges[i, j] = EdgeGluing()
    for iface in mp.interfaces:
        left, right, report = recover_gluing(mp, iface, tol)
        data.edges[iface.left] = left
        data.edges[iface.right] = right
        data.reports.append(report)
    return data


def g1_compatibility_residual(mp: MultiPatch, iface: Interface,
                              left: EdgeGluing, right: EdgeGluing):
    """sup |d_j . grad(G_i) + (d_J . grad(G_I)) o e| over 50 samples of the
    interface, normalized by the largest Jacobian entry encountered."""
    xi = np.linspace(0.0, 1.0, 50)
    eta = edge_parameter_map(iface, xi)
    (i, j), (ii, jj) = iface.left, iface.right

    def pushforward(patch, side, glue, t):
        jet = patch.gmap.jet(*edge_coords(side, t), orders=[(1, 0), (0, 1)])
        d1, d2 = jet[1, 0], jet[0, 1]
        return (np.stack([_crossing_orders(lambda m, n: jet[m, n][c], side, t,
                                           glue.alpha, glue.beta)(0)
                          for c in range(len(d1))], axis=-1),
                max(float(np.max(np.abs(v))) for v in d1 + d2))

    vl, s1 = pushforward(mp.patches[i], j, left, xi)
    vr, s2 = pushforward(mp.patches[ii], jj, right, eta)
    return float(np.max(np.abs(vl + vr))) / max(s1, s2, 1e-300)

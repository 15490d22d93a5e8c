"""Patch-local and global C1-conforming quasi-interpolation.

The patch-local projector starts from the tensor projection Q and adds, for
every side, two correction terms that replace the trace and the outward
normal derivative on that side by dedicated edge projections:

    value:   P0 = endpoint projector of the trace           (in S_{p,k+1})
    normal:  P1 = alpha * proj(crossing derivative) - beta * (tangential P0)'
             with proj the crossing-derivative projector onto S_{p-1,k}

The crossing derivative d_j . grad, d_j = (n_j + beta t_j) / alpha, is
formed by `fields._crossing_orders` alone, for P1's data and in
`check_conformity`.  The data of P0 and of the crossing projection on the
two sides along an edge axis come from one jet of the pullback
(`fields.edge_jet`), read by index arrays into its points, so a patch binds
two edge jets.  Each correction is transported into the patch interior by a
boundary-bubble extension that leaves the data on the other three sides
untouched.  Gluing the per-patch projections of the pullbacks then yields a
globally C1 function whenever the gluing data certifies the geometry.

Sign convention: the order-1 extensions carry a negated bubble factor so
that the *outward* normal derivative of the extension restricted to its own
side is exactly the extended data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .fields import _along, _crossing_orders, ScalarField2D, edge_jet, pullback
from .geometry import (
    CORNERS,
    EDGE_AXIS,
    TANGENTS,
    MultiPatch,
    Patch,
    edge_coords,
    edge_parameter_map,
    jacobian_det,
    side_end,
)
from .gluing import EdgeGluing, GluingData
from .norms import inverse_chain_rule
from .ritz1d import (
    PointFunctionals,
    bubble,
    bubble_breakpoints,
    pi_cross_functionals,
    pi_star_functionals,
    reflected_bubble_spline,
)
from .splines import (
    UniSpline,
    UniSplineSpace,
    derivative,
    embed,
    multiply_by_linear,
    reverse,
)
from .tensor import (
    TensorSpline,
    TensorSplineSpace,
    normal_derivative_trace,
    tensor_project_Q,
    trace,
)

__all__ = [
    "EdgeCorrection",
    "PatchProjection",
    "GlobalProjection",
    "extend",
    "edge_projector_P0",
    "edge_projector_P1",
    "patch_project",
    "global_project",
    "check_conformity",
    "ConformityReport",
]


@dataclass
class EdgeCorrection:
    """Edge data of the order-``sigma`` correction of side ``side`` (`extend`)."""

    side: int
    sigma: int
    edge_spline: UniSpline


@dataclass
class PatchProjection:
    spline: TensorSpline
    corrections: list[EdgeCorrection]


@dataclass
class GlobalProjection:
    multipatch: MultiPatch
    gluing: GluingData
    patches: list[PatchProjection]
    field: ScalarField2D
    degree: int
    smoothness: int


# -- extension operators --------------------------------------------------------


def extend(j: int, sigma: int, g: UniSpline, partitions, p: int, k: int
           ) -> TensorSpline:
    """Extension of edge data ``g`` from side ``j`` into the patch.

    The result has trace ``g`` (sigma=0) or outward normal derivative ``g``
    (sigma=1) on side j, and vanishing value and normal derivative on the
    other three sides.  The correction a patch projection stores as ``c``
    is ``extend(c.side, c.sigma, c.edge_spline, patch.partitions, p, k)``,
    e.g. for per-side correction magnitudes.
    """
    end = side_end(j)  # first: a ValueError for a bad side, not a KeyError
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    axis = EDGE_AXIS[j]
    Zt, Zn = partitions[axis], partitions[1 - axis]
    tangential, normal_space = UniSplineSpace(p, k, Zt), UniSplineSpace(p, k, Zn)
    bub = reflected_bubble_spline(p, Zn, sigma) if end else bubble(p, Zn, sigma)
    bc = embed(bub, normal_space).coefficients
    factors = [(embed(g, tangential).coefficients, tangential),
               (-bc if sigma else bc, normal_space)]
    (c1, s1), (c2, s2) = factors if axis == 0 else factors[::-1]
    return TensorSpline(TensorSplineSpace(s1, s2), np.outer(c1, c2))


# -- edge projectors ---------------------------------------------------------------


def edge_projector_P0(f: PointFunctionals, c: np.ndarray) -> UniSpline:
    """The endpoint-interpolating projection of one side's trace, in
    S_{p,k+1}: the spline of its coefficients ``c`` under the Pi* functionals
    ``f`` (`pi_star_functionals`)."""
    return UniSpline(f.space, c)


def edge_projector_P1(f: PointFunctionals, c: np.ndarray, j: int,
                      gluing: EdgeGluing, P0: UniSpline) -> UniSpline:
    """Normal-derivative edge projection of side ``j`` in S_{p,k}.

    alpha * w minus beta times the tangential derivative of P0, with the
    sign of t_j along the edge parameter (`TANGENTS`), for w the projection
    of the crossing derivative: the spline of its coefficients ``c`` under
    the crossing functionals ``f`` (`pi_cross_functionals`).
    """
    t1 = multiply_by_linear(UniSpline(f.space, c), gluing.alpha.a0, gluing.alpha.a1)
    dP0 = derivative(P0)
    t2 = multiply_by_linear(dP0, gluing.beta.a0, gluing.beta.a1)
    return t1 - TANGENTS[j][EDGE_AXIS[j]] * t2


def _edge_projections(u: ScalarField2D, partitions, gluing: dict, p: int,
                      k: int, nq: int | None) -> tuple[dict, dict]:
    """P0 and P1 of every side, as ``{side: spline}`` dicts.

    The data of both projections on both sides along an axis come from one
    `edge_jet` of ``u`` at the union of the points of the axis's Pi* and
    crossing functionals, which gives each datum its index into the jet's
    points: the P0 data of both sides are one index per order, and each
    side's crossing data are one `_crossing_orders` of its rows, each order
    read at its own points.  The data of all sides that share a functional
    object go through one 2D `PointFunctionals.coefficients` call.
    """
    funcs, data = {}, {}  # (sigma, side) -> functionals, data vector
    for axis, sides in ((0, (1, 3)), (1, (4, 2))):  # by end (`side_end`)
        f0 = pi_star_functionals(p, k, partitions[axis], nq)
        f1 = pi_cross_functionals(p, k, partitions[axis], nq)
        t, at = np.unique(f0.points + f1.points, return_inverse=True)
        at0, at1 = at[:len(f0.points)], at[len(f0.points):]
        jet = edge_jet(u, axis, t, max(max(f0.orders), max(f1.orders) + 1))
        trace = np.empty((2, len(f0.orders)))
        for d, mask, _ in f0.by_order:
            trace[:, mask] = jet(*_along(axis, d, 0))[:, at0[mask]]
        for r, j in enumerate(sides):
            side = lambda m, n: jet(m, n)[r, at1]  # noqa: E731
            crossing = _crossing_orders(side, j, t[at1], gluing[j].alpha, gluing[j].beta)
            funcs[0, j], funcs[1, j] = f0, f1
            data[0, j], data[1, j] = trace[r], np.empty(len(f1.orders))
            for d, mask, _ in f1.by_order:
                data[1, j][mask] = crossing(d)[mask]
    rows = {}
    for f in {id(f): f for f in funcs.values()}.values():
        keys = [key for key in funcs if funcs[key] is f]
        rows.update(zip(keys, f.coefficients(np.array([data[key] for key in keys]))))
    P0 = {j: edge_projector_P0(funcs[0, j], rows[0, j]) for j in (1, 2, 3, 4)}
    P1 = {j: edge_projector_P1(funcs[1, j], rows[1, j], j, gluing[j], P0[j])
          for j in (1, 2, 3, 4)}
    return P0, P1


# -- patch projector ------------------------------------------------------------------


def patch_project(patch: Patch, u: ScalarField2D, gluing: dict, p: int, k: int,
                  nq: int | None = None) -> PatchProjection:
    """The patch-local C1 quasi-interpolant of a parametric field.

    Q is the tensor projection of ``u``; P0 and P1 of the four sides read
    their data from one jet of ``u`` per edge axis (`_edge_projections`).
    ``gluing`` maps each side 1..4 to its :class:`EdgeGluing`.  Requires
    3 <= k+2 <= p and partitions with room for the boundary bubbles at both
    ends (`bubble_breakpoints`).
    """
    if not 3 <= k + 2 <= p:
        raise ValueError(f"need 3 <= k+2 <= p, got k={k}, p={p}")
    Z1, Z2 = patch.partitions
    for Z in (Z1, Z2):
        bubble_breakpoints(p, Z)
        bubble_breakpoints(p, reverse(Z))
    V = TensorSplineSpace(UniSplineSpace(p, k, Z1), UniSplineSpace(p, k, Z2))
    Q = tensor_project_Q(V, u, nq)
    P0, P1 = _edge_projections(u, patch.partitions, gluing, p, k, nq)
    coefficients = Q.coefficients.copy()
    corrections = []
    for sigma, edge, of_Q in ((0, P0, trace), (1, P1, normal_derivative_trace)):
        for j in (1, 2, 3, 4):
            f_j = embed(edge[j], V.side_space(j)) - of_Q(Q, j)
            corrections.append(EdgeCorrection(j, sigma, f_j))
            coefficients += extend(j, sigma, f_j, patch.partitions, p, k).coefficients
    return PatchProjection(TensorSpline(V, coefficients), corrections)


# -- global projector -------------------------------------------------------------------


def global_project(mp: MultiPatch, gluing: GluingData, u: ScalarField2D,
                   p: int, k: int, nq: int | None = None,
                   force: bool = False) -> GlobalProjection:
    """Patch-wise projection of the pullbacks of a physical field.

    Refuses geometries whose gluing certification failed unless ``force``.
    """
    if gluing.reports and not gluing.certified and not force:
        bad = [r for r in gluing.reports if not r.passed]
        raise ValueError(
            f"geometry is not certified AS-G1 ({len(bad)} interface(s) failed); "
            "pass force=True to project anyway"
        )
    projections = [
        patch_project(patch, pullback(u, patch.gmap), gluing.for_patch(i), p, k, nq)
        for i, patch in enumerate(mp.patches)
    ]
    return GlobalProjection(mp, gluing, projections, u, p, k)


# -- conformity verification ---------------------------------------------------------


@dataclass
class InterfaceConformity:
    left: tuple[int, int]
    right: tuple[int, int]
    value_jump: float
    value_scale: float
    d_jump: float
    d_scale: float

    @property
    def relative_value_jump(self) -> float:
        return self.value_jump / max(self.value_scale, 1e-12)

    @property
    def relative_d_jump(self) -> float:
        return self.d_jump / max(self.d_scale, 1e-12)


@dataclass
class VertexConformity:
    location: tuple[float, float]
    members: list[tuple[int, int]]
    c2_defect: float
    scale: float

    @property
    def relative_defect(self) -> float:
        return self.c2_defect / max(self.scale, 1e-12)


@dataclass
class BoundaryConformity:
    edge: tuple[int, int]
    input_trace_sup: float
    projected_trace_sup: float
    input_d_sup: float
    projected_d_sup: float


@dataclass
class ConformityReport:
    interfaces: list[InterfaceConformity] = field(default_factory=list)
    vertices: list[VertexConformity] = field(default_factory=list)
    boundaries: list[BoundaryConformity] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "interfaces": [
                {
                    "left": list(r.left),
                    "right": list(r.right),
                    "value_jump": r.value_jump,
                    "value_jump_relative": r.relative_value_jump,
                    "d_derivative_jump": r.d_jump,
                    "d_derivative_jump_relative": r.relative_d_jump,
                }
                for r in self.interfaces
            ],
            "vertices": [
                {
                    "location": list(v.location),
                    "patch_corners": [list(m) for m in v.members],
                    "c2_defect": v.c2_defect,
                    "c2_defect_relative": v.relative_defect,
                }
                for v in self.vertices
            ],
            "boundary_edges": [
                {
                    "edge": list(b.edge),
                    "input_trace_sup": b.input_trace_sup,
                    "projected_trace_sup": b.projected_trace_sup,
                    "input_d_derivative_sup": b.input_d_sup,
                    "projected_d_derivative_sup": b.projected_d_sup,
                }
                for b in self.boundaries
            ],
        }


_C2_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def check_conformity(gp: GlobalProjection) -> ConformityReport:
    """Sampled interface, vertex, and boundary conformity of a projection:
    50 samples per side, from one pass per patch.

    A patch's projection is read from one jet of orders `_C2_ORDERS` at the
    samples of its four sides (edge parameter t on a left or boundary side,
    `edge_parameter_map` of t on a right side) and at its four corners.  The
    map's corner coefficients (`corner_points`, no map jet) give the corner
    locations, by which the vertices cluster; then, on a patch with a corner
    that another patch shares, one jet of the map's orders `_C2_ORDERS` at
    the corners and one `inverse_chain_rule` give the physical C2 data.  The
    input on the patch's boundary sides comes from one pullback jet up to
    (1, 1), which on an affine patch takes no map jet either.  Each
    crossing derivative is `_crossing_orders` of the rows of one side of a
    jet.  Scales come from one 9 x 9 grid jet per patch on an interface.
    """
    mp = gp.multipatch
    report = ConformityReport()
    t = np.linspace(0.0, 1.0, 50)

    grid = np.linspace(0.0, 1.0, 9)

    def patch_scales(f):
        jet = f.jet(grid[:, None], grid[None, :], _C2_ORDERS[:3])
        value, d1, d2 = (np.max(np.abs(v)) for v in jet.values())
        return float(value), float(max(d1, d2))

    involved = {side[0] for iface in mp.interfaces
                for side in (iface.left, iface.right)}
    scales = {i: patch_scales(gp.patches[i].spline) for i in involved}

    boundary = mp.boundary_edges
    params = dict.fromkeys(boundary, t)  # the samples of each side
    for iface in mp.interfaces:
        params[iface.left], params[iface.right] = t, edge_parameter_map(iface, t)

    def points(i, sides, *extra):
        """The samples of ``sides`` of patch i, then ``extra``, as (x1, x2)."""
        return (np.concatenate(z) for z in zip(
            *(edge_coords(j, params[i, j]) for j in sides), *extra))

    def sample(jet, r, i, j):
        """Trace and crossing derivative on side j of patch i, rows r of the
        samples of a jet ``(m, n) -> values``."""
        glue, rows = gp.gluing[i, j], slice(r * t.size, (r + 1) * t.size)
        side = lambda m, n: jet(m, n)[rows]  # noqa: E731
        return side(0, 0), _crossing_orders(side, j, params[i, j], glue.alpha,
                                            glue.beta)(0)

    corners = [np.array(x) for x in zip(*CORNERS.values())]
    projected, at_corners, entries = {}, {}, []  # entries: (patch, corner, location)
    for i, patch in enumerate(mp.patches):
        f = gp.patches[i].spline.jet(*points(i, (1, 2, 3, 4), corners), _C2_ORDERS)
        for j in (1, 2, 3, 4):
            projected[i, j] = sample(lambda m, n: f[m, n], j - 1, i, j)
        at_corners[i] = [f[ab][-len(CORNERS):] for ab in _C2_ORDERS]
        g = patch.gmap.corner_points()
        for c, ell in enumerate(CORNERS):
            entries.append((i, ell, tuple(float(x[c]) for x in g)))

    for iface in mp.interfaces:
        (i, j), (ii, jj) = iface.left, iface.right
        (vl, dl), (vr, dr) = projected[i, j], projected[ii, jj]
        value_jump = float(np.max(np.abs(vl - vr)))
        d_jump = float(np.max(np.abs(dl + dr)))
        vsl, gsl = scales[i]
        vsr, gsr = scales[ii]
        report.interfaces.append(
            InterfaceConformity((i, j), (ii, jj), value_jump, max(vsl, vsr),
                                d_jump, max(gsl, gsr))
        )

    # vertices: cluster patch corners by physical location
    tol = 1e-7 * max(mp.domain_diameter(), 1e-300)
    clusters: list[list] = []
    for entry in entries:
        for cluster in clusters:
            ref = cluster[0][2]
            if np.hypot(entry[2][0] - ref[0], entry[2][1] - ref[1]) <= tol:
                cluster.append(entry)
                break
        else:
            clusters.append([entry])
    shared = [members for members in clusters if len(members) > 1]
    # the physical C2 data at the corners of each patch that shares one, from
    # one map jet and one chain rule at its four corners (the points of every
    # patch's jet, whose bands the memo of `splines` keeps)
    data = {}
    for i in sorted({i for members in shared for i, _, _ in members}):
        gmap, fc = mp.patches[i].gmap, at_corners[i]
        g = gmap.jet(*corners, orders=_C2_ORDERS)
        grad, hess = inverse_chain_rule(g, gmap.zeros, jacobian_det(g, gmap.zeros),
                                        fc[1:3], fc[3:])
        data.update(zip(((i, ell) for ell in CORNERS),
                        np.array([fc[0], *grad, *hess], dtype=float).T))
    for members in shared:
        datas = np.array([data[i, ell] for i, ell, _ in members])
        defect = float(np.max(np.abs(datas - datas[0])))
        scale = max(1.0, float(np.max(np.abs(datas))))
        report.vertices.append(
            VertexConformity(members[0][2], [(i, ell) for i, ell, _ in members],
                             defect, scale)
        )

    # boundary edges: record input and projected trace magnitudes; the input
    # on all boundary sides of a patch comes from one pullback jet
    for i, patch in enumerate(mp.patches):
        sides = [j for j in (1, 2, 3, 4) if (i, j) in boundary]
        if not sides:
            continue
        # cached: each order is evaluated once for all the patch's sides
        ujet = functools.cache(pullback(gp.field, patch.gmap).jet(*points(i, sides), 1, 1))
        for r, j in enumerate(sides):
            (value, d), (pvalue, pd) = sample(ujet, r, i, j), projected[i, j]
            report.boundaries.append(BoundaryConformity(
                (i, j), *(float(np.max(np.abs(v))) for v in (value, pvalue, d, pd))))
    return report

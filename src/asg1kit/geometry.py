"""Multi-patch geometry model: patch maps, topology, frames, and JSON I/O.

Each patch is parameterized over the unit square.  Sides are numbered 1..4
counter-clockwise starting at the bottom: side 1 is xi2=0, side 2 is xi1=1,
side 3 is xi2=1, side 4 is xi1=0.  Side j carries the intrinsic parameter
xi1 (sides 1, 3) or xi2 (sides 2, 4).

Every map G is a set of coefficients over two univariate B-spline bases: a
bilinear map is the degree-1 case (S_{1,0} on (0, 1), its corners the control
grid), a NURBS map contracts its homogeneous coefficients (w P, w) and applies
the quotient rule once.  All of them evaluate derivatives through
``jet(x1, x2, c, d)``, one `tensor_jet` contraction that returns
``{(a, b): d1^a d2^b G}`` for all a <= c, b <= d, or for the (a, b) in
``orders`` alone (NURBS: and the orders they depend on).  Orders that are
identically zero are absent (above the degree of polynomial maps); an absent
key means zero.  When ``x1`` is a column (N1, 1) and ``x2`` a row (1, N2), the
jet is an (N1, N2) grid from basis rows on N1 + N2 points; any other broadcast
pair is evaluated point by point.  ``derivative`` and ``point`` give single
orders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np

from .splines import (
    Partition,
    UniSplineSpace,
    knot_vector,
    refine,
    tensor_jet,
    uniform_partition,
)

__all__ = [
    "GeometryError",
    "BilinearMap",
    "SplineMap",
    "NurbsMap",
    "Patch",
    "Interface",
    "MultiPatch",
    "NORMALS",
    "TANGENTS",
    "EDGE_AXIS",
    "EDGE_PARAM_SIGN",
    "edge_coords",
    "edge_parameter_map",
    "check_2regular",
    "physical_mesh_size",
    "load_geometry",
    "save_geometry",
    "builtin_geometry",
    "BUILTIN_GEOMETRIES",
]


class GeometryError(ValueError):
    """Raised for malformed or non-conforming geometry data."""


# Outward unit normals n_j of the parameter square and tangents
# t_j = (n_{j,2}, -n_{j,1}); constants per side.
NORMALS = {1: (0.0, -1.0), 2: (1.0, 0.0), 3: (0.0, 1.0), 4: (-1.0, 0.0)}
TANGENTS = {j: (n[1], -n[0]) for j, n in NORMALS.items()}

# Axis carrying the intrinsic edge parameter (0 = xi1, 1 = xi2) and the sign
# relating t_j to the direction of increasing edge parameter.
EDGE_AXIS = {1: 0, 2: 1, 3: 0, 4: 1}
EDGE_PARAM_SIGN = {
    j: float(np.sign(TANGENTS[j][EDGE_AXIS[j]])) for j in (1, 2, 3, 4)
}

# Corners x_1..x_4 of the parameter square; side j runs from corner j to j+1.
CORNERS = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 1.0), 4: (0.0, 1.0)}


def edge_coords(j: int, t):
    """Parameter-square coordinates of side ``j`` at edge parameter ``t``."""
    t = np.asarray(t, dtype=float)
    zeros = np.zeros_like(t)
    ones = np.ones_like(t)
    if j == 1:
        return t, zeros
    if j == 2:
        return ones, t
    if j == 3:
        return t, ones
    if j == 4:
        return zeros, t
    raise ValueError(f"side index must be 1..4, got {j}")


# -- geometry maps ---------------------------------------------------------------

# S_{1,0} on the partition (0, 1): the basis (1 - x, x) of bilinear maps
_LINEAR = UniSplineSpace(1, 0, Partition((0.0, 1.0)))


class _TensorProductMap:
    """G(x1, x2) = sum_ij N_i(x1) M_j(x2) coef_ij over the bases of
    ``space1`` and ``space2``; subclasses set these and ``_coef`` (dim1,
    dim2, components), which `tensor_jet` contracts."""

    def jet(self, x1, x2, c: int = 0, d: int = 0, orders=None) -> dict:
        """{(a, b): d1^a d2^b G} for a <= c, b <= d or the (a, b) in
        ``orders``, in one pass; identically zero orders are absent."""
        orders = product(range(c + 1), range(d + 1)) if orders is None else orders
        return tensor_jet((self.space1, self.space2), self._coef, x1, x2, orders)

    def _one_order(self, x1, x2, c: int, d: int) -> np.ndarray:
        out = self.jet(x1, x2, orders=[(c, d)])
        if (c, d) in out:
            return out[c, d]
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
        return np.zeros(shape + (self._coef.shape[2],))

    def point(self, x1, x2) -> np.ndarray:
        return self._one_order(x1, x2, 0, 0)


class BilinearMap(_TensorProductMap):
    """Bilinear patch from its four corner points.

    ``corners[i][j]`` is the image of the parameter corner (i, j), i.e. the
    control grid of the degree-1 tensor spline over S_{1,0} on (0, 1).
    """

    kind = "bilinear"

    def __init__(self, corners):
        self.corners = np.asarray(corners, dtype=float)
        if self.corners.shape != (2, 2, 2):
            raise GeometryError("bilinear map needs a 2x2 grid of 2D corners")
        self.space1 = self.space2 = _LINEAR
        self._coef = self.corners

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        return self._one_order(x1, x2, c, d)


class SplineMap(_TensorProductMap):
    """Tensor-product spline patch with a control-point grid."""

    kind = "spline"

    def __init__(self, space1: UniSplineSpace, space2: UniSplineSpace, control):
        self.space1 = space1
        self.space2 = space2
        self.control = np.asarray(control, dtype=float)
        if self.control.shape != (space1.dim, space2.dim, 2):
            raise GeometryError(
                f"control grid shape {self.control.shape} does not match "
                f"space dimensions ({space1.dim}, {space2.dim}, 2)"
            )
        self._coef = self.control

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        return self._one_order(x1, x2, c, d)


class NurbsMap(_TensorProductMap):
    """Rational tensor-product spline patch G = F / w.

    The jet contracts the homogeneous coefficients (w P, w) once, then one
    in-place pass of the quotient rule applied to ``F = G * w`` turns it into
    every rational order, which keeps the discrete function space polynomial
    on the parameter domain.  No order of a rational map is dropped.
    """

    kind = "nurbs"

    def __init__(self, space1, space2, control, weights):
        self.space1 = space1
        self.space2 = space2
        self.control = np.asarray(control, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.control.shape != (space1.dim, space2.dim, 2):
            raise GeometryError("control grid shape mismatch")
        if self.weights.shape != (space1.dim, space2.dim):
            raise GeometryError("weight grid shape mismatch")
        if np.any(self.weights <= 0):
            raise GeometryError("weights must be positive")
        w = self.weights[:, :, None]
        self._coef = np.concatenate([self.control * w, w], axis=2)

    def jet(self, x1, x2, c: int = 0, d: int = 0, orders=None) -> dict:
        orders = list(product(range(c + 1), range(d + 1)) if orders is None else orders)
        # an order (a, b) reads every (e, f) <= (a, b)
        needs = sorted({(e, f) for a, b in orders
                        for e in range(a + 1) for f in range(b + 1)})
        H = super().jet(x1, x2, orders=needs)
        w0 = H[0, 0][..., 2:]
        G: dict[tuple[int, int], np.ndarray] = {}
        for a, b in needs:
            # F^(a,b) = sum_{e<=a, f<=b} C(a,e) C(b,f) G^(e,f) w^(a-e,b-f)
            g = (H[a, b][..., :2] if (a, b) in H
                 else np.zeros(w0.shape[:-1] + (2,)))
            for e in range(a + 1):
                for f in range(b + 1):
                    if (e, f) != (a, b) and (a - e, b - f) in H:
                        g -= (comb(a, e) * comb(b, f)
                              * G[e, f] * H[a - e, b - f][..., 2:])
            g /= w0
            G[a, b] = g
        return {ab: G[ab] for ab in orders}

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        return self._one_order(x1, x2, c, d)


def jacobian(gmap, x1, x2) -> np.ndarray:
    """Jacobian with columns d1 G, d2 G; shape (..., 2, 2)."""
    jet = gmap.jet(x1, x2, orders=[(1, 0), (0, 1)])
    return np.stack([jet[1, 0], jet[0, 1]], axis=-1)


def check_2regular(gmap, samples: int = 33):
    """Minimum Jacobian determinant over a tensor sample grid.

    Returns (min_det, (xi1, xi2) of the minimizer).  A non-positive value
    means the map folds and is not 2-regular.
    """
    s = np.linspace(0.0, 1.0, samples)
    J = jacobian(gmap, s[:, None], s[None, :])
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    i, j = np.unravel_index(np.argmin(det), det.shape)
    return float(det[i, j]), (float(s[i]), float(s[j]))


# -- patches and topology ----------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    """A geometry map together with its breakpoint partitions (Z1, Z2)."""

    gmap: object
    partitions: tuple[Partition, Partition]

    def side_partition(self, j: int) -> Partition:
        # Z3 := Z1 and Z4 := Z2
        return self.partitions[EDGE_AXIS[j]]

    def edge_point(self, j: int, t):
        x1, x2 = edge_coords(j, t)
        return self.gmap.point(x1, x2)


@dataclass(frozen=True)
class Interface:
    """Identification of side ``left`` with side ``right`` of another patch."""

    left: tuple[int, int]
    right: tuple[int, int]
    reversed: bool = False


def edge_parameter_map(iface: Interface, t):
    """Edge parameter of the right side matching left-side parameter ``t``."""
    t = np.asarray(t, dtype=float)
    out = 1.0 - t if iface.reversed else t
    return float(out) if out.ndim == 0 else out


@dataclass
class MultiPatch:
    patches: list[Patch]
    interfaces: list[Interface] = field(default_factory=list)

    def __post_init__(self):
        self._validate_topology()
        self._validate_conformity()

    # -- topology ------------------------------------------------------------

    def _validate_topology(self):
        seen = set()
        for iface in self.interfaces:
            for pi, side in (iface.left, iface.right):
                if not 0 <= pi < len(self.patches):
                    raise GeometryError(f"interface references patch {pi}")
                if side not in (1, 2, 3, 4):
                    raise GeometryError(f"side index {side} not in 1..4")
                if (pi, side) in seen:
                    raise GeometryError(
                        f"edge ({pi},{side}) appears in more than one interface"
                    )
                seen.add((pi, side))

    @property
    def boundary_edges(self) -> list[tuple[int, int]]:
        used = {iface.left for iface in self.interfaces}
        used |= {iface.right for iface in self.interfaces}
        return [
            (i, j)
            for i in range(len(self.patches))
            for j in (1, 2, 3, 4)
            if (i, j) not in used
        ]

    # -- geometric conformity ---------------------------------------------------

    def domain_diameter(self) -> float:
        pts = []
        s = np.linspace(0.0, 1.0, 5)
        for patch in self.patches:
            X1, X2 = np.meshgrid(s, s, indexing="ij")
            pts.append(patch.gmap.point(X1, X2).reshape(-1, 2))
        pts = np.concatenate(pts)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def _validate_conformity(self, samples: int = 20):
        diam = self.domain_diameter()
        t = np.linspace(0.0, 1.0, samples)
        for iface in self.interfaces:
            (i, j), (ii, jj) = iface.left, iface.right
            a = self.patches[i].edge_point(j, t)
            b = self.patches[ii].edge_point(jj, edge_parameter_map(iface, t))
            gap = float(np.max(np.linalg.norm(a - b, axis=-1)))
            if gap > 1e-10 * max(diam, 1e-300):
                raise GeometryError(
                    f"interface {iface.left}-{iface.right} does not match "
                    f"pointwise (gap {gap:.3e})"
                )
            za = self.patches[i].side_partition(j).as_array()
            zb = self.patches[ii].side_partition(jj).as_array()
            if iface.reversed:
                zb = np.concatenate(([0.0], 1.0 - zb[-2:0:-1], [1.0]))
            if za.shape != zb.shape or np.max(np.abs(za - zb)) > 1e-12:
                raise GeometryError(
                    f"partitions along interface {iface.left}-{iface.right} "
                    "do not match"
                )

    # -- partition management ------------------------------------------------------

    def with_uniform_partitions(self, n: int) -> "MultiPatch":
        Z = uniform_partition(n)
        return MultiPatch(
            [Patch(p.gmap, (Z, Z)) for p in self.patches], list(self.interfaces)
        )

    def refined(self) -> "MultiPatch":
        return MultiPatch(
            [
                Patch(p.gmap, (refine(p.partitions[0]), refine(p.partitions[1])))
                for p in self.patches
            ],
            list(self.interfaces),
        )


def physical_mesh_size(mp: MultiPatch) -> float:
    """Max diameter of mapped elements, from 8 boundary samples per element
    (corners and edge midpoints), all evaluated at once per patch."""
    worst = 0.0
    for patch in mp.patches:
        z1 = patch.partitions[0].as_array()
        z2 = patch.partitions[1].as_array()
        a, c = np.meshgrid(z1[:-1], z2[:-1], indexing="ij")
        b, d = np.meshgrid(z1[1:], z2[1:], indexing="ij")
        xm, ym = 0.5 * (a + b), 0.5 * (c + d)
        x1 = np.stack([a, b, b, a, xm, b, xm, a], axis=-1)
        x2 = np.stack([c, c, d, d, c, ym, d, ym], axis=-1)
        pts = patch.gmap.point(x1, x2)
        diff = pts[..., :, None, :] - pts[..., None, :, :]
        worst = max(worst, float(np.max(np.linalg.norm(diff, axis=-1))))
    return worst


# -- JSON I/O --------------------------------------------------------------------
#
# Schema:
# {"patches": [{"kind": "bilinear"|"spline"|"nurbs",
#               "degree": [p1, p2]?,              (spline kinds)
#               "knots": [[...], [...]]?,          (open knot vectors)
#               "control_points": [[x, y], ...],   (row-major, xi2 fastest)
#               "weights": [...]?,                 (nurbs only)
#               "partitions": [[...], [...]]}],
#  "interfaces": [{"left": [i, j], "right": [I, J], "reversed": bool}]}
#
# Patch indices are 0-based; sides use the labeling 1..4 described above.


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise GeometryError(f"{where}: missing field '{key}'")
    return entry[key]


def _space_from_knots(degree: int, knots, where: str) -> UniSplineSpace:
    t = np.asarray(knots, dtype=float)
    breaks = np.unique(t)
    if breaks[0] != 0.0 or breaks[-1] != 1.0:
        raise GeometryError(f"{where}: knots must span [0, 1]")
    interior_mult = {int(np.sum(np.isclose(t, z))) for z in breaks[1:-1]}
    if len(interior_mult) > 1:
        raise GeometryError(f"{where}: non-uniform interior knot multiplicity")
    mult = interior_mult.pop() if interior_mult else 1
    if np.sum(np.isclose(t, 0.0)) != degree + 1 or np.sum(np.isclose(t, 1.0)) != degree + 1:
        raise GeometryError(f"{where}: knot vector must be open")
    return UniSplineSpace(degree, degree - mult, Partition(tuple(float(z) for z in breaks)))


def _patch_from_json(entry: dict, idx: int) -> Patch:
    where = f"patches[{idx}]"
    kind = _require(entry, "kind", where)
    parts = _require(entry, "partitions", where)
    if len(parts) != 2:
        raise GeometryError(f"{where}.partitions: need two breakpoint lists")
    partitions = tuple(Partition(tuple(float(z) for z in zs)) for zs in parts)
    cps = np.asarray(_require(entry, "control_points", where), dtype=float)
    if kind == "bilinear":
        if cps.shape != (4, 2):
            raise GeometryError(
                f"{where}.control_points: need exactly 4 corners, got {cps.shape}"
            )
        gmap = BilinearMap(cps.reshape(2, 2, 2))
    elif kind in ("spline", "nurbs"):
        degree = _require(entry, "degree", where)
        knots = _require(entry, "knots", where)
        s1 = _space_from_knots(degree[0], knots[0], f"{where}.knots[0]")
        s2 = _space_from_knots(degree[1], knots[1], f"{where}.knots[1]")
        if cps.shape != (s1.dim * s2.dim, 2):
            raise GeometryError(
                f"{where}.control_points: expected {s1.dim * s2.dim} points"
            )
        grid = cps.reshape(s1.dim, s2.dim, 2)
        if kind == "spline":
            gmap = SplineMap(s1, s2, grid)
        else:
            w = np.asarray(_require(entry, "weights", where), dtype=float)
            if w.shape != (s1.dim * s2.dim,):
                raise GeometryError(f"{where}.weights: expected {s1.dim * s2.dim}")
            gmap = NurbsMap(s1, s2, grid, w.reshape(s1.dim, s2.dim))
    else:
        raise GeometryError(f"{where}.kind: unknown kind '{kind}'")
    return Patch(gmap, partitions)


def _patch_to_json(patch: Patch) -> dict:
    gmap = patch.gmap
    entry: dict = {"kind": gmap.kind}
    if isinstance(gmap, BilinearMap):
        entry["control_points"] = gmap.corners.reshape(4, 2).tolist()
    else:
        entry["degree"] = [gmap.space1.degree, gmap.space2.degree]
        entry["knots"] = [
            knot_vector(gmap.space1).tolist(),
            knot_vector(gmap.space2).tolist(),
        ]
        entry["control_points"] = gmap.control.reshape(-1, 2).tolist()
        if isinstance(gmap, NurbsMap):
            entry["weights"] = gmap.weights.reshape(-1).tolist()
    entry["partitions"] = [list(z.breakpoints) for z in patch.partitions]
    return entry


def load_geometry(path) -> MultiPatch:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"{path}: invalid JSON ({exc})") from exc
    return multipatch_from_json(data)


def multipatch_from_json(data: dict) -> MultiPatch:
    patches_raw = _require(data, "patches", "geometry")
    patches = [_patch_from_json(e, i) for i, e in enumerate(patches_raw)]
    interfaces = []
    for m, entry in enumerate(data.get("interfaces", [])):
        where = f"interfaces[{m}]"
        left = tuple(_require(entry, "left", where))
        right = tuple(_require(entry, "right", where))
        interfaces.append(Interface(left, right, bool(entry.get("reversed", False))))
    return MultiPatch(patches, interfaces)


def multipatch_to_json(mp: MultiPatch) -> dict:
    return {
        "patches": [_patch_to_json(p) for p in mp.patches],
        "interfaces": [
            {"left": list(i.left), "right": list(i.right), "reversed": i.reversed}
            for i in mp.interfaces
        ],
    }


def save_geometry(mp: MultiPatch, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(multipatch_to_json(mp), fh, indent=2)
        fh.write("\n")


# -- built-in catalog ---------------------------------------------------------------


def _bilinear(c00, c10, c01, c11, n=4) -> Patch:
    Z = uniform_partition(n)
    return Patch(BilinearMap(np.array([[c00, c01], [c10, c11]], float)), (Z, Z))


def builtin_geometry(name: str, n: int = 4) -> MultiPatch:
    """Built-in bilinear geometries with uniform ``n``-element partitions."""
    if name == "unit_square":
        return MultiPatch([_bilinear((0, 0), (1, 0), (0, 1), (1, 1), n)], [])
    if name == "two_patch_square":
        return MultiPatch(
            [
                _bilinear((0, 0), (1, 0), (0, 1), (1, 1), n),
                _bilinear((1, 0), (2, 0), (1, 1), (2, 1), n),
            ],
            [Interface((0, 2), (1, 4))],
        )
    if name == "two_patch_skew":
        # Right patch is a skewed quadrilateral: the cross derivatives of the
        # two patches are not parallel along the interface, so the recovered
        # gluing has a nontrivial beta.
        return MultiPatch(
            [
                _bilinear((0, 0), (1, 0), (0, 1), (1, 1), n),
                _bilinear((1, 0), (2, 0.3), (1, 1), (2, 1.2), n),
            ],
            [Interface((0, 2), (1, 4))],
        )
    if name == "three_patch_L":
        return MultiPatch(
            [
                _bilinear((0, 0), (1, 0), (0, 1), (1, 1), n),
                _bilinear((-1, 0), (0, 0), (-1, 1), (0, 1), n),
                _bilinear((0, -1), (1, -1), (0, 0), (1, 0), n),
            ],
            [Interface((0, 4), (1, 2)), Interface((0, 1), (2, 3))],
        )
    raise GeometryError(f"unknown built-in geometry '{name}'")


BUILTIN_GEOMETRIES = (
    "unit_square",
    "two_patch_square",
    "two_patch_skew",
    "three_patch_L",
)

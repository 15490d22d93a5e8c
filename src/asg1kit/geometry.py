"""Multi-patch geometry model: patch maps, topology, frames, and JSON I/O.

Each patch is parameterized over the unit square.  Sides are numbered 1..4
counter-clockwise starting at the bottom: side 1 is xi2=0, side 2 is xi1=1,
side 3 is xi2=1, side 4 is xi1=0.  Side j carries the intrinsic parameter
xi1 (sides 1, 3) or xi2 (sides 2, 4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .splines import (
    Partition,
    UniSpline,
    UniSplineSpace,
    eval_operator,
    refine,
    reverse,
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
    "w2_boundedness_check",
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


class BilinearMap:
    """Bilinear patch from its four corner points.

    ``corners[i][j]`` is the image of the parameter corner (i, j), i.e. the
    control grid of the bilinear tensor interpolant.
    """

    kind = "bilinear"

    def __init__(self, corners):
        self.corners = np.asarray(corners, dtype=float)
        if self.corners.shape != (2, 2, 2):
            raise GeometryError("bilinear map needs a 2x2 grid of 2D corners")

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        P = self.corners
        if c > 1 or d > 1:
            return np.zeros(np.broadcast_shapes(x1.shape, x2.shape) + (2,))
        a0 = np.stack([1.0 - x1, x1] if c == 0 else
                      [-np.ones_like(x1), np.ones_like(x1)])
        a1 = np.stack([1.0 - x2, x2] if d == 0 else
                      [-np.ones_like(x2), np.ones_like(x2)])
        return np.einsum("i...,j...,ijc->...c", a0, a1, P)

    def point(self, x1, x2) -> np.ndarray:
        return self.derivative(x1, x2, 0, 0)


class SplineMap:
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

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        if c > self.space1.degree or d > self.space2.degree:
            return np.zeros(shape + (2,))
        B1 = eval_operator(self.space1, np.broadcast_to(x1, shape).ravel(), c)
        B2 = eval_operator(self.space2, np.broadcast_to(x2, shape).ravel(), d)
        out = np.einsum("ni,ijc,nj->nc", B1, self.control, B2)
        return out.reshape(shape + (2,))

    def point(self, x1, x2) -> np.ndarray:
        return self.derivative(x1, x2, 0, 0)


class NurbsMap:
    """Rational tensor-product spline patch G = F / w.

    Derivatives of any order follow from the recursive quotient rule applied
    to ``F = G * w``, which keeps the discrete function space polynomial on
    the parameter domain.
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

    def _homogeneous(self, x1, x2, c, d, shape):
        B1 = eval_operator(self.space1, np.broadcast_to(x1, shape).ravel(), c)
        B2 = eval_operator(self.space2, np.broadcast_to(x2, shape).ravel(), d)
        wc = self.control * self.weights[:, :, None]
        F = np.einsum("ni,ijc,nj->nc", B1, wc, B2).reshape(shape + (2,))
        w = np.einsum("ni,ij,nj->n", B1, self.weights, B2).reshape(shape)
        return F, w

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        from math import comb

        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        F = {}
        w = {}
        for a in range(c + 1):
            for b in range(d + 1):
                F[a, b], w[a, b] = self._homogeneous(x1, x2, a, b, shape)
        G: dict[tuple[int, int], np.ndarray] = {}
        for a in range(c + 1):
            for b in range(d + 1):
                acc = F[a, b].copy()
                for e in range(a + 1):
                    for f_ in range(b + 1):
                        if (e, f_) == (a, b):
                            continue
                        acc -= (comb(a, e) * comb(b, f_)
                                * G[e, f_] * w[a - e, b - f_][..., None])
                G[a, b] = acc / w[0, 0][..., None]
        return G[c, d]

    def point(self, x1, x2) -> np.ndarray:
        return self.derivative(x1, x2, 0, 0)


def jacobian(gmap, x1, x2) -> np.ndarray:
    """Jacobian with columns d1 G, d2 G; shape (..., 2, 2)."""
    return np.stack(
        [gmap.derivative(x1, x2, 1, 0), gmap.derivative(x1, x2, 0, 1)], axis=-1
    )


def jacobian_determinant(gmap, x1, x2) -> np.ndarray:
    J = jacobian(gmap, x1, x2)
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def check_2regular(gmap, samples: int = 33):
    """Minimum Jacobian determinant over a tensor sample grid.

    Returns (min_det, (xi1, xi2) of the minimizer).  A non-positive value
    means the map folds and is not 2-regular.
    """
    s = np.linspace(0.0, 1.0, samples)
    X1, X2 = np.meshgrid(s, s, indexing="ij")
    det = jacobian_determinant(gmap, X1, X2)
    idx = np.unravel_index(np.argmin(det), det.shape)
    return float(det[idx]), (float(X1[idx]), float(X2[idx]))


def w2_boundedness_check(gmap, partitions, samples: int = 9, eps: float = 1e-7):
    """Sampled surrogate for W^{2,inf} regularity of a patch map.

    Returns (max |second derivative| over interior samples, max jump of the
    second derivatives across interior element lines).  Spline maps with
    smoothness k >= 1 have bounded second derivatives; for k >= 2 the jump
    vanishes up to round-off.
    """
    s = np.linspace(eps, 1.0 - eps, samples)
    worst = 0.0
    for a, b in ((2, 0), (1, 1), (0, 2)):
        X1, X2 = np.meshgrid(s, s, indexing="ij")
        worst = max(worst, float(np.max(np.abs(gmap.derivative(X1, X2, a, b)))))
    jump = 0.0
    for axis, Z in enumerate(partitions):
        for z in Z.as_array()[1:-1]:
            lo, hi = z - eps, z + eps
            for a, b in ((2, 0), (1, 1), (0, 2)):
                if axis == 0:
                    d = gmap.derivative(np.full_like(s, hi), s, a, b) \
                        - gmap.derivative(np.full_like(s, lo), s, a, b)
                else:
                    d = gmap.derivative(s, np.full_like(s, hi), a, b) \
                        - gmap.derivative(s, np.full_like(s, lo), a, b)
                jump = max(jump, float(np.max(np.abs(d))))
    return worst, jump


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
    """Max diameter of mapped elements, from 8 boundary samples per element."""
    worst = 0.0
    for patch in mp.patches:
        z1 = patch.partitions[0].as_array()
        z2 = patch.partitions[1].as_array()
        for a, b in zip(z1[:-1], z1[1:]):
            for c, d in zip(z2[:-1], z2[1:]):
                xm, ym = 0.5 * (a + b), 0.5 * (c + d)
                x1 = np.array([a, b, b, a, xm, b, xm, a])
                x2 = np.array([c, c, d, d, c, ym, d, ym])
                pts = patch.gmap.point(x1, x2)
                diff = pts[:, None, :] - pts[None, :, :]
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
        from .splines import knot_vector

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

"""Multi-patch geometry model: patch maps, topology, frames, and JSON I/O.

Each patch is parameterized over the unit square.  Sides are numbered 1..4
counter-clockwise starting at the bottom: side 1 is xi2=0, side 2 is xi1=1,
side 3 is xi2=1, side 4 is xi1=0.  Side j carries the intrinsic parameter
xi1 (sides 1, 3) or xi2 (sides 2, 4).

Every map G is a set of coefficients over two univariate B-spline bases: a
bilinear map is the degree-1 case (S_{1,0} on (0, 1), its corners the control
grid), a NURBS map contracts its homogeneous coefficients (w P, w) and applies
the quotient rule once.  All of them evaluate derivatives through
``jet(x1, x2, c, d)``, which returns ``{(a, b): (d1^a d2^b G_x, d1^a d2^b
G_y)}`` for all a <= c, b <= d, or for the (a, b) in ``orders`` alone, each
order a tuple of component arrays.  Orders that are identically zero in every
component are absent; an absent key means zero, and so does a component in
``zeros``, whose terms `fields.pullback` and `norms` drop.

Dependence rule: component c of order (a, b) is constant in x2 exactly when
its coefficient grid, differentiated a times along x1 and b times along x2,
is constant along x2 (below the degree: when its order (a, b+1) is
identically zero), and the same holds for x1; a component constant in both is
the value of its coefficients.  This is decided once per map, exactly, from
the differentiated coefficient grid (`splines.differentiate`).  When
``x1`` is a column (N1, 1) and ``x2`` a row (1, N2) (`bind_x2`), each
component has the broadcast shape of the axes it depends on: (N1, 1),
(1, N2), (1, 1) or (N1, N2).  On a bilinear map d1 G depends on x2 at most,
d2 G on x1 at most and d12 G on neither; on an axis-aligned patch x depends
on x1 alone and y on x2 alone.  Components that depend on both axes take one
folded contraction per group; grid jets share the binding of a recent row,
memoised per map (`_bound_x2`).  Any other broadcast pair of points is
evaluated point by point, every component at the full shape.
``derivative`` and ``point`` give single orders stacked as (..., 2) arrays.
`map_jets` is the package's one source of G, its orders and det G > 0 for
the chain rule (`fields.pullback`, the `norms` blocks, the corner data of
`asg1.check_conformity`), and of its one fold error.
"""

from __future__ import annotations

import functools
import json
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np

from .splines import (
    _BLOCK_POINTS,
    Partition,
    UniSplineSpace,
    differentiate,
    knot_vector,
    reverse,
    tensor_bind_x2,
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
    "SIDE_END",
    "side_end",
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

# Axis carrying the intrinsic edge parameter (0 = xi1, 1 = xi2) and the
# value (0 or 1) at which side j fixes the other coordinate.
EDGE_AXIS = {1: 0, 2: 1, 3: 0, 4: 1}
SIDE_END = {1: 0, 2: 1, 3: 1, 4: 0}

# Corners x_1..x_4 of the parameter square; side j runs from corner j to j+1.
CORNERS = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 1.0), 4: (0.0, 1.0)}


def side_end(j: int) -> int:
    """``SIDE_END[j]``; a ValueError for a side index outside 1..4."""
    if j not in SIDE_END:
        raise ValueError(f"side index must be 1..4, got {j}")
    return SIDE_END[j]


def edge_coords(j: int, t):
    """Parameter-square coordinates of side ``j`` at edge parameter ``t``."""
    t = np.asarray(t, dtype=float)
    fixed = np.full_like(t, side_end(j))
    return (t, fixed) if EDGE_AXIS[j] == 0 else (fixed, t)


# -- geometry maps ---------------------------------------------------------------

# S_{1,0} on the partition (0, 1): the basis (1 - x, x) of bilinear maps
_LINEAR = UniSplineSpace(1, 0, Partition((0.0, 1.0)))


def _axis_derivatives(space: UniSplineSpace, grid: np.ndarray, axis: int) -> list:
    """The grids of the derivatives of order 0, 1, ... along ``axis`` that
    the coefficient maps reach: up to the degree, or to the first order
    whose space is discontinuous."""
    out = [grid]
    while space.degree > 0 and space.smoothness >= 0:
        out.append(differentiate(space, out[-1], axis))
        space = space.derivative_space()
    return out


class _TensorProductMap:
    """G(x1, x2) = sum_ij N_i(x1) M_j(x2) coef_ij over the bases of
    ``space1`` and ``space2``; subclasses set these and ``_coef`` (dim1,
    dim2, components), which `tensor_bind_x2` (grids) and `tensor_jet`
    (scattered points) contract."""

    @functools.cached_property
    def _dependence(self) -> dict:
        """{(a, b): ((on_x1, on_x2, value), ...)}, one triple per component
        of d1^a d2^b G for a, b up to the degrees: whether the component
        depends on x1 and on x2, and its value when it depends on neither.
        The B-splines of each axis are independent and sum to one, so a
        component is constant along an axis exactly when its coefficient grid
        is, and a constant equals each of its coefficients.  Orders that the
        coefficient maps do not reach count as depending on both axes."""
        k = self._coef.shape[2]
        out = dict.fromkeys(product(range(self.space1.degree + 1),
                                    range(self.space2.degree + 1)),
                            ((True, True, None),) * k)
        for a, g in enumerate(_axis_derivatives(self.space1, self._coef, 0)):
            for b, h in enumerate(_axis_derivatives(self.space2, g, 1)):
                on1 = np.diff(h, axis=0).any(axis=(0, 1))
                on2 = np.diff(h, axis=1).any(axis=(0, 1))
                out[a, b] = tuple(
                    (bool(i), bool(j), None if i or j else float(h[0, 0, c]))
                    for c, (i, j) in enumerate(zip(on1, on2)))
        return out

    @functools.cached_property
    def zeros(self) -> frozenset:
        """The (order, component) pairs of G that `_dependence` finds 0.0."""
        return frozenset((ab, c) for ab, deps in self._dependence.items()
                         for c, (_, _, v) in enumerate(deps) if v == 0.0)

    def _homogeneous_orders(self, orders) -> list:
        """The orders of the contracted coefficients that ``orders`` read."""
        return orders

    def _from_homogeneous(self, jet: dict, orders) -> dict:
        """The jet of G for ``orders`` from that of the contracted
        coefficients."""
        return jet

    def _present(self, orders) -> list:
        """``orders`` without those identically zero in every component."""
        deps = self._dependence
        return [ab for ab in orders
                if ab in deps and any(v != 0.0 for _, _, v in deps[ab])]

    def jet(self, x1, x2, c: int = 0, d: int = 0, orders=None) -> dict:
        """{(a, b): (d1^a d2^b G_0, d1^a d2^b G_1, ...)} for a <= c, b <= d
        or the (a, b) in ``orders``, in one pass; orders that are identically
        zero in every component are absent.  A column ``x1`` (N1, 1) with a
        row ``x2`` (1, N2) is the grid of `bind_x2`; any other broadcast pair
        is contracted point by point, every component at the full shape."""
        orders = list(product(range(c + 1), range(d + 1)) if orders is None else orders)
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if x1.ndim == x2.ndim == 2 and x1.shape[1] == 1 and x2.shape[0] == 1:
            return self._bound_x2(x2.tobytes(), tuple(orders))(x1)
        needs = self._present(self._homogeneous_orders(orders))
        full = tensor_jet((self.space1, self.space2), self._coef, x1, x2, needs)
        k = self._coef.shape[2]
        # rebound, so that only the dict holds each order and
        # _from_homogeneous can release it
        full = {ab: tuple(v[..., c] for c in range(k)) for ab, v in full.items()}
        return self._from_homogeneous(full, orders)

    @functools.cached_property
    def _bound_x2(self):
        """``(x2 bytes, orders) ->`` `bind_x2` of that row, the map's own memo
        of its eight most recent rows; a data matrix's blocks share them."""
        return functools.lru_cache(maxsize=8)(
            lambda x2, orders: self.bind_x2(np.frombuffer(x2), orders))

    def bind_x2(self, x2, orders):
        """``x1 -> jet(x1, x2, orders=orders)`` on the grid x1 (x) x2, x1 a
        column (or flat) and x2 a row (or flat).  Each component has the
        broadcast shape of the axes it depends on: (N1, 1), (1, N2), (1, 1)
        or (N1, N2).  Constants come from the coefficients; the other
        (order, component) pairs are grouped by the axes they depend on.  A
        group that does not depend on x1 is evaluated here, the x2 axis of
        the others is contracted here, and each call contracts only the
        coefficient rows its x1 points touch."""
        x2 = np.reshape(x2, (1, -1))
        needs = self._present(self._homogeneous_orders(orders))
        deps = self._dependence
        spaces = (self.space1, self.space2)
        constants = {ab: [None if v is None else np.full((1, 1), v)
                          for _, _, v in deps[ab]] for ab in needs}
        groups = defaultdict(list)
        for ab in needs:
            for c, (on1, on2, v) in enumerate(deps[ab]):
                if v is None:
                    groups[on1, on2].append((ab, c))
        bound = []  # (pairs, component index, x1 -> values)
        for (on1, on2), pairs in groups.items():
            comps = sorted({c for _, c in pairs})
            step2 = tensor_bind_x2(spaces, self._coef[..., comps],
                                   x2 if on2 else x2[:, :1],
                                   sorted({ab for ab, _ in pairs}))
            if not on1:  # the same values for every x1
                step2 = lambda x1, values=step2([0.0]): values  # noqa: E731
            bound.append((pairs, comps.index, step2))

        def contracted(x1) -> dict:
            out = {ab: list(v) for ab, v in constants.items()}
            for pairs, index, step2 in bound:
                values = step2(x1)
                for ab, c in pairs:
                    out[ab][c] = values[ab][..., index(c)]
            return {ab: tuple(v) for ab, v in out.items()}

        # only the dict that `contracted` returns holds each order, so that
        # _from_homogeneous can release it
        return lambda x1: self._from_homogeneous(contracted(x1), orders)

    def corner_points(self) -> tuple:
        """(G_x, G_y) at the parameter corners x_1..x_4 (`CORNERS`), without
        a jet: the corner coefficients of the grid (the knot vectors are
        open), through `_from_homogeneous` as the jet's order (0, 0), so a
        rational map divides w P by w there.  Plus 0.0, as the contraction
        sums from 0.0: a coefficient -0.0 reads 0.0 there too."""
        corners = tuple((self._coef[[0, -1, -1, 0], [0, 0, -1, -1]] + 0.0).T)
        return self._from_homogeneous({(0, 0): corners}, [(0, 0)])[0, 0]

    def _one_order(self, x1, x2, c: int, d: int) -> np.ndarray:
        out = np.zeros(np.broadcast(x1, x2).shape + (2,))
        for k, v in enumerate(self.jet(x1, x2, orders=[(c, d)]).get((c, d), ())):
            out[..., k] = v
        return out

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


def _continuous(*spaces) -> tuple:
    """``spaces`` if each is continuous, which needs degree >= 1, else a
    GeometryError: a map over S_(p,-1) is torn apart at its breakpoints."""
    for axis, space in enumerate(spaces):
        if space.smoothness < 0:
            raise GeometryError(
                f"the space of axis {axis} must be continuous with degree >= 1, "
                f"got S_({space.degree},{space.smoothness})")
    return spaces


class SplineMap(_TensorProductMap):
    """Tensor-product spline patch with a control-point grid."""

    kind = "spline"

    def __init__(self, space1: UniSplineSpace, space2: UniSplineSpace, control):
        self.space1, self.space2 = _continuous(space1, space2)
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

    The jet contracts the homogeneous coefficients (w P, w) once, at the
    shapes their dependence allows, then the quotient rule applied to
    ``F = G * w`` turns it into every rational order, each component at the
    broadcast shape of its operands; this keeps the discrete function space
    polynomial on the parameter domain.  No order or component of a
    rational map is dropped: the dependence rule reads w P and w, not G.
    """

    kind = "nurbs"
    zeros = frozenset()

    def __init__(self, space1, space2, control, weights):
        self.space1, self.space2 = _continuous(space1, space2)
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

    def _homogeneous_orders(self, orders) -> list:
        # an order (a, b) reads every (e, f) <= (a, b)
        return sorted({(e, f) for a, b in orders
                       for e in range(a + 1) for f in range(b + 1)})

    def _from_homogeneous(self, H: dict, orders) -> dict:
        # each homogeneous order leaves H after the last rational order that
        # reads it, so that, where H alone holds it, its memory is freed
        build = self._homogeneous_orders(orders)
        last = {ef: max(n for n, (a, b) in enumerate(build) if ef[0] <= a and ef[1] <= b)
                for ef in H}
        w0 = H[0, 0][2]
        G: dict[tuple[int, int], tuple] = {}
        for n, (a, b) in enumerate(build):
            # F^(a,b) = sum_{e<=a, f<=b} C(a,e) C(b,f) G^(e,f) w^(a-e,b-f)
            terms = [(e, f) for e, f in product(range(a + 1), range(b + 1))
                     if (e, f) != (a, b) and (a - e, b - f) in H]
            g = list(H[a, b][:2]) if (a, b) in H else [0.0, 0.0]
            for i, (e, f) in enumerate(terms):
                m, w = comb(a, e) * comb(b, f), H[a - e, b - f][2]
                w = w if m == 1 else m * w
                for c in range(2):
                    t = G[e, f][c] * w
                    # the first term makes g[c] an array of its own, which
                    # later terms of its shape update in place; H stays
                    if i and g[c].shape == t.shape:
                        g[c] -= t
                    else:
                        g[c] = g[c] - t
                    del t  # freed before the next term's product
            for ef in [ef for ef in H if last[ef] == n]:
                del H[ef]
            G[a, b] = tuple(v / w0 for v in g)
        return {ab: G[ab] for ab in orders}

    def derivative(self, x1, x2, c: int = 0, d: int = 0) -> np.ndarray:
        return self._one_order(x1, x2, c, d)


def _mul(*factors):
    """The product of ``factors`` left to right; None (zero) if one is."""
    if any(f is None for f in factors):
        return None
    return functools.reduce(operator.mul, factors)


def _add(*terms):
    """The sum of the ``terms`` that are not None, left to right, or None."""
    terms = [t for t in terms if t is not None]
    return functools.reduce(operator.add, terms) if terms else None


_OUT_OF_PLACE = {operator.imul: operator.mul, operator.iadd: operator.add,
                 operator.isub: operator.sub}


def _fold(iop, acc, x):
    """``iop(acc, x)`` for ``iop`` imul, iadd or isub: in place in ``acc`` (a
    number or an array its caller owns) unless broadcasting grows it."""
    try:
        return iop(acc, x)
    except ValueError:  # numpy checks the output shape before it writes
        return _OUT_OF_PLACE[iop](acc, x)


def jet_component(jet, zeros, ab, c):
    """Component ``c`` of order ``ab`` of a map jet, or None where it is an
    exact zero: an absent order or a pair in ``zeros`` (`gmap.zeros`)."""
    return None if ab not in jet or (ab, c) in zeros else jet[ab][c]


def jacobian_det(jet, zeros):
    """det [d1 G | d2 G] from a map jet of orders (1, 0) and (0, 1) and the
    map's ``zeros``, without the products of exact zeros: det has the
    broadcast shape of the factors it keeps (0.0 if it keeps none)."""
    a, b, c, d = (jet_component(jet, zeros, ab, i)
                  for ab in ((1, 0), (0, 1)) for i in (0, 1))
    det = _add(_mul(a, d), _mul(-1.0, b, c))
    return 0.0 if det is None else det


def check_2regular(gmap):
    """Minimum Jacobian determinant over a 33 x 33 tensor sample grid.

    Returns (min_det, (xi1, xi2) of the minimizer).  A non-positive value
    means the map folds and is not 2-regular.
    """
    s = np.linspace(0.0, 1.0, 33)
    jet = gmap.jet(s[:, None], s[None, :], orders=[(1, 0), (0, 1)])
    det = np.broadcast_to(jacobian_det(jet, gmap.zeros), (s.size, s.size))
    i, j = np.unravel_index(np.argmin(det), det.shape)
    return float(det[i, j]), (float(s[i]), float(s[j]))


def _affine_jet(gmap):
    """The orders (1, 0) and (0, 1) of G, one number per component, where G
    is affine, else None: the one affine test of the package (`map_jets`,
    `norms`).  G is affine when both orders are constant in both
    components and no order of total degree 2 is nonzero (`_dependence`); a
    rational map's dependence describes its homogeneous coefficients, so it
    never counts, and neither does a map without a dependence table."""
    deps = getattr(gmap, "_dependence", None)
    if deps is None or isinstance(gmap, NurbsMap):
        return None
    first, second = ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2))
    if any(v is None for ab in first for _, _, v in deps[ab]) or any(
            v != 0.0 for ab in second for _, _, v in deps.get(ab, ())):
        return None
    return {ab: tuple(v for _, _, v in deps[ab]) for ab in first}


def map_jets(gmap):
    """``(x1, x2, orders) -> (jet, det)``: a jet of G at the points and det G
    there, or a `GeometryError` (`_positive`) where det G <= 0.  On an affine
    G (`_affine_jet`) the jet is G(0, 0) + J xi, each coordinate at the
    broadcast shape of the axes it depends on, with J's numbers as its orders
    (1, 0) and (0, 1) and no higher order, whatever ``orders`` asks; det G is
    formed once per map.  On any other map it is one `jet` of ``orders``,
    whose det G is formed per call."""
    zeros = frozenset(getattr(gmap, "zeros", ()))
    affine = _affine_jet(gmap)
    if affine is None:
        def jets(x1, x2, orders):
            jet = gmap.jet(x1, x2, orders=orders)
            return jet, _positive(jacobian_det(jet, zeros), x1, x2)

        return jets
    det = jacobian_det(affine, zeros)
    corner = [v[0] for v in gmap.corner_points()]  # G(0, 0)
    jacobian = (affine[1, 0], affine[0, 1])
    # coordinate i: its corner value plus a term per axis it depends on
    axes = [[(k, v[i]) for k, v in enumerate(jacobian) if v[i] != 0.0] for i in (0, 1)]

    def affine_jets(x1, x2, orders):
        if det <= 0.0:  # a number of the map
            _positive(det, x1, x2)
        points = [functools.reduce(operator.add, [(x1, x2)[k] * v for k, v in terms],
                                   corner[i]) for i, terms in enumerate(axes)]
        return {(0, 0): points, **affine}, det

    return affine_jets


def _positive(det, x1, x2):
    """``det``, or the one fold error where it is <= 0 at a point, naming its
    least value and a parameter point where it is taken."""
    if np.any(det <= 0.0):
        least, x1, x2 = np.broadcast_arrays(det, x1, x2)
        if least.size:  # else no point is evaluated
            i = np.nanargmin(least)
            raise GeometryError(
                f"non-positive Jacobian determinant {least.flat[i]:.3e} at parameter "
                f"point ({x1.flat[i]:.6f}, {x2.flat[i]:.6f}), the least at the points "
                "evaluated")
    return det


def block_points(gmap, curved: int) -> int:
    """The most grid points of one block of a blocked loop over ``gmap``
    (the norm quadrature, the data calls of a pullback): ``curved`` where a
    derivative of G of order up to (2, 2), other than G itself, depends on
    both axes (`_dependence`), as on spline and NURBS patches with curved
    interiors, where each such order and every term the chain rule forms
    from it spans the block; `splines._BLOCK_POINTS` on other maps (whose
    first and second orders depend on one axis at most, as on every
    bilinear map) and on maps without a dependence table."""
    deps = getattr(gmap, "_dependence", None)
    if deps is not None and any(on1 and on2 for (a, b), comps in deps.items()
                                if 0 < a + b and max(a, b) <= 2
                                for on1, on2, _ in comps):
        return curved
    return _BLOCK_POINTS


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
        self._diameter = self._measure_diameter()
        self._validate_conformity()

    # -- topology ------------------------------------------------------------

    def _validate_topology(self):
        if not self.patches:
            raise GeometryError("patches: a geometry needs at least one patch")
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
        """The diagonal of the bounding box of a 5 x 5 parameter grid on
        every patch, measured once, at construction."""
        return self._diameter

    def _measure_diameter(self) -> float:
        pts = []
        s = np.linspace(0.0, 1.0, 5)
        for patch in self.patches:
            X1, X2 = np.meshgrid(s, s, indexing="ij")
            pts.append(patch.gmap.point(X1, X2).reshape(-1, 2))
        pts = np.concatenate(pts)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def _validate_conformity(self):
        diam = self.domain_diameter()
        t = np.linspace(0.0, 1.0, 20)
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
            zb = self.patches[ii].side_partition(jj)
            zb = (reverse(zb) if iface.reversed else zb).as_array()
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
#               "knots": [[...], [...]]?,          (open knot vectors; degree >= 1 and
#                                                  interior multiplicity <= degree)
#               "control_points": [[x, y], ...],   (row-major, xi2 fastest)
#               "weights": [...]?,                 (nurbs only)
#               "partitions": [[...], [...]]}],
#  "interfaces": [{"left": [i, j], "right": [I, J], "reversed": bool}]}
#
# Patch indices are 0-based; sides use the labeling 1..4 described above.


def _require(entry: dict, key: str, where: str):
    if not isinstance(entry, dict):
        raise GeometryError(f"{where}: expected an object, got {entry!r}")
    if key not in entry:
        raise GeometryError(f"{where}: missing field '{key}'")
    return entry[key]


def _list(value, where: str, length: int | None = None) -> list:
    """``value`` if it is a JSON list (of ``length`` items), else a
    GeometryError naming the field."""
    if not isinstance(value, list) or length not in (None, len(value)):
        items = "a list" if length is None else f"a list of {length}"
        raise GeometryError(f"{where}: expected {items}, got {value!r}")
    return value


def _integers(entry: dict, key: str, where: str) -> tuple[int, int]:
    """Field ``key`` of ``entry``: a pair of integers."""
    pair = tuple(_list(_require(entry, key, where), f"{where}.{key}", 2))
    if not all(type(v) is int for v in pair):
        raise GeometryError(f"{where}.{key}: expected two integers, got {list(pair)}")
    return pair


def _numbers(value, where: str) -> np.ndarray:
    """``value`` as an array of finite floats, else a GeometryError naming
    the field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"{where}: expected numbers ({exc})") from None
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{where}: expected finite numbers")
    return arr


def _space_from_knots(degree: int, knots, where: str) -> UniSplineSpace:
    t = _numbers(knots, where)
    if t.ndim == 1 and np.any(t[1:] < t[:-1]):
        raise GeometryError(f"{where}: knots must be non-decreasing")
    if t.ndim != 1 or not t.size or t[0] != 0.0 or t[-1] != 1.0:
        raise GeometryError(f"{where}: knots must span [0, 1]")
    breaks, mults = np.unique(t, return_counts=True)  # exact: one rule for both
    interior_mult = set(mults[1:-1].tolist())
    if len(interior_mult) > 1:
        raise GeometryError(f"{where}: non-uniform interior knot multiplicity")
    mult = interior_mult.pop() if interior_mult else 1
    if mult > degree:  # multiplicity p + 1 tears the map apart there
        raise GeometryError(f"{where}: interior knot multiplicity {mult} > degree {degree}: "
                            "the map is discontinuous there")
    if mults[0] != degree + 1 or mults[-1] != degree + 1:
        raise GeometryError(f"{where}: knot vector must be open")
    return UniSplineSpace(degree, degree - mult, Partition(tuple(float(z) for z in breaks)))


def _patch_from_json(entry: dict, idx: int) -> Patch:
    where = f"patches[{idx}]"
    kind = _require(entry, "kind", where)
    parts = _list(_require(entry, "partitions", where), f"{where}.partitions", 2)
    partitions = []
    for m, zs in enumerate(parts):
        try:
            partitions.append(Partition(tuple(float(z) for z in zs)))
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"{where}.partitions[{m}]: {exc}") from exc
    cps = _numbers(_require(entry, "control_points", where), f"{where}.control_points")
    if kind == "bilinear":
        if cps.shape != (4, 2):
            raise GeometryError(
                f"{where}.control_points: need exactly 4 corners, got {cps.shape}"
            )
        gmap = BilinearMap(cps.reshape(2, 2, 2))
    elif kind in ("spline", "nurbs"):
        degree = _integers(entry, "degree", where)
        if min(degree) < 1:
            raise GeometryError(f"{where}.degree: expected degrees >= 1, got {list(degree)}")
        knots = _list(_require(entry, "knots", where), f"{where}.knots", 2)
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
            w = _numbers(_require(entry, "weights", where), f"{where}.weights")
            if w.shape != (s1.dim * s2.dim,):
                raise GeometryError(f"{where}.weights: expected {s1.dim * s2.dim}")
            try:
                gmap = NurbsMap(s1, s2, grid, w.reshape(s1.dim, s2.dim))
            except GeometryError as exc:
                raise GeometryError(f"{where}.weights: {exc}") from None
    else:
        raise GeometryError(f"{where}.kind: unknown kind '{kind}'")
    return Patch(gmap, tuple(partitions))


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
    """The multi-patch of a geometry JSON file; a `GeometryError` naming the
    path where it cannot be read (a directory, a file that is not UTF-8) or
    is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GeometryError(f"{path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise GeometryError(f"{path}: cannot read geometry ({exc})") from exc
    return multipatch_from_json(data)


def multipatch_from_json(data: dict) -> MultiPatch:
    patches_raw = _list(_require(data, "patches", "geometry"), "patches")
    patches = [_patch_from_json(e, i) for i, e in enumerate(patches_raw)]
    interfaces = []
    for m, entry in enumerate(_list(data.get("interfaces", []), "interfaces")):
        where = f"interfaces[{m}]"
        left, right = _integers(entry, "left", where), _integers(entry, "right", where)
        rev = entry.get("reversed", False)
        if not isinstance(rev, bool):
            raise GeometryError(f"{where}.reversed: expected true or false, got {rev!r}")
        interfaces.append(Interface(left, right, rev))
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

import json

import numpy as np
import pytest

from asg1kit.geometry import (
    BUILTIN_GEOMETRIES,
    BilinearMap,
    GeometryError,
    Interface,
    MultiPatch,
    NurbsMap,
    Patch,
    SplineMap,
    builtin_geometry,
    check_2regular,
    edge_parameter_map,
    load_geometry,
    multipatch_from_json,
    multipatch_to_json,
    physical_mesh_size,
    save_geometry,
)
from asg1kit.splines import UniSplineSpace, tensor_jet, uniform_partition


def identity_map():
    return BilinearMap(np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], float))


# -- maps ---------------------------------------------------------------------

def test_identity_jacobian():
    g = identity_map()
    X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    np.testing.assert_allclose(g.derivative(X, Y, 1, 0)[..., 0], 1.0)
    np.testing.assert_allclose(g.derivative(X, Y, 1, 0)[..., 1], 0.0)
    np.testing.assert_allclose(g.derivative(X, Y, 0, 1)[..., 1], 1.0)


def test_affine_stretch_determinant():
    corners = np.array([[[0, 0], [0, 1]], [[2, 0], [2, 1]]], float)
    g = BilinearMap(corners)
    det, _ = check_2regular(g)
    assert det == pytest.approx(2.0)


def test_bilinear_mixed_derivative_matches_finite_differences():
    corners = np.array([[[0, 0], [0.2, 1.1]], [[1, -0.1], [1.3, 1.0]]])
    g = BilinearMap(corners)
    h = 1e-5
    pt = (np.asarray(0.4), np.asarray(0.6))
    fd = (g.point(pt[0] + h, pt[1] + h) - g.point(pt[0] - h, pt[1] + h)
          - g.point(pt[0] + h, pt[1] - h) + g.point(pt[0] - h, pt[1] - h)) \
        / (4 * h * h)
    got = g.derivative(pt[0], pt[1], 1, 1)
    assert np.max(np.abs(got - fd)) <= 1e-6


def test_degenerate_map_flagged():
    corners = np.array([[[0, 0], [1.2, 0.1]], [[1, 0], [0.2, 1.0]]], float)
    det, loc = check_2regular(BilinearMap(corners))
    assert det < 0.0
    assert 0.0 <= loc[0] <= 1.0 and 0.0 <= loc[1] <= 1.0


def test_collapsed_map_has_zero_determinant():
    # G = (x1, 0): each product of det G has an exact-zero factor
    g = BilinearMap(np.array([[[0, 0], [0, 0]], [[1, 0], [1, 0]]], float))
    assert check_2regular(g)[0] == 0.0


def test_spline_map_derivatives():
    Z = uniform_partition(2)
    S = UniSplineSpace(2, 1, Z)
    rng = np.random.default_rng(0)
    base = np.stack(
        np.meshgrid(np.linspace(0, 1, S.dim), np.linspace(0, 1, S.dim),
                    indexing="ij"), axis=-1
    )
    ctrl = base + 0.02 * rng.standard_normal(base.shape)
    ctrl[0, :, 0] = 0.0
    ctrl[-1, :, 0] = 1.0
    ctrl[:, 0, 1] = 0.0
    ctrl[:, -1, 1] = 1.0
    g = SplineMap(S, S, ctrl)
    h = 1e-6
    x, y = np.asarray(0.37), np.asarray(0.61)
    fd = (g.point(x + h, y) - g.point(x - h, y)) / (2 * h)
    assert np.max(np.abs(g.derivative(x, y, 1, 0) - fd)) <= 1e-6


def _jet_maps():
    from test_integration import (curved_interior_two_patch,
                                  reversed_skew_two_patch, single_patch_nurbs)

    return {
        "bilinear": reversed_skew_two_patch().patches[1].gmap,
        "spline": curved_interior_two_patch().patches[0].gmap,
        "nurbs": single_patch_nurbs().patches[0].gmap,
    }


@pytest.mark.parametrize("kind", ["bilinear", "spline", "nurbs"])
def test_jet_matches_derivative(kind):
    gmap = _jet_maps()[kind]
    assert gmap.kind == kind
    rng = np.random.default_rng(5)
    scattered = (rng.random(40), rng.random(40))
    # the grid includes the ends and the geometry breakpoint 0.5
    s1 = np.linspace(0.0, 1.0, 7)
    s2 = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    grid = (s1[:, None], s2[None, :])
    pointwise = np.meshgrid(s1, s2, indexing="ij")
    top = 4  # above the degree of the spline map, so some orders vanish
    jets = [gmap.jet(*xy, top, top) for xy in (scattered, grid, pointwise)]
    assert set(jets[0]) == set(jets[1]) == set(jets[2])
    for a in range(top + 1):
        for b in range(top + 1):
            for jet, xy in zip(jets, (scattered, grid, pointwise)):
                want = gmap.derivative(*xy, a, b)
                if (a, b) not in jet:
                    assert np.all(want == 0.0), (a, b)
                    continue
                assert np.any(want != 0.0), (a, b)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert len(jet[a, b]) == want.shape[-1]
                for c, value in enumerate(jet[a, b]):
                    # grid components broadcast to the grid, others are full
                    if xy is not grid:
                        assert value.shape == want.shape[:-1]
                    got = np.broadcast_to(value, want.shape[:-1])
                    assert np.max(np.abs(got - want[..., c])) <= 1e-13 * scale, (a, b)
            for v, w in zip(jets[1].get((a, b), ()), jets[2].get((a, b), ())):
                scale = max(1.0, float(np.max(np.abs(w))))
                assert np.max(np.abs(np.broadcast_to(v, w.shape) - w)) <= 1e-13 * scale
    absent = {"bilinear": 1, "spline": 3, "nurbs": top}[kind]
    assert set(jets[0]) == {(a, b) for a in range(absent + 1)
                            for b in range(absent + 1)}


@pytest.mark.parametrize("kind", ["three_patch_L", "bilinear", "spline", "nurbs"])
def test_grid_jet_components_take_the_shapes_of_their_axes(kind):
    # on a column/row grid each component has the broadcast shape of the
    # axes it depends on and equals the map point by point on the full grid
    maps = _jet_maps()
    maps["three_patch_L"] = builtin_geometry("three_patch_L").patches[1].gmap
    gmap = maps[kind]
    s1 = np.linspace(0.0, 1.0, 7)
    s2 = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    X1, X2 = np.meshgrid(s1, s2, indexing="ij")
    jet = gmap.jet(s1[:, None], s2[None, :], 3, 3)
    shapes = {}
    for a in range(4):
        for b in range(4):
            # the reference of a polynomial map is the bare contraction of
            # its coefficients, point by point
            want = gmap.derivative(X1, X2, a, b) if kind == "nurbs" else tensor_jet(
                (gmap.space1, gmap.space2), gmap._coef, X1, X2, [(a, b)]
            ).get((a, b), np.zeros(X1.shape + (2,)))
            scale = max(1.0, float(np.max(np.abs(want))))
            if (a, b) not in jet:
                assert np.max(np.abs(want)) <= 1e-13 * scale, (a, b)
                continue
            for c, value in enumerate(jet[a, b]):
                assert value.shape in ((1, 1), (7, 1), (1, 5), (7, 5)), (a, b, c)
                got = np.broadcast_to(value, X1.shape)
                assert np.max(np.abs(got - want[..., c])) <= 1e-13 * scale, (a, b, c)
                if np.max(np.abs(want[..., c])) <= 1e-13 * scale:
                    assert np.all(value == 0.0), (a, b, c)
                shapes[a, b, c] = value.shape
    if kind == "three_patch_L":
        # x = x1 - 1, y = x2: d1 G = (1, 0), d2 G = (0, 1), d12 G = 0
        assert shapes[0, 0, 0] == (7, 1) and shapes[0, 0, 1] == (1, 5)
        assert all(shapes[ab + (c,)] == (1, 1) for ab in ((1, 0), (0, 1)) for c in (0, 1))
        assert jet[1, 0] == (1.0, 0.0) and jet[0, 1] == (0.0, 1.0)
        assert set(jet) == {(0, 0), (1, 0), (0, 1)}
    if kind in ("three_patch_L", "bilinear"):
        # d1 G of a bilinear map depends on x2 at most, d2 G on x1 at most
        assert all(shapes[1, 0, c] in ((1, 1), (1, 5)) for c in (0, 1))
        assert all(shapes[0, 1, c] in ((1, 1), (7, 1)) for c in (0, 1))
    if kind in ("spline", "nurbs"):
        assert all(shape == (7, 5) for shape in shapes.values())


@pytest.mark.parametrize("kind", ["bilinear", "spline", "nurbs"])
def test_jet_of_requested_orders_equals_full_jet(kind):
    # the six orders a + b <= 2 that the norms and the vertex C2 data read;
    # for NURBS the quotient rule then runs over these orders alone
    gmap = _jet_maps()[kind]
    six = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    rng = np.random.default_rng(8)
    s = np.linspace(0.0, 1.0, 9)
    for x1, x2 in ((rng.random(30), rng.random(30)), (s[:, None], s[None, :])):
        full = gmap.jet(x1, x2, 2, 2)
        jet = gmap.jet(x1, x2, orders=six)
        assert set(jet) == {ab for ab in six if ab in full}
        for ab, value in jet.items():
            assert len(value) == len(full[ab])
            for v, w in zip(value, full[ab]):
                assert np.array_equal(v, w), ab


def test_nurbs_jet_is_the_quotient_rule_of_its_homogeneous_jet():
    # the rational orders up to (2, 2) equal the quotient rule written out
    # here, bit for bit, and the homogeneous jet they are built from is
    # read-only: the quotient rule writes into no array of it
    from math import comb

    gmap = _jet_maps()["nurbs"]

    class Homogeneous(NurbsMap):
        def _from_homogeneous(self, H, orders):
            return H

    class ReadOnly(NurbsMap):
        def _from_homogeneous(self, H, orders):
            for comps in H.values():
                for v in comps:
                    v.flags.writeable = False
            return super()._from_homogeneous(H, orders)

    args = (gmap.space1, gmap.space2, gmap.control, gmap.weights)
    homogeneous, read_only = Homogeneous(*args), ReadOnly(*args)
    rng = np.random.default_rng(14)
    s1 = np.linspace(0.0, 1.0, 7)
    s2 = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    for x1, x2 in ((s1[:, None], s2[None, :]), (rng.random(30), rng.random(30))):
        H = homogeneous.jet(x1, x2, 2, 2)
        want = {}
        for a in range(3):
            for b in range(3):
                g = [H[a, b][c] if (a, b) in H else 0.0 for c in range(2)]
                for e in range(a + 1):
                    for f in range(b + 1):
                        if (e, f) != (a, b) and (a - e, b - f) in H:
                            w = comb(a, e) * comb(b, f) * H[a - e, b - f][2]
                            g = [g[c] - want[e, f][c] * w for c in range(2)]
                want[a, b] = tuple(v / H[0, 0][2] for v in g)
        for jet in (gmap.jet(x1, x2, 2, 2), read_only.jet(x1, x2, 2, 2)):
            assert set(jet) == set(want)
            for ab, comps in jet.items():
                for v, w in zip(comps, want[ab], strict=True):
                    assert v.shape == w.shape and np.array_equal(v, w), ab


def test_bilinear_jet_is_corner_interpolation():
    # the degree-1 tensor spline of the corners is sum_ij L_i(x1) L_j(x2)
    # corners[i, j] with L = (1 - x, x); orders above 1 are absent
    rng = np.random.default_rng(3)
    corners = rng.uniform(-1.0, 1.0, (2, 2, 2))
    gmap = BilinearMap(corners)

    def L(x, a):
        x = np.asarray(x, float)
        return np.stack([1.0 - x, x] if a == 0 else
                        [-np.ones_like(x), np.ones_like(x)], axis=-1)

    s = np.linspace(0.0, 1.0, 6)
    for x1, x2 in ((rng.random(30), rng.random(30)), (s[:, None], s[None, :])):
        jet = gmap.jet(x1, x2, 2, 2)
        assert set(jet) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        for (a, b), value in jet.items():
            want = np.einsum("...i,ijk,...j->...k", L(x1, a), corners, L(x2, b))
            for c, v in enumerate(value):
                got = np.broadcast_to(v, want.shape[:-1])
                assert np.max(np.abs(got - want[..., c])) <= 1e-15, (a, b)


def test_nurbs_weights_validated():
    Z = uniform_partition(1)
    S = UniSplineSpace(2, 1, Z)
    ctrl = np.zeros((3, 3, 2))
    with pytest.raises(GeometryError):
        NurbsMap(S, S, ctrl, np.zeros((3, 3)))


# -- topology and conformity -----------------------------------------------------

def test_builtin_two_patch_square_topology():
    mp = builtin_geometry("two_patch_square")
    assert len(mp.interfaces) == 1
    assert len(mp.boundary_edges) == 6


def test_builtin_three_patch_L_topology():
    mp = builtin_geometry("three_patch_L")
    assert len(mp.interfaces) == 2
    assert len(mp.boundary_edges) == 8


def test_edge_parameter_map():
    iface = Interface((0, 2), (1, 4), reversed=False)
    assert edge_parameter_map(iface, 0.3) == pytest.approx(0.3)
    riface = Interface((0, 2), (1, 4), reversed=True)
    assert edge_parameter_map(riface, 0.3) == pytest.approx(0.7)
    assert edge_parameter_map(riface, 0.5) == pytest.approx(0.5)


def test_reversed_interface_validates():
    # second patch parameterized so the shared edge runs backwards
    left = Patch(identity_map(), (uniform_partition(4),) * 2)
    corners = np.array([[[2, 1], [2, 0]], [[1, 1], [1, 0]]], float)
    right = Patch(BilinearMap(corners), (uniform_partition(4),) * 2)
    mp = MultiPatch([left, right], [Interface((0, 2), (1, 2), reversed=True)])
    assert len(mp.boundary_edges) == 6
    det, _ = check_2regular(right.gmap)
    assert det > 0


def test_non_matching_interface_rejected():
    left = Patch(identity_map(), (uniform_partition(4),) * 2)
    corners = np.array([[[1.5, 0], [1.5, 1]], [[2.5, 0], [2.5, 1]]], float)
    right = Patch(BilinearMap(corners), (uniform_partition(4),) * 2)
    with pytest.raises(GeometryError):
        MultiPatch([left, right], [Interface((0, 2), (1, 4))])


def test_partition_mismatch_rejected():
    left = Patch(identity_map(), (uniform_partition(4),) * 2)
    corners = np.array([[[1, 0], [1, 1]], [[2, 0], [2, 1]]], float)
    right = Patch(BilinearMap(corners), (uniform_partition(5),) * 2)
    with pytest.raises(GeometryError):
        MultiPatch([left, right], [Interface((0, 2), (1, 4))])


def test_duplicate_edge_rejected():
    mp = builtin_geometry("two_patch_square")
    with pytest.raises(GeometryError):
        MultiPatch(
            mp.patches,
            list(mp.interfaces) + [Interface((0, 2), (1, 4))],
        )


# -- mesh size ---------------------------------------------------------------------

def test_mesh_size_identity():
    mp = builtin_geometry("unit_square", 4)
    assert physical_mesh_size(mp) == pytest.approx(np.sqrt(2.0) / 4.0, rel=1e-12)


def test_mesh_size_stretched():
    corners = np.array([[[0, 0], [0, 1]], [[2, 0], [2, 1]]], float)
    mp = MultiPatch(
        [Patch(BilinearMap(corners), (uniform_partition(4),) * 2)], []
    )
    assert physical_mesh_size(mp) == pytest.approx(
        np.sqrt(0.25 ** 2 + 0.5 ** 2), rel=1e-12
    )


def test_mesh_size_against_dense_sampling():
    corners = np.array([[[0, 0], [0.3, 1.2]], [[1.1, 0.1], [1.4, 1.0]]])
    mp = MultiPatch([Patch(BilinearMap(corners), (uniform_partition(3),) * 2)], [])
    got = physical_mesh_size(mp)
    # dense sampling oracle: 10x10 boundary samples per element
    worst = 0.0
    z = np.linspace(0, 1, 4)
    g = corners_map = mp.patches[0].gmap
    for a, b in zip(z[:-1], z[1:]):
        for c, d in zip(z[:-1], z[1:]):
            s = np.linspace(0, 1, 10)
            xs = np.concatenate([a + (b - a) * s, np.full(10, b),
                                 a + (b - a) * s, np.full(10, a)])
            ys = np.concatenate([np.full(10, c), c + (d - c) * s,
                                 np.full(10, d), c + (d - c) * s])
            pts = g.point(xs, ys)
            diff = pts[:, None, :] - pts[None, :, :]
            worst = max(worst, float(np.max(np.linalg.norm(diff, axis=-1))))
    assert got >= worst * 0.98
    assert got <= worst * 1.02 + 1e-12


def test_mesh_size_matches_per_element_formula():
    from test_integration import curved_interior_two_patch

    mp = curved_interior_two_patch(n=5)
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
    assert physical_mesh_size(mp) == worst


# -- JSON I/O ------------------------------------------------------------------------

def test_json_roundtrip_builtin(tmp_path):
    mp = builtin_geometry("two_patch_skew")
    path = tmp_path / "geom.json"
    save_geometry(mp, path)
    again = load_geometry(path)
    assert len(again.patches) == 2
    assert again.interfaces == mp.interfaces
    path2 = tmp_path / "geom2.json"
    save_geometry(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("name", [*BUILTIN_GEOMETRIES, "nurbs_square/0", "nurbs_square/1",
                                  "curved_two_patch/0", "curved_two_patch/1"])
def test_json_roundtrip_keeps_the_spaces(tmp_path, name):
    # each patch reads back as the same kind of map over the same spline
    # spaces (breakpoints and knot multiplicities) and partitions
    from perfbench import workloads

    builder, _, seed = name.partition("/")
    mp = getattr(workloads, builder)(8, int(seed)) if seed else builtin_geometry(name)
    path = tmp_path / "geom.json"
    save_geometry(mp, path)
    again = load_geometry(path)
    assert len(again.patches) == len(mp.patches)
    for patch, want in zip(again.patches, mp.patches):
        assert type(patch.gmap) is type(want.gmap)
        assert (patch.gmap.space1, patch.gmap.space2) == (want.gmap.space1, want.gmap.space2)
        assert patch.partitions == want.partitions


def test_json_missing_corner_reports_field(tmp_path):
    data = multipatch_to_json(builtin_geometry("unit_square"))
    data["patches"][0]["control_points"] = data["patches"][0]["control_points"][:3]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GeometryError, match="control_points"):
        load_geometry(path)


def test_json_missing_field_named(tmp_path):
    data = multipatch_to_json(builtin_geometry("unit_square"))
    del data["patches"][0]["partitions"]
    with pytest.raises(GeometryError, match="partitions"):
        multipatch_from_json(data)


def test_json_unknown_kind(tmp_path):
    data = multipatch_to_json(builtin_geometry("unit_square"))
    data["patches"][0]["kind"] = "weird"
    with pytest.raises(GeometryError, match="kind"):
        multipatch_from_json(data)


def test_json_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GeometryError):
        load_geometry(path)


def test_spline_geometry_roundtrip(tmp_path):
    Z = uniform_partition(2)
    S = UniSplineSpace(2, 1, Z)
    rng = np.random.default_rng(1)
    base = np.stack(
        np.meshgrid(np.linspace(0, 1, S.dim), np.linspace(0, 1, S.dim),
                    indexing="ij"), axis=-1
    )
    ctrl = base + 0.01 * rng.standard_normal(base.shape)
    mp = MultiPatch([Patch(SplineMap(S, S, ctrl), (Z, Z))], [])
    path = tmp_path / "spline.json"
    save_geometry(mp, path)
    again = load_geometry(path)
    gm = again.patches[0].gmap
    X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    assert np.max(np.abs(gm.point(X, Y) - mp.patches[0].gmap.point(X, Y))) <= 1e-14


def test_nurbs_geometry_roundtrip(tmp_path):
    # the benchmark's nurbs_square at seed 0
    from test_integration import single_patch_nurbs

    mp = single_patch_nurbs()
    path = tmp_path / "nurbs.json"
    save_geometry(mp, path)
    again = load_geometry(path)
    gm, want = again.patches[0].gmap, mp.patches[0].gmap
    assert isinstance(gm, NurbsMap)
    assert np.array_equal(gm.weights, want.weights)
    assert np.array_equal(gm.control, want.control)
    assert (gm.space1, gm.space2) == (want.space1, want.space2)
    assert again.patches[0].partitions == mp.patches[0].partitions
    s = np.linspace(0.0, 1.0, 7)
    for x1, x2 in ((s[:, None], s[None, :]), (s, s[::-1])):
        got, ref = gm.jet(x1, x2, 2, 2), want.jet(x1, x2, 2, 2)
        assert got.keys() == ref.keys()
        for ab in ref:
            assert len(got[ab]) == len(ref[ab])
            for g, r in zip(got[ab], ref[ab]):
                assert np.array_equal(g, r), ab


def test_builtins_all_load_and_are_regular():
    for name in BUILTIN_GEOMETRIES:
        mp = builtin_geometry(name)
        for patch in mp.patches:
            det, _ = check_2regular(patch.gmap)
            assert det > 0, name


def test_unknown_builtin():
    with pytest.raises(GeometryError):
        builtin_geometry("nope")



def test_nurbs_grid_jet_releases_homogeneous_orders():
    # a norms block of six orders on 128 x 256 points: the homogeneous jet
    # holds 6 orders x 3 components and the rational one returns 6 orders x 2
    # components, each an array of 128 x 256 doubles.  Keeping every
    # homogeneous order until the last rational one is built needs all 30 at
    # once, plus the working arrays; releasing each after its last reader
    # stays below the 30.
    import tracemalloc

    gmap = _jet_maps()["nurbs"]
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    x1, x2 = np.linspace(0.01, 0.99, 128), np.linspace(0.02, 0.98, 256)
    block = gmap.bind_x2(x2, orders)
    tracemalloc.start()
    try:
        jet = block(x1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    comp = x1.size * x2.size * 8
    assert all(v.shape == (x1.size, x2.size) for ab in orders for v in jet[ab])
    assert peak < (6 * 3 + 6 * 2) * comp, peak / comp
    # the same orders as the scattered contraction of the same points
    want = gmap.jet(*np.meshgrid(x1, x2, indexing="ij"), orders=orders)
    for ab in orders:
        for got, ref in zip(jet[ab], want[ab]):
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, ab


def test_corner_points_equal_the_jet_at_the_corners():
    # the corner coefficients (w P / w on a NURBS map) are the jet's order
    # (0, 0) at the parameter corners bit for bit, the sign of a zero
    # included: a coefficient -0.0 reads 0.0 in both
    from asg1kit.geometry import CORNERS

    rng = np.random.default_rng(11)
    S = UniSplineSpace(3, 1, uniform_partition(3))
    control = rng.normal(size=(S.dim, S.dim, 2))
    control[0, 0, 0] = control[-1, 0, 1] = control[-1, -1, 0] = -0.0
    square = np.array([[[-0.0, 0.0], [0.0, 1.0]], [[1.0, -0.0], [1.0, 1.0]]])
    maps = [*_jet_maps().values(), BilinearMap(square), SplineMap(S, S, control),
            NurbsMap(S, S, control, rng.uniform(0.5, 2.0, (S.dim, S.dim)))]
    maps += [patch.gmap for name in BUILTIN_GEOMETRIES
             for patch in builtin_geometry(name).patches]
    corners = [np.array(x) for x in zip(*CORNERS.values())]
    for gmap in maps:
        want = gmap.jet(*corners, orders=[(0, 0)])[0, 0]
        got = gmap.corner_points()
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

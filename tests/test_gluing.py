import numpy as np
import pytest

from asg1kit.geometry import (
    BilinearMap,
    Interface,
    MultiPatch,
    Patch,
    SplineMap,
    builtin_geometry,
)
from asg1kit.gluing import (
    LinearFunction,
    g1_compatibility_residual,
    interface_determinants,
    recover_all,
    recover_gluing,
)
from asg1kit.gluing import _edge_cross_and_det
from asg1kit.splines import UniSplineSpace, greville_points, uniform_partition
from oracles import crossing_direction


def two_square_patches():
    return builtin_geometry("two_patch_square", 4)


def ratio_two_geometry():
    """Left patch stretched 2x in x: D1 = 2 D2 along the interface."""
    left = Patch(
        BilinearMap(np.array([[[-1, 0], [-1, 1]], [[1, 0], [1, 1]]], float)),
        (uniform_partition(4),) * 2,
    )
    right = Patch(
        BilinearMap(np.array([[[1, 0], [1, 1]], [[2, 0], [2, 1]]], float)),
        (uniform_partition(4),) * 2,
    )
    return MultiPatch([left, right], [Interface((0, 2), (1, 4))])


def reversed_geometry():
    left = Patch(
        BilinearMap(np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], float)),
        (uniform_partition(4),) * 2,
    )
    corners = np.array([[[2, 1], [2, 0]], [[1, 1], [1, 0]]], float)
    right = Patch(BilinearMap(corners), (uniform_partition(4),) * 2)
    return MultiPatch([left, right], [Interface((0, 2), (1, 2), reversed=True)])


def non_asg1_geometry():
    """Spline right patch whose cross derivative wiggles along the interface,
    so D3 is a genuine spline and cannot be matched by linear gluing."""
    Z = uniform_partition(2)
    S = UniSplineSpace(2, 1, Z)
    g = greville_points(S)
    ctrl = np.zeros((S.dim, S.dim, 2))
    ctrl[..., 0] = 1.0 + np.linspace(0, 1, S.dim)[:, None]
    ctrl[..., 1] = g[None, :]
    # wiggle the y-coordinates of the second control row
    ctrl[1, :, 1] += np.array([0.0, 0.15, -0.15, 0.0])
    left = Patch(
        BilinearMap(np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], float)),
        (uniform_partition(4),) * 2,
    )
    right = Patch(SplineMap(S, S, ctrl), (uniform_partition(4),) * 2)
    return MultiPatch([left, right], [Interface((0, 2), (1, 4))])


# -- determinants -------------------------------------------------------------------

def test_axis_aligned_determinants():
    mp = two_square_patches()
    xi = np.linspace(0, 1, 9)
    D1, D2, D3 = interface_determinants(mp, mp.interfaces[0], xi)
    np.testing.assert_allclose(D1, 1.0, atol=1e-14)
    np.testing.assert_allclose(D2, 1.0, atol=1e-14)
    np.testing.assert_allclose(D3, 0.0, atol=1e-14)


def test_scaled_patch_determinants():
    # left patch scaled 2x in both axes: its Jacobian determinant is 4 while
    # the neighbor keeps 1 and the cross derivatives stay parallel
    scaled = Patch(
        BilinearMap(np.array([[[-2, 0], [-2, 2]], [[0, 0], [0, 2]]], float)),
        (uniform_partition(4),) * 2,
    )
    unit = Patch(
        BilinearMap(np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], float)),
        (uniform_partition(4),) * 2,
    )
    xi = np.linspace(0, 1, 5)
    NL, D1 = _edge_cross_and_det(scaled, 2, xi)
    NR, D2 = _edge_cross_and_det(unit, 4, xi)
    D3 = NR[0] * NL[1] - NR[1] * NL[0]
    np.testing.assert_allclose(D1, 4.0, atol=1e-14)
    np.testing.assert_allclose(D2, 1.0, atol=1e-14)
    np.testing.assert_allclose(D3, 0.0, atol=1e-14)


def test_determinants_positive_where_regular():
    for name in ("two_patch_square", "two_patch_skew", "three_patch_L"):
        mp = builtin_geometry(name)
        for iface in mp.interfaces:
            D1, D2, _ = interface_determinants(mp, iface, np.linspace(0, 1, 33))
            assert np.all(D1 > 0) and np.all(D2 > 0), name


# -- recovery ------------------------------------------------------------------------

def test_recover_axis_aligned():
    mp = two_square_patches()
    left, right, report = recover_gluing(mp, mp.interfaces[0])
    assert left.alpha.endpoints() == (1.0, 1.0)
    assert right.alpha.endpoints() == (1.0, 1.0)
    assert left.beta.endpoints() == (0.0, 0.0)
    assert right.beta.endpoints() == (0.0, 0.0)
    assert report.residual_alpha <= 1e-12
    assert report.residual_beta <= 1e-12
    assert report.passed


def test_recover_constant_ratio():
    mp = ratio_two_geometry()
    left, right, report = recover_gluing(mp, mp.interfaces[0])
    assert left.alpha.endpoints() == pytest.approx((2.0, 2.0), abs=1e-12)
    assert right.alpha.endpoints() == pytest.approx((1.0, 1.0), abs=1e-12)
    assert report.normalization_min == pytest.approx(1.0, abs=1e-12)
    assert report.passed


def test_recover_skew_beta():
    mp = builtin_geometry("two_patch_skew")
    left, right, report = recover_gluing(mp, mp.interfaces[0])
    # D3 = 0.3 - 0.1 xi splits evenly between the two sides
    assert left.beta(np.array(0.0)) == pytest.approx(-0.15, abs=1e-12)
    assert right.beta(np.array(0.0)) == pytest.approx(0.15, abs=1e-12)
    assert report.passed


def test_recover_reversed_interface():
    mp = reversed_geometry()
    left, right, report = recover_gluing(mp, mp.interfaces[0])
    assert report.passed
    res = g1_compatibility_residual(mp, mp.interfaces[0], left, right)
    assert res <= 1e-12


def test_non_asg1_interface_fails_certification():
    mp = non_asg1_geometry()
    left, right, report = recover_gluing(mp, mp.interfaces[0])
    assert report.residual_beta > report.tol
    assert not report.passed


@pytest.mark.parametrize("name", ["two_patch_square", "two_patch_skew",
                                  "three_patch_L"])
def test_g1_identity_on_builtins(name):
    mp = builtin_geometry(name)
    data = recover_all(mp)
    assert data.certified
    for iface in mp.interfaces:
        res = g1_compatibility_residual(
            mp, iface, data[iface.left], data[iface.right]
        )
        assert res <= 1e-9, (name, iface)


def test_recover_all_boundary_defaults():
    mp = builtin_geometry("two_patch_square")
    data = recover_all(mp)
    for (i, j) in mp.boundary_edges:
        glue = data[i, j]
        assert glue.alpha.endpoints() == (1.0, 1.0)
        assert glue.beta.endpoints() == (0.0, 0.0)
        d = crossing_direction(glue, j)(np.array([0.2, 0.8]))
        from asg1kit.geometry import NORMALS

        np.testing.assert_allclose(
            d, np.broadcast_to(NORMALS[j], d.shape), atol=1e-14
        )


def test_scaling_covariance_of_normalization():
    # scaling both alphas by a positive constant and renormalizing by the
    # sampled minimum returns the same functions
    mp = builtin_geometry("two_patch_skew")
    left, right, _ = recover_gluing(mp, mp.interfaces[0])
    c = 3.7
    scaled = (LinearFunction(c * left.alpha.a0, c * left.alpha.a1),
              LinearFunction(c * right.alpha.a0, c * right.alpha.a1))
    m = min(min(f.endpoints()) for f in scaled)
    renorm = [LinearFunction(f.a0 / m, f.a1 / m) for f in scaled]
    assert renorm[0].endpoints() == pytest.approx(left.alpha.endpoints())
    assert renorm[1].endpoints() == pytest.approx(right.alpha.endpoints())


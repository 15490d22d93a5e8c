"""Workloads of the benchmark: their cases, geometries and correctness checks.

A case projects one manufactured field onto one geometry at one degree,
smoothness and mesh, then measures its physical error norms and samples its
conformity.  A pass runs every case of a workload once, in order:
gluing -> projection -> norms -> conformity.  Every call into the package
goes through a module attribute (``asg1.global_project``, ...), so that the
traced run can wrap it where the package's own callers look it up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from asg1kit import asg1, gluing, harness, norms
from asg1kit.fields import manufactured
from asg1kit.geometry import (
    BUILTIN_GEOMETRIES,
    Interface,
    MultiPatch,
    NurbsMap,
    Patch,
    SplineMap,
    check_2regular,
)
from asg1kit.splines import UniSplineSpace, greville_points, uniform_partition

# The seed at which the setup-built geometries equal `single_patch_nurbs` and
# `curved_interior_two_patch` of tests/test_integration.py, and for which
# fingerprint.json stores the errors of every case.
DEFAULT_SEED = 0

# Conformity tolerances: the defaults of the `project` and `check-c1` CLI.
VALUE_TOL = 1e-10
DERIVATIVE_TOL = 1e-9
VERTEX_TOL = 1e-8
# sinsin vanishes on every boundary edge of every domain used here, so its
# projected boundary traces must stay at round-off.
BOUNDARY_TOL = 1e-11
# Errors against the fingerprint: ERROR_RTOL relative, plus a round-off floor
# of ROUNDOFF * eps * n**t for the H^t error on n elements per direction.  On
# highdeg_fine all three errors sit at that floor (about 20-90 eps n**t) and
# move by 6% when only the BLAS thread count changes.
ERROR_RTOL = 1e-6
ROUNDOFF = 1e3
# At other seeds the seed-built geometries differ and their errors move with
# them (0.2x to 2.1x of seed 0 on the NURBS patch at n=8 over seeds 0..119),
# so they are only held to within this factor of the default-seed fingerprint.
SEED_ERROR_FACTOR = 10.0


@dataclass(frozen=True)
class Case:
    geometry: str
    field: str
    p: int
    k: int
    n: int

    @property
    def label(self) -> str:
        return f"{self.geometry}/{self.field}/p{self.p}k{self.k}/n{self.n}"

    @property
    def builtin(self) -> bool:
        return self.geometry in BUILTIN_GEOMETRIES


@dataclass(frozen=True)
class Workload:
    cases: tuple[Case, ...]
    # Warm workloads fill the package's caches in setup by running
    # `warmup` once; cold ones measure a process whose caches are empty.
    warmup: tuple[Case, ...] = ()


FIELDS = ("sinsin", "poly4", "expxy")

WORKLOADS = {
    # h-refinement study: every level builds new spline spaces, so the 1D
    # functional caches miss on every level.
    "refine_bilinear": Workload(
        tuple(Case("three_patch_L", "sinsin", 4, 2, n) for n in (16, 32, 64, 128)),
    ),
    # Fixed mesh, curved spline and NURBS patches, all three fields after a
    # warm-up: every cache lookup hits and geometry evaluation dominates.
    # Both geometries share n, p and k, so the warm-up case on the cheaper
    # one builds every spline space and functional that the pass reads.
    "curved_reuse": Workload(
        tuple(Case(g, f, 4, 2, 32)
              for g in ("nurbs_square", "curved_two_patch") for f in FIELDS),
        warmup=(Case("curved_two_patch", "sinsin", 4, 2, 32),),
    ),
    # One-shot high-degree projection on a fine mesh: largest functional
    # matrices and tensor products, highest memory, largest round-off.
    "highdeg_fine": Workload(
        (Case("three_patch_L", "sinsin", 6, 4, 128),),
    ),
}


# -- geometries built from the workload seed -------------------------------------


def _identity_control_grid(space: UniSplineSpace) -> np.ndarray:
    g = greville_points(space)
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)


def nurbs_square(n: int, seed: int) -> MultiPatch:
    """One NURBS patch onto the unit square with a perturbed rational
    interior; boundary control points and weights keep their identity
    values, so the edges stay straight and affinely parameterized."""
    S = UniSplineSpace(2, 1, uniform_partition(2))
    ctrl = _identity_control_grid(S)
    rng = np.random.default_rng(11 + seed)
    ctrl[1:-1, 1:-1, :] += 0.05 * rng.standard_normal(ctrl[1:-1, 1:-1, :].shape)
    w = np.ones((S.dim, S.dim))
    w[1:-1, 1:-1] += 0.15 * rng.random(ctrl[1:-1, 1:-1, 0].shape)
    Z = uniform_partition(n)
    return MultiPatch([Patch(NurbsMap(S, S, ctrl, w), (Z, Z))], [])


def curved_two_patch(n: int, seed: int) -> MultiPatch:
    """Two cubic spline patches with curved interiors; the control rows next
    to every edge stay on the identity grid, so the edges are straight and
    the interface is AS-G1."""
    S = UniSplineSpace(3, 2, uniform_partition(2))
    rng = np.random.default_rng(7 + seed)

    def make(shift):
        ctrl = _identity_control_grid(S)
        bump = 0.06 * rng.standard_normal(ctrl.shape)
        bump[:2, :, :] = bump[-2:, :, :] = 0.0
        bump[:, :2, :] = bump[:, -2:, :] = 0.0
        ctrl = ctrl + bump
        ctrl[..., 0] += shift
        return SplineMap(S, S, ctrl)

    Z = uniform_partition(n)
    return MultiPatch([Patch(make(0.0), (Z, Z)), Patch(make(1.0), (Z, Z))],
                      [Interface((0, 2), (1, 4))])


BUILDERS = {"nurbs_square": nurbs_square, "curved_two_patch": curved_two_patch}


def build_geometries(workload: Workload, seed: int) -> dict:
    """The seed-built geometries of a workload, checked to be 2-regular and
    certified AS-G1 before any timing starts."""
    out = {}
    for case in workload.cases + workload.warmup:
        if case.builtin or case.geometry in out:
            continue
        mp = BUILDERS[case.geometry](case.n, seed)
        for i, patch in enumerate(mp.patches):
            det, where = check_2regular(patch.gmap)
            if det <= 0.0:
                raise ValueError(f"{case.geometry} seed {seed}: patch {i} folds "
                                 f"(det {det:.3e} at {where})")
        if not gluing.recover_all(mp).certified:
            raise ValueError(f"{case.geometry} seed {seed}: gluing not certified")
        out[case.geometry] = mp
    return out


# -- one case ----------------------------------------------------------------------


@dataclass
class CaseResult:
    errors: list
    glue: object
    report: object
    project_s: float
    norms_s: float
    conformity_s: float


def run_case(case: Case, geometries: dict) -> CaseResult:
    """Gluing, projection, norms and conformity of one case, with the wall
    time of the projection, norms and conformity calls.  Like the `project`
    CLI it validates the configuration and resolves the geometry first."""
    harness.StudyConfig(case.geometry, case.field, case.p, case.k,
                        base_n=case.n).validate()
    if case.builtin:
        mp = harness.resolve_geometry(case.geometry, case.n)
    else:
        mp = geometries[case.geometry]
    u = manufactured(case.field)
    glue = gluing.recover_all(mp)
    clock = time.perf_counter
    t0 = clock()
    gp = asg1.global_project(mp, glue, u, case.p, case.k)
    t1 = clock()
    tables = [norms.physical_error_norms(patch, u, proj.spline)
              for patch, proj in zip(mp.patches, gp.patches)]
    total = norms.combine_tables(tables)
    t2 = clock()
    report = asg1.check_conformity(gp)
    t3 = clock()
    errors = [total.norms[t] for t in (0, 1, 2)]
    return CaseResult(errors, glue, report, t1 - t0, t2 - t1, t3 - t2)


def _close(e: float, ref: float, t: int, n: int) -> bool:
    floor = ROUNDOFF * np.finfo(float).eps * float(n) ** t
    return abs(e - ref) <= ERROR_RTOL * ref + floor


def check_case(case: Case, result: CaseResult, reference, exact: bool,
               again=None) -> list[str]:
    """Failed checks of one case; empty when it passes.

    ``reference`` holds the fingerprint errors of the case at DEFAULT_SEED;
    ``exact`` says whether this case's inputs equal those of the fingerprint.
    ``again`` holds the errors of the same case from the warm-up, which the
    measured pass on warm caches must reproduce.
    """
    failures = []
    if not result.glue.certified:
        failures.append("gluing not certified")
    rep = result.report
    for r in rep.interfaces:
        if not r.relative_value_jump <= VALUE_TOL:
            failures.append(f"value jump {r.relative_value_jump:.3e} at {r.left}")
        if not r.relative_d_jump <= DERIVATIVE_TOL:
            failures.append(f"crossing-derivative jump {r.relative_d_jump:.3e} "
                            f"at {r.left}")
    for v in rep.vertices:
        if not v.relative_defect <= VERTEX_TOL:
            failures.append(f"vertex C2 defect {v.relative_defect:.3e} "
                            f"at {v.location}")
    if case.field == "sinsin":
        for b in rep.boundaries:
            if not b.projected_trace_sup <= BOUNDARY_TOL:
                failures.append(f"boundary trace {b.projected_trace_sup:.3e} "
                                f"on edge {b.edge}")
    if reference is None:
        failures.append("no fingerprint stored for this case")
        return failures
    for t, (e, ref) in enumerate(zip(result.errors, reference)):
        if not math.isfinite(e):
            failures.append(f"H{t} error is {e}")
        elif exact:
            if not _close(e, ref, t, case.n):
                failures.append(f"H{t} error {e:.12e} != fingerprint {ref:.12e}")
        elif not ref / SEED_ERROR_FACTOR <= e <= ref * SEED_ERROR_FACTOR:
            failures.append(f"H{t} error {e:.6e} not within a factor "
                            f"{SEED_ERROR_FACTOR} of fingerprint {ref:.6e}")
    if again is not None and not all(_close(e, ref, t, case.n) for t, (e, ref)
                                     in enumerate(zip(result.errors, again))):
        failures.append(f"errors {result.errors} differ from the warm-up's {again}")
    return failures


def conformity_summary(report) -> dict:
    """Largest relative interface jumps and vertex defect, largest projected
    boundary trace."""
    return {
        "value_jump": max((r.relative_value_jump for r in report.interfaces),
                          default=0.0),
        "derivative_jump": max((r.relative_d_jump for r in report.interfaces),
                               default=0.0),
        "vertex_c2_defect": max((v.relative_defect for v in report.vertices),
                                default=0.0),
        "boundary_trace": max((b.projected_trace_sup for b in report.boundaries),
                              default=0.0),
    }

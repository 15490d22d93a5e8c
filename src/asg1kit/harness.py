"""Study harness and command-line interface.

Subcommands: ``project`` (one-shot projection with conformity report),
``gluing`` (interface gluing data and certification), ``check-c1``
(conformity only), ``convergence`` (h-refinement study), ``p-sweep``
(degree sweep at fixed h), ``list-geometries``.

Exit codes: 0 success, 1 tolerance/certification failure, 2 usage or
configuration errors.  The environment variable ASG1_QUAD_NODES overrides
the quadrature order used for projections and norms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .asg1 import check_conformity, global_project
from .fields import MANUFACTURED, manufactured
from .geometry import (
    BUILTIN_GEOMETRIES,
    GeometryError,
    MultiPatch,
    builtin_geometry,
    load_geometry,
    physical_mesh_size,
)
from .gluing import fit_linear_gluing, g1_compatibility_residual, recover_all
from .norms import combine_tables, observed_order, physical_error_norms
from .ritz1d import bubble_breakpoints
from .splines import QuadratureError, uniform_partition

__all__ = [
    "StudyConfig",
    "StudyResult",
    "ConfigError",
    "run_convergence",
    "run_p_sweep",
    "main",
]

CSV_HEADER = "level,h,p,k,e_L2,e_H1,e_H2,rate_L2,rate_H1,rate_H2"


class ConfigError(ValueError):
    """Invalid study configuration (maps to exit code 2)."""


@dataclass
class StudyConfig:
    geometry: str
    function: str = "sinsin"
    degree: int = 3
    smoothness: int | None = None
    levels: int = 3
    base_n: int = 8
    tol: float = 1e-10
    nq: int | None = None
    force: bool = False
    degrees: tuple[int, ...] = ()

    def resolved_smoothness(self, p: int) -> int:
        # the admissible maximum k = p - 2 avoids C1 locking
        return self.smoothness if self.smoothness is not None else p - 2

    def validate(self):
        if self.levels < 1:
            raise ConfigError("need at least one refinement level")
        if self.base_n < 1:
            raise ConfigError("base element count must be >= 1")
        for p in self.degrees or (self.degree,):
            k = self.resolved_smoothness(p)
            if not 3 <= k + 2 <= p:
                raise ConfigError(
                    f"need 3 <= k+2 <= p, got p={p}, k={k}"
                )
            try:
                bubble_breakpoints(p, uniform_partition(self.base_n))
            except ValueError as exc:
                raise ConfigError(f"coarsest grid 1/{self.base_n}: {exc}") from None


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            cells = [str(row["level"]), f"{row['h']:.5e}", str(row["p"]),
                     str(row["k"])]
            cells += [f"{e:.5e}" for e in row["errors"]]
            cells += ["" if r is None else f"{r:.5e}" for r in row["rates"]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _quadrature_override(nq):
    """``nq``, else ASG1_QUAD_NODES, else None (the default rule)."""
    if nq is None:
        env = os.environ.get("ASG1_QUAD_NODES")
        if not env:
            return None
        try:
            nq = int(env)
        except ValueError:
            raise ConfigError(
                f"ASG1_QUAD_NODES must be a positive integer, got {env!r}"
            ) from None
    if nq < 1:
        raise ConfigError(f"nq must be a positive integer, got {nq}")
    return nq


def resolve_geometry(name: str, n: int) -> MultiPatch:
    if n < 1:
        raise ConfigError(f"element count must be >= 1, got {n}")
    if name in BUILTIN_GEOMETRIES:
        return builtin_geometry(name, n)
    if os.path.exists(name):
        return load_geometry(name).with_uniform_partitions(n)
    raise ConfigError(
        f"unknown geometry '{name}': not a built-in "
        f"({', '.join(BUILTIN_GEOMETRIES)}) and not a file"
    )


def _study_row(level: int, mp: MultiPatch, u, p: int, k: int, cfg: StudyConfig,
               nq, prev=None) -> dict:
    """One CSV row: the errors of projecting ``u`` on ``mp`` and their
    observed orders against the errors ``prev`` of the previous row."""
    glue = recover_all(mp, cfg.tol)
    gp = global_project(mp, glue, u, p, k, nq=nq, force=cfg.force)
    total = combine_tables([
        physical_error_norms(patch, u, proj.spline, nq=nq)
        for patch, proj in zip(mp.patches, gp.patches)
    ])
    errors = [total.norms[t] for t in (0, 1, 2)]
    rates = [None] * 3 if prev is None else [
        observed_order(prev[t], errors[t]) for t in range(3)
    ]
    return {"level": level, "h": physical_mesh_size(mp), "p": p, "k": k,
            "errors": errors, "rates": rates}


def run_convergence(cfg: StudyConfig) -> StudyResult:
    """Dyadic h-refinement study; errors and observed orders per level."""
    cfg.validate()
    u = manufactured(cfg.function)
    nq = _quadrature_override(cfg.nq)
    p = cfg.degree
    k = cfg.resolved_smoothness(p)
    result = StudyResult(cfg)
    prev = None
    for level in range(cfg.levels):
        mp = resolve_geometry(cfg.geometry, cfg.base_n * 2 ** level)
        result.rows.append(_study_row(level, mp, u, p, k, cfg, nq, prev))
        prev = result.rows[-1]["errors"]
    return result


def run_p_sweep(cfg: StudyConfig) -> StudyResult:
    """Errors at fixed h for a list of degrees (k = p - 2 by default)."""
    if not cfg.degrees:
        raise ConfigError("p-sweep needs a list of degrees")
    cfg.validate()
    u = manufactured(cfg.function)
    nq = _quadrature_override(cfg.nq)
    result = StudyResult(cfg)
    for idx, p in enumerate(cfg.degrees):
        mp = resolve_geometry(cfg.geometry, cfg.base_n)
        result.rows.append(_study_row(idx, mp, u, p, cfg.resolved_smoothness(p),
                                      cfg, nq))
    return result


# -- CLI -------------------------------------------------------------------------


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gluing_json(mp: MultiPatch, tol: float, fit: bool, lam_beta: float) -> dict:
    entries = []
    certified = True
    glue = None if fit else recover_all(mp, tol)
    for iface in mp.interfaces:
        if fit:
            left, right, diag = fit_linear_gluing(mp, iface, lam_beta)
            entry = {
                "left": list(iface.left),
                "right": list(iface.right),
                "solver": "fit-linear",
                "objective": diag["objective"],
                "data_misfit": diag["data_misfit"],
            }
        else:
            left = glue[iface.left]
            right = glue[iface.right]
            report = next(r for r in glue.reports if r.interface == iface)
            certified &= report.passed
            entry = {
                "left": list(iface.left),
                "right": list(iface.right),
                "solver": "recover",
                "residual_alpha": report.residual_alpha,
                "residual_beta": report.residual_beta,
                "normalization_min": report.normalization_min,
                "passed": report.passed,
                "g1_residual": g1_compatibility_residual(mp, iface, left, right),
            }
        entry["alpha"] = {
            "left": list(left.alpha.endpoints()),
            "right": list(right.alpha.endpoints()),
        }
        entry["beta"] = {
            "left": list(left.beta.endpoints()),
            "right": list(right.beta.endpoints()),
        }
        entries.append(entry)
    return {"interfaces": entries, "certified": certified}


def _cmd_list_geometries(args) -> int:
    for name in BUILTIN_GEOMETRIES:
        print(name)
    return 0


def _cmd_gluing(args) -> int:
    mp = resolve_geometry(args.geometry, args.n)
    data = _gluing_json(mp, args.tol, args.fit_linear, args.lam_beta)
    _write_output(json.dumps(data, indent=2) + "\n", args.out)
    if not args.fit_linear and not data["certified"]:
        return 1
    return 0


def _project_common(args):
    nq = _quadrature_override(args.nq)
    k = args.k if args.k is not None else args.p - 2
    cfg = StudyConfig(args.geometry, args.function, args.p, k,
                      base_n=args.n, tol=args.tol)
    cfg.validate()
    mp = resolve_geometry(args.geometry, args.n)
    u = manufactured(args.function)
    glue = recover_all(mp, args.tol)
    gp = global_project(mp, glue, u, args.p, k, nq=nq, force=args.force)
    return gp


def _cmd_project(args) -> int:
    gp = _project_common(args)
    report = check_conformity(gp)
    _write_output(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return _conformity_exit(report, args)


def _conformity_exit(report, args) -> int:
    ok = all(
        r.relative_value_jump <= args.value_tol
        and r.relative_d_jump <= args.derivative_tol
        for r in report.interfaces
    ) and all(v.relative_defect <= args.vertex_tol for v in report.vertices)
    return 0 if ok else 1


def _cmd_check_c1(args) -> int:
    gp = _project_common(args)
    report = check_conformity(gp)
    summary = {
        "max_value_jump_relative": max(
            (r.relative_value_jump for r in report.interfaces), default=0.0
        ),
        "max_d_derivative_jump_relative": max(
            (r.relative_d_jump for r in report.interfaces), default=0.0
        ),
        "max_vertex_c2_defect_relative": max(
            (v.relative_defect for v in report.vertices), default=0.0
        ),
    }
    _write_output(json.dumps(summary, indent=2) + "\n", args.out)
    return _conformity_exit(report, args)


def _cmd_convergence(args) -> int:
    cfg = StudyConfig(args.geometry, args.function, args.p, args.k,
                      levels=args.levels, base_n=args.n, tol=args.tol,
                      nq=args.nq, force=args.force)
    result = run_convergence(cfg)
    _write_output(result.to_csv(), args.out)
    return 0


def _cmd_p_sweep(args) -> int:
    cfg = StudyConfig(args.geometry, args.function, degrees=tuple(args.p),
                      smoothness=args.k, base_n=args.n, tol=args.tol,
                      nq=args.nq, force=args.force)
    result = run_p_sweep(cfg)
    _write_output(result.to_csv(), args.out)
    return 0


def _add_common(parser, with_function=True):
    parser.add_argument("--geometry", required=True,
                        help="built-in name or geometry JSON path")
    if with_function:
        parser.add_argument("--function", default="sinsin",
                            choices=sorted(MANUFACTURED),
                            help="manufactured target function")
    parser.add_argument("--n", type=int, default=8,
                        help="elements per direction (default 8)")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="gluing certification tolerance")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--nq", type=int, default=None,
                        help="quadrature nodes per element")
    parser.add_argument("--force", action="store_true",
                        help="project even if certification failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asg1kit",
        description="C1-smooth quasi-interpolation over AS-G1 multi-patch "
                    "domains: gluing certification, projection, conformity "
                    "checks, and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list-geometries", help="print built-in geometry names")
    sp.set_defaults(func=_cmd_list_geometries)

    sp = sub.add_parser("gluing", help="interface gluing data and residuals")
    _add_common(sp, with_function=False)
    sp.add_argument("--fit-linear", action="store_true",
                    help="use the interpolatory fit instead of normalized "
                         "recovery")
    sp.add_argument("--lam-beta", type=float, default=1e-6,
                    help="regularization weight of the fit")
    sp.set_defaults(func=_cmd_gluing)

    for name, fn, help_text in (
        ("project", _cmd_project, "project and emit the conformity report"),
        ("check-c1", _cmd_check_c1, "conformity summary only"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.add_argument("--p", type=int, default=4, help="spline degree")
        sp.add_argument("--k", type=int, default=None,
                        help="smoothness (default p-2)")
        sp.add_argument("--value-tol", type=float, default=1e-10)
        sp.add_argument("--derivative-tol", type=float, default=1e-9)
        sp.add_argument("--vertex-tol", type=float, default=1e-8)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("convergence", help="dyadic h-refinement study (CSV)")
    _add_common(sp)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--levels", type=int, default=3)
    sp.set_defaults(func=_cmd_convergence)

    sp = sub.add_parser("p-sweep", help="degree sweep at fixed h (CSV)")
    _add_common(sp)
    sp.add_argument("--p", type=int, nargs="+", default=[3, 4, 5, 6])
    sp.add_argument("--k", type=int, default=None,
                    help="fixed smoothness (default p-2 per degree)")
    sp.set_defaults(func=_cmd_p_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GeometryError, QuadratureError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

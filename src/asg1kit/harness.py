"""Study harness and command-line interface.

Subcommands: ``project`` (one-shot projection with conformity report),
``gluing`` (interface gluing data and certification), ``check-c1``
(conformity only), ``convergence`` (h-refinement study), ``p-sweep``
(degree sweep at fixed h), ``list-geometries``.

Every projection takes one path, `_projections`, over a list of (n, p)
levels.  ``project`` and ``check-c1`` share one command body on one level;
``convergence`` and ``p-sweep`` share one study loop and differ only in the
levels they visit and in whether observed orders are formed.

Exit codes: 0 success, 1 tolerance/certification failure, 2 usage or
configuration errors.
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
from .gluing import g1_compatibility_residual, recover_all
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
        if self.nq is not None and self.nq < 1:
            raise ConfigError(f"nq must be a positive integer, got {self.nq}")
        if not self.tol >= 0.0:  # the rule of the CLI's `_tolerance`
            raise ConfigError(f"tol must be a number >= 0, got {self.tol!r}")


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


def _projections(cfg: StudyConfig, levels):
    """Validate ``cfg``, then yield the projection of the target at each
    (n, p) of ``levels``: n elements, degree p."""
    cfg.validate()
    u = manufactured(cfg.function)
    for n, p in levels:
        mp = resolve_geometry(cfg.geometry, n)
        glue = recover_all(mp, cfg.tol)
        yield global_project(mp, glue, u, p, cfg.resolved_smoothness(p),
                             nq=cfg.nq, force=cfg.force)


def _study(cfg: StudyConfig, levels, rates: bool) -> StudyResult:
    """One CSV row per (n, p) of ``levels``: the errors of the projection and,
    with ``rates``, their observed orders against the previous row's."""
    result = StudyResult(cfg)
    prev = None
    # the norms take two nodes more than the projector's rule, as by default
    nq = None if cfg.nq is None else cfg.nq + 2
    for level, gp in enumerate(_projections(cfg, levels)):
        mp = gp.multipatch
        total = combine_tables([
            physical_error_norms(patch, gp.field, proj.spline, nq=nq)
            for patch, proj in zip(mp.patches, gp.patches)
        ])
        errors = [total.norms[t] for t in (0, 1, 2)]
        result.rows.append({
            "level": level, "h": physical_mesh_size(mp), "p": gp.degree,
            "k": gp.smoothness, "errors": errors,
            "rates": [None] * 3 if prev is None else [
                observed_order(prev[t], errors[t]) for t in range(3)
            ],
        })
        if rates:
            prev = errors
    return result


def run_convergence(cfg: StudyConfig) -> StudyResult:
    """Dyadic h-refinement study; errors and observed orders per level."""
    levels = [(cfg.base_n * 2 ** level, cfg.degree) for level in range(cfg.levels)]
    return _study(cfg, levels, rates=True)


def run_p_sweep(cfg: StudyConfig) -> StudyResult:
    """Errors at fixed h for a list of degrees (k = p - 2 by default)."""
    if not cfg.degrees:
        raise ConfigError("p-sweep needs a list of degrees")
    return _study(cfg, [(cfg.base_n, p) for p in cfg.degrees], rates=False)


# -- CLI -------------------------------------------------------------------------


def _write_output(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"{out}: cannot write output ({exc})") from exc
    else:
        sys.stdout.write(text)


def _cmd_list_geometries(args) -> int:
    for name in BUILTIN_GEOMETRIES:
        print(name)
    return 0


def _cmd_gluing(args) -> int:
    mp = resolve_geometry(args.geometry, args.n)
    entries = []
    glue = recover_all(mp, args.tol)
    for iface in mp.interfaces:
        left = glue[iface.left]
        right = glue[iface.right]
        report = next(r for r in glue.reports if r.interface == iface)
        entry = {
            "left": list(iface.left), "right": list(iface.right),
            "solver": "recover",
            "residual_alpha": report.residual_alpha,
            "residual_beta": report.residual_beta,
            "normalization_min": report.normalization_min,
            "passed": report.passed,
            "g1_residual": g1_compatibility_residual(mp, iface, left, right),
        }
        for name in ("alpha", "beta"):
            entry[name] = {"left": list(getattr(left, name).endpoints()),
                           "right": list(getattr(right, name).endpoints())}
        entries.append(entry)
    data = {"interfaces": entries, "certified": glue.certified}
    _write_output(json.dumps(data, indent=2) + "\n", args.out)
    return 0 if glue.certified else 1


def _config(args, **fields) -> StudyConfig:
    """The `StudyConfig` of a projecting command's options and ``fields``."""
    return StudyConfig(args.geometry, args.function, smoothness=args.k,
                       base_n=args.n, tol=args.tol, nq=args.nq,
                       force=args.force, **fields)


def _cmd_project(args) -> int:
    """``project`` writes the conformity report and ``check-c1`` its maxima;
    exit 1 unless every jump and defect is within its tolerance."""
    gp = next(_projections(_config(args, degree=args.p), [(args.n, args.p)]))
    report = check_conformity(gp)
    checks = {
        "max_value_jump_relative": (
            [r.relative_value_jump for r in report.interfaces], args.value_tol),
        "max_d_derivative_jump_relative": (
            [r.relative_d_jump for r in report.interfaces], args.derivative_tol),
        "max_vertex_c2_defect_relative": (
            [v.relative_defect for v in report.vertices], args.vertex_tol),
    }
    if args.command == "project":
        data = report.to_json()
    else:
        data = {key: max(values, default=0.0) for key, (values, _) in checks.items()}
    _write_output(json.dumps(data, indent=2) + "\n", args.out)
    # one test per record, so that a NaN fails (``max`` may skip one)
    ok = all(v <= tol for values, tol in checks.values() for v in values)
    return 0 if ok else 1


def _cmd_study(args) -> int:
    """The CSV of ``convergence`` (dyadic meshes) or ``p-sweep`` (degrees)."""
    if args.command == "convergence":
        result = run_convergence(_config(args, degree=args.p, levels=args.levels))
    else:
        result = run_p_sweep(_config(args, degrees=tuple(args.p)))
    _write_output(result.to_csv(), args.out)
    return 0


def _tolerance(text: str) -> float:
    """The value of a tolerance option: a number, neither NaN nor negative."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _add_common(parser, projecting=True):
    parser.add_argument("--geometry", required=True,
                        help="built-in name or geometry JSON path")
    if projecting:
        parser.add_argument("--function", default="sinsin",
                            choices=sorted(MANUFACTURED),
                            help="manufactured target function")
        parser.add_argument("--k", type=int, default=None,
                            help="smoothness (default p-2 per degree)")
    parser.add_argument("--n", type=int, default=8,
                        help="elements per direction (default 8)")
    parser.add_argument("--tol", type=_tolerance, default=1e-10,
                        help="gluing certification tolerance")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if projecting:
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
    _add_common(sp, projecting=False)
    sp.set_defaults(func=_cmd_gluing)

    for name, help_text in (
        ("project", "project and emit the conformity report"),
        ("check-c1", "conformity summary only"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.add_argument("--p", type=int, default=4, help="spline degree")
        sp.add_argument("--value-tol", type=_tolerance, default=1e-10)
        sp.add_argument("--derivative-tol", type=_tolerance, default=1e-9)
        sp.add_argument("--vertex-tol", type=_tolerance, default=1e-8)
        sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("convergence", help="dyadic h-refinement study (CSV)")
    _add_common(sp)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--levels", type=int, default=3)
    sp.set_defaults(func=_cmd_study)

    sp = sub.add_parser("p-sweep", help="degree sweep at fixed h (CSV)")
    _add_common(sp)
    sp.add_argument("--p", type=int, nargs="+", default=[3, 4, 5, 6])
    sp.set_defaults(func=_cmd_study)
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

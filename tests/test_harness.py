import json
import os
import subprocess
import sys

import numpy as np
import pytest

from asg1kit.asg1 import check_conformity, global_project
from asg1kit.fields import manufactured
from asg1kit.geometry import builtin_geometry, load_geometry
from asg1kit.gluing import recover_all
from asg1kit.harness import (
    ConfigError,
    StudyConfig,
    main,
    run_convergence,
    run_p_sweep,
)


def test_list_geometries(capsys):
    assert main(["list-geometries"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) >= 3
    assert "two_patch_square" in out


def test_gluing_subcommand(capsys):
    assert main(["gluing", "--geometry", "two_patch_square"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certified"]
    entry = data["interfaces"][0]
    assert entry["alpha"]["left"] == [1.0, 1.0]
    assert entry["beta"]["left"] == [0.0, 0.0]
    assert entry["residual_beta"] <= 1e-12


def test_convergence_csv_shape(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "convergence", "--geometry", "two_patch_square", "--function",
        "sinsin", "--p", "3", "--k", "1", "--levels", "3", "--n", "4",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,h,p,k,e_L2,e_H1,e_H2,rate_L2,rate_H1,rate_H2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[7] == first[8] == first[9] == ""
    last = lines[3].split(",")
    assert float(last[7]) > 3.0


def test_convergence_deterministic(tmp_path):
    args = [
        "convergence", "--geometry", "two_patch_skew", "--p", "3", "--k", "1",
        "--levels", "2", "--n", "4",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convergence_h_decreases():
    cfg = StudyConfig("two_patch_square", "sinsin", 3, 1, levels=3, base_n=4)
    res = run_convergence(cfg)
    hs = [row["h"] for row in res.rows]
    assert hs[0] > hs[1] > hs[2]


def test_convergence_observed_orders_sane():
    # the guaranteed orders are exceeded on coarse level pairs: the edge
    # corrections decay half an order faster than the leading error term
    cfg = StudyConfig("two_patch_square", "sinsin", 3, 1, levels=2, base_n=8)
    res = run_convergence(cfg)
    rates = res.rows[-1]["rates"]
    assert 3.5 <= rates[0] <= 5.2
    assert 2.6 <= rates[1] <= 4.2
    assert 1.7 <= rates[2] <= 3.2


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig("unit_square", "sinsin", 2, 0).validate()
    with pytest.raises(ConfigError):
        StudyConfig("unit_square", "sinsin", 3, 1, base_n=2).validate()
    with pytest.raises(ConfigError):
        StudyConfig("unit_square", "sinsin", 3, 1, levels=0).validate()
    # h = 1/5 <= 1/(p+1), but eta_3 needs a breakpoint >= 4ph/3 = 16/15
    with pytest.raises(ConfigError, match="no breakpoint"):
        StudyConfig("unit_square", "sinsin", 4, 2, base_n=5).validate()
    # the library path checks the quadrature order as the CLI does
    with pytest.raises(ConfigError, match="nq must be a positive integer"):
        StudyConfig("unit_square", "sinsin", 3, 1, nq=0).validate()


def test_bubble_precondition_is_configuration_error(capsys):
    # p = 6 needs h <= 3/(4p) = 1/8
    args = ["check-c1", "--geometry", "unit_square", "--p", "6"]
    assert main(args + ["--n", "7"]) == 2
    assert "no breakpoint >= 1.14286" in capsys.readouterr().err
    assert main(args + ["--n", "8"]) == 0


def test_coarse_grid_rejected_for_degree():
    code = main([
        "convergence", "--geometry", "unit_square", "--p", "5", "--k", "1",
        "--levels", "1", "--n", "4",
    ])
    assert code == 2


def test_unknown_geometry_exit_code():
    assert main(["gluing", "--geometry", "missing_thing"]) == 2


def test_unknown_function_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--geometry", "unit_square", "--function", "bad"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    # gluing projects nothing, so it has no quadrature order or force option
    for args in (["convergence", "--geometry", "unit_square", "--frobnicate"],
                 ["gluing", "--geometry", "two_patch_skew", "--nq", "1"],
                 ["gluing", "--geometry", "two_patch_skew", "--force"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def test_project_subcommand(tmp_path, capsys):
    code = main([
        "project", "--geometry", "two_patch_square", "--function", "sinsin",
        "--p", "4", "--k", "1", "--n", "8",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["interfaces"]) == 1
    assert data["interfaces"][0]["value_jump_relative"] <= 1e-10


def test_check_c1_flags_non_asg1_geometry(tmp_path, capsys):
    # a non-AS-G1 spline interface: certification fails (exit 1); forcing the
    # projection yields genuine C1 jumps (also exit 1)
    from asg1kit.geometry import save_geometry
    from test_gluing import non_asg1_geometry

    path = tmp_path / "bad.json"
    save_geometry(non_asg1_geometry(), path)
    args = ["check-c1", "--geometry", str(path), "--function", "expxy",
            "--p", "4", "--k", "1", "--n", "8"]
    code = main(args)
    capsys.readouterr()
    assert code == 1
    code = main(args + ["--force"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["max_d_derivative_jump_relative"] > 1e-9


FOLDS = {
    # check_2regular gives -1.4: the Jacobian determinant changes sign
    "one-patch": {"patches": [{
        "kind": "bilinear",
        "control_points": [[0, 0], [0, 1], [1, 1.2], [1, -0.2]],
        "partitions": [[0, 0.5, 1], [0, 0.5, 1]],
    }]},
    # check_2regular of patch 0 gives -0.5, and the fold reaches the
    # interface, where the gluing recovery meets it first
    "interface": {"patches": [
        {"kind": "bilinear",
         "control_points": [[0, 0], [0, 1], [1, 0], [-0.5, 1]],
         "partitions": [[0, 0.5, 1], [0, 0.5, 1]]},
        {"kind": "bilinear",
         "control_points": [[1, 0], [-0.5, 1], [2, 0], [2, 1]],
         "partitions": [[0, 0.5, 1], [0, 0.5, 1]]},
    ], "interfaces": [{"left": [0, 2], "right": [1, 4], "reversed": False}]},
}


@pytest.mark.parametrize("command", ["project", "check-c1", "gluing"])
def test_folded_geometry_is_configuration_error(tmp_path, capsys, command):
    # a single folded patch has no interface for the gluing commands to read
    layouts = ["interface"] if "gluing" in command else ["one-patch", "interface"]
    for layout in layouts:
        path = tmp_path / f"{layout}.json"
        path.write_text(json.dumps(FOLDS[layout]))
        assert main([*command.split(), "--geometry", str(path), "--n", "8"]) == 2
        assert "non-positive Jacobian determinant" in capsys.readouterr().err


def test_mirrored_affine_patch_is_configuration_error(tmp_path, capsys):
    # det G = -1 everywhere: the pullback's one comparison refuses it
    path = tmp_path / "mirrored.json"
    path.write_text(json.dumps({"patches": [{
        "kind": "bilinear", "control_points": [[1, 0], [1, 1], [0, 0], [0, 1]],
        "partitions": [[0, 0.5, 1], [0, 0.5, 1]]}]}))
    assert main(["project", "--geometry", str(path), "--n", "8"]) == 2
    assert "non-positive Jacobian determinant" in capsys.readouterr().err


BILINEAR = {"kind": "bilinear", "control_points": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "partitions": [[0, 1], [0, 1]]}
SPLINE = {"kind": "spline", "degree": [1, 1], "knots": [[0, 0, 1, 1], [0, 0, 1, 1]],
          "control_points": [[0, 0], [0, 1], [1, 0], [1, 1]],
          "partitions": [[0, 1], [0, 1]]}


@pytest.mark.parametrize("doc,field", [
    ({"patches": [{"kind": "spline", "degree": [2, 1],
                   "knots": [[0, 0, 0, .5, .5, .5, .5, 1, 1, 1], [0, 0, 1, 1]],
                   "control_points": [[0, 0]] * 14,
                   "partitions": [[0, .5, 1], [0, 1]]}]},
     "patches[0].knots[0]"),
    ({"patches": [{**BILINEAR, "partitions": [[0, 1], [0.5]]}]},
     "patches[0].partitions[1]"),
    ({"patches": [{**SPLINE, "kind": "nurbs", "weights": [1, 1, 1]}]},
     "patches[0].weights"),
    ({"patches": [{**SPLINE, "kind": "nurbs", "weights": [1, 1, 0, 1]}]},
     "patches[0].weights"),
    ({"patches": [BILINEAR], "interfaces": [{"left": [0], "right": [0, 4]}]},
     "interfaces[0].left"),
    ({"patches": [BILINEAR], "interfaces": [{"left": "ab", "right": [0, 4]}]},
     "interfaces[0].left"),
    ({"patches": [BILINEAR], "interfaces": [{"left": [0, 2], "right": [0, 4],
                                              "reversed": "no"}]},
     "interfaces[0].reversed"),
    ({"patches": [BILINEAR], "interfaces": 5}, "interfaces"),
    ({"patches": [{**SPLINE, "degree": 2}]}, "patches[0].degree"),
    ({"patches": [{**SPLINE, "knots": [[0, 0, 1, 1], []]}]}, "patches[0].knots[1]"),
    ({"patches": 5}, "patches"),
    ({"patches": [5]}, "patches[0]"),
    ({"patches": [{**BILINEAR, "control_points": [["a", 0], [0, 1], [1, 0], [1, 1]]}]},
     "patches[0].control_points"),
    ({"patches": [{**BILINEAR, "control_points": [[0, 0], [0, 1], [1, 0], [1]]}]},
     "patches[0].control_points"),
], ids=["knot-multiplicity-above-p+1", "one-breakpoint", "nurbs-weight-count",
        "nurbs-weight-not-positive", "interface-side-one-entry", "interface-side-string",
        "interface-reversed-string", "interfaces-not-a-list", "scalar-degree",
        "empty-knots", "patches-not-a-list", "patch-not-an-object",
        "non-numeric-control-points", "ragged-control-points"])
def test_malformed_geometry_json_exits_2(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["gluing", "--geometry", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_geometry_path_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "geometry.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{\x00\x81")
    assert main(["check-c1", "--geometry", str(path), "--p", "4"]) == 2
    assert f"error: {path}: cannot read geometry" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--tol", "--value-tol", "--derivative-tol",
                                    "--vertex-tol"])
@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
def test_nan_or_negative_tolerance_is_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["check-c1", "--geometry", "two_patch_skew", "--p", "4", option, value])
    assert exc.value.code == 2
    assert f"argument {option}: expected a number >= 0, got '{value}'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_nan_or_negative_study_tol_is_config_error(tol):
    cfg = StudyConfig("two_patch_skew", "sinsin", degree=4, smoothness=2,
                      base_n=8, tol=tol, levels=1)
    with pytest.raises(ConfigError, match="tol must be a number >= 0"):
        run_convergence(cfg)


# every command that writes its output, each on a small mesh
WRITING_COMMANDS = {
    "gluing": ["gluing", "--geometry", "two_patch_skew"],
    "project": ["project", "--geometry", "unit_square", "--p", "4", "--n", "8"],
    "check-c1": ["check-c1", "--geometry", "unit_square", "--p", "4", "--n", "8"],
    "convergence": ["convergence", "--geometry", "unit_square", "--p", "3",
                    "--n", "4", "--levels", "1"],
    "p-sweep": ["p-sweep", "--geometry", "unit_square", "--p", "3", "--n", "4"],
}


@pytest.mark.parametrize("kind", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
def test_unwritable_out_path_exits_2(tmp_path, capsys, command, kind):
    out = tmp_path if kind == "directory" else tmp_path / "missing" / "x.out"
    assert main(WRITING_COMMANDS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {out}: cannot write output" in err
    assert "Traceback" not in err


@pytest.mark.xfail(strict=True, reason="item 13: p-stable 1D solves")
def test_check_c1_passes_at_p16(capsys):
    # the relative value jump reads about 5e-10 against its bound 1e-10: the
    # round-off of the 1D solves at p = 16
    assert main(["check-c1", "--geometry", "three_patch_L", "--function", "poly4",
                 "--p", "16", "--k", "1", "--n", "22"]) == 0


def _quadratic_patch(knots):
    # a degree-2 spline patch over ``knots`` in both directions, its control
    # points the uniform grid of as many points as the knots imply
    s = np.linspace(0.0, 1.0, len(knots) - 3)
    return {"patches": [{"kind": "spline", "degree": [2, 2], "knots": [knots, knots],
                         "control_points": [[x, y] for x in s for y in s],
                         "partitions": [[0, 0.25, 0.5, 0.75, 1]] * 2}]}


def test_decreasing_knots_exit_2(tmp_path, capsys):
    # knots out of order are an error in the file, not a vector to sort
    path = tmp_path / "decreasing.json"
    path.write_text(json.dumps(_quadratic_patch([0, 0, 0, 0.7, 0.3, 1, 1, 1])))
    assert main(["check-c1", "--geometry", str(path), "--p", "4", "--n", "8"]) == 2
    err = capsys.readouterr().err
    assert "patches[0].knots[0]" in err and "non-decreasing" in err


def test_close_knots_count_as_distinct(tmp_path, capsys):
    # multiplicities are counted exactly: 0.5 and 0.5 + 1e-9 are two simple
    # knots, so the 5 x 5 control points fit
    knots = [0, 0, 0, 0.5, 0.5 + 1e-9, 1, 1, 1]
    path = tmp_path / "close.json"
    path.write_text(json.dumps(_quadratic_patch(knots)))
    assert main(["check-c1", "--geometry", str(path), "--p", "4", "--n", "8"]) == 0
    space = load_geometry(path).patches[0].gmap.space1
    assert (space.degree, space.smoothness) == (2, 1)
    assert space.partition.breakpoints == (0.0, 0.5, 0.5 + 1e-9, 1.0)


def test_cli_equals_library(tmp_path, capsys):
    # project and check-c1 print the report of the library's projection
    mp = builtin_geometry("three_patch_L", 8)
    report = check_conformity(
        global_project(mp, recover_all(mp), manufactured("sinsin"), 4, 2))
    args = ["--geometry", "three_patch_L", "--p", "4", "--n", "8"]
    assert main(["project", *args]) == 0
    assert capsys.readouterr().out == json.dumps(report.to_json(), indent=2) + "\n"
    assert main(["check-c1", *args]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "max_value_jump_relative": max(r.relative_value_jump for r in report.interfaces),
        "max_d_derivative_jump_relative": max(r.relative_d_jump for r in report.interfaces),
        "max_vertex_c2_defect_relative": max(v.relative_defect for v in report.vertices),
    }
    # convergence and p-sweep write the CSV of the library's studies
    out = tmp_path / "study.csv"
    assert main(["convergence", "--geometry", "two_patch_skew", "--p", "3",
                 "--k", "1", "--levels", "2", "--n", "4", "--out", str(out)]) == 0
    cfg = StudyConfig("two_patch_skew", "sinsin", 3, 1, levels=2, base_n=4)
    assert out.read_text() == run_convergence(cfg).to_csv()
    assert main(["p-sweep", "--geometry", "two_patch_square", "--function",
                 "expxy", "--p", "4", "5", "--k", "2", "--n", "8",
                 "--out", str(out)]) == 0
    cfg = StudyConfig("two_patch_square", "expxy", degrees=(4, 5), smoothness=2,
                      base_n=8)
    assert out.read_text() == run_p_sweep(cfg).to_csv()


@pytest.mark.parametrize("command", ["project", "check-c1"])
@pytest.mark.parametrize("records,attr", [
    ("interfaces", "value_jump"), ("interfaces", "d_jump"),
    ("vertices", "c2_defect"),
])
def test_nan_jump_or_defect_exits_1(monkeypatch, capsys, command, records, attr):
    import asg1kit.harness as harness

    original = harness.check_conformity

    def with_nan(gp):
        report = original(gp)
        # in the last record: max() of a list keeps a NaN only if it comes first
        setattr(getattr(report, records)[-1], attr, float("nan"))
        return report

    args = [command, "--geometry", "three_patch_L", "--p", "4", "--n", "8"]
    assert main(args) == 0
    monkeypatch.setattr(harness, "check_conformity", with_nan)
    assert main(args) == 1
    capsys.readouterr()


def test_check_c1_passes_at_p4(capsys):
    code = main([
        "check-c1", "--geometry", "two_patch_skew", "--function", "sinsin",
        "--p", "4", "--k", "1", "--n", "8",
    ])
    capsys.readouterr()
    assert code == 0


def test_p_sweep_polynomial_exact(tmp_path):
    out = tmp_path / "s.csv"
    code = main([
        "p-sweep", "--geometry", "two_patch_square", "--function", "poly4",
        "--p", "4", "5", "--n", "8", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[4]) <= 1e-9  # e_L2
        assert float(parts[6]) <= 1e-7  # e_H2


def test_p_sweep_errors_decrease_with_p(tmp_path):
    cfg = StudyConfig("unit_square", "sinsin", degrees=(3, 4), base_n=8)
    res = run_p_sweep(cfg)
    assert res.rows[1]["errors"][2] <= res.rows[0]["errors"][2]


def test_geometry_file_path_accepted(tmp_path, capsys):
    from asg1kit.geometry import builtin_geometry, save_geometry

    path = tmp_path / "geo.json"
    save_geometry(builtin_geometry("two_patch_square"), path)
    assert main(["gluing", "--geometry", str(path)]) == 0
    capsys.readouterr()


def test_gluing_recovers_once(monkeypatch, capsys):
    import asg1kit.harness as harness

    calls = []
    original = harness.recover_all

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "recover_all", counting)
    assert main(["gluing", "--geometry", "three_patch_L"]) == 0
    assert len(json.loads(capsys.readouterr().out)["interfaces"]) == 2
    assert len(calls) == 1


@pytest.mark.parametrize("args,message", [
    (["project", "--geometry", "unit_square", "--p", "4", "--n", "8",
      "--nq", "0"], "nq must be a positive integer"),
    (["p-sweep", "--geometry", "unit_square", "--p", "4", "--n", "8",
      "--nq", "-3"], "nq must be a positive integer"),
    (["project", "--geometry", "unit_square", "--p", "4", "--n", "8",
      "--nq", "2"], "nq=2 Gauss nodes per element are too few"),
    # singular, but its Cholesky pivots are positive by round-off
    (["check-c1", "--geometry", "unit_square", "--p", "3", "--n", "8",
      "--nq", "1"], "nq=1 Gauss nodes per element are too few"),
    (["gluing", "--geometry", "three_patch_L", "--n", "0"],
     "element count must be >= 1"),
], ids=["nq-zero", "p-sweep-nq-negative", "gram-not-pd", "gram-singular",
        "gluing-n-zero"])
def test_usage_errors_exit_2(args, message, capsys):
    assert main(args) == 2
    assert message in capsys.readouterr().err


def test_import_loads_no_scipy():
    import asg1kit

    src = os.path.dirname(os.path.dirname(asg1kit.__file__))
    code = ("import sys, asg1kit, asg1kit.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_python_m_asg1kit_runs_the_cli():
    import asg1kit

    src = os.path.dirname(os.path.dirname(asg1kit.__file__))
    out = subprocess.run([sys.executable, "-m", "asg1kit", "list-geometries"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0
    assert out.stdout.split() == ["unit_square", "two_patch_square",
                                  "two_patch_skew", "three_patch_L"]
    assert out.stderr == ""


@pytest.mark.parametrize("command", ["convergence --levels 1", "p-sweep"])
def test_explicit_default_nq_leaves_the_study_csv_unchanged(capsys, command):
    # --nq sets the projector's rule and the norms take two nodes more, as
    # they do by default, so naming the default rule changes no digit
    from asg1kit.ritz1d import default_quadrature_nodes

    args = [*command.split(), "--geometry", "three_patch_L", "--function", "expxy",
            "--p", "6", "--k", "4", "--n", "16"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert main([*args, "--nq", str(default_quadrature_nodes(6))]) == 0
    assert capsys.readouterr().out == default

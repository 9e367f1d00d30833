"""Scene handling, command dispatch, exit codes, and report determinism."""

import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import cli
from liesphere.errors import SceneError
from reference import parse_obj

SQUARE_R = 0.7071067811865476


def _scene(tmp_path, name="scene.json", **overrides):
    obj = {
        "chart": {"kind": "clifford_torus", "r": SQUARE_R},
        "tau": "0.3*sin(u)",
        "grid": [16, 16],
    }
    obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _nested_parallel(depth: int) -> dict:
    chart = {"kind": "clifford_torus", "r": SQUARE_R}
    for _ in range(depth):
        chart = {"kind": "parallel_of", "base": chart, "c": 0.1}
    return chart


def test_scene_validation_errors(tmp_path):
    with pytest.raises(SceneError):
        cli.load_scene(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SceneError):
        cli.load_scene(bad)
    with pytest.raises(SceneError):
        cli.scene_from_json({"tau": "0"})
    with pytest.raises(SceneError):
        cli.scene_from_json({"chart": {"kind": "clifford_torus", "r": 0.5}})
    with pytest.raises(SceneError):
        cli.scene_from_json(
            {"chart": {"kind": "clifford_torus", "r": 0.5}, "tau": "sin(w)"}
        )
    with pytest.raises(SceneError):
        cli.scene_from_json(
            {"chart": {"kind": "clifford_torus", "r": 0.5}, "tau": "0", "grid": [2, 2]}
        )
    with pytest.raises(SceneError):
        cli.scene_from_json(
            {
                "chart": {"kind": "clifford_torus", "r": 0.5},
                "tau": "0",
                "tolerances": {"bogus": 1.0},
            }
        )


def test_check_pass_and_report(tmp_path, capsys):
    scene = _scene(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["check", "--scene", str(scene), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    report = json.loads((out / "report.json").read_text())
    assert report["ribaucour"] is True
    assert report["regular"] is True


def test_check_detects_non_closed(tmp_path):
    scene = _scene(tmp_path, tau="sin(u)*sin(v)", grid=[32, 32])
    out = tmp_path / "out"
    code = cli.main(["check", "--scene", str(scene), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["ribaucour"] is False
    assert report["max_dalpha"] > 1e-2
    assert len(report["max_dalpha_at"]) == 2


def test_check_not_regular_exit(tmp_path, capsys):
    scene = _scene(tmp_path, tau="1")
    code = cli.main(["check", "--scene", str(scene), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "NotRegular" in capsys.readouterr().err


def test_missing_scene_exit_code(tmp_path):
    assert cli.main(["check", "--scene", str(tmp_path / "nope.json")]) == 2


def test_transform_artifacts(tmp_path):
    scene = _scene(tmp_path, tau="2")
    out = tmp_path / "out"
    code = cli.main(["transform", "--scene", str(scene), "--out", str(out)])
    assert code == 0
    for name in ("f.obj", "f_hat.obj", "fields.csv", "report.json"):
        assert (out / name).exists()
    rows = (out / "fields.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:4] == ["u", "v", "tau", "a"]
    first = dict(zip(header, rows[1].split(",")))
    assert float(first["a"]) == pytest.approx(0.6)
    assert float(first["b"]) == pytest.approx(-0.8)
    assert float(first["mu2"]) == 0.0


def test_transform_grid_override(tmp_path):
    scene = _scene(tmp_path, tau="0")
    out = tmp_path / "out"
    code = cli.main(
        ["transform", "--scene", str(scene), "--out", str(out), "--grid", "8x8"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["grid"] == [8, 8]
    assert report["meshes"]["f"] == {"vertices": 64, "faces": 64}


def test_reports_are_deterministic(tmp_path):
    scene = _scene(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["transform", "--scene", str(scene), "--out", str(out1)]) == 0
    assert cli.main(["transform", "--scene", str(scene), "--out", str(out2)]) == 0
    for name in ("report.json", "fields.csv", "f.obj", "f_hat.obj"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_json_mode_prints_report(tmp_path, capsys):
    scene = _scene(tmp_path)
    code = cli.main(
        ["check", "--scene", str(scene), "--out", str(tmp_path / "o"), "--json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["ribaucour"] is True


def test_demoulin_family_run(tmp_path):
    scene = _scene(tmp_path, tau1="2", grid=[16, 16])
    out = tmp_path / "out"
    code = cli.main(
        [
            "demoulin",
            "--scene",
            str(scene),
            "--out",
            str(out),
            "--theta",
            "0,0.392699081698724,1.5707963267948966",
        ]
    )
    assert code == 0
    report = json.loads((out / "family.json").read_text())
    assert report["endpoints_ok"] is True
    assert report["bianchi_norm"] < 1e-8
    assert len(report["members"]) == 3
    assert report["parallel_residual"] < 1e-7
    assert report["r_relation_residual"] < 1e-8
    assert report["r_symmetry_residual"] < 1e-7
    assert report["potential_period_residual"] < 1e-8
    # per-theta artifacts
    assert (out / "family_fields.csv").exists()
    header = (out / "family_fields.csv").read_text().splitlines()[0]
    assert header == "u,v,tau_theta_0,tau_theta_1,tau_theta_2"
    for k, theta in enumerate(report["theta_meshes"].values()):
        verts, faces = parse_obj((out / f"fhat_theta_{k}.obj").read_text())
        assert len(verts) > 0 and len(faces) > 0


def test_demoulin_requires_tau1(tmp_path):
    scene = _scene(tmp_path)
    assert cli.main(["demoulin", "--scene", str(scene)]) == 2


def test_demoulin_rejects_non_closed_generator(tmp_path, capsys):
    scene = _scene(tmp_path, tau="2", tau1="0.2*sin(u)*sin(v)", grid=[32, 32])
    code = cli.main(["demoulin", "--scene", str(scene), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "NotRibaucour" in capsys.readouterr().err


def test_demoulin_with_dual(tmp_path):
    scene = _scene(tmp_path, tau1="2", grid=[16, 16], dual=True)
    out = tmp_path / "out"
    code = cli.main(
        ["demoulin", "--scene", str(scene), "--out", str(out), "--theta", "0.3"]
    )
    assert code == 0
    report = json.loads((out / "family.json").read_text())
    assert report["dual"]["consistency"] < 1e-5
    assert report["dual"]["gamma_identity_residual"] < 1e-5


def test_oracle_command(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["oracle", "--combos", "4", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["pass"] is True
    assert len(report["combos"]) == 4
    for rec in report["combos"]:
        for o in rec["orders_expr"] + rec["orders_chart"]:
            assert 1.7 <= o <= 2.3


@pytest.mark.parametrize("combos", ["0", "-3"])
def test_oracle_needs_a_combo(tmp_path, capsys, combos):
    out = tmp_path / "o"
    assert cli.main(["oracle", "--combos", combos, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--combos" in err and "Traceback" not in err
    assert not out.exists()


def test_demoulin_needs_an_angle(tmp_path, capsys):
    scene = _scene(tmp_path, tau1="2", thetas=[])
    out = tmp_path / "o"
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "thetas" in err and "Traceback" not in err
    assert not out.exists()
    # only the family commands read the angles
    assert cli.main(["check", "--scene", str(scene), "--out", str(out)]) == 0


def test_a_grid_too_large_to_hold_exits_1_and_leaves_no_directory(tmp_path, capsys):
    # the first column asked for is larger than x86-64's user address space, so
    # numpy's allocation is refused under every overcommit mode and nothing is held
    out = tmp_path / "X" / "deeper"
    argv = ["export", "--scene", str(SCENES / "check_sinu.json"), "--grid", "5000000x5000000"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification error: MemoryError: Unable to allocate 182. TiB")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "X").exists()


def test_export_command(tmp_path):
    scene = _scene(tmp_path, tau="0")
    out = tmp_path / "out"
    code = cli.main(["export", "--scene", str(scene), "--out", str(out)])
    assert code == 0
    assert (out / "f.obj").exists()
    assert (out / "f_hat.obj").exists()
    assert (out / "fields.csv").exists()


def _clip_line(path, n: int) -> str:
    return f"{path}: {n} vertices clipped at the stereographic pole\n"


def test_export_leaves_degenerate_points_out_of_f_hat(tmp_path, capsys):
    out = tmp_path / "out"
    scene = str(SCENES / "check_sinusinv.json")
    assert cli.main(["export", "--scene", scene, "--out", str(out)]) == 0
    assert capsys.readouterr().err == _clip_line(out / "f_hat.obj", 4)
    meshes = json.loads((out / "export.json").read_text())["meshes"]
    for name in ("f", "f_hat"):
        text = (out / f"{name}.obj").read_text()
        assert "nan" not in text
        verts, faces = parse_obj(text)
        assert faces.min() >= 0 and faces.max() < len(verts)
        assert meshes[name] == {"vertices": len(verts), "faces": len(faces)}
    # the degenerate points are the rows where a and b are NaN
    with open(out / "fields.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    degenerate = sum(row["a"] == row["b"] == "nan" for row in rows)
    assert degenerate == meshes["dropped"] == 4


def test_bad_grid_flag(tmp_path):
    scene = _scene(tmp_path)
    assert cli.main(["check", "--scene", str(scene), "--grid", "banana"]) == 2
    assert cli.main(["check", "--scene", str(scene), "--grid", "2x2"]) == 2
    scene = _scene(tmp_path, tau1="2")
    assert cli.main(["demoulin", "--scene", str(scene), "--theta", "0,x"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        # a scene file that is not UTF-8
        (["check", "--scene", "{bad}"], "--scene"),
        # --out names an existing file, or a path below one
        (["check", "--scene", "{scene}", "--out", "{file}"], "--out"),
        (["check", "--scene", "{scene}", "--out", "{file}/sub"], "--out"),
        (["oracle", "--seed", "-1"], "--seed"),
        # an empty angle list is not the scene's
        (["demoulin", "--scene", "{scene}", "--theta", ""], "--theta"),
        # a scene file that nests too deeply for JSON
        (["check", "--scene", "{deep}"], "--scene"),
        # --out names nothing, has a component longer than any file name, or is
        # longer than any path; the directories made on the way are removed
        (["check", "--scene", "{scene}", "--out", ""], "--out"),
        (["export", "--scene", "{scene}", "--out", "{tmp}/o/" + "a" * 300], "--out"),
        (["transform", "--scene", "{scene}", "--out", "{tmp}/o/" + ("a" * 200 + "/") * 25], "--out"),
    ],
)
def test_bad_flag_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, flag):
    # a usage error, judged before any grid is walked: exit 2, never a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    file = tmp_path / "file"
    file.write_text("", encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 200_000)
    names = {"bad": bad, "deep": deep, "scene": _scene(tmp_path, tau1="2"), "file": file}
    names["tmp"] = tmp_path
    argv = [a.format(**names) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    before = sorted(Path.cwd().iterdir())

    def no_walk(*args, **kwargs):
        raise AssertionError("a grid was walked")

    monkeypatch.setattr(cli.RB, "eval_blocks", no_walk)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "o").exists() and file.is_file()
    assert sorted(Path.cwd().iterdir()) == before


SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _shipped_scene(tmp_path, name, **overrides):
    obj = json.loads((SCENES / name).read_text(encoding="utf-8"))
    obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["check_custom.json", "check_sinu.json"])
def test_field_residuals_peak_at_the_reported_values(tmp_path, name):
    out = tmp_path / "out"
    assert cli.main(["transform", "--scene", str(SCENES / name), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "fields.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for key in ("eq6", "eq9", "eq13"):
        column = [float(row[f"res_{key}"]) for row in rows]
        assert max(column) == report["residuals"][key]


def test_transform_drops_degenerate_points_from_f_hat_obj(tmp_path, capsys):
    out = tmp_path / "out"
    scene = str(SCENES / "check_sinusinv.json")
    assert cli.main(["transform", "--scene", scene, "--out", str(out)]) == 1  # not regular
    assert capsys.readouterr().err == _clip_line(out / "f_hat.obj", 4)
    for name in ("f.obj", "f_hat.obj"):
        text = (out / name).read_text()
        assert "nan" not in text
        verts, faces = parse_obj(text)
        assert faces.min() >= 0 and faces.max() < len(verts)
    # the degenerate points are the rows whose pointwise residuals are NaN
    with open(out / "fields.csv", encoding="utf-8", newline="") as fh:
        degenerate = sum(row["res_eq6"] == "nan" for row in csv.DictReader(fh))
    meshes = json.loads((out / "report.json").read_text())["meshes"]
    assert degenerate > 0 and meshes["dropped"] == degenerate


def test_demoulin_walks_the_members_once(tmp_path, monkeypatch):
    from liesphere import ribaucour as RB

    calls = {"eval_blocks": 0, "transform": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(RB, "eval_blocks")
    counting(RB, "transform")
    scene = _shipped_scene(tmp_path, "demoulin_dual_2d.json", dual=False)
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 0
    # one walk for the generators and one for all 8 members and the parallel
    # sections; two generator transforms plus one per member off the endpoints
    assert calls == {"eval_blocks": 2, "transform": 8}


def test_failing_member_leaves_the_meshes_before_it(tmp_path, capsys):
    # tau0 = 0 and tau1 = 2 have equal potentials, so the denominator of the
    # 3 pi / 4 member vanishes everywhere; the member before it is written
    scene = _shipped_scene(
        tmp_path, "demoulin_sinu.json", tau="0", tau1="2", grid=[16, 16],
        thetas=[0.3, 3 * np.pi / 4, 1.0],
    )
    out = tmp_path / "out"
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(out)]) == 1
    assert "FullyMasked: family member theta=2.356194490192345" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["fhat_theta_0.obj"]


def test_each_clipping_mesh_is_a_stderr_line(tmp_path, capsys):
    # a great sphere whose transforms by the constants 2 and 3 are great spheres
    # too; the endpoint members at 0 and pi both carry tau0's f_hat, which meets
    # the pole at (u, v) = (pi/2, 0): two meshes clip one vertex each
    scene = _scene(
        tmp_path,
        chart={
            "kind": "custom",
            "f": ["cos(v)*cos(u)", "sin(v)", "-0.8*cos(v)*sin(u)", "0.6*cos(v)*sin(u)"],
            "xi": ["0", "0", "-0.6", "-0.8"],
            "domain": {"u": [0, 2 * np.pi], "v": [-1, 1], "periodic": [True, False]},
        },
        tau="2", tau1="3", grid=[16, 5], thetas=[0.0, np.pi, 0.3],
    )
    out = tmp_path / "out"
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == _clip_line(out / "fhat_theta_0.obj", 1) + _clip_line(out / "fhat_theta_1.obj", 1)
    assert json.loads((out / "family.json").read_text())["clipped"] == 2
    for k in (0, 1):
        verts, _ = parse_obj((out / f"fhat_theta_{k}.obj").read_text())
        assert len(verts) == 16 * 5 - 1


def test_member_meshes_leave_out_exactly_the_masked_points(tmp_path):
    # the first member masks points where its transform is singular, the second
    # where its denominator vanishes
    scene = _shipped_scene(
        tmp_path, "demoulin_sinu.json", grid=[20, 19], thetas=[np.pi / 4, 3 * np.pi / 4]
    )
    out = tmp_path / "out"
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(out)]) == 0
    members = json.loads((out / "family.json").read_text())["members"]
    with open(out / "family_fields.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert members[0]["regularity_masked"] > 0 and members[1]["denominator_masked"] > 0
    for k, rec in enumerate(members):
        masked = np.array([row[f"tau_theta_{k}"] == "nan" for row in rows]).reshape(20, 19)
        assert rec["denominator_masked"] + rec["regularity_masked"] == masked.sum()
        verts, faces = parse_obj((out / f"fhat_theta_{k}.obj").read_text())
        assert len(verts) == len(rows) - rec["denominator_masked"] - rec["regularity_masked"]
        # the faces kept are the cells of the periodic grid with no masked corner
        corners = masked | np.roll(masked, -1, 0) | np.roll(masked, -1, 1)
        corners |= np.roll(masked, (-1, -1), (0, 1))
        assert len(faces) == np.count_nonzero(~corners)


def test_reverse_transform_honours_det_rel(tmp_path, capsys):
    # tau = 1.000001 passes the forward screen at det_rel = 1e-14 (min |det|
    # about 1e-12); the reverse transform must screen at the same tolerance
    scene = _shipped_scene(
        tmp_path, "check_sinu.json", tau="1.000001", grid=[16, 16],
        tolerances={"det_rel": 1e-14},
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["check", "--scene", str(scene), "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_member_verdict_uses_scene_tolerance(tmp_path, capsys):
    scene = _shipped_scene(
        tmp_path,
        "demoulin_dual_2d.json",
        dual=False,
        tolerances={"member_closedness": 1e-30},
    )
    out = tmp_path / "out"
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(out)]) == 1
    fails = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL  member theta=")
    ]
    members = json.loads((out / "family.json").read_text())["members"]
    verdicts = [rec["ribaucour"] for rec in members]
    assert len(fails) == verdicts.count(False) == 6
    # the exactly closed generators still pass
    assert [rec.get("endpoint") for rec in members if rec["ribaucour"]] == ["tau0", "tau1"]


@pytest.mark.parametrize(
    "command, name, tolerances, code, text",
    [
        # contact: the frame certification tolerance
        ("check", "check_custom.json", {"contact": 1e-20}, 1, "ContactViolation"),
        ("transform", "check_custom.json", {"contact": 1e-20}, 1, "ContactViolation"),
        ("export", "check_custom.json", {"contact": 1e-20}, 1, "ContactViolation"),
        ("demoulin", "demoulin_sinu.json", {"contact": 1e-20}, 1, "ContactViolation"),
        # det_rel: the regularity screen
        ("check", "check_sinu.json", {"det_rel": 0.5}, 1, "FAIL  regularity sweep"),
        ("transform", "check_sinu.json", {"det_rel": 0.5}, 1, "FAIL  regularity sweep"),
        ("export", "check_sinu.json", {"det_rel": 0.5}, 0, "exported f_hat without"),
        ("demoulin", "demoulin_sinu.json", {"det_rel": 0.5}, 1, "NotRegular"),
    ],
)
def test_scene_tolerances_reach_every_command(
    tmp_path, capsys, command, name, tolerances, code, text
):
    scene = _shipped_scene(tmp_path, name, tolerances=tolerances, grid=[8, 8])
    out = tmp_path / "out"
    assert cli.main([command, "--scene", str(scene), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err
    if command == "export" and "det_rel" in tolerances:
        # degenerate vertices are left out of f_hat.obj, as transform leaves them
        report = json.loads((out / "export.json").read_text())
        assert report["meshes"]["dropped"] > 0
        assert "nan" not in (out / "f_hat.obj").read_text()
    elif command == "export":
        assert not (out / "f_hat.obj").exists()


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("eq6", {"tolerances": {"eq6": "x"}}),
        ("grid", {"grid": "ab"}),
        ("grid", {"grid": [8.7, 8]}),
        ("'r'", {"chart": {"kind": "clifford_torus", "r": "x"}}),
        ("tau", {"tau": 3}),
        ("thetas", {"thetas": "x"}),
        ("dual", {"dual": "no"}),
        (
            "domain",
            {
                "chart": {
                    "kind": "clifford_torus",
                    "r": SQUARE_R,
                    "domain": {"u": ["a", 1.0], "v": [0.0, 1.0]},
                }
            },
        ),
        (
            "periodic",
            {
                "chart": {
                    "kind": "clifford_torus",
                    "r": SQUARE_R,
                    "domain": {"u": [0.0, 1.0], "v": [0.0, 1.0], "periodic": "xyz"},
                }
            },
        ),
        ("tolerances", {"tolerances": []}),
        ("tolerances", {"tolerances": 0}),
        ("tolerances", {"tolerances": ""}),
        ("tolerances", {"tolerances": None}),
        ("tolerances.closedness", {"tolerances": {"closedness": "nan"}}),
        ("tolerances.closedness", {"tolerances": {"closedness": -1}}),
        ("tolerances.closedness", {"tolerances": {"closedness": True}}),
        ("tolerances.closedness", {"tolerances": {"closedness": 10**400}}),
        ("tolerances.contact", {"tolerances": {"contact": 0}}),
        ("thetas", {"thetas": [float("inf")]}),
        ("'r'", {"chart": {"kind": "clifford_torus", "r": 10**400}}),
        (
            "domain",
            {
                "chart": {
                    "kind": "clifford_torus",
                    "r": SQUARE_R,
                    "domain": {"u": [-1e308, 1e308], "v": [0.0, 1.0]},
                }
            },
        ),
        # nesting deeper than the expressions' MAX_DEPTH, refused before any walk
        ("tau", {"tau": "u" + "+u" * 3000}),
        ("tau", {"tau": "-" * 3000 + "u"}),
        ("tau", {"tau": "(" * 5000 + "u" + ")" * 5000}),
        ("tau1", {"tau1": "sin(" * 200 + "u" + ")" * 200}),
        ("'f'", {"chart": {"kind": "custom", "f": ["u" + "+u" * 200] + ["0"] * 3, "xi": ["0"] * 4}}),
        ("'base'", {"chart": _nested_parallel(101)}),
    ],
)
def test_malformed_scene_values_exit_2(tmp_path, capsys, key, overrides):
    scene = _scene(tmp_path, **overrides)
    assert cli.main(["check", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def _torus_on(domain: dict) -> dict:
    return {"chart": {"kind": "clifford_torus", "r": SQUARE_R, "domain": domain}}


# a scene number, or a grid entry, set to x; the key its error names
_SCENE_NUMBERS = {
    "'r'": lambda x: {"chart": {"kind": "clifford_torus", "r": x}},
    "'c'": lambda x: {"chart": {"kind": "parallel_of", "base": _nested_parallel(0), "c": x}},
    "'thetas'": lambda x: {"thetas": [0.0, x]},
    "'domain.u'": lambda x: _torus_on({"u": [x, 6.2], "v": [0.0, 6.2]}),
    "'domain.v'": lambda x: _torus_on({"u": [0.0, 6.2], "v": [0.0, x]}),
    "'tolerances.eq6'": lambda x: {"tolerances": {"eq6": x}},
    "'grid' must be a list of two integers": lambda x: {"grid": [x, 8]},
}


@pytest.mark.parametrize("value", [True, False, "0.5"])
@pytest.mark.parametrize("key", list(_SCENE_NUMBERS))
def test_scene_numbers_are_json_numbers(tmp_path, capsys, key, value):
    # float() takes true, false and "0.5", but none of them is a JSON number
    scene = _scene(tmp_path, **_SCENE_NUMBERS[key](value))
    assert cli.main(["check", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_theta_flag_parses_its_text(tmp_path):
    scene = _scene(tmp_path, tau1="2", grid=[8, 8])
    out = tmp_path / "out"
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(out), "--theta", "0.5,1"]) == 0
    members = json.loads((out / "family.json").read_text())["members"]
    assert [m["theta"] for m in members] == [0.5, 1.0]


def test_non_finite_tau_is_a_domain_error(tmp_path, capsys):
    # the chart certifies; tau overflows, which names tau's point, not the frame
    scene = _shipped_scene(
        tmp_path, "check_sinu.json", tau="exp(exp(exp(u)))", grid=[16, 16]
    )
    assert cli.main(["check", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "DomainErrorJet" in err
    assert "parameter point [" in err
    assert "ContactViolation" not in err


def test_non_finite_custom_chart_is_a_domain_error(tmp_path, capsys):
    # a custom component overflows: the chart names it and its first point
    chart = json.loads((SCENES / "check_custom.json").read_text(encoding="utf-8"))["chart"]
    chart["f"][0] = "exp(exp(exp(u)))"
    scene = _shipped_scene(tmp_path, "check_custom.json", chart=chart, grid=[8, 8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["check", "--scene", str(scene), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert (
        "DomainErrorJet: exp(exp(exp(u))) is not finite at parameter point [2.356194, 0.0]"
        in err
    )
    assert "Warning" not in err
    assert "ContactViolation" not in err


# A great sphere: xi is constant, so with tau = 0 the congruence metric is zero
_GREAT_SPHERE = {
    "kind": "custom",
    "f": ["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)", "0"],
    "xi": ["0", "0", "0", "1"],
    "domain": {"u": [-1.0, 1.0], "v": [0.0, 2 * np.pi], "periodic": [False, True]},
}


@pytest.mark.parametrize("command", ["check", "transform", "export"])
def test_zero_metric_is_not_regular(tmp_path, capsys, command):
    # a zero metric fails the regularity screen; it is not a transform that
    # overflows, so export writes f_hat without its degenerate points
    scene = _scene(tmp_path, chart=_GREAT_SPHERE, tau="0", grid=[8, 8])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--scene", str(scene), "--out", str(out)])
    captured = capsys.readouterr()
    if command == "export":
        assert code == 0
        assert "exported f_hat without its 64 degenerate points" in captured.out
        meshes = json.loads((out / "export.json").read_text())["meshes"]
        assert meshes["dropped"] == 64 and meshes["f_hat"] == {"vertices": 0, "faces": 0}
    else:
        assert code == 1
        assert (
            "NotRegular: congruence metric degenerates at batch index (0,), "
            "parameter point [-1.0, 0.0]" in captured.err
        )


@pytest.mark.parametrize("command", ["check", "transform", "export"])
def test_overflowed_metric_is_not_finite(tmp_path, capsys, command):
    # tau df overflows, so the congruence metric is infinite: the transform is
    # not finite, and the zero-metric screen must not call that degenerate
    scene = _shipped_scene(tmp_path, "check_sinu.json", tau="1e200", grid=[8, 8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--scene", str(scene), "--out", str(tmp_path / "o")])
    assert code == 1
    assert (
        "DomainErrorJet: transform is not finite at batch index (0,), "
        "parameter point [0.0, 0.0]" in capsys.readouterr().err
    )


_HUGE = {"tau": "1e200*sin(u)", "grid": [16, 16]}  # tau is finite, tau^2 overflows
_LATE = {"tau": "exp(250*(u-4.7))", "grid": [20, 19]}  # overflows in the last rows of u


@pytest.mark.parametrize(
    "command, name, overrides",
    [(command, "check_sinu.json", case) for case in (_HUGE, _LATE)
     for command in ("check", "transform", "export")]
    + [
        # tau1 is finite, its transform overflows on the last row of u
        ("demoulin", "demoulin_sinu.json",
         {"tau1": "2 + 1e8*exp(1e150*(u - 5.969026041820607))", "grid": [20, 19]}),
        ("demoulin", "demoulin_sinu.json", _HUGE | {"tau1": "2"}),
    ]
    # a division by zero in tau
    + [(command, "check_sinu.json", {"tau": "1/u", "grid": [16, 16]})
       for command in ("check", "transform", "export")]
    + [
        ("demoulin", "demoulin_sinu.json", {"tau1": "2 + 1/u"}),
        # the generators cross on the dual patch, and the dual march leaves its range
        ("demoulin", "demoulin_sinu.json", {"tau1": "0.2*cos(v)", "grid": [11, 11], "dual": True}),
    ],
)
def test_numerical_trouble_is_a_typed_error(tmp_path, capsys, command, name, overrides):
    # a transform that is not finite is an error naming its point, never a
    # warning, and no command writes its files and exits 0
    scene = _shipped_scene(tmp_path, name, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--scene", str(scene), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "parameter point [" in err
    assert "Warning" not in err


# ---------- the scene boundary ----------

_BASE_CHARTS = (
    {
        "kind": "clifford_torus",
        "r": SQUARE_R,
        "domain": {"u": [0.0, 6.0], "v": [0.0, 6.0], "periodic": [False, False]},
    },
    {"kind": "parallel_of", "base": {"kind": "clifford_torus", "r": 0.6}, "c": 0.3},
    json.loads((SCENES / "check_custom.json").read_text(encoding="utf-8"))["chart"],
)
_KEY_PATHS = (
    (),
    ("chart",),
    ("chart", "kind"),
    ("chart", "r"),
    ("chart", "c"),
    ("chart", "base"),
    ("chart", "f"),
    ("chart", "xi"),
    ("chart", "domain"),
    ("chart", "domain", "u"),
    ("chart", "domain", "v"),
    ("chart", "domain", "periodic"),
    ("tau",),
    ("tau1",),
    ("grid",),
    ("thetas",),
    ("dual",),
    ("tolerances",),
    ("tolerances", "closedness"),
    ("tolerances", "contact"),
    ("tolerances", "det_rel"),
)
_EXPRESSIONS = (
    "u", "0", "1", "1/u", "ln(u)", "exp(exp(exp(u)))", "sin(u)*sin(v)", "1e308*v"
)
_EXTREMES = (0, -1, 1e308, -1e308, 1e300, 5e-324, 10**400, [0, 1e300], [-1e308, 1e308])
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(_EXPRESSIONS + _EXTREMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@given(chart=st.sampled_from(_BASE_CHARTS), path=st.sampled_from(_KEY_PATHS), value=_JSON)
@settings(max_examples=60, deadline=None)
def test_any_scene_value_exits_0_1_or_2(chart, path, value):
    # any JSON value at any scene key: a verdict or a scene error, never a
    # traceback or a leaked RuntimeWarning
    obj = {
        "chart": json.loads(json.dumps(chart)),
        "tau": "0.3*sin(u)",
        "tau1": "2",
        "grid": [8, 8],
        "thetas": [0.0, 0.3],
        "tolerances": {"closedness": 1e-7},
    }
    if not path:
        obj = value
    else:
        parent = obj
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "scene.json"
        scene.write_text(json.dumps(obj), encoding="utf-8")
        for command in ("check", "export", "demoulin"):
            # the flag replaces a valid scene grid, so a huge one is never run
            argv = [command, "--scene", str(scene), "--out", tmp, "--grid", "8x8"]
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(argv) in (0, 1, 2)


_SWEEP_SCENE = json.dumps({
    "chart": {"kind": "clifford_torus", "r": SQUARE_R},
    "tau": "0.3*sin(u)",
    "tau1": "2 + 0.2*cos(v)",
    "grid": [8, 8],
    "thetas": [0.0, 0.3],
})


def _sweep_scene(**overrides) -> bytes:
    return json.dumps(json.loads(_SWEEP_SCENE) | overrides).encode()


_DEEP = (
    b"[" * 200_000,
    b'{"a": ' * 100_000,
    _sweep_scene(tau="u" + "+u" * 3000),
    _sweep_scene(tau="-" * 3000 + "u"),
    _sweep_scene(tau1="(" * 5000 + "u" + ")" * 5000),
    _sweep_scene(chart={"kind": "custom", "f": ["sin(" * 3000 + "u" + ")" * 3000] * 4,
                        "xi": ["u"] * 4}),
    _sweep_scene(chart=_nested_parallel(101)),
)
# scene files as raw bytes: valid (passing, or failing a gate), behind a BOM,
# not UTF-8, truncated, or nested deeply
_SCENE_BYTES = st.sampled_from([
    _SWEEP_SCENE.encode(), _sweep_scene(tau="sin(u)*sin(v)"), _sweep_scene(tau="1"),
    _sweep_scene(chart=_nested_parallel(2)),
]) | st.one_of(
    st.just(b"\xef\xbb\xbf" + _SWEEP_SCENE.encode()),
    st.binary(min_size=1, max_size=4).map(lambda b: b"\xff" + b + _SWEEP_SCENE.encode()),
    st.integers(0, len(_SWEEP_SCENE) - 1).map(lambda n: _SWEEP_SCENE.encode()[:n]),
    st.sampled_from(_DEEP),
)
# each flag's valid and risky values: empty, blank, negative, non-numeric,
# unicode digits, nan; none names a grid above 16 x 16 or more than 2 combos
_RISKY = ("", " ", "-1", "0", "x", "nan", "١", "２", "٨x٨", "８x８")
_FLAGS = {
    "--scene": (("scene.json",), ("", " ", "missing.json", ".")),
    "--grid": (("8x8", "16x16", "5x7"), _RISKY + ("١٦x١٦", "-8x8", "8x8x8", "4X4", "3x8", "17x4")),
    "--out": (
        ("out", "new/deeper", " "),
        ("", "file", "file/sub", "a" * 300, ("a" * 200 + "/") * 25),
    ),
    "--theta": (("0,0.3", "0.5"), _RISKY + (",", "0,", "1e308", "inf", "-0")),
    "--seed": (("0", "7"), _RISKY + ("9" * 30,)),
    "--combos": (("1", "2"), _RISKY),
}
_SWITCHES = {
    "check": ("--json",),
    "transform": ("--json", "--pole-flip"),
    "export": ("--json", "--pole-flip"),
    "demoulin": ("--json", "--dual"),
    "oracle": ("--json",),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SWITCHES)))
    flags = ["--scene", "--grid", "--out"]
    flags += {"demoulin": ["--theta"], "oracle": ["--seed"]}.get(command, [])
    argv = [command]
    for flag in flags:  # a risky value one time in four; --scene is never left out
        valid, risky = _FLAGS[flag]
        left_out = st.none() if flag != "--scene" else st.sampled_from(valid)
        value = draw(st.one_of(left_out, st.sampled_from(valid), st.sampled_from(valid + risky)))
        if value is not None:
            argv += [flag, value]
    if command == "oracle":  # its default is 20 combos
        argv += ["--combos", draw(st.sampled_from(_FLAGS["--combos"][0] + _FLAGS["--combos"][1]))]
    return argv + [s for s in _SWITCHES[command] if draw(st.booleans())]


@given(argv=_argv(), scene=_SCENE_BYTES)
@settings(deadline=None)  # examples: the tests/conftest.py profiles
def test_any_argv_exits_0_1_or_2(argv, scene):
    # any flags, scene bytes and output path: a verdict, a scene error or
    # argparse's usage error, never a traceback or a leaked RuntimeWarning
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("scene.json").write_bytes(scene)
            Path("file").write_text("", encoding="utf-8")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

"""Scene handling, command dispatch, exit codes, and report determinism."""

import csv
import json
from pathlib import Path

import pytest

from liesphere import cli
from liesphere.errors import SceneError

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
    # per-theta artifacts
    assert (out / "family_fields.csv").exists()
    header = (out / "family_fields.csv").read_text().splitlines()[0]
    assert header == "u,v,tau_theta_0,tau_theta_1,tau_theta_2"
    from liesphere import gridio as G

    for k, theta in enumerate(report["theta_meshes"].values()):
        verts, faces = G.parse_obj((out / f"fhat_theta_{k}.obj").read_text())
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


def test_export_command(tmp_path):
    scene = _scene(tmp_path, tau="0")
    out = tmp_path / "out"
    code = cli.main(["export", "--scene", str(scene), "--out", str(out)])
    assert code == 0
    assert (out / "f.obj").exists()
    assert (out / "f_hat.obj").exists()
    assert (out / "fields.csv").exists()


def test_bad_grid_flag(tmp_path):
    scene = _scene(tmp_path)
    assert cli.main(["check", "--scene", str(scene), "--grid", "banana"]) == 2


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


def test_demoulin_builds_each_member_once(tmp_path, monkeypatch):
    from liesphere import demoulin as D
    from liesphere import ribaucour as RB

    calls = {"demoulin_tau": 0, "transform": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(D, "demoulin_tau")
    counting(RB, "transform")
    scene = _shipped_scene(tmp_path, "demoulin_dual_2d.json", dual=False)
    assert cli.main(["demoulin", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 0
    # 8 members; two generator transforms plus one per member off the endpoints
    assert calls == {"demoulin_tau": 8, "transform": 8}


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

"""Command-line front end.

Scene files are JSON with explicit keys::

    {
      "chart": {"kind": "clifford_torus", "r": 0.7071067811865476},
      "tau": "0.3*sin(u)",
      "tau1": "2",                  // only for family commands
      "grid": [64, 64],             // optional, default 64x64
      "thetas": [0.0, 0.3926990816987241, ...],   // optional
      "tolerances": {"closedness": 1e-7, ...},    // optional overrides
      "dual": true                  // optional, run the dual-family step
    }

Commands: check, transform, demoulin, oracle, export.  Exit codes: 0 when
every gate passes, 1 on verification failure, 2 on scene/usage errors.
Reports are canonical JSON; identical scenes produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import charts as CH
from . import demoulin as D
from . import exprs as E
from . import gridio as G
from . import ribaucour as RB
from .errors import (
    BianchiViolation,
    LieSphereError,
    NotRegular,
    ParseError,
    SceneError,
)

DEFAULT_GRID = (64, 64)
DEFAULT_THETAS = tuple(k * np.pi / 8.0 for k in range(8))


@dataclass
class Tolerances:
    closedness: float = RB.CLOSEDNESS_REL_TOL  # relative, scaled by 1 + max|alpha|
    det_rel: float = RB.DET_REL_TOL
    eq6: float = 1e-9
    eq9: float = 1e-9
    eq10: float = 1e-9
    eq13: float = 1e-8
    involution: float = 1e-8
    curvature: float = 1e-8
    contact: float | None = None  # None: per-chart default
    bianchi: float = 1e-8
    member_closedness: float = 1e-7
    parallel: float = 1e-7
    dual_consistency: float = 1e-5
    gamma_identity: float = 1e-5

    @staticmethod
    def from_json(obj: dict | None) -> "Tolerances":
        tol = Tolerances()
        if not obj:
            return tol
        for key, val in obj.items():
            if not hasattr(tol, key):
                raise SceneError(f"unknown tolerance key {key!r}")
            setattr(tol, key, float(val))
        return tol


@dataclass
class Scene:
    chart: CH.ChartSpec
    tau: E.TauExpr
    tau_src: str
    tau1: E.TauExpr | None = None
    tau1_src: str | None = None
    grid: tuple[int, int] = DEFAULT_GRID
    thetas: tuple[float, ...] = DEFAULT_THETAS
    tolerances: Tolerances = field(default_factory=Tolerances)
    dual: bool = False


def load_scene(path: str | Path) -> Scene:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file {path} is not valid JSON: {exc}") from exc
    return scene_from_json(obj)


def scene_from_json(obj: dict) -> Scene:
    if not isinstance(obj, dict):
        raise SceneError("scene must be a JSON object")
    for key in ("chart", "tau"):
        if key not in obj:
            raise SceneError(f"scene is missing required key {key!r}")
    chart = CH.chart_from_json(obj["chart"])
    if chart.domain.spans[0] <= 0 or chart.domain.spans[1] <= 0:
        raise SceneError("chart domain is empty")
    try:
        tau = E.parse_tau(obj["tau"])
    except ParseError as exc:
        raise SceneError(f"tau does not parse: {exc}") from exc
    tau1 = None
    if obj.get("tau1") is not None:
        try:
            tau1 = E.parse_tau(obj["tau1"])
        except ParseError as exc:
            raise SceneError(f"tau1 does not parse: {exc}") from exc
    grid = tuple(int(x) for x in obj.get("grid", DEFAULT_GRID))
    if len(grid) != 2 or grid[0] < 4 or grid[1] < 4:
        raise SceneError(f"grid must be at least 4x4, got {grid}")
    thetas = tuple(float(t) for t in obj.get("thetas", DEFAULT_THETAS))
    return Scene(
        chart=chart,
        tau=tau,
        tau_src=obj["tau"],
        tau1=tau1,
        tau1_src=obj.get("tau1"),
        grid=grid,  # type: ignore[arg-type]
        thetas=thetas,
        tolerances=Tolerances.from_json(obj.get("tolerances")),
        dual=bool(obj.get("dual", False)),
    )


def _grid(scene: Scene) -> G.Grid:
    return G.Grid(scene.grid[0], scene.grid[1], scene.chart.domain)


def _gates(report: dict, tol: Tolerances) -> list[tuple[str, bool, str]]:
    res = report["residuals"]
    gates = [
        ("regularity sweep", report["regular"], f"min |det| = {report['min_det']:.3e}"),
        (
            "closedness (Ribaucour)",
            report["ribaucour"],
            f"max |dalpha| = {report['max_dalpha']:.3e} at {report['max_dalpha_at']}",
        ),
        ("frame identities", res["eq6"] < tol.eq6, f"eq6 = {res['eq6']:.3e}"),
        ("differential identity", res["eq9"] < tol.eq9, f"eq9 = {res['eq9']:.3e}"),
        ("reverse decomposition", res["eq10"] < tol.eq10, f"eq10 = {res['eq10']:.3e}"),
        ("form sum rule", res["eq13"] < tol.eq13, f"eq13 = {res['eq13']:.3e}"),
        (
            "involution",
            res["involution"] < tol.involution,
            f"involution = {res['involution']:.3e}",
        ),
        (
            "curvature identity",
            res["curvature_identity"] < tol.curvature,
            f"curvature = {res['curvature_identity']:.3e}",
        ),
    ]
    return gates


def _print_gates(gates, json_mode: bool):
    ok = True
    for name, passed, detail in gates:
        ok &= bool(passed)
        if not json_mode:
            print(f"{'PASS' if passed else 'FAIL'}  {name:24s} {detail}")
    return ok


def _emit(report: dict, out: Path, name: str, json_mode: bool):
    out.mkdir(parents=True, exist_ok=True)
    G.write_json(out / name, report)
    if json_mode:
        sys.stdout.write(G.canonical_json(report))


def cmd_check(scene: Scene, out: Path, json_mode: bool) -> int:
    grid = _grid(scene)
    run = RB.run_grid(
        scene.chart,
        scene.tau,
        grid.points(),
        closedness_rel_tol=scene.tolerances.closedness,
        det_rel_tol=scene.tolerances.det_rel,
        involution_tol=scene.tolerances.involution,
        contact_tol=scene.tolerances.contact,
    )
    report = RB.diagnostic_report(run)
    report["tau_src"] = scene.tau_src
    report["frame_cert"] = run.frame.cert
    gates = [
        (
            "frame certification",
            True,
            f"max contact residual = "
            f"{max(run.frame.cert['contact_df'], run.frame.cert['contact_dxi']):.3e}",
        )
    ] + _gates(report, scene.tolerances)
    ok = _print_gates(gates, json_mode)
    _emit(report, out, "report.json", json_mode)
    return 0 if ok else 1


def cmd_transform(scene: Scene, out: Path, json_mode: bool, pole_flip: bool) -> int:
    grid = _grid(scene)
    run = RB.run_grid(
        scene.chart,
        scene.tau,
        grid.points(),
        closedness_rel_tol=scene.tolerances.closedness,
        det_rel_tol=scene.tolerances.det_rel,
        involution_tol=scene.tolerances.involution,
        contact_tol=scene.tolerances.contact,
    )
    report = RB.diagnostic_report(run)
    report["tau_src"] = scene.tau_src
    gates = _gates(report, scene.tolerances)
    ok = _print_gates(gates, json_mode)

    out.mkdir(parents=True, exist_ok=True)
    shape = grid.shape
    f4 = run.frame.f.value[:, :4].reshape(shape + (4,))
    fhat4 = run.result.f_hat.value[:, :4].reshape(shape + (4,))
    mesh_f = G.export_obj(out / "f.obj", f4, grid, pole_flip=pole_flip)
    mesh_fh = G.export_obj(out / "f_hat.obj", fhat4, grid, pole_flip=pole_flip)
    report["meshes"] = {
        "f": {"vertices": len(mesh_f.vertices), "faces": len(mesh_f.faces)},
        "f_hat": {"vertices": len(mesh_fh.vertices), "faces": len(mesh_fh.faces)},
        "clipped": mesh_f.clipped + mesh_fh.clipped,
    }

    res = run.result
    dal = RB.dalpha_components(res)
    cols = {
        "tau": res.tau.value,
        "a": res.a.value,
        "b": res.b.value,
        "mu2": res.mu2.value,
        "alpha_u": res.alpha.value[..., 0],
        "alpha_v": res.alpha.value[..., 1],
        "dalpha_abs": np.abs(dal[..., 0]),
        "res_eq6": run.pointwise["eq6"],
        "res_eq9": run.pointwise["eq9"],
        "res_eq13": run.pointwise["eq13"],
    }
    G.write_fields_csv(out / "fields.csv", grid, cols)
    _emit(report, out, "report.json", json_mode)
    if not json_mode:
        print(f"wrote f.obj, f_hat.obj, fields.csv, report.json to {out}")
    return 0 if ok else 1


def cmd_demoulin(scene: Scene, out: Path, json_mode: bool) -> int:
    if scene.tau1 is None:
        raise SceneError("demoulin needs 'tau1' in the scene")
    grid = _grid(scene)
    family = D.build_family(
        scene.chart,
        scene.tau,
        scene.tau1,
        grid,
        closedness_rel_tol=scene.tolerances.closedness,
    )
    if family.bianchi.commutator_max > scene.tolerances.bianchi:
        raise BianchiViolation(
            f"commutator norm {family.bianchi.commutator_max:.3e} exceeds "
            f"{scene.tolerances.bianchi:.1e}; no permutability family",
            norm=family.bianchi.commutator_max,
        )
    dual = D.dual_family_step(family) if scene.dual else None
    # per-theta artifacts: representative-function grids and member meshes
    member_cols: dict[str, np.ndarray] = {}
    meshes = {}

    def keep(member):
        k = len(meshes)
        member_cols[f"tau_theta_{k}"] = member.values.data[..., 0]
        fh4 = member.result.f_hat.value[:, :4].reshape(grid.shape + (4,))
        drop = member.mask | member.result.metric.singular
        meshes[f"fhat_theta_{k}.obj"] = (np.where(np.isnan(fh4), 2.0, fh4), drop)

    report = D.family_report(
        family,
        scene.thetas,
        dual=dual,
        closedness_rel_tol=scene.tolerances.member_closedness,
        each=keep,
    )
    ps = D.parallel_sections(family)
    report["parallel_residual"] = ps["residual"]

    out.mkdir(parents=True, exist_ok=True)
    for name, (fh4, drop) in meshes.items():
        G.export_obj(out / name, fh4, grid, drop=drop)
    G.write_fields_csv(out / "family_fields.csv", grid, member_cols)
    report["theta_meshes"] = dict(zip(meshes, map(float, scene.thetas)))

    ok = True
    checks = [
        (
            "bianchi commutator",
            family.bianchi.commutator_max < scene.tolerances.bianchi,
            f"norm = {family.bianchi.commutator_max:.3e}",
        ),
        ("family endpoints", report["endpoints_ok"], "bit-identical generators"),
        (
            "parallel sections",
            ps["residual"] < scene.tolerances.parallel,
            f"residual = {ps['residual']:.3e}",
        ),
    ]
    for rec in report["members"]:
        checks.append(
            (
                f"member theta={rec['theta']:.4f}",
                rec["ribaucour"],
                f"max |dalpha| = {rec['max_dalpha']:.3e}, "
                f"masked = {rec['masked_fraction']:.1%}",
            )
        )
    if dual is not None:
        checks.append(
            (
                "dual consistency",
                dual.consistency < scene.tolerances.dual_consistency,
                f"row/col difference = {dual.consistency:.3e}",
            )
        )
        checks.append(
            (
                "dual closedness",
                dual.gamma_identity_residual < scene.tolerances.gamma_identity,
                f"residual = {dual.gamma_identity_residual:.3e}",
            )
        )
    ok = _print_gates(checks, json_mode)
    _emit(report, out, "family.json", json_mode)
    return 0 if ok else 1


def cmd_oracle(seed: int, combos: int, out: Path, json_mode: bool) -> int:
    """Jet-vs-finite-difference convergence sweep on random expressions/charts."""
    rng = np.random.default_rng(seed)
    records = []
    ok = True
    for k in range(combos):
        expr_src = _random_expression(rng)
        expr = E.parse_tau(expr_src)
        r = float(rng.uniform(0.35, 0.9))
        chart = CH.CliffordTorus(r)
        pt = rng.uniform(0.3, 5.9, size=2)
        comp = int(rng.integers(0, 4))

        exact_tau = E.eval_at(expr, pt)
        orders_tau = G.convergence_orders(
            lambda p: _eval_value(expr, p), exact_tau, pt
        )
        frame = CH.eval_chart(chart, pt[None, :])
        exact_comp = frame.f.take(comp).batch(0)
        orders_chart = G.convergence_orders(
            lambda p: CH.eval_chart(chart, p[None, :]).f.value[0, comp],
            exact_comp,
            pt,
        )
        rec = {
            "expr": expr_src,
            "chart_r": r,
            "point": [float(x) for x in pt],
            "orders_expr": orders_tau,
            "orders_chart": orders_chart,
        }
        mean_expr = float(np.mean(orders_tau))
        mean_chart = float(np.mean(orders_chart))
        rec["pass"] = bool(
            1.7 <= mean_expr <= 2.3 and 1.7 <= mean_chart <= 2.3
        )
        ok &= rec["pass"]
        records.append(rec)
        if not json_mode:
            print(
                f"{'PASS' if rec['pass'] else 'FAIL'}  combo {k:2d}: "
                f"expr order {mean_expr:.2f}, chart order {mean_chart:.2f}  ({expr_src})"
            )
    report = {"seed": seed, "combos": records, "pass": bool(ok)}
    _emit(report, out, "oracle.json", json_mode)
    return 0 if ok else 1


def _eval_value(expr: E.TauExpr, p: np.ndarray) -> float:
    return float(E.eval_at(expr, p).value)


def _random_expression(rng) -> str:
    """Random smooth expression with non-vanishing higher derivatives."""
    a, b, c, d = (float(x) for x in rng.uniform(0.2, 1.5, size=4))
    w1, w2 = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
    forms = [
        f"{a:.3f}*sin({w1:.3f}*u)*cos({w2:.3f}*v)",
        f"{a:.3f}*exp({b / 4:.3f}*sin(u)) + {c:.3f}*cos({w2:.3f}*v)",
        f"{a:.3f}*sin({w1:.3f}*u + {w2:.3f}*v) + {d:.3f}",
        f"{a:.3f}*cos({w1:.3f}*u)/(2 + sin({w2:.3f}*v))",
    ]
    return forms[int(rng.integers(0, len(forms)))]


def cmd_export(scene: Scene, out: Path, json_mode: bool, pole_flip: bool) -> int:
    grid = _grid(scene)
    frame = CH.eval_chart(scene.chart, grid.points().reshape(-1, 2))
    out.mkdir(parents=True, exist_ok=True)
    f4 = frame.f.value[:, :4].reshape(grid.shape + (4,))
    mesh = G.export_obj(out / "f.obj", f4, grid, pole_flip=pole_flip)
    tau = E.eval_at(scene.tau, frame.points)
    cols = {"tau": tau.value}
    try:
        res = RB.transform(frame, tau, on_singular="raise")
        fh4 = res.f_hat.value[:, :4].reshape(grid.shape + (4,))
        G.export_obj(out / "f_hat.obj", fh4, grid, pole_flip=pole_flip)
        cols["a"] = res.a.value
        cols["b"] = res.b.value
    except NotRegular:
        if not json_mode:
            print("transform is singular on this grid; exported f only")
    G.write_fields_csv(out / "fields.csv", grid, cols)
    report = {
        "meshes": {"f": {"vertices": len(mesh.vertices), "faces": len(mesh.faces)}},
        "clipped": mesh.clipped,
    }
    _emit(report, out, "export.json", json_mode)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liesphere",
        description="Ribaucour transforms of Legendre surfaces: verification engine",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scene_required=True):
        p.add_argument("--scene", required=scene_required, help="scene JSON file")
        p.add_argument("--grid", help="override grid, e.g. 64x64")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--json", action="store_true", help="print the JSON report")

    p = sub.add_parser("check", help="frame certification, regularity, closedness")
    common(p)
    p = sub.add_parser("transform", help="check plus meshes and field dumps")
    common(p)
    p.add_argument("--pole-flip", action="store_true", help="project from (0,0,0,-1)")
    p = sub.add_parser("demoulin", help="permutability family from tau and tau1")
    common(p)
    p.add_argument("--theta", help="comma-separated member angles")
    p.add_argument("--dual", action="store_true", help="also run the dual-family step")
    p = sub.add_parser("oracle", help="jet vs finite-difference convergence suite")
    common(p, scene_required=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--combos", type=int, default=20)
    p = sub.add_parser("export", help="meshes and field dump without gates")
    common(p)
    p.add_argument("--pole-flip", action="store_true", help="project from (0,0,0,-1)")
    return ap


def _parse_grid_flag(text: str) -> tuple[int, int]:
    try:
        nu, nv = text.lower().split("x")
        return (int(nu), int(nv))
    except ValueError as exc:
        raise SceneError(f"bad --grid value {text!r}, expected NxM") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "oracle":
            return cmd_oracle(args.seed, args.combos, out, args.json)
        scene = load_scene(args.scene)
        if args.grid:
            scene.grid = _parse_grid_flag(args.grid)
        if args.command == "demoulin":
            if args.theta:
                scene.thetas = tuple(float(t) for t in args.theta.split(","))
            if args.dual:
                scene.dual = True
            return cmd_demoulin(scene, out, args.json)
        if args.command == "check":
            return cmd_check(scene, out, args.json)
        if args.command == "transform":
            return cmd_transform(scene, out, args.json, args.pole_flip)
        if args.command == "export":
            return cmd_export(scene, out, args.json, args.pole_flip)
        raise SceneError(f"unknown command {args.command!r}")
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    except LieSphereError as exc:
        print(f"verification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

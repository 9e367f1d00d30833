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
import contextlib
import itertools
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
    DomainErrorJet,
    LieSphereError,
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
    def from_json(obj) -> "Tolerances":
        """Defaults overridden by a scene's ``tolerances`` object.

        Each value must be a finite JSON number > 0.
        """
        if not isinstance(obj, dict):
            raise SceneError(f"'tolerances' must be an object, got {obj!r}")
        tol = Tolerances()
        for key, val in obj.items():
            if not hasattr(tol, key):
                raise SceneError(f"unknown tolerance key {key!r}")
            what = f"tolerances.{key}"
            if isinstance(val, (bool, str)) or CH.number_from_json(val, what) <= 0:
                raise SceneError(f"{what!r} must be a finite number > 0, got {val!r}")
            setattr(tol, key, float(val))
        return tol


@dataclass
class Scene:
    chart: CH.ChartSpec
    tau: E.TauExpr
    tau_src: str
    tau1: E.TauExpr | None = None
    grid: tuple[int, int] = DEFAULT_GRID
    thetas: tuple[float, ...] = DEFAULT_THETAS
    tolerances: Tolerances = field(default_factory=Tolerances)
    dual: bool = False


def load_scene(path: str | Path) -> Scene:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SceneError(f"--scene file {path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SceneError(f"--scene file {path} nests too deeply to parse") from exc
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
    grid = _checked_grid(obj.get("grid", DEFAULT_GRID), "grid")
    thetas = obj.get("thetas", DEFAULT_THETAS)
    if not isinstance(thetas, (list, tuple)):
        raise SceneError(f"'thetas' must be a list of numbers, got {thetas!r}")
    thetas = tuple(CH.number_from_json(t, "thetas") for t in thetas)
    if not isinstance(obj.get("dual", False), bool):
        raise SceneError(f"'dual' must be true or false, got {obj['dual']!r}")
    return Scene(
        chart=chart,
        tau=tau,
        tau_src=obj["tau"],
        tau1=tau1,
        grid=grid,  # type: ignore[arg-type]
        thetas=thetas,
        tolerances=Tolerances.from_json(obj.get("tolerances", {})),
        dual=obj.get("dual", False),
    )


def _checked_grid(grid, key: str) -> tuple[int, int]:
    if not isinstance(grid, (list, tuple)) or not all(isinstance(n, int) for n in grid):
        raise SceneError(f"{key!r} must be a list of two integers, got {grid!r}")
    if len(grid) != 2 or grid[0] < 4 or grid[1] < 4:
        raise SceneError(f"{key!r} must be at least 4x4, got {tuple(grid)}")
    return tuple(grid)


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
    G.write_json(out / name, report)
    if json_mode:
        sys.stdout.write(G.canonical_json(report))


def _run_grid(scene: Scene, columns=None) -> tuple[dict, RB.BlockValues]:
    tol = scene.tolerances
    report, run = RB.run_grid(
        scene.chart, scene.tau, _grid(scene), closedness_rel_tol=tol.closedness,
        det_rel_tol=tol.det_rel, involution_tol=tol.involution, contact_tol=tol.contact,
        columns=columns,
    )
    report["tau_src"] = scene.tau_src
    return report, run


def cmd_check(scene: Scene, out: Path, json_mode: bool) -> int:
    report, run = _run_grid(scene)
    cert = report["frame_cert"] = run.cert
    gates = [
        (
            "frame certification",
            True,
            f"max contact residual = {max(cert['contact_df'], cert['contact_dxi']):.3e}",
        )
    ] + _gates(report, scene.tolerances)
    ok = _print_gates(gates, json_mode)
    _emit(report, out, "report.json", json_mode)
    return 0 if ok else 1


def cmd_transform(scene: Scene, out: Path, json_mode: bool, pole_flip: bool) -> int:
    report, run = _run_grid(scene, RB.field_columns)
    gates = _gates(report, scene.tolerances)
    ok = _print_gates(gates, json_mode)

    grid = _grid(scene)
    cols = run.values  # f, f_hat and the singular mask, then the fields.csv columns in order
    f, f_hat, singular = (cols.pop(k) for k in ("f", "f_hat", "singular"))
    report["meshes"] = _write_meshes(out, grid, f, f_hat, singular, pole_flip)
    G.write_fields_csv(out / "fields.csv", grid, cols)
    _emit(report, out, "report.json", json_mode)
    if not json_mode:
        print(f"wrote f.obj, f_hat.obj, fields.csv, report.json to {out}")
    return 0 if ok else 1


def _export_obj(path: Path, points4, grid, **kwargs) -> G.MeshExport:
    """:func:`gridio.export_obj`, with a stderr line naming the file when its mesh
    clips vertices at the stereographic pole."""
    mesh = G.export_obj(path, points4, grid, **kwargs)
    if mesh.clipped:
        print(f"{path}: {mesh.clipped} vertices clipped at the stereographic pole", file=sys.stderr)
    return mesh


def _write_meshes(out: Path, grid, f, f_hat, singular, pole_flip: bool) -> dict:
    """Write f.obj and f_hat.obj and return the report's ``meshes``; f_hat is NaN
    at the ``singular`` points, so those vertices are left out."""
    shape = grid.shape + (4,)
    mesh_f = _export_obj(out / "f.obj", f[:, :4].reshape(shape), grid, pole_flip=pole_flip)
    mesh_fh = _export_obj(
        out / "f_hat.obj", f_hat[:, :4].reshape(shape), grid, pole_flip=pole_flip, drop=singular
    )
    meshes = {
        "f": {"vertices": len(mesh_f.vertices), "faces": len(mesh_f.faces)},
        "f_hat": {"vertices": len(mesh_fh.vertices), "faces": len(mesh_fh.faces)},
        "clipped": mesh_f.clipped + mesh_fh.clipped,
    }
    if mesh_fh.dropped:
        meshes["dropped"] = mesh_fh.dropped
    return meshes


def cmd_demoulin(scene: Scene, out: Path, json_mode: bool) -> int:
    if scene.tau1 is None:
        raise SceneError("demoulin needs 'tau1' in the scene")
    if not scene.thetas:
        raise SceneError("demoulin needs at least one angle in 'thetas'")
    grid = _grid(scene)
    tol = scene.tolerances
    family = D.build_family(
        scene.chart, scene.tau, scene.tau1, grid, closedness_rel_tol=tol.closedness,
        contact_tol=tol.contact, det_rel_tol=tol.det_rel,
    )
    norm = family.bianchi.commutator_max
    if norm > tol.bianchi:
        raise BianchiViolation(
            f"commutator norm {norm:.3e} exceeds {tol.bianchi:.1e}; no permutability family",
            norm=norm,
        )
    dual = D.dual_family_step(family) if scene.dual else None
    # per-theta artifacts: representative-function grids and member meshes; each
    # mesh is written as its member is reported, in theta order
    member_cols: dict[str, np.ndarray] = {}
    clipped = []  # per member mesh

    def write(tau, f_hat):  # tau is NaN where the member is masked
        k = len(member_cols)
        member_cols[f"tau_theta_{k}"] = tau
        fh4 = f_hat.reshape(grid.shape + (4,))
        mesh = _export_obj(out / f"fhat_theta_{k}.obj", fh4, grid, drop=np.isnan(tau))
        clipped.append(mesh.clipped)

    report = D.family_report(
        family, scene.thetas, dual=dual, closedness_rel_tol=tol.member_closedness, each=write
    )
    parallel = report["parallel_residual"]
    G.write_fields_csv(out / "family_fields.csv", grid, member_cols)
    report["theta_meshes"] = {f"fhat_theta_{k}.obj": float(t) for k, t in enumerate(scene.thetas)}
    report["clipped"] = sum(clipped)

    checks = [
        ("bianchi commutator", norm < tol.bianchi, f"norm = {norm:.3e}"),
        ("family endpoints", report["endpoints_ok"], "bit-identical generators"),
        ("parallel sections", parallel < tol.parallel, f"residual = {parallel:.3e}"),
    ]
    for rec in report["members"]:
        detail = f"max |dalpha| = {rec['max_dalpha']:.3e}, masked = {rec['masked_fraction']:.1%}"
        checks.append((f"member theta={rec['theta']:.4f}", rec["ribaucour"], detail))
    if dual is not None:
        consistency, gamma = dual.consistency, dual.gamma_identity_residual
        checks += [
            ("dual consistency", consistency < tol.dual_consistency,
             f"row/col difference = {consistency:.3e}"),
            ("dual closedness", gamma < tol.gamma_identity, f"residual = {gamma:.3e}"),
        ]
    ok = _print_gates(checks, json_mode)
    _emit(report, out, "family.json", json_mode)
    return 0 if ok else 1


def cmd_oracle(seed: int, combos: int, out: Path, json_mode: bool) -> int:
    """Jet-vs-finite-difference convergence sweep on random expressions/charts."""
    if combos < 1:
        raise SceneError(f"--combos must be at least 1, got {combos}")
    if seed < 0:
        raise SceneError(f"--seed must be at least 0, got {seed}")
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
    tol = scene.tolerances

    def body(frame, taus, key):
        res = RB.transform(frame, taus[0], det_rel_tol=tol.det_rel)
        cols = {"tau": res.tau.value, "a": res.a.value, "b": res.b.value}
        cols |= {"singular": res.metric.singular, "f": frame.f.value[:, :4]}
        cols["f_hat"] = res.f_hat.value[:, :4]
        return cols, {"not_finite": RB.first_flagged(res.not_finite, key)}

    run = RB.eval_blocks(
        scene.chart, grid, [(scene.tau, 2)], body,
        checks=[("not_finite", DomainErrorJet, "transform is not finite")], contact_tol=tol.contact,
    )
    cols = run.values  # tau, a and b, then what the meshes read
    f, f_hat, singular = (cols.pop(k) for k in ("f", "f_hat", "singular"))
    meshes = _write_meshes(out, grid, f, f_hat, singular, pole_flip)
    if meshes.get("dropped") and not json_mode:
        print(f"exported f_hat without its {meshes['dropped']} degenerate points")
    G.write_fields_csv(out / "fields.csv", grid, cols)
    _emit({"meshes": meshes}, out, "export.json", json_mode)
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
        grid = [int(nu), int(nv)]
    except ValueError as exc:
        raise SceneError(f"bad --grid value {text!r}, expected NxM") from exc
    return _checked_grid(grid, "--grid")


def _make_out(out: Path, flag: str, made: list[Path]) -> None:
    """Make the directory ``--out`` names, before any walk, one level at a time so
    that no depth of path recurses; ``made`` gets each directory made, deepest first."""
    chain = (out, *out.parents)
    try:
        missing = list(itertools.takewhile(lambda p: not p.exists(), chain))
        if not flag or not chain[len(missing)].is_dir():  # Path("") is the working directory
            raise SceneError(f"--out {flag!r} is not a directory and cannot become one")
        for path in reversed(missing):
            path.mkdir()
            made.insert(0, path)
    except OSError as exc:
        raise SceneError(f"--out {flag!r} cannot become a directory: {exc.strerror}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out, made = Path(args.out), []
    try:
        _make_out(out, args.out, made)
        if args.command == "oracle":
            return cmd_oracle(args.seed, args.combos, out, args.json)
        scene = load_scene(args.scene)
        if args.grid:
            scene.grid = _parse_grid_flag(args.grid)
        if args.command == "demoulin":
            if args.theta is not None:
                thetas = args.theta.split(",")
                scene.thetas = tuple(CH.number_from_json(t, "--theta") for t in thetas)
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
    except LieSphereError as exc:
        for path in made:  # a run that fails leaves no directory it made empty
            with contextlib.suppress(OSError):
                path.rmdir()
        if isinstance(exc, SceneError):
            print(f"scene error: {exc}", file=sys.stderr)
            return 2
        print(f"verification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

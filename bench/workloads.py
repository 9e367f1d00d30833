"""The three workloads: seeded scene generators and output checks.

Seed 0 reproduces the shipped scenes' parameters; any other seed draws the
torus radius and the ``tau``/``tau1`` coefficients uniformly from the ranges
below, inside which every gate passes (checked at full size on every corner
of the ranges, on seeds 0-19 and on the held-out seed).
``HELD_OUT_SEED`` is kept out of tuning so that a later speed claim can be
re-checked on inputs it was not tuned on.

Every check returns a list of problems; an empty list means the run is
correct.  The tolerances are the CLI's defaults when this benchmark was
written, kept here so that a change to the engine's defaults cannot loosen
the benchmark's own gate.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HELD_OUT_SEED = 7919

TOL = {
    "closedness": 1e-7,
    "eq6": 1e-9,
    "eq9": 1e-9,
    "eq10": 1e-9,
    "eq13": 1e-8,
    "involution": 1e-8,
    "curvature_identity": 1e-8,
    "builtin_contact": 1e-12,
    "bianchi": 1e-8,
    "member_closedness": 1e-7,
    "parallel": 1e-7,
    "dual_consistency": 1e-5,
    "gamma_identity": 1e-5,
}

# Pointwise values read back from CSV files are compared to an independent
# evaluation with this absolute tolerance (the files carry 17 digits).
VALUE_TOL = 1e-12

CHECK_GATES = (
    "regularity sweep",
    "closedness (Ribaucour)",
    "frame identities",
    "differential identity",
    "reverse decomposition",
    "form sum rule",
    "involution",
    "curvature identity",
)

DEFAULT_THETAS = tuple(k * math.pi / 8.0 for k in range(8))


@dataclass(frozen=True)
class Workload:
    name: str
    points: int  # grid points processed by one run
    scene: Callable[[int], tuple[dict, dict]]  # seed -> (scene JSON, parameters)
    argv: Callable[[str, str], list]  # (scene path, output dir) -> CLI arguments
    check: Callable[[dict, Path, str], list]  # (parameters, output dir, stdout) -> problems


def _draw(seed: int, shipped: dict, ranges: dict) -> dict:
    """Shipped parameters for seed 0, otherwise uniform draws rounded to 4 digits."""
    if seed == 0:
        return dict(shipped)
    rng = random.Random(seed)
    return {key: round(rng.uniform(lo, hi), 4) for key, (lo, hi) in ranges.items()}


# ---------- scenes ----------


def check_large_scene(seed: int) -> tuple[dict, dict]:
    p = _draw(seed, {"r": math.sqrt(0.5), "A": 0.3}, {"r": (0.6, 0.8), "A": (0.2, 0.4)})
    scene = {
        "chart": {"kind": "clifford_torus", "r": p["r"]},
        "tau": f"{p['A']!r}*sin(u)",
        "grid": [256, 256],
    }
    return scene, p


def transform_export_scene(seed: int) -> tuple[dict, dict]:
    p = _draw(seed, {"r": 0.6, "B": 0.1}, {"r": (0.55, 0.8), "B": (0.05, 0.2)})
    r = repr(p["r"])
    s = repr(math.sqrt(1.0 - p["r"] ** 2))
    two_pi = 2.0 * math.pi
    scene = {
        "chart": {
            "kind": "custom",
            "f": [f"{r}*cos(u)", f"{r}*sin(u)", f"{s}*cos(v)", f"{s}*sin(v)"],
            "xi": [f"-{s}*cos(u)", f"-{s}*sin(u)", f"{r}*cos(v)", f"{r}*sin(v)"],
            "domain": {"u": [0, two_pi], "v": [0, two_pi], "periodic": [True, True]},
        },
        "tau": f"{p['B']!r}*cos(v)",
        "grid": [128, 128],
    }
    return scene, p


def family_dual_scene(seed: int) -> tuple[dict, dict]:
    p = _draw(
        seed,
        {"r": math.sqrt(0.5), "A": 0.3, "c": 2.0, "d": 0.2},
        {"r": (0.65, 0.75), "A": (0.2, 0.4), "c": (1.8, 2.2), "d": (0.1, 0.3)},
    )
    scene = {
        "chart": {"kind": "clifford_torus", "r": p["r"]},
        "tau": f"{p['A']!r}*sin(u)",
        "tau1": f"{p['c']!r} + {p['d']!r}*cos(v)",
        "grid": [48, 48],
        "dual": True,
    }
    return scene, p


# ---------- checks ----------


def _gate_lines(stdout: str) -> dict:
    """Gate name -> verdict, from the CLI's 'PASS  name  detail' lines."""
    gates = {}
    for line in stdout.splitlines():
        if line.startswith(("PASS  ", "FAIL  ")):
            gates[line[6:30].strip()] = line[:4]
    return gates


def _check_gates(stdout: str, expected) -> list:
    gates = _gate_lines(stdout)
    problems = [f"gate {name!r} missing" for name in expected if name not in gates]
    problems += [f"gate {name!r} is {v}" for name, v in gates.items() if v != "PASS"]
    return problems


def _below(problems: list, label: str, value, tol: float) -> None:
    if not isinstance(value, (int, float)) or not value < tol:
        problems.append(f"{label} = {value!r}, tolerance {tol:g}")


def _check_report(report: dict, grid: int, tau_src: str) -> list:
    problems = []
    if report.get("grid") != [grid, grid]:
        problems.append(f"grid {report.get('grid')} != {[grid, grid]}")
    if report.get("tau_src") != tau_src:
        problems.append(f"tau_src {report.get('tau_src')!r} != {tau_src!r}")
    if report.get("regular") is not True or not report.get("min_det", 0) > 0:
        problems.append("scene is not regular")
    if report.get("ribaucour") is not True:
        problems.append("closedness verdict is not Ribaucour")
    _below(
        problems, "max_dalpha", report.get("max_dalpha"),
        TOL["closedness"] * (1.0 + report.get("max_alpha", math.inf)),
    )
    res = report.get("residuals", {})
    for key in ("eq6", "eq9", "eq10", "eq13", "involution", "curvature_identity"):
        _below(problems, key, res.get(key), TOL[key])
    return problems


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[k]) for row in body] for k, name in enumerate(header)}


def _obj_counts(path: Path) -> tuple[int, int]:
    nv = nf = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                nv += 1
            elif line.startswith("f "):
                nf += 1
    return nv, nf


def _compare(problems: list, label: str, got, want) -> None:
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if not abs(g - w) <= VALUE_TOL]
    if len(got) != len(want) or bad:
        problems.append(
            f"{label} differs from its independent evaluation at {len(bad)} of {len(want)} points"
        )


def check_check(p: dict, out: Path, stdout: str) -> list:
    problems = _check_gates(stdout, ("frame certification",) + CHECK_GATES)
    report = _read_json(out / "report.json")
    problems += _check_report(report, 256, f"{p['A']!r}*sin(u)")
    cert = report.get("frame_cert", {})
    for key in ("contact_df", "contact_dxi"):
        _below(problems, f"frame_cert.{key}", cert.get(key), TOL["builtin_contact"])
    return problems


def check_transform(p: dict, out: Path, stdout: str) -> list:
    n = 128
    problems = _check_gates(stdout, CHECK_GATES)
    report = _read_json(out / "report.json")
    problems += _check_report(report, n, f"{p['B']!r}*cos(v)")
    meshes = report.get("meshes", {})
    for name in ("f", "f_hat"):
        counts = _obj_counts(out / f"{name}.obj")
        rec = meshes.get(name, {})
        if counts != (n * n, n * n) or counts != (rec.get("vertices"), rec.get("faces")):
            problems.append(f"{name}.obj has {counts} vertices/faces, report {rec}")
    cols = _read_csv(out / "fields.csv")
    if len(cols.get("u", ())) != n * n:
        problems.append(f"fields.csv has {len(cols.get('u', ()))} rows, expected {n * n}")
        return problems
    tau, mu2, a = cols["tau"], cols["mu2"], cols["a"]
    _compare(problems, "tau", tau, [p["B"] * math.cos(v) for v in cols["v"]])
    _compare(problems, "a", a, [1.0 - 2.0 / (t * t + m + 1.0) for t, m in zip(tau, mu2)])
    _compare(problems, "b", cols["b"], [t * (x - 1.0) for t, x in zip(tau, a)])
    for key in ("eq6", "eq9", "eq13"):
        _below(problems, f"max res_{key}", max(cols[f"res_{key}"]), TOL[key])
    return problems


def check_family(p: dict, out: Path, stdout: str) -> list:
    n = 48
    members = [f"member theta={t:.4f}" for t in DEFAULT_THETAS]
    problems = _check_gates(
        stdout,
        ["bianchi commutator", "family endpoints", "parallel sections"]
        + members
        + ["dual consistency", "dual closedness"],
    )
    rep = _read_json(out / "family.json")
    _below(problems, "bianchi_norm", rep.get("bianchi_norm"), TOL["bianchi"])
    _below(problems, "parallel_residual", rep.get("parallel_residual"), TOL["parallel"])
    if rep.get("endpoints_ok") is not True:
        problems.append("family endpoints are not the generators")
    recs = rep.get("members", [])
    if [r.get("theta") for r in recs] != list(DEFAULT_THETAS):
        problems.append(f"member thetas {[r.get('theta') for r in recs]}")
    for rec in recs:
        tol = TOL["member_closedness"] * (1.0 + rec.get("max_alpha", math.inf))
        _below(problems, f"member {rec.get('theta')} max_dalpha", rec.get("max_dalpha"), tol)
        _below(problems, f"member {rec.get('theta')} masked_fraction", rec.get("masked_fraction"), 0.5)
    dual = rep.get("dual", {})
    _below(problems, "dual consistency", dual.get("consistency"), TOL["dual_consistency"])
    _below(problems, "gamma identity", dual.get("gamma_identity_residual"), TOL["gamma_identity"])
    for k in range(len(DEFAULT_THETAS)):
        if not (out / f"fhat_theta_{k}.obj").is_file():
            problems.append(f"fhat_theta_{k}.obj missing")
    cols = _read_csv(out / "family_fields.csv")
    if len(cols.get("u", ())) != n * n:
        problems.append(f"family_fields.csv has {len(cols.get('u', ()))} rows, expected {n * n}")
        return problems
    # theta = 0 and theta = pi/2 are the generators themselves.
    _compare(problems, "tau_theta_0", cols["tau_theta_0"], [p["A"] * math.sin(u) for u in cols["u"]])
    _compare(
        problems, "tau_theta_4", cols["tau_theta_4"],
        [p["c"] + p["d"] * math.cos(v) for v in cols["v"]],
    )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check_large",
            256 * 256,
            check_large_scene,
            lambda scene, out: ["check", "--scene", scene, "--out", out],
            check_check,
        ),
        Workload(
            "transform_export",
            128 * 128,
            transform_export_scene,
            lambda scene, out: ["transform", "--scene", scene, "--out", out],
            check_transform,
        ),
        Workload(
            "family_dual",
            48 * 48 + 64 * 64,  # family grid plus the default dual patch
            family_dual_scene,
            lambda scene, out: ["demoulin", "--scene", scene, "--dual", "--out", out],
            check_family,
        ),
    )
}

"""Acceptance suite.

One test per criterion, asserted at the stated tolerance, with one printed
PASS/FAIL line each (run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines).  Criteria with runtime gates measure their own wall time;
the final test gates the whole module's elapsed time.
"""

import time

import numpy as np

from liesphere import charts as CH
from liesphere import demoulin as D
from liesphere import exprs as E
from liesphere import gridio as G
from liesphere import ribaucour as RB

SQUARE_R = 1.0 / np.sqrt(2.0)
TAU_LIST = ("0", "2", "0.3*sin(u)", "0.1*cos(v)", "0.2*sin(u)+0.1*cos(v)")

_T0 = time.perf_counter()
_cache: dict = {}


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _grid_points(n: int) -> np.ndarray:
    grid = G.Grid(n, n, CH.Domain())
    return grid.points()


def test_criterion_01_frame_certification():
    t0 = time.perf_counter()
    _cache["suite_start"] = t0
    worst = 0.0
    pts = _grid_points(64).reshape(-1, 2)
    for r in (0.5, SQUARE_R, 0.8):
        frame = CH.eval_chart(CH.CliffordTorus(r), pts)
        worst = max(worst, frame.cert["contact_df"], frame.cert["contact_dxi"],
                    frame.cert["unit_f"], frame.cert["unit_xi"],
                    frame.cert["orthogonality"])
        if r == SQUARE_R:
            _cache["frame64"] = frame
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"contact residual {worst:.2e} < 1e-12, {elapsed:.2f}s < 1s")


def test_criterion_02_parametrization_identities():
    frame = _cache["frame64"]
    t0 = time.perf_counter()
    worst = 0.0
    for src in TAU_LIST:
        tau = E.eval_at(E.parse_tau(src), frame.points)
        res = RB.transform(frame, tau)
        suite = RB.residual_suite(RB.pointwise_residuals(res, RB.alpha_hat(res)))
        _cache[src] = (res, suite)
        worst = max(worst, suite["eq6_unit_fhat"], suite["eq6_unit_xihat"],
                    suite["eq6_orth"], suite["eq6_fourth"])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(2, ok, f"unit/orthogonality/differential residual {worst:.2e} < 1e-9, "
                   f"{elapsed:.2f}s < 5s")


def test_criterion_03_involution():
    worst_inv = 0.0
    worst_eq10 = 0.0
    for src in TAU_LIST:
        res, _ = _cache[src]
        _, diag = RB.reconstruct(res, tol=1e-8)
        worst_inv = max(worst_inv, diag["involution"])
        worst_eq10 = max(worst_eq10, diag["eq10"], diag["mu_match"])
    ok = worst_inv < 1e-8 and worst_eq10 < 1e-9
    _report(3, ok, f"involution {worst_inv:.2e} < 1e-8, reverse-decomposition "
                   f"{worst_eq10:.2e} < 1e-9")


def test_criterion_04_dual_route_normal_component():
    worst = 0.0
    pts = _grid_points(64).reshape(-1, 2)
    for r in (SQUARE_R, 0.6):
        frame = _cache["frame64"] if r == SQUARE_R else CH.eval_chart(
            CH.CliffordTorus(r), pts
        )
        for src in TAU_LIST:
            if src in ("0", "2"):
                continue  # constants: both routes vanish identically
            tau = E.eval_at(E.parse_tau(src), frame.points)
            res = RB.transform(frame, tau)
            alt = RB.shape_operator_path(frame, tau)
            worst = max(worst, float(np.max(np.abs(alt.value - res.f_check.value))))
    ok = worst < 1e-10
    _report(4, ok, f"shape-operator route agreement {worst:.2e} < 1e-10")


def test_criterion_05_classification():
    closed_max = 0.0
    open_min = np.inf
    stable = True
    for n in (32, 64, 128):
        pts = _grid_points(n)
        run = RB.run_grid(CH.CliffordTorus(SQUARE_R), E.parse_tau("0.3*sin(u)"), pts)
        closed_max = max(closed_max, run.max_dalpha)
        stable &= run.ribaucour
        run2 = RB.run_grid(CH.CliffordTorus(SQUARE_R), E.parse_tau("sin(u)*sin(v)"), pts)
        open_min = min(open_min, run2.max_dalpha)
        stable &= not run2.ribaucour
    ok = closed_max < 1e-10 and open_min > 1e-2 and stable
    _report(5, ok, f"closed max|dalpha| {closed_max:.2e} < 1e-10, witness "
                   f"{open_min:.2e} > 1e-2, stable across 32/64/128")


def test_criterion_06_identity_suite():
    worst13 = worst9 = worstcv = 0.0
    for src in TAU_LIST:
        res, suite = _cache[src]
        worst13 = max(worst13, suite["eq13"])
        worst9 = max(worst9, suite["eq9"])
        worstcv = max(worstcv, RB.curvature_identity(res, RB.alpha_hat(res))["abs"])
    ok = worst13 < 1e-8 and worst9 < 1e-9 and worstcv < 1e-8
    _report(6, ok, f"sum rule {worst13:.2e} < 1e-8, differential identity "
                   f"{worst9:.2e} < 1e-9, curvature identity {worstcv:.2e} < 1e-8")


def test_criterion_07_potential():
    grid = G.Grid(128, 128, CH.Domain())
    frame = CH.eval_chart(CH.CliffordTorus(SQUARE_R), grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), frame.points)
    res = RB.transform(frame, tau)
    comps = G.GridField(grid, res.alpha.value.reshape(grid.shape + (2,)))
    g = res.alpha.grad
    partials = G.GridField(
        grid,
        np.stack([g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]], axis=-1)
        .reshape(grid.shape + (4,)),
    )
    pot = D.integrate_potential(comps, partials)
    pts = grid.points()
    expected = np.log(1.0 + 0.3 * np.sin(pts[..., 0]))
    expected -= expected[0, 0]
    err = float(np.max(np.abs(pot.data - expected)))
    residuals = [pot.loop_residual] + list(pot.period_residuals.values())
    ok = err < 1e-6 and max(residuals) < 1e-8
    _report(7, ok, f"potential error {err:.2e} < 1e-6, loop/period "
                   f"{max(residuals):.2e} < 1e-8")


def test_criterion_08_bianchi_and_family():
    t0 = time.perf_counter()
    grid = G.Grid(64, 64, CH.Domain())
    family = D.build_family(
        CH.CliffordTorus(SQUARE_R), E.parse_tau("0.3*sin(u)"), E.parse_tau("2"), grid
    )
    _cache["family"] = family
    comm = family.bianchi.commutator_max
    worst_member = 0.0
    endpoints = True
    for k in range(8):
        member = D.demoulin_tau(family, k * np.pi / 8.0)
        rec = D.member_closedness(member)
        worst_member = max(worst_member, rec["max_dalpha"])
        if k == 0:
            endpoints &= np.array_equal(
                member.values.data[..., 0].reshape(-1), family.tau0.value
            )
        if k == 4:
            endpoints &= np.array_equal(
                member.values.data[..., 0].reshape(-1), family.tau1.value
            )
    parallel = D.parallel_sections(family)["residual"]
    elapsed = time.perf_counter() - t0
    ok = (
        comm < 1e-8
        and worst_member < 1e-7
        and endpoints
        and parallel < 1e-7
        and elapsed < 30.0
    )
    _report(8, ok, f"commutator {comm:.2e} < 1e-8, member closedness "
                   f"{worst_member:.2e} < 1e-7, endpoints exact, parallel "
                   f"{parallel:.2e} < 1e-7, {elapsed:.1f}s < 30s")


def test_criterion_09_dual_family():
    family = _cache["family"]
    dual = D.dual_family_step(family)  # 64x64 non-periodic patch
    ok = dual.consistency < 1e-5 and dual.gamma_identity_residual < 1e-5
    _cache["dual"] = dual
    _report(9, ok, f"row/column agreement {dual.consistency:.2e} < 1e-5, "
                   f"closedness of the scaled form {dual.gamma_identity_residual:.2e} < 1e-5")


def test_criterion_10_oracle_convergence():
    rng = np.random.default_rng(0)
    all_orders = []
    for _ in range(20):
        a, w1, w2 = rng.uniform(0.3, 1.4, size=3)
        src = f"{a:.3f}*sin({w1:.3f}*u)*cos({w2:.3f}*v) + exp(0.2*sin(u))"
        expr = E.parse_tau(src)
        chart = CH.CliffordTorus(float(rng.uniform(0.35, 0.9)))
        pt = rng.uniform(0.3, 5.9, size=2)
        comp = int(rng.integers(0, 4))
        exact = E.eval_at(expr, pt)
        all_orders += G.convergence_orders(
            lambda p: float(E.eval_at(expr, p).value), exact, pt
        )
        frame = CH.eval_chart(chart, pt[None, :])
        all_orders += G.convergence_orders(
            lambda p: CH.eval_chart(chart, p[None, :]).f.value[0, comp],
            frame.f.take(comp).batch(0),
            pt,
        )
    lo, hi = min(all_orders), max(all_orders)
    ok = lo >= 1.7 and hi <= 2.3
    _report(10, ok, f"empirical orders in [{lo:.2f}, {hi:.2f}] within 2.0 +- 0.3 "
                    f"(20 expression/chart combinations)")


def test_criterion_11_determinism_and_formats(tmp_path):
    import contextlib
    import io
    import json

    from liesphere import cli

    scene = tmp_path / "scene.json"
    scene.write_text(
        json.dumps(
            {
                "chart": {"kind": "clifford_torus", "r": SQUARE_R},
                "tau": "0.3*sin(u)",
                "grid": [8, 8],
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["transform", "--scene", str(scene), "--out", str(out1)]) == 0
        assert cli.main(["transform", "--scene", str(scene), "--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("report.json", "fields.csv", "f.obj", "f_hat.obj")
    )
    verts, faces = G.parse_obj((out1 / "f.obj").read_text())
    counts = len(verts) == 64 and len(faces) == 64 and faces.shape[1] == 4
    ok = identical and counts
    _report(11, ok, f"byte-identical reruns: {identical}; 8x8 periodic mesh has "
                    f"{len(verts)} vertices, {len(faces)} quads")


def test_criterion_12_total_wall_time():
    elapsed = time.perf_counter() - _cache.get("suite_start", _T0)
    ok = elapsed < 60.0
    _report(12, ok, f"acceptance suite wall time {elapsed:.1f}s < 60s")

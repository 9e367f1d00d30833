"""Potentials, connection operators, the family, and the dual step."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from liesphere import charts as CH
from liesphere import cli
from liesphere import demoulin as D
from liesphere import exprs as E
from liesphere import gridio as G
from liesphere import ribaucour as RB
from liesphere.charts import Domain
from liesphere.errors import (
    BlowUp,
    FullyMasked,
    NotPointwiseDistinct,
    NotRibaucour,
    PathDependence,
)


SCENES = Path(__file__).resolve().parents[1] / "scenes"


@pytest.fixture(scope="module")
def family_64(square_torus):
    grid = G.Grid(64, 64, square_torus.domain)
    return D.build_family(
        square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("2"), grid
    )


def _generator(family, which):
    """A generator's frame and whole-grid transform; the family keeps only values."""
    frame = CH.eval_chart(family.chart, family.grid.points().reshape(-1, 2))
    return frame, RB.transform(frame, _tau_jets(family)[which])


def _tau_jets(family):
    """Both generators' tau jets at the grid's points, wrapped as the chart's frame wraps them."""
    points = family.chart.domain.wrap(family.grid.points().reshape(-1, 2))
    return [E.eval_at(expr, points) for expr in (family.tau0_expr, family.tau1_expr)]


def _members(family, thetas):
    """The family report at ``thetas``, and the (tau, f_hat) handed over for each member."""
    handed = []
    report = D.family_report(family, thetas, each=lambda tau, f_hat: handed.append((tau, f_hat)))
    return report, handed


def _member_tau(family, theta):
    return _members(family, [theta])[1][0][0]


@pytest.fixture(scope="module")
def const_family(square_torus):
    grid = G.Grid(16, 16, square_torus.domain)
    return D.build_family(square_torus, E.parse_tau("0"), E.parse_tau("2"), grid)


# ---------- potentials ----------


def test_zero_form_integrates_to_zero(square_torus):
    grid = G.Grid(16, 16, square_torus.domain)
    n = grid.nu * grid.nv
    pot = D.integrate_potential(grid, np.zeros((n, 2)), np.zeros((n, 2, 2)))
    assert pot.data.shape == grid.shape
    assert np.max(np.abs(pot.data)) == 0.0
    assert pot.loop_residual == 0.0


def test_potential_matches_logarithm(family_64, square_torus):
    grid = family_64.grid
    pts = grid.points()
    expected = np.log(1.0 + 0.3 * np.sin(pts[..., 0]))
    expected -= expected[0, 0]
    assert np.max(np.abs(family_64.tilde[0].data - expected)) < 1e-5
    assert np.max(np.abs(family_64.tilde[1].data)) == 0.0
    assert family_64.tilde[0].loop_residual < 1e-8
    for res in family_64.tilde[0].period_residuals.values():
        assert res < 1e-8


def test_potential_discrete_gradient_reproduces_form(family_64):
    # -(central difference of tau_tilde) ~ alpha, O(h^2)
    grid = family_64.grid
    vals = family_64.tilde[0].data
    alpha_u = _generator(family_64, 0)[1].alpha.value[:, 0].reshape(grid.shape)
    dd = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * grid.hu)
    assert np.max(np.abs(-dd - alpha_u)) < 1e-3


def test_non_closed_form_raises_path_dependence(square_torus):
    grid = G.Grid(64, 64, square_torus.domain)
    pts = grid.points().reshape(-1, 2)
    frame = CH.eval_chart(square_torus, pts)
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), square_torus.domain.wrap(pts))
    res = RB.transform(frame, tau)
    comps = np.where(res.metric.singular[..., None], 0.0, res.alpha.value)
    partials = np.moveaxis(res.alpha.grad, 0, -1)  # (..., component, derivative)
    partials = np.where(res.metric.singular[..., None, None], 0.0, partials)
    with pytest.raises(PathDependence) as exc:
        D.integrate_potential(grid, comps, partials)
    assert exc.value.residual > 1e-3


def test_period_obstruction_raises(square_torus):
    # constant alpha = c du is closed but winds around the u-period
    grid = G.Grid(16, 16, square_torus.domain)
    data = np.zeros(grid.shape + (2,))
    data[..., 0] = 0.25
    with pytest.raises(PathDependence):
        D.integrate_potential(grid, data, np.zeros(grid.shape + (2, 2)))


def test_overflowing_circulation_fails_the_gate():
    # h^2 overflows on this grid: the residual is not finite and must fail
    grid = G.Grid(8, 8, Domain((0.0, 1e300), (0.0, 1.0), (False, False)))
    partials = np.zeros(grid.shape + (2, 2))
    partials[..., 0, 0] = np.arange(8.0)[:, None]
    with pytest.raises(PathDependence):
        D.integrate_potential(grid, np.ones(grid.shape + (2,)), partials)


# ---------- connection operators ----------


def test_r_operator_is_minus_identity_for_zero_tau(const_family):
    # tau = 0 sends f to -f with vanishing 1-forms: r = -Id
    r0 = D.r_operator(*_generator(const_family, 0))
    np.testing.assert_allclose(
        r0.entries, np.broadcast_to(-np.eye(2), r0.entries.shape), atol=1e-13
    )
    assert r0.relation_residual < 1e-13


def test_r_operator_constant_tau_is_affine_in_shape_operator(family_64):
    # tau = c: r = a Id - b A with A = diag(1, -1) on the square torus
    frame, result1 = _generator(family_64, 1)
    r1 = D.r_operator(frame, result1)
    a1 = result1.a.value
    b1 = result1.b.value
    expected = np.zeros_like(r1.entries)
    expected[..., 0, 0] = a1 - b1
    expected[..., 1, 1] = a1 + b1
    np.testing.assert_allclose(r1.entries, expected, atol=1e-12)
    assert r1.metric_symmetry_residual < 1e-7


def test_r_operator_diagonal_for_u_only_tau(family_64):
    r0 = D.r_operator(*_generator(family_64, 0))
    assert np.max(np.abs(r0.entries[..., 0, 1])) < 1e-9
    assert np.max(np.abs(r0.entries[..., 1, 0])) < 1e-9
    assert r0.relation_residual < 1e-8
    assert r0.metric_symmetry_residual < 1e-7


def test_bianchi_commutator_for_generating_pair(family_64):
    assert family_64.bianchi.commutator_max < 1e-8
    assert family_64.bianchi.wedge_max < 1e-8


def test_bianchi_negative_control():
    # generic non-commuting synthetic matrices
    e12 = np.zeros((1, 2, 2))
    e12[0, 0, 1] = 1.0
    e21 = np.zeros((1, 2, 2))
    e21[0, 1, 0] = 1.0
    hat = np.zeros((1, 2, 6))
    rep = D.bianchi_check(D.ROperator(e12, 0, 0, hat), D.ROperator(e21, 0, 0, hat))
    assert rep.commutator_max > 1.0


# ---------- the family ----------


def test_family_endpoints_bitwise(family_64):
    (tau0, _), (tau1, _) = _members(family_64, [0.0, np.pi / 2.0])[1]
    assert np.array_equal(tau0, family_64.tau[0])
    assert np.array_equal(tau1, family_64.tau[1])


def test_family_of_constants(const_family):
    # tau0 = 0, tau1 = c with zero potentials: tau_theta = c sin/(cos+sin).
    # theta = pi/4 would give the constant 1, a curvature sphere of this
    # chart, so the samples stay away from it.
    c = 2.0
    for theta in (0.3, 0.9, 1.2):
        vals = _member_tau(const_family, theta)
        expected = c * np.sin(theta) / (np.cos(theta) + np.sin(theta))
        assert np.nanmax(np.abs(vals - expected)) < 1e-14
        assert np.nanstd(vals) < 1e-14  # constant on the grid


def test_family_quarter_turn_closed_form(family_64):
    tau = _member_tau(family_64, np.pi / 4.0)
    grid = family_64.grid
    tau0 = family_64.tau[0].reshape(grid.shape)
    expected = (tau0 + 2.0 * (1.0 + tau0)) / (1.0 + (1.0 + tau0))
    diff = np.abs(tau - expected.reshape(-1))
    assert np.nanmax(diff) < 1e-5


def test_family_members_stay_closed(family_64):
    for rec in D.family_report(family_64, [k * np.pi / 8.0 for k in range(8)])["members"]:
        assert rec["max_dalpha"] < 1e-7 * (1.0 + rec["max_alpha"])
        assert rec["masked_fraction"] <= 0.5


def test_family_masks_are_reported(family_64):
    report, handed = _members(family_64, [3.0 * np.pi / 4.0, np.pi / 4.0])
    member, member2 = report["members"]
    assert member["denominator_masked"] > 0
    assert member2["regularity_masked"] > 0
    # the counts are the points where the tau handed over is NaN
    for rec, (tau, _) in zip(report["members"], handed):
        masked = rec["denominator_masked"] + rec["regularity_masked"]
        assert np.count_nonzero(np.isnan(tau)) == masked


def test_gauge_shift_reparametrizes_theta(family_64):
    # shifting the potentials by constants maps the member at theta to the
    # member at theta' with tan(theta') = tan(theta) e^(c0 - c1)
    c0, c1 = 0.4, -0.2
    shifted = dataclasses.replace(
        family_64,
        tilde=tuple(
            dataclasses.replace(pot, data=pot.data + c)
            for pot, c in zip(family_64.tilde, (c0, c1))
        ),
    )
    theta = 0.6
    tau_shifted = _member_tau(shifted, theta)
    theta_prime = np.arctan2(np.sin(theta) * np.exp(c0), np.cos(theta) * np.exp(c1))
    tau_orig = _member_tau(family_64, theta_prime)
    diff = np.abs(tau_shifted - tau_orig)
    assert np.nanmax(diff) < 1e-12


def test_family_requires_distinct_generators(square_torus):
    grid = G.Grid(16, 16, square_torus.domain)
    with pytest.raises(NotPointwiseDistinct):
        D.build_family(square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("0"), grid)


def test_family_rejects_non_closed_generator(square_torus):
    grid = G.Grid(32, 32, square_torus.domain)
    with pytest.raises(NotRibaucour):
        D.build_family(
            square_torus,
            E.parse_tau("2"),
            E.parse_tau("0.2*sin(u)*sin(v)"),
            grid,
        )


def test_fully_masked_member(const_family):
    # equal potentials everywhere: the denominator of the 3 pi / 4 member
    # vanishes on the whole grid
    with pytest.raises(FullyMasked):
        D.family_report(const_family, [3.0 * np.pi / 4.0])


# ---------- parallel sections ----------


def test_parallel_sections_constants(const_family):
    assert D.family_report(const_family, [])["parallel_residual"] < 1e-10


def test_parallel_sections_general(family_64):
    assert D.family_report(family_64, [])["parallel_residual"] < 1e-7


def test_parallel_sections_negative_control(family_64):
    # dropping the exponential factor from u_1 breaks parallelism
    from liesphere.liegeom import lie_inner, light_cone_section, t0_jet

    fam = family_64
    frame, result0 = _generator(fam, 0)
    t0 = t0_jet(2)
    tau0, tau1 = _tau_jets(fam)
    u1_wrong = 1.0 / (tau1 - tau0)  # misses e^{tau_tilde_0}
    body = light_cone_section(frame.f, frame.xi, tau1)
    sigma = u1_wrong.vec() * body
    worst = 0.0
    for k in range(2):
        val = lie_inner(sigma.deriv(k), result0.f_hat + t0).value
        worst = max(worst, float(np.max(np.abs(val))))
    assert worst > 1e-3


# ---------- dual family ----------


def test_dual_step_constants_trivial(const_family):
    patch = G.Grid(16, 16, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    dual = D.dual_family_step(const_family, patch)
    assert np.max(np.abs(D._dual_fields(const_family, patch.points())["gamma"])) < 1e-13
    assert dual.consistency < 1e-10
    assert dual.gamma_identity_residual < 1e-8


def test_dual_step_consistency_2d(square_torus):
    # genuinely two-dimensional configuration: u-only and v-dependent taus
    grid = G.Grid(32, 32, square_torus.domain)
    fam = D.build_family(
        square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("2 + 0.2*cos(v)"), grid
    )
    patch = G.Grid(32, 32, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    dual = D.dual_family_step(fam, patch)
    gamma = D._dual_fields(fam, patch.points())["gamma"]
    assert np.max(np.abs(gamma[..., 0])) > 1e-3
    assert np.max(np.abs(gamma[..., 1])) > 1e-3
    assert dual.consistency < 1e-5
    assert dual.gamma_identity_residual < 1e-5


def _line_fields(shape, comp, drive, gamma):
    """Constant dual-system fields; the component not marched is filled with junk."""
    fields = {key: np.full(shape + (2,), 100.0) for key in ("drive", "gamma")}
    fields["drive"][..., comp] = drive
    fields["gamma"][..., comp] = gamma
    return fields


@pytest.mark.parametrize("axis", [0, 1])
def test_sweep_matches_closed_forms(axis):
    # three lines of 41 nodes, marched along ``axis`` from w0, comp = 1 - axis
    n, h, comp = 41, 0.01, 1 - axis
    w0 = np.array([0.1, -0.2, 0.3])
    s = h * np.arange(n)
    shape, mid_shape = ((n, 3), (n - 1, 3)) if axis == 0 else ((3, n), (3, n - 1))
    s, w0_b = (s[:, None], w0[None, :]) if axis == 0 else (s[None, :], w0[:, None])

    def march(drive, gamma):
        nodes = _line_fields(shape, comp, drive, gamma)
        mids = _line_fields(mid_shape, comp, drive, gamma)
        return D._sweep(w0, nodes, mids, h, comp, axis)

    # constant drive, gamma = 0: w is linear, exact up to round-off
    w = march(0.7, 0.0)
    assert w.shape == shape
    np.testing.assert_allclose(w, w0_b + 0.7 * s, rtol=0, atol=1e-14)
    # drive 0, constant gamma: dw = e^w gamma ds, so w = -ln(e^-w0 - gamma s)
    w = march(0.0, 0.5)
    exact = -np.log(np.exp(-w0_b) - 0.5 * s)
    np.testing.assert_allclose(w, exact, rtol=0, atol=1e-10)  # RK4 error: 4.6e-12


def test_dual_step_blowup_guard(square_torus):
    # tau0 = 0.3 sin(u) and tau1 = 0.2 cos(v) cross on the patch, where
    # w = ln(tau0 - tau_hat0) leaves its range
    grid = G.Grid(11, 11, square_torus.domain)
    fam = D.build_family(square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("0.2*cos(v)"), grid)
    patch = G.Grid(16, 16, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    with pytest.raises(BlowUp, match=r"parameter point \[") as exc:
        D.dual_family_step(fam, patch)
    # the error names a node of the patch
    assert np.all((exc.value.point >= 0.1) & (exc.value.point <= 6.1))


def test_dual_step_rejects_periodic_patch(family_64):
    with pytest.raises(ValueError):
        D.dual_family_step(family_64, G.Grid(8, 8, Domain()))


# ---------- report ----------


def test_family_report_schema(family_64):
    rep = D.family_report(family_64, [0.0, np.pi / 4.0, np.pi / 2.0])
    assert rep["endpoints_ok"] is True
    assert rep["bianchi_norm"] < 1e-8
    assert len(rep["members"]) == 3
    for rec in rep["members"]:
        assert {"theta", "masked_fraction", "max_dalpha"} <= set(rec.keys())


def test_family_report_carries_operator_and_period_residuals(family_64, square_torus):
    rep = D.family_report(family_64, [])
    r0, r1 = (D.r_operator(*_generator(family_64, k)) for k in (0, 1))
    assert rep["r_relation_residual"] == max(r0.relation_residual, r1.relation_residual)
    assert rep["r_symmetry_residual"] == max(
        r0.metric_symmetry_residual, r1.metric_symmetry_residual
    )
    periods = [
        *family_64.tilde[0].period_residuals.values(),
        *family_64.tilde[1].period_residuals.values(),
    ]
    assert len(periods) == 4  # both axes of both potentials
    assert rep["potential_period_residual"] == max(periods) < 1e-8
    # no periodic axis: no period residual
    patch = G.Grid(16, 16, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    fam = D.build_family(square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("2"), patch)
    assert D.family_report(fam, [])["potential_period_residual"] is None


def test_dual_step_leaves_consistency_to_the_gate(square_torus):
    # a coarse patch disagrees between the two routes by ~8.8e-4, well above
    # the default dual_consistency tolerance; the step reports it, the CLI gates
    grid = G.Grid(48, 48, square_torus.domain)
    fam = D.build_family(
        square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("2 + 0.2*cos(v)"), grid
    )
    lo, hi = 0.1, 2.0 * np.pi - 0.1
    patch = G.Grid(8, 8, Domain((lo, hi), (lo, hi), (False, False)))
    dual = D.dual_family_step(fam, patch)
    assert 1e-4 < dual.consistency < 1e-2


def test_dual_closedness_is_exact_on_the_shipped_scene():
    # dgamma comes from order-3 jets, so the residual is round-off, not a stencil's
    scene = cli.load_scene(SCENES / "demoulin_dual_2d.json")
    fam = D.build_family(
        scene.chart, scene.tau, scene.tau1, G.Grid(*scene.grid, scene.chart.domain)
    )
    dual = D.dual_family_step(fam)
    assert dual.consistency < 1e-5
    assert dual.gamma_identity_residual <= 1e-12


def test_default_dual_patch_lies_inside_the_domain(square_torus, family_64):
    # each axis of a [0, 1] domain is inset by span/20, not by a fixed 0.1
    chart = CH.CliffordTorus(square_torus.r, Domain((0.0, 1.0), (0.0, 1.0), (False, False)))
    fam = D.build_family(
        chart, E.parse_tau("0.3*sin(u)"), E.parse_tau("2 + 0.2*cos(v)"),
        G.Grid(16, 16, chart.domain),
    )
    patch = D._default_patch(chart)
    assert patch.shape == (64, 64) and patch.domain.periodic == (False, False)
    assert patch.domain.u == patch.domain.v == (0.05, 0.95)
    pts = patch.points()
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    # dual_family_step integrates on this patch when none is given
    assert D.dual_family_step(fam) == D.dual_family_step(fam, patch)
    # the shipped [0, 2pi] domains keep the (0.1, 2pi - 0.1) patch
    assert D._default_patch(family_64.chart).domain.u == (0.1, 2.0 * np.pi - 0.1)

"""Potentials, connection operators, the family, and the dual step."""

import dataclasses

import numpy as np
import pytest

from liesphere import charts as CH
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


@pytest.fixture(scope="module")
def family_64(square_torus):
    grid = G.Grid(64, 64, square_torus.domain)
    return D.build_family(
        square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("2"), grid
    )


@pytest.fixture(scope="module")
def const_family(square_torus):
    grid = G.Grid(16, 16, square_torus.domain)
    return D.build_family(square_torus, E.parse_tau("0"), E.parse_tau("2"), grid)


# ---------- potentials ----------


def test_zero_form_integrates_to_zero(square_torus):
    grid = G.Grid(16, 16, square_torus.domain)
    alpha = G.GridField(grid, np.zeros(grid.shape + (2,)))
    pot = D.integrate_potential(alpha)
    assert np.max(np.abs(pot.data)) == 0.0
    assert pot.loop_residual == 0.0


def test_potential_matches_logarithm(family_64, square_torus):
    grid = family_64.grid
    pts = grid.points()
    expected = np.log(1.0 + 0.3 * np.sin(pts[..., 0]))
    expected -= expected[0, 0]
    assert np.max(np.abs(family_64.tilde0.data - expected)) < 1e-5
    assert np.max(np.abs(family_64.tilde1.data)) == 0.0
    assert family_64.tilde0.loop_residual < 1e-8
    for res in family_64.tilde0.period_residuals.values():
        assert res < 1e-8


def test_potential_discrete_gradient_reproduces_form(family_64):
    # -(central difference of tau_tilde) ~ alpha, O(h^2)
    grid = family_64.grid
    vals = family_64.tilde0.data
    alpha_u = family_64.result0.alpha.value[:, 0].reshape(grid.shape)
    dd = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * grid.hu)
    assert np.max(np.abs(-dd - alpha_u)) < 1e-3


def test_non_closed_form_raises_path_dependence(square_torus):
    grid = G.Grid(64, 64, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), frame.points)
    res = RB.transform(frame, tau, on_singular="nan")
    comps = np.where(res.metric.singular[..., None], 0.0, res.alpha.value)
    alpha = G.GridField(grid, comps.reshape(grid.shape + (2,)))
    with pytest.raises(PathDependence) as exc:
        D.integrate_potential(alpha)
    assert exc.value.residual > 1e-3


def test_period_obstruction_raises(square_torus):
    # constant alpha = c du is closed but winds around the u-period
    grid = G.Grid(16, 16, square_torus.domain)
    data = np.zeros(grid.shape + (2,))
    data[..., 0] = 0.25
    with pytest.raises(PathDependence):
        D.integrate_potential(G.GridField(grid, data))


# ---------- connection operators ----------


def test_r_operator_is_minus_identity_for_zero_tau(const_family):
    # tau = 0 sends f to -f with vanishing 1-forms: r = -Id
    r0 = const_family.r0
    np.testing.assert_allclose(
        r0.entries, np.broadcast_to(-np.eye(2), r0.entries.shape), atol=1e-13
    )
    assert r0.relation_residual < 1e-13


def test_r_operator_constant_tau_is_affine_in_shape_operator(family_64):
    # tau = c: r = a Id - b A with A = diag(1, -1) on the square torus
    r1 = family_64.r1
    a1 = family_64.result1.a.value
    b1 = family_64.result1.b.value
    expected = np.zeros_like(r1.entries)
    expected[..., 0, 0] = a1 - b1
    expected[..., 1, 1] = a1 + b1
    np.testing.assert_allclose(r1.entries, expected, atol=1e-12)
    assert r1.metric_symmetry_residual < 1e-7


def test_r_operator_diagonal_for_u_only_tau(family_64):
    r0 = family_64.r0
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
    rep = D.bianchi_check(D.ROperator(e12, 0, 0), D.ROperator(e21, 0, 0))
    assert rep.commutator_max > 1.0


# ---------- the family ----------


def test_family_endpoints_bitwise(family_64):
    m0 = D.demoulin_tau(family_64, 0.0)
    m1 = D.demoulin_tau(family_64, np.pi / 2.0)
    assert np.array_equal(
        m0.values.data[..., 0].reshape(-1), family_64.tau0.value
    )
    assert np.array_equal(
        m1.values.data[..., 0].reshape(-1), family_64.tau1.value
    )


def test_family_of_constants(const_family):
    # tau0 = 0, tau1 = c with zero potentials: tau_theta = c sin/(cos+sin).
    # theta = pi/4 would give the constant 1, a curvature sphere of this
    # chart, so the samples stay away from it.
    c = 2.0
    for theta in (0.3, 0.9, 1.2):
        member = D.demoulin_tau(const_family, theta)
        expected = c * np.sin(theta) / (np.cos(theta) + np.sin(theta))
        vals = member.values.data[..., 0]
        assert np.nanmax(np.abs(vals - expected)) < 1e-14
        assert np.nanstd(vals) < 1e-14  # constant on the grid


def test_family_quarter_turn_closed_form(family_64):
    member = D.demoulin_tau(family_64, np.pi / 4.0)
    grid = family_64.grid
    tau0 = family_64.tau0.value.reshape(grid.shape)
    expected = (tau0 + 2.0 * (1.0 + tau0)) / (1.0 + (1.0 + tau0))
    diff = np.abs(member.values.data[..., 0] - expected)
    assert np.nanmax(diff) < 1e-5


def test_family_members_stay_closed(family_64):
    for k in range(8):
        member = D.demoulin_tau(family_64, k * np.pi / 8.0)
        rec = D.member_closedness(member)
        assert rec["max_dalpha"] < 1e-7 * (1.0 + rec["max_alpha"])
        assert rec["masked_fraction"] <= 0.5


def test_family_masks_are_reported(family_64):
    member = D.demoulin_tau(family_64, 3.0 * np.pi / 4.0)
    assert member.denominator_masked > 0
    member2 = D.demoulin_tau(family_64, np.pi / 4.0)
    assert member2.regularity_masked > 0


def test_gauge_shift_reparametrizes_theta(family_64):
    # shifting the potentials by constants maps the member at theta to the
    # member at theta' with tan(theta') = tan(theta) e^(c0 - c1)
    c0, c1 = 0.4, -0.2
    shifted = dataclasses.replace(
        family_64,
        tilde0=dataclasses.replace(
            family_64.tilde0,
            values=G.GridField(family_64.grid, family_64.tilde0.data + c0),
        ),
        tilde1=dataclasses.replace(
            family_64.tilde1,
            values=G.GridField(family_64.grid, family_64.tilde1.data + c1),
        ),
    )
    theta = 0.6
    member_shifted = D.demoulin_tau(shifted, theta)
    theta_prime = np.arctan2(np.sin(theta) * np.exp(c0), np.cos(theta) * np.exp(c1))
    member_orig = D.demoulin_tau(family_64, theta_prime)
    diff = np.abs(member_shifted.values.data - member_orig.values.data)
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
        D.demoulin_tau(const_family, 3.0 * np.pi / 4.0)


# ---------- parallel sections ----------


def test_parallel_sections_constants(const_family):
    ps = D.parallel_sections(const_family)
    assert ps["residual"] < 1e-10
    # u0 = 1/(0 - 2), u1 = 1/(2 - 0)
    np.testing.assert_allclose(ps["u"][0].data, -0.5, atol=1e-14)
    np.testing.assert_allclose(ps["u"][1].data, 0.5, atol=1e-14)


def test_parallel_sections_general(family_64):
    ps = D.parallel_sections(family_64)
    assert ps["residual"] < 1e-7


def test_parallel_sections_negative_control(family_64):
    # dropping the exponential factor from u_1 breaks parallelism
    from liesphere.liegeom import lie_inner, light_cone_section, t0_jet

    fam = family_64
    t0 = t0_jet(2)
    u1_wrong = 1.0 / (fam.tau1 - fam.tau0)  # misses e^{tau_tilde_0}
    body = light_cone_section(fam.frame.f, fam.frame.xi, fam.tau1)
    sigma = u1_wrong.vec() * body
    worst = 0.0
    for k in range(2):
        val = lie_inner(sigma.deriv(k), fam.result0.f_hat + t0).value
        worst = max(worst, float(np.max(np.abs(val))))
    assert worst > 1e-3


# ---------- dual family ----------


def test_dual_step_constants_trivial(const_family):
    patch = G.Grid(16, 16, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    dual = D.dual_family_step(const_family, patch)
    assert np.max(np.abs(dual.gamma.data)) < 1e-13
    # all driving forms vanish: tau_hat0 = tau0 - e^{w_init} exactly
    np.testing.assert_allclose(dual.tau_hat0.data[..., 0], -1.0, atol=1e-10)
    assert dual.consistency < 1e-10
    assert dual.gamma_identity_residual < 1e-8
    np.testing.assert_allclose(dual.v.data, 1.0, atol=1e-10)


def test_dual_step_consistency_2d(square_torus):
    # genuinely two-dimensional configuration: u-only and v-dependent taus
    grid = G.Grid(32, 32, square_torus.domain)
    fam = D.build_family(
        square_torus, E.parse_tau("0.3*sin(u)"), E.parse_tau("2 + 0.2*cos(v)"), grid
    )
    patch = G.Grid(32, 32, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    dual = D.dual_family_step(fam, patch)
    assert np.max(np.abs(dual.gamma.data[..., 0])) > 1e-3
    assert np.max(np.abs(dual.gamma.data[..., 1])) > 1e-3
    assert dual.consistency < 1e-5
    assert dual.gamma_identity_residual < 1e-5


def test_dual_step_blowup_guard(family_64):
    patch = G.Grid(16, 16, Domain((0.1, 6.1), (0.1, 6.1), (False, False)))
    with pytest.raises(BlowUp):
        D.dual_family_step(family_64, patch, w_init=19.0)


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

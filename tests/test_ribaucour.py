"""The transform engine: metric, parametrization, closedness, involution."""

import numpy as np
import pytest

from liesphere import charts as CH
from liesphere import exprs as E
from liesphere import liegeom as L
from liesphere import ribaucour as RB
from liesphere.errors import InvolutionFailure, NotRegular
from liesphere.gridio import Grid, fd_jet_oracle


def _frame_and_tau(spec, src, points):
    frame = CH.eval_chart(spec, points)
    tau = E.eval_at(E.parse_tau(src), frame.points)
    return frame, tau


# ---------- the congruence metric ----------


def test_metric_at_zero_tau(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0", random_points)
    met = RB.minus_metric(frame, tau)
    np.testing.assert_allclose(
        met.G.value, np.broadcast_to(np.eye(2) / 2.0, met.G.value.shape), atol=1e-14
    )


def test_metric_closed_form(square_torus, random_points):
    # principal-frame computation for the square torus:
    # G = diag((1 + tau)^2 / 2, (tau - 1)^2 / 2)
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", random_points)
    met = RB.minus_metric(frame, tau)
    tv = tau.value
    expected = np.zeros(tv.shape + (2, 2))
    expected[..., 0, 0] = (1.0 + tv) ** 2 / 2.0
    expected[..., 1, 1] = (tv - 1.0) ** 2 / 2.0
    np.testing.assert_allclose(met.G.value, expected, atol=1e-14)


def test_metric_degenerates_at_principal_curvature(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "1", random_points)
    with pytest.raises(NotRegular) as exc:
        RB.minus_metric(frame, tau)
    assert exc.value.index is not None


def test_metric_positive_definite_at_regular_points(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", random_points)
    met = RB.minus_metric(frame, tau)
    eig = np.linalg.eigvalsh(met.G.value)
    assert np.min(eig) > 0.0


# ---------- the transform ----------


def test_transform_zero_tau_is_antipode(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0", random_points)
    res = RB.transform(frame, tau)
    assert np.max(np.abs(res.f_check.value)) == 0.0
    assert np.max(np.abs(res.mu2.value)) == 0.0
    np.testing.assert_allclose(res.a.value, -1.0, atol=0)
    np.testing.assert_allclose(res.b.value, 0.0, atol=0)
    np.testing.assert_allclose(res.f_hat.value, -frame.f.value, atol=0)
    np.testing.assert_allclose(res.xi_hat.value, frame.xi.value, atol=0)
    assert np.max(np.abs(res.alpha.value)) == 0.0


@pytest.mark.parametrize("c", [2.0, -0.7, 0.5])
def test_transform_constant_tau_is_parallel_type(square_torus, random_points, c):
    frame, tau = _frame_and_tau(square_torus, repr(c), random_points)
    res = RB.transform(frame, tau)
    a_exp = (c * c - 1.0) / (c * c + 1.0)
    b_exp = -2.0 * c / (c * c + 1.0)
    np.testing.assert_allclose(res.a.value, a_exp, atol=1e-15)
    np.testing.assert_allclose(res.b.value, b_exp, atol=1e-15)
    assert a_exp**2 + b_exp**2 == pytest.approx(1.0)
    expected = (
        (c * c - 1.0) * frame.f.value - 2.0 * c * frame.xi.value
    ) / (c * c + 1.0)
    np.testing.assert_allclose(res.f_hat.value, expected, atol=1e-15)
    unit = L.lie_inner(res.f_hat, res.f_hat).value
    np.testing.assert_allclose(unit, 1.0, atol=1e-15)


def test_alpha_closed_form_for_u_only_tau(square_torus):
    # alpha = -d ln(1 + tau) for tau = tau(u) on the square torus
    pt = np.array([[np.pi / 3.0, 0.4]])
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", pt)
    res = RB.transform(frame, tau)
    tau_u = 0.3 * np.cos(pt[0, 0])
    assert res.alpha.value[0, 0] == pytest.approx(
        -tau_u / (1.0 + tau.value[0]), abs=1e-14
    )
    assert res.alpha.value[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_alpha_against_fd_built_frame(square_torus):
    # Independent route: build the frame jets from the finite-difference
    # oracle instead of the chart's analytic jets, then transform.
    pt = np.array([np.pi / 3.0, 0.4])
    expr = E.parse_tau("0.3*sin(u)")

    def fcomp(p):
        return CH.eval_chart(square_torus, p[None, :]).f.value[0]

    def xicomp(p):
        return CH.eval_chart(square_torus, p[None, :]).xi.value[0]

    f_fd = fd_jet_oracle(fcomp, pt, 1e-3)
    xi_fd = fd_jet_oracle(xicomp, pt, 1e-3)
    tau_fd = fd_jet_oracle(lambda p: float(E.eval_at(expr, p).value), pt, 1e-3)
    frame_fd = L.lift_frame(
        f_fd.reshape_batch((1, 6)),
        xi_fd.reshape_batch((1, 6)),
        pt[None, :],
        contact_tol=1e-6,
    )
    res_fd = RB.transform(frame_fd, tau_fd.reshape_batch((1,)))
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", pt[None, :])
    res = RB.transform(frame, tau)
    assert np.max(np.abs(res_fd.alpha.value - res.alpha.value)) < 1e-6
    assert np.max(np.abs(res_fd.f_hat.value - res.f_hat.value)) < 1e-6


def test_value_helpers_match_jet_arithmetic(square_torus, random_points):
    # the array forms reproduce the per-slot jet expressions bit for bit
    frame, tau = _frame_and_tau(square_torus, "0.2*sin(u)+0.1*cos(v)", random_points)
    res = RB.transform(frame, tau)
    f, t0 = frame.f, L.t0_jet(2)
    B = RB.corrected_differential(f, res.alpha)
    for i in range(2):
        jet_row = f.deriv(i) - res.alpha.take(i).vec() * (f + t0)
        assert np.array_equal(B[..., i, :], jet_row.value)
        for k in range(2):
            jet_inner = L.lie_inner(f.deriv(i), res.f_hat.deriv(k))
            assert np.array_equal(
                L.inner_value(f.grad[..., i], res.f_hat.grad[..., k]), jet_inner.value
            )
            pair = L.inner_value(B[..., i, :], B[..., k, :])
            assert np.array_equal(L.pairing(B, B)[..., i, k], pair)


def test_identity_suite_at_round_off(square_torus, random_points):
    frame, tau = _frame_and_tau(
        square_torus, "0.2*sin(u)+0.1*cos(v)", random_points
    )
    res = RB.transform(frame, tau)
    pw = RB.pointwise_residuals(res, RB.alpha_hat(res))
    suite = RB.residual_suite(pw)
    assert suite["eq6"] < 1e-12
    assert suite["eq9"] < 1e-12
    assert suite["eq13"] < 1e-12
    assert suite["fcheck_orth_f"] < 1e-13
    assert suite["fcheck_orth_xi"] < 1e-13
    assert suite["mu2_match"] < 1e-13
    assert suite["envelope"] < 1e-13
    assert suite["metric_match"] < 1e-12
    assert suite["alpha_forms"] < 1e-12
    # the transform preserves regularity for the same representative
    assert suite["hat_min_abs_det"] == pytest.approx(
        res.metric.min_abs_det, rel=1e-9
    )
    assert max(np.max(pw[k]) for k in ("eq6", "eq9", "eq13")) < 1e-12


# ---------- closedness ----------


def test_constant_tau_alpha_identically_zero(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "2", random_points)
    maxd, _, _ = RB.ribaucour_residual(frame, tau)
    assert maxd == 0.0


def test_u_only_tau_is_closed(square_torus, torus_frame_32):
    _, frame = torus_frame_32
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), frame.points)
    maxd, _, _ = RB.ribaucour_residual(frame, tau)
    assert maxd < 1e-10


def test_separable_product_tau_is_not_closed(square_torus):
    grid = Grid(64, 64, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), frame.points)
    res = RB.transform(frame, tau, on_singular="nan")
    maxd, loc, _ = RB.ribaucour_residual(frame, tau, result=res, on_singular="nan")
    assert maxd > 1e-2
    assert not RB.classify_ribaucour(maxd, RB.max_abs_alpha(res))


def test_strict_mode_raises_on_singular_grid(square_torus):
    grid = Grid(64, 64, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), frame.points)
    with pytest.raises(NotRegular):
        RB.ribaucour_residual(frame, tau)


def test_classification_is_scale_aware():
    assert RB.classify_ribaucour(5e-8, 0.0)
    assert not RB.classify_ribaucour(5e-7, 0.0)
    assert RB.classify_ribaucour(5e-7, 10.0)


# ---------- reconstruction ----------


def test_double_antipode_reconstruction(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0", random_points)
    res = RB.transform(frame, tau)
    recon, diag = RB.reconstruct(res)
    assert diag["involution"] == 0.0
    np.testing.assert_array_equal(recon.f.value, frame.f.value)


def test_involution_on_grid(square_torus, torus_frame_32):
    _, frame = torus_frame_32
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), frame.points)
    res = RB.transform(frame, tau)
    _, diag = RB.reconstruct(res)
    assert diag["involution"] < 1e-9
    assert diag["eq10"] < 1e-9
    assert diag["mu_match"] < 1e-9


def test_involution_failure_detected(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", random_points)
    res = RB.transform(frame, tau)
    # (-f_hat, xi_hat) is still a Legendre frame, but not the transform pair
    res.f_hat = -res.f_hat
    with pytest.raises(InvolutionFailure):
        RB.reconstruct(res)


# ---------- the hypersurface route ----------


def test_shape_operator_route_vanishes_for_constants(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "2", random_points)
    res = RB.transform(frame, tau)
    alt = RB.shape_operator_path(frame, tau)
    assert np.max(np.abs(alt.value)) < 1e-15
    assert np.max(np.abs(res.f_check.value)) == 0.0


@pytest.mark.parametrize(
    "r,src",
    [
        (1 / np.sqrt(2), "0.3*sin(u)"),
        (0.6, "0.1*cos(v)"),
        (0.6, "0.2*sin(u)+0.1*cos(v)"),
    ],
)
def test_dual_route_agreement(r, src, random_points):
    spec = CH.CliffordTorus(r)
    frame, tau = _frame_and_tau(spec, src, random_points)
    res = RB.transform(frame, tau)
    alt = RB.shape_operator_path(frame, tau)
    assert np.max(np.abs(alt.value - res.f_check.value)) < 1e-10


# ---------- curvature identity ----------


def test_curvature_identity_constant_tau(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "2", random_points)
    res = RB.transform(frame, tau)
    curv = RB.curvature_identity(res, RB.alpha_hat(res))
    assert curv["abs"] < 1e-14
    assert curv["scale"] < 1e-14  # both sides vanish


def test_curvature_identity_on_grid(square_torus, torus_frame_32):
    _, frame = torus_frame_32
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), frame.points)
    res = RB.transform(frame, tau)
    curv = RB.curvature_identity(res, RB.alpha_hat(res))
    assert curv["abs"] < 1e-8


def test_curvature_identity_off_the_closed_locus(square_torus):
    # the identity relates the two sides even when both are nonzero
    grid = Grid(32, 32, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), frame.points)
    res = RB.transform(frame, tau, on_singular="nan")
    curv = RB.curvature_identity(res, RB.alpha_hat(res))
    assert curv["scale"] > 1e-2  # genuinely nonzero sides
    assert curv["rel"] < 1e-6


# ---------- grid runner ----------


def test_run_grid_report_schema(square_torus):
    grid = Grid(16, 16, square_torus.domain)
    run = RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid.points())
    rep = RB.diagnostic_report(run)
    assert set(rep["residuals"].keys()) == {
        "eq6", "eq9", "eq10", "eq13", "involution", "curvature_identity",
    }
    assert rep["ribaucour"] is True
    assert rep["regular"] is True
    assert rep["grid"] == [16, 16]


def test_run_grid_notregular_when_everywhere_singular(square_torus):
    grid = Grid(8, 8, square_torus.domain)
    with pytest.raises(NotRegular):
        RB.run_grid(square_torus, E.parse_tau("1"), grid.points())


@pytest.mark.parametrize("n", [32, 64, 128])
def test_classification_stable_under_refinement(square_torus, n):
    grid = Grid(n, n, square_torus.domain)
    run = RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid.points())
    assert run.ribaucour
    run2 = RB.run_grid(square_torus, E.parse_tau("sin(u)*sin(v)"), grid.points())
    assert not run2.ribaucour

"""The transform engine: metric, parametrization, closedness, involution."""

import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from liesphere import charts as CH
from liesphere import cli
from liesphere import demoulin as D
from liesphere import exprs as E
from liesphere import gridio as G
from liesphere import jets as J
from liesphere import liegeom as L
from liesphere import ribaucour as RB
from liesphere.charts import Domain
from liesphere.errors import (
    ContactViolation,
    DomainErrorJet,
    FullyMasked,
    InvolutionFailure,
    LieSphereError,
    NotPointwiseDistinct,
    NotRegular,
    NotRibaucour,
)
from liesphere.gridio import Grid, fd_jet_oracle
from liesphere.jets import Jet2
from reference import clifford_torus_exprs, shape_operator_path, subset_route


def _frame_and_tau(spec, src, points):
    frame = CH.eval_chart(spec, points)
    tau = E.eval_at(E.parse_tau(src), spec.domain.wrap(points))
    return frame, tau


def _flat_points(spec, grid):
    """The grid's points, flat and wrapped into the chart's domain as eval_chart wraps them."""
    return spec.domain.wrap(grid.points().reshape(-1, 2))


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
    met = RB.minus_metric(frame, tau)
    points = square_torus.domain.wrap(random_points)
    with pytest.raises(NotRegular) as exc:
        NotRegular.raise_first(met.singular, points, "congruence metric")
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
    # batch(None) adds the leading batch axis of one point
    frame_fd = L.lift_frame(f_fd.batch(None), xi_fd.batch(None))
    L.judge_frame(frame_fd.cert, 1e-6)  # the finite-difference frame certifies
    res_fd = RB.transform(frame_fd, tau_fd.batch(None))
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", pt[None, :])
    res = RB.transform(frame, tau)
    assert np.max(np.abs(res_fd.alpha.value - res.alpha.value)) < 1e-6
    assert np.max(np.abs(res_fd.f_hat.value - res.f_hat.value)) < 1e-6


def test_value_helpers_match_jet_arithmetic(square_torus, random_points):
    # the array forms, and the corrected differential of the lowest orders
    # that carry its values, reproduce the full-order jet expressions bit for bit
    frame, tau = _frame_and_tau(square_torus, "0.2*sin(u)+0.1*cos(v)", random_points)
    res = RB.transform(frame, tau)
    f, t0 = frame.f, L.t0_jet(2)
    B = RB.corrected_differential(f.truncate(1), res.alpha.truncate(0)).value
    for i in range(2):
        jet_row = f.deriv(i) - res.alpha.take(i).vec() * (f + t0)
        assert np.array_equal(B[..., i, :], jet_row.value)
        for k in range(2):
            jet_inner = L.lie_inner(f.deriv(i), res.f_hat.deriv(k))
            assert np.array_equal(
                L.inner_value(f.grad[i], res.f_hat.grad[k]), jet_inner.value
            )
            pair = L.inner_value(B[..., i, :], B[..., k, :])
            assert np.array_equal(L.pairing(B, B)[..., i, k], pair)


def test_jet_orders_through_the_transform(square_torus, torus_frame_16):
    # tau is order 2, so alpha keeps its exact gradient; f_hat is order 1,
    # so alpha_hat = (d f_hat, -f_check_hat) carries values only
    grid, frame = torus_frame_16
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), _flat_points(square_torus, grid))
    res = RB.transform(frame, tau)
    assert res.alpha.order == 1 and res.alpha.grad is not None
    assert res.f_hat.order == 1 and res.metric.G.order == 1
    assert RB.alpha_hat(res).grad is None


# ---------- slots and fields a reader needs ----------

CHARTS = {
    "clifford_torus": CH.CliffordTorus(0.6),
    "parallel_of": CH.ParallelOf(CH.CliffordTorus(0.6), 0.4),
    "custom": CH.chart_from_json(
        dict(zip(("f", "xi"), clifford_torus_exprs(0.6)), kind="custom")
    ),
}


def _same_bits(lazy: Jet2, eager: Jet2):
    """``lazy`` equals ``eager`` bit for bit in its value and every slot it carries."""
    for slot in ("value", "grad", "hess", "third"):
        a = getattr(lazy, slot)
        if a is not None:
            b = getattr(eager, slot)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), slot


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_fields_built_on_read_match_the_eager_formulas(chart, order, random_points):
    frame = CH.eval_chart(CHARTS[chart], random_points, order=order)
    tau = E.eval_at(
        E.parse_tau("0.3*sin(u) + 0.2*cos(v)"), CHARTS[chart].domain.wrap(random_points), order
    )
    res = RB.transform(frame, tau)
    f, xi, tv = frame.f, frame.xi, tau.vec()
    xi_hat = xi - tv * f + tv * res.f_hat
    alpha = J.stack([L.lie_inner(f.deriv(i), -res.f_check) for i in range(2)], axis=-1)
    fch = res.f_check + res.mu2.vec() * (f - res.f_hat)
    assert res.xi_hat.order == xi_hat.order == res.f_hat.order
    assert res.alpha.order == alpha.order
    assert RB.f_check_hat(res).order == res.f_hat.order - 1
    _same_bits(res.xi_hat, xi_hat)
    _same_bits(res.alpha, alpha)
    _same_bits(RB.f_check_hat(res), fch)


def _transforms(monkeypatch) -> list:
    """Every :class:`TransformResult` built from now on, in order."""
    results, transform = [], RB.transform

    def spy(*args, **kwargs):
        results.append(transform(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(RB, "transform", spy)
    return results


def _built(res) -> set:
    return {"xi_hat", "alpha"} & set(vars(res))


def test_transform_builds_xi_hat_and_alpha_on_read(square_torus, torus_frame_16):
    grid, frame = torus_frame_16
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), _flat_points(square_torus, grid))
    res = RB.transform(frame, tau)
    assert _built(res) == set()
    assert res.alpha is res.alpha and _built(res) == {"alpha"}


def test_export_builds_neither_xi_hat_nor_alpha(tmp_path, monkeypatch):
    results = _transforms(monkeypatch)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"chart": CH.chart_to_json(CHARTS["clifford_torus"]),
                                 "tau": "0.3*sin(u)", "grid": [16, 16]}))
    assert cli.main(["export", "--scene", str(scene), "--out", str(tmp_path / "o")]) == 0
    assert results and all(_built(res) == set() for res in results)


def test_family_and_dual_step_build_alpha_only_where_read(square_torus, monkeypatch):
    results = _transforms(monkeypatch)
    grid = Grid(16, 16, square_torus.domain)
    tau0, tau1 = E.parse_tau("0.3*sin(u)"), E.parse_tau("2 + 0.2*cos(v)")
    family = D.build_family(square_torus, tau0, tau1, grid)
    D.family_report(family, [0.3])
    # both generators and the member read alpha; nothing reads xi_hat
    assert [_built(res) for res in results] == [{"alpha"}] * 3
    results.clear()
    D.dual_family_step(family, Grid(8, 8, Domain((0.1, 6.1), (0.1, 6.1), (False, False))))
    # each dual block transforms by tau0, then by tau1, and reads the second's alpha only
    assert len(results) == 6
    assert [_built(res) for res in results] == [set(), {"alpha"}] * 3


def test_check_builds_no_order_2_vector_product(square_torus, monkeypatch):
    # no reader takes the Hessian of a product with a jet or an array operand
    # (an array is lifted to a constant jet and runs the full product rule), nor
    # of a vector- or matrix-valued jet scaled by a number; a number times a
    # scalar jet only scales the slots that jet has
    mul, built = Jet2.__mul__, []

    def spy(x, y):
        out = mul(x, y)
        if out.order == 2 and (not J._is_number(y) or out.value.ndim > 1):
            built.append(out.value.shape)
        return out

    monkeypatch.setattr(Jet2, "__mul__", spy)
    monkeypatch.setattr(Jet2, "__rmul__", spy)
    grid = Grid(16, 16, square_torus.domain)
    RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)
    assert built == []


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
        np.nanmin(np.abs(res.metric.det)), rel=1e-9
    )
    assert max(np.max(pw[k]) for k in ("eq6", "eq9", "eq13")) < 1e-12


# ---------- memory layout ----------

_SLOTS = ("value", "grad", "hess", "third")


def _c_ordered(jet: Jet2) -> Jet2:
    """``jet`` with every slot copied to C order: the component axis innermost."""
    slots = [getattr(jet, slot) for slot in _SLOTS]
    slots = [None if a is None else np.ascontiguousarray(a) for a in slots]
    return Jet2(slots[0], slots[1], slots[2], jet.m, slots[3])


def _batch_stride_is_smallest(a: np.ndarray, batch: int) -> bool:
    others = [abs(s) for k, (s, n) in enumerate(zip(a.strides, a.shape)) if k != batch and n > 1]
    return abs(a.strides[batch]) < min(others)


def test_vector_and_matrix_jets_keep_the_batch_axis_innermost(square_torus, random_points):
    """A speed invariant, not a correctness one, and it depends on the numpy
    version: the layout is carried through the engine by numpy keeping its
    inputs' memory order in elementwise results, fancy indexing and
    ``np.stack``, observed on numpy 2.4.  Bits never depend on the layout
    (``test_layout_never_moves_bits``)."""
    frame, tau = _frame_and_tau(square_torus, "0.2*sin(u)+0.1*cos(v)", random_points)
    res = RB.transform(frame, tau)
    u, v = J.seed(random_points, order=3)
    jets = {
        "stack": J.stack([u, v, u * v]),
        "mat_from_rows": J.mat_from_rows([[u, v], [v, u * v]]),
        "spatial_vector": L.spatial_vector([u, v, u * v, v - u]),
        "f": frame.f, "xi": frame.xi, "f_hat": res.f_hat, "f_check": res.f_check,
        "G": res.metric.G, "Ginv": res.metric.Ginv,
    } | {f"V{i}": V for i, V in enumerate(res.metric.V)}
    for name, jet in jets.items():
        assert jet.order > 0
        for k, slot in enumerate(_SLOTS[: jet.order + 1]):
            batch = min(k, 1)  # a derivative slot's batch axis follows its derivative axis
            assert _batch_stride_is_smallest(getattr(jet, slot), batch), (name, slot)
    # a partial's gradient is a view of Hessian rows, so one component of it is
    # one block of memory, not rows a whole vector apart
    for i in range(2):
        grad = frame.f.deriv(i).grad
        assert all(grad[..., k].flags.c_contiguous for k in range(grad.shape[-1])), i


@pytest.mark.parametrize("src", ["0.2*sin(u)+0.1*cos(v)", "sin(u)*sin(v)"])
def test_layout_never_moves_bits(square_torus, src):
    # a frame of C-ordered copies transforms to the same bytes in every slot
    points = _flat_points(square_torus, Grid(16, 16, square_torus.domain))
    frame, tau = _frame_and_tau(square_torus, src, points)
    c_frame = L.LegendreFrame(_c_ordered(frame.f), _c_ordered(frame.xi), frame.cert)
    assert not _batch_stride_is_smallest(c_frame.f.value, 0)
    got, want = RB.transform(c_frame, tau), RB.transform(frame, tau)

    def jets(r):
        return [r.f_hat, r.f_check, r.xi_hat, r.alpha, r.a, r.b, r.mu2,
                r.metric.G, r.metric.Ginv, *r.metric.V, RB.alpha_hat(r)]

    for x, y in zip(jets(got), jets(want)):
        for slot in _SLOTS:
            a, b = getattr(x, slot), getattr(y, slot)
            assert (a is None) == (b is None) and (a is None or a.shape == b.shape), slot
            assert a is None or a.tobytes() == b.tobytes(), slot
    for a, b in [(got.metric.det, want.metric.det), (got.metric.singular, want.metric.singular)]:
        assert a.tobytes() == b.tobytes()
    pw_got = RB.pointwise_residuals(got, RB.alpha_hat(got))
    pw_want = RB.pointwise_residuals(want, RB.alpha_hat(want))
    assert {k: v.tobytes() for k, v in pw_got.items()} == {
        k: v.tobytes() for k, v in pw_want.items()
    }


# ---------- closedness ----------


def test_constant_tau_alpha_identically_zero(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "2", random_points)
    maxd, _ = RB.ribaucour_residual(RB.transform(frame, tau))
    assert maxd == 0.0


def test_u_only_tau_is_closed(square_torus, torus_frame_32):
    grid, frame = torus_frame_32
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), _flat_points(square_torus, grid))
    maxd, _ = RB.ribaucour_residual(RB.transform(frame, tau))
    assert maxd < 1e-10


def test_separable_product_tau_is_not_closed(square_torus):
    grid = Grid(64, 64, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), _flat_points(square_torus, grid))
    res = RB.transform(frame, tau)
    maxd, loc = RB.ribaucour_residual(res)
    assert maxd > 1e-2
    assert not RB.classify_ribaucour(maxd, RB.max_abs_alpha(res))


def test_strict_mode_raises_on_singular_grid(square_torus):
    grid = Grid(64, 64, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    points = _flat_points(square_torus, grid)
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), points)
    res = RB.transform(frame, tau)
    with pytest.raises(NotRegular) as exc:
        NotRegular.raise_first(res.metric.singular, points, "congruence metric")
    # the first singular point, u = v = pi/2
    assert exc.value.index == (1040,)
    np.testing.assert_array_equal(exc.value.point, [np.pi / 2.0, np.pi / 2.0])


def test_classification_is_scale_aware():
    assert RB.classify_ribaucour(5e-8, 0.0)
    assert not RB.classify_ribaucour(5e-7, 0.0)
    assert RB.classify_ribaucour(5e-7, 10.0)


# ---------- reconstruction ----------


def test_double_antipode_reconstruction(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0", random_points)
    res = RB.transform(frame, tau)
    diag = RB.reconstruct(res, RB.DET_REL_TOL)
    RB.judge_reconstruction(diag, square_torus.domain.wrap(random_points))
    assert diag["involution"] == 0.0  # the reconstructed frame is bit-identical


def test_involution_on_grid(square_torus, torus_frame_32):
    grid, frame = torus_frame_32
    points = _flat_points(square_torus, grid)
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), points)
    res = RB.transform(frame, tau)
    diag = RB.reconstruct(res, RB.DET_REL_TOL)
    RB.judge_reconstruction(diag, points)
    assert diag["involution"] < 1e-9
    assert diag["eq10"] < 1e-9
    assert diag["mu_match"] < 1e-9


def test_involution_failure_detected(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "0.3*sin(u)", random_points)
    res = RB.transform(frame, tau)
    # (-f_hat, xi_hat) is still a Legendre frame, but not the transform pair;
    # xi_hat is read first, so that it is built from f_hat, not -f_hat
    res.xi_hat
    res.f_hat = -res.f_hat
    points = square_torus.domain.wrap(random_points)
    with pytest.raises(InvolutionFailure):
        RB.judge_reconstruction(RB.reconstruct(res, RB.DET_REL_TOL), points)


# ---------- the hypersurface route ----------


def test_shape_operator_route_vanishes_for_constants(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "2", random_points)
    res = RB.transform(frame, tau)
    alt = shape_operator_path(frame, tau)
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
    alt = shape_operator_path(frame, tau)
    assert np.max(np.abs(alt.value - res.f_check.value)) < 1e-10


# ---------- curvature identity ----------


def _curvature_scale(res, ah):
    """The largest |lhs| + |rhs| of the curvature identity off the singular
    points, from RB.wedge."""
    lhs = RB.wedge(
        RB.corrected_differential(res.frame.f, res.alpha).value,
        RB.corrected_differential(res.f_hat, ah).value,
    )
    rhs = (1.0 - res.a.value)[..., None] * RB.dalpha_components(res)
    mag = np.abs(lhs) + np.abs(rhs)
    return float(np.nanmax(np.where(res.metric.singular[..., None], np.nan, mag)))


def test_curvature_identity_constant_tau(square_torus, random_points):
    frame, tau = _frame_and_tau(square_torus, "2", random_points)
    res = RB.transform(frame, tau)
    ah = RB.alpha_hat(res)
    assert RB.curvature_identity(res, ah) < 1e-14
    assert _curvature_scale(res, ah) < 1e-14  # both sides vanish


def test_curvature_identity_on_grid(square_torus, torus_frame_32):
    grid, frame = torus_frame_32
    tau = E.eval_at(E.parse_tau("0.3*sin(u)"), _flat_points(square_torus, grid))
    res = RB.transform(frame, tau)
    assert RB.curvature_identity(res, RB.alpha_hat(res)) < 1e-8


def test_curvature_identity_off_the_closed_locus(square_torus):
    # the identity relates the two sides even when both are nonzero
    grid = Grid(32, 32, square_torus.domain)
    frame = CH.eval_chart(square_torus, grid.points().reshape(-1, 2))
    tau = E.eval_at(E.parse_tau("sin(u)*sin(v)"), _flat_points(square_torus, grid))
    res = RB.transform(frame, tau)
    ah = RB.alpha_hat(res)
    scale = _curvature_scale(res, ah)
    assert scale > 1e-2  # genuinely nonzero sides
    assert RB.curvature_identity(res, ah) / scale < 1e-6


# ---------- grid runner ----------


def test_run_grid_report_schema(square_torus):
    grid = Grid(16, 16, square_torus.domain)
    rep, _ = RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)
    assert set(rep["residuals"].keys()) == {
        "eq6", "eq9", "eq10", "eq13", "involution", "curvature_identity",
    }
    assert rep["ribaucour"] is True
    assert rep["regular"] is True
    assert rep["grid"] == [16, 16]


def test_supporting_residuals_are_reported(square_torus, monkeypatch):
    grid = Grid(16, 16, square_torus.domain)
    rep, run = RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)
    assert rep["supporting_residuals"] == {
        **{k: run.peaks["suite"][k] for k in (
            "fcheck_orth_f", "fcheck_orth_xi", "mu2_match", "envelope", "metric_match",
            "alpha_forms", "hat_min_abs_det",
        )},
        "mu_match": run.peaks["reconstruction"]["mu_match"],
    }
    # a value that is not finite is written as null
    suite, reconstruct = RB.residual_suite, RB.reconstruct
    monkeypatch.setattr(RB, "residual_suite", lambda pw: suite(pw) | {"envelope": np.inf})
    monkeypatch.setattr(
        RB, "reconstruct", lambda *args: reconstruct(*args) | {"mu_match": np.nan}
    )
    rep, _ = RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)
    assert rep["supporting_residuals"]["envelope"] is None
    assert rep["supporting_residuals"]["mu_match"] is None
    assert json.loads(G.canonical_json(rep)) == rep


def test_run_grid_notregular_when_everywhere_singular(square_torus):
    grid = Grid(8, 8, square_torus.domain)
    with pytest.raises(NotRegular):
        RB.run_grid(square_torus, E.parse_tau("1"), grid)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_classification_stable_under_refinement(square_torus, n):
    grid = Grid(n, n, square_torus.domain)
    rep, _ = RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)
    assert rep["ribaucour"]
    rep2, _ = RB.run_grid(square_torus, E.parse_tau("sin(u)*sin(v)"), grid)
    assert not rep2["ribaucour"]


# ---------- blocks ----------

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def _scene(name, **overrides):
    obj = json.loads((SCENES / name).read_text(encoding="utf-8"))
    return cli.scene_from_json(obj | overrides)


def _scene_run(name, monkeypatch, block, grid=(20, 19), columns=None, **overrides):
    """run_grid on a shipped scene with ``RB.BLOCK`` set to ``block``."""
    scene = _scene(name, **overrides)
    monkeypatch.setattr(RB, "BLOCK", block)
    return RB.run_grid(scene.chart, scene.tau, Grid(*grid, scene.chart.domain), columns=columns)


@pytest.mark.parametrize("name", ["check_sinu.json", "check_sinusinv.json", "check_custom.json"])
def test_blocks_cannot_change_results(name, monkeypatch):
    # 20 x 19 = 380 points: ten blocks of 37 and a last one of 10
    whole_report, whole = _scene_run(name, monkeypatch, 380, columns=RB.field_columns)
    split_report, split = _scene_run(name, monkeypatch, 37, columns=RB.field_columns)
    assert split_report == whole_report
    assert split.cert == whole.cert
    assert split.peaks["suite"] == whole.peaks["suite"]
    assert split.peaks["curvature"] == whole.peaks["curvature"]
    np.testing.assert_array_equal(split.points[:], whole.points[:])
    assert split.peaks["n_singular"] == whole.peaks["n_singular"]
    a, b = split.values, whole.values
    assert list(a) == list(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])  # NaN == NaN here
    # check keeps no per-point column, and its verdicts are the same
    bare_report, bare = _scene_run(name, monkeypatch, 37)
    assert bare.values == {}
    assert bare_report == whole_report
    assert bare.peaks["n_singular"] == whole.peaks["n_singular"]


def _bits(peaks: dict) -> dict:
    return {k: _bits(v) if isinstance(v, dict) else np.float64(v).tobytes() for k, v in peaks.items()}


@pytest.mark.parametrize("block", [4096, 37])
def test_masked_degenerate_points_match_the_regular_subset_route(block, monkeypatch):
    # 4 of check_sinusinv's 64 x 64 points are degenerate; the grid is one
    # block, or 111 blocks of 37.  Each block is transformed once, and its
    # reverse transform once, with the degenerate points masked in place.
    scene = _scene("check_sinusinv.json")
    grid = Grid(64, 64, scene.chart.domain)
    points = grid.points().reshape(-1, 2)
    frame = CH.eval_chart(scene.chart, points)
    ref = subset_route(frame, E.eval_at(scene.tau, scene.chart.domain.wrap(points)))
    monkeypatch.setattr(RB, "BLOCK", block)
    results = _transforms(monkeypatch)
    _, run = RB.run_grid(scene.chart, scene.tau, grid, columns=RB.field_columns)
    peaks = run.peaks
    assert len(results) == 2 * -(-len(points) // block)
    assert peaks["n_singular"] == 4
    assert _bits(peaks["suite"]) == _bits(ref["suite"])
    assert _bits({"curvature": peaks["curvature"]}) == _bits({"curvature": ref["curvature"]})
    recon, ref_recon = dict(peaks["reconstruction"]), dict(ref["reconstruction"])
    for check in ("back_not_finite", "back_singular"):
        assert peaks.get(check) is None and not ref_recon.pop(check).any()
    assert _bits(recon) == _bits(ref_recon)
    for key, column in ref["columns"].items():
        assert run.values[key].tobytes() == column.tobytes(), key


def test_reverse_transform_error_names_the_grid_index(monkeypatch):
    # the reverse transform is made to degenerate at the block's last regular
    # point, grid point 4095 of check_sinusinv's 64 x 64, which 4 degenerate
    # points precede; the error names it by its grid index
    reconstruct = RB.reconstruct

    def flag_last_regular(result, det_rel_tol):
        diag = reconstruct(result, det_rel_tol)
        diag["back_singular"][np.flatnonzero(~result.metric.singular)[-1]] = True
        return diag

    monkeypatch.setattr(RB, "reconstruct", flag_last_regular)
    scene = _scene("check_sinusinv.json")
    grid = Grid(64, 64, scene.chart.domain)
    with pytest.raises(NotRegular) as info:
        RB.run_grid(scene.chart, scene.tau, grid)
    exc = info.value
    wrapped_points = scene.chart.domain.wrap(grid.points().reshape(-1, 2))
    assert exc.index == (4095,)
    np.testing.assert_array_equal(wrapped_points[exc.index], exc.point)


def test_reverse_transform_that_is_not_finite_names_its_grid_index(monkeypatch):
    # check_sinusinv's 64 x 64 in blocks of 1024: each block transforms, then
    # transforms back; the third block's reverse transform is made not finite
    # at its point 297, grid point 2345, marked as transform marks such a point.
    # The run reports a transform that is not finite there, not a degenerate metric
    transform, calls = RB.transform, []

    def not_finite_once(*args, **kwargs):
        res = transform(*args, **kwargs)
        calls.append(res)
        if len(calls) == 6:
            res.not_finite[297] = res.metric.singular[297] = True
        return res

    monkeypatch.setattr(RB, "BLOCK", 1024)
    monkeypatch.setattr(RB, "transform", not_finite_once)
    scene = _scene("check_sinusinv.json")
    grid = Grid(64, 64, scene.chart.domain)
    with pytest.raises(DomainErrorJet, match="^reverse transform is not finite at") as info:
        RB.run_grid(scene.chart, scene.tau, grid)
    exc = info.value
    assert len(calls) == 8 and exc.index == (2345,)
    np.testing.assert_array_equal(scene.chart.domain.wrap(grid[2345:2346])[0], exc.point)


def _with_chart(name, overrides):
    """``overrides`` with a ``chart`` given as a custom chart's f (a list, or its first component)."""
    overrides = dict(overrides)
    if isinstance(overrides.get("chart"), (str, list)):
        chart = json.loads((SCENES / name).read_text(encoding="utf-8"))["chart"]
        f = overrides["chart"]
        chart["f"] = f if isinstance(f, list) else [f] + chart["f"][1:]
        overrides["chart"] = chart
    return overrides


def _raised(name, monkeypatch, block, **overrides):
    with pytest.raises(LieSphereError) as info:
        _scene_run(name, monkeypatch, block, **overrides)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "point", None)


LATE_CONTACT = ["0.6*cos(u) + 1e-3*exp(3*(u-6))", "0.6*sin(u)", "0.8*cos(v)", "0.8*sin(v)"]
LATE_OVERFLOW = "0.6*cos(u) + 1e-300*exp(exp(exp(u-4)))"


@pytest.mark.parametrize(
    "name, overrides, kind",
    [
        # every point is singular: the first point of the grid is named
        ("check_sinu.json", {"tau": "1"}, NotRegular),
        # tau overflows only in the last rows of u
        ("check_sinu.json", {"tau": "exp(exp(exp(u-4)))"}, DomainErrorJet),
        # a custom component overflows
        ("check_custom.json", {"chart": "exp(exp(exp(u)))"}, DomainErrorJet),
        # ... only in the last row of u, after earlier blocks were transformed
        ("check_custom.json", {"chart": LATE_OVERFLOW}, DomainErrorJet),
        # the frame fails only in a later block; its residual is the whole grid's
        ("check_custom.json", {"chart": LATE_CONTACT}, ContactViolation),
        # ... and certification still comes before a tau error in an earlier block
        ("check_custom.json", {"chart": LATE_CONTACT, "tau": "exp(exp(exp(u)))"},
         ContactViolation),
        # tau is finite, but its transform overflows only in the last rows of u
        ("check_sinu.json", {"tau": "exp(250*(u-4.7))"}, DomainErrorJet),
    ],
)
def test_blocks_raise_what_the_whole_grid_raises(name, overrides, kind, monkeypatch):
    overrides = _with_chart(name, overrides)
    whole = _raised(name, monkeypatch, 380, **overrides)
    split = _raised(name, monkeypatch, 37, **overrides)
    assert whole[0] is kind
    assert split[:3] == whole[:3]
    np.testing.assert_array_equal(split[3], whole[3])


def test_each_tau_is_evaluated_once_per_block(monkeypatch):
    # 20 x 19 = 380 points in blocks of 37: eleven blocks, one evaluation each
    calls, eval_at = [], E.eval_at
    monkeypatch.setattr(E, "eval_at", lambda *args: calls.append(args) or eval_at(*args))
    _scene_run("check_sinu.json", monkeypatch, 37)
    assert len(calls) == 11


@pytest.mark.parametrize("copies", [1, 2])
def test_closedness_peak_in_a_later_block(copies, monkeypatch):
    # sin(u) sin(v) is not closed, and its peak is point 129 of the 20 x 19
    # grid, in the fourth block of 37.  Two copies of the grid tie it with
    # point 509, in a later block at either size, and the first index wins.
    chart, tau_src = CH.CliffordTorus(np.sqrt(0.5)), "sin(u)*sin(v)"
    points = np.concatenate([Grid(20, 19, chart.domain).points().reshape(-1, 2)] * copies)
    frame, tau = _frame_and_tau(chart, tau_src, points)
    d = np.max(np.abs(RB.dalpha_components(RB.transform(frame, tau))), axis=-1)
    first = int(np.argmax(d))
    assert first == 129 and np.count_nonzero(d == d[first]) == copies
    for block in (37, 380):
        monkeypatch.setattr(RB, "BLOCK", block)
        if copies == 1:
            report, run = RB.run_grid(chart, E.parse_tau(tau_src), Grid(20, 19, chart.domain))
            assert report["max_dalpha"] == d[first]
            assert report["max_dalpha_at"] == points[first].tolist()
        else:  # no grid holds two copies of one: the grid runner's block body walks them
            run = RB.eval_blocks(
                chart, points, [(E.parse_tau(tau_src), 2)],
                lambda frame, taus, key: RB._run_block(frame, taus[0], key, RB.DET_REL_TOL, None),
            )
        assert run.peaks["dalpha"] == (d[first], first)
        assert run.points[(first,)].tolist() == points[first].tolist()


def test_merge_peaks_rule():
    early = {
        "eq6": 1.0, "hat_min_abs_det": 0.5, "dalpha": (2.0, 7),
        "cert": {"unit_f": 1e-16, "immersion_min": 0.3},
    }
    late = {
        "eq6": 3.0, "hat_min_abs_det": 0.25, "dalpha": (2.0, 40),
        "cert": {"unit_f": 1e-17, "immersion_min": 0.1}, "ill_posed": 1.0,
    }
    assert RB.merge_peaks(early, late) == {
        "eq6": 3.0, "hat_min_abs_det": 0.25, "dalpha": (2.0, 7),  # first index on ties
        "cert": {"unit_f": 1e-16, "immersion_min": 0.1}, "ill_posed": 1.0,
    }
    assert RB.merge_peaks((2.0, 7), (2.5, 40)) == (2.5, 40)
    assert RB.merge_peaks((-np.inf, None), (-np.inf, None)) == (-np.inf, None)
    # a block without peaks
    assert RB.merge_peaks(None, early) == RB.merge_peaks(early, None) == early
    assert RB.merge_peaks(None, None) is None
    # NaN wins over any number, before it or after it, for maxima and minima
    for key in ("eq6", "immersion_min"):
        assert np.isnan(RB.merge_peaks(1.0, np.nan, key))
        assert np.isnan(RB.merge_peaks(np.nan, 1.0, key))


def test_nan_in_a_later_block_fails_certification(square_torus, monkeypatch):
    # 20 x 19 = 380 points in blocks of 37: only the last block, of 10 points,
    # has a NaN contact residual
    residuals = L.frame_residuals

    def late_nan(f, xi, keep=True):
        res = residuals(f, xi, keep)
        return res | {"contact_df": np.nan} if len(f.value) == 10 else res

    monkeypatch.setattr(L, "frame_residuals", late_nan)
    monkeypatch.setattr(RB, "BLOCK", 37)
    grid = Grid(20, 19, square_torus.domain)
    with pytest.raises(ContactViolation, match="not finite"):
        RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)


def _cli_outputs(argv, name, overrides, tmp_path, monkeypatch, capsys, block):
    """Exit code, printed text and every written file of one CLI run at ``RB.BLOCK = block``."""
    obj = json.loads((SCENES / name).read_text(encoding="utf-8"))
    obj.update(_with_chart(name, overrides))
    scene = tmp_path / f"scene{block}.json"
    scene.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / f"out{block}"
    monkeypatch.setattr(RB, "BLOCK", block)
    code = cli.main(argv + ["--scene", str(scene), "--out", str(out)])
    printed = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, printed.out.replace(str(out), "OUT"), printed.err, files


# tau = 1 is a curvature sphere of the square torus; this tau meets it only on
# the row u = u_17 of a 20-row grid, in a later block of 37 points
LATE_SINGULAR = "1 + (u - 5.340707511102648)^2"


@pytest.mark.parametrize(
    "argv, name, overrides",
    [
        (["export"], "check_sinu.json", {}),
        (["export", "--pole-flip", "--json"], "check_custom.json", {}),
        (["export"], "check_sinusinv.json", {}),  # singular: f only
        (["export"], "check_sinu.json", {"tau": LATE_SINGULAR}),  # ... only in a later block
        (["demoulin", "--dual"], "demoulin_dual_2d.json", {}),
        (["demoulin"], "demoulin_sinu.json", {"thetas": [0.0, 0.3, np.pi / 4, 2.5, np.pi / 2]}),
    ],
)
def test_blocks_cannot_change_command_files(
    argv, name, overrides, tmp_path, monkeypatch, capsys
):
    # every file, the printed text and the exit code, on 20 x 19 = 380 points
    overrides = dict(overrides, grid=[20, 19])
    whole = _cli_outputs(argv, name, overrides, tmp_path, monkeypatch, capsys, 380)
    split = _cli_outputs(argv, name, overrides, tmp_path, monkeypatch, capsys, 37)
    assert whole[3]
    assert split == whole


@pytest.mark.parametrize(
    "argv, name, overrides, which",
    [
        # tau's transform overflows only in the last rows of u
        (["check"], "check_sinu.json", {"tau": "exp(250*(u-4.7))"}, "not_finite"),
        (["export"], "check_sinu.json", {"tau": "exp(250*(u-4.7))"}, "not_finite"),
        # tau1 meets a curvature sphere only on the row u = u_17
        (["demoulin"], "demoulin_sinu.json", {"tau1": LATE_SINGULAR}, "singular"),
    ],
)
def test_first_index_peaks_name_the_first_point_of_one_pass(
    argv, name, overrides, which, tmp_path, monkeypatch, capsys
):
    # a point check merged over blocks names the point np.argwhere finds in
    # one whole-grid transform, in a later block of 37, at either block size
    scene = _scene(name, grid=[20, 19], **overrides)
    points = Grid(20, 19, scene.chart.domain).points().reshape(-1, 2)
    tau = scene.tau1 if argv == ["demoulin"] else scene.tau
    with np.errstate(all="ignore"):
        frame = CH.eval_chart(scene.chart, points)
        res = RB.transform(frame, E.eval_at(tau, scene.chart.domain.wrap(points)))
    first = int(np.argwhere(res.not_finite if which == "not_finite" else res.metric.singular)[0, 0])
    assert first >= 37
    point = np.round(scene.chart.domain.wrap(points[first]), 6).tolist()
    overrides = dict(overrides, grid=[20, 19])
    for block in (37, 380):
        code, _, err, _ = _cli_outputs(argv, name, overrides, tmp_path, monkeypatch, capsys, block)
        assert code == 1
        assert f"at batch index ({first},), parameter point {point}" in err


def _family_run(name, monkeypatch, block, **overrides):
    """build_family, the members, parallel sections and the dual step (if the
    scene asks), in the CLI's order, on a 20 x 19 grid at ``RB.BLOCK = block``:
    the family report and each member's (tau, f_hat)."""
    obj = json.loads((SCENES / name).read_text(encoding="utf-8"))
    obj.update(_with_chart(name, overrides))
    scene = cli.scene_from_json(obj)
    monkeypatch.setattr(RB, "BLOCK", block)
    family = D.build_family(scene.chart, scene.tau, scene.tau1, Grid(20, 19, scene.chart.domain))
    dual = D.dual_family_step(family) if scene.dual else None
    members = []
    report = D.family_report(
        family, scene.thetas, dual=dual, each=lambda tau, f_hat: members.append((tau, f_hat))
    )
    return report, members


@pytest.mark.parametrize(
    "name, overrides",
    # the dual step is compared by test_blocks_cannot_change_command_files
    [("demoulin_sinu.json", {}), ("demoulin_dual_2d.json", {"dual": False})],
)
def test_family_blocks_cannot_change_results(name, overrides, monkeypatch):
    whole_report, whole = _family_run(name, monkeypatch, 380, **overrides)
    split_report, split = _family_run(name, monkeypatch, 37, **overrides)
    assert split_report == whole_report
    assert len(split) == len(whole) == 8
    for (tau_a, f_hat_a), (tau_b, f_hat_b) in zip(split, whole):
        np.testing.assert_array_equal(tau_a, tau_b)  # NaN == NaN here, so the masks agree
        np.testing.assert_array_equal(f_hat_a, f_hat_b)


def _family_raised(name, monkeypatch, block, **overrides):
    with pytest.raises(LieSphereError) as info:
        _family_run(name, monkeypatch, block, **overrides)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "point", None)


NON_PERIODIC_TORUS = {
    "kind": "clifford_torus",
    "r": 0.7071067811865476,
    "domain": {"u": [0, 2 * np.pi], "v": [0, 2 * np.pi], "periodic": [False, False]},
}


@pytest.mark.parametrize(
    "name, overrides, kind",
    [
        # a generator singular everywhere, and one singular only in a later block
        ("demoulin_sinu.json", {"tau": "1"}, NotRegular),
        ("demoulin_sinu.json", {"tau1": LATE_SINGULAR}, NotRegular),
        ("demoulin_sinu.json", {"tau1": "2 + 0.2*sin(u)*sin(v)"}, NotRibaucour),
        ("demoulin_sinu.json", {"tau1": "0"}, NotPointwiseDistinct),
        ("demoulin_sinu.json", {"tau": "0", "tau1": "2", "thetas": [3 * np.pi / 4]}, FullyMasked),
        ("check_custom.json", {"chart": LATE_CONTACT, "tau1": "2"}, ContactViolation),
        # the dual step's second transform meets tau = 1 at the patch's index 40,
        # in its third block of 18 order-3 points
        (
            "demoulin_dual_2d.json",
            {"chart": NON_PERIODIC_TORUS, "tau1": "1 + (v - 3.9623398775743413)^2"},
            NotRegular,
        ),
        # tau1 overflows only in the last rows of u, after earlier blocks were transformed
        ("demoulin_sinu.json", {"tau1": "2 + exp(exp(exp(u-4)))"}, DomainErrorJet),
        # tau1 is finite, but its transform overflows only on the last row of u
        ("demoulin_sinu.json", {"tau1": "2 + 1e8*exp(1e150*(u - 5.969026041820607))"},
         DomainErrorJet),
    ],
)
def test_family_blocks_raise_what_the_whole_grid_raises(name, overrides, kind, monkeypatch):
    whole = _family_raised(name, monkeypatch, 380, **overrides)
    split = _family_raised(name, monkeypatch, 37, **overrides)
    assert whole[0] is kind
    assert split[:3] == whole[:3]
    np.testing.assert_array_equal(split[3], whole[3])


def _command_peak(command, scene, n, tmp_path):
    """Peak traced allocation of one CLI run on an n x n grid."""
    out = str(tmp_path / str(n))
    argv = [command, "--scene", str(SCENES / scene), "--grid", f"{n}x{n}", "--out", out]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "command, scene", [("export", "check_sinu.json"), ("demoulin", "demoulin_sinu.json")]
)
def test_command_memory_does_not_grow_with_the_grid(command, scene, tmp_path):
    small = _command_peak(command, scene, 64, tmp_path)
    large = _command_peak(command, scene, 128, tmp_path)  # one block against four
    assert large < 1.5 * small


def test_check_memory_is_flat_in_the_grid(tmp_path):
    # check keeps no per-point array: its verdicts are peaks, and each block
    # makes its own points, so nine or 36 blocks peak close to one
    small = _command_peak("check", "check_sinu.json", 64, tmp_path)
    for n in (192, 384):
        assert _command_peak("check", "check_sinu.json", n, tmp_path) < 1.25 * small


def _check_minor_faults(n, tmp_path):
    """Minor page faults of one fresh ``check`` process on an n x n grid."""
    path = [str(Path(RB.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = [sys.executable, "-m", "liesphere.cli", "check", "--scene", str(SCENES / "check_sinu.json"),
            "--grid", f"{n}x{n}", "--out", str(tmp_path / str(n))]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert proc.returncode == 0
    return rusage.ru_minflt


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's heap",
)
def test_check_page_faults_do_not_grow_with_the_grid(tmp_path):
    # each walk keeps glibc's heap, so a block reuses the pages the last one
    # freed; handed back to the OS, nine blocks fault about four times as often
    # as one
    small = _check_minor_faults(64, tmp_path)
    large = _check_minor_faults(192, tmp_path)
    assert large < 1.5 * small


class _AllocatorSpy:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return 1

    def malloc_trim(self, pad):
        self.calls.append(("malloc_trim", pad))
        return 1


def test_every_walk_keeps_the_heap_then_trims_it(square_torus, monkeypatch):
    spy = _AllocatorSpy()
    monkeypatch.setattr(RB, "_LIBC", spy)
    walk = [("mallopt", -3, 4 << 20), ("mallopt", -1, 64 << 20), ("malloc_trim", 0)]
    grid = Grid(16, 16, square_torus.domain)
    RB.run_grid(square_torus, E.parse_tau("0.3*sin(u)"), grid)
    assert spy.calls == walk

    def body(frame, taus, key):
        raise ValueError("a body that raises")

    with pytest.raises(ValueError):  # the heap is trimmed all the same
        RB.eval_blocks(square_torus, grid.points().reshape(-1, 2), [], body)
    assert spy.calls == walk + walk


@pytest.mark.parametrize("command", ["check", "transform"])
def test_walks_without_glibc_write_the_same_files(command, tmp_path, monkeypatch):
    # where libc has no mallopt, the heap is left to the allocator; that is all
    def files(out):
        argv = [command, "--scene", str(SCENES / "check_sinu.json"), "--out", str(out)]
        assert cli.main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    kept = files(tmp_path / "kept")
    monkeypatch.setattr(RB, "_LIBC", None)
    assert files(tmp_path / "left") == kept


def test_run_grid_memory_does_not_grow_with_the_grid(square_torus):
    tau = E.parse_tau("0.3*sin(u)")

    def peak(n):
        grid = Grid(n, n, square_torus.domain)
        tracemalloc.start()
        try:
            RB.run_grid(square_torus, tau, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(64), peak(128)  # one block against four
    assert large < 1.5 * small


def test_run_grid_carries_no_third_slot(monkeypatch):
    # order 3 is seeded only by the dual step; the grid runner stays at order 2
    scene = cli.load_scene(Path(__file__).resolve().parents[1] / "scenes/check_sinu.json")
    orders = []
    init = Jet2.__init__

    def spy(self, value, grad, hess, m, third=None):
        orders.append(third is not None)
        init(self, value, grad, hess, m, third)

    monkeypatch.setattr(Jet2, "__init__", spy)
    grid = Grid(*scene.grid, scene.chart.domain)
    assert RB.run_grid(scene.chart, scene.tau, grid)[0]["ribaucour"]
    assert len(orders) > 100 and not any(orders)

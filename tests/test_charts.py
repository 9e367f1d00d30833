"""Builtin charts, custom charts, and chart serialization."""

import numpy as np
import pytest

from liesphere import charts as CH
from liesphere.errors import SceneError
from reference import clifford_torus_exprs, principal_curvatures


def test_square_torus_point_values(square_torus):
    frame = CH.eval_chart(square_torus, np.zeros((1, 2)))
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(frame.f.value[0], [r, 0, r, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(frame.xi.value[0], [-r, 0, r, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("r", [0.5, 1 / np.sqrt(2), 0.6, 0.8])
def test_torus_contact_residuals(r, random_points):
    frame = CH.eval_chart(CH.CliffordTorus(r), random_points)
    assert frame.cert["contact_df"] < 1e-12
    assert frame.cert["contact_dxi"] < 1e-12
    assert frame.cert["unit_f"] < 1e-12


@pytest.mark.parametrize("r", [0.5, 1 / np.sqrt(2), 0.8])
def test_principal_curvatures(r, random_points):
    # convention dxi = -df o A: kappa_u = s/r, kappa_v = -r/s
    spec = CH.CliffordTorus(r)
    frame = CH.eval_chart(spec, random_points)
    ku, kv = principal_curvatures(spec)
    df_u = frame.f.deriv(0).value
    dxi_u = frame.xi.deriv(0).value
    np.testing.assert_allclose(dxi_u, -ku * df_u, atol=1e-14)
    df_v = frame.f.deriv(1).value
    dxi_v = frame.xi.deriv(1).value
    np.testing.assert_allclose(dxi_v, -kv * df_v, atol=1e-14)
    if abs(r - 1 / np.sqrt(2)) < 1e-15:
        assert ku == pytest.approx(1.0)
        assert kv == pytest.approx(-1.0)


def test_custom_chart_matches_builtin(random_points):
    f_exprs, xi_exprs = clifford_torus_exprs(0.6)
    custom = CH.chart_from_json(
        {
            "kind": "custom",
            "f": list(f_exprs),
            "xi": list(xi_exprs),
            "domain": {
                "u": [0, 2 * np.pi],
                "v": [0, 2 * np.pi],
                "periodic": [True, True],
            },
        }
    )
    a = CH.eval_chart(custom, random_points)
    b = CH.eval_chart(CH.CliffordTorus(0.6), random_points)
    assert np.max(np.abs(a.f.value - b.f.value)) < 1e-12
    assert np.max(np.abs(a.f.grad - b.f.grad)) < 1e-12
    assert np.max(np.abs(a.xi.hess - b.xi.hess)) < 1e-12


def test_parallel_chart_certifies(square_torus, random_points):
    frame = CH.eval_chart(CH.ParallelOf(square_torus, 0.35), random_points)
    assert frame.cert["contact_df"] < 1e-12
    assert frame.cert["orthogonality"] < 1e-12


def test_periodic_wrap(square_torus):
    a = CH.eval_chart(square_torus, np.array([[0.3, 1.0]]))
    b = CH.eval_chart(square_torus, np.array([[0.3 + 2 * np.pi, 1.0 - 2 * np.pi]]))
    np.testing.assert_allclose(a.f.value, b.f.value, atol=1e-12)


def test_wrap_leaves_points_in_the_domain_alone():
    # on an axis that does not start at 0, lo + ((x - lo) mod span) moves x by
    # an ulp (0.1 became 0.1 + 8.3e-17 on [-pi, pi)); a point inside keeps its bits
    dom = CH.Domain((-np.pi, np.pi), (0.0, 1.0), (True, False))
    rng = np.random.default_rng(3)
    inside = np.column_stack([rng.uniform(-np.pi, np.pi, 1000), rng.uniform(-5.0, 5.0, 1000)])
    inside = np.concatenate([inside, [[0.1, 0.0], [2.9, 9.0], [-np.pi, -1.0]]])
    assert dom.wrap(inside).tobytes() == inside.tobytes()
    # a point outside moves by whole periods, as before, and lands in [lo, hi)
    outside = inside + [[2 * np.pi, 0.0]] * rng.choice([-3, -1, 1, 2], size=(len(inside), 1))
    once = dom.wrap(outside)
    lo = -np.pi
    np.testing.assert_array_equal(once[:, 0], lo + np.mod(outside[:, 0] - lo, 2 * np.pi))
    assert np.all((once[:, 0] >= -np.pi) & (once[:, 0] < np.pi))
    assert dom.wrap(once).tobytes() == once.tobytes()  # wrapping twice changes nothing
    # one that would round to the end of the period, 0 + (-1e-20 mod 2 pi) = 2 pi,
    # wraps to its start
    assert CH.Domain().wrap(np.array([-1e-20, 7.0])).tolist() == [0.0, 7.0 - 2 * np.pi]
    # a single point, and NaN, go through as well
    assert np.isnan(dom.wrap(np.array([np.nan, 0.5]))[0])


def test_bad_radius_rejected():
    with pytest.raises(SceneError):
        CH.CliffordTorus(1.2)
    with pytest.raises(SceneError):
        CH.CliffordTorus(0.0)


def test_chart_json_roundtrip(square_torus):
    for spec in (
        square_torus,
        CH.ParallelOf(square_torus, 0.25),
        CH.chart_from_json(
            {
                "kind": "custom",
                "f": list(clifford_torus_exprs(0.5)[0]),
                "xi": list(clifford_torus_exprs(0.5)[1]),
            }
        ),
    ):
        again = CH.chart_from_json(CH.chart_to_json(spec))
        pt = np.array([[0.4, 0.9]])
        np.testing.assert_allclose(
            CH.eval_chart(spec, pt).f.value, CH.eval_chart(again, pt).f.value, atol=1e-15
        )


def test_bad_domain_rejected():
    with pytest.raises(SceneError):
        CH.chart_from_json(
            {"kind": "clifford_torus", "r": 0.5, "domain": {"u": [1, 1], "v": [0, 2]}}
        )
    with pytest.raises(SceneError):
        CH.chart_from_json({"kind": "mystery"})
    with pytest.raises(SceneError):
        CH.chart_from_json({"kind": "custom", "f": ["u", "v"]})


def test_chart_component_jets_vs_oracle(square_torus):
    from liesphere.gridio import fd_jet_oracle

    pt = np.array([1.1, 2.3])
    frame = CH.eval_chart(square_torus, pt[None, :])
    for comp in range(4):
        exact = frame.f.take(comp).batch(0)
        orac = fd_jet_oracle(
            lambda p: CH.eval_chart(square_torus, p[None, :]).f.value[0, comp], pt, 1e-3
        )
        assert np.max(np.abs(orac.grad - exact.grad)) < 1e-6
        assert np.max(np.abs(orac.hess - exact.hess)) < 1e-5

"""Inner product signature, frames, and the congruence lift."""

import json
from pathlib import Path

import numpy as np
import pytest

from liesphere import charts as CH
from liesphere import exprs as E
from liesphere import jets as J
from liesphere import liegeom as L
from liesphere.errors import ContactViolation, NotImmersed
from liesphere.gridio import Grid, fd_jet_oracle
from liesphere.jets import Jet2


def _const_vec(arr):
    return Jet2.constant(np.asarray(arr, dtype=float), 2)


def test_time_like_basis():
    t0, t1 = L.t0_jet(2), L.t1_jet(2)
    assert L.inner_value(t0, t0) == pytest.approx(-1.0)
    assert L.inner_value(t1, t1) == pytest.approx(-1.0)
    assert L.inner_value(t0, t1) == pytest.approx(0.0)


def test_light_cone_lift_of_unit_vector():
    f = _const_vec([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    lifted = f + L.t0_jet(2)
    assert L.lie_inner(lifted, lifted).value == pytest.approx(0.0)


def test_signature_blocks():
    rng = np.random.default_rng(5)
    for _ in range(10):
        spatial = np.zeros(6)
        spatial[:4] = rng.normal(size=4)
        x = _const_vec(spatial)
        assert L.lie_inner(x, x).value > 0.0 or np.allclose(spatial, 0)
        timeplane = np.zeros(6)
        timeplane[4:] = rng.normal(size=2)
        y = _const_vec(timeplane)
        assert L.lie_inner(y, y).value < 0.0 or np.allclose(timeplane, 0)


def test_inner_is_bilinear_and_symmetric():
    rng = np.random.default_rng(9)
    a, b, c = (_const_vec(rng.normal(size=6)) for _ in range(3))
    lam = 1.7
    lhs = L.lie_inner(a + lam * b, c).value
    rhs = L.lie_inner(a, c).value + lam * L.lie_inner(b, c).value
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert L.lie_inner(a, b).value == pytest.approx(L.lie_inner(b, a).value)


def test_torus_frame_certifies(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    for key in ("unit_f", "unit_xi", "orthogonality", "contact_df", "contact_dxi"):
        assert frame.cert[key] < 1e-12


def _frame_residuals_from_jets(f, xi):
    """The relations as lie_inner products of derivative jets (reference form)."""
    m = f.m

    def _amax(jet):
        return float(np.max(np.abs(jet.value)))

    res = {
        "unit_f": _amax(L.lie_inner(f, f) - 1.0),
        "unit_xi": _amax(L.lie_inner(xi, xi) - 1.0),
        "orthogonality": _amax(L.lie_inner(f, xi)),
        "contact_df": max(_amax(L.lie_inner(f.deriv(i), xi)) for i in range(m)),
        "contact_dxi": max(_amax(L.lie_inner(f, xi.deriv(i))) for i in range(m)),
    }
    gram = np.stack(
        [
            np.stack(
                [
                    L.lie_inner(f.deriv(i), f.deriv(k)).value
                    + L.lie_inner(xi.deriv(i), xi.deriv(k)).value
                    for k in range(m)
                ],
                axis=-1,
            )
            for i in range(m)
        ],
        axis=-2,
    )
    # the one smallest-eigenvalue kernel, so that only the relations' routes differ
    res["immersion_min"] = float(np.min(J.eigmin2(gram)))
    return res


@pytest.mark.parametrize("scene", ["torus", "check_custom.json"])
def test_value_frame_residuals_match_jet_form(scene, square_torus):
    if scene == "torus":
        spec = square_torus
    else:
        path = Path(__file__).resolve().parent.parent / "scenes" / scene
        spec = CH.chart_from_json(json.loads(path.read_text())["chart"])
    frame = CH.eval_chart(spec, Grid(24, 20, spec.domain).points().reshape(-1, 2))
    assert L.frame_residuals(frame.f, frame.xi) == _frame_residuals_from_jets(
        frame.f, frame.xi
    )


def test_duplicate_lift_violates_contact(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    with pytest.raises(ContactViolation, match="orthogonality"):
        L.judge_frame(L.lift_frame(frame.f, frame.f).cert, 1e-12)


def test_scaled_lift_violates_unit_norm(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    with pytest.raises(ContactViolation, match="unit_f"):
        L.judge_frame(L.lift_frame(2.0 * frame.f, frame.xi).cert, 1e-12)


def test_constant_pair_is_not_immersed():
    f = _const_vec([1, 0, 0, 0, 0, 0])
    xi = _const_vec([0, 1, 0, 0, 0, 0])
    with pytest.raises(NotImmersed):
        L.judge_frame(L.lift_frame(f, xi).cert, 1e-12)


def test_congruence_great_sphere_case(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    tau = E.eval_at(E.parse_tau("0"), square_torus.domain.wrap(random_points))
    sigma = L.light_cone_section(frame.f, frame.xi, tau)
    expected = frame.xi + L.t1_jet(2)
    assert np.max(np.abs(sigma.value - expected.value)) == 0.0


def test_congruence_constant_unit_vectors():
    f = _const_vec([1, 0, 0, 0, 0, 0])
    xi = _const_vec([0, 1, 0, 0, 0, 0])
    tau = Jet2.constant(1.0, 2)
    tv = tau.vec()
    sigma = xi - tv * f - tv * L.t0_jet(2) + L.t1_jet(2)
    np.testing.assert_allclose(sigma.value, [-1, 1, 0, 0, -1, 1])
    assert L.lie_inner(sigma, sigma).value == pytest.approx(0.0)


def test_congruence_light_cone_on_torus(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    tau = E.eval_at(E.parse_tau("0.7"), square_torus.domain.wrap(random_points))
    sigma = L.light_cone_section(frame.f, frame.xi, tau)
    # null, and in span(xi + t1, f + t0)
    span_res = sigma - ((frame.xi + L.t1_jet(2)) - tau.vec() * (frame.f + L.t0_jet(2)))
    assert np.max(np.abs(L.lie_inner(sigma, sigma).value)) < 1e-12
    assert np.max(np.abs(span_res.value)) < 1e-12


def test_congruence_on_values_matches_the_jet_value_bits(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    tau = E.eval_at(E.parse_tau("0.3*sin(u) + 0.2*cos(v)"), square_torus.domain.wrap(random_points))
    jet = L.light_cone_section(frame.f, frame.xi, tau)
    values = L.light_cone_section(frame.f.value, frame.xi.value, tau.value)
    assert values.shape == jet.value.shape
    assert values.tobytes() == jet.value.tobytes()


def test_congruence_jet_matches_fd_oracle(square_torus):
    # sigma as a function of (u, v), first derivatives against the oracle
    expr = E.parse_tau("0.3*sin(u)")
    pt = np.array([np.pi / 2.0, 0.8])

    def sampler(p):
        fr = CH.eval_chart(square_torus, p[None, :])
        tau = E.eval_at(expr, square_torus.domain.wrap(p[None, :]))
        return L.light_cone_section(fr.f, fr.xi, tau).value[0]

    frame = CH.eval_chart(square_torus, pt[None, :])
    tau = E.eval_at(expr, square_torus.domain.wrap(pt[None, :]))
    sigma = L.light_cone_section(frame.f, frame.xi, tau)
    orac = fd_jet_oracle(sampler, pt, 1e-3)
    assert np.max(np.abs(orac.grad - sigma.grad[:, 0])) < 1e-6
    assert np.max(np.abs(orac.hess - sigma.hess[:, 0])) < 1e-5


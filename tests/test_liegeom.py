"""Inner product signature, frames, and the congruence lift."""

import numpy as np
import pytest

from liesphere import charts as CH
from liesphere import exprs as E
from liesphere import liegeom as L
from liesphere.errors import ContactViolation, NotImmersed
from liesphere.gridio import fd_jet_oracle
from liesphere.jets import Jet2


def _const_vec(arr):
    return Jet2.constant(np.asarray(arr, dtype=float), 2)


def test_time_like_basis():
    t0, t1 = L.t0_jet(2), L.t1_jet(2)
    assert L.lie_inner(t0, t0).value == pytest.approx(-1.0)
    assert L.lie_inner(t1, t1).value == pytest.approx(-1.0)
    assert L.lie_inner(t0, t1).value == pytest.approx(0.0)


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


def test_duplicate_lift_violates_contact(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    with pytest.raises(ContactViolation, match="orthogonality"):
        L.lift_frame(frame.f, frame.f, frame.points)


def test_scaled_lift_violates_unit_norm(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    with pytest.raises(ContactViolation, match="unit_f"):
        L.lift_frame(2.0 * frame.f, frame.xi, frame.points)


def test_constant_pair_is_not_immersed():
    f = _const_vec([1, 0, 0, 0, 0, 0])
    xi = _const_vec([0, 1, 0, 0, 0, 0])
    with pytest.raises(NotImmersed):
        L.lift_frame(f, xi, np.zeros((1, 2)))


def test_congruence_great_sphere_case(random_points, square_torus):
    frame = CH.eval_chart(square_torus, random_points)
    tau = E.eval_at(E.parse_tau("0"), frame.points)
    sc = L.sphere_congruence(frame, tau)
    expected = frame.xi + L.t1_jet(2)
    assert np.max(np.abs(sc.sigma.value - expected.value)) == 0.0


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
    tau = E.eval_at(E.parse_tau("0.7"), frame.points)
    sc = L.sphere_congruence(frame, tau)
    assert sc.cert["light_cone"] < 1e-12
    assert sc.cert["span"] < 1e-12


def test_congruence_jet_matches_fd_oracle(square_torus):
    # sigma as a function of (u, v), first derivatives against the oracle
    expr = E.parse_tau("0.3*sin(u)")
    pt = np.array([np.pi / 2.0, 0.8])

    def sampler(p):
        fr = CH.eval_chart(square_torus, p[None, :])
        tau = E.eval_at(expr, fr.points)
        return L.sphere_congruence(fr, tau).sigma.value[0]

    frame = CH.eval_chart(square_torus, pt[None, :])
    tau = E.eval_at(expr, frame.points)
    sigma = L.sphere_congruence(frame, tau).sigma
    orac = fd_jet_oracle(sampler, pt, 1e-3)
    assert np.max(np.abs(orac.grad - sigma.grad[0])) < 1e-6
    assert np.max(np.abs(orac.hess - sigma.hess[0])) < 1e-5


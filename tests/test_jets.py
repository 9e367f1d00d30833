"""Exactness and algebra of the second-order jets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import jets as J
from liesphere.errors import DivisionByZeroJet, DomainErrorJet, SingularMatrix
from liesphere.gridio import fd_jet_oracle
from liesphere.jets import Jet2


def test_square_of_seed():
    u = Jet2.variable(2.0, 0, 2)
    sq = u * u
    assert sq.value == pytest.approx(4.0)
    np.testing.assert_allclose(sq.grad, [4.0, 0.0])
    np.testing.assert_allclose(sq.hess, [2.0, 0.0, 0.0])


def test_mul_by_zero_annihilates():
    u = Jet2.variable(1.3, 0, 2)
    z = (J.sin(u) + u * u) * Jet2.constant(0.0, 2)
    assert np.all(z.value == 0.0)
    assert np.all(z.grad == 0.0)
    assert np.all(z.hess == 0.0)


def test_polynomial_composition_is_exact():
    # p(u, v) = 3 + 2u - v + u^2 + 4uv, q = 1 - uv; all coefficients of
    # arithmetic combinations must equal the analytic derivatives.
    u0, v0 = 0.7, -1.2
    u, v = Jet2.variable(u0, 0, 2), Jet2.variable(v0, 1, 2)
    p = 3.0 + 2.0 * u - v + u * u + 4.0 * u * v
    q = 1.0 - u * v
    r = p * q - 2.0 * q

    def analytic(u, v):
        p = 3 + 2 * u - v + u * u + 4 * u * v
        q = 1 - u * v
        return p * q - 2 * q

    h = 1e-5
    # exact values against sympy-free analytic evaluation
    assert r.value == pytest.approx(analytic(u0, v0), abs=1e-13)
    pu = (analytic(u0 + h, v0) - analytic(u0 - h, v0)) / (2 * h)
    pv = (analytic(u0, v0 + h) - analytic(u0, v0 - h)) / (2 * h)
    np.testing.assert_allclose(r.grad, [pu, pv], atol=1e-7)
    # second derivatives of a polynomial: exact interior check via jets of jets
    s = p * q
    t = q * p
    np.testing.assert_allclose(s.hess, t.hess, atol=1e-13)


def test_trig_jet_matches_finite_differences():
    pt = np.array([0.5, 1.2])
    u, v = J.seed(pt)
    f = J.sin(u) * J.cos(v)
    orac = fd_jet_oracle(lambda p: np.sin(p[0]) * np.cos(p[1]), pt, 1e-4)
    scale = 1.0 + np.abs(f.grad)
    assert np.max(np.abs(orac.grad - f.grad) / scale) < 1e-6
    scale_h = 1.0 + np.abs(f.hess)
    assert np.max(np.abs(orac.hess - f.hess) / scale_h) < 1e-6


def test_division_matches_reciprocal_rule():
    u = Jet2.variable(0.0, 0, 1)
    inv = 1.0 / (1.0 + u)
    assert inv.value == pytest.approx(1.0)
    assert inv.grad[0] == pytest.approx(-1.0)
    assert inv.hess[0] == pytest.approx(2.0)


def test_division_by_zero_raises():
    z = Jet2.constant(0.0, 2)
    with pytest.raises(DivisionByZeroJet):
        Jet2.variable(1.0, 0, 2) / z


def test_ln_domain():
    with pytest.raises(DomainErrorJet):
        J.ln(Jet2.constant(0.0, 2))


def test_integer_power_of_negative_base():
    u = Jet2.variable(-2.0, 0, 1)
    cube = u**3
    assert cube.value == pytest.approx(-8.0)
    assert cube.grad[0] == pytest.approx(12.0)
    assert cube.hess[0] == pytest.approx(-12.0)
    with pytest.raises(DomainErrorJet):
        u**0.5


def test_deriv_marks_unknown_second_order():
    u, v = J.seed(np.array([0.4, 0.9]))
    f = J.exp(u) * J.cos(v)
    d = f.deriv(0)
    assert d.value == pytest.approx(f.grad[0])
    np.testing.assert_allclose(d.grad, f.unpack_hess()[0, :])
    assert np.isnan(d.hess).all()
    # downstream values and gradients stay clean
    g = d * d + J.sin(v)
    assert np.isfinite(g.value)
    assert np.isfinite(g.grad).all()
    assert np.isnan(g.hess).any()


def test_identity_matrix_inverse():
    eye = J.mat_identity(3, 2)
    inv = J.mat_inverse(eye)
    np.testing.assert_allclose(inv.value, np.eye(3), atol=0)
    assert np.all(inv.grad == 0.0)


def test_diagonal_jet_inverse():
    u = Jet2.variable(0.0, 0, 1)
    G = J.mat_from_rows(
        [
            [1.0 + u, Jet2.constant(0.0, 1)],
            [Jet2.constant(0.0, 1), Jet2.constant(2.0, 1)],
        ]
    )
    Gi = J.mat_inverse(G)
    e00 = J.mat_el(Gi, 0, 0)
    assert e00.value == pytest.approx(1.0)
    assert e00.grad[0] == pytest.approx(-1.0)
    assert e00.hess[0] == pytest.approx(2.0)
    assert J.mat_el(Gi, 1, 1).value == pytest.approx(0.5)


@st.composite
def _jet_matrices(draw):
    vals = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=12,
            max_size=12,
        )
    )
    arr = np.array(vals).reshape(2, 2, 3)
    det = arr[0, 0, 0] * arr[1, 1, 0] - arr[0, 1, 0] * arr[1, 0, 0]
    return arr, det


@given(_jet_matrices())
@settings(max_examples=60, deadline=None)
def test_matrix_inverse_is_two_sided(data):
    arr, det = data
    if abs(det) < 0.5:
        return  # keep to well-conditioned instances
    entries = [
        [
            Jet2(arr[i, j, 0], arr[i, j, 1:3], np.array([0.3 * i, -0.1, 0.2 * j]), 2)
            for j in range(2)
        ]
        for i in range(2)
    ]
    G = J.mat_from_rows(entries)
    Gi = J.mat_inverse(G)
    left = J.mat_mul(G, Gi)
    right = J.mat_mul(Gi, G)
    for prod in (left, right):
        np.testing.assert_allclose(prod.value, np.eye(2), atol=1e-12)
        assert np.max(np.abs(prod.grad)) < 1e-12
        assert np.max(np.abs(prod.hess)) < 1e-12


def test_singular_matrix_raises_with_index():
    vals = np.ones((4, 2, 2))
    vals[2] = [[1.0, 1.0], [1.0, 1.0]]  # singular slice
    vals[0] = [[2.0, 0.0], [0.0, 1.0]]
    vals[1] = [[1.0, 0.5], [0.0, 1.0]]
    vals[3] = [[3.0, 0.0], [0.2, 1.0]]
    A = Jet2.constant(vals, 2)
    with pytest.raises(SingularMatrix) as exc:
        J.mat_inverse(A)
    assert exc.value.index == (2,)


def test_generic_size_inverse_matches_numpy():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1, 1, size=(4, 4)) + 4.0 * np.eye(4)
    A = Jet2.constant(vals, 2)
    Ai = J.mat_inverse(A)
    np.testing.assert_allclose(Ai.value, np.linalg.inv(vals), atol=1e-12)
    # jet-valued entries: product must be the identity in every slot
    u, v = J.seed(np.array([0.3, 0.8]))
    base = [[Jet2.constant(vals[i, j], 2) for j in range(4)] for i in range(4)]
    base[0][0] = base[0][0] + 0.1 * J.sin(u)
    base[2][3] = base[2][3] + 0.2 * (u * v)
    B = J.mat_from_rows(base)
    Bi = J.mat_inverse(B)
    prod = J.mat_mul(B, Bi)
    np.testing.assert_allclose(prod.value, np.eye(4), atol=1e-12)
    assert np.max(np.abs(prod.grad)) < 1e-12
    assert np.max(np.abs(prod.hess)) < 1e-11


def test_stack_jsum_take_shapes():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 1.0, size=(6, 2))
    u, v = J.seed(pts)
    vecjet = J.stack([u, v, u * v], axis=-1)
    assert vecjet.value.shape == (6, 3)
    assert vecjet.grad.shape == (6, 3, 2)
    total = J.jsum(vecjet, axis=-1, weights=np.array([1.0, 1.0, -2.0]))
    np.testing.assert_allclose(
        total.value, pts[:, 0] + pts[:, 1] - 2 * pts[:, 0] * pts[:, 1]
    )
    sel = vecjet.take(2)
    np.testing.assert_allclose(sel.value, (u * v).value)
    ex = u.expand(-1)
    assert ex.value.shape == (6, 1)


def test_three_variable_jets_are_exact():
    # the arithmetic is dimension-generic; check m = 3 against hand analytics
    x0, y0, z0 = 0.4, -0.7, 1.1
    x = Jet2.variable(x0, 0, 3)
    y = Jet2.variable(y0, 1, 3)
    z = Jet2.variable(z0, 2, 3)
    f = J.sin(x) * y + J.exp(z) * x * x
    np.testing.assert_allclose(
        f.grad,
        [np.cos(x0) * y0 + 2 * x0 * np.exp(z0), np.sin(x0), np.exp(z0) * x0 * x0],
        atol=1e-14,
    )
    # packed order: xx, xy, xz, yy, yz, zz
    np.testing.assert_allclose(
        f.hess,
        [
            -np.sin(x0) * y0 + 2 * np.exp(z0),
            np.cos(x0),
            2 * x0 * np.exp(z0),
            0.0,
            0.0,
            np.exp(z0) * x0 * x0,
        ],
        atol=1e-14,
    )
    M = J.mat_from_rows(
        [
            [2.0 + x, y, Jet2.constant(0.0, 3)],
            [y, 3.0 + z, Jet2.constant(0.5, 3)],
            [Jet2.constant(0.0, 3), Jet2.constant(0.5, 3), 1.0 + x * z],
        ]
    )
    prod = J.mat_mul(M, J.mat_inverse(M))
    np.testing.assert_allclose(prod.value, np.eye(3), atol=1e-13)
    assert np.max(np.abs(prod.grad)) < 1e-13


def test_fd_convergence_order_of_jets():
    # second-order agreement between jets and central differences
    pt = np.array([0.9, 0.4])
    u, v = J.seed(pt)
    exact = J.exp(u) * J.cos(v) + J.sin(u * v)

    def sampler(p):
        return np.exp(p[0]) * np.cos(p[1]) + np.sin(p[0] * p[1])

    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        o = fd_jet_oracle(sampler, pt, h)
        errs.append(
            max(
                np.max(np.abs(o.grad - exact.grad)),
                np.max(np.abs(o.hess - exact.hess)),
            )
        )
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    for order in orders:
        assert 1.7 <= order <= 2.3

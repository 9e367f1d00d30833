"""Exactness and algebra of the second-order jets."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import exprs as E
from liesphere import jets as J
from liesphere import liegeom as L
from liesphere.errors import DomainErrorJet
from liesphere.gridio import fd_jet_oracle
from liesphere.jets import Jet2
from liesphere.liegeom import spatial_vector, t0_jet, t1_jet
import reference as R
from reference import mat_mul, mat_values


def _inverse(A):
    """jets.mat_inverse of a 2x2 matrix of scalar jets (rows), NaN where A fails
    the engine's regularity screen."""
    return R.mat_inverse(A, 1e-10)


def _slot_max(A, slot):
    """Max |entry| of one slot over every entry of a matrix of scalar jets."""
    return max(np.max(np.abs(getattr(x, slot))) for row in A for x in row)


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
    # a division by zero is not finite, as ln off its domain is, and the
    # expression evaluator names the point
    with np.errstate(divide="ignore", invalid="ignore"):
        q = Jet2.variable(1.0, 0, 2) / Jet2.constant(0.0, 2)
    for slot in (q.value, q.grad, q.hess):
        assert not np.isfinite(slot).any()
    with pytest.raises(DomainErrorJet, match=r"is not finite at parameter point \[0\.0, 1\.0\]"):
        E.eval_at(E.parse_tau("v/u"), np.array([0.0, 1.0]))


def test_ln_domain():
    # ln off its domain is not finite, and the expression evaluator names the point
    message = r"ln\(u - 3\.0\) is not finite at parameter point \[0\.0, 0\.0\]"
    with pytest.raises(DomainErrorJet, match=message):
        E.eval_at(E.parse_tau("ln(u-3)"), np.array([0.0, 0.0]))


def test_integer_power_of_negative_base():
    u = Jet2.variable(-2.0, 0, 1)
    cube = u**3
    assert cube.value == pytest.approx(-8.0)
    assert cube.grad[0] == pytest.approx(12.0)
    assert cube.hess[0] == pytest.approx(-12.0)
    with pytest.raises(DomainErrorJet, match=r"\(u - 3\.0\)\^0\.5 is not finite"):
        E.eval_at(E.parse_tau("(u-3)^0.5"), np.array([1.0, 0.0]), 1)


def test_deriv_lowers_order():
    u, v = J.seed(np.array([0.4, 0.9]))
    f = J.exp(u) * J.cos(v)
    assert f.order == 2
    d = f.deriv(0)
    assert d.order == 1 and d.hess is None
    assert d.value == pytest.approx(f.grad[0])
    hess_row = f.hess[[J.packed_index(0, k, 2) for k in range(2)]]
    np.testing.assert_array_equal(d.grad, hess_row)
    dd = d.deriv(1)
    assert dd.order == 0 and dd.grad is None
    assert dd.value == hess_row[1]
    with pytest.raises(ValueError):
        dd.deriv(0)
    # downstream values and gradients stay clean
    g = d * d + J.sin(v)
    assert g.order == 1
    assert np.isfinite(g.value)
    assert np.isfinite(g.grad).all()


def test_truncate_drops_the_slots_above_an_order():
    u, v = J.seed(np.array([0.4, 0.9]), order=3)
    f = J.exp(u) * J.cos(v)
    assert f.truncate(3) is f and f.truncate(4) is f
    for order in (2, 1, 0):
        low = f.truncate(order)
        assert low.order == order and low.value is f.value
        for k, slot in enumerate(("grad", "hess", "third")):
            assert getattr(low, slot) is (getattr(f, slot) if k < order else None)


def test_products_take_the_lowest_order():
    u, v = J.seed(np.array([[0.4, 0.9], [1.1, -0.3]]))
    f = J.sin(u) * v
    first = J.cos(v).deriv(1)
    prod = f * first
    assert (f.order, first.order, prod.order) == (2, 1, 1)
    assert prod.hess is None
    np.testing.assert_array_equal(prod.value, f.value * first.value)
    np.testing.assert_array_equal(
        prod.grad, f.grad * first.value + first.grad * f.value
    )
    assert (f * first.deriv(0)).order == 0
    # structural operations keep the lowest order of their operands
    assert J.stack([f, first], axis=-1).order == 1
    assert J.stack([f, first], axis=-1).take(0).batch(1).order == 1


def test_identity_matrix_inverse():
    eye = [[Jet2.constant(float(i == j), 2) for j in range(2)] for i in range(2)]
    inv = _inverse(eye)
    np.testing.assert_allclose(mat_values(inv), np.eye(2), atol=0)
    assert _slot_max(inv, "grad") == 0.0


def test_diagonal_jet_inverse():
    u = Jet2.variable(0.0, 0, 1)
    G = [
        [1.0 + u, Jet2.constant(0.0, 1)],
        [Jet2.constant(0.0, 1), Jet2.constant(2.0, 1)],
    ]
    Gi = _inverse(G)
    e00 = Gi[0][0]
    assert e00.value == pytest.approx(1.0)
    assert e00.grad[0] == pytest.approx(-1.0)
    assert e00.hess[0] == pytest.approx(2.0)
    assert Gi[1][1].value == pytest.approx(0.5)


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
    Gi = _inverse(entries)
    left = mat_mul(entries, Gi)
    right = mat_mul(Gi, entries)
    for prod in (left, right):
        np.testing.assert_allclose(mat_values(prod), np.eye(2), atol=1e-12)
        assert _slot_max(prod, "grad") < 1e-12
        assert _slot_max(prod, "hess") < 1e-12


def test_singular_matrix_poisons_its_index():
    vals = np.ones((4, 2, 2))
    vals[2] = [[1.0, 1.0], [1.0, 1.0]]  # singular slice
    vals[0] = [[2.0, 0.0], [0.0, 1.0]]
    vals[1] = [[1.0, 0.5], [0.0, 1.0]]
    vals[3] = [[3.0, 0.0], [0.2, 1.0]]
    a, b, c, d = (Jet2.constant(vals[:, i, j], 2) for i in range(2) for j in range(2))
    singular = J.singular_mask(vals, 1e-10, J.det2(vals))
    assert np.flatnonzero(singular).tolist() == [2]
    Ai = J.mat_inverse(a, b, c, d, a * d - b * c, singular)
    for entry in Ai:
        for slot in ("value", "grad", "hess"):
            assert np.isnan(getattr(entry.batch(2), slot)).all()
            assert np.isfinite(getattr(entry.batch([0, 1, 3]), slot)).all()
    inv = np.stack([x.value for x in Ai], axis=-1).reshape(4, 2, 2)
    np.testing.assert_allclose(inv[[0, 1, 3]], np.linalg.inv(vals[[0, 1, 3]]))
    # the 2x2 kernels take 2x2 matrices
    for kernel in (J.det2, J.eigmin2):
        with pytest.raises(ValueError):
            kernel(np.eye(3))


def test_stack_jsum_take_shapes():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 1.0, size=(6, 2))
    u, v = J.seed(pts)
    vecjet = J.stack([u, v, u * v], axis=-1)
    assert vecjet.value.shape == (6, 3)
    assert vecjet.grad.shape == (2, 6, 3)
    total = vecjet.map(J.wsum)
    np.testing.assert_allclose(total.value, pts[:, 0] + pts[:, 1] + pts[:, 0] * pts[:, 1])
    sel = vecjet.take(2)
    np.testing.assert_allclose(sel.value, (u * v).value)
    ex = u.expand(-1)
    assert ex.value.shape == (6, 1)


def test_wsum_keeps_the_sign_of_negative_zero():
    # np.sum starts from +0.0, so it would turn a sum of -0.0 terms into +0.0
    terms = np.full((5, 6), -0.0)
    for a in (terms, np.moveaxis(np.ascontiguousarray(terms.T), 0, -1)):  # either layout
        assert np.signbit(J.wsum(a)).all() and np.signbit(J.wsum(a, 0)).all()
    u = J.seed(np.full((5, 2), -0.0))[0]
    assert np.signbit(J.stack([u, u, u]).map(J.wsum).value).all()


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
    M = [[2.0 + x, y], [y, 3.0 + x * z]]
    prod = mat_mul(M, _inverse(M))
    np.testing.assert_allclose(mat_values(prod), np.eye(2), atol=1e-13)
    assert _slot_max(prod, "grad") < 1e-13


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


# ---------- order 3 ----------

_THIRD_ORDER_CASES = {
    "sin": lambda u, v: J.sin(u * v + u),
    "cos": lambda u, v: J.cos(u - 2.0 * v * v),
    "exp": lambda u, v: J.exp(u * v),
    "ln": lambda u, v: J.ln(1.0 + u * u + v),
    "reciprocal": lambda u, v: 1.0 / (2.0 + u * v),
    "integer power": lambda u, v: (u * v + 1.0) ** 4,
    "fractional power": lambda u, v: (1.0 + u * u + v) ** 2.5,
    "negative fractional power": lambda u, v: (1.0 + u + v * v) ** -1.5,
    "product and quotient": lambda u, v: J.sin(u) * J.exp(v) / (1.0 + u * v),
}


@pytest.mark.parametrize("name", sorted(_THIRD_ORDER_CASES))
def test_third_partials_match_differences_of_exact_hessians(name):
    # d_ijk against central differences of the order-2 Hessians in direction
    # k; the observed order is about 2, as the oracle's is one order down
    fn = _THIRD_ORDER_CASES[name]
    pt = np.array([0.7, 0.4])
    exact = fn(*J.seed(pt, order=3))
    assert exact.order == 3 and exact.third.shape == (4,)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        err = 0.0
        for k in range(2):
            step = np.eye(2)[k] * h
            fd = (fn(*J.seed(pt + step)).hess - fn(*J.seed(pt - step)).hess) / (2 * h)
            err = max(err, np.max(np.abs(exact.deriv(k).hess - fd)))
        errs.append(err)
    for e0, e1 in zip(errs, errs[1:]):
        assert 1.7 <= np.log2(e0 / e1) <= 2.3


def test_deriv_lowers_order_three_to_zero():
    u, v = J.seed(np.array([0.4, 0.9]), order=3)
    f = J.exp(u) * J.cos(v)
    assert f.order == 3
    # packed third slot: d_uuu, d_uuv, d_uvv, d_vvv
    np.testing.assert_array_equal(f.deriv(0).hess, f.third[[0, 1, 2]])
    np.testing.assert_array_equal(f.deriv(1).hess, f.third[[1, 2, 3]])
    d = f.deriv(1)
    assert d.order == 2 and d.third is None
    np.testing.assert_array_equal(d.grad, f.hess[[1, 2]])
    dd = d.deriv(0)
    assert dd.order == 1 and dd.hess is None
    assert dd.deriv(1).order == 0
    # the lower slots are those of the order-2 jet
    u2, v2 = J.seed(np.array([0.4, 0.9]))
    f2 = J.exp(u2) * J.cos(v2)
    for slot in ("value", "grad", "hess"):
        np.testing.assert_array_equal(getattr(f, slot), getattr(f2, slot))


def test_constants_keep_order_three():
    u, v = J.seed(np.array([[0.4, 0.9], [1.1, 0.3]]), order=3)
    for jet in (2.0 * u, u + 1.0, 3.0 - v, 1.0 / (u + 2.0), u**0, u**1.5, u / 2.0):
        assert jet.order == 3
    f = spatial_vector([u, v, u * v, v - u])
    assert f.order == 3
    assert (f + t0_jet(2)).order == 3 and (f - t1_jet(2)).order == 3
    assert J.stack([u, v], axis=-1).order == 3
    # an order-2 operand still lowers the result
    assert (u * J.seed(np.array([0.4, 0.9]))[1]).order == 2


# ---------- derivative-major slots against the point-major reference ----------


def _assert_same_bits(jet, ref):
    """Every slot of ``jet`` equals the point-major reference bit for bit."""
    assert jet.order == ref.order
    got = R.PointMajor.of(jet)
    for name in ("value", "grad", "hess", "third"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _seeded(order):
    """Seeds on a 4x5 grid, as engine jets and as point-major references."""
    pts = np.random.default_rng(3).uniform(0.2, 1.4, size=(4, 5, 2))
    jets = J.seed(pts, order=max(order, 1))
    if order == 0:  # seeds start at order 1; order 0 is a jet of values alone
        jets = tuple(Jet2(x.value, None, None, x.m) for x in jets)
    return jets, tuple(R.PointMajor.of(x) for x in jets)


def _operands(u, v):
    """A positive scalar jet and a 6-component vector jet, built the same way for
    engine jets and point-major references (stack is the only function passed)."""
    w = u * v * (u + 1.0) + 0.5
    return w, w * u - v * v + 2.0


_ENGINE_ELEMENTARY = {"sin": J.sin, "cos": J.cos, "exp": J.exp, "ln": J.ln, "recip": J._recip}


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["sin", "cos", "exp", "ln", "recip", 2.0, 3.0, 2.5, -1.5, 0.5])
def test_elementary_functions_match_point_major_bits(order, name):
    (u, v), (ru, rv) = _seeded(order)
    (w, _), (rw, _) = _operands(u, v), _operands(ru, rv)
    _assert_same_bits(w, rw)
    if isinstance(name, str):
        _assert_same_bits(_ENGINE_ELEMENTARY[name](w), R.pm_apply(name, rw))
    else:
        _assert_same_bits(w**name, R.pm_power(rw, name))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_structural_operations_match_point_major_bits(order):
    (u, v), (ru, rv) = _seeded(order)
    (w, z), (rw, rz) = _operands(u, v), _operands(ru, rv)
    comps = [u, v, w, z, J.sin(w), J.exp(z)]
    refs = [ru, rv, rw, rz, R.pm_apply("sin", rw), R.pm_apply("exp", rz)]
    F, rF = J.stack(comps), R.pm_stack(refs)  # values (4, 5, 6)
    _assert_same_bits(F, rF)
    _assert_same_bits((F * F).map(J.wsum), R.pm_jsum(rF * rF))
    _assert_same_bits(F.take(2), rF.take(2))
    _assert_same_bits(F.expand(-2), rF.expand(-2))
    mask = np.arange(20).reshape(4, 5) % 3 == 0
    for key in (slice(1, 3), mask, (slice(1, 3), 2), (2, 4)):
        _assert_same_bits(F.batch(key), rF.batch(key))
    if order > 0:
        for i in range(2):
            _assert_same_bits(z.deriv(i), rz.deriv(i))
            _assert_same_bits(F.deriv(i), rF.deriv(i))
    # values of differing rank: a 0-d constant, a vec()'d scalar, numbers, a plain array
    c = Jet2.constant(2.5, 2, order)
    rc = R.PointMajor.of(c)
    _assert_same_bits(c * F, rc * rF)
    _assert_same_bits(F * c, rF * rc)
    _assert_same_bits(w.vec() * F, rw.expand(-1) * rF)
    _assert_same_bits(3.0 * F, rF * 3.0)
    _assert_same_bits(F - 0.25, rF - 0.25)
    t0 = t0_jet(2)
    _assert_same_bits(F + t0, rF + t0)
    _assert_same_bits(w.vec() * t0, rw.expand(-1) * t0)
    _assert_same_bits(J.stack([c, w]), R.pm_stack([rc, rw]))


# signed zeros, NaN and infinities, drawn among numbers of mixed magnitudes
_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


def _drawn_jet(data, shape, m):
    """A jet of m variables at a drawn order over values of ``shape``, each slot
    in C or Fortran order, so that the stacked layouts vary too."""
    order = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    share = data.draw(st.sampled_from([0.0, 0.1, 0.5]))  # of special values
    slots = []
    for n in (1, m, J.packed_len(m), m * (m + 1) * (m + 2) // 6)[: order + 1]:
        a = rng.standard_normal((n,) + shape) * 10.0 ** rng.uniform(-3, 3, (n,) + shape)
        special = rng.random(a.shape) < share
        a[special] = rng.choice(_SPECIALS, np.count_nonzero(special))
        slots.append(np.array(a, order="F") if data.draw(st.booleans()) else a)
    slots[0] = slots[0].reshape(shape)
    slots += [None] * (3 - order)
    return Jet2(slots[0], slots[1], slots[2], m, slots[3])


def _broadcastable(data, shape):
    """A shape that broadcasts to ``shape``: a suffix of it, some axes of length 1."""
    tail = shape[data.draw(st.integers(0, len(shape))):]
    return tuple(1 if data.draw(st.booleans()) else n for n in tail)


def _assert_identical(got, want):
    """Two jets agree in order, and in the shape and bytes of every slot."""
    for name in ("value", "grad", "hess", "third"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@given(data=st.data())
@settings(deadline=None)  # examples: the tests/conftest.py profiles
def test_structural_kernels_match_their_reference_bits(data):
    # stack, wsum, expand and lie_inner index and assign where the engine once
    # stacked, moved axes and summed jets; every slot keeps its bytes, -0.0,
    # NaN and infinities included, over drawn ranks, axes and broadcasting
    m = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    with np.errstate(all="ignore"):
        parts = [
            _drawn_jet(data, _broadcastable(data, shape) if k else shape, m)
            for k in range(data.draw(st.integers(1, 4)))
        ]
        axis = data.draw(st.integers(-len(shape) - 1, -1))
        _assert_identical(J.stack(parts, axis), R.ref_stack(parts, axis))
        for x in parts:
            axis = data.draw(st.integers(-x.value.ndim - 1, -1))
            _assert_identical(x.expand(axis), R.ref_expand(x, axis))
            for a in (x.grad, x.hess, x.third):
                if a is not None:
                    axis = data.draw(st.integers(-a.ndim, a.ndim - 1))
                    got, want = J.wsum(a, axis), R.ref_wsum(a, axis)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
        n = data.draw(st.integers(3, 6))  # components: at least one spatial
        x = _drawn_jet(data, shape + (n,), m)
        y = _drawn_jet(data, _broadcastable(data, shape) + (n,), m)
        for a, b in ((x, y), (y, x)):
            _assert_identical(L.lie_inner(a, b), R.ref_lie_inner(a, b))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_matrix_inverse_matches_point_major_bits(order):
    (u, v), (ru, rv) = _seeded(order)
    (w, z), (rw, rz) = _operands(u, v), _operands(ru, rv)
    rA = R.pm_stack([R.pm_stack([rw, ru]), R.pm_stack([rv, rz])], axis=-2)
    _assert_same_bits(J.stack([J.stack([w, u]), J.stack([v, z])], axis=-2), rA)
    singular = np.zeros((4, 5), bool)
    singular[1, 2] = singular[3, 0] = True
    for mask in (singular, np.zeros_like(singular)):
        Ai = J.mat_inverse(w, u, v, z, w * z - u * v, mask)
        rAi = R.pm_mat_inverse(rA, mask)
        for entry, (i, j) in zip(Ai, ((0, 0), (0, 1), (1, 0), (1, 1))):
            _assert_same_bits(entry, R.pm_entry(rAi, i, j))
            assert np.isnan(entry.value[mask]).all() and np.isfinite(entry.value[~mask]).all()


# ---------- closed-form 2x2 kernels, with LAPACK as the reference ----------

_EPS = np.finfo(float).eps


def _matrices(seed, symmetric=False):
    """A batch of well-conditioned 2x2 matrices: diagonally dominant, mixed signs."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(500, 2, 2)) + np.diag([3.0, -2.5])
    A *= 10.0 ** rng.uniform(-3.0, 3.0, size=(500, 1, 1))
    return 0.5 * (A + np.swapaxes(A, -1, -2)) if symmetric else A


def _scale(A):
    return np.max(np.abs(A), axis=(-2, -1))


def _solve(A, B):
    """A^-1 B with the entries of :func:`jets.mat_inverse` on plain arrays, as in r_operator."""
    det = J.det2(A)
    entries = (A[..., i, j] for i in (0, 1) for j in (0, 1))
    inv = J.mat_inverse(*entries, det, np.zeros(det.shape, bool))
    return np.stack(inv, axis=-1).reshape(det.shape + (2, 2)) @ B


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_2x2_kernels_agree_with_lapack(seed):
    A = _matrices(seed)
    scale = _scale(A)
    # both round a product of two entries, and LAPACK rounds its LU step too
    assert np.all(np.abs(J.det2(A) - np.linalg.det(A)) <= 8 * _EPS * scale**2)
    S = _matrices(seed, symmetric=True)
    lapack = np.linalg.eigvalsh(S)[..., 0]
    assert np.all(np.abs(J.eigmin2(S) - lapack) <= 4 * _EPS * _scale(S))
    B = np.random.default_rng(seed + 10).uniform(-1.0, 1.0, size=(500, 2, 3))
    X, ref = _solve(A, B), np.linalg.solve(A, B)
    assert np.all(np.abs(X - ref) <= 4 * _EPS * _scale(ref)[:, None, None])


def test_2x2_kernels_on_diagonal_and_repeated_eigenvalues():
    p = np.array([2.0, -3.0, 0.5, 7.0, 1e-8])
    r = np.array([2.0, 1.0, -0.5, 7.0, 3.0])  # p = r in the first and fourth
    D = np.zeros((5, 2, 2))
    D[:, 0, 0], D[:, 1, 1] = p, r
    np.testing.assert_array_equal(J.det2(D), p * r)
    eig = J.eigmin2(D)
    np.testing.assert_array_equal(eig[[0, 3]], [2.0, 7.0])
    assert np.all(np.abs(eig - np.minimum(p, r)) <= 2 * _EPS * _scale(D))
    B = np.arange(10.0).reshape(5, 2, 1)
    np.testing.assert_allclose(_solve(D, B), np.linalg.solve(D, B), rtol=4 * _EPS)


def test_near_singular_metric_is_still_screened():
    # the congruence metric of scenes/check_sinusinv.json at its most degenerate point
    G = np.array([[1.9999999999999996, 0.0], [0.0, 1.232595164407831e-32]])
    det = J.det2(G)
    assert 0.0 < det < 3e-32 and abs(det - np.linalg.det(G)) <= 4 * _EPS * 4.0
    assert J.singular_mask(G, 1e-10, det)
    assert abs(J.eigmin2(G) - np.linalg.eigvalsh(G)[0]) <= 4 * _EPS * 2.0


def test_zero_matrix_is_singular_and_infinite_one_is_not():
    # a zero scale would underflow any floor when squared; an overflowed
    # matrix is not finite, which is not the same as degenerate
    assert J.singular_mask(np.zeros((1, 2, 2)), 1e-10, np.zeros(1)).tolist() == [True]
    A = np.diag([np.inf, np.inf])[None]
    assert J.singular_mask(A, 1e-10, J.det2(A)).tolist() == [False]


def test_2x2_kernels_pass_nan_through_silently():
    A = _matrices(3)[:4].copy()
    A[0, 0, 0] = A[1, 0, 1] = A[2, 1, 1] = np.nan
    S = 0.5 * (A + np.swapaxes(A, -1, -2))
    B = np.ones((4, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, eig, X = J.det2(A), J.eigmin2(S), _solve(A, B)
    assert np.isnan(det[:3]).all() and np.isfinite(det[3])
    assert np.isnan(eig[:3]).all() and np.isfinite(eig[3])
    assert np.isnan(X[:3]).all() and np.isfinite(X[3]).all()


def test_jet_determinant_value_is_the_value_kernel():
    (u, v), _ = _seeded(2)
    w, z = _operands(u, v)
    # the determinant jet a d - b c, as minus_metric forms it
    assert (w * z - u * v).value.tobytes() == J.det2(mat_values([[w, u], [v, z]])).tobytes()


# ---------- number operands act on the slots ----------


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("components", [False, True])
def test_number_operands_match_the_constant_jet_route(order, components):
    """A number operand scales or shifts the slots as a lifted constant jet does.

    The one intended difference: 0*inf terms from a lifted zero slot are no
    longer formed, so a slot beside an infinite value is not made NaN.  On
    finite inputs every slot is equal; the sign of a zero may differ.
    """
    (u, v), _ = _seeded(order)
    w, z = _operands(u, v)
    x = J.stack([u, v, w, z, J.sin(w), J.exp(z)]) if components else w
    for c in (2.5, -0.75, 3, np.float64(1.5), np.array(-4.0)):
        k = Jet2.constant(c, 2, x.order)
        routes = [
            (x * c, x * k), (c * x, k * x), (x + c, x + k),
            (c - x, k - x), (x / c, x / k), (c / x, k / x),
        ]
        for got, ref in routes:
            assert got.order == ref.order == x.order
            for name in ("value", "grad", "hess", "third"):
                a, b = getattr(got, name), getattr(ref, name)
                assert (a is None) == (b is None), name
                if b is not None:
                    np.testing.assert_array_equal(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = x / 0.0  # a multiply by 1/0.0 = inf
    for slot in (q.value, q.grad, q.hess, q.third)[: x.order + 1]:
        assert not np.isfinite(slot).any()

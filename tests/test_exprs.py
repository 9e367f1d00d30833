"""Parser, printer, and jet evaluation of the expression language."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesphere import exprs as E
from liesphere.errors import DomainErrorJet, ParseError
from liesphere.gridio import fd_jet_oracle


def test_parse_simple_product():
    ast = E.parse_tau("0.3*sin(u)")
    assert ast == E.BinOp("*", E.Num(0.3), E.Call("sin", E.Var("u")))


def test_parse_constant():
    assert E.parse_tau("2") == E.Num(2.0)


def test_parse_separable_product():
    ast = E.parse_tau("sin(u)*sin(v)")
    assert ast == E.BinOp("*", E.Call("sin", E.Var("u")), E.Call("sin", E.Var("v")))
    jet = E.eval_at(ast, np.array([0.5, 0.5]))
    orac = fd_jet_oracle(lambda p: np.sin(p[0]) * np.sin(p[1]), np.array([0.5, 0.5]), 1e-4)
    assert np.max(np.abs(jet.grad - orac.grad)) < 1e-6
    assert np.max(np.abs(jet.hess - orac.hess)) < 1e-6


def test_power_binds_tighter_than_unary_minus():
    ast = E.parse_tau("-u^2")
    assert isinstance(ast, E.Neg)
    assert ast.arg == E.BinOp("^", E.Var("u"), E.Num(2.0))
    jet = E.eval_at(ast, np.array([2.0, 0.0]))
    assert jet.value == pytest.approx(-4.0)
    np.testing.assert_allclose(jet.grad, [-4.0, 0.0])


def test_negative_exponent_via_base():
    ast = E.parse_tau("u^-2")
    jet = E.eval_at(ast, np.array([2.0, 1.0]))
    assert jet.value == pytest.approx(0.25)
    assert jet.grad[0] == pytest.approx(-0.25)


def test_variable_exponent_uses_exp_ln():
    pt = np.array([1.7, 0.8])
    jet = E.eval_at(E.parse_tau("u^v"), pt)
    assert jet.value == pytest.approx(1.7**0.8)
    orac = fd_jet_oracle(lambda p: p[0] ** p[1], pt, 1e-4)
    assert np.max(np.abs(jet.grad - orac.grad)) < 1e-6
    assert np.max(np.abs(jet.hess - orac.hess)) < 1e-5


def test_left_associativity():
    assert E.eval_at(E.parse_tau("2 - 3 - 4"), np.zeros(2)).value == pytest.approx(-5.0)
    assert E.eval_at(E.parse_tau("8/4/2"), np.zeros(2)).value == pytest.approx(1.0)


def test_power_does_not_chain():
    with pytest.raises(ParseError) as exc:
        E.parse_tau("2^3^2")
    assert exc.value.position == 3


def test_error_positions_and_expected():
    with pytest.raises(ParseError) as exc:
        E.parse_tau("sin(w)")
    assert exc.value.position == 4
    assert "u" in exc.value.expected
    with pytest.raises(ParseError) as exc:
        E.parse_tau("1 + ")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        E.parse_tau("")
    with pytest.raises(ParseError):
        E.parse_tau("(1 + 2")
    with pytest.raises(ParseError) as exc:
        E.parse_tau("1 ? 2")
    assert exc.value.position == 2


def test_roundtrip_examples():
    for src in (
        "0.3*sin(u)",
        "sin(u)*sin(v)",
        "-u^2",
        "u^-2",
        "2 - 3 - 4",
        "2/(3*u)",
        "-(u+v)",
        "exp(ln(u)) + cos(v)^2",
        "1e-3*u",
    ):
        ast = E.parse_tau(src)
        assert E.parse_tau(E.to_source(ast)) == ast


_LEAVES = st.one_of(
    st.builds(
        E.Num,
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    ),
    st.sampled_from([E.Var("u"), E.Var("v")]),
)


def _extend(children):
    return st.one_of(
        st.builds(E.Neg, children),
        st.builds(
            lambda op, left, right: E.BinOp(op, left, right),
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children,
        ),
        st.builds(lambda b, e: E.BinOp("^", b, e), children, children),
        st.builds(
            lambda fn, arg: E.Call(fn, arg), st.sampled_from(E.FUNCTIONS), children
        ),
    )


@given(st.recursive(_LEAVES, _extend, max_leaves=14))
@settings(max_examples=150, deadline=None)
def test_roundtrip_random_asts(ast):
    assert E.parse_tau(E.to_source(ast)) == ast


def test_nesting_is_refused_beyond_max_depth():
    # each of these overflowed Python's recursion limit in parsing or evaluation
    for src in ("u" + "+u" * 3000, "-" * 3000 + "u", "(" * 5000 + "u" + ")" * 5000):
        with pytest.raises(ParseError, match=f"nests more than {E.MAX_DEPTH} levels"):
            E.parse_tau(src)
    n = E.MAX_DEPTH
    # a chain of n - 1 operators, n - 1 minus signs, n parentheses: n levels each
    for src, deeper in [
        ("u" + "+u" * (n - 1), "u" + "+u" * n),
        ("-" * (n - 1) + "u", "-" * n + "u"),
        ("(" * n + "u" + ")" * n, "(" * (n + 1) + "u" + ")" * (n + 1)),
        ("sin(" * (n - 1) + "u" + ")" * (n - 1), "sin(" * n + "u" + ")" * n),
    ]:
        ast = E.parse_tau(src)
        assert E.parse_tau(E.to_source(ast)) == ast
        assert np.isfinite(E.eval_at(ast, np.array([0.5, 0.5])).value)
        with pytest.raises(ParseError):
            E.parse_tau(deeper)


def test_eval_matches_fd_on_random_smooth_expressions():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a, w1, w2 = rng.uniform(0.3, 1.4, size=3)
        src = f"{a:.3f}*sin({w1:.3f}*u)*cos({w2:.3f}*v) + exp(0.2*cos(u))"
        pt = rng.uniform(0.5, 5.5, size=2)
        ast = E.parse_tau(src)
        jet = E.eval_at(ast, pt)
        orac = fd_jet_oracle(lambda p: float(E.eval_at(ast, p).value), pt, 1e-3)
        assert np.max(np.abs(jet.grad - orac.grad)) < 1e-5
        assert np.max(np.abs(jet.hess - orac.hess)) < 1e-4


def test_eval_domain_errors_surface():
    with pytest.raises(DomainErrorJet):
        E.eval_at(E.parse_tau("ln(u)"), np.array([-1.0, 0.0]))
    # a division by zero is not finite, named at its point like any other
    with pytest.raises(DomainErrorJet, match=r"1\.0 / u is not finite at parameter point \[0\.0, 0\.0\]"):
        E.eval_at(E.parse_tau("1/u"), np.array([0.0, 0.0]))


def test_domain_error_carries_its_point():
    # the first point of the batch where the expression is not finite; no
    # index, since a block's own index is not the batch's
    with pytest.raises(DomainErrorJet) as info:
        E.eval_at(E.parse_tau("1/u"), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert info.value.point.tolist() == [0.0, 0.0]
    assert info.value.index is None
    assert str(info.value) == "1.0 / u is not finite at parameter point [0.0, 0.0]"


def test_batched_evaluation_shapes():
    pts = np.random.default_rng(0).uniform(0.1, 6.0, size=(5, 7, 2))
    jet = E.eval_at(E.parse_tau("sin(u)+cos(v)"), pts)
    assert jet.value.shape == (5, 7)
    assert jet.grad.shape == (2, 5, 7)
    np.testing.assert_allclose(
        jet.value, np.sin(pts[..., 0]) + np.cos(pts[..., 1])
    )


@pytest.mark.parametrize("order", [1, 2, 3])
def test_literal_only_expressions_are_jets_at_the_points(order):
    # literals evaluate to numbers, but a whole expression is still a jet
    pts = np.random.default_rng(1).uniform(0.1, 6.0, size=(5, 7, 2))
    for src, value in (("0.3", 0.3), ("-2.5", -2.5), ("2^3 - 1/4", 7.75), ("sin(0)", 0.0)):
        jet = E.eval_at(E.parse_tau(src), pts, order)
        assert jet.order == order and jet.value.shape == (5, 7)
        np.testing.assert_array_equal(jet.value, np.full((5, 7), value))
        for slot in (jet.grad, jet.hess, jet.third)[:order]:
            assert slot.shape[1:] == (5, 7) and not slot.any()
    first = re.escape(str(np.round(pts[0, 0], 6).tolist()))  # the first point in batch order
    with pytest.raises(DomainErrorJet, match=f"is not finite at parameter point {first}"):
        E.eval_at(E.parse_tau("1/(2 - 2)"), pts, order)


def test_third_slot_is_checked_finite():
    # u^2.5 has finite partials through order two at u = 0, an infinite third
    pt = np.array([[0.5, 1.0], [0.0, 1.0]])
    src = E.parse_tau("u^2.5 + v")
    assert E.eval_at(src, pt).order == 2
    with pytest.raises(DomainErrorJet, match=r"\[0\.0, 1\.0\]"):
        E.eval_at(src, pt, order=3)
    jet = E.eval_at(E.parse_tau("2 + u*u*v"), pt, order=3)
    assert jet.order == 3
    np.testing.assert_array_equal(jet.third.T, [[0.0, 2.0, 0.0, 0.0]] * 2)

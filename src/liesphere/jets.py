"""Truncated jet arithmetic in m variables, through order three.

A :class:`Jet2` stores the value, gradient, symmetric Hessian and optionally
the symmetric third partials of a smooth quantity at a parameter point, packed
(upper triangle; d_ijk for i <= j <= k).  Arithmetic propagates derivatives
exactly via Leibniz / Faa di Bruno rules, so first derivatives of any derived
quantity carry no truncation error.

Shapes: ``value`` may be an array of any shape ``S``; the slots are stored
derivative-major, ``grad`` with shape ``(m,) + S``, ``hess`` ``(m(m+1)/2,) + S``
and ``third`` ``(m(m+1)(m+2)/6,) + S``.  Slot ``k`` is then an array shaped like
the value, so elementwise operations broadcast the value against whole slots
and run over all points and components at once; this is how whole parameter
grids and vector-valued quantities are processed in single vectorized calls.
Value axes are addressed by negative positions, which mean the same axis in
the value and in every slot.

A jet has an order, the number of derivative slots present: 0 to 3, and 2 for
a seed unless asked otherwise.  :meth:`Jet2.deriv` lowers the order by one, since
the derivative's top slot would need derivatives the input does not carry.
Jet arithmetic is triangular in the slots (values depend on values, gradients
on values and gradients), so every operation returns the lowest order of its
operands and never computes a slot that order cannot know.  A number (or 0-d
array) operand is not lifted to a jet: it scales or shifts the slots present,
so it never changes a jet's order.  The 2x2 matrices (m = 2) go through the
closed-forms :func:`det2`, :func:`eigmin2` and :func:`mat_inverse`, not LAPACK.

Nothing here screens for trouble: a division by zero, a ln off its domain or
an overflow leaves slots that are not finite (and a ``RuntimeWarning`` outside
``np.errstate``), for the caller's finiteness mask to name the point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainErrorJet

Scalar = Union[int, float, np.ndarray]


def packed_len(m: int) -> int:
    return m * (m + 1) // 2


@lru_cache(maxsize=None)
def _tri(m: int):
    """Row/col index arrays of the packed upper triangle, row-major."""
    rows, cols = np.triu_indices(m)
    return rows, cols


def packed_index(i: int, j: int, m: int) -> int:
    """Position of the (i, j) second partial in packed storage."""
    if i > j:
        i, j = j, i
    return i * m - i * (i - 1) // 2 + (j - i)


@lru_cache(maxsize=None)
def _tri3(m: int):
    """Packed third-slot tables: ``pos[i, j, k]`` is the position of d_ijk in
    any index order; row s of ``pair``/``single`` splits each stored (i, j, k)
    into a Hessian and a gradient index, (jk, i), (ik, j) and (ij, k)."""
    triples = list(combinations_with_replacement(range(m), 3))
    pos = np.empty((m, m, m), dtype=int)
    for n, t in enumerate(triples):
        for p in permutations(t):
            pos[p] = n
    splits = ((1, 2, 0), (0, 2, 1), (0, 1, 2))
    pair = [[packed_index(t[a], t[b], m) for t in triples] for a, b, _ in splits]
    return pos, np.array(pair), np.array([[t[c] for t in triples] for _, _, c in splits])


class Jet2:
    """Value, gradient, packed Hessian and third partials of a quantity of m variables.

    ``grad``, ``hess`` and ``third`` are None above the jet's :attr:`order`.
    """

    __slots__ = ("value", "grad", "hess", "third", "m")

    def __init__(self, value, grad, hess, m: int, third=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None if grad is None else np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)
        self.third = None if third is None else np.asarray(third, dtype=float)
        self.m = int(m)

    @property
    def order(self) -> int:
        """The number of derivative slots present: 0 to 3."""
        return (self.grad is not None) + (self.hess is not None) + (self.third is not None)

    # ---------- constructors ----------

    @staticmethod
    def constant(value: Scalar, m: int, order: int = 2) -> "Jet2":
        v = np.asarray(value, dtype=float)
        lens = (m, packed_len(m), m * (m + 1) * (m + 2) // 6)
        g, h, t = (np.zeros((n,) + v.shape) if k < order else None for k, n in enumerate(lens))
        return Jet2(v, g, h, m, t)

    @staticmethod
    def variable(value: Scalar, index: int, m: int, order: int = 2) -> "Jet2":
        """Coordinate seed: unit gradient in slot ``index``, zero higher slots."""
        x = Jet2.constant(value, m, order)
        x.grad[index] = 1.0
        return x

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.m != self.m:
                raise ValueError(f"jet dimension mismatch: {other.m} != {self.m}")
            return other
        # at this jet's order, so that a number never lowers it
        return Jet2.constant(other, self.m, self.order)

    def _map(self, on_value, on_derivs=None) -> "Jet2":
        """Apply ``on_value`` to the value and ``on_derivs`` to each slot present.

        ``on_derivs`` defaults to ``on_value``, right for any map that addresses
        value axes by negative position.
        """
        on_derivs = on_derivs or on_value
        slots = (self.grad, self.hess, self.third)
        g, h, t = (None if a is None else on_derivs(a) for a in slots)
        return Jet2(on_value(self.value), g, h, self.m, t)

    # ---------- shape helpers ----------

    @property
    def shape(self):
        return self.value.shape

    def expand(self, axis: int) -> "Jet2":
        """Insert a broadcast axis at (negative) value position ``axis``."""
        if axis >= 0:
            raise ValueError("expand wants a negative axis")
        return self._map(lambda a: np.expand_dims(a, axis))

    def vec(self) -> "Jet2":
        """Scalar jet made broadcastable against component-carrying jets."""
        return self.expand(-1)

    def take(self, key) -> "Jet2":
        """Select along the last value axis (component selection)."""
        return self._map(lambda a: a[..., key])

    def batch(self, key) -> "Jet2":
        """Index leading (batch) axes."""
        slot_key = (slice(None),) + (key if isinstance(key, tuple) else (key,))
        return self._map(lambda a: a[key], lambda a: a[slot_key])

    def deriv(self, i: int) -> "Jet2":
        """Jet of the i-th first partial, one order below this jet.

        Its gradient is row i of the Hessian and its Hessian row i of the
        third slot; an order-0 jet has no partials.
        """
        if self.grad is None:
            raise ValueError("an order-0 jet carries no derivatives")
        row = [packed_index(i, k, self.m) for k in range(self.m)]
        hess_row = None if self.hess is None else self.hess[row]
        third_row = None
        if self.third is not None:
            third_row = self.third[_tri3(self.m)[0][i][_tri(self.m)]]
        return Jet2(self.grad[i], hess_row, third_row, self.m)

    def truncate(self, order: int) -> "Jet2":
        """This jet without its slots above ``order``, for a reader that needs no more."""
        if self.order <= order:
            return self
        g, h, t = (a if k < order else None for k, a in enumerate((self.grad, self.hess, self.third)))
        return Jet2(self.value, g, h, self.m, t)

    # ---------- arithmetic ----------

    def _zip(self, other, op, reflected: bool = False) -> "Jet2":
        """Slotwise ``op(self, other)`` (``op(other, self)`` when reflected); a number
        operand of ``+`` or ``-`` shifts the value alone."""
        if _is_number(other):
            if reflected:  # other - self is (-self) + other
                return (-self)._zip(other, np.add)
            return Jet2(op(self.value, other), self.grad, self.hess, self.m, self.third)
        x, y = _aligned(self, self._lift(other))
        if reflected:
            x, y = y, x
        grad, hess = lambda: op(x.grad, y.grad), lambda: op(x.hess, y.hess)
        third = lambda: op(x.third, y.third)  # noqa: E731
        return _combine((x, y), op(x.value, y.value), grad, hess, third)

    def __add__(self, other):
        return self._zip(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __rsub__(self, other):
        return self._zip(other, np.subtract, reflected=True)

    def __neg__(self):
        return self._map(np.negative)

    def __mul__(self, other):
        if _is_number(other):
            return self._map(lambda a: a * other)
        x, y = _aligned(self, self._lift(other))
        rows, cols = _tri(self.m)
        _, pair, single = _tri3(self.m)
        va, vb = x.value, y.value
        return _combine(
            (x, y),
            va * vb,
            lambda: x.grad * vb + y.grad * va,
            lambda: x.hess * vb
            + y.hess * va
            + x.grad[rows] * y.grad[cols]
            + x.grad[cols] * y.grad[rows],
            lambda: x.third * vb
            + y.third * va
            + (x.hess[pair] * y.grad[single]).sum(axis=0)
            + (x.grad[single] * y.hess[pair]).sum(axis=0),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_number(other):
            return self * np.reciprocal(float(other))
        return self * _recip(self._lift(other))

    def __rtruediv__(self, other):
        if _is_number(other):
            return _recip(self) * other
        return self._lift(other) * _recip(self)

    def __pow__(self, p):
        if isinstance(p, Jet2):
            return powj(self, p)
        n = float(p)
        if n == 0.0:
            return Jet2.constant(np.ones_like(self.value), self.m, self.order)
        if n == 1.0:
            return self
        v = self.value
        n3 = n * (n - 1.0) * (n - 2.0)  # 0 at n = 2, where v**(n - 3) may not exist
        fppp = lambda: n3 * v ** (n - 3.0) if n3 else np.zeros_like(v)  # noqa: E731
        return _chain(self, v**n, n * v ** (n - 1.0), n * (n - 1.0) * v ** (n - 2.0), fppp)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet2(m={self.m}, order={self.order}, value={self.value!r})"


def _is_number(x) -> bool:
    """A number or a 0-d array: an operand that acts on the slots without becoming a jet."""
    return not isinstance(x, Jet2) and np.ndim(x) == 0


def _combine(operands, value, grad, hess, third) -> Jet2:
    """Jet at the lowest order of ``operands``; the callables build its slots."""
    order = min(x.order for x in operands)
    return Jet2(
        value,
        grad() if order > 0 else None,
        hess() if order > 1 else None,
        operands[0].m,
        third() if order > 2 else None,
    )


def _aligned(*jets: Jet2) -> list[Jet2]:
    """The jets with the slots of every lower-rank value padded by unit axes after
    the derivative axis, so that slots broadcast against each other as values do."""
    ndim = max(j.value.ndim for j in jets)

    def pad(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[:1] + (1,) * (ndim + 1 - a.ndim) + a.shape[1:])

    return [j if j.value.ndim == ndim else j._map(lambda a: a, pad) for j in jets]


def _recip(x: Jet2) -> Jet2:
    inv = 1.0 / x.value
    return _chain(x, inv, -inv * inv, 2.0 * inv * inv * inv, lambda: -6.0 * inv**4)


def _chain(x: Jet2, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray, fppp) -> Jet2:
    """Jet of an elementary function of x (Faa di Bruno); ``fppp()`` runs at order 3 only."""
    rows, cols = _tri(x.m)
    _, pair, single = _tri3(x.m)
    return _combine(
        (x,),
        f,
        lambda: fp * x.grad,
        lambda: fp * x.hess + fpp * (x.grad[rows] * x.grad[cols]),
        lambda: fp * x.third
        + fpp * (x.hess[pair] * x.grad[single]).sum(axis=0)
        + fppp() * np.prod(x.grad[single], axis=0),
    )


def sin(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return _chain(x, s, c, -s, lambda: -c)


def cos(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return _chain(x, c, -s, -c, lambda: s)


def exp(x: Jet2) -> Jet2:
    e = np.exp(x.value)
    return _chain(x, e, e, e, lambda: e)


def ln(x: Jet2) -> Jet2:
    v = x.value
    inv = 1.0 / v
    return _chain(x, np.log(v), inv, -inv * inv, lambda: 2.0 * inv * inv * inv)


def powj(x: Jet2, y: Jet2) -> Jet2:
    """General power x**y for jet exponents, via exp(y ln x); needs x > 0."""
    return exp(y * ln(x))


_ELEMENTARY: dict[str, Callable[[Jet2], Jet2]] = {
    "sin": sin,
    "cos": cos,
    "exp": exp,
    "ln": ln,
}


def apply(name: str, x: Jet2) -> Jet2:
    """Dispatch an elementary function by name (sin, cos, exp, ln)."""
    try:
        fn = _ELEMENTARY[name]
    except KeyError:
        raise DomainErrorJet(f"unknown elementary function {name!r}") from None
    return fn(x)


# ---------- structural operations ----------


def seed(points: np.ndarray, order: int = 2) -> tuple[Jet2, ...]:
    """Coordinate jets of ``order`` for parameter points of shape ``(..., m)``."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[-1]
    return tuple(Jet2.variable(pts[..., i], i, m, order) for i in range(m))


def stack(jets: Sequence[Jet2], axis: int = -1) -> Jet2:
    """Stack jets along a new (negative) value axis."""
    if axis >= 0:
        raise ValueError("stack wants a negative axis")
    m = jets[0].m
    # Broadcast all operands to a common batch shape before stacking.
    shape = np.broadcast_shapes(*(j.value.shape for j in jets))
    jets = _aligned(*jets)

    def slot(name: str, lead: tuple = ()) -> np.ndarray:
        parts = [np.broadcast_to(getattr(j, name), lead + shape) for j in jets]
        return np.stack(parts, axis=axis)

    return _combine(
        jets,
        slot("value"),
        lambda: slot("grad", (m,)),
        lambda: slot("hess", (packed_len(m),)),
        lambda: slot("third", jets[0].third.shape[:1]),
    )


def wsum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum of an array over ``axis``.

    Terms are added one at a time in index order, each a full-length elementwise
    operation; ``np.sum`` over a short axis loops per element, and it adds fewer
    than 8 terms in this same order.
    """
    terms = iter(np.moveaxis(a, axis, 0))
    out = next(terms)
    for t in terms:
        out = out + t
    return out


def jsum(x: Jet2, axis: int = -1) -> Jet2:
    """:func:`wsum` of a jet over a (negative) value axis."""
    if axis >= 0:
        raise ValueError("jsum wants a negative axis")
    return x._map(lambda a: wsum(a, axis))


# ---------- small dense matrices over jets ----------


def mat_el(A, i: int, j: int):
    """Entry (i, j) of a matrix jet or array (the last two value axes are the matrix)."""
    return A._map(lambda a: a[..., i, j]) if isinstance(A, Jet2) else A[..., i, j]


def mat_from_rows(rows: Sequence[Sequence[Jet2]]) -> Jet2:
    return stack([stack(list(r), axis=-1) for r in rows], axis=-2)


def mat_vec(A: Jet2, x: Jet2) -> Jet2:
    """Matrix–vector product; A is ``(..., n, k)``, x is ``(..., k)``."""
    return jsum(A * x.expand(-2), axis=-1)


def _entries(A):
    """Entries a, b, c, d of the 2x2 matrices on the last two axes of an array or a matrix jet."""
    if A.shape[-2:] != (2, 2):
        raise ValueError("the 2x2 kernels take 2x2 matrices")
    return [mat_el(A, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]


def det2(A):
    """Determinant a d - b c of 2x2 matrices: of an array, or of a matrix jet with
    exact slots and the value bits of ``det2(A.value)``."""
    a, b, c, d = _entries(A)
    return a * d - b * c


def eigmin2(S: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue (p + r)/2 - hypot((p - r)/2, q) of symmetric [[p, q], [q, r]]."""
    p, q, _, r = _entries(S)
    return (p + r) / 2 - np.hypot((p - r) / 2, q)


def singular_mask(A: np.ndarray, rel_tol: float, det: np.ndarray) -> np.ndarray:
    """Scale-aware singularity screen of square matrices: |det| < rel_tol *
    (max|entry|)^n, or a zero matrix.  An infinite one is not flagged."""
    n = A.shape[-1]
    scale = np.max(np.abs(A), axis=(-2, -1))
    return (np.abs(det) < rel_tol * scale**n) | (scale == 0)


def _nan_where(x: Jet2, bad: np.ndarray) -> Jet2:
    if not np.any(bad):
        return x
    return x._map(lambda a: np.where(bad, np.nan, a))


def mat_inverse(A: Jet2, det: Jet2, singular: np.ndarray) -> Jet2:
    """Inverse of a 2x2 matrix jet by cofactors, NaN at the ``singular`` points.

    ``det`` is :func:`det2` of ``A`` and ``singular`` the caller's
    :func:`singular_mask` of its value.  An order-0 jet inverts plain matrices.
    """
    a, b, c, d = _entries(A)
    adj = mat_from_rows([[d, -b], [-c, a]])
    return adj * _recip(_nan_where(det, singular)).expand(-1).expand(-1)

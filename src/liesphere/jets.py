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
the value and in every slot.  In memory the batch axes (a value's leading ones)
are innermost: :func:`stack` allocates the new component axis outermost, and
numpy keeps its operands' order in elementwise results and in ``x.grad[i]``,
so a scalar times a vector runs one loop over the batch per component.  Shapes
and bits do not depend on the layout.

A jet has an order, the number of derivative slots present: 0 to 3, and 2 for
a seed unless asked otherwise.  :meth:`Jet2.deriv` lowers the order by one, since
the derivative's top slot would need derivatives the input does not carry.
Jet arithmetic is triangular in the slots (values depend on values, gradients
on values and gradients), so every operation returns the lowest order of its
operands and never computes a slot that order cannot know.  A number (or 0-d
array) operand is not lifted to a jet: it scales or shifts the slots present,
so it never changes a jet's order.  An operation pays for little beyond its
arithmetic: the constructor takes float64 arrays as they are, the Hessian's
cross terms are summed entry by entry, and :func:`stack`, :func:`wsum` and
:meth:`Jet2.expand` index and assign instead of moving axes.

A 2x2 matrix (m = 2) is never a matrix jet.  The closed forms :func:`det2` and
:func:`eigmin2` take arrays, and the one cofactor inverse :func:`mat_inverse`
takes the entries a, b, c, d (scalar jets or arrays) and det = a d - b c, and
returns d r, -b r, -c r and a r, r = 1/det being NaN at the singular points.

Nothing here screens for trouble: a division by zero, a ln off its domain or
an overflow leaves slots that are not finite (and a ``RuntimeWarning`` outside
``np.errstate``), for the caller's finiteness mask to name the point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Callable, Sequence

import numpy as np

from .errors import DomainErrorJet


def packed_len(m: int) -> int:
    return m * (m + 1) // 2


@lru_cache(maxsize=None)
def _tri(m: int):
    """Row/col index arrays of the packed upper triangle, row-major."""
    return np.triu_indices(m)


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


@lru_cache(maxsize=None)
def _deriv_rows(i: int, m: int):
    """Where the i-th partial's gradient and Hessian sit in the Hessian and third
    slots.  The first is a slice when the row is contiguous, as it always is at
    m = 2, so that it is a view that keeps the slot's memory order."""
    row = [packed_index(i, k, m) for k in range(m)]
    if row == list(range(row[0], row[0] + m)):
        row = slice(row[0], row[0] + m)
    return row, _tri3(m)[0][i][_tri(m)]


_FLOAT = np.dtype(float)


def _floats(a) -> np.ndarray:
    """``a`` as a float64 array; one that already is one passes without a numpy call."""
    if a.__class__ is np.ndarray and a.dtype is _FLOAT:
        return a
    return np.asarray(a, dtype=float)


class Jet2:
    """Value, gradient, packed Hessian and third partials of a quantity of m variables.

    ``grad``, ``hess`` and ``third`` are None above the jet's :attr:`order`.
    """

    __slots__ = ("value", "grad", "hess", "third", "m")

    def __init__(self, value, grad, hess, m: int, third=None):
        self.value = _floats(value)
        self.grad = None if grad is None else _floats(grad)
        self.hess = None if hess is None else _floats(hess)
        self.third = None if third is None else _floats(third)
        self.m = int(m)

    @property
    def order(self) -> int:
        """The number of derivative slots present: 0 to 3."""
        return (self.grad is not None) + (self.hess is not None) + (self.third is not None)

    # ---------- constructors ----------

    @staticmethod
    def constant(value: float | np.ndarray, m: int, order: int = 2) -> "Jet2":
        v = np.asarray(value, dtype=float)
        lens = (m, packed_len(m), m * (m + 1) * (m + 2) // 6)
        g, h, t = (np.zeros((n,) + v.shape) if k < order else None for k, n in enumerate(lens))
        return Jet2(v, g, h, m, t)

    @staticmethod
    def variable(value: float | np.ndarray, index: int, m: int, order: int = 2) -> "Jet2":
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

    def map(self, on_value, on_derivs=None) -> "Jet2":
        """Apply ``on_value`` to the value and ``on_derivs`` to each slot present.

        ``on_derivs`` defaults to ``on_value``, right for any map that addresses
        value axes by negative position.
        """
        on_derivs = on_derivs or on_value
        g, h, t = self.grad, self.hess, self.third
        return Jet2(
            on_value(self.value),
            None if g is None else on_derivs(g),
            None if h is None else on_derivs(h),
            self.m,
            None if t is None else on_derivs(t),
        )

    # ---------- shape helpers ----------

    def expand(self, axis: int) -> "Jet2":
        """Insert a broadcast axis at (negative) value position ``axis``."""
        if axis >= 0:
            raise ValueError("expand wants a negative axis")
        key = (Ellipsis, None) + (slice(None),) * (-1 - axis)
        return self.map(lambda a: a[key])

    def vec(self) -> "Jet2":
        """Scalar jet made broadcastable against component-carrying jets."""
        return self.expand(-1)

    def take(self, key) -> "Jet2":
        """Select along the last value axis (component selection)."""
        return self.map(lambda a: a[..., key])

    def batch(self, key) -> "Jet2":
        """Index leading (batch) axes."""
        slot_key = (slice(None),) + (key if isinstance(key, tuple) else (key,))
        return self.map(lambda a: a[key], lambda a: a[slot_key])

    def deriv(self, i: int) -> "Jet2":
        """Jet of the i-th first partial, one order below this jet.

        Its gradient is row i of the Hessian and its Hessian row i of the
        third slot; an order-0 jet has no partials.
        """
        if self.grad is None:
            raise ValueError("an order-0 jet carries no derivatives")
        row, third_row = _deriv_rows(i, self.m)
        h, t = self.hess, self.third
        return Jet2(
            self.grad[i], None if h is None else h[row], None if t is None else t[third_row], self.m
        )

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
        order = min(x.order, y.order)
        return Jet2(
            op(x.value, y.value),
            op(x.grad, y.grad) if order > 0 else None,
            op(x.hess, y.hess) if order > 1 else None,
            x.m,
            op(x.third, y.third) if order > 2 else None,
        )

    def __add__(self, other):
        return self._zip(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __rsub__(self, other):
        return self._zip(other, np.subtract, reflected=True)

    def __iadd__(self, other):
        """In place, with the bits of ``+``: for a jet whose slots no other reader shares."""
        other = self._lift(other)
        x, y = _aligned(self.truncate(other.order), other)
        for a, b in zip((x.value, x.grad, x.hess, x.third)[: x.order + 1],
                        (y.value, y.grad, y.hess, y.third)):
            np.add(a, b, out=a)
        return x

    def __neg__(self):
        return self.map(np.negative)

    def __mul__(self, other):
        if _is_number(other):
            return self.map(lambda a: a * other)
        x, y = _aligned(self, self._lift(other))
        order, m, va, vb = min(x.order, y.order), self.m, x.value, y.value
        xg, yg, grad, hess, third = x.grad, y.grad, None, None, None
        if order > 0:
            grad = xg * vb
            grad += yg * va
        if order > 1:
            hess = x.hess * vb  # the product's full shape, summed into in place
            hess += y.hess * va
            for k, (i, j) in enumerate(zip(*_tri(m))):  # entry by entry, not gathered
                hess[k] += xg[i] * yg[j]
                hess[k] += xg[j] * yg[i]
        if order > 2:
            _, pair, single = _tri3(m)
            third = x.third * vb + y.third * va + (x.hess[pair] * yg[single]).sum(axis=0)
            third += (xg[single] * y.hess[pair]).sum(axis=0)
        return Jet2(va * vb, grad, hess, m, third)

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
    return x.__class__ in (float, int) or (not isinstance(x, Jet2) and np.ndim(x) == 0)


def _aligned(x: Jet2, y: Jet2) -> tuple[Jet2, Jet2]:
    """x and y, the one of lower value rank :func:`_padded` to the other's, so
    that slots broadcast against each other as values do."""
    d = x.value.ndim - y.value.ndim
    return (x, y) if d == 0 else (x, _padded(y, d)) if d > 0 else (_padded(x, -d), y)


def _padded(x: Jet2, n: int) -> Jet2:
    """x with n unit axes after the derivative axis of each slot, as a value of n more axes."""
    return x.map(lambda a: a, lambda a: a.reshape(a.shape[:1] + (1,) * n + a.shape[1:]))


def _recip(x: Jet2) -> Jet2:
    inv = 1.0 / x.value
    return _chain(x, inv, -inv * inv, 2.0 * inv * inv * inv, lambda: -6.0 * inv**4)


def _chain(x: Jet2, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray, fppp) -> Jet2:
    """Jet of an elementary function of x (Faa di Bruno); ``fppp()`` runs at order 3 only."""
    order, g, grad, hess, third = x.order, x.grad, None, None, None
    if order > 0:
        grad = fp * g
    if order > 1:
        hess = fp * x.hess
        for k, (i, j) in enumerate(zip(*_tri(x.m))):  # entry by entry, not gathered
            hess[k] += fpp * (g[i] * g[j])
    if order > 2:
        _, pair, single = _tri3(x.m)
        third = fp * x.third + fpp * (x.hess[pair] * g[single]).sum(axis=0)
        third += fppp() * np.prod(g[single], axis=0)
    return Jet2(f, grad, hess, x.m, third)


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
    """Stack jets along a new (negative) value axis, at the lowest order of the jets.

    Each slot is filled part by part into one array whose new axis is outermost,
    which keeps the batch axes innermost in memory, and is then transposed once.
    """
    if axis >= 0:
        raise ValueError("stack wants a negative axis")
    shape = np.broadcast_shapes(*(j.value.shape for j in jets))
    n = len(shape)
    jets = [j if j.value.ndim == n else _padded(j, n - j.value.ndim) for j in jets]
    order = min(j.order for j in jets)

    def slot(parts: list, lead: tuple) -> np.ndarray:
        full = lead + shape
        # in memory: the new axis, then the axes of the parts in the first one's order
        mem = range(len(full))
        if parts[0].shape == full:
            mem = sorted(mem, key=parts[0].strides.__getitem__, reverse=True)
        out = np.empty((len(parts),) + tuple(full[i] for i in mem))
        out = out.transpose((0,) + tuple(1 + mem.index(i) for i in range(len(full))))
        for k, a in enumerate(parts):
            out[k] = a  # broadcasts
        p = out.ndim + axis
        return out.transpose(tuple(range(1, p + 1)) + (0,) + tuple(range(p + 1, out.ndim)))

    slots = [slot([j.value for j in jets], ())]
    for k in range(order):
        parts = [(j.grad, j.hess, j.third)[k] for j in jets]
        slots.append(slot(parts, parts[0].shape[:1]))
    slots += [None] * (3 - order)
    return Jet2(slots[0], slots[1], slots[2], jets[0].m, slots[3])


def wsum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum of an array over ``axis``.

    Terms are added one at a time in index order, each a full-length elementwise
    operation.  ``np.sum`` does not give the same bits: it starts from +0.0, so a
    sum of -0.0 terms comes out +0.0, where this one keeps the sign bit.
    """
    pre = (slice(None),) * (axis % a.ndim)
    out = a[pre + (0,)]
    for k in range(1, a.shape[axis]):
        out = out + a[pre + (k,)]
    return out


# ---------- 2x2 matrices ----------


def _entries(A: np.ndarray):
    """Entries a, b, c, d of the 2x2 matrices on the last two axes of an array."""
    if A.shape[-2:] != (2, 2):
        raise ValueError("the 2x2 kernels take 2x2 matrices")
    return A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]


def det2(A: np.ndarray) -> np.ndarray:
    """Determinant a d - b c of 2x2 matrices."""
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


def mat_inverse(a, b, c, d, det, singular: np.ndarray) -> tuple:
    """Entries (0, 0), (0, 1), (1, 0), (1, 1) of the inverse of [[a, b], [c, d]]
    by cofactors, NaN at the ``singular`` points.

    The entries are scalar jets or plain arrays, ``det`` is a d - b c of the same
    kind, and ``singular`` the caller's :func:`singular_mask` of its values.
    """
    if np.any(singular):
        nan_at = lambda x: np.where(singular, np.nan, x)  # noqa: E731
        det = det.map(nan_at) if isinstance(det, Jet2) else nan_at(det)
    r = _recip(det) if isinstance(det, Jet2) else 1.0 / det
    return d * r, -b * r, -c * r, a * r

"""Truncated second-order jet arithmetic in m variables.

A :class:`Jet2` stores the value, gradient and symmetric Hessian of a smooth
quantity at a parameter point.  The Hessian is kept packed (upper triangle,
mixed partials stored once).  Arithmetic propagates derivatives exactly
through order two via Leibniz / chain rules, so first derivatives of any
derived quantity carry no truncation error.

Shapes: ``value`` may be an array of any shape ``S``; then ``grad`` has shape
``S + (m,)`` and ``hess`` shape ``S + (m(m+1)/2,)``.  Elementwise operations
broadcast over ``S``, which is how whole parameter grids and vector-valued
quantities are processed in single vectorized calls.

Jets produced by :meth:`Jet2.deriv` have NaN Hessian slots: those entries
would require third derivatives of the original inputs.  Jet arithmetic is
triangular in the slots (values depend on values, gradients on values and
gradients), so the NaN marker can never leak into a value or gradient.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DivisionByZeroJet, DomainErrorJet, SingularMatrix

Scalar = Union[int, float, np.ndarray]

_ZERO_EPS = np.finfo(float).tiny  # "machine zero" screen for divisions


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


class Jet2:
    """Value, gradient and packed Hessian of a quantity of m variables."""

    __slots__ = ("value", "grad", "hess", "m")

    def __init__(self, value, grad, hess, m: int):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.m = int(m)

    # ---------- constructors ----------

    @staticmethod
    def constant(value: Scalar, m: int) -> "Jet2":
        v = np.asarray(value, dtype=float)
        return Jet2(v, np.zeros(v.shape + (m,)), np.zeros(v.shape + (packed_len(m),)), m)

    @staticmethod
    def variable(value: Scalar, index: int, m: int) -> "Jet2":
        """Coordinate seed: unit gradient in slot ``index``, zero Hessian."""
        v = np.asarray(value, dtype=float)
        g = np.zeros(v.shape + (m,))
        g[..., index] = 1.0
        return Jet2(v, g, np.zeros(v.shape + (packed_len(m),)), m)

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.m != self.m:
                raise ValueError(f"jet dimension mismatch: {other.m} != {self.m}")
            return other
        return Jet2.constant(other, self.m)

    # ---------- shape helpers ----------

    @property
    def shape(self):
        return self.value.shape

    def expand(self, axis: int) -> "Jet2":
        """Insert a broadcast axis at (negative) value position ``axis``."""
        if axis >= 0:
            raise ValueError("expand wants a negative axis")
        return Jet2(
            np.expand_dims(self.value, axis),
            np.expand_dims(self.grad, axis - 1),
            np.expand_dims(self.hess, axis - 1),
            self.m,
        )

    def vec(self) -> "Jet2":
        """Scalar jet made broadcastable against component-carrying jets."""
        return self.expand(-1)

    def take(self, key) -> "Jet2":
        """Select along the last value axis (component selection)."""
        return Jet2(
            self.value[..., key], self.grad[..., key, :], self.hess[..., key, :], self.m
        )

    def batch(self, key) -> "Jet2":
        """Index leading (batch) axes."""
        return Jet2(self.value[key], self.grad[key], self.hess[key], self.m)

    def reshape_batch(self, shape) -> "Jet2":
        """Reshape the value axes to ``shape`` (derivative axes follow)."""
        shape = tuple(shape)
        return Jet2(
            self.value.reshape(shape),
            self.grad.reshape(shape + (self.m,)),
            self.hess.reshape(shape + (packed_len(self.m),)),
            self.m,
        )

    def unpack_hess(self) -> np.ndarray:
        """Full symmetric Hessian, shape ``S + (m, m)``."""
        rows, cols = _tri(self.m)
        out = np.empty(self.value.shape + (self.m, self.m))
        out[..., rows, cols] = self.hess
        out[..., cols, rows] = self.hess
        return out

    def deriv(self, i: int) -> "Jet2":
        """Jet of the i-th first partial.

        The result's Hessian is NaN: it would need third derivatives of the
        inputs.  Values and gradients of anything computed from it stay exact.
        """
        full = self.unpack_hess()
        return Jet2(
            self.grad[..., i],
            full[..., i, :],
            np.full(self.value.shape + (packed_len(self.m),), np.nan),
            self.m,
        )

    # ---------- arithmetic ----------

    def __add__(self, other):
        o = self._lift(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess, self.m)

    def __rsub__(self, other):
        o = self._lift(other)
        return Jet2(o.value - self.value, o.grad - self.grad, o.hess - self.hess, self.m)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess, self.m)

    def __mul__(self, other):
        o = self._lift(other)
        rows, cols = _tri(self.m)
        va, vb = self.value, o.value
        return Jet2(
            va * vb,
            self.grad * vb[..., None] + o.grad * va[..., None],
            self.hess * vb[..., None]
            + o.hess * va[..., None]
            + self.grad[..., rows] * o.grad[..., cols]
            + self.grad[..., cols] * o.grad[..., rows],
            self.m,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return self * _recip(o)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o * _recip(self)

    def __pow__(self, p):
        if isinstance(p, Jet2):
            return powj(self, p)
        n = float(p)
        if n == 0.0:
            return Jet2.constant(np.ones_like(self.value), self.m)
        if n == 1.0:
            return self
        v = self.value
        if n != int(n) and np.any(v < 0.0):
            raise DomainErrorJet("non-integer power of a negative value")
        if n < 2.0 and np.any(v == 0.0):
            if n < 0.0:
                raise DivisionByZeroJet("negative power of zero")
            if n != int(n):
                raise DomainErrorJet("fractional power of zero")
        return _chain(self, v**n, n * v ** (n - 1.0), n * (n - 1.0) * v ** (n - 2.0))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet2(m={self.m}, value={self.value!r})"


def _recip(x: Jet2) -> Jet2:
    v = x.value
    if np.any(np.abs(v) < _ZERO_EPS):
        raise DivisionByZeroJet("jet division by (machine) zero value part")
    inv = 1.0 / v
    return _chain(x, inv, -inv * inv, 2.0 * inv * inv * inv)


def _chain(x: Jet2, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray) -> Jet2:
    """2-jet of an elementary function composed with x (Faa di Bruno, order 2)."""
    rows, cols = _tri(x.m)
    return Jet2(
        f,
        fp[..., None] * x.grad,
        fp[..., None] * x.hess + fpp[..., None] * (x.grad[..., rows] * x.grad[..., cols]),
        x.m,
    )


def sin(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return _chain(x, s, c, -s)


def cos(x: Jet2) -> Jet2:
    s, c = np.sin(x.value), np.cos(x.value)
    return _chain(x, c, -s, -c)


def exp(x: Jet2) -> Jet2:
    e = np.exp(x.value)
    return _chain(x, e, e, e)


def ln(x: Jet2) -> Jet2:
    v = x.value
    if np.any(v <= 0.0):
        raise DomainErrorJet("ln of a non-positive value")
    inv = 1.0 / v
    return _chain(x, np.log(v), inv, -inv * inv)


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


def seed(points: np.ndarray, m: int | None = None) -> tuple[Jet2, ...]:
    """Coordinate jets for parameter points of shape ``(..., m)``."""
    pts = np.asarray(points, dtype=float)
    if m is None:
        m = pts.shape[-1]
    return tuple(Jet2.variable(pts[..., i], i, m) for i in range(m))


def stack(jets: Sequence[Jet2], axis: int = -1) -> Jet2:
    """Stack jets along a new (negative) value axis."""
    if axis >= 0:
        raise ValueError("stack wants a negative axis")
    m = jets[0].m
    vals = [j.value for j in jets]
    # Broadcast all operands to a common batch shape before stacking.
    shape = np.broadcast_shapes(*(v.shape for v in vals))
    vals = [np.broadcast_to(v, shape) for v in vals]
    grads = [np.broadcast_to(j.grad, shape + (m,)) for j in jets]
    hesss = [np.broadcast_to(j.hess, shape + (packed_len(m),)) for j in jets]
    return Jet2(
        np.stack(vals, axis=axis),
        np.stack(grads, axis=axis - 1),
        np.stack(hesss, axis=axis - 1),
        m,
    )


def jsum(x: Jet2, axis: int = -1, weights: np.ndarray | None = None) -> Jet2:
    """Sum (optionally weighted) over a (negative) value axis."""
    if axis >= 0:
        raise ValueError("jsum wants a negative axis")
    v, g, h = x.value, x.grad, x.hess
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        v = v * w
        g = g * w[..., None]
        h = h * w[..., None]
    return Jet2(v.sum(axis=axis), g.sum(axis=axis - 1), h.sum(axis=axis - 1), x.m)


# ---------- small dense matrices over jets ----------


def mat_el(A: Jet2, i: int, j: int) -> Jet2:
    """Entry (i, j) of a matrix jet (last two value axes are the matrix)."""
    return Jet2(A.value[..., i, j], A.grad[..., i, j, :], A.hess[..., i, j, :], A.m)


def mat_from_rows(rows: Sequence[Sequence[Jet2]]) -> Jet2:
    return stack([stack(list(r), axis=-1) for r in rows], axis=-2)


def mat_vec(A: Jet2, x: Jet2) -> Jet2:
    """Matrix–vector product; A is ``(..., n, k)``, x is ``(..., k)``."""
    return jsum(A * x.expand(-2), axis=-1)


def mat_mul(A: Jet2, B: Jet2) -> Jet2:
    """Matrix product; A is ``(..., n, k)``, B is ``(..., k, p)``."""
    return jsum(A.expand(-1) * B.expand(-3), axis=-2)


def mat_identity(n: int, m: int) -> Jet2:
    return Jet2.constant(np.eye(n), m)


def mat_det_value(A: Jet2) -> np.ndarray:
    """Determinant of the value part (regularity margin), any size."""
    return np.linalg.det(A.value)


def singular_mask(A: Jet2, rel_tol: float = 1e-10) -> np.ndarray:
    """Scale-aware singularity screen: |det| < rel_tol * (max|entry|)^n."""
    n = A.value.shape[-1]
    det = mat_det_value(A)
    scale = np.max(np.abs(A.value), axis=(-2, -1))
    return np.abs(det) < rel_tol * np.maximum(scale, _ZERO_EPS) ** n


def _nan_where(x: Jet2, bad: np.ndarray) -> Jet2:
    if not np.any(bad):
        return x
    v = np.where(bad, np.nan, x.value)
    g = np.where(bad[..., None], np.nan, x.grad)
    h = np.where(bad[..., None], np.nan, x.hess)
    return Jet2(v, g, h, x.m)


def mat_inverse(A: Jet2, *, rel_tol: float = 1e-10, on_singular: str = "raise") -> Jet2:
    """Inverse of a square matrix jet.

    Cofactor formulas for n <= 3 (the hot path), jet Gauss-Jordan otherwise.
    ``on_singular='raise'`` raises :class:`SingularMatrix` at the first point
    failing the scale-aware screen; ``'nan'`` poisons those points instead.
    """
    n = A.value.shape[-1]
    if A.value.shape[-2] != n:
        raise ValueError("matrix jet is not square")
    bad = singular_mask(A, rel_tol)
    if np.any(bad):
        if on_singular == "raise":
            idx = np.argwhere(bad)[0]
            raise SingularMatrix(
                f"matrix value part singular at batch index {tuple(idx)}", tuple(idx)
            )
        if on_singular != "nan":
            raise ValueError(f"unknown on_singular mode {on_singular!r}")

    if n == 1:
        e = mat_el(A, 0, 0)
        inv = 1.0 / _nan_where(e, bad)
        return inv.expand(-1).expand(-1)

    if n == 2:
        a, b = mat_el(A, 0, 0), mat_el(A, 0, 1)
        c, d = mat_el(A, 1, 0), mat_el(A, 1, 1)
        det = _nan_where(a * d - b * c, bad)
        adj = mat_from_rows([[d, -b], [-c, a]])
        return adj * _recip(det).expand(-1).expand(-1)

    if n == 3:
        e = [[mat_el(A, i, j) for j in range(3)] for i in range(3)]
        cof = [
            [
                e[(i + 1) % 3][(j + 1) % 3] * e[(i + 2) % 3][(j + 2) % 3]
                - e[(i + 1) % 3][(j + 2) % 3] * e[(i + 2) % 3][(j + 1) % 3]
                for j in range(3)
            ]
            for i in range(3)
        ]
        det = e[0][0] * cof[0][0] + e[0][1] * cof[0][1] + e[0][2] * cof[0][2]
        det = _nan_where(det, bad)
        adj = mat_from_rows([[cof[j][i] for j in range(3)] for i in range(3)])
        return adj * _recip(det).expand(-1).expand(-1)

    return _gauss_jordan(A)


def _gauss_jordan(A: Jet2) -> Jet2:
    """Slow generic inverse: per-batch-point elimination with partial pivoting."""
    n = A.value.shape[-1]
    batch = A.value.shape[:-2]
    total = int(np.prod(batch, dtype=int)) if batch else 1
    flatA = A.reshape_batch((total, n, n))
    mats: list[Jet2] = []
    for b in range(total):
        sub = flatA.batch(b)
        M = [[mat_el(sub, i, j) for j in range(n)] for i in range(n)]
        E = [
            [Jet2.constant(1.0 if i == j else 0.0, A.m) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            piv = max(range(col, n), key=lambda r: abs(float(M[r][col].value)))
            if abs(float(M[piv][col].value)) < _ZERO_EPS:
                raise SingularMatrix("pivot vanished during jet elimination", (b,))
            M[col], M[piv] = M[piv], M[col]
            E[col], E[piv] = E[piv], E[col]
            inv_p = _recip(M[col][col])
            M[col] = [e * inv_p for e in M[col]]
            E[col] = [e * inv_p for e in E[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = M[r][col]
                M[r] = [M[r][k] - factor * M[col][k] for k in range(n)]
                E[r] = [E[r][k] - factor * E[col][k] for k in range(n)]
        mats.append(mat_from_rows(E))
    out = Jet2(
        np.stack([m_.value for m_ in mats]),
        np.stack([m_.grad for m_ in mats]),
        np.stack([m_.hess for m_ in mats]),
        A.m,
    )
    return out.reshape_batch(batch + (n, n))

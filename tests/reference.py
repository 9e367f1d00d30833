"""Independent references that tests compare the engine against.

None of this is used by the engine itself: point-major jet arithmetic, the
structural kernels built from np.stack and np.moveaxis, 2x2 matrices as rows
of scalar jets, the hypersurface (shape-operator) route to f_check, the
diagnostics of a batch with its degenerate points cut out, plaquette
circulations of a sampled 1-form, the quad mesh of a grid built as whole-grid
arrays with its OBJ text, an OBJ reader, the product torus written as
custom-chart text, and its principal curvatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from liesphere import jets as J
from liesphere import ribaucour as RB
from liesphere.charts import CliffordTorus
from liesphere.errors import LieSphereError, NotRegular
from liesphere.gridio import Grid, stereographic
from liesphere.jets import Jet2
from liesphere.liegeom import LegendreFrame, lie_inner


class NotHypersurface(LieSphereError):
    """Induced metric of the spherical projection is singular."""


# ---------- point-major jets ----------
#
# Jet arithmetic in the layout the engine used before its slots went
# derivative-major: the derivative axis last, ``grad`` shaped ``S + (m,)``.
# Every value is combined through the same operations in the same order, so
# the engine's jets must reproduce these bit for bit.


@dataclass
class PointMajor:
    value: np.ndarray
    grad: np.ndarray | None
    hess: np.ndarray | None
    third: np.ndarray | None
    m: int

    @staticmethod
    def of(x: Jet2) -> "PointMajor":
        """An engine jet in the point-major layout."""
        slots = (None if a is None else np.moveaxis(a, 0, -1) for a in (x.grad, x.hess, x.third))
        return PointMajor(x.value, *slots, x.m)

    @property
    def order(self) -> int:
        return sum(a is not None for a in (self.grad, self.hess, self.third))

    def _lift(self, other) -> "PointMajor":
        if isinstance(other, PointMajor):
            return other
        return PointMajor.of(Jet2.constant(other, self.m, self.order))

    def _map(self, on_value, on_derivs) -> "PointMajor":
        slots = (None if a is None else on_derivs(a) for a in (self.grad, self.hess, self.third))
        return PointMajor(on_value(self.value), *slots, self.m)

    def _zip(self, other, op) -> "PointMajor":
        o = self._lift(other)
        return _pm_combine(
            (self, o),
            op(self.value, o.value),
            lambda: op(self.grad, o.grad),
            lambda: op(self.hess, o.hess),
            lambda: op(self.third, o.third),
        )

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __neg__(self):
        return self._map(np.negative, np.negative)

    def __mul__(self, other):
        o = self._lift(other)
        rows, cols = J._tri(self.m)
        _, pair, single = J._tri3(self.m)
        va, vb = self.value, o.value
        return _pm_combine(
            (self, o),
            va * vb,
            lambda: self.grad * vb[..., None] + o.grad * va[..., None],
            lambda: self.hess * vb[..., None]
            + o.hess * va[..., None]
            + self.grad[..., rows] * o.grad[..., cols]
            + self.grad[..., cols] * o.grad[..., rows],
            lambda: self.third * vb[..., None]
            + o.third * va[..., None]
            + (self.hess[..., pair] * o.grad[..., single]).sum(axis=-2)
            + (self.grad[..., single] * o.hess[..., pair]).sum(axis=-2),
        )

    def deriv(self, i: int) -> "PointMajor":
        row = [J.packed_index(i, k, self.m) for k in range(self.m)]
        hess_row = None if self.hess is None else self.hess[..., row]
        third_row = None
        if self.third is not None:
            third_row = self.third[..., J._tri3(self.m)[0][i][J._tri(self.m)]]
        return PointMajor(self.grad[..., i], hess_row, third_row, None, self.m)

    def take(self, key) -> "PointMajor":
        return self._map(lambda a: a[..., key], lambda a: a[..., key, :])

    def batch(self, key) -> "PointMajor":
        return self._map(lambda a: a[key], lambda a: a[key])

    def expand(self, axis: int) -> "PointMajor":
        return self._map(
            lambda a: np.expand_dims(a, axis), lambda a: np.expand_dims(a, axis - 1)
        )


def _pm_combine(operands, value, grad, hess, third) -> PointMajor:
    order = min(x.order for x in operands)
    return PointMajor(
        value,
        grad() if order > 0 else None,
        hess() if order > 1 else None,
        third() if order > 2 else None,
        operands[0].m,
    )


def pm_chain(x: PointMajor, f, fp, fpp, fppp) -> PointMajor:
    """Jet of an elementary function of x; ``fppp()`` runs at order 3 only."""
    rows, cols = J._tri(x.m)
    _, pair, single = J._tri3(x.m)
    return _pm_combine(
        (x,),
        f,
        lambda: fp[..., None] * x.grad,
        lambda: fp[..., None] * x.hess
        + fpp[..., None] * (x.grad[..., rows] * x.grad[..., cols]),
        lambda: fp[..., None] * x.third
        + fpp[..., None] * (x.hess[..., pair] * x.grad[..., single]).sum(axis=-2)
        + fppp()[..., None] * np.prod(x.grad[..., single], axis=-2),
    )


def pm_apply(name: str, x: PointMajor) -> PointMajor:
    """sin, cos, exp, ln or the reciprocal ("recip") of a point-major jet."""
    v = x.value
    if name in ("sin", "cos"):
        s, c = np.sin(v), np.cos(v)
        derivs = (s, c, -s, lambda: -c) if name == "sin" else (c, -s, -c, lambda: s)
    elif name == "exp":
        e = np.exp(v)
        derivs = (e, e, e, lambda: e)
    else:
        inv = 1.0 / v
        if name == "ln":
            derivs = (np.log(v), inv, -inv * inv, lambda: 2.0 * inv * inv * inv)
        else:
            derivs = (inv, -inv * inv, 2.0 * inv * inv * inv, lambda: -6.0 * inv**4)
    return pm_chain(x, *derivs)


def pm_power(x: PointMajor, n: float) -> PointMajor:
    """x**n for a number n other than 0 and 1."""
    v = x.value
    n3 = n * (n - 1.0) * (n - 2.0)
    fppp = lambda: n3 * v ** (n - 3.0) if n3 else np.zeros_like(v)  # noqa: E731
    return pm_chain(x, v**n, n * v ** (n - 1.0), n * (n - 1.0) * v ** (n - 2.0), fppp)


def pm_stack(jets, axis: int = -1) -> PointMajor:
    m = jets[0].m
    shape = np.broadcast_shapes(*(j.value.shape for j in jets))

    def slot(name: str, tail: tuple) -> np.ndarray:
        parts = [np.broadcast_to(getattr(j, name), shape + tail) for j in jets]
        return np.stack(parts, axis=axis - len(tail))

    return _pm_combine(
        jets,
        slot("value", ()),
        lambda: slot("grad", (m,)),
        lambda: slot("hess", (J.packed_len(m),)),
        lambda: slot("third", jets[0].third.shape[-1:]),
    )


def pm_jsum(x: PointMajor, axis: int = -1) -> PointMajor:
    return x._map(lambda a: a.sum(axis=axis), lambda a: a.sum(axis=axis - 1))


def pm_entry(A: PointMajor, i: int, j: int) -> PointMajor:
    """Entry (i, j) of a point-major matrix jet (the last two value axes)."""
    return A._map(lambda x: x[..., i, j], lambda x: x[..., i, j, :])


def pm_mat_inverse(A: PointMajor, singular: np.ndarray) -> PointMajor:
    """2x2 inverse by cofactors, NaN at the ``singular`` points."""
    a, b, c, d = (pm_entry(A, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    det = a * d - b * c
    if np.any(singular):
        det = det._map(
            lambda x: np.where(singular, np.nan, x),
            lambda x: np.where(singular[..., None], np.nan, x),
        )
    adj = pm_stack([pm_stack([d, -b]), pm_stack([-c, a])], axis=-2)
    return adj * pm_apply("recip", det).expand(-1).expand(-1)


# ---------- structural kernels, built as the engine once built them ----------
#
# np.stack + np.moveaxis per slot, a sum over a moveaxis view, np.expand_dims,
# and the Lie inner product as a product, a sum over components and two
# differences of jets.  The engine's kernels index and assign instead, and must
# reproduce these bit for bit.


def ref_wsum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    terms = iter(np.moveaxis(a, axis, 0))
    out = next(terms)
    for t in terms:
        out = out + t
    return out


def ref_expand(x: Jet2, axis: int) -> Jet2:
    return x.map(lambda a: np.expand_dims(a, axis))


def ref_stack(jets: list, axis: int = -1) -> Jet2:
    shape = np.broadcast_shapes(*(j.value.shape for j in jets))

    def pad(a: np.ndarray) -> np.ndarray:  # a derivative slot, as a value of len(shape) axes
        return a.reshape(a.shape[:1] + (1,) * (len(shape) + 1 - a.ndim) + a.shape[1:])

    jets = [j.map(lambda a: a, pad) for j in jets]
    order = min(j.order for j in jets)

    def slot(k: int) -> np.ndarray:
        parts = [(j.value, j.grad, j.hess, j.third)[k] for j in jets]
        lead = parts[0].shape[:1] if k else ()
        return np.moveaxis(np.stack([np.broadcast_to(a, lead + shape) for a in parts]), 0, axis)

    slots = [slot(k) for k in range(order + 1)] + [None] * (3 - order)
    return Jet2(slots[0], slots[1], slots[2], jets[0].m, slots[3])


def ref_lie_inner(x: Jet2, y: Jet2) -> Jet2:
    p = x * y
    return p.take(slice(None, -2)).map(ref_wsum) - p.take(-2) - p.take(-1)


# ---------- small matrices as rows of scalar jets ----------


def mat_values(A: list) -> np.ndarray:
    """The values of a matrix of scalar jets, given as rows, as an array ``(..., n, k)``."""
    values = np.broadcast_arrays(*(x.value for row in A for x in row))
    return np.stack(values, axis=-1).reshape(values[0].shape + (len(A), len(A[0])))


def _dot(xs: list, ys: list) -> Jet2:
    out = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out = out + x * y
    return out


def mat_mul(A: list, B: list) -> list:
    """Matrix product of rows of scalar jets; sums run in index order."""
    return [[_dot(row, [r[j] for r in B]) for j in range(len(B[0]))] for row in A]


def mat_vec(A: list, x: list) -> list:
    return [_dot(row, x) for row in A]


def singular(A: list, rel_tol: float) -> np.ndarray:
    """The engine's regularity screen of a 2x2 matrix of scalar jets, at ``rel_tol``."""
    values = mat_values(A)
    return J.singular_mask(values, rel_tol, J.det2(values))


def mat_inverse(A: list, rel_tol: float) -> list:
    """:func:`jets.mat_inverse` of a 2x2 matrix of scalar jets, as rows, NaN where
    the matrix fails :func:`singular` at ``rel_tol``."""
    (a, b), (c, d) = A
    i00, i01, i10, i11 = J.mat_inverse(a, b, c, d, a * d - b * c, singular(A, rel_tol))
    return [[i00, i01], [i10, i11]]


# ---------- the hypersurface route ----------


def shape_operator_path(
    frame: LegendreFrame,
    tau: Jet2,
    *,
    det_rel_tol: float = RB.DET_REL_TOL,
) -> Jet2:
    """f_check via the hypersurface route df o (A + tau Id)^(-1)(grad_f tau).

    A is the shape operator (dxi = -df o A) and grad_f the gradient of the
    induced metric (df, df); requires f to be an immersion.  Agrees with the
    congruence-metric route at every regular point.
    """
    m = frame.m
    df = [frame.f.deriv(i) for i in range(m)]
    dxi = [frame.xi.deriv(i) for i in range(m)]
    g = [[lie_inner(df[i], df[k]) for k in range(m)] for i in range(m)]
    if np.any(singular(g, det_rel_tol)):
        raise NotHypersurface("induced metric (df, df) is singular in the batch")
    ginv = mat_inverse(g, det_rel_tol)
    S = [[-lie_inner(df[i], dxi[k]) for k in range(m)] for i in range(m)]
    A = mat_mul(ginv, S)
    M = [[A[i][k] + tau if i == k else A[i][k] for k in range(m)] for i in range(m)]
    if np.any(singular(M, det_rel_tol)):
        raise NotRegular("A + tau Id is singular in the batch")
    w = mat_vec(mat_inverse(M, det_rel_tol), mat_vec(ginv, [tau.deriv(i) for i in range(m)]))
    out = w[0].vec() * df[0]
    for i in range(1, m):
        out = out + w[i].vec() * df[i]
    return out


# ---------- the regular-subset route ----------


def subset_route(frame: LegendreFrame, tau: Jet2, det_rel_tol: float = RB.DET_REL_TOL) -> dict:
    """A batch's diagnostics with its degenerate points cut out instead of masked.

    The regular points of the batch's transform are transformed a second time
    on their own (``Jet2.batch``), and the identity suite, the curvature
    identity and the reconstruction read that second transform.  Returns
    ``suite``, ``curvature``, ``reconstruction`` (``back_not_finite`` and
    ``back_singular`` scattered onto the batch) and the ``res_eq*`` columns,
    NaN off the regular points.
    """
    reg = ~RB.transform(frame, tau, det_rel_tol=det_rel_tol).metric.singular
    regular = LegendreFrame(frame.f.batch(reg), frame.xi.batch(reg), frame.cert)
    clean = RB.transform(regular, tau.batch(reg), det_rel_tol=det_rel_tol)
    ah = RB.alpha_hat(clean)
    pw = RB.pointwise_residuals(clean, ah)
    recon = RB.reconstruct(clean, det_rel_tol)
    back = {}
    for check in ("back_not_finite", "back_singular"):
        back[check] = np.zeros(reg.shape, bool)
        back[check][reg] = recon[check]
    columns = {}
    for key in ("eq6", "eq9", "eq13"):
        columns[f"res_{key}"] = np.full(reg.shape, np.nan)
        columns[f"res_{key}"][reg] = pw[key]
    return {
        "suite": RB.residual_suite(pw),
        "curvature": RB.curvature_identity(clean, ah),
        "reconstruction": recon | back,
        "columns": columns,
    }


# ---------- grid exterior derivative ----------


def grid_exterior_derivative(grid: Grid, alpha: np.ndarray) -> tuple[np.ndarray, dict]:
    """Plaquette circulations of a sampled 1-form, divided by cell area.

    ``alpha`` holds the components (a_u, a_v) per grid point, shaped
    ``grid.shape + (2,)``.  Returns the O(h^2) estimate of the exterior
    derivative on cells (placed at the lower-left node of each cell, a
    ``grid.shape`` array) and, for periodic axes, the total circulations
    around the two period generators.
    """
    if alpha.shape != grid.shape + (2,):
        raise ValueError(f"1-form shape {alpha.shape} does not match grid {grid.shape}")
    au = alpha[..., 0]
    av = alpha[..., 1]
    hu, hv = grid.hu, grid.hv
    per_u, per_v = grid.domain.periodic

    def shift(arr, axis):
        rolled = np.roll(arr, -1, axis=axis)
        return rolled

    au1 = shift(au, 0)  # value at (i+1, j)
    av1 = shift(av, 1)  # value at (i, j+1)
    au_up = shift(au, 1)  # alpha_u at (i, j+1)
    av_right = shift(av, 0)  # alpha_v at (i+1, j)

    # trapezoid edge integrals around the cell with corner (i, j)
    bottom = 0.5 * hu * (au + au1)
    right = 0.5 * hv * (av_right + shift(av_right, 1))
    top = 0.5 * hu * (au_up + shift(au1, 1))
    left = 0.5 * hv * (av + av1)
    circ = bottom + right - top - left

    iu = grid.nu if per_u else grid.nu - 1
    iv = grid.nv if per_v else grid.nv - 1
    circ = circ[:iu, :iv]
    dens = circ / (hu * hv)

    periods = {}
    if per_u:
        periods["u"] = float(hu * au[:, 0].sum())
    if per_v:
        periods["v"] = float(hv * av[0, :].sum())

    meta = {
        "max_abs_density": float(np.max(np.abs(dens))) if dens.size else 0.0,
        "max_abs_circulation": float(np.max(np.abs(circ))) if circ.size else 0.0,
        "periods": periods,
    }
    return _pad_cells(dens, grid), meta


def _pad_cells(cells: np.ndarray, grid: Grid) -> np.ndarray:
    """Pad cell data back to node shape with trailing NaN rows (non-periodic)."""
    out = np.full(grid.shape, np.nan)
    out[: cells.shape[0], : cells.shape[1]] = cells
    return out


# ---------- the whole-grid mesh ----------


def ref_mesh(
    points4: np.ndarray, grid: Grid, *, pole_flip: bool = False, drop: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The quad mesh of a grid's (N, 4) sphere points, built as whole-grid arrays:
    the vertices (V, 3), the zero-based faces (F, 4), the count of vertices
    clipped at the pole and the count of further vertices ``drop`` left out.

    Vertices are the stereographic images, row-major; faces wrap across periodic
    seams; a face touching a left-out vertex is left out, and the vertices kept
    are renumbered in order.
    """
    nu, nv = grid.shape
    proj, near = stereographic(points4.reshape(nu, nv, 4), pole_flip=pole_flip)
    verts = proj.reshape(-1, 3)
    bad = near.reshape(-1)
    if drop is not None:
        bad = bad | np.asarray(drop, dtype=bool).reshape(-1)
    per_u, per_v = grid.domain.periodic

    i = np.arange(nu if per_u else nu - 1)[:, None]
    j = np.arange(nv if per_v else nv - 1)[None, :]
    row0, row1 = i * nv, (i + 1) % nu * nv
    col0, col1 = j, (j + 1) % nv
    corners = (row0 + col0, row1 + col0, row1 + col1, row0 + col1)
    faces = np.stack(corners, axis=-1).reshape(-1, 4)

    clipped = int(near.sum())
    if bad.any():
        keep = ~bad
        remap = -np.ones(len(verts), dtype=int)
        remap[keep] = np.arange(int(keep.sum()))
        verts = verts[keep]
        face_ok = keep[faces].all(axis=1)
        faces = remap[faces[face_ok]]
    return verts, faces, clipped, int(bad.sum()) - clipped


def ref_obj_text(verts: np.ndarray, faces: np.ndarray) -> str:
    """OBJ text of a mesh, every value formatted on its own: ``v`` lines of
    f"{x:.17g}", then ``f`` lines of one-based indices; an empty mesh is one
    empty line."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1} {d + 1}" for a, b, c, d in faces]
    return "\n".join(lines) + "\n"


# ---------- OBJ reader ----------


def parse_obj(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read back the v/f subset written by :func:`liesphere.gridio.export_obj`."""
    verts, faces = [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(x.split("/")[0]) - 1 for x in parts[1:]])
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=int)


# ---------- the product torus ----------


def clifford_torus_exprs(r: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Text form of the product torus chart (for custom-chart cross checks)."""
    r = float(r)
    s = float(np.sqrt(1.0 - r * r))
    f = (f"{r!r}*cos(u)", f"{r!r}*sin(u)", f"{s!r}*cos(v)", f"{s!r}*sin(v)")
    xi = (f"-{s!r}*cos(u)", f"-{s!r}*sin(u)", f"{r!r}*cos(v)", f"{r!r}*sin(v)")
    return f, xi


def principal_curvatures(spec: CliffordTorus) -> tuple[float, float]:
    """Principal curvatures (s/r, -r/s) under the convention dxi = -df o A."""
    return (spec.s / spec.r, -spec.r / spec.s)

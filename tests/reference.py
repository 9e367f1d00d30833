"""Independent references that tests compare the engine against.

None of this is used by the engine itself: the hypersurface (shape-operator)
route to f_check, plaquette circulations of a sampled 1-form, an OBJ reader,
the product torus written as custom-chart text, and its principal curvatures.
"""

from __future__ import annotations

import numpy as np

from liesphere import jets as J
from liesphere import ribaucour as RB
from liesphere.charts import CliffordTorus
from liesphere.errors import LieSphereError
from liesphere.gridio import Grid, GridField
from liesphere.jets import Jet2
from liesphere.liegeom import LegendreFrame, lie_inner


class NotHypersurface(LieSphereError):
    """Induced metric of the spherical projection is singular."""


# ---------- small dense matrices over jets ----------


def mat_mul(A: Jet2, B: Jet2) -> Jet2:
    """Matrix product; A is ``(..., n, k)``, B is ``(..., k, p)``."""
    return J.jsum(A.expand(-1) * B.expand(-3), axis=-2)


def mat_identity(n: int, m: int) -> Jet2:
    return Jet2.constant(np.eye(n), m)


def _singular(A: Jet2, rel_tol: float) -> np.ndarray:
    return J.singular_mask(A, rel_tol, J.mat_det_value(A))


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
    g = J.mat_from_rows([[lie_inner(df[i], df[k]) for k in range(m)] for i in range(m)])
    if np.any(_singular(g, det_rel_tol)):
        raise NotHypersurface("induced metric (df, df) is singular in the batch")
    ginv = J.mat_inverse(g, _singular(g, det_rel_tol))
    S = J.mat_from_rows(
        [[-lie_inner(df[i], dxi[k]) for k in range(m)] for i in range(m)]
    )
    A = mat_mul(ginv, S)
    M = A + mat_identity(m, m) * tau.vec().vec()
    if np.any(_singular(M, det_rel_tol)):
        RB._raise_not_regular(_singular(M, det_rel_tol), frame.points, "A + tau Id")
    Minv = J.mat_inverse(M, _singular(M, det_rel_tol))
    dtau_vec = J.stack([tau.deriv(i) for i in range(m)], axis=-1)
    w = J.mat_vec(Minv, J.mat_vec(ginv, dtau_vec))
    out = w.take(0).vec() * df[0]
    for i in range(1, m):
        out = out + w.take(i).vec() * df[i]
    return out


# ---------- grid exterior derivative ----------


def grid_exterior_derivative(alpha: GridField) -> tuple[GridField, dict]:
    """Plaquette circulations of a sampled 1-form, divided by cell area.

    Returns the O(h^2) estimate of the exterior derivative on cells (placed
    at the lower-left node of each cell) and, for periodic axes, the total
    circulations around the two period generators.
    """
    grid = alpha.grid
    if alpha.k != 2:
        raise ValueError("exterior derivative expects a 2-component 1-form")
    au = alpha.data[..., 0]
    av = alpha.data[..., 1]
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
    return GridField(grid, _pad_cells(dens, grid)), meta


def _pad_cells(cells: np.ndarray, grid: Grid) -> np.ndarray:
    """Pad cell data back to node shape with trailing NaN rows (non-periodic)."""
    out = np.full(grid.shape, np.nan)
    out[: cells.shape[0], : cells.shape[1]] = cells
    return out


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

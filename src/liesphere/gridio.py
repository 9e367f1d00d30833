"""Grid sampling, the finite-difference oracle, and exporters.

The finite-difference oracle is deliberately independent of the jet
arithmetic: it approximates first and second partials with O(h^2) central
stencils and exists to cross-validate the exact jets.  Grid-level exterior
derivatives (plaquette circulations) provide the same kind of redundant
check for the closedness tests.

Exports are deterministic: identical inputs give byte-identical OBJ, CSV and
JSON files.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .charts import Domain
from .errors import PoleClipWarning, StencilOutOfDomain
from .jets import Jet2, packed_index, packed_len


@dataclass(frozen=True)
class Grid:
    """Rectangular sample lattice over a chart domain.

    Periodic axes omit the duplicate seam row/column: spacing is span/n for a
    periodic axis and span/(n-1) otherwise.
    """

    nu: int
    nv: int
    domain: Domain

    def __post_init__(self):
        if self.nu < 4 or self.nv < 4:
            raise ValueError("grids must be at least 4x4")

    @property
    def hu(self) -> float:
        span = self.domain.spans[0]
        return span / self.nu if self.domain.periodic[0] else span / (self.nu - 1)

    @property
    def hv(self) -> float:
        span = self.domain.spans[1]
        return span / self.nv if self.domain.periodic[1] else span / (self.nv - 1)

    @property
    def us(self) -> np.ndarray:
        return self.domain.u[0] + self.hu * np.arange(self.nu)

    @property
    def vs(self) -> np.ndarray:
        return self.domain.v[0] + self.hv * np.arange(self.nv)

    def points(self) -> np.ndarray:
        """Parameter points, shape (nu, nv, 2), row-major in u."""
        uu, vv = np.meshgrid(self.us, self.vs, indexing="ij")
        return np.stack([uu, vv], axis=-1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nu, self.nv)


@dataclass
class GridField:
    """k-component field sampled on a grid; data has shape (nu, nv, k)."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim == 2:
            self.data = self.data[..., None]
        if self.data.shape[:2] != self.grid.shape:
            raise ValueError(
                f"field shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    @property
    def k(self) -> int:
        return self.data.shape[-1]


# ---------- finite-difference oracle ----------


def fd_jet_oracle(
    sampler: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    h: float | None = None,
    *,
    domain: Domain | None = None,
) -> Jet2:
    """O(h^2) central-difference 2-jet of a black-box sampler.

    ``sampler`` maps a parameter point (m,) to a scalar or a component
    vector.  ``h`` defaults to 1e-3 times the domain span.  Raises
    :class:`StencilOutOfDomain` when the stencil leaves a non-periodic
    domain.
    """
    p = np.asarray(point, dtype=float)
    m = p.shape[-1]
    if m != 2:
        raise ValueError("the finite-difference oracle samples 2-d parameter domains")
    if h is None:
        span = max(domain.spans) if domain is not None else 2.0 * np.pi
        h = 1e-3 * span
    if not (1e-6 <= h <= 1e-1):
        raise ValueError(f"oracle step h={h} outside [1e-6, 1e-1]")
    if domain is not None:
        corners = p + h * np.array(
            [[du, dv] for du in (-1, 0, 1) for dv in (-1, 0, 1)]
        )
        if not domain.contains(corners).all():
            raise StencilOutOfDomain(
                f"stencil around {p.tolist()} leaves the non-periodic domain"
            )

    def ev(du, dv):
        q = p.copy()
        q[0] += du * h
        q[1] += dv * h
        return np.asarray(sampler(q), dtype=float)

    c = ev(0, 0)
    value = c
    grad = np.empty((m,) + c.shape)
    plus = [ev(1, 0), ev(0, 1)]
    minus = [ev(-1, 0), ev(0, -1)]
    for i in range(m):
        grad[i] = (plus[i] - minus[i]) / (2.0 * h)
    hess = np.empty((packed_len(m),) + c.shape)
    for i in range(m):
        hess[packed_index(i, i, m)] = (plus[i] - 2.0 * c + minus[i]) / (h * h)
    # mixed partial, m = 2 only needs one
    pp = ev(1, 1)
    pm = ev(1, -1)
    mp = ev(-1, 1)
    mm = ev(-1, -1)
    hess[packed_index(0, 1, m)] = (pp - pm - mp + mm) / (4.0 * h * h)
    # move component axes in front of derivative axes
    grad = np.moveaxis(grad, 0, -1)
    hess = np.moveaxis(hess, 0, -1)
    return Jet2(value, grad, hess, m)


def convergence_orders(
    sampler: Callable[[np.ndarray], np.ndarray],
    exact: Jet2,
    point: np.ndarray,
    steps=(1e-2, 5e-3, 2.5e-3),
    *,
    domain: Domain | None = None,
) -> list[float]:
    """Empirical convergence order of the oracle against exact jets.

    Returns log2 error ratios between successive halvings; central
    differences should give values near 2.
    """
    errs = []
    for h in steps:
        approx = fd_jet_oracle(sampler, point, h, domain=domain)
        e = max(
            float(np.max(np.abs(approx.grad - exact.grad))),
            float(np.max(np.abs(approx.hess - exact.hess))),
        )
        errs.append(e)
    orders = []
    for e0, e1 in zip(errs, errs[1:]):
        if e1 == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log2(e0 / e1)))
    return orders


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


# ---------- OBJ / CSV / JSON exporters ----------


# Rows per formatting pass of the text exporters.  It bounds one format string
# and its argument tuple, not any jet, so it need not follow ribaucour.BLOCK;
# the value is that of the first version and was not tuned.
_ROWS = 4096


def _format_rows(fmt: str, rows: np.ndarray) -> Iterator[str]:
    """``fmt`` (one row's %-format) applied to every row, a block of rows at a time.

    ``%.17g`` writes the same digits as ``f"{x:.17g}"``, including ``nan``,
    ``inf``, ``-0`` and subnormals.
    """
    for start in range(0, len(rows), _ROWS):
        block = rows[start : start + _ROWS]
        yield (fmt * len(block)) % tuple(block.ravel().tolist())


@dataclass
class MeshExport:
    """Stereographic image of a grid of unit-sphere points, as quads."""

    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray  # (F, 4), zero-based
    scalars: dict[str, np.ndarray]
    clipped: int = 0


def stereographic(points4: np.ndarray, *, pole_flip: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Project unit S^3 points to R^3 from the pole (0,0,0,+-1).

    Returns the projections and the mask of points too close to the pole.
    """
    x4 = points4[..., 3]
    denom = (1.0 + x4) if pole_flip else (1.0 - x4)
    near = np.abs(denom) < 1e-6
    safe = np.where(near, 1.0, denom)
    proj = points4[..., :3] / safe[..., None]
    return proj, near


def mesh_from_grid(
    points4: np.ndarray,
    grid: Grid,
    *,
    pole_flip: bool = False,
    scalars: dict[str, np.ndarray] | None = None,
    drop: np.ndarray | None = None,
) -> MeshExport:
    """Build the quad mesh of a (nu, nv, 4) sphere-valued field.

    Vertices are emitted row-major; faces wrap across periodic seams.
    Vertices at the projection pole are clipped (with a warning) together
    with any face touching them; ``drop`` marks additional vertices to omit
    silently (e.g. masked family points).
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

    clipped = int(bad.sum())
    if clipped:
        if near.any():
            warnings.warn(
                f"{int(near.sum())} vertices clipped at the stereographic pole",
                PoleClipWarning,
            )
        keep = ~bad
        remap = -np.ones(len(verts), dtype=int)
        remap[keep] = np.arange(int(keep.sum()))
        verts = verts[keep]
        face_ok = keep[faces].all(axis=1)
        faces = remap[faces[face_ok]]
        scalars = {
            k: np.asarray(v, float).reshape(-1)[keep] for k, v in (scalars or {}).items()
        }
    else:
        scalars = {k: np.asarray(v, float).reshape(-1) for k, v in (scalars or {}).items()}
    return MeshExport(verts, faces, scalars, clipped)


def _obj_chunks(mesh: MeshExport) -> Iterator[str]:
    yield from _format_rows("v %.17g %.17g %.17g\n", mesh.vertices)
    yield from _format_rows("f %d %d %d %d\n", mesh.faces + 1)
    if not len(mesh.vertices) and not len(mesh.faces):
        yield "\n"  # an empty mesh is one empty line


def obj_text(mesh: MeshExport) -> str:
    return "".join(_obj_chunks(mesh))


def export_obj(
    path,
    points4: np.ndarray,
    grid: Grid,
    *,
    pole_flip: bool = False,
    drop: np.ndarray | None = None,
) -> MeshExport:
    mesh = mesh_from_grid(points4, grid, pole_flip=pole_flip, drop=drop)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_obj_chunks(mesh))
    return mesh


def parse_obj(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read back the v/f subset written by :func:`obj_text`."""
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


def write_fields_csv(path, grid: Grid, columns: dict[str, np.ndarray]) -> None:
    """One row per grid point (row-major), deterministic formatting."""
    names = list(columns.keys())
    table = np.column_stack(
        [grid.points().reshape(-1, 2)]
        + [np.asarray(columns[n], dtype=float).reshape(-1) for n in names]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["u", "v"] + names) + "\n")
        fh.writelines(_format_rows(",".join(["%.17g"] * table.shape[1]) + "\n", table))


def canonical_json(obj) -> str:
    """Deterministic JSON rendering for reports."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))

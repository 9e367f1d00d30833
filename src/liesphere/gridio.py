"""Grid sampling, the finite-difference oracle, and exporters.

The finite-difference oracle is deliberately independent of the jet
arithmetic: it approximates first and second partials with O(h^2) central
stencils and exists to cross-validate the exact jets.

Exports are deterministic: identical inputs give byte-identical OBJ, CSV and
JSON files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .charts import Domain
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
        return self[:].reshape(self.nu, self.nv, 2)

    def __len__(self) -> int:
        return self.nu * self.nv

    def __getitem__(self, key) -> np.ndarray:
        """The flat parameter points at ``key``, a slice of flat indices, (n, 2), or
        one index ``(k,)``, (2,): made from the axes alone, bit for bit ``points()``'s."""
        k = np.arange(*key.indices(len(self))) if isinstance(key, slice) else key[0]
        return np.stack([self.us[k // self.nv], self.vs[k % self.nv]], axis=-1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nu, self.nv)


@dataclass(frozen=True, eq=False)
class Wrapped:
    """A batch's parameter points wrapped into ``domain`` as they are read:
    ``Wrapped(domain, points)[key]`` is ``domain.wrap(points[key])``."""

    domain: Domain
    points: np.ndarray | Grid  # (N, 2)

    def __getitem__(self, key):
        return self.domain.wrap(self.points[key])


# ---------- finite-difference oracle ----------


def fd_jet_oracle(
    sampler: Callable[[np.ndarray], np.ndarray], point: np.ndarray, h: float
) -> Jet2:
    """O(h^2) central-difference 2-jet of a black-box sampler.

    ``sampler`` maps a parameter point (m,) to a scalar or a component
    vector; ``h`` is the stencil step.
    """
    p = np.asarray(point, dtype=float)
    m = p.shape[-1]
    if m != 2:
        raise ValueError("the finite-difference oracle samples 2-d parameter domains")
    if not (1e-6 <= h <= 1e-1):
        raise ValueError(f"oracle step h={h} outside [1e-6, 1e-1]")

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
    return Jet2(value, grad, hess, m)


# Oracle steps of convergence_orders: successive halvings.
_ORACLE_STEPS = (1e-2, 5e-3, 2.5e-3)


def convergence_orders(
    sampler: Callable[[np.ndarray], np.ndarray], exact: Jet2, point: np.ndarray
) -> list[float]:
    """Empirical convergence order of the oracle against exact jets.

    Returns log2 error ratios between the successive halvings of
    ``_ORACLE_STEPS``; central differences should give values near 2.
    """
    errs = []
    for h in _ORACLE_STEPS:
        approx = fd_jet_oracle(sampler, point, h)
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


# ---------- OBJ / CSV / JSON exporters ----------


# Rows per formatting pass of the text exporters.  It bounds one format string,
# its argument tuple and the distinct-value scan, not any jet, so it need not
# follow ribaucour.BLOCK.  Writer seconds and peak RSS by _ROWS, medians of 5
# fresh runs (2-core x86-64 host, Python 3.11, numpy 2.4), the asymmetric scene
# being check_sinu's torus with tau = 0.3 sin(u) cos(v) + 0.05 sin(3v + u).
# 16384 writes faster at 512^2 but peaks higher on every scene, so 4096 stays:
#
#   _ROWS  transform_export 128^2  transform check_sinu 512^2  export asymmetric 256^2
#    1024  0.090 s  43.1 MB        1.75 s  113.0 MB            0.397 s  48.3 MB
#    4096  0.073 s  43.2 MB        1.43 s  113.2 MB            0.394 s  49.1 MB
#   16384  0.093 s  48.7 MB        1.33 s  115.0 MB            0.359 s  52.7 MB
_ROWS = 4096


def _format_rows(head: str, spec: str, sep: str, n: int, columns: Callable) -> Iterator[str]:
    """``n`` text rows, each ``head``, its values joined by ``sep``, and a newline.

    Rows are formatted a pass of _ROWS at a time, in one ``%`` call, from the
    columns ``columns(key)`` gives for the pass ``key``; each value is written
    with the %-format ``spec``.  A column with at most half of its pass's values
    distinct as bit patterns (so ``-0.0`` is not ``0.0``) formats each distinct
    pattern once and splices the text in with ``%s``: the bytes are the same.
    ``%.17g`` writes the same digits as ``f"{x:.17g}"``, including ``nan``,
    ``inf``, ``-0`` and subnormals.
    """
    for start in range(0, n, _ROWS):
        cols = columns(slice(start, start + _ROWS))
        table, specs = np.empty((len(cols[0]), len(cols)), object), []
        for j, col in enumerate(cols):
            bits, at = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
            repeats = 2 * len(bits) <= len(col)
            if repeats:
                col = np.array([spec % x for x in bits.view(col.dtype).tolist()], object)[at]
            table[:, j] = col
            specs.append("%s" if repeats else spec)
        row = head + sep.join(specs) + "\n"
        yield row * len(table) % tuple(table.ravel().tolist())


@dataclass(frozen=True)
class MeshExport:
    """The counts of a mesh :func:`export_obj` wrote."""

    vertices: int
    faces: int
    clipped: int  # vertices clipped at the pole
    dropped: int  # further vertices omitted as ``drop`` asked


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


def export_obj(
    path,
    points4: np.ndarray,
    grid: Grid,
    *,
    pole_flip: bool = False,
    drop: np.ndarray | None = None,
) -> MeshExport:
    """Write the quad mesh of the (N, 4) unit-sphere points of ``grid`` to ``path``.

    Vertices are the :func:`stereographic` images, written row-major; faces
    wrap across periodic seams.  Vertices at the projection pole are clipped,
    together with any face touching them; ``drop``, an (N,) mask, marks
    further vertices to omit (e.g. masked family points).  Vertices, then
    cells, are written a pass of _ROWS at a time: of the whole grid only the
    (N,) masks and the running count of kept vertices, a vertex's OBJ number,
    are held.
    """
    (nu, nv), (per_u, per_v) = grid.shape, grid.domain.periodic
    ncol = nv if per_v else nv - 1  # cells in a row of the grid
    ncells = (nu if per_u else nu - 1) * ncol
    near, keep = np.empty(len(grid), bool), np.empty(len(grid), bool)
    faces = []  # written, per pass

    def vertices(key):
        proj, near[key] = stereographic(points4[key], pole_flip=pole_flip)
        keep[key] = ~near[key] if drop is None else ~(near[key] | drop[key])
        return proj[keep[key]].T

    def cells(key):
        i, j = divmod(np.arange(*key.indices(ncells)), ncol)
        row0, row1, col1 = i * nv, (i + 1) % nu * nv, (j + 1) % nv
        corners = np.stack([row0 + j, row1 + j, row1 + col1, row0 + col1])
        corners = corners[:, keep[corners].all(axis=0)]
        faces.append(corners.shape[1])
        return number[corners]

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_format_rows("v ", "%.17g", " ", len(grid), vertices))
        number = np.cumsum(keep)  # the OBJ number of each kept vertex, which cells read
        fh.writelines(_format_rows("f ", "%d", " ", ncells, cells))
        if not number[-1]:
            fh.write("\n")  # an empty mesh is one empty line
    kept, clipped = int(number[-1]), int(near.sum())
    return MeshExport(kept, sum(faces), clipped, len(grid) - kept - clipped)


def write_fields_csv(path, grid: Grid, columns: dict[str, np.ndarray]) -> None:
    """One row per grid point (row-major), deterministic formatting."""
    cols = [np.asarray(col, dtype=float).reshape(-1) for col in columns.values()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["u", "v", *columns]) + "\n")
        fh.writelines(_format_rows(
            "", "%.17g", ",", len(grid), lambda key: [*grid[key].T, *(col[key] for col in cols)]
        ))


def canonical_json(obj) -> str:
    """Deterministic JSON rendering for reports."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))

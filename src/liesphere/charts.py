"""Built-in analytic Legendre charts and chart specifications.

Shipped charts parametrize surfaces in S^3 (m = 2).  The product torus chart

    f  = (r cos u, r sin u, s cos v, s sin v),      s = sqrt(1 - r^2)
    xi = (-s cos u, -s sin u, r cos v, r sin v)

satisfies every frame relation identically; with the sign convention
dxi = -df o A its principal curvatures are s/r and -r/s.  A parallel chart
rotates (f, xi) by a fixed angle in each fiber, and custom charts supply the
m+2 components of f and xi as expressions in u, v.  Every chart is lifted by
:func:`eval_chart`, which records its frame's certificate for the caller to judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import exprs as E
from . import jets as J
from . import liegeom as L
from .errors import SceneError
from .jets import Jet2

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Domain:
    """Rectangle [u0,u1] x [v0,v1] with per-axis periodicity flags."""

    u: tuple[float, float] = (0.0, TWO_PI)
    v: tuple[float, float] = (0.0, TWO_PI)
    periodic: tuple[bool, bool] = (True, True)

    @property
    def spans(self) -> tuple[float, float]:
        return (self.u[1] - self.u[0], self.v[1] - self.v[0])

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """``points`` moved by whole periods into [lo, hi) on periodic axes; one there stays."""
        pts = np.array(points, dtype=float, copy=True)
        for axis, ((lo, hi), per) in enumerate(zip((self.u, self.v), self.periodic)):
            x = pts[..., axis]  # a view
            out = per & ((x < lo) | (x >= hi))
            wrapped = lo + np.mod(x[out] - lo, hi - lo)
            x[out] = np.where(wrapped >= hi, lo, wrapped)  # hi itself, as rounding may give, is lo
        return pts


@dataclass(frozen=True)
class CliffordTorus:
    """Product torus in S^3 with circle radii r and sqrt(1-r^2)."""

    r: float
    domain: Domain = field(default_factory=Domain)

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise SceneError(f"torus radius must lie in (0,1), got {self.r}")

    @property
    def s(self) -> float:
        return float(np.sqrt(1.0 - self.r * self.r))


@dataclass(frozen=True)
class ParallelOf:
    """Constant-angle rotation of a base chart's (f, xi) pair."""

    base: "ChartSpec"
    c: float

    @property
    def domain(self) -> Domain:
        return self.base.domain


@dataclass(frozen=True)
class CustomChart:
    """f and xi given componentwise as expressions in u, v."""

    f_exprs: tuple[E.TauExpr, ...]
    xi_exprs: tuple[E.TauExpr, ...]
    domain: Domain = field(default_factory=Domain)

    def __post_init__(self):
        if len(self.f_exprs) != 4 or len(self.xi_exprs) != 4:
            raise SceneError("custom charts need 4 components for f and for xi")


ChartSpec = Union[CliffordTorus, ParallelOf, CustomChart]

# Contact tolerances: analytic built-ins are exact to round-off; user
# expressions may encode normals with modest cancellation.
BUILTIN_CONTACT_TOL = 1e-12
CUSTOM_CONTACT_TOL = 1e-8


def _torus_lift(spec: CliffordTorus, pts: np.ndarray, order: int) -> tuple[Jet2, Jet2]:
    u, v = J.seed(pts, order=order)
    r, s = spec.r, spec.s
    cu, su = J.cos(u), J.sin(u)
    cv, sv = J.cos(v), J.sin(v)
    f = L.spatial_vector([r * cu, r * su, s * cv, s * sv])
    xi = L.spatial_vector([(-s) * cu, (-s) * su, r * cv, r * sv])
    return f, xi


def default_contact_tol(spec: ChartSpec) -> float:
    """The chart kind's certification tolerance."""
    if isinstance(spec, ParallelOf):
        return default_contact_tol(spec.base)
    return CUSTOM_CONTACT_TOL if isinstance(spec, CustomChart) else BUILTIN_CONTACT_TOL


def eval_chart(spec: ChartSpec, points: np.ndarray, order: int = 2) -> L.LegendreFrame:
    """The chart's frame at parameter points ``(..., 2)``, wrapped into its domain.

    ``order`` is the jet order of f and xi; ``cert`` records the frame's residuals
    (:func:`liegeom.lift_frame`), never judged here.  Custom components that are
    not finite raise :class:`DomainErrorJet` naming the expression and the point.
    """
    f, xi = _eval_lift(spec, spec.domain.wrap(np.asarray(points, dtype=float)), order)
    return L.lift_frame(f, xi)


def _eval_lift(spec: ChartSpec, pts: np.ndarray, order: int) -> tuple[Jet2, Jet2]:
    if isinstance(spec, CliffordTorus):
        return _torus_lift(spec, pts, order)
    if isinstance(spec, ParallelOf):
        fb, xib = _eval_lift(spec.base, pts, order)
        c, s = float(np.cos(spec.c)), float(np.sin(spec.c))
        return c * fb + s * xib, (-s) * fb + c * xib
    if isinstance(spec, CustomChart):
        comps = E.eval_all(spec.f_exprs + spec.xi_exprs, pts, order)
        return L.spatial_vector(comps[:4]), L.spatial_vector(comps[4:])
    raise TypeError(f"unknown chart spec {spec!r}")


# ---------- JSON round trip for scene files ----------


def number_from_json(value, key: str) -> float:
    """A finite JSON number as a float, else a :class:`SceneError` naming ``key``:
    a bool, a string or any other value is not a number."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if is_number else np.nan
    except OverflowError:  # an int beyond the float range
        number = np.nan
    if not np.isfinite(number):
        raise SceneError(f"{key!r} must be a finite number, got {value!r}")
    return number


def chart_from_json(obj: dict, depth: int = 0) -> ChartSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SceneError("chart must be an object with a 'kind' key")
    kind = obj["kind"]
    dom = _domain_from_json(obj.get("domain"))
    if kind == "clifford_torus":
        if "r" not in obj:
            raise SceneError("clifford_torus chart needs 'r'")
        return CliffordTorus(number_from_json(obj["r"], "r"), dom or Domain())
    if kind == "parallel_of":
        if "base" not in obj or "c" not in obj:
            raise SceneError("parallel_of chart needs 'base' and 'c'")
        if depth == E.MAX_DEPTH:  # its lift recurses once a level, as an expression's does
            raise SceneError(f"'base' nests parallel_of charts more than {depth} deep")
        return ParallelOf(chart_from_json(obj["base"], depth + 1), number_from_json(obj["c"], "c"))
    if kind == "custom":
        for key in ("f", "xi"):
            if key not in obj:
                raise SceneError(f"custom chart needs '{key}' component expressions")
        try:
            f = tuple(E.parse_tau(s) for s in obj["f"])
            xi = tuple(E.parse_tau(s) for s in obj["xi"])
        except (E.ParseError, TypeError) as exc:
            raise SceneError(f"bad 'f'/'xi' component expression: {exc}") from exc
        return CustomChart(f, xi, dom or Domain(periodic=(False, False)))
    raise SceneError(f"unknown chart kind {kind!r}")


def chart_to_json(spec: ChartSpec) -> dict:
    if isinstance(spec, CliffordTorus):
        return {"kind": "clifford_torus", "r": spec.r, "domain": _domain_to_json(spec.domain)}
    if isinstance(spec, ParallelOf):
        return {"kind": "parallel_of", "base": chart_to_json(spec.base), "c": spec.c}
    if isinstance(spec, CustomChart):
        return {
            "kind": "custom",
            "f": [E.to_source(e) for e in spec.f_exprs],
            "xi": [E.to_source(e) for e in spec.xi_exprs],
            "domain": _domain_to_json(spec.domain),
        }
    raise TypeError(f"unknown chart spec {spec!r}")


def _domain_from_json(obj) -> Domain | None:
    if obj is None:
        return None
    try:
        u, v = (tuple(number_from_json(obj[k][i], f"domain.{k}") for i in (0, 1)) for k in "uv")
        per = tuple(obj.get("periodic", (True, True)))
    except (KeyError, TypeError, IndexError) as exc:
        raise SceneError(f"bad 'domain' spec: {obj!r}") from exc
    if len(per) != 2 or not all(isinstance(p, bool) for p in per):
        raise SceneError(f"'periodic' must be two booleans, got {obj['periodic']!r}")
    if not np.isfinite([u[1] - u[0], v[1] - v[0]]).all():
        raise SceneError(f"'domain' must have finite bounds and spans, got {obj!r}")
    if u[1] <= u[0] or v[1] <= v[0]:
        raise SceneError("domain rectangle is empty")
    return Domain(u, v, per)  # type: ignore[arg-type]


def _domain_to_json(dom: Domain) -> dict:
    return {"u": list(dom.u), "v": list(dom.v), "periodic": list(dom.periodic)}

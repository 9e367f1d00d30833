"""Bianchi permutability machinery.

Starting from two certified representative functions tau0, tau1 on the same
chart whose transforms exist, this module builds:

* potentials: tau_tilde_i with alpha_{tau_i} = -d tau_tilde_i, integrated on
  the grid with a derivative-corrected trapezoid rule (the exact first
  partials of alpha come for free from the jets, so each edge integral is
  fourth order);
* the connection operators r_i defined by
  d f_hat_i - (f_hat_i + t0) alpha_hat_i = (df - (f + t0) alpha_i) o r_i,
  symmetric in the induced metric, and the commutator check that gates
  permutability;
* the one-parameter family of representative functions

      tau_theta = (cos(theta) e^{t1~} tau0 + sin(theta) e^{t0~} tau1)
                  / (cos(theta) e^{t1~} + sin(theta) e^{t0~}),

  with endpoint members bit-identical to tau0, tau1 and denominator-singular
  points masked;
* scaled parallel sections u_i (xi - tau_i f - tau_i t0 + t1) with
  u_i = e^{tau_tilde_j}/(tau_i - tau_j), and their parallelism criterion;
* the dual-family step: extraction of the 1-form gamma and integration of
  the coupled system for (tau_hat_0, v) along grid lines with RK4 stages
  evaluated exactly at mid-edge points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import charts as CH
from . import exprs as E
from . import jets as J
from . import liegeom as L
from . import ribaucour as RB
from .errors import (
    BlowUp,
    FullyMasked,
    IllPosed,
    NotPointwiseDistinct,
    NotRibaucour,
    PathDependence,
)
from .gridio import Grid, GridField
from .jets import Jet2
from .liegeom import lie_inner, t0_jet

HALF_PI = np.pi / 2.0

# Mask threshold factor for the family denominator (scale-aware).
MASK_EPS_REL = 1e-6
# Pointwise distinctness gate for (tau0, tau1).
DISTINCT_REL_TOL = 1e-8


# ---------- potentials ----------


@dataclass
class Potential:
    """Grid antiderivative tau_tilde with -d tau_tilde = alpha, gauge-fixed
    to vanish at the base node."""

    values: GridField
    base: tuple[int, int]
    loop_residual: float
    period_residuals: dict

    @property
    def data(self) -> np.ndarray:
        return self.values.data[..., 0]


def _edge_integrals(
    comp: np.ndarray, dcomp: np.ndarray | None, h: float, axis: int
) -> np.ndarray:
    """Per-edge integrals of one 1-form component along one grid axis.

    Trapezoid plus the Euler-Maclaurin end correction when the exact partial
    ``dcomp`` is available (making each edge fourth order).
    """
    nxt = np.roll(comp, -1, axis=axis)
    out = 0.5 * h * (comp + nxt)
    if dcomp is not None:
        dn = np.roll(dcomp, -1, axis=axis)
        out = out + (h * h / 12.0) * (dcomp - dn)
    return out


def integrate_potential(
    alpha: GridField,
    alpha_grad: GridField | None = None,
    *,
    base: tuple[int, int] = (0, 0),
    loop_tol: float | None = None,
) -> Potential:
    """Integrate tau_tilde = -integral of alpha from the base node.

    ``alpha`` carries the components (a_u, a_v); ``alpha_grad``, when given,
    carries the partials in layout (d_u a_u, d_v a_u, d_u a_v, d_v a_v).
    The route is rows first (u direction along the base row), then columns.
    Elementary-cell circulations and, on periodic axes, the period
    circulations certify path independence; failure raises
    :class:`PathDependence`.
    """
    grid = alpha.grid
    if alpha.k != 2:
        raise ValueError("potential integration expects a 2-component 1-form")
    au, av = alpha.data[..., 0], alpha.data[..., 1]
    if alpha_grad is not None:
        dau_u = alpha_grad.data[..., 0]
        dav_v = alpha_grad.data[..., 3]
    else:
        dau_u = dav_v = None
    hu, hv = grid.hu, grid.hv
    per_u, per_v = grid.domain.periodic

    Iu = _edge_integrals(au, dau_u, hu, axis=0)  # edge (i,j) -> (i+1,j)
    Iv = _edge_integrals(av, dav_v, hv, axis=1)  # edge (i,j) -> (i,j+1)

    # loop residuals: circulation around each elementary cell
    ncu = grid.nu if per_u else grid.nu - 1
    ncv = grid.nv if per_v else grid.nv - 1
    circ = (
        Iu
        + np.roll(Iv, -1, axis=0)
        - np.roll(Iu, -1, axis=1)
        - Iv
    )[:ncu, :ncv]
    loop = float(np.max(np.abs(circ))) if circ.size else 0.0

    periods = {}
    if per_u:
        periods["u"] = float(np.abs(Iu[:, base[1]].sum()))
    if per_v:
        periods["v"] = float(np.abs(Iv[base[0], :].sum()))

    max_alpha = float(np.max(np.abs(alpha.data))) if alpha.data.size else 0.0
    tol = loop_tol if loop_tol is not None else 1e-7 * (1.0 + max_alpha)
    worst = max([loop] + list(periods.values()))
    if worst > tol:
        raise PathDependence(
            f"circulation residual {worst:.3e} exceeds {tol:.1e}; "
            "the 1-form is not closed on this grid (or has a period)",
            residual=worst,
        )

    i0, j0 = base
    # prefix sums: along the base row (u direction), then along every column
    Su = np.zeros(grid.nu)
    Su[1:] = np.cumsum(Iu[:-1, j0])
    U = Su - Su[i0]
    Sv = np.zeros(grid.shape)
    Sv[:, 1:] = np.cumsum(Iv[:, :-1], axis=1)
    W = Sv - Sv[:, j0][:, None]

    values = -(U[:, None] + W)
    values = values - values[i0, j0]
    return Potential(GridField(grid, values), (i0, j0), loop, periods)


# ---------- connection operators and the permutability gate ----------


@dataclass
class ROperator:
    """Coordinate matrix of the connection operator per grid point."""

    entries: np.ndarray  # (..., m, m)
    relation_residual: float
    metric_symmetry_residual: float
    # rows d_j f_hat - (f_hat + t0) alpha_hat_j of the transformed frame
    hat_differential: np.ndarray | None = None


def r_operator(frame: L.LegendreFrame, result: RB.TransformResult) -> ROperator:
    """Solve (df - (f+t0) alpha)(r d_j) = d f_hat(d_j) - (f_hat+t0) alpha_hat(d_j).

    Normal equations in the ambient inner product restricted to the image;
    the Gram matrix of the left-hand columns is exactly the induced metric
    (df, df), so well-posedness is the immersion condition.
    """
    m = frame.m
    B = RB.corrected_differential(frame.f, result.alpha)
    Bh = RB.corrected_differential(result.f_hat, RB.alpha_hat(result))
    gram = L.pairing(B, B)
    rhs = L.pairing(B, Bh)
    dets = np.linalg.det(gram)
    scale = np.max(np.abs(gram), axis=(-2, -1))
    if np.any(np.abs(dets) < 1e-12 * np.maximum(scale, 1e-300) ** m):
        raise IllPosed("Gram matrix of the connection system is singular")
    entries = np.linalg.solve(gram, rhs)

    # verify the defining relation columnwise, plain component norm
    rel = 0.0
    for j in range(m):
        recon = sum(B[..., k, :] * entries[..., k, j][..., None] for k in range(m))
        rel = max(rel, float(np.max(np.abs(recon - Bh[..., j, :]))))
    sym = gram @ entries
    sym_res = float(np.max(np.abs(sym - np.swapaxes(sym, -1, -2))))
    return ROperator(entries, rel, sym_res, Bh)


@dataclass
class BianchiReport:
    commutator_max: float
    wedge_max: float | None


def bianchi_check(r0: ROperator, r1: ROperator) -> BianchiReport:
    """Max commutator norm of the two operators, plus the equivalent wedge form.

    The wedge form pairs the 1-form slots of the two corrected differentials
    d f_hat_i - (f_hat_i + t0) alpha_hat_i (kept by :func:`r_operator`) and
    takes the ambient inner product on the vector slots; both vanish exactly
    when permutability holds.
    """
    comm = r0.entries @ r1.entries - r1.entries @ r0.entries
    cmax = float(np.max(np.sqrt(np.sum(comm * comm, axis=(-2, -1)))))
    wedge = None
    if r0.hat_differential is not None and r1.hat_differential is not None:
        wedge = float(np.max(np.abs(RB.wedge(r0.hat_differential, r1.hat_differential))))
    return BianchiReport(cmax, wedge)


# ---------- the family ----------


@dataclass
class FamilyMember:
    theta: float
    values: GridField
    mask: np.ndarray  # True where the denominator (or regularity) fails
    result: RB.TransformResult  # on the flattened grid; garbage under the mask
    denominator_masked: int = 0
    regularity_masked: int = 0

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean())


@dataclass
class DemoulinFamily:
    """Everything shared by the members: charts, transforms, potentials."""

    chart: CH.ChartSpec
    grid: Grid
    tau0_expr: E.TauExpr
    tau1_expr: E.TauExpr
    frame: L.LegendreFrame  # flattened over the grid
    tau0: Jet2
    tau1: Jet2
    result0: RB.TransformResult
    result1: RB.TransformResult
    tilde0: Potential
    tilde1: Potential
    r0: ROperator
    r1: ROperator
    bianchi: BianchiReport
    certification: dict = field(default_factory=dict)

    def tilde_jet(self, which: int) -> Jet2:
        """2-jet of a potential: grid values, exact gradient -alpha, exact
        Hessian -(symmetrized d alpha)."""
        pot = self.tilde0 if which == 0 else self.tilde1
        res = self.result0 if which == 0 else self.result1
        value = pot.data.reshape(-1)
        grad = -res.alpha.value
        ag = res.alpha.grad  # (..., comp i, deriv j)
        m = self.frame.m
        hess = np.empty(value.shape + (m * (m + 1) // 2,))
        for i in range(m):
            for j in range(i, m):
                hess[..., J.packed_index(i, j, m)] = -0.5 * (
                    ag[..., i, j] + ag[..., j, i]
                )
        return Jet2(value, grad, hess, m)


def _alpha_fields(result: RB.TransformResult, grid: Grid) -> tuple[GridField, GridField]:
    comps = result.alpha.value.reshape(grid.shape + (-1,))
    g = result.alpha.grad  # (..., comp, deriv)
    partials = np.stack(
        [g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]], axis=-1
    ).reshape(grid.shape + (4,))
    return GridField(grid, comps), GridField(grid, partials)


def build_family(
    chart: CH.ChartSpec,
    tau0_expr: E.TauExpr,
    tau1_expr: E.TauExpr,
    grid: Grid,
    *,
    closedness_rel_tol: float = RB.CLOSEDNESS_REL_TOL,
    base: tuple[int, int] = (0, 0),
) -> DemoulinFamily:
    """Certify both generators, integrate the potentials, gate permutability.

    Raises :class:`NotRibaucour` when a generator fails closedness,
    :class:`NotPointwiseDistinct` when tau0 and tau1 collide, and records the
    commutator norm for the caller to gate on.
    """
    pts = grid.points().reshape(-1, 2)
    frame = CH.eval_chart(chart, pts)
    tau0 = E.eval_at(tau0_expr, frame.points)
    tau1 = E.eval_at(tau1_expr, frame.points)

    diff = np.abs(tau0.value - tau1.value)
    scale = 1.0 + max(float(np.max(np.abs(tau0.value))), float(np.max(np.abs(tau1.value))))
    if np.min(diff) < DISTINCT_REL_TOL * scale:
        raise NotPointwiseDistinct(
            f"tau0 and tau1 differ by only {float(np.min(diff)):.3e} somewhere"
        )

    cert = {}
    results = []
    for label, expr, tau in (("tau0", tau0_expr, tau0), ("tau1", tau1_expr, tau1)):
        res = RB.transform(frame, tau, on_singular="raise")
        maxd, _, _ = RB.ribaucour_residual(frame, tau, result=res)
        maxa = RB.max_abs_alpha(res)
        cert[label] = {"max_dalpha": maxd, "max_alpha": maxa}
        if not RB.classify_ribaucour(maxd, maxa, closedness_rel_tol):
            raise NotRibaucour(
                f"{label} = {E.to_source(expr)!r} fails closedness: "
                f"max |dalpha| = {maxd:.3e}",
                max_dalpha=maxd,
            )
        results.append(res)
    result0, result1 = results

    a0, g0 = _alpha_fields(result0, grid)
    a1, g1 = _alpha_fields(result1, grid)
    tilde0 = integrate_potential(a0, g0, base=base)
    tilde1 = integrate_potential(a1, g1, base=base)

    r0 = r_operator(frame, result0)
    r1 = r_operator(frame, result1)
    bianchi = bianchi_check(r0, r1)

    return DemoulinFamily(
        chart, grid, tau0_expr, tau1_expr, frame, tau0, tau1,
        result0, result1, tilde0, tilde1, r0, r1, bianchi, cert,
    )


def _snap_trig(theta: float) -> tuple[float, float]:
    """cos/sin with exact values at (floating) multiples of pi/2."""
    for k in range(4):
        if theta == k * HALF_PI:
            return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[k]
    return float(np.cos(theta)), float(np.sin(theta))


def demoulin_tau(family: DemoulinFamily, theta: float) -> FamilyMember:
    """Member of the family at angle theta, with its transform; singular points masked.

    theta = 0 returns tau0 bit-for-bit and theta = pi/2 returns tau1, each
    with the generator's transform; other angles combine the generators
    through the potentials.  Points where the denominator falls under the
    scale-aware threshold are masked, as are points where the member itself
    destroys regularity; a member masked on more than half the grid raises
    :class:`FullyMasked`.
    """
    grid = family.grid
    n = grid.nu * grid.nv
    c, s = _snap_trig(float(theta))

    if s == 0.0 or c == 0.0:
        res = family.result0 if s == 0.0 else family.result1
        values = np.array(res.tau.value, copy=True)
        return FamilyMember(
            theta, GridField(grid, values.reshape(grid.shape)), np.zeros(n, bool), res
        )

    t0j = family.tilde_jet(0)
    t1j = family.tilde_jet(1)
    e0 = J.exp(t0j)
    e1 = J.exp(t1j)
    num = c * e1 * family.tau0 + s * e0 * family.tau1
    den = c * e1 + s * e0

    eps = MASK_EPS_REL * (
        float(np.exp(t0j.value.max())) + float(np.exp(t1j.value.max()))
    )
    masked = np.abs(den.value) < eps
    den_patched = Jet2(
        np.where(masked, 1.0, den.value), den.grad, den.hess, den.m
    )
    tau_theta = num / den_patched

    # regularity of the member itself: the transform's metric screen
    res = RB.transform(family.frame, tau_theta, on_singular="nan")
    mask = masked | res.metric.singular
    if mask.mean() > 0.5:
        raise FullyMasked(
            f"family member theta={theta!r} singular on {mask.mean():.0%} of the grid"
        )
    values = np.where(mask, np.nan, tau_theta.value)
    return FamilyMember(
        theta,
        GridField(grid, values.reshape(grid.shape)),
        mask,
        res,
        denominator_masked=int(masked.sum()),
        regularity_masked=int((res.metric.singular & ~masked).sum()),
    )


def member_closedness(
    member: FamilyMember, rel_tol: float = RB.CLOSEDNESS_REL_TOL
) -> dict:
    """Closedness re-verification of one member on its unmasked set."""
    res = member.result.subset(~member.mask)
    maxd, _, _ = RB.ribaucour_residual(res.frame, res.tau, result=res, on_singular="nan")
    maxa = RB.max_abs_alpha(res)
    return {
        "theta": float(member.theta),
        "masked_fraction": member.masked_fraction,
        "max_dalpha": maxd,
        "max_alpha": maxa,
        "ribaucour": RB.classify_ribaucour(maxd, maxa, rel_tol),
    }


# ---------- parallel sections ----------


def parallel_sections(family: DemoulinFamily) -> dict:
    """Scaled sections of the two congruences and their parallelism test.

    sigma_i = u_i (xi - tau_i f - tau_i t0 + t1) with
    u_i = e^{tau_tilde_j} / (tau_i - tau_j); the criterion is
    (d sigma_i, f_hat_j + t0) = 0 for the complementary index j.
    """
    m = family.frame.m
    t0 = t0_jet(m)
    taus = (family.tau0, family.tau1)
    tildes = (family.tilde_jet(0), family.tilde_jet(1))
    hats = (family.result0.f_hat, family.result1.f_hat)

    out = {"residual": 0.0, "u": []}
    for i in (0, 1):
        j = 1 - i
        ui = J.exp(tildes[j]) / (taus[i] - taus[j])
        body = L.light_cone_section(family.frame.f, family.frame.xi, taus[i])
        sigma = ui.vec() * body
        worst = 0.0
        for k in range(m):
            val = lie_inner(sigma.deriv(k), hats[j] + t0).value
            worst = max(worst, float(np.max(np.abs(val))))
        out["u"].append(GridField(family.grid, ui.value.reshape(family.grid.shape)))
        out[f"residual_sigma{i}"] = worst
        out["residual"] = max(out["residual"], worst)
    return out


# ---------- the dual family step ----------


@dataclass
class DualResult:
    patch: Grid
    gamma: GridField  # (nu, nv, 2)
    tau_hat0: GridField
    v: GridField
    w_row: np.ndarray
    w_col: np.ndarray
    consistency: float
    gamma_identity_residual: float


class _DualFields:
    """Pointwise evaluator of every 1-form the dual system needs."""

    def __init__(self, family: DemoulinFamily):
        self.chart = family.chart
        self.tau0_expr = family.tau0_expr
        self.tau1_expr = family.tau1_expr

    def __call__(self, points: np.ndarray) -> dict[str, np.ndarray]:
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        flat = pts.reshape(-1, 2)
        frame = CH.eval_chart(self.chart, flat)
        tau0 = E.eval_at(self.tau0_expr, frame.points)
        tau1 = E.eval_at(self.tau1_expr, frame.points)
        res0 = RB.transform(frame, tau0, on_singular="raise")
        res1 = RB.transform(frame, tau1, on_singular="raise")
        m = frame.m
        ah0 = RB.alpha_hat(res0)

        # gamma from the pairing with the second transform's point sphere
        factor = (tau1.value - tau0.value) * (res1.a.value - 1.0)
        point = res1.f_hat.value + t0_jet(m).value
        gamma = L.inner_value(
            RB.corrected_differential(res0.f_hat, ah0), point[..., None, :]
        ) / factor[..., None]

        dlog = (tau1.grad - tau0.grad) / (tau1.value - tau0.value)[..., None]
        drive = res1.alpha.value - ah0.value + dlog
        return {
            "gamma": gamma.reshape(shape + (m,)),
            "drive": drive.reshape(shape + (m,)),
            "alpha_hat0": ah0.value.reshape(shape + (m,)),
        }


def _sweep(
    w0: np.ndarray,
    lv0: np.ndarray,
    nodes: dict,
    mids: dict,
    h: float,
    comp: int,
    axis_len: int,
    take,
) -> tuple[np.ndarray, np.ndarray]:
    """March the coupled (w, ln v) system along one axis with classical RK4.

    ``take(fields, k)`` selects the slice of a field dict at step k; mids
    hold the fields at the midpoints of the edges being crossed.
    """

    def F(fields, k, w):
        g = take(fields, k)
        return g["drive"][..., comp] + np.exp(w) * g["gamma"][..., comp]

    def Fv(fields, k, w):
        g = take(fields, k)
        dw = g["drive"][..., comp] + np.exp(w) * g["gamma"][..., comp]
        return -dw - g["alpha_hat0"][..., comp]

    w = [np.asarray(w0, dtype=float)]
    lv = [np.asarray(lv0, dtype=float)]
    for k in range(axis_len - 1):
        wk, lvk = w[-1], lv[-1]
        k1 = F(nodes, k, wk)
        k1v = Fv(nodes, k, wk)
        k2 = F(mids, k, wk + 0.5 * h * k1)
        k2v = Fv(mids, k, wk + 0.5 * h * k1)
        k3 = F(mids, k, wk + 0.5 * h * k2)
        k3v = Fv(mids, k, wk + 0.5 * h * k2)
        k4 = F(nodes, k + 1, wk + h * k3)
        k4v = Fv(nodes, k + 1, wk + h * k3)
        wn = wk + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        lvn = lvk + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if np.any(np.abs(wn) > np.log(1e8)):
            raise BlowUp(
                "log separation left [ln 1e-8, ln 1e8]; "
                "the branch assumption (constant sign) broke down"
            )
        w.append(wn)
        lv.append(lvn)
    return np.stack(w), np.stack(lv)


def dual_family_step(
    family: DemoulinFamily,
    patch: Grid | None = None,
    *,
    w_init: float = 0.0,
    fd_step: float = 1e-4,
) -> DualResult:
    """Integrate the dual-family system on a simply connected patch.

    The scalar w = ln(tau0 - tau_hat0) satisfies
    d w = (alpha_{tau1} - alpha_hat_{tau0}) + d ln|tau1 - tau0| + e^w gamma,
    and -d ln v = d w + alpha_hat_{tau0}.  Both are marched with RK4 from the
    (0, 0) corner along rows then columns, and along columns then rows; the
    largest disagreement of the two grids (path independence of the
    integrable system) is returned as ``consistency`` for the caller to gate.
    The closedness of (tau0 - tau_hat0) gamma is verified from the expansion
    d((tau0-tau_hat0) gamma) = d(tau0-tau_hat0) ^ gamma + (tau0-tau_hat0) dgamma
    with the exact differential of the first factor and a small-step central
    difference for dgamma.
    """
    if patch is None:
        lo, hi = 0.1, 2.0 * np.pi - 0.1
        patch = Grid(64, 64, CH.Domain((lo, hi), (lo, hi), (False, False)))
    if patch.domain.periodic[0] or patch.domain.periodic[1]:
        raise ValueError("dual-family integration needs a non-periodic patch")

    fields = _DualFields(family)
    pts = patch.points()
    nodes = fields(pts)

    umids = fields(pts[:-1, :, :] + np.array([patch.hu / 2.0, 0.0]))
    vmids = fields(pts[:, :-1, :] + np.array([0.0, patch.hv / 2.0]))

    def take_u(f, k):
        return {key: val[k] for key, val in f.items()}

    def take_v(f, k):
        return {key: val[:, k] for key, val in f.items()}

    # row-first: march u along the base row, then v upward for all columns
    w_base, lv_base = _sweep(
        np.array(w_init), np.array(0.0), take_v(nodes, 0), take_v(umids, 0),
        patch.hu, 0, patch.nu, take_u,
    )
    w_row, lv_row = _sweep(
        w_base, lv_base, nodes, vmids, patch.hv, 1, patch.nv, take_v
    )
    w_row = np.swapaxes(w_row, 0, 1)
    lv_row = np.swapaxes(lv_row, 0, 1)

    # column-first
    w_base2, lv_base2 = _sweep(
        np.array(w_init), np.array(0.0), take_u(nodes, 0), take_u(vmids, 0),
        patch.hv, 1, patch.nv, take_u,
    )
    w_col, _ = _sweep(
        w_base2, lv_base2, nodes, umids, patch.hu, 0, patch.nu, take_u
    )
    consistency = float(np.max(np.abs(w_row - w_col)))

    # fields of the reported solution (row-first grid)
    tau0_grid = E.eval_at(family.tau0_expr, pts)
    sep = np.exp(w_row)
    tau_hat0 = tau0_grid.value - sep
    v = np.exp(lv_row)

    # residual of d((tau0 - tau_hat0) gamma)
    gamma = nodes["gamma"]
    dw = nodes["drive"] + sep[..., None] * gamma
    dsep = sep[..., None] * dw  # exact differential of tau0 - tau_hat0 given w
    h = fd_step
    gpu = fields(pts + np.array([h, 0.0]))["gamma"]
    gmu = fields(pts - np.array([h, 0.0]))["gamma"]
    gpv = fields(pts + np.array([0.0, h]))["gamma"]
    gmv = fields(pts - np.array([0.0, h]))["gamma"]
    dgam_u = (gpu - gmu) / (2.0 * h)  # d_u gamma components
    dgam_v = (gpv - gmv) / (2.0 * h)
    two_form = (
        dsep[..., 0] * gamma[..., 1]
        + sep * dgam_u[..., 1]
        - dsep[..., 1] * gamma[..., 0]
        - sep * dgam_v[..., 0]
    )
    gamma_identity = float(np.max(np.abs(two_form)))

    return DualResult(
        patch,
        GridField(patch, gamma),
        GridField(patch, tau_hat0),
        GridField(patch, v),
        w_row,
        w_col,
        consistency,
        gamma_identity,
    )


# ---------- reporting ----------


def family_report(
    family: DemoulinFamily,
    thetas,
    *,
    dual: DualResult | None = None,
    closedness_rel_tol: float = RB.CLOSEDNESS_REL_TOL,
    each: Callable[[FamilyMember], None] | None = None,
) -> dict:
    """JSON-ready family report; members are classified at ``closedness_rel_tol``.

    Each member is built once and handed to ``each(member)`` when given; only
    its record is kept, so members are not all held at once.
    """
    members = []
    endpoints_ok = True
    for theta in thetas:
        member = demoulin_tau(family, float(theta))
        rec = member_closedness(member, closedness_rel_tol)
        for label, at, tau in (("tau0", 0.0, family.tau0), ("tau1", HALF_PI, family.tau1)):
            if member.theta == at:
                rec["endpoint"] = label
                endpoints_ok &= np.array_equal(
                    member.values.data[..., 0].reshape(-1), tau.value
                )
        members.append(rec)
        if each is not None:
            each(member)
    rep = {
        "tau0_src": E.to_source(family.tau0_expr),
        "tau1_src": E.to_source(family.tau1_expr),
        "grid": list(family.grid.shape),
        "bianchi_norm": family.bianchi.commutator_max,
        "bianchi_wedge": family.bianchi.wedge_max,
        "endpoints_ok": bool(endpoints_ok),
        "potential_loop_residual": max(
            family.tilde0.loop_residual, family.tilde1.loop_residual
        ),
        "members": members,
    }
    if dual is not None:
        rep["dual"] = {
            "consistency": dual.consistency,
            "gamma_identity_residual": dual.gamma_identity_residual,
        }
    return rep

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
  w = ln(tau0 - tau_hat_0) along grid lines with RK4 stages evaluated exactly
  at mid-edge points; tau_hat_0 itself is tau0 - e^w and is not kept.

Each of these walks its grid in blocks of :func:`ribaucour.eval_blocks`, and
keeps per-point values, never jets; every member and the parallel sections
share one walk, :func:`family_report`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import charts as CH
from . import exprs as E
from . import jets as J
from . import liegeom as L
from . import ribaucour as RB
from .errors import (
    BlowUp,
    DomainErrorJet,
    FullyMasked,
    IllPosed,
    NotPointwiseDistinct,
    NotRegular,
    NotRibaucour,
    PathDependence,
)
from .gridio import Grid
from .jets import Jet2
from .liegeom import lie_inner, t0_jet

HALF_PI = np.pi / 2.0
ILL_POSED = "Gram matrix of the connection system is singular"

# Mask threshold factor for the family denominator (scale-aware).
MASK_EPS_REL = 1e-6
# Pointwise distinctness gate for (tau0, tau1).
DISTINCT_REL_TOL = 1e-8


# ---------- potentials ----------


@dataclass
class Potential:
    """Grid antiderivative tau_tilde with -d tau_tilde = alpha, gauge-fixed
    to vanish at the base node."""

    data: np.ndarray  # (nu, nv)
    loop_residual: float
    period_residuals: dict


def _edge_integrals(
    comp: np.ndarray, dcomp: np.ndarray, h: float, axis: int
) -> np.ndarray:
    """Per-edge integrals of one 1-form component along one grid axis.

    Trapezoid plus the Euler-Maclaurin end correction from the exact partial
    ``dcomp``, which makes each edge fourth order.
    """
    nxt = np.roll(comp, -1, axis=axis)
    dn = np.roll(dcomp, -1, axis=axis)
    return 0.5 * h * (comp + nxt) + (h * h / 12.0) * (dcomp - dn)


def integrate_potential(grid: Grid, alpha: np.ndarray, alpha_grad: np.ndarray) -> Potential:
    """Integrate tau_tilde = -integral of alpha from the base node (0, 0).

    ``alpha`` holds the components (a_u, a_v) per grid point, row-major
    ``(N, 2)``; ``alpha_grad`` their partials ``(N, 2, 2)``, where [:, i, j] is
    d_j a_i, the layout of :attr:`DemoulinFamily.alpha_partials`.
    The route is rows first (u direction along the base row), then columns.
    Elementary-cell circulations and, on periodic axes, the period
    circulations certify path independence; failure raises
    :class:`PathDependence`.
    """
    comps = alpha.reshape(grid.shape + (2,))
    partials = alpha_grad.reshape(grid.shape + (2, 2))
    au, av = comps[..., 0], comps[..., 1]
    dau_u, dav_v = partials[..., 0, 0], partials[..., 1, 1]
    hu, hv = grid.hu, grid.hv
    per_u, per_v = grid.domain.periodic

    # A grid step too large for h^2 overflows; the residuals are then not
    # finite, and the gate below fails them.
    with np.errstate(over="ignore", invalid="ignore"):
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
            periods["u"] = float(np.abs(Iu[:, 0].sum()))
        if per_v:
            periods["v"] = float(np.abs(Iv[0, :].sum()))

    max_alpha = float(np.max(np.abs(alpha))) if alpha.size else 0.0
    tol = 1e-7 * (1.0 + max_alpha)
    worst = float(np.max([loop, *periods.values()]))  # NaN anywhere is NaN
    if not worst <= tol:
        raise PathDependence(
            f"circulation residual {worst:.3e} exceeds {tol:.1e}; "
            "the 1-form is not closed on this grid (or has a period)",
            residual=worst,
        )

    # prefix sums: along the base row (u direction), then along every column
    U = np.zeros(grid.nu)
    U[1:] = np.cumsum(Iu[:-1, 0])
    W = np.zeros(grid.shape)
    W[:, 1:] = np.cumsum(Iv[:, :-1], axis=1)
    return Potential(-(U[:, None] + W), loop, periods)


# ---------- connection operators and the permutability gate ----------


@dataclass
class ROperator:
    """Coordinate matrix of the connection operator per grid point."""

    entries: np.ndarray  # (..., m, m)
    relation_residual: float
    metric_symmetry_residual: float
    # rows d_j f_hat - (f_hat + t0) alpha_hat_j of the transformed frame
    hat_differential: np.ndarray


def r_operator(frame: L.LegendreFrame, result: RB.TransformResult) -> ROperator:
    """Solve (df - (f+t0) alpha)(r d_j) = d f_hat(d_j) - (f_hat+t0) alpha_hat(d_j).

    Normal equations in the ambient inner product restricted to the image;
    the Gram matrix of the left-hand columns is exactly the induced metric
    (df, df), so well-posedness is the immersion condition.
    """
    m = frame.m
    B = RB.corrected_differential(frame.f.truncate(1), result.alpha.truncate(0)).value
    Bh = RB.corrected_differential(result.f_hat.truncate(1), RB.alpha_hat(result).truncate(0)).value
    gram = L.pairing(B, B)
    det = J.det2(gram)
    singular = J.singular_mask(gram, 1e-12, det)
    if np.any(singular):
        raise IllPosed(ILL_POSED)
    inverse = J.mat_inverse(*(gram[..., i, j] for i in (0, 1) for j in (0, 1)), det, singular)
    entries = np.stack(inverse, axis=-1).reshape(det.shape + (2, 2)) @ L.pairing(B, Bh)

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
    wedge_max: float


def bianchi_check(r0: ROperator, r1: ROperator) -> BianchiReport:
    """Max commutator norm of the two operators, plus the equivalent wedge form.

    The wedge form pairs the 1-form slots of the two corrected differentials
    d f_hat_i - (f_hat_i + t0) alpha_hat_i (kept by :func:`r_operator`) and
    takes the ambient inner product on the vector slots; both vanish exactly
    when permutability holds.
    """
    comm = r0.entries @ r1.entries - r1.entries @ r0.entries
    cmax = float(np.max(np.sqrt(np.sum(comm * comm, axis=(-2, -1)))))
    wedge = RB.wedge(r0.hat_differential, r1.hat_differential)
    return BianchiReport(cmax, float(np.max(np.abs(wedge))))


# ---------- the family ----------


@dataclass
class DemoulinFamily:
    """What the members share; per-point data are indexed by generator, on the flat grid."""

    chart: CH.ChartSpec
    grid: Grid
    tau0_expr: E.TauExpr
    tau1_expr: E.TauExpr
    tau: tuple[np.ndarray, np.ndarray]  # (N,) values of tau0, tau1
    alpha: tuple[np.ndarray, np.ndarray]  # (N, m) components of alpha
    alpha_partials: tuple[np.ndarray, np.ndarray]  # (N, m, m); [:, i, j] is d_j alpha_i
    f_hat: tuple[np.ndarray, np.ndarray]  # (N, m+4) values of f_hat
    tilde: tuple[Potential, Potential]  # tau_tilde_0, tau_tilde_1
    r_relation_residual: float  # both connection operators, merged by max
    r_symmetry_residual: float
    bianchi: BianchiReport
    certification: dict
    contact_tol: float | None  # None: the chart kind's default
    det_rel_tol: float

    def tilde_jet(self, which: int, key: slice) -> Jet2:
        """2-jet of a potential at the flat grid points ``key``: grid values,
        exact gradient -alpha, exact Hessian -(symmetrized d alpha)."""
        value = self.tilde[which].data.reshape(-1)[key]
        grad = -np.moveaxis(self.alpha[which][key], -1, 0)
        P = self.alpha_partials[which][key]
        m = P.shape[-1]
        hess = np.empty((m * (m + 1) // 2,) + value.shape)
        for i in range(m):
            for j in range(i, m):
                hess[J.packed_index(i, j, m)] = -0.5 * (P[:, i, j] + P[:, j, i])
        return Jet2(value, grad, hess, m)


def _generators_block(frame: L.LegendreFrame, taus: list[Jet2], key: slice, det_rel_tol: float):
    """Both generators on the block ``key``: their values, and their peaks.

    The operators are left out where a generator is singular or not finite,
    since an error is then certain; an :class:`IllPosed` is recorded as the
    peak ``ill_posed``, to be raised in its turn.
    """
    results = [RB.transform(frame, tau, det_rel_tol=det_rel_tol) for tau in taus]
    values, peaks = {}, {}
    for k, res in enumerate(results):
        values[f"tau{k}"] = taus[k].value
        peaks[f"not_finite{k}"] = RB.first_flagged(res.not_finite, key)
        peaks[f"singular{k}"] = RB.first_flagged(res.metric.singular, key)
        values[f"f_hat{k}"] = res.f_hat.value
        values[f"alpha{k}"] = res.alpha.value
        values[f"partials{k}"] = np.moveaxis(res.alpha.grad, 0, -1)
        peaks[f"tau{k}"] = {
            "max_dalpha": RB.ribaucour_residual(res)[0],
            "max_alpha": RB.max_abs_alpha(res),
        }
    if any(res.metric.singular.any() for res in results):
        return values, peaks
    try:
        r0, r1 = (r_operator(frame, res) for res in results)
    except IllPosed:
        return values, peaks | {"ill_posed": 1.0}
    bianchi = bianchi_check(r0, r1)
    return values, peaks | {
        "relation": max(r0.relation_residual, r1.relation_residual),
        "symmetry": max(r0.metric_symmetry_residual, r1.metric_symmetry_residual),
        "commutator": bianchi.commutator_max,
        "wedge": bianchi.wedge_max,
    }


def build_family(
    chart: CH.ChartSpec,
    tau0_expr: E.TauExpr,
    tau1_expr: E.TauExpr,
    grid: Grid,
    *,
    closedness_rel_tol: float = RB.CLOSEDNESS_REL_TOL,
    contact_tol: float | None = None,
    det_rel_tol: float = RB.DET_REL_TOL,
) -> DemoulinFamily:
    """Certify both generators, integrate the potentials, gate permutability.

    Both generators, their connection operators and the commutator run in one
    pass of :func:`ribaucour.eval_blocks` and are judged on the merged values,
    in the order of a single pass: :class:`NotPointwiseDistinct` where tau0 and
    tau1 collide, then per generator a not-finite transform, :class:`NotRegular`
    and :class:`NotRibaucour`.  The commutator norm is left to the caller's gate.
    ``contact_tol`` (frame certification; None is the chart's default) and
    ``det_rel_tol`` (the regularity screen) are kept on the family for the
    members and the dual step.
    """
    run = RB.eval_blocks(
        chart, grid, [(tau0_expr, 2), (tau1_expr, 2)],
        lambda frame, taus, key: _generators_block(frame, taus, key, det_rel_tol),
        contact_tol=contact_tol,
    )
    v, peaks = run.values, run.peaks
    tau = (v.pop("tau0"), v.pop("tau1"))
    tol = DISTINCT_REL_TOL * (1.0 + max(float(np.max(np.abs(t))) for t in tau))
    what = f"tau0 and tau1 differ by less than {tol:.3e}"
    NotPointwiseDistinct.raise_first(np.abs(tau[0] - tau[1]) < tol, run.points, what)

    for k, (label, expr) in enumerate((("tau0", tau0_expr), ("tau1", tau1_expr))):
        what = f"transform of {label} is not finite"
        DomainErrorJet.raise_first(peaks[f"not_finite{k}"], run.points, what)
        NotRegular.raise_first(peaks[f"singular{k}"], run.points, "congruence metric degenerates")
        maxd, maxa = peaks[label]["max_dalpha"], peaks[label]["max_alpha"]
        if not RB.classify_ribaucour(maxd, maxa, closedness_rel_tol):
            raise NotRibaucour(
                f"{label} = {E.to_source(expr)!r} fails closedness: "
                f"max |dalpha| = {maxd:.3e}",
                max_dalpha=maxd,
            )

    alpha = (v["alpha0"], v["alpha1"])
    partials = (v["partials0"], v["partials1"])
    tilde = tuple(integrate_potential(grid, a, p) for a, p in zip(alpha, partials))
    if "ill_posed" in peaks:
        raise IllPosed(ILL_POSED)
    return DemoulinFamily(
        chart, grid, tau0_expr, tau1_expr, tau, alpha, partials,
        (v["f_hat0"], v["f_hat1"]), tilde, peaks["relation"],
        peaks["symmetry"], BianchiReport(peaks["commutator"], peaks["wedge"]),
        {label: peaks[label] for label in ("tau0", "tau1")}, contact_tol, det_rel_tol,
    )


def _snap_trig(theta: float) -> tuple[float, float]:
    """cos/sin with exact values at (floating) multiples of pi/2."""
    for k in range(4):
        if theta == k * HALF_PI:
            return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[k]
    return float(np.cos(theta)), float(np.sin(theta))


def demoulin_tau(frame: L.LegendreFrame, taus, exps, c: float, s: float, eps: float,
                 det_rel_tol: float, key: slice) -> tuple[dict, dict]:
    """The member at cos/sin ``c``, ``s`` on the block ``key``, from the generators'
    jets ``taus`` and ``exps`` = (e^{t0~}, e^{t1~}): its values and peaks.

    Points where the denominator falls under ``eps`` are masked, and so are those
    where the member's own transform is singular or not finite; tau is NaN under
    the mask.  The peaks count the two kinds (``denominator_masked``, then
    ``regularity_masked``), name the first not-finite point, and hold the
    closedness off the mask.
    """
    num = c * exps[1] * taus[0] + s * exps[0] * taus[1]
    den = c * exps[1] + s * exps[0]
    masked = np.abs(den.value) < eps
    tau_theta = num / Jet2(np.where(masked, 1.0, den.value), den.grad, den.hess, den.m)
    del num, den  # not live through the transform's peak
    res = RB.transform(frame, tau_theta, det_rel_tol=det_rel_tol)
    mask = masked | res.metric.singular
    values = {"tau": np.where(mask, np.nan, tau_theta.value)}
    values["f_hat"] = res.f_hat.value[:, :4].copy()  # not a view that keeps all of f_hat
    del tau_theta, res.tau, res.f_hat, res.a, res.b, res.mu2, res.metric.V  # alpha reads f, f_check
    n_masked = int(np.count_nonzero(masked))
    return values, {
        "max_dalpha": RB.ribaucour_residual(res, mask)[0],
        "max_alpha": RB.max_abs_alpha(res, mask),
        "not_finite": RB.first_flagged(res.not_finite, key),
        "denominator_masked": n_masked,
        "regularity_masked": int(np.count_nonzero(mask)) - n_masked,
    }


def parallel_sections(frame: L.LegendreFrame, taus, exps, f_hats) -> float:
    """The parallelism residual of the scaled sections of the two congruences on one block.

    sigma_i = u_i (xi - tau_i f - tau_i t0 + t1) with u_i = e^{tau_tilde_j} / (tau_i - tau_j)
    is parallel when (d sigma_i, f_hat_j + t0) = 0 for the complementary index j; the
    residual is its largest magnitude.  Only first partials are read, so f and xi are taken
    at order 1; ``taus`` and ``exps`` are as for :func:`demoulin_tau`.
    """
    f, xi = (x.truncate(1) for x in (frame.f, frame.xi))
    w = 0.0
    for i, j in ((0, 1), (1, 0)):
        ui = exps[j] / (taus[i] - taus[j])
        sigma = ui.vec() * L.light_cone_section(f, xi, taus[i])
        hat = f_hats[j] + t0_jet(frame.m)
        for k in range(frame.m):
            w = max(w, float(np.max(np.abs(L.inner_value(sigma.grad[k], hat)))))
    return w


def member_closedness(theta: float, peak: dict, size: int,
                      rel_tol: float = RB.CLOSEDNESS_REL_TOL) -> dict:
    """The record of the member at ``theta`` from its merged ``peak`` over ``size``
    points: its mask counts, and its closedness on the unmasked set.

    A member masked on more than half the grid raises :class:`FullyMasked`.
    """
    frac = (peak["denominator_masked"] + peak["regularity_masked"]) / size
    if frac > 0.5:
        raise FullyMasked(f"family member theta={theta!r} singular on {frac:.0%} of the grid")
    maxd, maxa = peak["max_dalpha"], peak["max_alpha"]
    return {
        "theta": theta,
        "masked_fraction": frac,
        "denominator_masked": peak["denominator_masked"],
        "regularity_masked": peak["regularity_masked"],
        "max_dalpha": maxd,
        "max_alpha": maxa,
        "ribaucour": RB.classify_ribaucour(maxd, maxa, rel_tol),
    }


# ---------- the dual family step ----------


@dataclass
class DualResult:
    consistency: float
    gamma_identity_residual: float


def _dual_fields(family: DemoulinFamily, points: np.ndarray, order: int = 2) -> dict:
    """The 1-forms the dual system needs, at parameter points ``(..., 2)``.

    ``gamma`` is (d f_hat0 - (f_hat0 + t0) alpha_hat0, f_hat1 + t0) divided by
    (tau1 - tau0)(a1 - 1), from the pairing with the second transform's point
    sphere; ``drive`` is alpha_{tau1} - alpha_hat_{tau0} + d ln|tau1 - tau0|.
    ``order`` is the seed order of the chart and tau0; the second transform is
    needed one order below the first, and so are its seeds: f, xi and tau1.
    At 2, gamma is a value; at 3, its jet also carries exact partials, which
    come back as ``dgamma``, laid out (..., derivative, component).
    The points run through :func:`ribaucour.eval_blocks`; a :class:`DomainErrorJet`,
    then a :class:`NotRegular`, names the first bad point of the flattened
    ``points``, for the first transform first.
    """
    def body(frame, taus, key):
        tau0, tau1 = taus
        t0 = t0_jet(frame.m)
        res0 = RB.transform(frame, tau0, det_rel_tol=family.det_rel_tol)
        ah0 = RB.alpha_hat(res0)
        dfh0 = RB.corrected_differential(res0.f_hat, ah0)
        flags = {"not_finite0": res0.not_finite, "singular0": res0.metric.singular}
        del res0  # the rest reads only dfh0 and ah0 of it
        frame.f, frame.xi = (x.truncate(order - 1) for x in (frame.f, frame.xi))
        res1 = RB.transform(frame, tau1, det_rel_tol=family.det_rel_tol)
        res1.f_check = res1.f_check.truncate(0)  # the one reader of alpha takes its value
        num = lie_inner(dfh0, (res1.f_hat + t0).expand(-2))
        den = ((tau1 - tau0) * (res1.a - 1.0)).vec()
        dlog = np.moveaxis((tau1.grad - tau0.grad) / (tau1.value - tau0.value), 0, -1)
        out = {"gamma": num.value / den.value, "drive": res1.alpha.value - ah0.value + dlog}
        flags |= {"not_finite1": res1.not_finite, "singular1": res1.metric.singular}
        if order == 3:
            out["dgamma"] = np.moveaxis((num / den).grad, 0, -2)
        return out, {name: RB.first_flagged(mask, key) for name, mask in flags.items()}

    taus = [(family.tau0_expr, order), (family.tau1_expr, order - 1)]
    run = RB.eval_blocks(
        family.chart, points.reshape(-1, 2), taus, body, contact_tol=family.contact_tol, order=order
    )
    for k in (0, 1):
        what = f"transform of tau{k} is not finite"
        DomainErrorJet.raise_first(run.peaks[f"not_finite{k}"], run.points, what)
        NotRegular.raise_first(run.peaks[f"singular{k}"], run.points, "congruence metric degenerates")
    return {k: v.reshape(points.shape[:-1] + v.shape[1:]) for k, v in run.values.items()}


def _sweep(w0, nodes: dict, mids: dict, h: float, comp: int, axis: int) -> np.ndarray:
    """March w = ln(tau0 - tau_hat0) along ``axis`` of the fields with classical RK4.

    dw = drive + e^w gamma, read at component ``comp`` (the 1-form's slot
    along the march).  ``nodes`` hold the fields at the grid nodes and their
    parameter ``points``, ``mids`` the fields at the midpoints of the edges
    being crossed; ``w0`` is w on the first line across ``axis``, and w on
    every line is returned stacked along ``axis``, laid out as ``points``.
    The march runs under ``np.errstate(all="ignore")``; where w leaves
    [ln 1e-8, ln 1e8] or is not finite, :class:`BlowUp` names the first such
    node in the order of ``points``.
    """
    (drive, gamma), (drive_mid, gamma_mid) = (
        [np.moveaxis(fields[key][..., comp], axis, 0) for key in ("drive", "gamma")]
        for fields in (nodes, mids)
    )
    w = [np.asarray(w0, dtype=float)]
    with np.errstate(all="ignore"):
        for k in range(len(drive) - 1):
            wk = w[-1]
            k1 = drive[k] + np.exp(wk) * gamma[k]
            k2 = drive_mid[k] + np.exp(wk + 0.5 * h * k1) * gamma_mid[k]
            k3 = drive_mid[k] + np.exp(wk + 0.5 * h * k2) * gamma_mid[k]
            k4 = drive[k + 1] + np.exp(wk + h * k3) * gamma[k + 1]
            w.append(wk + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        w = np.stack(w, axis=axis)
        out = ~(np.abs(w) <= np.log(1e8))  # NaN is out too
    if out.any():
        BlowUp.raise_first(out, nodes["points"], "log separation left [ln 1e-8, ln 1e8] "
                           "(the branch assumption of a constant sign broke down)")
    return w


def _default_patch(chart: CH.ChartSpec) -> Grid:
    """The 64x64 chart domain with each axis inset by min(0.1, span/20)."""
    axes = []
    for lo, hi in (chart.domain.u, chart.domain.v):
        inset = min(0.1, (hi - lo) / 20.0)
        axes.append((lo + inset, hi - inset))
    return Grid(64, 64, CH.Domain(*axes, (False, False)))


def dual_family_step(family: DemoulinFamily, patch: Grid | None = None) -> DualResult:
    """Integrate the dual-family system on a simply connected patch.

    The scalar w = ln(tau0 - tau_hat0) satisfies
    d w = (alpha_{tau1} - alpha_hat_{tau0}) + d ln|tau1 - tau0| + e^w gamma.
    It is marched with RK4 from the (0, 0) corner along rows then columns,
    and along columns then rows; the largest disagreement of the two grids
    (path independence of the integrable system) is returned as
    ``consistency`` for the caller to gate.  tau_hat0 is tau0 - e^w and is
    not formed.  The closedness of (tau0 - tau_hat0) gamma is verified from
    the expansion
    d((tau0-tau_hat0) gamma) = d(tau0-tau_hat0) ^ gamma + (tau0-tau_hat0) dgamma
    with the exact differentials of both factors.  The default patch is
    :func:`_default_patch` of the family's chart.
    """
    if patch is None:
        patch = _default_patch(family.chart)
    if patch.domain.periodic[0] or patch.domain.periodic[1]:
        raise ValueError("dual-family integration needs a non-periodic patch")

    pts = patch.points()
    nodes = _dual_fields(family, pts, order=3) | {"points": pts}
    umids = _dual_fields(family, pts[:-1, :, :] + np.array([patch.hu / 2.0, 0.0]))
    vmids = _dual_fields(family, pts[:, :-1, :] + np.array([0.0, patch.hv / 2.0]))

    def first(fields, axis):  # the fields on the first grid line across ``axis``
        return {key: np.moveaxis(val, axis, 0)[0] for key, val in fields.items()}

    # row-first: march u along the base row, then v upward for all columns
    w_base = _sweep(0.0, first(nodes, 1), first(umids, 1), patch.hu, 0, 0)
    w_row = _sweep(w_base, nodes, vmids, patch.hv, 1, 1)
    # column-first: v along the base column, then u for all rows
    w_base = _sweep(0.0, first(nodes, 0), first(vmids, 0), patch.hv, 1, 0)
    w_col = _sweep(w_base, nodes, umids, patch.hu, 0, 0)
    consistency = float(np.max(np.abs(w_row - w_col)))

    # residual of d((tau0 - tau_hat0) gamma) on the row-first grid
    sep = np.exp(w_row)  # tau0 - tau_hat0
    gamma, dgamma = nodes["gamma"], nodes["dgamma"]  # dgamma: (..., derivative, component)
    dsep = sep[..., None] * (nodes["drive"] + sep[..., None] * gamma)  # exact, given w
    two_form = (
        dsep[..., 0] * gamma[..., 1]
        + sep * dgamma[..., 0, 1]
        - dsep[..., 1] * gamma[..., 0]
        - sep * dgamma[..., 1, 0]
    )
    return DualResult(consistency, float(np.max(np.abs(two_form))))


# ---------- reporting ----------


def family_report(
    family: DemoulinFamily,
    thetas,
    *,
    dual: DualResult | None = None,
    closedness_rel_tol: float = RB.CLOSEDNESS_REL_TOL,
    each: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> dict:
    """JSON-ready family report; members are classified at ``closedness_rel_tol``.

    The members at ``thetas`` and the parallel residual come from one walk of the
    grid: each block evaluates tau0, tau1 and e^{tau_tilde_i} once, for
    :func:`demoulin_tau` at every theta off the endpoints and for
    :func:`parallel_sections`.  An endpoint member (theta a multiple of pi/2) is
    that walk's tau0 or tau1, with the generator's f_hat and closedness; at 0 and
    pi/2 its tau must equal build_family's values.  The members are judged from
    their merged peaks in theta order (a not-finite transform first, then
    :func:`member_closedness`), and each is handed to ``each(tau, f_hat)`` when
    given, so one that raises leaves those before it handed over.
    """
    trig = [_snap_trig(float(theta)) for theta in thetas]
    # the mask threshold is scaled by the grid-wide maxima of e^tau_tilde
    eps = MASK_EPS_REL * sum(float(np.exp(pot.data.max())) for pot in family.tilde)

    v = {}  # each member's values, kept as it is made: none waits in its block for the rest

    def body(frame, taus, key):
        exps = [J.exp(family.tilde_jet(k, key)) for k in (0, 1)]
        peaks = {}
        for i, (c, s) in enumerate(trig):
            if s == 0.0 or c == 0.0:  # an endpoint
                block = {"tau": taus[0 if s == 0.0 else 1].value}
            else:
                block, peaks[f"member{i}"] = demoulin_tau(frame, taus, exps, c, s, eps,
                                                          family.det_rel_tol, key)
            RB.keep(v, {f"{name}{i}": val for name, val in block.items()}, key, len(family.grid))
        f_hats = [fh[key] for fh in family.f_hat]
        frame.f, frame.xi = (x.truncate(1) for x in (frame.f, frame.xi))  # members read Hessians last
        return {}, peaks | {"parallel": parallel_sections(frame, taus, exps, f_hats)}

    taus = [(family.tau0_expr, 2), (family.tau1_expr, 2)]
    # redundant: build_family judged this grid at this tolerance; every walk certifies
    run = RB.eval_blocks(family.chart, family.grid, taus, body, contact_tol=family.contact_tol)
    peaks = run.peaks
    members = []
    endpoints_ok = True
    for i, (theta, (c, s)) in enumerate(zip(map(float, thetas), trig)):
        tau, peak = v.pop(f"tau{i}"), peaks.get(f"member{i}")
        if peak is None:  # an endpoint, with the generator's f_hat and closedness
            k = 0 if s == 0.0 else 1
            f_hat, peak = family.f_hat[k][:, :4], family.certification[f"tau{k}"]
            peak = peak | {"denominator_masked": 0, "regularity_masked": 0}
        else:
            f_hat = v.pop(f"f_hat{i}")
        what = f"transform of family member theta={theta!r} is not finite"
        DomainErrorJet.raise_first(peak.get("not_finite"), run.points, what)
        rec = member_closedness(theta, peak, len(tau), closedness_rel_tol)
        for k, (label, at) in enumerate((("tau0", 0.0), ("tau1", HALF_PI))):
            if theta == at:
                rec["endpoint"] = label
                endpoints_ok &= np.array_equal(tau, family.tau[k])
        members.append(rec)
        if each is not None:
            each(tau, f_hat)
    periods = [r for pot in family.tilde for r in pot.period_residuals.values()]
    rep = {
        "tau0_src": E.to_source(family.tau0_expr),
        "tau1_src": E.to_source(family.tau1_expr),
        "grid": list(family.grid.shape),
        "bianchi_norm": family.bianchi.commutator_max,
        "bianchi_wedge": family.bianchi.wedge_max,
        "endpoints_ok": bool(endpoints_ok),
        "potential_loop_residual": max(pot.loop_residual for pot in family.tilde),
        # null when no axis is periodic
        "potential_period_residual": max(periods) if periods else None,
        "r_relation_residual": family.r_relation_residual,
        "r_symmetry_residual": family.r_symmetry_residual,
        "members": members,
        "parallel_residual": peaks["parallel"],
    }
    if dual is not None:
        rep["dual"] = {
            "consistency": dual.consistency,
            "gamma_identity_residual": dual.gamma_identity_residual,
        }
    return rep

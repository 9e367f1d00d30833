"""The transform engine.

Given a Legendre frame (f, xi) and a scalar field tau with -dxi + tau df
nondegenerate, this module builds the enveloped sphere congruence, the
second enveloping frame (f_hat, xi_hat), the associated 1-form alpha whose
closedness characterizes the Ribaucour property, and the verification
machinery around them:

* the Riemannian metric G_ij = ((-dxi+tau df)(d_i), (-dxi+tau df)(d_j)),
  its gradient, and the normal component f_check = (-dxi+tau df)(grad tau);
* the coefficients a = 1 - 2/(tau^2 + mu^2 + 1), b = tau (a - 1) and the
  parametrization f_hat = a f + b xi + (1-a) f_check,
  xi_hat = xi - tau f + tau f_hat;
* alpha(d_i) = (d_i f, -f_check), stored with exact first partials so the
  exterior derivative needs no finite differencing;
* the closedness gate max |d alpha| < rel_tol (1 + max |alpha|), with
  rel_tol supplied by the caller (a scene's tolerance, or the default);
* the identity suite: eq6, eq9, eq13 and their supporting checks are
  evaluated pointwise once per transform, so reports take maxima of the
  same arrays that field dumps write;
* the corrected differential d f - (f + t0) alpha, shared with the
  permutability machinery, and the curvature-form identity
  (beta wedge beta) = (1 - a) d alpha built from it;
* reconstruction (the construction is an involution) and the hypersurface
  shape-operator route to f_check.

All operations are batched: a frame evaluated on N grid points transforms in
one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charts as CH
from . import exprs as E
from . import jets as J
from . import liegeom as L
from .errors import InvolutionFailure, NotHypersurface, NotRegular
from .jets import Jet2
from .liegeom import LegendreFrame, lie_inner, t0_jet

# Scale-aware regularity screen, |det G| < DET_REL_TOL * (max |G entry|)^m.
DET_REL_TOL = 1e-10
# Closedness gate: max |d alpha| < CLOSEDNESS_REL_TOL * (1 + max |alpha|).
CLOSEDNESS_REL_TOL = 1e-7


@dataclass
class MinusMetric:
    """Gram matrix of the congruence metric in the coordinate basis."""

    G: Jet2  # values (..., m, m)
    Ginv: Jet2
    det: np.ndarray
    singular: np.ndarray  # boolean mask of points failing the screen
    V: list[Jet2]  # (-dxi + tau df)(d_i), reused by the transform

    @property
    def min_abs_det(self) -> float:
        d = np.abs(self.det)
        return float(np.nanmin(d)) if d.size else float("nan")

    def subset(self, key) -> "MinusMetric":
        return MinusMetric(
            self.G.batch(key),
            self.Ginv.batch(key),
            self.det[key],
            self.singular[key],
            [v.batch(key) for v in self.V],
        )


@dataclass
class TransformResult:
    """Pointwise data of one transform, batched over the evaluation points."""

    frame: LegendreFrame
    tau: Jet2
    metric: MinusMetric
    a: Jet2
    b: Jet2
    mu2: Jet2
    f_check: Jet2
    f_hat: Jet2
    xi_hat: Jet2
    alpha: Jet2  # components along the last value axis; grads are exact

    @property
    def regular_mask(self) -> np.ndarray:
        return ~self.metric.singular

    def subset(self, key) -> "TransformResult":
        return TransformResult(
            self.frame.subset(key),
            self.tau.batch(key),
            self.metric.subset(key),
            self.a.batch(key),
            self.b.batch(key),
            self.mu2.batch(key),
            self.f_check.batch(key),
            self.f_hat.batch(key),
            self.xi_hat.batch(key),
            self.alpha.batch(key),
        )


def _raise_not_regular(singular: np.ndarray, points: np.ndarray, what: str):
    idx = tuple(int(k) for k in np.argwhere(singular)[0])
    pt = points[idx] if points is not None else None
    raise NotRegular(
        f"{what} degenerates at batch index {idx}"
        + (f", parameter point {np.round(pt, 6).tolist()}" if pt is not None else ""),
        index=idx,
        point=pt,
    )


def minus_metric(
    frame: LegendreFrame,
    tau: Jet2,
    *,
    det_rel_tol: float = DET_REL_TOL,
    on_singular: str = "raise",
) -> MinusMetric:
    """Congruence metric G_ij = ((-dxi+tau df)(d_i), (-dxi+tau df)(d_j)).

    Positive definite exactly at the regular points; ``on_singular`` chooses
    between raising :class:`NotRegular` and NaN-masking degenerate points.
    """
    m = frame.m
    tv = tau.vec()
    V = [(-frame.xi.deriv(i)) + tv * frame.f.deriv(i) for i in range(m)]
    G = J.mat_from_rows([[lie_inner(V[i], V[k]) for k in range(m)] for i in range(m)])
    det = J.mat_det_value(G)
    singular = J.singular_mask(G, det_rel_tol)
    if np.any(singular):
        if on_singular == "raise":
            _raise_not_regular(singular, frame.points, "congruence metric")
        elif on_singular != "nan":
            raise ValueError(f"unknown on_singular mode {on_singular!r}")
    Ginv = J.mat_inverse(G, rel_tol=det_rel_tol, on_singular="nan")
    return MinusMetric(G, Ginv, det, singular, V)


def transform(
    frame: LegendreFrame,
    tau: Jet2,
    *,
    det_rel_tol: float = DET_REL_TOL,
    on_singular: str = "raise",
) -> TransformResult:
    """Build the second enveloping frame and the closedness 1-form.

    The gradient of tau is taken in the congruence metric; f_check is its
    image under -dxi + tau df, mu^2 its squared length, and

        a = 1 - 2/(tau^2 + mu^2 + 1),   b = tau (a - 1),
        f_hat  = a f + b xi + (1 - a) f_check,
        xi_hat = xi - tau f + tau f_hat,
        alpha(d_i) = (d_i f, -f_check).
    """
    m = frame.m
    metric = minus_metric(
        frame, tau, det_rel_tol=det_rel_tol, on_singular=on_singular
    )
    V = metric.V
    dtau = [tau.deriv(i) for i in range(m)]
    dtau_vec = J.stack(dtau, axis=-1)
    tgrad = J.mat_vec(metric.Ginv, dtau_vec)  # components of the metric gradient
    tg = [tgrad.take(i) for i in range(m)]

    f_check = tg[0].vec() * V[0]
    for i in range(1, m):
        f_check = f_check + tg[i].vec() * V[i]
    mu2 = J.jsum(tgrad * dtau_vec, axis=-1)  # d tau (grad tau)

    denom = tau * tau + mu2 + 1.0
    a = 1.0 - 2.0 / denom
    b = tau * (a - 1.0)

    one_minus_a = 1.0 - a
    f_hat = a.vec() * frame.f + b.vec() * frame.xi + one_minus_a.vec() * f_check
    tv = tau.vec()
    xi_hat = frame.xi - tv * frame.f + tv * f_hat

    alpha = J.stack(
        [lie_inner(frame.f.deriv(i), -f_check) for i in range(m)], axis=-1
    )
    return TransformResult(
        frame, tau, metric, a, b, mu2, f_check, f_hat, xi_hat, alpha
    )


# ---------- closedness ----------


def dalpha_components(result: TransformResult) -> np.ndarray:
    """Exterior derivative entries d_i alpha_j - d_j alpha_i for i < j.

    Read from the exact first partials carried by the alpha jets; shape
    ``batch + (m(m-1)/2,)``.
    """
    g = result.alpha.grad  # (..., comp j, deriv i)
    m = result.frame.m
    cols = []
    for i in range(m):
        for j in range(i + 1, m):
            cols.append(g[..., j, i] - g[..., i, j])
    return np.stack(cols, axis=-1)


def ribaucour_residual(
    frame: LegendreFrame,
    tau: Jet2,
    *,
    result: TransformResult | None = None,
    on_singular: str = "raise",
) -> tuple[float, tuple, np.ndarray]:
    """Max |d alpha| over the batch, its location, and the raw entries."""
    if result is None:
        result = transform(frame, tau, on_singular=on_singular)
    d = np.abs(dalpha_components(result))
    if result.metric.singular.any():
        d = np.where(result.metric.singular[..., None], np.nan, d)
    flat = np.max(np.where(np.isnan(d), -np.inf, d), axis=-1)
    if not np.any(flat > -np.inf):
        raise NotRegular("no regular points in the batch")
    worst = np.unravel_index(np.argmax(flat), flat.shape)
    return float(flat[worst]), tuple(int(k) for k in worst), d


def max_abs_alpha(result: TransformResult) -> float:
    a = np.abs(result.alpha.value)
    return float(np.nanmax(a)) if a.size else 0.0


def classify_ribaucour(
    max_dalpha: float, max_alpha: float, rel_tol: float = CLOSEDNESS_REL_TOL
) -> bool:
    """Scale-aware closedness gate."""
    return bool(max_dalpha < rel_tol * (1.0 + max_alpha))


# ---------- verification suite ----------


def _vmax(arr: np.ndarray) -> float:
    return float(np.nanmax(np.abs(arr))) if arr.size else 0.0


def f_check_hat(result: TransformResult) -> Jet2:
    """Normal component of the reverse decomposition: f_check + mu^2 (f - f_hat)."""
    return result.f_check + result.mu2.vec() * (result.frame.f - result.f_hat)


def alpha_hat(result: TransformResult) -> Jet2:
    """The 1-form of the transformed frame, (d_i f_hat, -f_check_hat)."""
    fch = f_check_hat(result)
    m = result.frame.m
    return J.stack(
        [lie_inner(result.f_hat.deriv(i), -fch) for i in range(m)], axis=-1
    )


def corrected_differential(f: Jet2, alpha: Jet2) -> np.ndarray:
    """Values of d f - (f + t0) alpha; row i (axis -2) is the d_i slot."""
    f_t0 = f.value + t0_jet(f.m).value
    return np.swapaxes(f.grad, -1, -2) - alpha.value[..., None] * f_t0[..., None, :]


def wedge(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(X_i, Y_j) - (X_j, Y_i) for i < j, pairing two vector-valued 1-forms."""
    P = L.pairing(X, Y)
    m = P.shape[-1]
    return np.stack(
        [P[..., i, j] - P[..., j, i] for i in range(m) for j in range(i + 1, m)],
        axis=-1,
    )


def pointwise_residuals(result: TransformResult, ah: Jet2) -> dict[str, np.ndarray]:
    """Per-point magnitude of every identity of one transform (``ah`` = alpha_hat).

    Keys group the unit/orthogonality relations of the transformed frame
    (eq6), the differential identity relating the two congruence forms (eq9),
    and the sum rule alpha + alpha_hat = d ln(1-a) (eq13), plus supporting
    orthogonality/normalization checks.  ``hat_abs_det`` is |det| of the
    metric induced by the transformed frame.
    """
    f, xi = result.frame.f.value, result.frame.xi.value
    fh, xh = result.f_hat.value, result.xi_hat.value
    a, fc, tau = result.a, result.f_check.value, result.tau
    V = np.stack([v.value for v in result.metric.V], axis=-2)  # rows (-dxi+tau df)(d_i)
    inner = L.inner_value

    pw = {
        "eq6_unit_fhat": np.abs(inner(fh, fh) - 1.0),
        "eq6_unit_xihat": np.abs(inner(xh, xh) - 1.0),
        "eq6_orth": np.abs(inner(fh, xh)),
    }
    fourth = (
        result.b.grad
        - tau.value[..., None] * a.grad
        + (1.0 - a.value)[..., None] * inner(V, fc[..., None, :])
    )
    pw["eq6_fourth"] = np.max(np.abs(fourth), axis=-1)
    pw["eq6"] = np.maximum.reduce(list(pw.values()))  # the four parts above

    pw["fcheck_orth_f"] = np.abs(inner(fc, f))
    pw["fcheck_orth_xi"] = np.abs(inner(fc, xi))
    pw["mu2_match"] = np.abs(inner(fc, fc) - result.mu2.value)

    # The congruence section is enveloped by the new frame.
    envelope = L.light_cone_section(result.frame.f, result.frame.xi, tau) - (
        L.light_cone_section(result.f_hat, result.xi_hat, tau)
    )
    pw["envelope"] = np.max(np.abs(envelope.value), axis=-1)

    # eq9: -dxi_hat + tau df_hat = -dxi + tau df + (f - f_hat) dtau.
    dfh = np.swapaxes(result.f_hat.grad, -1, -2)  # rows d_i f_hat
    Vh = -np.swapaxes(result.xi_hat.grad, -1, -2) + tau.value[..., None, None] * dfh
    rhs = V + tau.grad[..., None] * (f - fh)[..., None, :]
    pw["eq9"] = np.max(np.abs(Vh - rhs), axis=(-2, -1))

    # The transformed frame induces the same congruence metric.
    Ghat = L.pairing(Vh, Vh)
    pw["metric_match"] = np.max(np.abs(Ghat - result.metric.G.value), axis=(-2, -1))
    pw["hat_abs_det"] = np.abs(np.linalg.det(Ghat))

    # eq13: alpha + alpha_hat = d ln(1 - a), using (f, f_hat) = a.
    alpha = result.alpha.value
    dln = -a.grad / (1.0 - a.value)[..., None]
    pw["eq13"] = np.max(np.abs(alpha + ah.value - dln), axis=-1)

    # Consistency of the quotient expressions for both 1-forms.
    inv_am1 = (1.0 / (a.value - 1.0))[..., None]
    df = np.swapaxes(result.frame.f.grad, -1, -2)
    pw["alpha_forms"] = np.maximum(
        np.max(np.abs(inner(df, fh[..., None, :]) * inv_am1 - alpha), axis=-1),
        np.max(np.abs(inner(dfh, f[..., None, :]) * inv_am1 - ah.value), axis=-1),
    )
    return pw


def residual_suite(pointwise: dict[str, np.ndarray]) -> dict:
    """Batch maxima of :func:`pointwise_residuals` (the minimum of ``hat_abs_det``)."""
    res = {k: _vmax(v) for k, v in pointwise.items() if k != "hat_abs_det"}
    res["hat_min_abs_det"] = float(np.nanmin(pointwise["hat_abs_det"]))
    return res


def reconstruct(
    result: TransformResult, *, tol: float = 1e-8, contact_tol: float = 1e-8
) -> tuple[LegendreFrame, dict]:
    """Transform the transformed frame with the same tau; must return home.

    Returns the reconstructed frame plus diagnostics: the sup-norm frame
    discrepancy, the residual of the reverse normal component identity
    f_check_hat = f_check + mu^2 (f - f_hat), and the length check
    |f_check_hat| = mu.  Raises :class:`InvolutionFailure` above ``tol``.
    """
    frame = result.frame
    hat_frame = L.lift_frame(
        result.f_hat, result.xi_hat, frame.points, contact_tol=contact_tol
    )
    back = transform(hat_frame, result.tau, on_singular="raise")
    inv_f = _vmax(back.f_hat.value - frame.f.value)
    inv_xi = _vmax(back.xi_hat.value - frame.xi.value)
    diag = {
        "involution": max(inv_f, inv_xi),
        "eq10": _vmax(back.f_check.value - f_check_hat(result).value),
        "mu_match": _vmax(lie_inner(back.f_check, back.f_check).value - result.mu2.value),
    }
    if diag["involution"] > tol:
        raise InvolutionFailure(
            f"frame discrepancy {diag['involution']:.3e} exceeds {tol:.1e}"
        )
    recon = LegendreFrame(back.f_hat, back.xi_hat, frame.points, frame.m)
    return recon, diag


def shape_operator_path(
    frame: LegendreFrame,
    tau: Jet2,
    *,
    det_rel_tol: float = DET_REL_TOL,
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
    if np.any(J.singular_mask(g, det_rel_tol)):
        raise NotHypersurface("induced metric (df, df) is singular in the batch")
    ginv = J.mat_inverse(g, rel_tol=det_rel_tol, on_singular="raise")
    S = J.mat_from_rows(
        [[-lie_inner(df[i], dxi[k]) for k in range(m)] for i in range(m)]
    )
    A = J.mat_mul(ginv, S)
    M = A + J.mat_identity(m, m) * tau.vec().vec()
    if np.any(J.singular_mask(M, det_rel_tol)):
        _raise_not_regular(J.singular_mask(M, det_rel_tol), frame.points, "A + tau Id")
    Minv = J.mat_inverse(M, rel_tol=det_rel_tol, on_singular="raise")
    dtau_vec = J.stack([tau.deriv(i) for i in range(m)], axis=-1)
    w = J.mat_vec(Minv, J.mat_vec(ginv, dtau_vec))
    out = w.take(0).vec() * df[0]
    for i in range(1, m):
        out = out + w.take(i).vec() * df[i]
    return out


def curvature_identity(result: TransformResult, ah: Jet2) -> dict:
    """Compare (beta(f+t0) wedge beta(f_hat+t0)) against (1-a) d alpha.

    beta psi = d psi - psi * (its connection form), see
    :func:`corrected_differential`; the wedge pairs the 1-form slots and takes
    the ambient inner product on the vector slots.  ``ah`` is alpha_hat.
    """
    lhs = wedge(
        corrected_differential(result.frame.f, result.alpha),
        corrected_differential(result.f_hat, ah),
    )
    rhs = (1.0 - result.a.value)[..., None] * dalpha_components(result)
    diff = np.abs(lhs - rhs)
    mag = np.abs(lhs) + np.abs(rhs)
    if result.metric.singular.any():
        diff = np.where(result.metric.singular[..., None], np.nan, diff)
        mag = np.where(result.metric.singular[..., None], np.nan, mag)
    abs_res = float(np.nanmax(diff)) if diff.size else 0.0
    scale = float(np.nanmax(mag)) if mag.size else 0.0
    return {"abs": abs_res, "rel": abs_res / scale if scale > 0 else 0.0, "scale": scale}


# ---------- grid-level runner ----------


@dataclass
class GridRun:
    """One chart/tau evaluation over a full grid, with derived diagnostics."""

    chart: CH.ChartSpec
    tau_src: str
    grid_shape: tuple[int, int]
    frame: LegendreFrame
    tau: Jet2
    result: TransformResult
    max_dalpha: float
    dalpha_argmax: tuple
    max_alpha: float
    ribaucour: bool
    residuals: dict
    pointwise: dict[str, np.ndarray]  # eq6/eq9/eq13 per point of the full grid
    curvature: dict
    reconstruction: dict


def run_grid(
    chart: CH.ChartSpec,
    tau_expr: E.TauExpr,
    points: np.ndarray,
    *,
    closedness_rel_tol: float = CLOSEDNESS_REL_TOL,
    det_rel_tol: float = DET_REL_TOL,
    involution_tol: float = 1e-8,
    contact_tol: float | None = None,
) -> GridRun:
    """Evaluate, transform, and verify a scene on a batch of points."""
    pts = np.asarray(points, dtype=float)
    grid_shape = tuple(int(n) for n in pts.shape[:-1])
    frame = CH.eval_chart(
        chart, pts.reshape(-1, pts.shape[-1]), contact_tol=contact_tol
    )
    tau = E.eval_at(tau_expr, frame.points)
    result = transform(frame, tau, det_rel_tol=det_rel_tol, on_singular="nan")
    reg = result.regular_mask
    if not reg.any():
        _raise_not_regular(result.metric.singular, frame.points, "congruence metric")
    # Degenerate points (a curvature-sphere crossing of tau) are masked out of
    # the diagnostics; the report carries regular=False when any exist.
    clean = result if reg.all() else result.subset(reg)
    max_da, arg, _ = ribaucour_residual(
        clean.frame, clean.tau, result=clean, on_singular="nan"
    )
    # Map the argmax back to the original (unmasked) flat index.
    orig_flat = int(np.flatnonzero(reg)[arg[0]])
    max_al = max_abs_alpha(clean)
    ah = alpha_hat(clean)
    pw = pointwise_residuals(clean, ah)
    suite = residual_suite(pw)
    curv = curvature_identity(clean, ah)
    pointwise = {}
    for key in ("eq6", "eq9", "eq13"):
        pointwise[key] = np.full(reg.shape, np.nan)
        pointwise[key][reg] = pw[key]
    del pw, ah  # would otherwise stay live through reconstruct's peak
    _, recon = reconstruct(clean, tol=involution_tol)
    return GridRun(
        chart=chart,
        tau_src=E.to_source(tau_expr),
        grid_shape=grid_shape,
        frame=frame,
        tau=tau,
        result=result,
        max_dalpha=max_da,
        dalpha_argmax=(orig_flat,),
        max_alpha=max_al,
        ribaucour=classify_ribaucour(max_da, max_al, closedness_rel_tol),
        residuals=suite,
        pointwise=pointwise,
        curvature=curv,
        reconstruction=recon,
    )


def diagnostic_report(run: GridRun) -> dict:
    """JSON-ready diagnostics in the report schema consumed by the CLI."""
    return {
        "chart": CH.chart_to_json(run.chart),
        "tau_src": run.tau_src,
        "grid": list(run.grid_shape),
        "regular": not bool(run.result.metric.singular.any()),
        "min_det": run.result.metric.min_abs_det,
        "max_dalpha": run.max_dalpha,
        "max_dalpha_at": [float(x) for x in run.frame.points[run.dalpha_argmax[0]]],
        "max_alpha": run.max_alpha,
        "ribaucour": run.ribaucour,
        "residuals": {
            "eq6": run.residuals["eq6"],
            "eq9": run.residuals["eq9"],
            "eq10": run.reconstruction["eq10"],
            "eq13": run.residuals["eq13"],
            "involution": run.reconstruction["involution"],
            "curvature_identity": run.curvature["abs"],
        },
    }

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
  exterior derivative needs no finite differencing; xi_hat and alpha are
  built on first read, so a caller that reads neither never computes them;
* the closedness gate max |d alpha| < rel_tol (1 + max |alpha|), with
  rel_tol supplied by the caller (a scene's tolerance, or the default);
* the identity suite: eq6, eq9, eq13 and their supporting checks are
  evaluated pointwise once per transform, so reports take maxima of the
  same arrays that field dumps write;
* the corrected differential d f - (f + t0) alpha, shared with the
  permutability machinery, and the curvature-form identity
  (beta wedge beta) = (1 - a) d alpha built from it;
* reconstruction (the construction is an involution).

Every operation is batched over the points of a frame.  A grid runs through
:func:`eval_blocks` in blocks of :data:`BLOCK` points, so its chart, tau and
transform jets never span the whole grid.  Every grid command walks its grid
that way: each block hands back the per-point values a writer reads and its
peaks (verdicts too), and :func:`eval_blocks` merges the peaks by one rule,
:func:`merge_peaks`.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import charts as CH
from . import exprs as E
from . import jets as J
from . import liegeom as L
from .errors import (
    ContactViolation,
    DomainErrorJet,
    InvolutionFailure,
    NotImmersed,
    NotRegular,
)
from .gridio import Grid, Wrapped
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
    singular: np.ndarray  # points failing the screen, and where the transform is not finite
    V: list[Jet2]  # (-dxi + tau df)(d_i), reused by the transform


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
    not_finite: np.ndarray  # (N,) off the screen's singular points: see transform

    @cached_property
    def xi_hat(self) -> Jet2:
        """xi - tau f + tau f_hat, at f_hat's order: tau is lowered before its product with f."""
        tv = self.tau.truncate(self.f_hat.order).vec()
        return self.frame.xi - tv * self.frame.f + tv * self.f_hat

    @cached_property
    def alpha(self) -> Jet2:
        """(d_i f, -f_check), components along the last value axis; grads are exact."""
        f, m = self.frame.f, self.frame.m
        return J.stack([lie_inner(f.deriv(i), -self.f_check) for i in range(m)], axis=-1)


def minus_metric(
    frame: LegendreFrame, tau: Jet2, *, det_rel_tol: float = DET_REL_TOL
) -> MinusMetric:
    """Congruence metric G_ij = ((-dxi+tau df)(d_i), (-dxi+tau df)(d_j)).

    Positive definite exactly at the regular points; degenerate points are
    NaN-masked in ``Ginv`` and recorded in ``singular``, for the caller to
    judge with :meth:`NotRegular.raise_first` once every block is in.
    """
    m = frame.m
    tv = tau.vec()
    V = [(-frame.xi.deriv(i)) + tv * frame.f.deriv(i) for i in range(m)]
    upper = {(i, k): lie_inner(V[i], V[k]) for i in range(m) for k in range(i, m)}
    G = J.mat_from_rows([[upper[min(i, k), max(i, k)] for k in range(m)] for i in range(m)])
    det = J.det2(G)
    singular = J.singular_mask(G.value, det_rel_tol, det.value)
    Ginv = J.mat_inverse(G, det, singular)
    return MinusMetric(G, Ginv, det.value, singular, V)


def transform(
    frame: LegendreFrame, tau: Jet2, *, det_rel_tol: float = DET_REL_TOL
) -> TransformResult:
    """Build the second enveloping frame and the closedness 1-form.

    The gradient of tau is taken in the congruence metric; f_check is its
    image under -dxi + tau df, mu^2 its squared length, and

        a = 1 - 2/(tau^2 + mu^2 + 1),   b = tau (a - 1),
        f_hat  = a f + b xi + (1 - a) f_check,
        xi_hat = xi - tau f + tau f_hat,
        alpha(d_i) = (d_i f, -f_check),

    the last two on first read.  Where a large finite tau overflows them, or
    rounds 1 - a to 0 (eq13 reads ln(1 - a)), the sum of 1/(1 - a) and f_hat's
    value and gradient slots is not finite, or its terms would overflow every
    identity; ``not_finite`` marks those points, and they join ``metric.singular``.
    """
    m = frame.m
    metric = minus_metric(frame, tau, det_rel_tol=det_rel_tol)
    V = metric.V
    dtau = [tau.deriv(i) for i in range(m)]
    dtau_vec = J.stack(dtau, axis=-1)
    tgrad = J.mat_vec(metric.Ginv, dtau_vec)  # components of the metric gradient
    tg = [tgrad.take(i) for i in range(m)]

    f_check = tg[0].vec() * V[0]
    for i in range(1, m):
        f_check = f_check + tg[i].vec() * V[i]
    mu2 = J.jsum(tgrad * dtau_vec, axis=-1)  # d tau (grad tau)

    t = tau.truncate(mu2.order)  # + mu2 would drop tau's slots above it
    denom = t * t + mu2 + 1.0
    a = 1.0 - 2.0 / denom
    b = tau * (a - 1.0)

    one_minus_a = 1.0 - a
    f_hat = a.vec() * frame.f + b.vec() * frame.xi + one_minus_a.vec() * f_check
    probe = 1.0 / one_minus_a.value + J.wsum(f_hat.value)
    if f_hat.grad is not None:
        probe = probe + J.wsum(J.wsum(f_hat.grad), 0)
    not_finite = ~np.isfinite(probe) & ~metric.singular
    metric.singular |= not_finite
    return TransformResult(frame, tau, metric, a, b, mu2, f_check, f_hat, not_finite)


# ---------- closedness ----------


def dalpha_components(result: TransformResult) -> np.ndarray:
    """Exterior derivative entries d_i alpha_j - d_j alpha_i for i < j.

    Read from the exact first partials carried by the alpha jets; shape
    ``batch + (m(m-1)/2,)``.
    """
    g = result.alpha.grad  # g[i][..., j] is d_i alpha_j
    m = result.frame.m
    cols = [g[i][..., j] - g[j][..., i] for i in range(m) for j in range(i + 1, m)]
    return np.stack(cols, axis=-1)


def ribaucour_residual(result: TransformResult, masked=None) -> tuple[float, tuple | None]:
    """Max |d alpha| off ``masked`` (default: the singular points), and its location.

    (-inf, None) when no point is left.
    """
    d = np.abs(dalpha_components(result))
    masked = result.metric.singular if masked is None else masked
    flat = np.max(np.where(masked[..., None], -np.inf, d), axis=-1)
    if not np.any(flat > -np.inf):
        return -np.inf, None
    worst = np.unravel_index(np.argmax(flat), flat.shape)
    return float(flat[worst]), tuple(int(k) for k in worst)


def max_abs_alpha(result: TransformResult, masked=None) -> float:
    """Max |alpha| off ``masked`` (default: the singular points); 0 when none is left."""
    masked = result.metric.singular if masked is None else masked
    a = np.abs(result.alpha.value[~masked])
    return float(np.nanmax(a)) if a.size else 0.0


def classify_ribaucour(
    max_dalpha: float, max_alpha: float, rel_tol: float = CLOSEDNESS_REL_TOL
) -> bool:
    """Scale-aware closedness gate."""
    return bool(max_dalpha < rel_tol * (1.0 + max_alpha))


# ---------- verification suite ----------


def _vmax(arr: np.ndarray) -> float:
    return float(np.nanmax(np.abs(arr))) if arr.size else 0.0


def _nan_at(singular: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """``arr`` (batch axes first) NaN at the ``singular`` points, which maxima then skip."""
    if not singular.any():
        return arr
    at = singular.reshape(singular.shape + (1,) * (arr.ndim - singular.ndim))
    return np.where(at, np.nan, arr)


def f_check_hat(result: TransformResult) -> Jet2:
    """Normal component of the reverse decomposition: f_check + mu^2 (f - f_hat).

    Built one order below f_hat, the order of the partials of f_hat it is paired with.
    """
    order = result.f_hat.order - 1
    fc, mu2, f, fh = (
        x.truncate(order) for x in (result.f_check, result.mu2, result.frame.f, result.f_hat)
    )
    return fc + mu2.vec() * (f - fh)


def alpha_hat(result: TransformResult) -> Jet2:
    """The 1-form of the transformed frame, (d_i f_hat, -f_check_hat)."""
    fch = f_check_hat(result)
    m = result.frame.m
    return J.stack(
        [lie_inner(result.f_hat.deriv(i), -fch) for i in range(m)], axis=-1
    )


def corrected_differential(f: Jet2, alpha: Jet2) -> Jet2:
    """d f - (f + t0) alpha; row i (value axis -2) is the d_i slot.  A reader of
    its values alone passes f at order 1 and alpha at order 0."""
    f_t0 = f.truncate(min(f.order - 1, alpha.order)) + t0_jet(f.m)  # at the rows' order
    return J.stack([f.deriv(i) - alpha.take(i).vec() * f_t0 for i in range(f.m)], axis=-2)


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
    metric induced by the transformed frame.  Every array is NaN at the
    singular points, which the verdicts and field dumps leave out.
    """
    f, xi = result.frame.f.value, result.frame.xi.value
    fh, xh = result.f_hat.value, result.xi_hat.value
    a, fc, tau = result.a, result.f_check.value, result.tau
    # Per-derivative quantities carry the derivative index first, as jet slots do.
    V = np.stack([v.value for v in result.metric.V])  # V[i] = (-dxi+tau df)(d_i)
    inner = L.inner_value

    pw = {
        "eq6_unit_fhat": np.abs(inner(fh, fh) - 1.0),
        "eq6_unit_xihat": np.abs(inner(xh, xh) - 1.0),
        "eq6_orth": np.abs(inner(fh, xh)),
    }
    fourth = result.b.grad - tau.value * a.grad + (1.0 - a.value) * inner(V, fc)
    pw["eq6_fourth"] = np.max(np.abs(fourth), axis=0)
    pw["eq6"] = np.maximum.reduce(list(pw.values()))  # the four parts above

    pw["fcheck_orth_f"] = np.abs(inner(fc, f))
    pw["fcheck_orth_xi"] = np.abs(inner(fc, xi))
    pw["mu2_match"] = np.abs(inner(fc, fc) - result.mu2.value)

    # The congruence section is enveloped by the new frame.
    envelope = L.light_cone_section(f, xi, tau.value) - L.light_cone_section(fh, xh, tau.value)
    pw["envelope"] = np.max(np.abs(envelope), axis=-1)

    # eq9: -dxi_hat + tau df_hat = -dxi + tau df + (f - f_hat) dtau.
    dfh = result.f_hat.grad  # dfh[i] is d_i f_hat
    Vh = -result.xi_hat.grad + tau.value[..., None] * dfh
    rhs = V + tau.grad[..., None] * (f - fh)
    pw["eq9"] = np.max(np.abs(Vh - rhs), axis=(0, -1))

    # The transformed frame induces the same congruence metric.
    rows = np.moveaxis(Vh, 0, -2)  # row i is Vh[i], the layout of L.pairing
    Ghat = L.pairing(rows, rows)
    pw["metric_match"] = np.max(np.abs(Ghat - result.metric.G.value), axis=(-2, -1))
    pw["hat_abs_det"] = np.abs(J.det2(Ghat))

    # eq13: alpha + alpha_hat = d ln(1 - a), using (f, f_hat) = a.
    alpha, alpha_h = (np.moveaxis(x.value, -1, 0) for x in (result.alpha, ah))
    dln = -a.grad / (1.0 - a.value)
    pw["eq13"] = np.max(np.abs(alpha + alpha_h - dln), axis=0)

    # Consistency of the quotient expressions for both 1-forms.
    inv_am1 = 1.0 / (a.value - 1.0)
    df = result.frame.f.grad
    pw["alpha_forms"] = np.maximum(
        np.max(np.abs(inner(df, fh) * inv_am1 - alpha), axis=0),
        np.max(np.abs(inner(dfh, f) * inv_am1 - alpha_h), axis=0),
    )
    return {k: _nan_at(result.metric.singular, v) for k, v in pw.items()}


def residual_suite(pointwise: dict[str, np.ndarray]) -> dict:
    """Batch maxima of :func:`pointwise_residuals` (the minimum of ``hat_abs_det``)."""
    res = {k: _vmax(v) for k, v in pointwise.items() if k != "hat_abs_det"}
    res["hat_min_abs_det"] = float(np.nanmin(pointwise["hat_abs_det"]))
    return res


def reconstruct(result: TransformResult, det_rel_tol: float) -> dict:
    """Transform the transformed frame with the same tau; must return home.

    Only the regular points of ``result`` take part: f_hat is NaN at the
    singular ones.  Returns diagnostics over the regular points: the sup-norm
    discrepancy of the reconstructed frame, the residual of the reverse normal
    component identity f_check_hat = f_check + mu^2 (f - f_hat), the length
    check |f_check_hat| = mu, the transformed frame's certificate ``hat_cert``
    (:func:`liegeom.frame_residuals` over the regular points), and the masks
    ``back_not_finite`` and ``back_singular`` of regular points where the
    reverse transform is not finite, or degenerates under the regularity screen
    at ``det_rel_tol`` (the former among them).  Nothing is
    judged here: :func:`judge_reconstruction` raises on the diagnostics, once
    those of every block are merged.
    """
    frame, singular = result.frame, result.metric.singular
    f_hat, xi_hat = result.f_hat, result.xi_hat
    hat_frame = LegendreFrame(f_hat, xi_hat, L.frame_residuals(f_hat, xi_hat, ~singular))
    back = transform(hat_frame, result.tau, det_rel_tol=det_rel_tol)
    inv_f = _vmax(_nan_at(singular, back.f_hat.value - frame.f.value))
    inv_xi = _vmax(_nan_at(singular, back.xi_hat.value - frame.xi.value))
    mu_check = lie_inner(back.f_check, back.f_check).value
    return {
        "involution": max(inv_f, inv_xi),
        "eq10": _vmax(_nan_at(singular, back.f_check.value - f_check_hat(result).value)),
        "mu_match": _vmax(_nan_at(singular, mu_check - result.mu2.value)),
        "hat_cert": hat_frame.cert,
        "back_not_finite": back.not_finite & ~singular,
        "back_singular": back.metric.singular & ~singular,
    }


def judge_reconstruction(diag: dict, points, *, tol: float = 1e-8) -> None:
    """Raise on :func:`reconstruct` diagnostics, in the order they arise.

    The transformed frame must certify at 1e-8, the reverse transform must be
    finite (:class:`DomainErrorJet`) and regular (:class:`NotRegular`), each
    naming the first point of ``points``, the batch that was transformed, that
    ``back_not_finite`` or ``back_singular`` flags (see
    :meth:`PointError.raise_first`), and the frame discrepancy must stay
    within ``tol`` (:class:`InvolutionFailure`).
    """
    L.judge_frame(diag["hat_cert"], 1e-8)
    DomainErrorJet.raise_first(diag["back_not_finite"], points, "reverse transform is not finite")
    NotRegular.raise_first(diag["back_singular"], points, "congruence metric degenerates")
    if diag["involution"] > tol:
        raise InvolutionFailure(
            f"frame discrepancy {diag['involution']:.3e} exceeds {tol:.1e}"
        )


def curvature_identity(result: TransformResult, ah: Jet2) -> float:
    """Max |(beta(f+t0) wedge beta(f_hat+t0)) - (1-a) d alpha| off the singular points.

    beta psi = d psi - psi * (its connection form), see
    :func:`corrected_differential`; the wedge pairs the 1-form slots and takes
    the ambient inner product on the vector slots.  ``ah`` is alpha_hat.
    """
    lhs = wedge(
        corrected_differential(result.frame.f.truncate(1), result.alpha.truncate(0)).value,
        corrected_differential(result.f_hat.truncate(1), ah.truncate(0)).value,
    )
    rhs = (1.0 - result.a.value)[..., None] * dalpha_components(result)
    return _vmax(_nan_at(result.metric.singular, lhs - rhs))


# ---------- the block evaluator ----------

# Points per block of every grid evaluation.  A block's jets are dropped once its
# values are written out, so peak memory does not grow with the grid.
BLOCK = 4096

_LIBC = ctypes.CDLL(None) if os.name == "posix" else None  # the C library, for _kept_heap


@contextmanager
def _kept_heap():
    """Keep glibc's heap through a walk, so no block faults in what the last one freed."""
    if not (hasattr(_LIBC, "mallopt") and hasattr(_LIBC, "malloc_trim")):  # not glibc
        yield
        return
    _LIBC.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: above any array a block allocates
    _LIBC.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: above a block's transient heap
    try:
        yield
    finally:
        _LIBC.malloc_trim(0)  # once, so the writers and later walks start from a trimmed heap


# Peaks that are minima, and int peaks that are counts.
_MINIMA = frozenset({"immersion_min", "hat_min_abs_det", "min_det"})
_COUNTS = frozenset({"n_singular", "denominator_masked", "regularity_masked"})


def merge_peaks(old, new, key: str | None = None):
    """The peaks of two stretches of a batch as one, ``old`` coming first.

    A peak is a float, a ``(value, flat index)`` pair, an int, or a dict of
    peaks; None stands for no peak.  A float keeps the larger value, the smaller
    when its ``key`` in a dict is one of ``_MINIMA``, and NaN wins as in
    ``np.max``.  A pair keeps the larger value, and the earlier index on ties.
    An int, the :func:`first_flagged` index of a check, keeps the smaller; a
    count (``_COUNTS``) adds.  A key that only one side reports keeps its peak.
    """
    if old is None or new is None:
        return new if old is None else old
    if isinstance(old, dict):
        return {k: merge_peaks(old.get(k), new.get(k), k) for k in old | new}
    if isinstance(old, tuple):
        return new if new[0] > old[0] else old
    if isinstance(old, int):
        return old + new if key in _COUNTS else min(old, new)
    return float((np.minimum if key in _MINIMA else np.maximum)(old, new))


def first_flagged(mask: np.ndarray, key: slice) -> int | None:
    """The peak of a point check on the block ``key``: the flat index of the
    first point of ``mask``, or None."""
    return key.start + int(np.argmax(mask)) if mask.any() else None


@dataclass
class BlockValues:
    """What :func:`eval_blocks` keeps of a batch: values and peaks, never jets."""

    points: Wrapped  # the batch's parameter points, wrapped into the chart's domain
    cert: dict  # the merged frame certificate
    values: dict[str, np.ndarray]  # each array the body returned, over the batch
    peaks: dict  # the bodies' peaks, merged


def eval_blocks(
    chart: CH.ChartSpec, points: np.ndarray | Grid, taus: list[tuple[E.TauExpr, int]],
    body: Callable, *, checks=(), contact_tol: float | None = None, order: int = 2,
) -> BlockValues:
    """Walk a flat batch of parameter points through ``body``, block by block.

    Blocks hold :data:`BLOCK` points of ``points``, an (N, 2) array or a
    :class:`gridio.Grid`, half as many at ``order`` 3, whose jets are twice
    as large.  Each block lifts its chart (:func:`charts.eval_chart` records its
    certificate), then evaluates once each of ``taus``, expressions with their
    jet orders.
    ``body(frame, taus, key)`` gets the chart frame (jets of ``order``), the tau
    jets and the block's slice ``key`` of the batch.  It runs under
    ``np.errstate(all="ignore")``, handing numerical trouble back as a
    not-finite mask, and returns ``(values, peaks)``: per-point value arrays,
    written into whole-batch arrays, and peaks (or None), merged over the blocks
    by :func:`merge_peaks`, as the blocks' frame certificates are.

    Once the merged certificate fails :func:`liegeom.judge_frame` at ``contact_tol``
    (None: the chart's default), or a tau raises, later blocks are only lifted
    and evaluated.  After the walk the certificate is judged, then the first tau
    that failed raises its first error, then the first of ``checks``, ``(peak
    name, error class, message)``, that flags a point, as in a single pass.
    Callers judge the rest on the merged peaks, so an error names the point the
    whole batch would.
    """
    wrapped = Wrapped(chart.domain, points)
    contact_tol = contact_tol or CH.default_contact_tol(chart)
    size = BLOCK // 2 if order > 2 else BLOCK
    cert, failed, errors, values, peaks = None, False, [None] * len(taus), {}, {}
    with _kept_heap():
        for start in range(0, len(points), size):
            key = slice(start, start + size)
            block_points = points[key]
            frame = CH.eval_chart(chart, block_points, order)
            cert = merge_peaks(cert, frame.cert)
            try:
                L.judge_frame(cert, contact_tol)
            except (ContactViolation, NotImmersed):
                failed = True  # the whole batch's record fails too
            tau_jets = []
            for k, (expr, tau_order) in enumerate(taus):
                try:
                    tau_jets.append(E.eval_at(expr, chart.domain.wrap(block_points), tau_order))
                except DomainErrorJet as exc:
                    errors[k] = errors[k] or exc  # its first, in batch order
            if not (failed or any(errors)):
                with np.errstate(all="ignore"):
                    block, block_peaks = body(frame, tau_jets, key)
                for k in list(block):
                    if k not in values:
                        values[k] = np.empty((len(points),) + block[k].shape[1:], block[k].dtype)
                    values[k][key] = block.pop(k)  # the block's own copy is freed at once
                peaks = merge_peaks(peaks, block_peaks)
            del frame, tau_jets  # their jets would otherwise live through the next block's

    L.judge_frame(cert, contact_tol)
    if any(errors):
        raise next(exc for exc in errors if exc)
    for name, cls, what in checks:
        cls.raise_first(peaks.get(name), wrapped, what)
    return BlockValues(wrapped, cert, values, peaks)


# ---------- grid-level runner ----------

# the residuals of pointwise_residuals that fields.csv carries
_POINTWISE = ("eq6", "eq9", "eq13")
# residuals that verify the construction but are not gated
_SUPPORTING = (
    "fcheck_orth_f", "fcheck_orth_xi", "mu2_match", "envelope", "metric_match", "alpha_forms",
    "hat_min_abs_det",
)


def field_columns(res: TransformResult, pw: dict) -> dict:
    """What ``transform`` writes of a block: the first four components of f
    and f_hat, the singular mask (left out of f_hat.obj), then the fields.csv
    columns in file order, the last ones the _POINTWISE residuals of ``pw``,
    :func:`pointwise_residuals` of ``res`` (NaN off the regular points)."""
    alpha = res.alpha.value
    cols = {"f": res.frame.f.value[:, :4], "f_hat": res.f_hat.value[:, :4]}
    cols["singular"] = res.metric.singular
    cols |= {"tau": res.tau.value, "a": res.a.value, "b": res.b.value, "mu2": res.mu2.value}
    cols |= {"alpha_u": alpha[..., 0], "alpha_v": alpha[..., 1]}
    cols["dalpha_abs"] = np.abs(dalpha_components(res)[..., 0])
    return cols | {f"res_{key}": pw[key] for key in _POINTWISE}


def _run_block(
    frame: LegendreFrame, tau: Jet2, key: slice, det_rel_tol: float, columns: Callable | None
) -> tuple[dict, dict]:
    """Transform and verify one block, the slice ``key`` of the grid.

    The block is transformed once.  Degenerate points (a curvature-sphere
    crossing of tau) stay in it, masked by the transform's singular mask: every
    diagnostic leaves them out, and the report carries regular=False when any
    exist.  Returns ``columns(res, pw)`` of the caller, if given, and the
    block's peaks: its verdicts, min |det G| (NaN left out), and the residuals
    where a point is regular.
    """
    res = transform(frame, tau, det_rel_tol=det_rel_tol)
    reg = ~res.metric.singular
    det = np.abs(res.metric.det[~np.isnan(res.metric.det)])
    peaks = {
        "not_finite": first_flagged(res.not_finite, key),
        "n_singular": int(np.count_nonzero(res.metric.singular)),
        "min_det": float(det.min()) if det.size else None,
    }
    if not reg.any():
        cols = columns(res, pointwise_residuals(res, alpha_hat(res))) if columns else {}
        return cols, peaks
    max_da, arg = ribaucour_residual(res)
    peaks["dalpha"] = (max_da, key.start + arg[0])
    peaks["max_alpha"] = max_abs_alpha(res)
    ah = alpha_hat(res)
    pw = pointwise_residuals(res, ah)
    peaks["suite"] = residual_suite(pw)
    peaks["curvature"] = curvature_identity(res, ah)
    values = columns(res, pw) if columns else {}
    del pw, ah  # would otherwise stay live through reconstruct's peak
    peaks["reconstruction"] = reconstruct(res, det_rel_tol)
    for check in ("back_not_finite", "back_singular"):
        peaks[check] = first_flagged(peaks["reconstruction"].pop(check), key)
    return values, peaks


def run_grid(
    chart: CH.ChartSpec,
    tau_expr: E.TauExpr,
    grid: Grid,
    *,
    closedness_rel_tol: float = CLOSEDNESS_REL_TOL,
    det_rel_tol: float = DET_REL_TOL,
    involution_tol: float = 1e-8,
    contact_tol: float | None = None,
    columns: Callable | None = None,
) -> tuple[dict, BlockValues]:
    """Evaluate, transform, and verify a scene on a grid: ``(report, run)``.

    The grid runs through :func:`eval_blocks`: the blocks return their peaks,
    and what ``columns`` keeps (see :func:`_run_block` and
    :func:`field_columns`), and the peaks are merged by :func:`merge_peaks` alone
    (the closedness argmax keeps the first index on ties).  Every check is judged
    on merged peaks in the order of a single pass (chart, certification, tau, a
    finite transform, regularity, reconstruction).  ``report`` is the CLI's JSON
    report, built once from the merged peaks; ``run`` is the walk itself.
    """
    run = eval_blocks(
        chart, grid, [(tau_expr, 2)],
        lambda frame, taus, key: _run_block(frame, taus[0], key, det_rel_tol, columns),
        checks=[("not_finite", DomainErrorJet, "transform is not finite")],
        contact_tol=contact_tol,
    )
    peaks = run.peaks
    if peaks["n_singular"] == len(grid):  # the first point is named
        NotRegular.raise_first(0, run.points, "congruence metric degenerates")
    max_da, argmax = peaks["dalpha"]  # a regular point is left, so argmax is an index
    suite, recon = peaks["suite"], peaks["reconstruction"]
    back = {check: peaks.get(check) for check in ("back_not_finite", "back_singular")}
    judge_reconstruction(recon | back, run.points, tol=involution_tol)
    supporting = {k: suite[k] for k in _SUPPORTING} | {"mu_match": recon["mu_match"]}
    report = {
        "chart": CH.chart_to_json(chart),
        "grid": list(grid.shape),
        "regular": peaks["n_singular"] == 0,
        "min_det": peaks["min_det"],
        "max_dalpha": max_da,
        "max_dalpha_at": [float(x) for x in run.points[(argmax,)]],
        "max_alpha": peaks["max_alpha"],
        "ribaucour": classify_ribaucour(max_da, peaks["max_alpha"], closedness_rel_tol),
        "residuals": {
            "eq6": suite["eq6"], "eq9": suite["eq9"], "eq10": recon["eq10"],
            "eq13": suite["eq13"], "involution": recon["involution"],
            "curvature_identity": peaks["curvature"],
        },
        "supporting_residuals": {  # null where not finite
            k: v if np.isfinite(v) else None for k, v in supporting.items()
        },
    }
    return report, run

"""The pseudo-Euclidean ambient space and Legendre frames.

Vectors live in R^(m+2,2): m+2 spatial components followed by the two
time-like components c0, c1 (coefficients of the fixed unit time-like basis
vectors t0, t1).  The inner product is

    inner(x, y) = sum_i spatial_i(x) spatial_i(y) - c0(x) c0(y) - c1(x) c1(y).

Vector-valued jets carry their m+4 components along the last value axis, in
(spatial..., c0, c1) order; that order is also the serialization convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as J
from .errors import ContactViolation, NotImmersed
from .jets import Jet2


def _signed_sum(p: np.ndarray) -> np.ndarray:
    """Componentwise products (last axis) summed with the signature: the m+2
    spatial ones added, the two time-like ones subtracted."""
    return J.wsum(p[..., :-2]) - p[..., -2] - p[..., -1]


def lie_inner(x: Jet2, y: Jet2) -> Jet2:
    """Signature-(m+2, 2) inner product of two vector jets, slot by slot of their product."""
    return (x * y).map(_signed_sum)


def inner_value(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The inner product on plain component arrays (last axis), broadcasting."""
    return _signed_sum(x * y)


def pairing(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of inner products (X_i, Y_j) of two stacks of vectors (..., k, m+4)."""
    return inner_value(X[..., :, None, :], Y[..., None, :, :])


def t0_jet(m: int) -> np.ndarray:
    """The time-like basis vector t0, a plain array: jets lift it at their own order."""
    e = np.zeros(m + 4)
    e[m + 2] = 1.0
    return e


def t1_jet(m: int) -> np.ndarray:
    """The time-like basis vector t1, a plain array like :func:`t0_jet`."""
    e = np.zeros(m + 4)
    e[m + 3] = 1.0
    return e


def spatial_vector(components: list[Jet2]) -> Jet2:
    """Assemble a full vector jet from spatial parts, zero time components."""
    zero = Jet2.constant(0.0, components[0].m, min(c.order for c in components))
    return J.stack(list(components) + [zero, zero])


@dataclass
class LegendreFrame:
    """A chart's contact lift (f, xi) as vector jets, with certificates.

    ``f`` and ``xi`` have unit length, are orthogonal, and satisfy the
    oriented-contact relations (df, xi) = (f, dxi) = 0; ``cert`` records the
    maximal residual of each relation over the points its builder certified:
    the batch in :func:`lift_frame`, the regular points in :func:`ribaucour.reconstruct`.
    """

    f: Jet2
    xi: Jet2
    cert: dict

    @property
    def m(self) -> int:
        """The number of parameters, read from the jets."""
        return self.f.m


def frame_residuals(f: Jet2, xi: Jet2, keep: np.ndarray | bool = True) -> dict:
    """Max residuals of the frame relations, plus the immersion margin, over
    the points ``keep`` marks (a mask of the batch; True: every point).

    Reads values and first partials only, so order-1 frames certify too.
    """
    fv, xv = f.value, xi.value

    def _amax(arr: np.ndarray) -> float:
        return float(np.max(np.abs(arr), initial=0.0, where=keep))

    res = {
        "unit_f": _amax(inner_value(fv, fv) - 1.0),
        "unit_xi": _amax(inner_value(xv, xv) - 1.0),
        "orthogonality": _amax(inner_value(fv, xv)),
        "contact_df": _amax(inner_value(f.grad, xv)),
        "contact_dxi": _amax(inner_value(fv, xi.grad)),
    }
    # Immersion screen: smallest eigenvalue of (df,df) + (dxi,dxi).
    df = np.moveaxis(f.grad, 0, -2)  # rows d_i f
    dxi = np.moveaxis(xi.grad, 0, -2)
    eig = J.eigmin2(pairing(df, df) + pairing(dxi, dxi))
    res["immersion_min"] = float(np.min(eig, initial=np.inf, where=keep))
    return res


def lift_frame(f: Jet2, xi: Jet2) -> LegendreFrame:
    """(f, xi) as a Legendre frame whose ``cert`` records :func:`frame_residuals`.

    Nothing is judged here: a batch evaluated in blocks merges the blocks'
    records by the one peak rule, :func:`ribaucour.merge_peaks`, and
    :func:`ribaucour.eval_blocks` judges the merged record with :func:`judge_frame`.
    """
    return LegendreFrame(f, xi, frame_residuals(f, xi))


_RELATIONS = ("unit_f", "unit_xi", "orthogonality", "contact_df", "contact_dxi")
# Immersion screen: the smallest eigenvalue of (df,df) + (dxi,dxi) must reach it.
IMMERSION_TOL = 1e-20


def judge_frame(res: dict, contact_tol: float) -> None:
    """Raise on a :func:`frame_residuals` record that fails certification."""
    worst = float(np.max([res[k] for k in _RELATIONS]))  # NaN anywhere is NaN
    if not np.isfinite(worst):
        raise ContactViolation("frame residuals are not finite")
    if worst > contact_tol:
        offender = max(_RELATIONS, key=lambda k: res[k])
        raise ContactViolation(
            f"frame relation {offender} residual {res[offender]:.3e} > {contact_tol:.1e}"
        )
    if res["immersion_min"] < IMMERSION_TOL:
        raise NotImmersed(
            f"combined differential degenerates (min eigenvalue {res['immersion_min']:.3e})"
        )


def light_cone_section(f: Jet2 | np.ndarray, xi: Jet2 | np.ndarray, tau: Jet2 | np.ndarray):
    """The sphere tau lifted to the light cone: sigma = xi - tau f - tau t0 + t1.

    Takes jets, or plain value arrays with the components along the last axis.
    """
    if isinstance(tau, Jet2):
        m, tv = f.m, tau.vec()
    else:
        m, tv = f.shape[-1] - 4, tau[..., None]
    return xi - tv * f - tv * t0_jet(m) + t1_jet(m)

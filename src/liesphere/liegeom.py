"""The pseudo-Euclidean ambient space and Legendre frames.

Vectors live in R^(m+2,2): m+2 spatial components followed by the two
time-like components c0, c1 (coefficients of the fixed unit time-like basis
vectors t0, t1).  The inner product is

    inner(x, y) = sum_i spatial_i(x) spatial_i(y) - c0(x) c0(y) - c1(x) c1(y).

Vector-valued jets carry their m+4 components along the last value axis, in
(spatial..., c0, c1) order; that order is also the serialization convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import jets as J
from .errors import ContactViolation, NotImmersed
from .jets import Jet2


@lru_cache(maxsize=None)
def metric_weights(m: int) -> np.ndarray:
    w = np.ones(m + 4)
    w[-2:] = -1.0
    return w


def lie_inner(x: Jet2, y: Jet2) -> Jet2:
    """Signature-(m+2, 2) inner product of two vector jets."""
    return J.jsum(x * y, axis=-1, weights=metric_weights(x.m))


def inner_value(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The inner product on plain component arrays (last axis), broadcasting."""
    return np.sum(x * y * metric_weights(x.shape[-1] - 4), axis=-1)


def pairing(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of inner products (X_i, Y_j) of two stacks of vectors (..., k, m+4)."""
    return inner_value(X[..., :, None, :], Y[..., None, :, :])


def t0_jet(m: int) -> Jet2:
    e = np.zeros(m + 4)
    e[m + 2] = 1.0
    return Jet2.constant(e, m)


def t1_jet(m: int) -> Jet2:
    e = np.zeros(m + 4)
    e[m + 3] = 1.0
    return Jet2.constant(e, m)


def spatial_vector(components: list[Jet2]) -> Jet2:
    """Assemble a full vector jet from spatial parts, zero time components."""
    comps = list(components)
    m = comps[0].m
    zero = Jet2.constant(np.zeros(comps[0].value.shape), m)
    return J.stack(comps + [zero, zero], axis=-1)


@dataclass
class LegendreFrame:
    """A chart's contact lift (f, xi) as vector jets, with certificates.

    ``f`` and ``xi`` have unit length, are orthogonal, and satisfy the
    oriented-contact relations (df, xi) = (f, dxi) = 0; ``cert`` records the
    maximal residual of each relation over the batch.
    """

    f: Jet2
    xi: Jet2
    points: np.ndarray
    m: int = 2
    cert: dict = field(default_factory=dict)

    def subset(self, key) -> "LegendreFrame":
        return LegendreFrame(
            self.f.batch(key), self.xi.batch(key), self.points[key], self.m, self.cert
        )


def frame_residuals(f: Jet2, xi: Jet2) -> dict:
    """Max residuals of the frame relations, plus the immersion margin."""
    m = f.m

    def _amax(jet: Jet2) -> float:
        return float(np.max(np.abs(jet.value))) if jet.value.size else 0.0

    res = {
        "unit_f": _amax(lie_inner(f, f) - 1.0),
        "unit_xi": _amax(lie_inner(xi, xi) - 1.0),
        "orthogonality": _amax(lie_inner(f, xi)),
        "contact_df": max(
            _amax(lie_inner(f.deriv(i), xi)) for i in range(m)
        ),
        "contact_dxi": max(
            _amax(lie_inner(f, xi.deriv(i))) for i in range(m)
        ),
    }
    # Immersion screen: smallest eigenvalue of (df,df) + (dxi,dxi).
    rows = []
    for i in range(m):
        dfi, dxii = f.deriv(i), xi.deriv(i)
        rows.append(
            [
                lie_inner(dfi, f.deriv(k)).value + lie_inner(dxii, xi.deriv(k)).value
                for k in range(m)
            ]
        )
    gram = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    eig = np.linalg.eigvalsh(gram)
    res["immersion_min"] = float(np.min(eig[..., 0]))
    return res


def lift_frame(
    f: Jet2,
    xi: Jet2,
    points: np.ndarray,
    *,
    contact_tol: float = 1e-12,
    immersion_tol: float = 1e-20,
) -> LegendreFrame:
    """Certify (f, xi) as a Legendre frame; raises on violations."""
    res = frame_residuals(f, xi)
    worst = max(
        res["unit_f"], res["unit_xi"], res["orthogonality"], res["contact_df"],
        res["contact_dxi"],
    )
    if not np.isfinite(worst):
        raise ContactViolation("frame residuals are not finite")
    if worst > contact_tol:
        offender = max(
            ("unit_f", "unit_xi", "orthogonality", "contact_df", "contact_dxi"),
            key=lambda k: res[k],
        )
        raise ContactViolation(
            f"frame relation {offender} residual {res[offender]:.3e} > {contact_tol:.1e}"
        )
    if res["immersion_min"] < immersion_tol:
        raise NotImmersed(
            f"combined differential degenerates (min eigenvalue {res['immersion_min']:.3e})"
        )
    return LegendreFrame(f, xi, np.asarray(points, float), f.m, res)


@dataclass
class SphereCongruence:
    """Enveloped sphere congruence: representative tau and its light-cone lift."""

    tau: Jet2
    sigma: Jet2
    cert: dict = field(default_factory=dict)


def light_cone_section(f: Jet2, xi: Jet2, tau: Jet2) -> Jet2:
    """The sphere tau lifted to the light cone: sigma = xi - tau f - tau t0 + t1."""
    tv = tau.vec()
    return xi - tv * f - tv * t0_jet(f.m) + t1_jet(f.m)


def sphere_congruence(frame: LegendreFrame, tau: Jet2) -> SphereCongruence:
    """Lift tau to the light-cone section sigma; certify it null, in span(xi+t1, f+t0)."""
    m = frame.m
    sigma = light_cone_section(frame.f, frame.xi, tau)
    span_res = sigma - ((frame.xi + t1_jet(m)) - tau.vec() * (frame.f + t0_jet(m)))
    cert = {
        "light_cone": float(np.max(np.abs(lie_inner(sigma, sigma).value))),
        "span": float(np.max(np.abs(span_res.value))),
    }
    return SphereCongruence(tau, sigma, cert)

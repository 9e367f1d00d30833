"""Exception types shared across the engine.

Trouble at grid points, numerical trouble (1/0, overflow, an invalid value)
included, is a :class:`PointError` that names the first point, never a warning.
"""

from __future__ import annotations

import numpy as np


class LieSphereError(Exception):
    """Base class for every error raised by this package."""


class PointError(LieSphereError):
    """An error at one point of a batch: its batch ``index`` and parameter ``point``."""

    def __init__(self, message: str, index=None, point=None):
        super().__init__(message)
        self.index, self.point = index, point

    @classmethod
    def raise_first(cls, first, points, what: str) -> None:
        """Raise at the first flagged point of a batch, if any: ``what``, its index and
        ``points[index]``.  ``first`` is a mask, or the first flagged flat index (or None)."""
        if isinstance(first, np.ndarray):
            first = np.argwhere(first)[0] if first.any() else None
        if first is not None:
            idx = tuple(int(k) for k in np.atleast_1d(first))
            where = f"batch index {idx}, parameter point {np.round(points[idx], 6).tolist()}"
            raise cls(f"{what} at {where}", index=idx, point=points[idx])


class DomainErrorJet(PointError, ValueError):
    """A jet is not finite at some point: off a function's domain (ln of <= 0, 1/0), or overflow."""


class ParseError(LieSphereError, ValueError):
    """Expression syntax error, annotated with position and expected tokens."""

    def __init__(self, message: str, position: int, expected=()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = tuple(expected)


class ContactViolation(LieSphereError):
    """Candidate frame fails the oriented-contact relations."""


class NotImmersed(LieSphereError):
    """Both lift differentials vanish along some direction."""


class NotRegular(PointError):
    """The congruence metric degenerates at some parameter point."""


class InvolutionFailure(LieSphereError):
    """Transforming twice with the same representative did not return."""


class PathDependence(LieSphereError):
    """Grid integration is inconsistent (non-closed form or period obstruction)."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NotPointwiseDistinct(PointError):
    """Two representative functions coincide somewhere on the grid."""


class FullyMasked(LieSphereError):
    """Family member is singular on more than half of the grid."""


class IllPosed(LieSphereError):
    """Linear system for the connection operator has a singular Gram matrix."""


class BlowUp(PointError):
    """Integrated quantity left its admissible range, or stopped being finite."""


class NotRibaucour(LieSphereError):
    """A representative function failed the closedness certification."""

    def __init__(self, message: str, max_dalpha: float = float("nan")):
        super().__init__(message)
        self.max_dalpha = max_dalpha


class BianchiViolation(LieSphereError):
    """Commutator of the two connection operators exceeds tolerance."""

    def __init__(self, message: str, norm: float = float("nan")):
        super().__init__(message)
        self.norm = norm


class SceneError(LieSphereError):
    """Scene file missing, malformed, or failing validation."""

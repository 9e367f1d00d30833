"""Exception types shared across the engine."""

from __future__ import annotations


class LieSphereError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZeroJet(LieSphereError, ZeroDivisionError):
    """Jet division where the divisor's value part is machine-zero."""


class DomainErrorJet(LieSphereError, ValueError):
    """Elementary function applied outside its domain (e.g. ln of <= 0)."""


class SingularMatrix(LieSphereError):
    """Jet matrix whose value part fails the scale-aware determinant screen."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


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


class NotRegular(LieSphereError):
    """The congruence metric degenerates at some parameter point."""

    def __init__(self, message: str, index=None, point=None):
        super().__init__(message)
        self.index = index
        self.point = point


class NotHypersurface(LieSphereError):
    """Induced metric of the spherical projection is singular."""


class InvolutionFailure(LieSphereError):
    """Transforming twice with the same representative did not return."""


class PathDependence(LieSphereError):
    """Grid integration is inconsistent (non-closed form or period obstruction)."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NotPointwiseDistinct(LieSphereError):
    """Two representative functions coincide somewhere on the grid."""


class FullyMasked(LieSphereError):
    """Family member is singular on more than half of the grid."""


class IllPosed(LieSphereError):
    """Linear system for the connection operator has a singular Gram matrix."""


class BlowUp(LieSphereError):
    """Integrated quantity left its admissible range (or its sign flipped)."""


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


class StencilOutOfDomain(LieSphereError):
    """Finite-difference stencil leaves a non-periodic domain."""


class SceneError(LieSphereError):
    """Scene file missing, malformed, or failing validation."""


class PoleClipWarning(UserWarning):
    """Vertices near the stereographic pole were dropped from an export."""

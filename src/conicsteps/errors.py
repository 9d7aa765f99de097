"""Exception types raised by the public API."""

__all__ = ["ConicError", "DegenerateDirectionError", "OffCurveError", "NoBranchError",
           "DegenerateTriangleError", "UnsupportedVariantError", "BracketError",
           "IterationError", "SceneFormatError"]


class ConicError(Exception):
    """Base class for all conicsteps errors."""


class DegenerateDirectionError(ConicError, ValueError):
    """A direction was requested for a (near-)zero vector."""


class OffCurveError(ConicError, ValueError):
    """A point that must lie on the curve does not, within tolerance."""


class NoBranchError(ConicError, ValueError):
    """A hyperbola query sits exactly on the symmetry axis between branches."""


class DegenerateTriangleError(ConicError, ValueError):
    """An operation needs a genuine triangle but got a collapsed one."""


class UnsupportedVariantError(ConicError, ValueError):
    """The operation is defined only for a subset of conic kinds."""


class BracketError(ConicError, RuntimeError):
    """A root bracket did not contain a sign change."""


class IterationError(ConicError, RuntimeError):
    """An iterative solver hit its iteration cap without converging."""


class SceneFormatError(ConicError, ValueError):
    """A scene document is malformed or violates the schema."""

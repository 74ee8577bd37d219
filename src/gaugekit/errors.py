"""Exception types raised across the package.

There are two kinds. SchemaError is a bad input: a document, spec or batch
that breaks a data model, named by its path. The five fit failures are
steps that could not be computed; read_gauge turns each into a stage status
without string matching.
"""

from __future__ import annotations


class GaugeKitError(Exception):
    """Base class for all gaugekit errors."""


class SchemaError(GaugeKitError):
    """Input breaks a data model: malformed JSON, a wrong shape or a bad value."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class InsufficientPoints(GaugeKitError):
    """Too few points, or too few distinct ones, for the requested fit."""


class DegenerateConfiguration(GaugeKitError):
    """Point configuration admits no valid ellipse."""


class IsotropicScatter(GaugeKitError):
    """Point scatter has no dominant axis; a line fit would be unreliable."""

    def __init__(self, eigenvalue_ratio: float):
        super().__init__(
            f"scatter is near-isotropic (eigenvalue ratio {eigenvalue_ratio:.3f})"
        )
        self.eigenvalue_ratio = eigenvalue_ratio


class NoIntersection(GaugeKitError):
    """Line misses the unit circle."""


class NoConsensus(GaugeKitError):
    """RANSAC found no model supported by at least two pairs."""

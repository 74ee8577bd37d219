"""Exception types raised across the package.

Every failure mode callers are expected to handle gets its own class so the
reading pipeline can translate them into stage statuses without string
matching.
"""

from __future__ import annotations


class GaugeKitError(Exception):
    """Base class for all gaugekit errors."""


class FixtureSyntaxError(GaugeKitError):
    """Input is not valid UTF-8 JSON."""


class SchemaError(GaugeKitError):
    """Input is valid JSON but violates the fixture data model."""

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


class MissingGroundTruth(GaugeKitError):
    """Batch evaluation requires ground truth on every fixture."""


class SpecError(GaugeKitError):
    """Synthetic scene or perturbation specification violates its invariants."""

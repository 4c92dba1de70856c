"""Exception types shared across the toolkit."""


class GeometryError(Exception):
    """Base class for geometric failure modes."""


class SingularCurvature(GeometryError):
    """Curvature data is degenerate (flat or infinitely curved direction)."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class NonUniqueContact(GeometryError):
    """The contact set of a body with an inscribed translate is not a point.

    Carries the boundary samples that attained contact, for diagnostics.
    """

    def __init__(self, message, contact_points=None):
        super().__init__(message)
        self.contact_points = contact_points


class DegenerateFit(Exception):
    """Power-law ladder values are drowned by their own error bars."""


class FlatContact(Exception):
    """Fitted decay exponent falls below the strongly convex value.

    Signals a flat (zero curvature) touch point; carries the fit that
    triggered detection.
    """

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class ConfigError(Exception):
    """Invalid experiment configuration."""

"""Independent reference values: the lens measures of two disks or two balls.

They are implemented from classical mensuration formulas, not from the
support-function machinery, so that agreement between the two is evidence
rather than tautology.  The polygon clippers and the parametric ellipse
curvature are test oracles, in ``tests/oracles.py``.
"""

import math


def disk_lens_area(R1, R2, d):
    """Exact area of the intersection of two disks with center distance d."""
    if R1 <= 0 or R2 <= 0:
        raise ValueError("radii must be positive")
    if d < 0:
        raise ValueError("center distance must be nonnegative")
    if d >= R1 + R2:
        return 0.0
    if d <= abs(R1 - R2):
        r = min(R1, R2)
        return math.pi * r * r
    # circular segment formula
    a1 = math.acos((d * d + R1 * R1 - R2 * R2) / (2.0 * d * R1))
    a2 = math.acos((d * d + R2 * R2 - R1 * R1) / (2.0 * d * R2))
    tri = 0.5 * math.sqrt(max(0.0, (-d + R1 + R2) * (d + R1 - R2) *
                              (d - R1 + R2) * (d + R1 + R2)))
    return R1 * R1 * a1 + R2 * R2 * a2 - tri


def ball_lens_volume(R1, R2, d):
    """Exact volume of the intersection of two balls with center distance d."""
    if R1 <= 0 or R2 <= 0:
        raise ValueError("radii must be positive")
    if d < 0:
        raise ValueError("center distance must be nonnegative")
    if d >= R1 + R2:
        return 0.0
    if d <= abs(R1 - R2):
        r = min(R1, R2)
        return 4.0 * math.pi * r ** 3 / 3.0
    # two spherical caps joined at the radical plane
    return (math.pi * (R1 + R2 - d) ** 2 *
            (d * d + 2.0 * d * (R1 + R2) - 3.0 * (R1 - R2) ** 2) / (12.0 * d))

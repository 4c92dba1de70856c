"""Numerical toolkit for the density characterization of convex bodies.

Support-function geometry, curvature data, volume estimation, asymptotic
coefficient extraction and a battery of identity checks on 2D and 3D
convex bodies.
"""

from .bodies import (Ball, ConvexBody, CurvatureData, Dilate, Ellipsoid,
                     FourierBody2D, MinkowskiSum, ReuleauxTriangle2D,
                     Superellipse2D, Translate, boundary_point,
                     boundary_points, curvature, curvature_many,
                     difference_body, normal_at, tangent_frame)
from .errors import (ConfigError, DegenerateFit, FlatContact, GeometryError,
                     NonUniqueContact, SingularCurvature)
from .measure import (OMEGA, IntegrationResult, QuadratureGrid,
                      circumscribed_ratio, gauge, halfspace_cut_volume,
                      intersection_volume, volume, volume_qmc,
                      volume_quadrature)
from .asymptotics import (PowerLawFit, convention_factor, deficit_ladder,
                          fit_power_law, large_r_coefficient_closed,
                          large_r_coefficient_numeric, large_r_limit_closed,
                          small_r_v0, symmetric_closed_constant)
from .analysis import (SpreadReport, curvature_symmetry_check,
                       halfvolume_condition_check, k_equals_2g_check,
                       kdense_spread, kp1_check, krantz_parks_check,
                       petty_check, touch_point, touch_points)
from .oracles import ball_lens_volume, disk_lens_area

__version__ = "0.1.0"

"""Curvature flows of convex hypersurfaces by homogeneous speeds: support-
function geometry, ball-curvature monitors, and property-tested matrix
inequalities."""

__version__ = "0.1.0"

from .speeds import (ArithmeticMean, CertReport, DomainError, DualSpeed,
                     HarmonicMean, PowerMean, SigmaRatio, SigmaRoot, SpeedFunction,
                     certify, parse_speed)
from .oracle import BoundarySample, boundary_suite, interior_suite
from .geometry import (BallCurvatureField, ConvexBody, ConvexityLost, RadiiReport,
                       ball_curvature_field, hausdorff_to_unit_sphere,
                       make_ellipse, make_ellipsoid, make_sphere, radii,
                       recenter, tangent_plane_diagnostic)
from .flow import FlowConfig, FlowRun, Snapshot, build_body, build_speed, run
from .monitor import (MonitorRow, RatioExtremes, TrendVerdict, assert_trend,
                      monitor_rows, ratios, run_verdicts, write_monitor_csv)

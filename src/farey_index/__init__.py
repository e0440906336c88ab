"""Exact Farey-fraction index statistics and transfer-map geometry.

The package has four library layers and a CLI:

    geometry   exact integer-vertex convex polygons, clipping, unimodular maps
    farey      the Farey index stream, seeking, and ranks over one Mertens table
    bcz        the area-preserving transfer map on the Farey triangle, its
               region decomposition, push-forwards and exact constants
    stats      exact index statistics at scale, paired with their predictions
    cli        the `farey-index` command-line harness
"""

__version__ = "0.1.0"

from .geometry import (
    ConvexPolygon,
    EMPTY_POLYGON,
    GeometryError,
    Point2,
    UnimodularMap,
    apply_map,
    clip_convex,
    polygon_area,
)
from .farey import seek, totient_summatory
from .bcz import (
    FAREY_TRIANGLE,
    OrbitState,
    PolygonSet,
    PowerMomentConstant,
    TailCertificateError,
    autocorrelation_constant,
    b_alpha,
    bcz_apply,
    intersection_area_table,
    lower_frequency,
    orbit,
    push_forward,
    region_polygon,
    region_star_polygon,
    star_intersection_area,
    upper_frequency,
    upper_lower_triangles,
)
from .stats import (
    StatRecord,
    autocorr_records,
    autocorr_sum,
    autocorr_sums,
    autocorr_sum_interval,
    hall_shiu_identity,
    lu_count_table,
    lu_counts,
    lu_table_records,
    moment_records,
    partial_index_sum,
    partial_index_sums,
    partial_records,
    sum_index,
    sum_index_power,
    visible_points_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]

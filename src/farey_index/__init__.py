"""Exact Farey-fraction index statistics and transfer-map geometry.

The package has four library layers and a CLI:

    geometry   exact integer-vertex convex polygons, clipping, unimodular maps
    farey      the Farey index stream, seeking, and ranks over one Mertens table
    bcz        the area-preserving transfer map on the Farey triangle, its
               region decomposition, push-forwards and exact constants
    stats      exact index statistics at scale, paired with their predictions
    cli        the `farey-index` command line

The namespace is lazy (PEP 562): `import farey_index` loads no layer, and a
public name loads its layer, with the layers it imports, when it is first
read.  `bcz` imports `farey` and `geometry`, and `stats` imports `farey`, so
a command that never reads a layer never compiles it: `orbit` loads `farey`
alone, `constants` and `tables` skip `stats`, and `converge partial` and
`identities` skip `bcz` and `geometry`.
"""

__version__ = "0.1.0"

# the public names of each layer; `__all__` is these and the layers themselves
_LAYERS = {
    "geometry": ("ConvexPolygon", "EMPTY_POLYGON", "GeometryError", "Point2", "UnimodularMap",
                 "apply_map", "clip_convex", "polygon_area"),
    "farey": ("seek", "totient_summatory"),
    "bcz": ("FAREY_TRIANGLE", "OrbitState", "PolygonSet", "PowerMomentConstant",
            "TailCertificateError", "autocorrelation_constant", "b_alpha", "bcz_apply",
            "intersection_area_table", "lower_frequency", "orbit", "push_forward",
            "region_polygon", "region_star_polygon", "star_intersection_area",
            "upper_frequency", "upper_lower_triangles"),
    "stats": ("StatRecord", "autocorr_records", "autocorr_sum", "autocorr_sums",
              "autocorr_sum_interval", "hall_shiu_identity", "lu_count_table", "lu_counts",
              "lu_table_records", "moment_records", "partial_index_sum", "partial_index_sums",
              "partial_records", "sum_index", "sum_index_power", "visible_points_count"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted([*_LAYERS, *_LAYER_OF])


def __getattr__(name: str):
    layer = name if name in _LAYERS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which `-X importtime` reports, binds
    # the layer here as a submodule; a name is bound on first read
    __import__(f"{__name__}.{layer}")
    module = globals()[layer]
    if name == layer:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})

"""Reeb graphs of PL scalar fields, metric distortion, and the
closed-form bounds controlling both."""

from .complexes import (ScalarField, SimplicialComplex, analytic_field,
                        betti_numbers, contours_at, euler_characteristic,
                        height_field, load_complex, load_field, save_complex,
                        save_field)
from .metric import (BoundReport, MorseBoundParams, bound_ratio,
                     composed_intermediate_bound, distance_function_bound,
                     distortion, gh_delta_bounds, intermediate_bounds,
                     max_contour_diameter, morse_bound_B, thickness)
from .reeb import QuotientMap, ReebGraph, build_reeb, isomorphic, reeb_oracle
from .spaces import (Base, ConnSum, InvariantRecord, Product,
                     UnionSimplyConnectedIntersection, Wedge, base_table,
                     chain_check, evaluate, h_bounds, parse_space)
from .width import (GlobalGeometry, LocalGeometry, convexity_radius_bound,
                    disk_contour_verify, hemisphere_width_verify,
                    reeb_width_global, reeb_width_local, simplified_bounds,
                    sphere_chord, urysohn_volume_lower)

__version__ = "0.1.0"

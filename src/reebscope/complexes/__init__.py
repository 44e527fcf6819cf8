from .simplicial import (NonGenericLevelError, ScalarField, SimplicialComplex,
                         analytic_field, height_field)
from .homology import betti_numbers, euler_characteristic
from .geodesic import diameter, single_source, vertex_distances
from .contours import Contour, ContourSet, contours_at
from .levelscan import GapView, LevelScan, select_gaps
from .generators import (GeneratedSpace, circle_mesh, disk_mesh,
                         distance_field, flat_torus_mesh, generate_space,
                         genus_mesh, hemisphere_mesh, path_mesh,
                         random_smooth_field, theta_mesh, three_arc_mesh,
                         torus_mesh, tripod_field, uv_sphere_mesh,
                         wedge_circles_mesh)
from .io import load_complex, load_field, save_complex, save_field

__all__ = [
    "Contour", "ContourSet", "GapView", "GeneratedSpace", "LevelScan",
    "NonGenericLevelError", "ScalarField", "SimplicialComplex",
    "analytic_field", "betti_numbers", "circle_mesh", "contours_at",
    "diameter",
    "disk_mesh", "distance_field", "euler_characteristic", "flat_torus_mesh",
    "generate_space", "genus_mesh", "height_field", "hemisphere_mesh",
    "load_complex", "load_field", "path_mesh", "random_smooth_field",
    "save_complex", "save_field", "select_gaps", "single_source",
    "theta_mesh", "three_arc_mesh", "torus_mesh", "tripod_field",
    "uv_sphere_mesh", "vertex_distances", "wedge_circles_mesh",
]

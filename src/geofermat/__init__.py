"""Geodesics, weighted Fermat-Torricelli trees, and Clairaut constants on
surfaces of revolution."""

__version__ = "0.1.0"

from .clairaut import (BranchConstants, ClairautReport, DiameterCheck,
                       PredictedConstants, RotationExperiment, SineRatioProbe,
                       branch_report, law_of_sines_diameter,
                       predict_clairaut_constants, rotate_tree_experiment,
                       sphere_sine_ratio_probe, triangle_cosine)
from .connect import (ConnectOptions, connect_geodesic, connect_geodesics,
                      distance)
from .errors import (ChartExitError, DegenerateTreeError, OffChartError,
                     ProfileError, ScenarioError, SolveError,
                     UndefinedRatioError, WeightDomainError)
from .fermat import (FermatOptions, FermatResult, FloatingTest, WeightTriple,
                     floating_test, measure_sector_angles,
                     sector_angles_from_weights, sector_partition,
                     solve_fermat, weights_from_sector_angles)
from .geodesics import (GeodesicPath, clairaut_constant, shoot,
                        write_path_csv)
from .scenario import Scenario, load_scenario
from .surfaces import ProfileSurface, SurfacePoint, make_surface

__all__ = [
    "__version__",
    "BranchConstants", "ClairautReport", "DiameterCheck",
    "PredictedConstants", "RotationExperiment", "SineRatioProbe",
    "branch_report", "law_of_sines_diameter", "predict_clairaut_constants",
    "rotate_tree_experiment", "sphere_sine_ratio_probe", "triangle_cosine",
    "ConnectOptions", "connect_geodesic", "connect_geodesics", "distance",
    "ChartExitError", "DegenerateTreeError", "OffChartError", "ProfileError",
    "ScenarioError", "SolveError", "UndefinedRatioError", "WeightDomainError",
    "FermatOptions", "FermatResult", "FloatingTest", "WeightTriple",
    "floating_test", "measure_sector_angles", "sector_angles_from_weights",
    "sector_partition", "solve_fermat", "weights_from_sector_angles",
    "GeodesicPath", "clairaut_constant", "shoot", "write_path_csv",
    "Scenario", "load_scenario",
    "ProfileSurface", "SurfacePoint", "make_surface",
]

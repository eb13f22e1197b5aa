"""Flexible cylindrical array modeling and placement optimization.

Stacked rings of revolving antennas serve multiple single-antenna users
through regularized zero-forcing precoding. Ring heights and per-element
angles are chosen by greedy sparse selection over a candidate-position
dictionary, either jointly or by alternating angle and height phases, and a
Monte Carlo harness compares both against a uniform cylindrical baseline.
"""

__version__ = "0.1.0"

from .alternating import optimize_angles, optimize_heights, solve_alternating
from .channel import (Dictionary, Paths, build_joint_dictionary, draw_paths,
                      export_paths, synthesize_channel)
from .geometry import (SPEED_OF_LIGHT, FclaConfig, PositionGrid, build_grid,
                       check_spacing, min_revolve_angle)
from .harness import (ExperimentSpec, SweepRow, run_sweep, run_trial,
                      ucla_baseline, ucla_config, ucla_placement, ucla_radius,
                      write_manifest, write_results_csv)
from .joint import solve_joint
from .oracle import OracleResult, exhaustive_best
from .pattern import PatternSpec, power_gain
from .precoding import (GreedyState, RateReport, SingularMatrixError,
                        normalize_columns, rzf, rzf_objective, sinr)
from .solution import PlacementBatch, PlacementSolution

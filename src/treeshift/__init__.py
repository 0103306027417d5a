"""Effort-allocation feature shifts for binary-split tree ensembles."""

__version__ = "0.1.0"

from .forest import (BINARY, CONTINUOUS, DEFAULT_EPSILON, DegenerateBoxError,
                     FeatureMeta, Forest, ForestFormatError, Leaf, Node, Tree,
                     boxes_intersect, forest_from_dict, forest_to_dict,
                     leaf_box, leaf_of, load_forest, save_forest)
from .data import ColumnSpec, Dataset, DatasetSchema, load_csv, split, synth_generate
from .train import TrainConfig, TrainingError, accuracy, impurity_importances, train
from .probability import (FeaturePerturbation, NodeProbabilityTable,
                          PerturbationSpec, TableFormatError,
                          estimate_node_probabilities, load_table, save_table)
from .solver import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH,
                     ProblemInstance, Solution, SolverConfig, Verdict,
                     brute_force_oracle, choose_point,
                     enumerate_effort_allocations, evaluate_allocation,
                     majority_threshold, objectives_close, path_probability,
                     solve, solve_kappa_path, solve_max_path, solve_min_distance,
                     solve_min_path, verify_solution)
from .ranking import Ranking, effort_ranking, load_ranking_csv, rfr_ranking, rsr_ranking
from .cohort import SimReport, SimulationResult, feasible_baseline, simulate_cohort

"""Korevaar-Schoen p-energies of metric-space-valued maps.

Two independent routes to the same number: the limiting ball-average
construction (``ks_energy``) and the directional-derivative representation
(``rep_energies``), plus the quadrature, dense-anchor, and oracle machinery
they share.
"""

from .config import EnergyConfig
from .directional import (
    DirectionalField,
    check_increment_bound,
    directional_derivative,
    directional_field,
    directional_vector,
    rep_energies,
)
from .grid import DomainGrid, build_grid
from .ks import ks_energy
from .maps import MetricMap, make_map
from .oracles import linear_euclidean_density, maxnorm_counterexample_constants
from .pipeline import Problem, run_compare, run_convergence, run_counterexample, run_ks, run_oracle, run_rep
from .quadrature import (
    QuadratureRule,
    ball_nodes,
    energy_normalization,
    sphere_nodes,
    unit_ball_volume,
)
from .spaces import MetricSpace, make_space, verify_metric_axioms

__version__ = "0.1.0"

__all__ = [
    "DirectionalField",
    "DomainGrid",
    "EnergyConfig",
    "MetricMap",
    "MetricSpace",
    "Problem",
    "QuadratureRule",
    "ball_nodes",
    "build_grid",
    "check_increment_bound",
    "directional_derivative",
    "directional_field",
    "directional_vector",
    "energy_normalization",
    "ks_energy",
    "linear_euclidean_density",
    "make_map",
    "make_space",
    "maxnorm_counterexample_constants",
    "rep_energies",
    "run_compare",
    "run_convergence",
    "run_counterexample",
    "run_ks",
    "run_oracle",
    "run_rep",
    "sphere_nodes",
    "unit_ball_volume",
    "verify_metric_axioms",
]

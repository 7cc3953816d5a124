"""Driven Dicke quantum-battery simulator.

N two-level atoms with distance-dependent flip-flop couplings in a driven,
truncated single-mode cavity: charging trajectories, power-law scaling fits
over the atom number, and the ground-state magnetization phase diagram.
"""

from dickeqb.analysis import (
    FitResult,
    MaxRecord,
    convergence_check,
    find_max,
    fit_linear,
    fit_power_law,
)
from dickeqb.dynamics import (
    PropagationConfig,
    Trajectory,
    oracle_propagate,
    propagate,
)
from dickeqb.model import ModelParams, dipole_coupling, initial_state
from dickeqb.observables import (
    GroundStateResult,
    JzMoments,
    charging_power,
    energy_fluctuation,
    ground_state,
    jz_moments,
    magnetization,
    stored_energy,
)
from dickeqb.operators import HilbertDims, StateVector

__version__ = "0.1.0"

__all__ = [
    "FitResult",
    "GroundStateResult",
    "HilbertDims",
    "JzMoments",
    "MaxRecord",
    "ModelParams",
    "PropagationConfig",
    "StateVector",
    "Trajectory",
    "charging_power",
    "convergence_check",
    "dipole_coupling",
    "energy_fluctuation",
    "find_max",
    "fit_linear",
    "fit_power_law",
    "ground_state",
    "initial_state",
    "jz_moments",
    "magnetization",
    "oracle_propagate",
    "propagate",
    "stored_energy",
]

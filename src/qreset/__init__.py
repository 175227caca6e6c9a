"""Exact stationary states and correlation measures for closed quantum
systems under Poissonian resetting, with the two-spin transverse-field
Ising model solved in closed form and a stochastic-trajectory validator.
"""

from .cmatrix import (
    HermitianEigensystem,
    as_cmatrix,
    as_density_matrix,
    hermitian_eig,
    psd_sqrt,
)
from .observables import (
    ConcurrenceValue,
    concurrence,
    concurrence_pure,
    fidelity,
    fidelity_pure,
    purity,
    spin_flip,
    von_neumann_entropy,
)
from .reset_core import (
    QuantumSystem,
    ResetSpec,
    SubsystemSplit,
    ness_density,
    partial_trace,
    reset_density,
    unitary_evolve,
)
from .serialize import (
    load_matrix,
    load_quantum_system,
    save_matrix,
    write_table,
)
from .sweep import (
    CriticalPoint,
    OptimizeResult,
    SweepGrid,
    find_entropy_peak_rate,
    find_inflection,
    mc_validate,
    optimize_concurrence,
    sweep_records,
    timeseries,
)
from .trajectories import (
    TrajectoryConfig,
    TrajectoryEstimate,
    estimate_density,
    evolve_trajectory,
    sample_reset_times,
)
from .twospin import (
    TwoSpinParams,
    concurrence_ness,
    entropy_at_time,
    entropy_ness,
    entropy_ness_alpha_derivatives,
    entropy_zero_reset,
    fidelity_ness,
    hamiltonian,
    quantum_system,
    reduced_state_array,
    scaling_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Effective-model-space solvers and a Hamiltonian-learning VQE pipeline for
the two-level pairing (quasi-spin) model."""

from .driver import (
    HlvqeOptions,
    IterationRecord,
    RunSummary,
    cost_and_grads,
    excited_hamiltonian,
    excited_state_run,
    run,
    summarize,
)
from .errors import ConfigError, HlvqeError, NumericalError, ProjectionError
from .model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
    build_full_hamiltonian,
    exact_ground_state,
)
from .pauli import (
    PauliDecomposition,
    PauliString,
    decompose,
    hamiltonian_decomposition,
    reassemble,
)
from .qsim import (
    AnalyticBackend,
    ExpectationEstimate,
    SampledBackend,
    StateVector,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from .rotations import (
    EffectiveState,
    FullState,
    bures_distance,
    project_parity,
    reconstruct_full,
    wigner_d_matrix,
)
from .solver import (
    ConvergenceRow,
    EffectiveSolution,
    hf_beta,
    solve_effective,
    sweep_lambda,
    sweep_vbar,
)

__version__ = "0.1.0"

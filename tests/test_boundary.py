"""One table of bad numbers and backends at every public entry that reads one.

Each row must raise a ConfigError: never a silent reading (True as 1,
"0.3" as 0.3, a string as a backend) and never a raw TypeError, ValueError
or AttributeError from deeper in the call.
"""

import numpy as np
import pytest

from hlvqe.driver import HlvqeOptions, cost_and_grads, excited_hamiltonian
from hlvqe.errors import ConfigError
from hlvqe.model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
)
from hlvqe.pauli import PauliString, decompose
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from hlvqe.rotations import wigner_d_matrix

P = ModelParams.create(30, 1.0, vbar=2.0)
STATE = prepare_ansatz([0.3], 1)
NUMBERS = [True, np.True_, "0.3", "abc", 0.3 + 0j]
BOOLEANS = NUMBERS[:2]
BACKENDS = ["analytic", None]
# three angles each: a boolean among floats, which NumPy would read as 1.0,
# and a ragged list, which NumPy cannot read as an array
SEQUENCES = [[True, 0.1, 0.2], (0.1, np.True_, 0.2), [[0.1], [0.2, 0.3]]]


def _rows(name, call, values):
    return [pytest.param(call, value, id=f"{name}-{value!r}") for value in values]


ROWS = [
    # theta through qsim._angles, a backend through qsim._backend, beta
    # through model._trig, a matrix through decompose's dtype check
    *_rows("prepare_ansatz", lambda v: prepare_ansatz(v, 1), NUMBERS),
    *_rows("cost_and_grads-theta", lambda v: cost_and_grads(P, 2, 0.2, v, AnalyticBackend()),
           NUMBERS),
    *_rows("cost_and_grads-beta", lambda v: cost_and_grads(P, 2, v, [0.1], AnalyticBackend()),
           BOOLEANS),
    *_rows("cost_and_grads-backend", lambda v: cost_and_grads(P, 2, 0.2, [0.1], v), BACKENDS),
    *_rows("parameter_shift_grad-theta",
           lambda v: parameter_shift_grad(v, 0, PauliString("Z"), AnalyticBackend()), NUMBERS),
    *_rows("prepare_ansatz-sequence", lambda v: prepare_ansatz(v, 2), SEQUENCES),
    *_rows("cost_and_grads-theta-sequence",
           lambda v: cost_and_grads(P, 4, 0.2, v, AnalyticBackend()), SEQUENCES),
    *_rows("parameter_shift_grad-theta-sequence",
           lambda v: parameter_shift_grad(v, 0, PauliString("ZZ"), AnalyticBackend()), SEQUENCES),
    *_rows("HlvqeOptions-init_theta-sequence", lambda v: HlvqeOptions(init_theta=v), SEQUENCES),
    *_rows("parameter_shift_grad-backend",
           lambda v: parameter_shift_grad([0.1], 0, PauliString("Z"), v), BACKENDS),
    *_rows("measure_pauli-Z", lambda v: measure_pauli(STATE, PauliString("Z"), v), BACKENDS),
    *_rows("measure_pauli-I", lambda v: measure_pauli(STATE, PauliString("I"), v), BACKENDS),
    *_rows("build_effective_hamiltonian", lambda v: build_effective_hamiltonian(P, v, 4),
           BOOLEANS),
    *_rows("build_effective_hamiltonian_dbeta",
           lambda v: build_effective_hamiltonian_dbeta(P, v, 4), BOOLEANS),
    # boolean, string and (from None) object matrices; a complex Hermitian
    # one, such as the full 0.3+0j matrix, stays accepted
    *_rows("decompose", lambda v: decompose(np.full((2, 2), v)), [*NUMBERS[:4], None]),
    # entries that already read by the shared rule, pinned so they stay with it
    *_rows("HlvqeOptions-init_theta", lambda v: HlvqeOptions(init_theta=v), NUMBERS),
    *_rows("HlvqeOptions-init_beta", lambda v: HlvqeOptions(init_beta=v), NUMBERS),
    *_rows("HlvqeOptions-learning_rate", lambda v: HlvqeOptions(learning_rate=v), NUMBERS),
    *_rows("HlvqeOptions-max_iterations", lambda v: HlvqeOptions(max_iterations=v), NUMBERS),
    *_rows("HlvqeOptions-backend", lambda v: HlvqeOptions(backend=v), BACKENDS),
    *_rows("ModelParams.create-n", lambda v: ModelParams.create(v, 1.0, vbar=2.0), NUMBERS),
    *_rows("ModelParams.create-epsilon", lambda v: ModelParams.create(30, v, vbar=2.0), NUMBERS),
    *_rows("ModelParams.create-vbar", lambda v: ModelParams.create(30, 1.0, vbar=v), NUMBERS),
    *_rows("ModelParams.create-v", lambda v: ModelParams.create(30, 1.0, coupling=v), NUMBERS),
    *_rows("wigner_d_matrix-j", lambda v: wigner_d_matrix(v, 0.3), NUMBERS),
    *_rows("wigner_d_matrix-beta", lambda v: wigner_d_matrix(1.0, v), NUMBERS),
    *_rows("excited_hamiltonian-mu0",
           lambda v: excited_hamiltonian(np.eye(2), STATE, v), NUMBERS),
    *_rows("SampledBackend-shots", lambda v: SampledBackend(v, 1), NUMBERS),
    *_rows("SampledBackend-seed", lambda v: SampledBackend(100, v), NUMBERS),
]


@pytest.mark.parametrize("call, value", ROWS)
def test_bad_number_or_backend_is_a_config_error(call, value):
    with pytest.raises(ConfigError):
        call(value)

"""One table of bad numbers and backends at every public entry that reads one.

Each row must raise a ConfigError: never a silent reading (True as 1,
"0.3" as 0.3, a string as a backend) and never a raw TypeError, ValueError
or AttributeError from deeper in the call.  Below the table, the scalar
reader's Python-float path is checked against the array rule it replaced.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hlvqe.driver import HlvqeOptions, cost_and_grads, excited_hamiltonian, excited_state_run
from hlvqe.errors import ConfigError, _finite, _real
from hlvqe.model import (
    ModelParams,
    build_effective_hamiltonian,
    build_effective_hamiltonian_dbeta,
)
from hlvqe.pauli import PauliString, decompose
from hlvqe.qsim import (
    AnalyticBackend,
    SampledBackend,
    StateVector,
    measure_pauli,
    parameter_shift_grad,
    prepare_ansatz,
)
from hlvqe.rotations import EffectiveState, FullState, wigner_d_matrix
from hlvqe.solver import sweep_vbar

P = ModelParams.create(30, 1.0, vbar=2.0)
STATE = prepare_ansatz([0.3], 1)
ONE_STEP = HlvqeOptions(max_iterations=1)
NUMBERS = [True, np.True_, "0.3", "abc", 0.3 + 0j]
BOOLEANS = NUMBERS[:2]
BACKENDS = ["analytic", None]
# three angles each: a boolean among floats, which NumPy would read as 1.0,
# and a ragged list, which NumPy cannot read as an array
SEQUENCES = [[True, 0.1, 0.2], (0.1, np.True_, 0.2), [[0.1], [0.2, 0.3]]]
# the same three shapes as two amplitudes, which a boolean read as 1.0 would
# make a unit vector of the right size
AMPLITUDES = [[True, 0.0], (np.True_, 0.0), [[1.0, 0.0], [0.0]]]
# the valid number 1.0 held in a sequence or a 1-d array, at a scalar entry
NON_SCALARS = [[1.0], (1.0, 2.0), np.array([1.0])]


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
    # amplitudes through errors._unit_amplitudes
    *_rows("StateVector-amplitudes", lambda v: StateVector(1, v), AMPLITUDES),
    *_rows("EffectiveState-amplitudes", lambda v: EffectiveState(2, 0.0, v), AMPLITUDES),
    *_rows("FullState-amplitudes", lambda v: FullState(1, v), AMPLITUDES),
    # beta through errors._finite when the state is made, not first in a
    # later reconstruct_full
    *_rows("EffectiveState-beta", lambda v: EffectiveState(2, v, [1.0, 0.0]),
           ["x", [0.1], np.array([0.1]), True, math.nan, math.inf]),
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
    # one number where one is meant, through errors._finite (model._trig for
    # the beta of H(beta), which rejected all three already)
    *_rows("ModelParams-epsilon-scalar", lambda v: ModelParams(30, v, 0.1), NON_SCALARS),
    *_rows("ModelParams-coupling-scalar", lambda v: ModelParams(30, 1.0, v), NON_SCALARS),
    *_rows("ModelParams.create-epsilon-scalar", lambda v: ModelParams.create(30, v, vbar=2.0),
           NON_SCALARS),
    *_rows("ModelParams.create-vbar-scalar", lambda v: ModelParams.create(30, 1.0, vbar=v),
           NON_SCALARS),
    *_rows("ModelParams.create-v-scalar", lambda v: ModelParams.create(30, 1.0, coupling=v),
           NON_SCALARS),
    *_rows("HlvqeOptions-learning_rate-scalar", lambda v: HlvqeOptions(learning_rate=v),
           NON_SCALARS),
    *_rows("HlvqeOptions-init_beta-scalar", lambda v: HlvqeOptions(init_beta=v), NON_SCALARS),
    *_rows("wigner_d_matrix-j-scalar", lambda v: wigner_d_matrix(v, 0.3), NON_SCALARS),
    *_rows("wigner_d_matrix-beta-scalar", lambda v: wigner_d_matrix(1.0, v), NON_SCALARS),
    *_rows("excited_hamiltonian-mu0-scalar",
           lambda v: excited_hamiltonian(np.eye(2), STATE, v), NON_SCALARS),
    *_rows("excited_state_run-mu0-scalar",
           lambda v: excited_state_run(P, 2, v, ONE_STEP, STATE, 0.2), NON_SCALARS),
    *_rows("excited_state_run-beta0-scalar",
           lambda v: excited_state_run(P, 2, 10.0, ONE_STEP, STATE, v), NON_SCALARS),
    *_rows("sweep_vbar-vbar-scalar", lambda v: sweep_vbar(P, 4, [v]), NON_SCALARS),
    *_rows("cost_and_grads-beta-scalar",
           lambda v: cost_and_grads(P, 2, v, [0.1], AnalyticBackend()), NON_SCALARS),
    *_rows("build_effective_hamiltonian-scalar", lambda v: build_effective_hamiltonian(P, v, 4),
           NON_SCALARS),
    *_rows("build_effective_hamiltonian_dbeta-scalar",
           lambda v: build_effective_hamiltonian_dbeta(P, v, 4), NON_SCALARS),
]


@pytest.mark.parametrize("call, value", ROWS)
def test_bad_number_or_backend_is_a_config_error(call, value):
    with pytest.raises(ConfigError):
        call(value)


def _array_rule(name, value):
    """The scalar reader as every input took it before a Python float was read
    by ``math.isfinite``: ``errors._real`` and ``np.isfinite``, one value."""
    arr = _real(value)
    if arr is None or arr.ndim or not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite and real, one number, got {value!r}")
    return value


def _outcome(reader, value):
    """("ok", whether the reader returned ``value`` itself) or ("error", message)."""
    try:
        return "ok", reader("x", value) is value
    except ConfigError as exc:
        return "error", str(exc)


# numbers that are not Python floats, which both paths read by the array rule
NOT_FLOATS = [True, np.True_, np.float64(0.3), np.float64(math.nan), np.float32(0.3),
              np.float32(math.inf), 7, 10 ** 400, 0.3 + 0j, "0.3", np.array(0.3),
              np.array(math.inf)]


class TestScalarReader:
    """``errors._finite``'s Python-float path against the array rule it
    replaced for floats, kept here as the oracle."""

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(-0.0)
    @example(5e-324)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_float_path_agrees_with_array_rule(self, value):
        assert _outcome(_finite, value) == _outcome(_array_rule, value)

    @pytest.mark.parametrize("value", NOT_FLOATS, ids=repr)
    def test_other_numbers_agree_with_array_rule(self, value):
        assert _outcome(_finite, value) == _outcome(_array_rule, value)

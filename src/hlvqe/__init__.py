"""Effective-model-space solvers and a Hamiltonian-learning VQE pipeline for
the two-level pairing (quasi-spin) model."""

from .errors import *
from .model import *
from .rotations import *
from .solver import *
from .pauli import *
from .qsim import *
from .driver import *

__version__ = "0.1.0"

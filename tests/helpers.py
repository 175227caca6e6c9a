"""Helpers that several test modules share: random states, the two-spin
system and its closed-form reduced state, and two-spin basis vectors.

Not a test module, so pytest does not collect it; the test modules import
it by name from this directory.
"""

import numpy as np

from qreset.reset_core import SubsystemSplit
from qreset.twospin import TwoSpinParams, quantum_system, reduced_state_array

SPLIT = SubsystemSplit(2, 2)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
DOWN_DOWN = np.kron(DOWN, DOWN)
BELL = (np.kron(UP, UP) + DOWN_DOWN) / np.sqrt(2.0)


def random_pure(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def params(R, alpha):
    return TwoSpinParams.from_dimensionless(R, alpha)


def two_spin_system(R=1.0, alpha=1.0):
    return quantum_system(params(R, alpha))


def reduced_matrix(t, p):
    # [[up, c], [c*, 1 - up]] of the two-spin transient closed form at
    # rescaled time t
    up, c = (x.item() for x in reduced_state_array(np.array(t), np.array(p.R), np.array(p.alpha)))
    return np.array([[up, c], [np.conj(c), 1.0 - up]])

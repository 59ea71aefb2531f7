"""Time-dependent couplings and Hamiltonians in the rotating frame.

Couplings are Gaussian in the dimensionless time tau = t / (2 sigma):
atom 1 carries eta1 = g0 exp(-(tau + delta)^2) and atom 2 carries
eta2 = eps g0 exp(-(tau - delta)^2), so atom 1 meets the mode first.  The
rotating-frame Hamiltonian is

    H(t) = detuning * sum_j sigma+_j sigma-_j
           + sum_j eta_j(t) (a^dag sigma-_j + a sigma+_j),

which conserves the total excitation number and is block-diagonal over the
fixed-excitation bases of :mod:`cavitypair.model`.  Within the block of
``n_exc`` excitations (base photon index n = n_exc - 2, state order
|n,ee>, |n+1,ge>, |n+1,eg>, |n+2,gg>) the block Hamiltonian used throughout
the adiabatic analysis carries the diagonal (detuning, 0, 0, -detuning) and
off-diagonal elements eta1 sqrt(n+1), eta2 sqrt(n+1) from |n,ee> and
eta2 sqrt(n+2), eta1 sqrt(n+2) into |n+2,gg>.  The block and full-space
diagonal conventions differ by a multiple of the identity, which no
population, fidelity, or relative phase can see; the block restriction of
the full operator equals block + detuning * I for every block with at least
one excitation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import FullBasis, ManifoldBasis, SystemParams

__all__ = [
    "CouplingPair",
    "coupling_pair",
    "coupling_arrays",
    "manifold_hamiltonian",
    "full_hamiltonian",
    "manifold_parts",
    "full_parts",
]

# exp(-50) ~ 2e-22 is already far below double-precision resolution of any
# accumulated phase; clamping avoids spurious subnormals in the far tails.
_EXPONENT_CUTOFF = 50.0


class CouplingPair(NamedTuple):
    eta1: float
    eta2: float


def _gauss(x: float) -> float:
    x2 = x * x
    if x2 > _EXPONENT_CUTOFF:
        return 0.0
    return math.exp(-x2)


def coupling_pair(t: float, params: SystemParams) -> CouplingPair:
    """Both couplings at time t."""
    tau = params.tau(t)
    return CouplingPair(
        eta1=params.g1 * _gauss(tau + params.delta),
        eta2=params.g2 * _gauss(tau - params.delta),
    )


def coupling_arrays(t: np.ndarray, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Both couplings on an array of times, with the same far-tail cutoff."""
    tau = params.tau(np.asarray(t))
    z1, z2 = (tau + params.delta) ** 2, (tau - params.delta) ** 2
    return (params.g1 * np.exp(-z1) * (z1 <= _EXPONENT_CUTOFF),
            params.g2 * np.exp(-z2) * (z2 <= _EXPONENT_CUTOFF))


@lru_cache(maxsize=None)
def manifold_parts(basis: ManifoldBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant structure of one block: (X1, X2, D) with H = eta1 X1 + eta2 X2 + detuning D."""
    dim = basis.dim
    x1 = np.zeros((dim, dim))
    x2 = np.zeros((dim, dim))
    d = np.zeros((dim, dim))
    n = basis.n
    if dim == 4:
        r1 = math.sqrt(n + 1)
        r2 = math.sqrt(n + 2)
        x1[1, 0] = x1[0, 1] = r1
        x2[2, 0] = x2[0, 2] = r1
        x2[3, 1] = x2[1, 3] = r2
        x1[3, 2] = x1[2, 3] = r2
        np.fill_diagonal(d, (1.0, 0.0, 0.0, -1.0))
    elif dim == 3:
        # One excitation: states |0,ge>, |0,eg>, |1,gg>.
        x2[2, 0] = x2[0, 2] = 1.0
        x1[2, 1] = x1[1, 2] = 1.0
        np.fill_diagonal(d, (0.0, 0.0, -1.0))
    # The vacuum block is pinned to zero energy.
    return x1, x2, d


def manifold_hamiltonian(t: float, params: SystemParams,
                         basis: ManifoldBasis) -> np.ndarray:
    """Block Hamiltonian of one fixed-excitation manifold at time t."""
    eta1, eta2 = coupling_pair(t, params)
    x1, x2, d = manifold_parts(basis)
    return eta1 * x1 + eta2 * x2 + params.detuning * d


@lru_cache(maxsize=None)
def full_parts(basis: FullBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant structure of the full space: (X1, X2, D, a).

    H = eta1 X1 + eta2 X2 + detuning D, with X_j = a^dag sigma-_j + h.c.,
    D = sum_j sigma+_j sigma-_j, and a the photon annihilation operator.
    """
    size = basis.size
    a = np.zeros((size, size))
    s1m = np.zeros((size, size))
    s2m = np.zeros((size, size))
    d = np.zeros((size, size))
    for label in basis.labels:
        m, st1, st2 = label
        i = basis.index(label)
        d[i, i] = (st1 == "e") + (st2 == "e")
        if m >= 1:
            a[basis.index((m - 1, st1, st2)), i] = math.sqrt(m)
        if st1 == "e":
            s1m[basis.index((m, "g", st2)), i] = 1.0
        if st2 == "e":
            s2m[basis.index((m, st1, "g")), i] = 1.0
    x1 = a.T @ s1m
    x1 = x1 + x1.T
    x2 = a.T @ s2m
    x2 = x2 + x2.T
    return x1, x2, d, a


def full_hamiltonian(t: float, params: SystemParams,
                     basis: FullBasis) -> np.ndarray:
    """Full photon-truncated Hamiltonian at time t."""
    eta1, eta2 = coupling_pair(t, params)
    x1, x2, d, _ = full_parts(basis)
    return eta1 * x1 + eta2 * x2 + params.detuning * d

"""Asymptotic transit maps and state diagnostics.

A full transit acts on each fixed-excitation block as a unitary map with a
rigid structure set by three phases.  On resonance with equal peak
couplings the doubly-excited state returns to itself, the first atom's
excitation hops to the second with a sign, and the remaining two states
rotate into each other by the top-branch area phi.  Unequal peak couplings
open the exact crossing of the inner branch pair into a rotation of the
doubly-excited sector by theta.  At large detuning the single-excitation
block reduces to an excitation swap, one direction clean and the other
dressed by the dispersive phase.

``scatter_matrix`` measures the map as the block's transit unitary;
``check_input_output`` compares it against the predicted table;
``check_crossing_phase`` audits the phase jump across the exact crossing
by following the adiabatic frame through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (PropagationError, propagate_schrodinger,
                       transit_unitary)
from .hamiltonian import manifold_parts
from .model import (
    BasisMismatchError,
    CavityPairError,
    DensityMatrix,
    FullBasis,
    Label,
    ManifoldBasis,
    PureState,
    SubsystemBasis,
    SystemParams,
    embed,
    manifold_basis,
)
from .spectrum import (
    MixingAngles,
    UnsupportedRegimeError,
    track_spectrum,
    wrap_angle,
)

__all__ = [
    "NonAdiabaticError",
    "ScatterMatrix",
    "RegimeReport",
    "REGIMES",
    "scatter_matrix",
    "predicted_scatter",
    "check_input_output",
    "check_crossing_phase",
    "fidelity",
    "populations",
    "reduced_state",
    "entanglement_entropy",
]

REGIMES = ("resonant-symmetric", "resonant-asymmetric", "large-detuning")

# Points of the grid on which check_crossing_phase tracks the crossing pair.
_CROSSING_GRID = 3001


class NonAdiabaticError(CavityPairError):
    """The transit left the followed adiabatic branch by more than allowed."""


@dataclass(frozen=True)
class ScatterMatrix:
    """Asymptotic transit map of one fixed-excitation block.

    Column j holds the final amplitudes of the transit started in basis
    state j at the opening of the window.
    """

    basis: ManifoldBasis
    matrix: np.ndarray
    unitarity_defect: float


def scatter_matrix(params: SystemParams, n_exc: int) -> ScatterMatrix:
    """Transit unitary of one block across the window."""
    if params.gamma != 0.0:
        raise UnsupportedRegimeError("the transit map is unitary; gamma must be 0")
    basis = manifold_basis(n_exc)
    s = transit_unitary(manifold_parts(basis), params)
    defect = float(np.max(np.abs(s.conj().T @ s - np.eye(basis.dim))))
    if defect > 1e-6:
        raise PropagationError(
            f"transit map unitarity defect {defect:.2e} exceeds 1e-6")
    return ScatterMatrix(basis=basis, matrix=s, unitarity_defect=defect)


def _predicted_block(regime: str, dim: int,
                     angles: MixingAngles) -> tuple[np.ndarray, np.ndarray]:
    """Predicted transit map and the mask of entries the regime constrains."""
    if regime == "large-detuning":
        if dim != 3:
            raise UnsupportedRegimeError(
                "the dispersive swap prediction covers the single-excitation block")
        if angles.big_theta is None:
            raise ValueError("large-detuning prediction needs the dispersive phase")
        pred = np.zeros((3, 3), dtype=complex)
        pred[1, 0] = -1.0
        pred[0, 1] = cmath.exp(-1j * angles.big_theta)
        mask = np.zeros((3, 3), dtype=bool)
        mask[:2, :2] = True
        return pred, mask

    theta = 0.0 if regime == "resonant-symmetric" else angles.theta
    c, s = math.cos(angles.phi), math.sin(angles.phi)
    ct, st = math.cos(theta), math.sin(theta)
    if dim == 1:
        return np.array([[1.0 + 0j]]), np.ones((1, 1), dtype=bool)
    if dim == 3:
        # rows / cols |0,ge>, |0,eg>, |1,gg>; the doubly-excited sector is
        # absent, so the block is theta-independent.
        pred = np.array([
            [0.0, c, -1j * s],
            [-1.0, 0.0, 0.0],
            [0.0, -1j * s, c],
        ], dtype=complex)
        return pred, np.ones((3, 3), dtype=bool)
    # rows / cols |n,ee>, |n+1,ge>, |n+1,eg>, |n+2,gg>
    pred = np.array([
        [ct, 1j * st, 0.0, 0.0],
        [0.0, 0.0, c, -1j * s],
        [-1j * st, -ct, 0.0, 0.0],
        [0.0, 0.0, -1j * s, c],
    ], dtype=complex)
    return pred, np.ones((4, 4), dtype=bool)


def predicted_scatter(regime: str, n: int, angles: MixingAngles) -> np.ndarray:
    """Predicted transit map of block with base photon index n (n >= -2)."""
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    dim = 4 if n >= 0 else (3 if n == -1 else 1)
    pred, _ = _predicted_block(regime, dim, angles)
    return pred


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of comparing a measured transit map to its predicted table."""

    regime: str
    residual: float
    sector_residuals: dict[str, float]
    measured_angle: float | None
    predicted: np.ndarray
    aligned: np.ndarray


def check_input_output(s: ScatterMatrix, angles: MixingAngles,
                       regime: str) -> RegimeReport:
    """Compare a measured transit map against the regime's predicted table.

    The measured map carries one free global phase; it is fixed by rotating
    the largest-magnitude measured entry (among entries the table predicts
    non-zero) onto the predicted phase.  The residual is the largest entry
    magnitude of the difference over the regime's constrained entries.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    mat = s.matrix
    pred, mask = _predicted_block(regime, mat.shape[0], angles)

    anchor_ok = mask & (np.abs(pred) > 1e-12)
    flat = np.where(anchor_ok.ravel(), np.abs(mat).ravel(), -1.0)
    ij = int(np.argmax(flat))
    i, j = divmod(ij, mat.shape[1])
    phase = cmath.phase(pred[i, j]) - cmath.phase(mat[i, j])
    aligned = mat * cmath.exp(1j * phase)
    residual = float(np.max(np.abs(aligned - pred)[mask]))

    sectors: dict[str, float] = {}
    measured_angle = None
    if regime == "large-detuning":
        # Relative phase of the two swap directions; global-phase free.
        measured_angle = -cmath.phase(mat[0, 1] * (-mat[1, 0]).conjugate())
        # The zero-energy branch fixes the ge column's phase absolutely.
        dark_col = np.array([0.0, -1.0, 0.0], dtype=complex)
        sectors["dark"] = float(np.max(np.abs(mat[:, 0] - dark_col)))
    elif mat.shape[0] == 4:
        exc = np.ix_((0, 2), (0, 1))
        gnd = np.ix_((1, 3), (2, 3))
        diff = np.abs(aligned - pred)
        sectors["excited"] = float(np.max(diff[exc]))
        sectors["ground"] = float(np.max(diff[gnd]))
    return RegimeReport(regime=regime, residual=residual,
                        sector_residuals=sectors,
                        measured_angle=measured_angle,
                        predicted=pred, aligned=aligned)


def check_crossing_phase(params: SystemParams, n: int) -> float:
    """Measure the phase jump across the exact inner-branch crossing.

    Prepares the lower member of the crossing pair at the window opening,
    propagates across the transit, and reads the phase of the overlap with
    the smoothly-continued branch at the far side, unwrapped with the
    branch's own dynamical phase.  The result equals minus the signed
    inner-branch area of :func:`cavitypair.spectrum.theta_angle` when the
    transit is adiabatic; leaving the crossing pair's subspace by more than
    1% raises :class:`NonAdiabaticError`.
    """
    if params.detuning != 0.0:
        raise UnsupportedRegimeError("the crossing-phase audit runs on resonance")
    if n < 0:
        raise ValueError("the crossing pair lives in the four-state block (n >= 0)")
    basis = manifold_basis(n + 2)
    grid = np.linspace(params.t_span[0], params.t_span[1], _CROSSING_GRID)
    curve = track_spectrum(params, basis, grid)

    # Sign-continue the two inner branches into a smooth real frame: each
    # step flips the sign where Re<f_{k-1}|f_k> < 0, so the far end carries
    # the product of those flips.
    pair = curve.vectors[:, :, 1:3]
    turns = np.real(np.sum(pair[:-1].conj() * pair[1:], axis=1))
    followed, partner = (pair[-1] * np.prod(np.where(turns < 0.0, -1.0, 1.0),
                                            axis=0)).T

    start = PureState(basis, pair[0, :, 0])
    final = propagate_schrodinger(start, params)
    c_followed = complex(np.vdot(followed, final.amplitudes))
    c_partner = complex(np.vdot(partner, final.amplitudes))
    leakage = 1.0 - abs(c_followed) ** 2 - abs(c_partner) ** 2
    if leakage > 0.01:
        raise NonAdiabaticError(
            f"{leakage:.3f} of the population left the crossing pair")

    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    dyn = float(trapezoid(curve.energies[:, 1], grid))
    return -dyn + wrap_angle(cmath.phase(c_followed) + dyn)


def fidelity(state: PureState | DensityMatrix, target: PureState) -> float:
    """Overlap magnitude |<target|state>| (root overlap for mixed states)."""
    if state.basis != target.basis:
        raise BasisMismatchError("state and target live on different bases")
    if isinstance(state, PureState):
        return abs(np.vdot(target.amplitudes, state.amplitudes))
    val = np.vdot(target.amplitudes, state.matrix @ target.amplitudes)
    return math.sqrt(max(float(val.real), 0.0))


def populations(state: PureState | DensityMatrix, labels) -> np.ndarray:
    """Populations of the given basis labels, in order."""
    if isinstance(state, PureState):
        return np.array([abs(state.amplitudes[state.basis.index(l)]) ** 2
                         for l in labels])
    return np.array([float(state.matrix[state.basis.index(l),
                                        state.basis.index(l)].real)
                     for l in labels])


_PARTS = ("cavity", "atom1", "atom2")


def _as_full_tensor(state: PureState | DensityMatrix) -> tuple[np.ndarray, int]:
    """Density tensor reshaped to (cavity, atom1, atom2) x 2, plus n_ph."""
    basis = state.basis
    if isinstance(basis, ManifoldBasis):
        n_max = max(label[0] for label in basis.labels)
        if isinstance(state, PureState):
            state = embed(state, FullBasis(n_max))
        else:
            full = FullBasis(n_max)
            mat = np.zeros((full.size, full.size), dtype=complex)
            idx = [full.index(l) for l in basis.labels]
            mat[np.ix_(idx, idx)] = state.matrix
            state = DensityMatrix(full, mat)
        basis = state.basis
    if not isinstance(basis, FullBasis):
        raise BasisMismatchError("reduction needs a cavity-and-atoms basis")
    n_ph = basis.n_max + 1
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix
    return rho.reshape(n_ph, 2, 2, n_ph, 2, 2), n_ph


def reduced_state(state: PureState | DensityMatrix, keep) -> DensityMatrix:
    """Partial trace keeping a subset of {"cavity", "atom1", "atom2"}."""
    if isinstance(keep, str):
        keep = (keep,)
    keep = tuple(k for k in _PARTS if k in keep)
    if not keep or any(k not in _PARTS for k in keep):
        raise ValueError(f"keep must name a non-empty subset of {_PARTS}")
    tensor, n_ph = _as_full_tensor(state)

    kept_axes = [_PARTS.index(k) for k in keep]
    traced = [i for i in range(3) if i not in kept_axes]
    for axis in reversed(traced):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    dim = int(round(math.sqrt(tensor.size)))
    rho = tensor.reshape(dim, dim)

    part_labels = {
        "cavity": tuple(range(n_ph)),
        "atom1": ("e", "g"),
        "atom2": ("e", "g"),
    }
    labels: tuple = ((),)
    for k in keep:
        labels = tuple(l + (x,) for l in labels for x in part_labels[k])
    return DensityMatrix(SubsystemBasis(keep=keep, labels=labels), rho)


def entanglement_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = eigs[eigs > 1e-12]
    return float(-np.sum(eigs * np.log2(eigs)))

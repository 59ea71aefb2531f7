"""Exact quantum propagation across one transit window.

Two independent routes are provided on purpose.  The production route
builds a loss-free transit block by block: the excitation number is
conserved, and :func:`transit_unitary` multiplies fixed fourth-order Magnus
steps at two Gauss points each (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
151 (2009)) into the unitary of one block of size 1, 3 or 4.  Each step is
an exact exponential of a Hermitian matrix, so no tolerance is needed.
Photon decay couples the blocks, so :func:`propagate_lindblad` hands the
Lindblad equation to DOP853, its step capped at sigma / 10 so it cannot
stride over the Gaussian pulses from the dead window edges.  The audit
route, :func:`oracle_propagate`, applies the exact exponential of the
generator frozen at each step midpoint of a finer fixed grid.  The routes
share no integration logic, so their agreement bounds the numerical error
of either.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .hamiltonian import (coupling_arrays, coupling_pair, full_parts,
                          manifold_parts)
from .model import (
    CavityPairError,
    DensityMatrix,
    FullBasis,
    ManifoldBasis,
    PureState,
    SystemParams,
)

__all__ = [
    "PropagationError",
    "WrongPropagatorError",
    "TruncationWarning",
    "transit_steps",
    "transit_unitary",
    "propagate_schrodinger",
    "propagate_lindblad",
    "oracle_propagate",
    "apply_phase_gate",
]

# Magnus steps are built and multiplied this many at a time, which bounds
# the memory of a transit whatever its step count.
_CHUNK = 256


class PropagationError(CavityPairError):
    """The integrator failed or missed its accuracy contract."""


class WrongPropagatorError(CavityPairError):
    """The requested propagator does not cover this parameter regime."""


class TruncationWarning(UserWarning):
    """Noticeable population reached the guard photon level."""


def _parts(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X1, X2, D) of either basis kind: H = eta1 X1 + eta2 X2 + detuning D."""
    if isinstance(basis, ManifoldBasis):
        return manifold_parts(basis)
    if isinstance(basis, FullBasis):
        return full_parts(basis)[:3]
    raise WrongPropagatorError(f"cannot propagate on basis {basis!r}")


def transit_steps(params: SystemParams,
                  parts: tuple[np.ndarray, np.ndarray, np.ndarray]) -> int:
    """Magnus steps for one excitation block across params.t_span.

    Per sigma, the largest of 200, 7 g sigma c and |detuning| sigma, with g
    the stronger peak coupling and c >= 1 the block's largest coupling
    element over the sqrt(2) of the two-excitation block, which keeps the
    step well inside the Magnus convergence radius in many-photon blocks.
    """
    c = max(1.0, np.abs(parts[:2]).max() / math.sqrt(2.0))
    per_sigma = max(200.0, 7.0 * max(params.g1, params.g2) * params.sigma * c,
                    abs(params.detuning) * params.sigma)
    t0, t1 = params.t_span
    return max(1, math.ceil((t1 - t0) / params.sigma * per_sigma))


def transit_unitary(parts: tuple[np.ndarray, np.ndarray, np.ndarray],
                    params: SystemParams,
                    n_steps: int | None = None) -> np.ndarray:
    """Transit unitary of one excitation block across params.t_span.

    ``parts`` is (X1, X2, D) with H = eta1 X1 + eta2 X2 + detuning D, as
    returned by :func:`manifold_parts` or cut from :func:`full_parts`.  Each
    of the ``n_steps`` equal steps h (default :func:`transit_steps`) applies
    exp(-i K), K = h/2 (H_a + H_b) + i sqrt(3) h^2 / 12 [H_a, H_b] at the
    Gauss points mid -/+ sqrt(3) h / 6, through a batched eigendecomposition.
    """
    x1, x2, d = parts
    n_steps = n_steps or transit_steps(params, parts)
    t0, t1 = params.t_span
    h = (t1 - t0) / n_steps
    offset = math.sqrt(3.0) / 6.0 * h
    static = params.detuning * d
    u = np.eye(x1.shape[0], dtype=complex)
    for first in range(0, n_steps, _CHUNK):
        mid = t0 + h * (np.arange(first, min(first + _CHUNK, n_steps)) + 0.5)
        ha, hb = [eta1[:, None, None] * x1 + eta2[:, None, None] * x2 + static
                  for eta1, eta2 in (coupling_arrays(mid - offset, params),
                                     coupling_arrays(mid + offset, params))]
        k = (0.5 * h * (ha + hb)
             + 1j * math.sqrt(3.0) / 12.0 * h * h * (ha @ hb - hb @ ha))
        w, v = np.linalg.eigh(k)
        steps = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        # pairwise products keep time order: later steps act on the left
        while len(steps) > 1:
            even = len(steps) - len(steps) % 2
            steps = np.concatenate((steps[1:even:2] @ steps[0:even:2],
                                    steps[even:]))
        u = steps[0] @ u
    return u


def _excitation_blocks(basis):
    """(indices, (X1, X2, D)) for each excitation block of a basis.

    The parts are principal submatrices of the basis's own parts, so on a
    FullBasis they keep its detuning * D convention and truncated top blocks.
    """
    parts = _parts(basis)
    by_exc: dict[int, list[int]] = {}
    for i, (m, s1, s2) in enumerate(basis.labels):
        by_exc.setdefault(m + (s1 == "e") + (s2 == "e"), []).append(i)
    return [(idx, tuple(op[np.ix_(idx, idx)] for op in parts))
            for idx in map(np.array, by_exc.values())]


def propagate_schrodinger(state: PureState, params: SystemParams) -> PureState:
    """Unitary propagation of a pure state across params.t_span.

    Requires gamma = 0.  Each excitation block the state populates is
    propagated by its transit unitary.  The final norm must stay within
    1e-9 of the initial one, but every Magnus step is exactly unitary, so
    accuracy rests on :func:`transit_steps`, not on that check.
    """
    if params.gamma != 0.0:
        raise WrongPropagatorError(
            "photon decay needs the Lindblad propagator")
    y0 = state.amplitudes
    norm0 = np.linalg.norm(y0)
    if norm0 == 0.0:
        raise ValueError("cannot propagate the zero vector")
    y = np.zeros(y0.shape, dtype=complex)
    for idx, parts in _excitation_blocks(state.basis):
        if np.any(y0[idx]):
            y[idx] = transit_unitary(parts, params) @ y0[idx]
    drift = abs(np.linalg.norm(y) - norm0)
    if drift > 1e-9 * norm0:
        raise PropagationError(f"norm drifted by {drift:.2e}")
    return PureState(state.basis, y)


def _lindblad_rhs_factory(basis: FullBasis, params: SystemParams):
    x1, x2, d, a = full_parts(basis)
    static = params.detuning * d
    n_op = a.T @ a
    gamma = params.gamma
    size = basis.size

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho = y.reshape(size, size)
        rho = 0.5 * (rho + rho.conj().T)  # damp anti-Hermitian round-off
        eta1, eta2 = coupling_pair(t, params)
        h = eta1 * x1 + eta2 * x2 + static
        drho = -1j * (h @ rho - rho @ h)
        if gamma != 0.0:
            drho += gamma * (a @ rho @ a.T
                             - 0.5 * (n_op @ rho + rho @ n_op))
        return drho.ravel()

    return rhs


def _check_guard_level(rho_diag: np.ndarray, basis: FullBasis) -> None:
    top = slice(4 * basis.n_max, 4 * basis.n_max + 4)
    guard = float(np.sum(rho_diag[top]).real)
    if guard > 1e-6:
        warnings.warn(
            f"population {guard:.2e} reached the top photon level "
            f"m={basis.n_max}; raise n_max", TruncationWarning, stacklevel=3)


def propagate_lindblad(rho: DensityMatrix, params: SystemParams) -> DensityMatrix:
    """Dissipative propagation of a density matrix across params.t_span.

    Cavity decay at rate gamma is the only loss channel.  The trace is
    checked (never rescaled) to 1e-8; Hermiticity is enforced by
    symmetrization.
    """
    if not isinstance(rho.basis, FullBasis):
        raise WrongPropagatorError(
            "photon decay couples excitation blocks; use a FullBasis state")
    rhs = _lindblad_rhs_factory(rho.basis, params)
    y0 = rho.matrix.astype(complex).ravel()
    trace0 = float(np.trace(rho.matrix).real)
    sol = solve_ivp(rhs, params.t_span, y0, method="DOP853",
                    rtol=1e-9, atol=1e-11, first_step=params.sigma / 100.0,
                    max_step=params.sigma / 10.0)
    if not sol.success:
        raise PropagationError(f"adaptive integrator failed: {sol.message}")
    out = sol.y[:, -1].reshape(rho.basis.size, rho.basis.size)
    out = 0.5 * (out + out.conj().T)
    drift = abs(np.trace(out).real - trace0)
    if drift > 1e-8 * max(1.0, abs(trace0)):
        raise PropagationError(f"trace drifted by {drift:.2e}")
    _check_guard_level(np.diag(out), rho.basis)
    return DensityMatrix(rho.basis, out)


def _liouvillian_pieces(basis: FullBasis, params: SystemParams):
    """(L1, L2, L0) with generator eta1 L1 + eta2 L2 + L0 on row-major rho.

    Uses vec(A rho B) = kron(A, B.T) vec(rho).
    """
    x1, x2, d, a = full_parts(basis)
    eye = np.eye(basis.size)

    def commutator(op: np.ndarray) -> np.ndarray:
        return -1j * (np.kron(op, eye) - np.kron(eye, op.T))

    n_op = a.T @ a
    l0 = params.detuning * commutator(d) + params.gamma * (
        np.kron(a, a.conj()) - 0.5 * np.kron(n_op, eye)
        - 0.5 * np.kron(eye, n_op.T))
    return commutator(x1), commutator(x2), l0


def oracle_propagate(state: PureState | DensityMatrix, params: SystemParams,
                     step: float | None = None):
    """Fixed-step midpoint-exponential propagation (the audit route).

    Each step applies the exact exponential of the generator frozen at the
    step midpoint.  The step may not exceed sigma / 200.  The generator is
    eta1 L1 + eta2 L2 + L0 with constant pieces, exponentiated in stacks of
    at most 2**21 matrix entries.
    """
    step = params.sigma / 200.0 if step is None else step
    if step <= 0:
        raise ValueError("step must be positive")
    if step > params.sigma / 200.0:
        raise ValueError("oracle step must not exceed sigma / 200")
    t0, t1 = params.t_span
    if t1 == t0:
        return state

    n_steps = max(1, math.ceil((t1 - t0) / step))
    dt = (t1 - t0) / n_steps

    if isinstance(state, PureState):
        if params.gamma != 0.0:
            raise WrongPropagatorError(
                "photon decay needs a density matrix even on the audit route")
        x1, x2, d = _parts(state.basis)
        l1, l2, l0 = -1j * x1, -1j * x2, -1j * params.detuning * d
        y = state.amplitudes.astype(complex)
    elif isinstance(state.basis, FullBasis):
        l1, l2, l0 = _liouvillian_pieces(state.basis, params)
        y = state.matrix.astype(complex).ravel()
    else:
        raise WrongPropagatorError(
            "photon decay couples excitation blocks; use a FullBasis state")
    chunk = max(1, 2 ** 21 // l0.size)
    for first in range(0, n_steps, chunk):
        mid = t0 + (np.arange(first, min(first + chunk, n_steps)) + 0.5) * dt
        eta1, eta2 = coupling_arrays(mid, params)
        for u in expm(dt * (eta1[:, None, None] * l1
                            + eta2[:, None, None] * l2 + l0)):
            y = u @ y

    if isinstance(state, PureState):
        return PureState(state.basis, y)
    out = y.reshape(state.basis.size, state.basis.size)
    return DensityMatrix(state.basis, 0.5 * (out + out.conj().T))


def apply_phase_gate(state: PureState, atom: int, chi: float) -> PureState:
    """Multiply every amplitude with the given atom excited by exp(i chi)."""
    if atom not in (1, 2):
        raise ValueError("atom must be 1 or 2")
    phase = complex(math.cos(chi), math.sin(chi))
    amp = state.amplitudes.copy()
    for i, label in enumerate(state.basis.labels):
        if label[atom] == "e":
            amp[i] *= phase
    return PureState(state.basis, amp)

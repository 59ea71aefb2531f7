"""Parameters, bases, and state containers for the two-atom cavity-transit model.

The system is a single cavity mode and two two-level atoms that cross the
mode one after the other.  Interaction-picture couplings are Gaussian in
time, so the natural dimensionless time is tau = t / (2 sigma) where sigma
sets the transit duration.  The total excitation number (photons plus
excited atoms) is conserved by the coherent dynamics, which splits the
Hilbert space into small fixed-excitation blocks; photon loss only ever
lowers the excitation number.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CavityPairError",
    "TruncationError",
    "BasisMismatchError",
    "SystemParams",
    "Label",
    "ManifoldBasis",
    "FullBasis",
    "SubsystemBasis",
    "PureState",
    "DensityMatrix",
    "manifold_basis",
    "embed",
    "restrict",
]

Label = tuple[int, str, str]

ATOM_STATES = ("g", "e")

# Maximum excited-state span of a fixed-excitation block: photon numbers
# n, n+1, n+1, n+2 with both / one / no atom excited.
_BLOCK_PATTERN = ((0, "e", "e"), (1, "g", "e"), (1, "e", "g"), (2, "g", "g"))


class CavityPairError(Exception):
    """Base class for simulator-specific failures."""


class TruncationError(CavityPairError):
    """A state or operator needs more photon levels than the basis holds."""


class BasisMismatchError(CavityPairError):
    """Two objects that must share a basis do not."""


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one transit of the atom pair through the cavity.

    Attributes
    ----------
    g0:
        Peak vacuum coupling of the first atom (units 1/time).
    epsilon:
        Ratio of the second atom's peak coupling to the first's.
    sigma:
        Transit duration scale; couplings are Gaussian in t/(2 sigma).
    delta:
        Half the dimensionless separation between the two coupling peaks
        (atom 1 peaks at tau = -delta, atom 2 at tau = +delta).
    detuning:
        Atom-field detuning (units 1/time), identical for both atoms.
    gamma:
        Cavity photon decay rate (units 1/time).
    n_max:
        Highest photon number kept in the full (cross-manifold) basis.
    t_span:
        Start and end of the transit window; defaults to (-12, +12) sigma,
        where the couplings are dead to double precision.
    """

    g0: float
    epsilon: float = 1.0
    sigma: float = 1.0
    delta: float = 1.0
    detuning: float = 0.0
    gamma: float = 0.0
    n_max: int = 3
    t_span: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.g0 < 0:
            raise ValueError("g0 must be non-negative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.t_span is None:
            span = (-12.0 * self.sigma, 12.0 * self.sigma)
            object.__setattr__(self, "t_span", span)
        t0, t1 = self.t_span
        if not t1 >= t0:
            raise ValueError("t_span must be ordered")

    @property
    def g1(self) -> float:
        return self.g0

    @property
    def g2(self) -> float:
        return self.epsilon * self.g0

    def tau(self, t: float) -> float:
        """Dimensionless time t / (2 sigma)."""
        return t / (2.0 * self.sigma)

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


def _check_label(label: Label) -> None:
    m, s1, s2 = label
    if m < 0 or s1 not in ATOM_STATES or s2 not in ATOM_STATES:
        raise ValueError(f"malformed basis label {label!r}")


@dataclass(frozen=True)
class ManifoldBasis:
    """Ordered basis of one fixed-excitation block.

    Labels are (photon number, atom-1 state, atom-2 state) and are ordered
    by decreasing atomic excitation: |n,ee>, |n+1,ge>, |n+1,eg>, |n+2,gg>,
    dropping any entry whose photon number would be negative.
    """

    n_exc: int
    labels: tuple[Label, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        """Base photon index of the block (photons when both atoms are excited)."""
        return self.n_exc - 2

    def index(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"{label!r} not in manifold N={self.n_exc}") from None


def manifold_basis(n_exc: int) -> ManifoldBasis:
    """Basis of the block with ``n_exc`` total excitations."""
    if n_exc < 0:
        raise ValueError("excitation number must be non-negative")
    labels = []
    for dm, s1, s2 in _BLOCK_PATTERN:
        m = n_exc - 2 + dm
        if m >= 0:
            labels.append((m, s1, s2))
    basis = ManifoldBasis(n_exc=n_exc, labels=tuple(labels))
    assert basis.dim == (4 if n_exc >= 2 else (3 if n_exc == 1 else 1))
    return basis


@dataclass(frozen=True)
class FullBasis:
    """Product basis |m> |s1> |s2> with photon numbers m = 0..n_max.

    Index layout is 4*m + 2*(s1 == 'g') + (s2 == 'g'), i.e. photon-major.
    """

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")

    @property
    def size(self) -> int:
        return 4 * (self.n_max + 1)

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(
            (m, s1, s2)
            for m in range(self.n_max + 1)
            for s1 in ATOM_STATES[::-1]
            for s2 in ATOM_STATES[::-1]
        )

    def index(self, label: Label) -> int:
        m, s1, s2 = label
        _check_label(label)
        if m > self.n_max:
            raise TruncationError(
                f"photon number {m} exceeds basis cutoff n_max={self.n_max}"
            )
        return 4 * m + 2 * (s1 == "g") + (s2 == "g")

    def excitation(self, label: Label) -> int:
        m, s1, s2 = label
        return m + (s1 == "e") + (s2 == "e")


@dataclass(frozen=True)
class SubsystemBasis:
    """Basis handle for a reduced state over a subset of the three parts."""

    keep: tuple[str, ...]
    labels: tuple[tuple, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)


def _as_amplitudes(values: Iterable[complex], dim: int) -> np.ndarray:
    amp = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=complex)
    if amp.shape != (dim,):
        raise ValueError(f"amplitude vector must have shape ({dim},)")
    return amp


def _basis_dim(basis) -> int:
    return basis.size if isinstance(basis, FullBasis) else basis.dim


@dataclass(frozen=True)
class PureState:
    """State vector over a ManifoldBasis, FullBasis, or SubsystemBasis."""

    basis: ManifoldBasis | FullBasis | SubsystemBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "amplitudes",
            _as_amplitudes(self.amplitudes, _basis_dim(self.basis)))

    @classmethod
    def from_label(cls, basis, label: Label) -> "PureState":
        amp = np.zeros(_basis_dim(basis), dtype=complex)
        amp[basis.index(label)] = 1.0
        return cls(basis, amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.basis, self.amplitudes / n)

    def overlap(self, other: "PureState") -> complex:
        if self.basis != other.basis:
            raise BasisMismatchError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator over a basis handle."""

    basis: ManifoldBasis | FullBasis | SubsystemBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = _basis_dim(self.basis)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"density matrix must have shape ({dim}, {dim})")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return cls(state.basis, np.outer(state.amplitudes,
                                         state.amplitudes.conj()))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def validate(self, trace_tol: float = 1e-8, herm_tol: float = 1e-10,
                 eig_floor: float = -1e-8) -> None:
        """Assert trace one, Hermiticity, and positivity within tolerances."""
        if abs(np.trace(self.matrix) - 1.0) > trace_tol:
            raise ValueError(f"trace deviates from 1 by more than {trace_tol}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > herm_tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if float(np.linalg.eigvalsh(self.matrix).min()) < eig_floor:
            raise ValueError(f"negative eigenvalue below {eig_floor}")


def embed(state: PureState, full: FullBasis) -> PureState:
    """Inject a manifold state into the full photon-truncated space.

    Amplitudes land on the matching product labels; every photon number in
    the manifold must fit under the cutoff or a TruncationError is raised.
    """
    if not isinstance(state.basis, ManifoldBasis):
        raise BasisMismatchError("embed expects a state on a ManifoldBasis")
    amp = np.zeros(full.size, dtype=complex)
    for a, label in zip(state.amplitudes, state.basis.labels):
        amp[full.index(label)] = a
    return PureState(full, amp)


def restrict(state: PureState, manifold: ManifoldBasis) -> PureState:
    """Project a full-space state onto one fixed-excitation block.

    Inverse of :func:`embed` on states supported inside the block; the
    projection is not renormalized.
    """
    if not isinstance(state.basis, FullBasis):
        raise BasisMismatchError("restrict expects a state on a FullBasis")
    amp = np.zeros(manifold.dim, dtype=complex)
    for i, label in enumerate(manifold.labels):
        m = label[0]
        if m <= state.basis.n_max:
            amp[i] = state.amplitudes[state.basis.index(label)]
    return PureState(manifold, amp)

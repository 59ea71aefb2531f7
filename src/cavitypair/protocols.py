"""Entangling and teleportation protocols built on single transits.

One resonant transit with equal peak couplings entangles the atom pair:
starting from both atoms in an even superposition and the cavity empty,
the transit leaves the cavity empty again and steers the atoms toward the
maximally entangled combination when the top-branch area is an even
multiple of pi.

A chain of three such transits teleports an unknown cavity superposition
alpha|0> + beta|1> from the first cavity to the third, using the atom pair
as the carrier: transit one maps the photon onto atom 2, transit two swaps
the excitation onto atom 1, transit three writes it into the last cavity.
Transits one and three are calibrated to a quarter-turn of the
photon-exchanging sector (area pi/2 mod 2pi); the middle transit works at
any area because the excitation swap is area-independent.  Two single-atom
phase gates between transits absorb the rotation's -i factors so the chain
composes to the identity on the payload.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import fidelity, reduced_state
from .dynamics import (
    apply_phase_gate,
    propagate_lindblad,
    propagate_schrodinger,
)
from .model import (
    CavityPairError,
    DensityMatrix,
    FullBasis,
    PureState,
    SystemParams,
)
from .spectrum import phi_angle, wrap_angle

__all__ = [
    "CalibrationError",
    "ProtocolError",
    "CalibrationWarning",
    "CavityStage",
    "TeleportResult",
    "calibrate_coupling",
    "initial_product_state",
    "maximal_target",
    "detuned_target",
    "entangle_atoms",
    "default_stages",
    "teleport",
]


class CalibrationError(CavityPairError):
    """No coupling matching the requested transit area was found."""


class ProtocolError(CavityPairError):
    """A protocol invariant (cavity hand-off, payload norm) failed."""


class CalibrationWarning(UserWarning):
    """A stage's transit area is off its protocol value."""


def calibrate_coupling(target_angle: float, n: int, params: SystemParams,
                       floor: float | None = None) -> SystemParams:
    """Smallest peak coupling above a floor whose top-branch area hits target.

    The area is strictly proportional to g0 at fixed shape (epsilon, delta),
    so the couplings that hit the target form the ladder
    (target + 2 pi k) / slope, with slope the area per unit g0; the first
    rung at or above the floor (default 10 / sigma) is returned once its
    quadrature is verified to land within 1e-6 radians of the target
    modulo 2 pi.
    """
    if target_angle <= 0:
        raise ValueError("target angle must be positive")
    floor = 10.0 / params.sigma if floor is None else floor
    if floor < 0:
        raise ValueError("floor must be non-negative")

    probe = params.replace(g0=1.0 / params.sigma, gamma=0.0, detuning=0.0)
    slope = phi_angle(n, probe) * params.sigma  # area per unit g0
    if slope <= 0:
        raise CalibrationError("transit area does not grow with coupling")

    k = max(0, math.ceil((floor * slope - target_angle) / (2.0 * math.pi)))
    g0 = (target_angle + 2.0 * math.pi * k) / slope
    if g0 < floor:  # guard the ceil against round-off
        g0 = (target_angle + 2.0 * math.pi * (k + 1)) / slope

    calibrated = params.replace(g0=g0)
    achieved = phi_angle(n, calibrated.replace(gamma=0.0, detuning=0.0))
    if abs(wrap_angle(achieved - target_angle)) >= 1e-6:
        raise CalibrationError(
            f"calibrated area misses target by {wrap_angle(achieved - target_angle):.2e} rad")
    return calibrated


def initial_product_state(basis: FullBasis) -> PureState:
    """Empty cavity, both atoms in (|g> + |e>) / sqrt(2)."""
    amp = np.zeros(basis.size, dtype=complex)
    for s1 in ("g", "e"):
        for s2 in ("g", "e"):
            amp[basis.index((0, s1, s2))] = 0.5
    return PureState(basis, amp)


def maximal_target(basis: FullBasis) -> PureState:
    """The maximally entangled atom pair the symmetric transit aims at."""
    amp = np.zeros(basis.size, dtype=complex)
    amp[basis.index((0, "g", "g"))] = 0.5
    amp[basis.index((0, "g", "e"))] = 0.5
    amp[basis.index((0, "e", "g"))] = -0.5
    amp[basis.index((0, "e", "e"))] = 0.5
    return PureState(basis, amp)


def detuned_target(big_theta: float, phi_full: float, basis: FullBasis) -> PureState:
    """Entangling-transit output parameterized by its two surviving phases.

    ``big_theta`` dresses the swapped single excitation and ``phi_full``
    the doubly-excited component; both zero (mod 2 pi) gives
    :func:`maximal_target`.
    """
    amp = np.zeros(basis.size, dtype=complex)
    amp[basis.index((0, "g", "g"))] = 0.5
    amp[basis.index((0, "e", "g"))] = -0.5
    amp[basis.index((0, "g", "e"))] = 0.5 * cmath.exp(-1j * big_theta)
    amp[basis.index((0, "e", "e"))] = 0.5 * cmath.exp(-1j * phi_full)
    return PureState(basis, amp)


def entangle_atoms(params: SystemParams) -> tuple[PureState | DensityMatrix, float]:
    """One transit from the even product state; returns (state, fidelity).

    Fidelity is taken against the maximally entangled target.  With photon
    decay the transit runs through the dissipative propagator; otherwise it
    stays pure.
    """
    if params.n_max < 3:
        raise ValueError("the entangling transit needs n_max >= 3 "
                         "(two excitations plus a guard level)")
    basis = FullBasis(params.n_max)
    psi0 = initial_product_state(basis)
    target = maximal_target(basis)
    if params.gamma == 0.0:
        out = propagate_schrodinger(psi0, params)
    else:
        out = propagate_lindblad(DensityMatrix.from_pure(psi0), params)
    return out, fidelity(out, target)


@dataclass(frozen=True)
class CavityStage:
    """One cavity transit plus the single-atom gates applied after it."""

    params: SystemParams
    gates: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class TeleportResult:
    """Outcome of the three-transit payload transfer."""

    final_state: PureState
    cavity_state: DensityMatrix
    fidelity: float
    stage_areas: tuple[float, ...]
    stage_leakage: tuple[float, ...]
    warnings: tuple[str, ...]


def default_stages(sigma: float = 1.0, delta: float = 1.0,
                   stage2_g0: float | None = None,
                   n_max: int = 2) -> tuple[CavityStage, CavityStage, CavityStage]:
    """Calibrated three-stage chain with the protocol's gate sequence.

    Stages one and three are calibrated to a quarter-turn area near the
    strongly adiabatic operating point; stage two defaults to 20 / sigma,
    any value works there.
    """
    template = SystemParams(g0=1.0 / sigma, sigma=sigma, delta=delta,
                            epsilon=1.0, n_max=n_max)
    quarter = calibrate_coupling(math.pi / 2.0, -1, template,
                                 floor=28.0 / sigma)
    middle = template.replace(g0=(20.0 / sigma if stage2_g0 is None
                                  else stage2_g0))
    return (
        CavityStage(params=quarter, gates=((2, math.pi / 2.0),)),
        CavityStage(params=middle, gates=((1, -math.pi / 2.0),)),
        CavityStage(params=quarter, gates=()),
    )


def _stage_transit(atom_amp: np.ndarray, cavity_amp: np.ndarray,
                   stage: CavityStage) -> PureState:
    """Tensor the atom pair with a fresh cavity and run one transit."""
    basis = FullBasis(stage.params.n_max)
    amp = np.zeros(basis.size, dtype=complex)
    for m, c_m in enumerate(cavity_amp):
        if c_m == 0.0:
            continue
        for k, (s1, s2) in enumerate((("e", "e"), ("e", "g"),
                                      ("g", "e"), ("g", "g"))):
            if atom_amp[k] != 0.0:
                amp[basis.index((m, s1, s2))] = c_m * atom_amp[k]
    state = PureState(basis, amp)
    out = propagate_schrodinger(state, stage.params)
    for atom, chi in stage.gates:
        out = apply_phase_gate(out, atom, chi)
    return out


def _split_off_vacuum(state: PureState, cavity_name: str) -> tuple[np.ndarray, float]:
    """Atom-pair amplitudes projected on the spent cavity being empty.

    The projection is not renormalized: whatever population stays behind
    in the cavity is lost to the protocol and must show up as missing
    weight (and hence as infidelity) downstream.  Mild miscalibration
    (a few percent, the warning regime) rides through; a loss above
    5e-2 signals a grossly broken stage and raises instead.
    """
    basis = state.basis
    atom_amp = np.array([state.amplitudes[basis.index((0, s1, s2))]
                         for s1, s2 in (("e", "e"), ("e", "g"),
                                        ("g", "e"), ("g", "g"))])
    norm0 = float(np.sum(np.abs(state.amplitudes) ** 2))
    leakage = norm0 - float(np.sum(np.abs(atom_amp) ** 2))
    if leakage > 5e-2 * norm0:
        raise ProtocolError(
            f"{cavity_name} kept {leakage:.2e} of the population after hand-off")
    return atom_amp, leakage


def teleport(alpha: complex, beta: complex,
             stages: tuple[CavityStage, CavityStage, CavityStage] | None = None,
             ) -> TeleportResult:
    """Carry alpha|0> + beta|1> from cavity one to cavity three.

    The atom pair starts in |g,g> and crosses each cavity in turn; after
    the first two transits the spent cavity should be left empty.  The
    small population a transit leaves behind is dropped without
    renormalizing, so it deflates the reported fidelity; a residual
    above 5e-2 raises ProtocolError.  Stages whose transit area strays
    from the quarter-turn by more than 0.01 rad produce a warning on
    the result rather than an error.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-8:
        raise ValueError("payload amplitudes must be normalized")
    stages = default_stages() if stages is None else tuple(stages)
    if len(stages) != 3:
        raise ValueError("the chain uses exactly three cavities")

    areas = []
    notes = []
    for i, stage in enumerate(stages):
        if stage.params.n_max < 2:
            raise ValueError("each stage needs n_max >= 2")
        if stage.params.gamma != 0.0:
            raise ValueError("the teleport chain is a lossless protocol")
        area = phi_angle(-1, stage.params.replace(detuning=0.0))
        areas.append(area)
        if i != 1 and abs(wrap_angle(area - math.pi / 2.0)) > 0.01:
            notes.append(
                f"stage {i + 1} transit area off the quarter-turn by "
                f"{wrap_angle(area - math.pi / 2.0):+.3f} rad")
            warnings.warn(notes[-1], CalibrationWarning, stacklevel=2)

    atom_amp = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)  # |g,g>
    leakage = []

    payload = np.zeros(stages[0].params.n_max + 1, dtype=complex)
    payload[0], payload[1] = alpha, beta
    state = _stage_transit(atom_amp, payload, stages[0])
    atom_amp, leak = _split_off_vacuum(state, "cavity one")
    leakage.append(leak)

    vacuum = np.zeros(stages[1].params.n_max + 1, dtype=complex)
    vacuum[0] = 1.0
    state = _stage_transit(atom_amp, vacuum, stages[1])
    atom_amp, leak = _split_off_vacuum(state, "cavity two")
    leakage.append(leak)

    vacuum = np.zeros(stages[2].params.n_max + 1, dtype=complex)
    vacuum[0] = 1.0
    final = _stage_transit(atom_amp, vacuum, stages[2])
    leakage.append(0.0)

    basis = final.basis
    target = np.zeros(basis.size, dtype=complex)
    target[basis.index((0, "g", "g"))] = alpha
    target[basis.index((1, "g", "g"))] = beta
    fid = fidelity(final, PureState(basis, target))
    cavity = reduced_state(final, ("cavity",))
    return TeleportResult(final_state=final, cavity_state=cavity,
                          fidelity=fid, stage_areas=tuple(areas),
                          stage_leakage=tuple(leakage), warnings=tuple(notes))

"""Adiabatic spectra of the fixed-excitation blocks and their phase integrals.

On resonance the four-state block with base photon index n has eigenvalues
in closed form: with s = eta1^2 + eta2^2 and
F = sqrt(s^2 + 16 (n+1)(n+2) eta1^2 eta2^2), the inner pair sits at
-/+ E_minus and the outer pair at -/+ E_plus where
E_{-/+} = sqrt(((3 + 2n) s -/+ F) / 2).  The inner pair touches exactly
when eta1 = eta2, i.e. once per transit at tau_c = -ln(eps) / (4 delta).

Three phase integrals govern the asymptotic input-output maps:

* ``phi_angle``: transit area of the top branch, the rotation angle of the
  photon-exchanging sector;
* ``theta_angle``: area of the inner branch with a sign flip at the
  crossing, the rotation angle of the doubly-excited sector when the two
  peak couplings differ;
* ``theta_big``: the dispersive phase picked up by the state that swaps the
  atomic excitation at large detuning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .hamiltonian import (coupling_arrays, coupling_pair, manifold_hamiltonian,
                          manifold_parts)
from .model import CavityPairError, ManifoldBasis, PureState, SystemParams, manifold_basis

__all__ = [
    "UnsupportedRegimeError",
    "NoCrossingError",
    "TrackingError",
    "DegenerateCouplingWarning",
    "CrossingEvent",
    "SpectrumCurve",
    "MixingAngles",
    "closed_form_energies",
    "diagonalize",
    "fix_phases",
    "track_spectrum",
    "crossing_time",
    "phi_angle",
    "theta_angle",
    "theta_big",
    "phi_asymptote",
    "dark_state",
    "mixing_angles",
    "wrap_angle",
]

# Couplings are double-precision dead beyond |t| = 14 sigma for any peak
# separation of interest; all phase quadratures use this window.
_QUAD_SPAN = 14.0

_EXACT_GAP = 1e-8  # of g0: below this a refined gap minimum is a true crossing
_AVOIDED_GAP = 0.5  # of g0: below this it is an avoided crossing
_ACTIVE_COUPLING = 1e-6  # of g0: gap minima are classified only where
# eta1 + eta2 exceeds this, outside the degenerate far tails


class UnsupportedRegimeError(CavityPairError):
    """The requested quantity is only defined in a different parameter regime."""


class NoCrossingError(CavityPairError):
    """The two coupling envelopes never intersect."""


class TrackingError(CavityPairError):
    """Eigenbranch continuity could not be established on the given grid."""


class DegenerateCouplingWarning(UserWarning):
    """The two coupling envelopes coincide at every instant."""


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    return math.pi if w == -math.pi else w


def closed_form_energies(t: float, params: SystemParams,
                         n: int) -> tuple[float, float, float, float]:
    """Resonant eigenvalues (-E_minus, +E_minus, -E_plus, +E_plus) of block n >= 0."""
    if params.detuning != 0.0:
        raise UnsupportedRegimeError(
            "closed-form energies hold on resonance only; use diagonalize")
    if n < 0:
        raise ValueError("closed-form energies need the four-state block (n >= 0)")
    eta1, eta2 = coupling_pair(t, params)
    s = eta1 * eta1 + eta2 * eta2
    f = math.sqrt(s * s + 16.0 * (n + 1) * (n + 2) * (eta1 * eta2) ** 2)
    e_minus = math.sqrt(max(((3 + 2 * n) * s - f), 0.0) / 2.0)
    e_plus = math.sqrt(((3 + 2 * n) * s + f) / 2.0)
    return (-e_minus, e_minus, -e_plus, e_plus)


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Fix each column's phase: largest-magnitude entry real positive.

    Works on one matrix or a (..., d, d) stack.  Ties within 1e-12 of the
    maximum magnitude resolve to the lowest index, so the convention is
    deterministic under degeneracies; an all-zero column is left alone.
    """
    fixed = np.array(vectors, dtype=complex)
    mags = np.abs(fixed)
    top = mags.max(axis=-2, keepdims=True)
    idx = np.argmax(mags >= top - 1e-12, axis=-2, keepdims=True)
    anchor = np.take_along_axis(fixed, idx, axis=-2)
    size = np.take_along_axis(mags, idx, axis=-2)
    phase = np.divide(anchor.conj(), size, out=np.ones_like(anchor),
                      where=size > 0.0)
    return fixed * phase


def diagonalize(t: float, params: SystemParams,
                basis: ManifoldBasis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and phase-fixed eigenvectors of one block."""
    h = manifold_hamiltonian(t, params, basis)
    w, v = np.linalg.eigh(h)
    return w, fix_phases(v)


@dataclass(frozen=True)
class CrossingEvent:
    """A refined gap minimum between two adjacent adiabatic levels."""

    time: float
    tau: float
    gap: float
    pair: tuple[int, int]  # tracked labels of the two levels involved
    kind: str  # "exact" or "avoided"


@dataclass(frozen=True)
class SpectrumCurve:
    """Continuity-tracked adiabatic spectrum over a time grid.

    ``energies[k, j]`` and ``vectors[k, :, j]`` follow tracked level j,
    labelled by ascending energy at the first grid point; through an exact
    crossing a tracked level keeps its smooth (diabatic) character rather
    than its energy rank.
    """

    times: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    crossings: tuple[CrossingEvent, ...]
    avoided: tuple[CrossingEvent, ...]


def _sorted_gap(t: float, params: SystemParams, basis: ManifoldBasis,
                level: int) -> float:
    w = np.linalg.eigvalsh(manifold_hamiltonian(t, params, basis))
    return float(w[level + 1] - w[level])


def track_spectrum(params: SystemParams, basis: ManifoldBasis,
                   grid: np.ndarray) -> SpectrumCurve:
    """Diagonalize along a time grid and connect levels by eigenvector overlap.

    The grid must be dense enough that consecutive eigenvectors of the same
    level overlap by more than 0.5 and unambiguously (best and runner-up
    overlaps separated by at least 1e-3); otherwise a TrackingError asks for
    a finer grid.  Gap minima interior to the coupling-active window are
    refined by bounded minimization and classified as exact or avoided.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must hold at least two times")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")

    eta1, eta2 = coupling_arrays(grid, params)
    x1, x2, d = manifold_parts(basis)
    h = (eta1[:, None, None] * x1 + eta2[:, None, None] * x2
         + params.detuning * d)
    energies_sorted, raw_vectors = np.linalg.eigh(h)
    perms = _continue_levels(raw_vectors, grid)
    energies = np.take_along_axis(energies_sorted, perms, axis=1)
    vectors = fix_phases(np.take_along_axis(raw_vectors, perms[:, None, :],
                                            axis=2))

    events = _classify_gap_minima(params, basis, grid, eta1 + eta2,
                                  energies_sorted, perms)
    crossings = tuple(e for e in events if e.kind == "exact")
    avoided = tuple(e for e in events if e.kind == "avoided")
    return SpectrumCurve(times=grid, energies=energies, vectors=vectors,
                         crossings=crossings, avoided=avoided)


def _continue_levels(frames: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """perms[k, label]: column of frames[k] that continues tracked level label.

    Each column of frames[k - 1] continues into the column of frames[k] it
    overlaps most; the step is accepted only if that best overlap exceeds
    0.5, beats the runner-up by 1e-3, and no two columns pick the same one.
    """
    npts, dim, _ = frames.shape
    overlap = np.abs(frames[:-1].conj().transpose(0, 2, 1) @ frames[1:])
    order = np.argmax(overlap, axis=2)
    ranked = np.sort(overlap, axis=2)
    best = ranked[:, :, -1]
    margin = best - (ranked[:, :, -2] if dim > 1 else 0.0)
    clash = np.any(np.sort(order, axis=1) != np.arange(dim), axis=1)
    weak = best < 0.5
    bad = np.flatnonzero(np.any(weak | (margin < 1e-3), axis=1) | clash)
    if bad.size:
        k = bad[0] + 1
        low = best[k - 1][weak[k - 1]]
        what = (f"eigenvector overlap {low[0]:.3f} < 0.5" if low.size
                else "ambiguous eigenvector continuation")
        raise TrackingError(
            f"{what} near t={grid[k]:.6g}; refine the grid "
            f"(suggest step <= {(grid[k] - grid[k - 1]) / 4:.3g})")

    # Compose the step permutations, visiting only the steps that reorder.
    perms = np.empty((npts, dim), dtype=int)
    perm = np.arange(dim)
    done = 0
    for k in np.flatnonzero(np.any(order != np.arange(dim), axis=1)) + 1:
        perms[done:k] = perm
        perm = order[k - 1][perm]
        done = k
    perms[done:] = perm
    return perms


def _classify_gap_minima(params, basis, grid, eta_sum, energies_sorted, perms):
    if params.g0 == 0.0:
        return []
    gaps = np.diff(energies_sorted, axis=1)
    inner = gaps[1:-1]
    active = eta_sum[1:-1, None] > _ACTIVE_COUPLING * params.g0
    candidates = active & (inner < gaps[:-2]) & (inner < gaps[2:])
    events = []
    for level, k in np.argwhere(candidates.T).tolist():
        k += 1
        res = minimize_scalar(
            _sorted_gap, args=(params, basis, level),
            bounds=(grid[k - 1], grid[k + 1]), method="bounded",
            options={"xatol": 1e-10 * params.sigma})
        gmin = float(res.fun)
        tmin = float(res.x)
        if gmin <= _EXACT_GAP * params.g0:
            kind = "exact"
        elif gmin < _AVOIDED_GAP * params.g0:
            kind = "avoided"
        else:
            continue
        labels = np.argsort(perms[k])[[level, level + 1]].tolist()
        events.append(CrossingEvent(
            time=tmin, tau=params.tau(tmin), gap=gmin,
            pair=tuple(labels), kind=kind))
    events.sort(key=lambda e: e.time)
    return events


def crossing_time(params: SystemParams) -> float:
    """Dimensionless time tau_c at which the two coupling envelopes meet."""
    if params.epsilon <= 0.0:
        raise ValueError("crossing time needs epsilon > 0")
    if params.delta == 0.0:
        if params.epsilon == 1.0:
            warnings.warn("couplings coincide at every instant",
                          DegenerateCouplingWarning, stacklevel=2)
            return 0.0
        raise NoCrossingError(
            "coupling envelopes with equal centers and different peaks never meet")
    return -math.log(params.epsilon) / (4.0 * params.delta)


def _require_resonant(params: SystemParams, what: str) -> None:
    if params.detuning != 0.0:
        raise UnsupportedRegimeError(f"{what} is a resonant quantity")


def phi_angle(n: int, params: SystemParams) -> float:
    """Transit pulse area of the top adiabatic branch of block n (radians).

    n = -1 addresses the single-excitation block, whose top branch is
    sqrt(eta1^2 + eta2^2); n >= 0 uses the closed-form +E_plus branch.
    """
    _require_resonant(params, "phi_angle")
    if n < -1:
        raise ValueError("n must be >= -1")
    if n == -1:
        def branch(t: float) -> float:
            eta1, eta2 = coupling_pair(t, params)
            return math.hypot(eta1, eta2)
    else:
        def branch(t: float) -> float:
            return closed_form_energies(t, params, n)[3]
    return _transit_integral(branch, params)


def theta_angle(n: int, params: SystemParams) -> float:
    """Signed transit area of the inner branch pair of block n (radians).

    The sign flips at the envelope crossing: the integral of +E_minus after
    the crossing minus its integral before.  Zero by symmetry when the two
    peak couplings are equal.
    """
    _require_resonant(params, "theta_angle")
    if n < 0:
        raise ValueError("the inner-pair angle needs the four-state block (n >= 0)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCouplingWarning)
        try:
            tau_c = crossing_time(params)
        except NoCrossingError:
            # No sign flip inside the window; the delta -> 0 limit of
            # -ln(eps)/(4 delta) pushes the split point past the edge.
            tau_c = math.inf if params.epsilon < 1.0 else -math.inf
    span = _QUAD_SPAN * params.sigma
    t_c = min(max(2.0 * params.sigma * tau_c, -span), span)

    def e_minus(t: float) -> float:
        return closed_form_energies(t, params, n)[1]

    after = _fixed_quad(e_minus, t_c, span, params)
    before = _fixed_quad(e_minus, -span, t_c, params)
    return after - before


def _transit_integral(f, params: SystemParams) -> float:
    span = _QUAD_SPAN * params.sigma
    return _fixed_quad(f, -span, span, params)


def _fixed_quad(f, a: float, b: float, params: SystemParams) -> float:
    if b <= a:
        return 0.0
    peaks = [x for x in (-2.0 * params.sigma * params.delta,
                         2.0 * params.sigma * params.delta) if a < x < b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, _ = quad(f, a, b, points=peaks or None,
                        epsabs=1e-8, epsrel=1e-11, limit=400)
    return value


def theta_big(params: SystemParams) -> float:
    """Dispersive phase of the excitation-swapping branch at large detuning."""
    if params.detuning == 0.0:
        raise UnsupportedRegimeError(
            "the dispersive phase diverges on resonance")
    return (2.0 * params.sigma * params.g0 ** 2 * (1.0 + params.epsilon ** 2)
            * math.sqrt(math.pi / 2.0) / params.detuning)


def phi_asymptote(n: int, params: SystemParams) -> float:
    """Large-n reference scale 4 g0 sigma sqrt(n pi) for the top-branch area."""
    if n < 0:
        raise ValueError("the asymptote is defined for n >= 0")
    return 4.0 * params.g0 * params.sigma * math.sqrt(n * math.pi)


def dark_state(t: float, params: SystemParams) -> PureState:
    """Zero-energy single-excitation eigenstate, exact at any detuning.

    Proportional to eta1 |0,ge> - eta2 |0,eg>; it carries no photon
    component, so it is immune to cavity decay as well.
    """
    eta1, eta2 = coupling_pair(t, params)
    omega = math.hypot(eta1, eta2)
    if omega == 0.0:
        raise ValueError("dark state undefined where both couplings vanish")
    amp = np.array([eta1, -eta2, 0.0], dtype=complex) / omega
    return PureState(manifold_basis(1), amp)


@dataclass(frozen=True)
class MixingAngles:
    """The three transit phases plus the envelope crossing time.

    ``phi`` and ``theta`` are the resonant transit areas of block n;
    ``big_theta`` is the dispersive swap phase, present only off resonance.
    """

    n: int
    phi: float
    theta: float
    big_theta: float | None
    tau_c: float


def mixing_angles(n: int, params: SystemParams) -> MixingAngles:
    """Bundle the transit phases of block n for the given parameters."""
    resonant = params.replace(detuning=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCouplingWarning)
        try:
            tau_c = crossing_time(params)
        except NoCrossingError:
            tau_c = math.inf
    theta = theta_angle(n, resonant) if n >= 0 else 0.0
    return MixingAngles(
        n=n,
        phi=phi_angle(n, resonant),
        theta=theta,
        big_theta=theta_big(params) if params.detuning != 0.0 else None,
        tau_c=tau_c,
    )

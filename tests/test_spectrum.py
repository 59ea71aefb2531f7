"""Adiabatic energies, transit areas, and branch tracking."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import _oracles as orc
from cavitypair.hamiltonian import coupling_pair, manifold_hamiltonian
from cavitypair.model import SystemParams, manifold_basis
from cavitypair.spectrum import (
    _continue_levels,
    DegenerateCouplingWarning,
    NoCrossingError,
    TrackingError,
    UnsupportedRegimeError,
    closed_form_energies,
    crossing_time,
    dark_state,
    fix_phases,
    mixing_angles,
    phi_angle,
    phi_asymptote,
    theta_angle,
    theta_big,
    track_spectrum,
    wrap_angle,
)


def test_closed_form_matches_diagonalization():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(0, 4))
        p = SystemParams(
            g0=float(rng.uniform(1.0, 100.0)),
            epsilon=float(rng.uniform(0.5, 1.5)),
            delta=float(rng.uniform(0.0, 2.0)),
        )
        t = float(rng.uniform(-8.0, 8.0))
        exact = np.sort(closed_form_energies(t, p, n))
        basis = manifold_basis(n + 2)
        numeric = np.linalg.eigvalsh(manifold_hamiltonian(t, p, basis))
        np.testing.assert_allclose(exact, numeric, atol=1e-9 * p.g0)


def test_closed_form_guards():
    p = SystemParams(g0=1.0, detuning=2.0)
    with pytest.raises(UnsupportedRegimeError):
        closed_form_energies(0.0, p, 0)
    with pytest.raises(ValueError):
        closed_form_energies(0.0, SystemParams(g0=1.0), -1)


def test_inner_pair_degenerate_at_envelope_crossing():
    # where eta1 = eta2 the middle pair collapses to zero energy
    p = SystemParams(g0=5.0, epsilon=1.0, delta=1.0)
    _, e1, _, _ = closed_form_energies(0.0, p, 0)
    assert e1 == 0.0


def test_crossing_time_values_and_guards():
    assert crossing_time(SystemParams(g0=1.0, epsilon=0.8)) == pytest.approx(
        orc.TAU_C_08, abs=1e-7)
    # scaling: tau_c = -ln(eps) / (4 delta)
    assert crossing_time(SystemParams(g0=1.0, epsilon=0.8, delta=2.0)) == (
        pytest.approx(orc.TAU_C_08 / 2.0, abs=1e-7))
    with pytest.warns(DegenerateCouplingWarning):
        assert crossing_time(SystemParams(g0=1.0, epsilon=1.0, delta=0.0)) == 0.0
    with pytest.raises(NoCrossingError):
        crossing_time(SystemParams(g0=1.0, epsilon=0.9, delta=0.0))
    with pytest.raises(ValueError):
        crossing_time(SystemParams(g0=1.0, epsilon=0.0))


@pytest.mark.parametrize("detuning", [0.0, 5.0, 50.0])
def test_dark_state_is_annihilated(detuning):
    p = SystemParams(g0=7.0, epsilon=0.7, detuning=detuning)
    basis = manifold_basis(1)
    rng = np.random.default_rng(3)
    for t in rng.uniform(-4.0, 4.0, size=5):
        state = dark_state(float(t), p)
        assert state.norm == pytest.approx(1.0)
        h = manifold_hamiltonian(float(t), p, basis)
        assert np.max(np.abs(h @ state.amplitudes)) < 1e-12 * p.g0


def test_dark_state_undefined_without_coupling():
    with pytest.raises(ValueError):
        dark_state(1e6, SystemParams(g0=1.0))


def test_transit_area_anchors():
    assert phi_angle(-1, SystemParams(g0=orc.G60)) == pytest.approx(
        orc.sixty_pi(), abs=1e-4)
    assert phi_angle(-1, SystemParams(g0=orc.G40)) == pytest.approx(
        40.0 * math.pi, abs=1e-4)
    # unit-coupling area equals the bare envelope integral (t = 2 sigma tau)
    assert phi_angle(-1, SystemParams(g0=1.0)) == pytest.approx(
        2.0 * orc.GAUSS_AREA, abs=1e-9)
    assert phi_angle(0, SystemParams(g0=orc.G60)) == pytest.approx(
        orc.PHI0_G60, abs=1e-5)
    assert phi_angle(0, SystemParams(g0=orc.G60, epsilon=0.9)) == pytest.approx(
        orc.PHI0_EPS09, abs=1e-5)


def test_transit_area_scales_linearly_in_g0():
    lo = phi_angle(-1, SystemParams(g0=3.7, epsilon=0.8))
    hi = phi_angle(-1, SystemParams(g0=7.4, epsilon=0.8))
    assert hi == pytest.approx(2.0 * lo, rel=1e-9)


def test_phi_angle_guards():
    with pytest.raises(ValueError):
        phi_angle(-2, SystemParams(g0=1.0))
    with pytest.raises(UnsupportedRegimeError):
        phi_angle(-1, SystemParams(g0=1.0, detuning=1.0))


@pytest.mark.parametrize("eps", sorted(orc.THETA0))
def test_inner_pair_area_frozen_values(eps):
    assert theta_angle(0, SystemParams(g0=orc.G60, epsilon=eps)) == (
        pytest.approx(orc.THETA0[eps], abs=1e-4))


def test_inner_pair_area_vanishes_for_equal_peaks():
    assert abs(theta_angle(0, SystemParams(g0=orc.G60))) < 1e-8


def test_theta_angle_guards():
    with pytest.raises(ValueError):
        theta_angle(-1, SystemParams(g0=1.0))
    with pytest.raises(UnsupportedRegimeError):
        theta_angle(0, SystemParams(g0=1.0, detuning=1.0))


def test_asymptote_value_and_guard():
    p = SystemParams(g0=2.5, sigma=1.5)
    assert phi_asymptote(9, p) == pytest.approx(
        4.0 * 2.5 * 1.5 * math.sqrt(9.0 * math.pi))
    with pytest.raises(ValueError):
        phi_asymptote(-1, p)


def test_large_n_area_approaches_asymptote():
    p = SystemParams(g0=orc.G60)
    for n, ratio in orc.ASYMPTOTE_RATIO.items():
        measured = phi_angle(n, p) / phi_asymptote(n, p)
        assert measured == pytest.approx(ratio, abs=1e-5)


def test_dispersive_phase_formula_and_guard():
    p = SystemParams(g0=80.0, detuning=800.0)
    assert theta_big(p) == pytest.approx(orc.BIG_THETA_80_800, abs=1e-5)
    direct = (2.0 * p.sigma * p.g0 ** 2 * (1.0 + p.epsilon ** 2)
              * math.sqrt(math.pi / 2.0) / p.detuning)
    assert theta_big(p) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(UnsupportedRegimeError):
        theta_big(SystemParams(g0=80.0))


def test_wrap_angle_branch():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_angle(0.1 - 4.0 * math.pi) == pytest.approx(0.1)
    assert wrap_angle(-0.1 + 6.0 * math.pi) == pytest.approx(-0.1)


def test_mixing_angles_bundle():
    res = mixing_angles(-1, SystemParams(g0=orc.G60))
    assert res.n == -1
    assert res.theta == 0.0
    assert res.big_theta is None
    assert res.phi == pytest.approx(orc.sixty_pi(), abs=1e-4)
    assert res.tau_c == 0.0  # degenerate envelopes, no warning leaks out

    detuned = mixing_angles(0, SystemParams(g0=80.0, detuning=800.0))
    assert detuned.big_theta == pytest.approx(orc.BIG_THETA_80_800, abs=1e-5)
    # phi is evaluated on the resonant replica of the same pulse
    assert detuned.phi == pytest.approx(
        phi_angle(0, SystemParams(g0=80.0)), rel=1e-12)

    parallel = mixing_angles(0, SystemParams(g0=5.0, epsilon=0.9, delta=0.0))
    assert parallel.tau_c == math.inf


def test_mixing_angles_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixing_angles(0, SystemParams(g0=5.0))


def test_tracking_detuned_block_avoided_only():
    p = SystemParams(g0=orc.G60, detuning=15.0)
    grid = np.arange(-8.0, 8.0 + 1e-9, 0.01)
    curve = track_spectrum(p, manifold_basis(2), grid)
    assert curve.crossings == ()
    assert len(curve.avoided) == 3
    times = sorted(ev.time for ev in curve.avoided)
    for measured, expected in zip(times, (-2.0954, 0.0, 2.0954)):
        assert measured == pytest.approx(expected, abs=2e-3)
    assert [ev.kind for ev in curve.avoided] == ["avoided"] * 3
    pairs = [ev.pair for ev in sorted(curve.avoided, key=lambda e: e.time)]
    assert pairs == [(2, 3), (1, 2), (2, 3)]
    for ev in curve.avoided:
        assert ev.gap > 0.0
        assert ev.tau == pytest.approx(ev.time / 2.0)


def test_tracking_resonant_block_finds_exact_crossing():
    p = SystemParams(g0=orc.G60, epsilon=0.9)
    grid = np.arange(-8.0, 8.0 + 1e-9, 0.01)
    curve = track_spectrum(p, manifold_basis(2), grid)
    assert len(curve.crossings) == 1
    event = curve.crossings[0]
    assert event.kind == "exact"
    assert event.pair == (1, 2)
    t_c = 2.0 * crossing_time(p)  # t = 2 sigma tau
    assert event.time == pytest.approx(t_c, abs=2e-3)
    assert event.gap < 1e-6 * p.g0
    assert len(curve.avoided) == 4
    # tracked branches stay smooth through the crossing: energy rank swaps
    k_after = int(np.searchsorted(curve.times, event.time + 0.2))
    assert curve.energies[k_after, 1] > curve.energies[k_after, 2]


def test_tracking_needs_a_dense_grid():
    p = SystemParams(g0=orc.G60, detuning=15.0)
    with pytest.raises(TrackingError, match="refine the grid"):
        track_spectrum(p, manifold_basis(2), np.arange(-8.0, 8.0, 1.0))


def _fix_column(col: np.ndarray) -> np.ndarray:
    mags = np.abs(col)
    if mags.max() == 0.0:
        return col
    idx = int(np.flatnonzero(mags >= mags.max() - 1e-12)[0])
    return col * (col[idx].conjugate() / mags[idx])


def test_stacked_phase_fix_matches_column_by_column():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    stack[2, :, 1] = 0.0
    # entries 0 and 2 tie within 1e-12: the lower index sets the phase
    stack[4, :, 3] = [(1.0 - 5e-13) * np.exp(0.3j), 0.2, np.exp(-1.1j), 0.1j]
    fixed = fix_phases(stack)
    for k in range(stack.shape[0]):
        for j in range(stack.shape[2]):
            np.testing.assert_array_equal(fixed[k, :, j],
                                          _fix_column(stack[k, :, j]))
    assert np.all(fixed[2, :, 1] == 0.0)
    assert abs(fixed[4, 0, 3].imag) < 1e-15 and fixed[4, 0, 3].real > 0.0
    np.testing.assert_array_equal(fix_phases(stack[3]), fixed[3])


def _per_point_tracking(p, basis, grid):
    """Point-by-point reference: eigh, optimal assignment, phase fix."""
    energies, vectors = [], []
    perm, prev = np.arange(basis.dim), None
    for t in grid:
        w, v = np.linalg.eigh(manifold_hamiltonian(float(t), p, basis))
        if prev is not None:
            rows, cols = linear_sum_assignment(-np.abs(prev.conj().T @ v))
            perm = cols[np.argsort(rows)][perm]
        prev = v
        energies.append(w[perm])
        vectors.append(np.column_stack([_fix_column(v[:, j]) for j in perm]))
    return np.array(energies), np.array(vectors)


@pytest.mark.parametrize("n_exc, kw", [
    (1, {"detuning": 9.0}),
    (2, {"epsilon": 0.9}),
    (3, {"epsilon": 1.1, "detuning": 4.0}),
])
def test_stacked_tracker_matches_per_point_reference(n_exc, kw):
    p = SystemParams(g0=orc.G60, **kw)
    grid = np.linspace(-8.0, 8.0, 801)
    curve = track_spectrum(p, manifold_basis(n_exc), grid)
    energies, vectors = _per_point_tracking(p, manifold_basis(n_exc), grid)
    # the couplings differ only in the last bit of exp
    np.testing.assert_allclose(curve.energies, energies, rtol=0,
                               atol=1e-13 * p.g0)
    np.testing.assert_allclose(curve.vectors, vectors, rtol=0, atol=1e-12)


def _rotation(axis: int, angle: float) -> np.ndarray:
    i, j = [k for k in range(3) if k != axis]
    m = np.eye(3)
    m[i, i] = m[j, j] = math.cos(angle)
    m[i, j], m[j, i] = -math.sin(angle), math.sin(angle)
    return m


def test_continuation_rejects_two_levels_in_one_column():
    # Every row of |overlap| clears the 0.5 and 1e-3 margins, but rows 0
    # and 1 both peak in column 0, so the step is not a permutation.
    frame = _rotation(2, math.radians(39.0)) @ _rotation(0, math.radians(42.0))
    overlap = np.abs(frame)
    ranked = np.sort(overlap, axis=1)
    assert np.all(ranked[:, -1] > 0.5)
    assert np.all(ranked[:, -1] - ranked[:, -2] > 1e-3)
    assert list(np.argmax(overlap, axis=1)[:2]) == [0, 0]
    with pytest.raises(TrackingError, match="refine the grid"):
        _continue_levels(np.stack([np.eye(3), frame]), np.array([0.0, 1.0]))


def test_continuation_composes_step_permutations():
    eye = np.eye(3)
    frames = np.stack([eye, eye[:, [1, 0, 2]], eye[:, [1, 2, 0]]])
    perms = _continue_levels(frames, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(perms, [[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def test_tracked_energies_start_sorted():
    p = SystemParams(g0=orc.G60, epsilon=0.9)
    grid = np.linspace(-6.0, 6.0, 601)
    curve = track_spectrum(p, manifold_basis(1), grid)
    first = curve.energies[0]
    assert np.all(np.diff(first) >= -1e-12)
    eta1, eta2 = coupling_pair(float(grid[-1]), p)
    top = math.hypot(eta1, eta2)
    assert curve.energies[-1, -1] == pytest.approx(top, abs=1e-9)

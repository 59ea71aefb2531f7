"""Propagators: Magnus block transits, dissipative, and the fixed-step audit route."""

import cmath
import math

import numpy as np
import pytest

import _oracles as orc
from cavitypair.dynamics import (
    TruncationWarning,
    WrongPropagatorError,
    apply_phase_gate,
    oracle_propagate,
    propagate_lindblad,
    propagate_schrodinger,
    transit_steps,
    transit_unitary,
)
from cavitypair.hamiltonian import coupling_pair, manifold_parts
from cavitypair.model import (
    DensityMatrix,
    FullBasis,
    PureState,
    SystemParams,
    manifold_basis,
    restrict,
)


def test_three_level_rabi_against_closed_form():
    # Window so short the envelopes are frozen: the block reduces to a
    # constant three-level chain with Omega = sqrt(eta1^2 + eta2^2).
    p = SystemParams(g0=3000.0, epsilon=0.7, delta=0.0,
                     t_span=(-5e-4, 5e-4))
    basis = manifold_basis(1)
    start = PureState.from_label(basis, (0, "g", "e"))
    final = propagate_schrodinger(start, p)

    eta1, eta2 = coupling_pair(0.0, p)
    omega = math.hypot(eta1, eta2)
    wt = omega * 1e-3
    a_ge = (eta1 ** 2 + eta2 ** 2 * math.cos(wt)) / omega ** 2
    a_eg = eta1 * eta2 * (math.cos(wt) - 1.0) / omega ** 2
    a_gg = -1j * (eta2 / omega) * math.sin(wt)

    np.testing.assert_allclose(
        final.amplitudes, [a_ge, a_eg, a_gg], atol=5e-6)


def test_adaptive_agrees_with_audit_route():
    # The production route is the fixed-step Magnus transit; nothing checks
    # its accuracy at run time, so it rests on the step count of
    # transit_steps, which this comparison with the audit route tests.
    p = SystemParams(g0=5.0, epsilon=0.8)
    basis = manifold_basis(1)
    start = PureState.from_label(basis, (0, "e", "g"))
    fast = propagate_schrodinger(start, p)
    assert fast.norm == pytest.approx(1.0, abs=1e-12)

    def err(step: float) -> float:
        slow = oracle_propagate(start, p, step=step)
        return float(np.max(np.abs(fast.amplitudes - slow.amplitudes)))

    assert err(p.sigma / 2000.0) < 5e-8
    # the audit route is second order: a 10x finer step gains ~100x
    ratio = err(p.sigma / 200.0) / err(p.sigma / 2000.0)
    assert 50.0 < ratio < 200.0


def test_audit_route_guards():
    p = SystemParams(g0=5.0)
    basis = manifold_basis(1)
    start = PureState.from_label(basis, (0, "e", "g"))
    frozen = oracle_propagate(start, p.replace(t_span=(2.0, 2.0)))
    np.testing.assert_array_equal(frozen.amplitudes, start.amplitudes)
    with pytest.raises(ValueError):
        oracle_propagate(start, p, step=p.sigma / 100.0)
    with pytest.raises(ValueError):
        oracle_propagate(start, p, step=0.0)
    with pytest.raises(WrongPropagatorError):
        oracle_propagate(start, p.replace(gamma=0.1))


def test_excitation_blocks_stay_decoupled():
    # Blocks are propagated one by one, so this checks that the labels are
    # grouped by excitation number; the Hamiltonian itself is checked to
    # conserve it in test_hamiltonian.
    basis = FullBasis(3)
    amp = np.zeros(basis.size, dtype=complex)
    for label in ((0, "e", "e"), (1, "g", "e"), (2, "g", "g")):
        amp[basis.index(label)] = 1.0 / math.sqrt(3.0)
    start = PureState(basis, amp)
    p = SystemParams(g0=5.0, epsilon=0.9, detuning=3.0)
    final = propagate_schrodinger(start, p)
    stray = sum(
        abs(final.amplitudes[i]) ** 2
        for i, label in enumerate(basis.labels)
        if basis.excitation(label) != 2)
    assert stray < 1e-10


def test_full_space_adds_detuning_phase_on_excited_blocks():
    # On every block with an excitation the full-space Hamiltonian is the
    # block Hamiltonian plus detuning * I, so a transit adds the phase
    # exp(-i detuning T) there; the vacuum amplitude is left alone.
    p = SystemParams(g0=5.0, epsilon=0.9, detuning=2.0)
    full = FullBasis(3)
    blocks = [manifold_basis(n) for n in range(3)]
    rng = np.random.default_rng(7)
    amp = np.zeros(full.size, dtype=complex)
    for block in blocks:
        for label in block.labels:
            amp[full.index(label)] = complex(*rng.normal(size=2))
    start = PureState(full, amp / np.linalg.norm(amp))
    final = propagate_schrodinger(start, p)
    elapsed = p.t_span[1] - p.t_span[0]
    for block in blocks:
        alone = propagate_schrodinger(restrict(start, block), p)
        phase = cmath.exp(-1j * p.detuning * elapsed) if block.n_exc else 1.0
        np.testing.assert_allclose(restrict(final, block).amplitudes,
                                   phase * alone.amplitudes, rtol=0, atol=1e-10)
    vacuum = full.index((0, "g", "g"))
    assert abs(final.amplitudes[vacuum] - start.amplitudes[vacuum]) < 1e-10


def test_magnus_transit_is_fourth_order():
    p = SystemParams(g0=orc.G60)
    parts = manifold_parts(manifold_basis(2))
    n = transit_steps(p, parts)
    reference = transit_unitary(parts, p, 8 * n)

    def err(steps: int) -> float:
        return float(np.max(np.abs(transit_unitary(parts, p, steps)
                                   - reference)))

    # half the steps, 2^4 = 16 times the deviation
    assert 10.0 < err(n // 2) / err(n) < 22.0


def test_propagator_regime_guards():
    basis = manifold_basis(1)
    start = PureState.from_label(basis, (0, "e", "g"))
    with pytest.raises(WrongPropagatorError):
        propagate_schrodinger(start, SystemParams(g0=1.0, gamma=0.1))
    rho = DensityMatrix.from_pure(start)
    with pytest.raises(WrongPropagatorError):
        propagate_lindblad(rho, SystemParams(g0=1.0, gamma=0.1))


def test_bare_cavity_decay_is_exponential():
    # couplings switched off: the photon decays at rate gamma, ending in
    # the joint ground state
    basis = FullBasis(2)
    rho = DensityMatrix.from_pure(PureState.from_label(basis, (1, "g", "g")))
    p = SystemParams(g0=1e-9, gamma=0.5)
    final = propagate_lindblad(rho, p)
    elapsed = p.t_span[1] - p.t_span[0]
    expected = math.exp(-p.gamma * elapsed)
    i_one = basis.index((1, "g", "g"))
    i_zero = basis.index((0, "g", "g"))
    assert final.matrix[i_one, i_one].real == pytest.approx(expected, abs=1e-6)
    assert final.matrix[i_zero, i_zero].real == pytest.approx(
        1.0 - expected, abs=1e-6)


def test_lindblad_preserves_trace_and_positivity():
    basis = FullBasis(3)
    rho = DensityMatrix.from_pure(PureState.from_label(basis, (1, "e", "g")))
    p = SystemParams(g0=5.0, gamma=0.1, t_span=(-6.0, 6.0))
    final = propagate_lindblad(rho, p)
    final.validate()
    assert final.trace == pytest.approx(1.0, abs=1e-8)
    eigs = np.linalg.eigvalsh(final.matrix)
    assert eigs.min() > -1e-7
    assert final.purity() < 1.0 + 1e-10


def test_guard_level_population_warns():
    basis = FullBasis(1)
    rho = DensityMatrix.from_pure(PureState.from_label(basis, (1, "g", "g")))
    p = SystemParams(g0=5.0, gamma=0.1, t_span=(-6.0, 6.0))
    with pytest.warns(TruncationWarning):
        propagate_lindblad(rho, p)


def test_lindblad_agrees_with_audit_route():
    basis = FullBasis(1)
    rho = DensityMatrix.from_pure(PureState.from_label(basis, (0, "e", "g")))
    p = SystemParams(g0=5.0, gamma=0.1, t_span=(-6.0, 6.0), n_max=1)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fast = propagate_lindblad(rho, p)
    slow = oracle_propagate(rho, p, step=p.sigma / 500.0)
    assert np.max(np.abs(fast.matrix - slow.matrix)) < 5e-6


def test_phase_gate_targets_one_atom():
    basis = manifold_basis(2)
    amp = np.full(4, 0.5, dtype=complex)
    state = PureState(basis, amp)
    chi = 0.7
    gated = apply_phase_gate(state, 1, chi)
    phase = cmath.exp(1j * chi)
    # labels: |0,ee>, |1,ge>, |1,eg>, |2,gg>; atom 1 is excited in 0 and 2
    np.testing.assert_allclose(
        gated.amplitudes, [0.5 * phase, 0.5, 0.5 * phase, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        apply_phase_gate(state, 3, chi)

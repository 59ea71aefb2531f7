"""Transit maps, regime tables, and state diagnostics."""

import math

import numpy as np
import pytest

import _oracles as orc
from cavitypair.analysis import (
    NonAdiabaticError,
    check_crossing_phase,
    check_input_output,
    entanglement_entropy,
    fidelity,
    populations,
    predicted_scatter,
    reduced_state,
    scatter_matrix,
)
from cavitypair.dynamics import oracle_propagate
from cavitypair.model import (
    BasisMismatchError,
    DensityMatrix,
    FullBasis,
    PureState,
    SystemParams,
    manifold_basis,
)
from cavitypair.protocols import maximal_target
from cavitypair.spectrum import (
    UnsupportedRegimeError,
    mixing_angles,
    theta_angle,
    wrap_angle,
)


def test_transit_map_is_unitary():
    p = SystemParams(g0=orc.G60)
    s = scatter_matrix(p, 1)
    assert s.unitarity_defect < 1e-9
    gram = s.matrix.conj().T @ s.matrix
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)


def test_many_photon_map_matches_audit_route():
    # Couplings in the block of base photon number n scale as sqrt(n + 2),
    # so the Magnus step count has to grow with n.  The audit route is
    # second order with an even error expansion, so two step sizes
    # extrapolate it to about 4e-9 here.
    p = SystemParams(g0=orc.G60, detuning=30.0)
    s = scatter_matrix(p, 52)
    start = PureState(s.basis, np.eye(4, dtype=complex)[0])
    coarse, fine = (oracle_propagate(start, p, step=p.sigma / k).amplitudes
                    for k in (400.0, 800.0))
    audit = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(s.matrix[:, 0] - audit)) < 5e-8


def test_transit_map_rejects_decay():
    with pytest.raises(UnsupportedRegimeError):
        scatter_matrix(SystemParams(g0=orc.G60, gamma=0.01), 1)


def test_symmetric_map_matches_prediction_to_frozen_level():
    p = SystemParams(g0=orc.G60)
    s = scatter_matrix(p, 1)
    report = check_input_output(s, mixing_angles(-1, p), "resonant-symmetric")
    assert report.residual == pytest.approx(orc.SCATTER_RESID[-1], abs=2e-4)


def test_asymmetric_map_sector_residuals():
    p = SystemParams(g0=orc.G60, epsilon=0.9)
    s = scatter_matrix(p, 2)
    report = check_input_output(s, mixing_angles(0, p), "resonant-asymmetric")
    # the doubly-excited 2x2 sector follows the slow inner pair and is
    # far more accurate than the fast top branch driving the other sector
    assert report.sector_residuals["excited"] == pytest.approx(
        orc.SECTOR_EPS09["excited"], abs=5e-5)
    assert report.sector_residuals["ground"] == pytest.approx(
        orc.SECTOR_EPS09["ground"], abs=5e-4)
    assert report.sector_residuals["excited"] < 5e-3


def test_predicted_maps_are_unitary():
    sym = mixing_angles(-1, SystemParams(g0=orc.G60))
    asym = mixing_angles(0, SystemParams(g0=orc.G60, epsilon=0.9))
    for regime, n, angles in (
        ("resonant-symmetric", -2, sym),
        ("resonant-symmetric", -1, sym),
        ("resonant-symmetric", 0, sym),
        ("resonant-asymmetric", -1, asym),
        ("resonant-asymmetric", 0, asym),
        ("resonant-asymmetric", 1, asym),
    ):
        pred = predicted_scatter(regime, n, angles)
        dim = pred.shape[0]
        np.testing.assert_allclose(pred.conj().T @ pred, np.eye(dim),
                                   atol=1e-12, err_msg=f"{regime} n={n}")


def test_predicted_swap_block_is_unitary():
    angles = mixing_angles(-1, SystemParams(g0=80.0, detuning=800.0))
    pred = predicted_scatter("large-detuning", -1, angles)
    block = pred[:2, :2]
    np.testing.assert_allclose(block.conj().T @ block, np.eye(2), atol=1e-12)
    assert pred[1, 0] == -1.0
    assert abs(pred[0, 1]) == pytest.approx(1.0)


def test_prediction_guards():
    p = SystemParams(g0=orc.G60)
    angles = mixing_angles(-1, p)
    with pytest.raises(ValueError):
        predicted_scatter("bogus", -1, angles)
    with pytest.raises(UnsupportedRegimeError):
        # the dispersive table only covers the single-excitation block
        predicted_scatter("large-detuning", 0,
                          mixing_angles(0, p.replace(detuning=800.0)))
    with pytest.raises(ValueError):
        # resonant angles carry no dispersive phase
        predicted_scatter("large-detuning", -1, angles)
    s = scatter_matrix(p, 1)
    with pytest.raises(ValueError):
        check_input_output(s, angles, "bogus")


def test_dark_column_survives_any_detuning():
    # |0,ge> -> -|0,eg> with no phase: the zero-energy branch is exact at
    # every detuning, so the raw (unaligned) column obeys the map directly.
    dark_col = np.array([0.0, -1.0, 0.0], dtype=complex)
    worst = {}
    for det in (0.0, 2.0, 5.0):
        for eps in (0.8, 1.0, 1.2):
            p = SystemParams(g0=orc.G60, epsilon=eps, detuning=det)
            s = scatter_matrix(p, 1)
            worst[(det, eps)] = float(np.max(np.abs(s.matrix[:, 0] - dark_col)))
    for (det, eps), resid in worst.items():
        limit = 5e-4 if det == 0.0 else 3e-2
        assert resid < limit, (det, eps, resid)
    # leakage grows with detuning at fixed pulse shape
    for eps in (0.8, 1.0, 1.2):
        assert worst[(0.0, eps)] < worst[(2.0, eps)] < worst[(5.0, eps)]


def test_crossing_phase_equals_minus_signed_area():
    p = SystemParams(g0=orc.G60, epsilon=0.9)
    measured = check_crossing_phase(p, 0)
    diff = abs(wrap_angle(measured + theta_angle(0, p)))
    assert diff == pytest.approx(orc.CROSSING_PHASE_DIFF[0.90], abs=1e-4)
    assert diff < 5e-3


def test_crossing_phase_guards():
    with pytest.raises(UnsupportedRegimeError):
        check_crossing_phase(SystemParams(g0=orc.G60, detuning=1.0), 0)
    with pytest.raises(ValueError):
        check_crossing_phase(SystemParams(g0=orc.G60), -1)
    with pytest.raises(NonAdiabaticError):
        check_crossing_phase(SystemParams(g0=3.0, epsilon=0.9), 0)


def test_fidelity_and_populations_agree_across_state_kinds():
    basis = manifold_basis(1)
    amp = np.array([0.6, 0.0, 0.8j])
    state = PureState(basis, amp)
    target = PureState.from_label(basis, (1, "g", "g"))
    assert fidelity(state, target) == pytest.approx(0.8)
    rho = DensityMatrix.from_pure(state)
    assert fidelity(rho, target) == pytest.approx(0.8)
    labels = [(0, "g", "e"), (1, "g", "g")]
    np.testing.assert_allclose(populations(state, labels), [0.36, 0.64])
    np.testing.assert_allclose(populations(rho, labels), [0.36, 0.64])
    other = PureState.from_label(manifold_basis(2), (0, "e", "e"))
    with pytest.raises(BasisMismatchError):
        fidelity(state, other)


def test_maximal_target_reduces_to_coin_flip():
    state = maximal_target(FullBasis(2))
    rho1 = reduced_state(state, ("atom1",))
    np.testing.assert_allclose(rho1.matrix, 0.5 * np.eye(2), atol=1e-12)
    assert entanglement_entropy(rho1) == pytest.approx(1.0, abs=1e-12)


def test_reduced_state_spectrum_of_partly_entangled_pair():
    c, s = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    basis = manifold_basis(2)
    amp = np.zeros(4, dtype=complex)
    amp[0] = c  # |0,ee>
    amp[3] = s  # |2,gg>
    state = PureState(basis, amp)
    expect = np.sort([(2.0 - math.sqrt(2.0)) / 4.0,
                      (2.0 + math.sqrt(2.0)) / 4.0])
    rho1 = reduced_state(state, "atom1")
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rho1.matrix)),
                               expect, atol=1e-12)
    # complementary cut of a pure state carries the same spectrum
    rho_rest = reduced_state(state, ("cavity", "atom2"))
    eigs = np.sort(np.linalg.eigvalsh(rho_rest.matrix))
    np.testing.assert_allclose(eigs[-2:], expect, atol=1e-12)
    assert rho_rest.trace == pytest.approx(1.0, abs=1e-12)


def test_reduced_state_keep_validation():
    state = maximal_target(FullBasis(1))
    with pytest.raises(ValueError):
        reduced_state(state, ())
    with pytest.raises(ValueError):
        reduced_state(state, ("qubit",))

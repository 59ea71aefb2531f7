"""Coupling envelopes and Hamiltonian assembly."""

import math

import numpy as np
import pytest

from cavitypair.hamiltonian import (
    coupling_pair,
    full_hamiltonian,
    full_parts,
    manifold_hamiltonian,
)
from cavitypair.model import (
    FullBasis,
    PureState,
    SystemParams,
    embed,
    manifold_basis,
)
from cavitypair.spectrum import diagonalize


@pytest.fixture()
def params():
    return SystemParams(g0=2.0, epsilon=0.8, sigma=1.5, delta=1.0)


def test_coupling_analytic_values(params):
    # atom 1 peaks at tau = -delta, atom 2 at +delta
    assert coupling_pair(-2.0 * params.sigma, params)[0] == pytest.approx(2.0)
    assert coupling_pair(2.0 * params.sigma, params)[1] == pytest.approx(1.6)
    eta1, eta2 = coupling_pair(0.0, params)
    assert eta1 == pytest.approx(2.0 * math.exp(-1.0))
    assert eta2 == pytest.approx(1.6 * math.exp(-1.0))


def test_far_tail_is_exactly_zero(params):
    # the envelope is cut once the exponent passes 50
    assert coupling_pair(1e6, params)[0] == 0.0
    assert coupling_pair(-1e6, params)[1] == 0.0


def test_manifold_hamiltonian_structure(params):
    basis = manifold_basis(2)
    h = manifold_hamiltonian(0.0, params, basis)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
    assert np.allclose(np.diag(h), 0.0)  # resonant: no diagonal energy
    eta1, eta2 = coupling_pair(0.0, params)
    # |0,ee> couples to |1,ge> by releasing atom 1's excitation
    assert h[0, 1] == pytest.approx(math.sqrt(1.0) * eta1)
    assert h[0, 2] == pytest.approx(math.sqrt(1.0) * eta2)
    # |1,ge> -> |2,gg>: atom 2 emits into a cavity holding one photon
    assert h[1, 3] == pytest.approx(math.sqrt(2.0) * eta2)
    assert h[2, 3] == pytest.approx(math.sqrt(2.0) * eta1)


def test_detuning_enters_diagonal(params):
    # blocks drop a constant offset, so the diagonal reads (+1, 0, 0, -1)
    p = params.replace(detuning=0.7)
    basis = manifold_basis(2)
    h = manifold_hamiltonian(1.0, p, basis)
    h0 = manifold_hamiltonian(1.0, params, basis)
    np.testing.assert_allclose(h - h0,
                               np.diag([0.7, 0.0, 0.0, -0.7]), atol=1e-15)


def test_full_agrees_with_manifold_blocks(params):
    full = FullBasis(3)
    for n_exc in (1, 2):
        basis = manifold_basis(n_exc)
        rng = np.random.default_rng(n_exc)
        v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        state = embed(PureState(basis, v), full)
        hv_full = full_hamiltonian(0.37, params, full) @ state.amplitudes
        hv_block = manifold_hamiltonian(0.37, params, basis) @ v
        expected = embed(PureState(basis, hv_block), full)
        np.testing.assert_allclose(hv_full, expected.amplitudes, atol=1e-12)


def test_excitation_commutes(params):
    full = FullBasis(3)
    h = full_hamiltonian(0.2, params.replace(detuning=3.0), full)
    n_exc = np.diag([float(full.excitation(l)) for l in full.labels])
    comm = h @ n_exc - n_exc @ h
    assert np.max(np.abs(comm)) < 1e-12


def test_full_parts_ladder():
    full = FullBasis(3)
    _, _, _, a = full_parts(full)
    n_op = a.T @ a
    # a lowers the photon number by one with amplitude sqrt(m)
    for m, s1, s2 in full.labels:
        i = full.index((m, s1, s2))
        assert n_op[i, i] == pytest.approx(float(m))


def test_eigendecomposition_phase_convention(params):
    basis = manifold_basis(2)
    w, v = diagonalize(0.8, params, basis)
    assert np.all(np.diff(w) >= -1e-12)
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        assert v[k, j].real > 0.0
        assert abs(v[k, j].imag) < 1e-12

"""Bases, states, and parameter validation."""

import math

import numpy as np
import pytest

from cavitypair.model import (
    BasisMismatchError,
    DensityMatrix,
    FullBasis,
    PureState,
    SystemParams,
    TruncationError,
    embed,
    manifold_basis,
    restrict,
)


def test_params_defaults_and_window():
    p = SystemParams(g0=2.0, sigma=3.0)
    assert p.t_span == (-36.0, 36.0)
    assert p.g1 == 2.0 and p.g2 == 2.0  # epsilon defaults to 1
    assert p.tau(6.0) == 1.0


@pytest.mark.parametrize("bad", [
    {"g0": -1.0},
    {"g0": 1.0, "epsilon": -0.5},
    {"g0": 1.0, "sigma": 0.0},
    {"g0": 1.0, "gamma": -1e-9},
    {"g0": 1.0, "n_max": -1},
    {"g0": 1.0, "t_span": (1.0, 0.0)},
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        SystemParams(**bad)


def test_replace_is_functional():
    p = SystemParams(g0=1.0)
    q = p.replace(epsilon=0.9)
    assert q.epsilon == 0.9 and p.epsilon == 1.0


def test_manifold_block_ordering():
    b = manifold_basis(2)
    assert b.labels == ((0, "e", "e"), (1, "g", "e"), (1, "e", "g"),
                        (2, "g", "g"))
    assert b.dim == 4 and b.n == 0
    # one excitation: the doubly-excited member falls out
    b1 = manifold_basis(1)
    assert b1.labels == ((0, "g", "e"), (0, "e", "g"), (1, "g", "g"))
    assert b1.dim == 3
    assert manifold_basis(0).dim == 1
    with pytest.raises(ValueError):
        manifold_basis(-1)


def test_full_basis_indexing():
    full = FullBasis(3)
    assert full.size == 16
    for i, label in enumerate(full.labels):
        assert full.index(label) == i
    assert full.excitation((2, "e", "g")) == 3
    with pytest.raises(TruncationError):
        full.index((4, "g", "g"))


def test_full_basis_layout_is_photon_major_excited_first():
    # index = 4*m + 2*(s1 == 'g') + (s2 == 'g')
    full = FullBasis(3)
    assert full.index((0, "e", "e")) == 0
    assert full.index((0, "e", "g")) == 1
    assert full.index((0, "g", "e")) == 2
    assert full.index((0, "g", "g")) == 3
    assert full.index((1, "e", "e")) == 4


def test_pure_state_norm_overlap():
    b = manifold_basis(1)
    s = PureState(b, np.array([3.0, 0.0, 4.0j]))
    assert s.norm == pytest.approx(5.0)
    n = s.normalized()
    assert n.norm == pytest.approx(1.0)
    t = PureState.from_label(b, (1, "g", "g"))
    assert n.overlap(t) == pytest.approx(-0.8j)  # conj falls on self


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState(manifold_basis(1), np.zeros(4, dtype=complex))


def test_density_matrix_validation():
    full = FullBasis(1)
    rho = DensityMatrix.from_pure(
        PureState.from_label(full, (0, "g", "g")))
    rho.validate()
    assert rho.trace == pytest.approx(1.0)
    assert rho.purity() == pytest.approx(1.0)

    bad_trace = DensityMatrix(full, 0.5 * rho.matrix)
    with pytest.raises(ValueError):
        bad_trace.validate()

    herm = rho.matrix.copy()
    herm[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityMatrix(full, herm).validate()

    neg = rho.matrix.copy()
    neg[0, 0] -= 2e-3
    neg[5, 5] += 2e-3
    neg[0, 5] = neg[5, 0] = 0.1  # pushes one eigenvalue negative
    with pytest.raises(ValueError):
        DensityMatrix(full, neg).validate()


def test_purity_of_partially_entangled_pair():
    # cos(pi/8)|0,ee> + sin(pi/8)|1,gg>: subsystem purity cos^4 + sin^4
    full = FullBasis(1)
    amp = np.zeros(full.size, dtype=complex)
    amp[full.index((0, "e", "e"))] = math.cos(math.pi / 8)
    amp[full.index((1, "g", "g"))] = math.sin(math.pi / 8)
    rho = DensityMatrix.from_pure(PureState(full, amp))
    assert rho.purity() == pytest.approx(1.0)

    from cavitypair.analysis import reduced_state
    atom1 = reduced_state(PureState(full, amp), ("atom1",))
    assert atom1.purity() == pytest.approx(0.75, abs=1e-12)


def test_embed_restrict_round_trip():
    b = manifold_basis(2)
    full = FullBasis(3)
    v = PureState(b, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
    up = embed(v, full)
    assert up.norm == pytest.approx(1.0)
    back = restrict(up, b)
    np.testing.assert_allclose(back.amplitudes, v.amplitudes)


def test_embed_rejects_overflow_and_mismatch():
    with pytest.raises(TruncationError):
        embed(PureState.from_label(manifold_basis(6), (6, "g", "g")),
              FullBasis(3))
    full_state = PureState.from_label(FullBasis(2), (0, "g", "g"))
    with pytest.raises(BasisMismatchError):
        embed(full_state, FullBasis(2))
    with pytest.raises(BasisMismatchError):
        restrict(PureState.from_label(manifold_basis(1), (1, "g", "g")),
                 manifold_basis(1))

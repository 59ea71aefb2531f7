"""Release gate: every criterion measured at its stated tolerance.

Each test computes its quantity from scratch, records one PASS/FAIL line
for the terminal summary, and then asserts.  The operating points are
finite: g0 sigma is a few tens and the loss rate is non-zero.  Where a
claim is an asymptotic law, the test compares the measurement with the
law's leading correction.  The test computes that correction itself
from the Hamiltonian, without the propagators it checks:

* criterion 3 compares the fidelity lost to weak photon decay with the
  first-order loss coefficient taken along the loss-free trajectory;
* criterion 5 compares the resonant transit maps with the adiabatic
  table whose top-branch area carries the leading superadiabatic phase
  (M. V. Berry, Proc. R. Soc. A 414, 31 (1987)).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import _oracles as orc
import _report
from cavitypair.analysis import (
    check_crossing_phase,
    check_input_output,
    fidelity,
    populations,
    scatter_matrix,
)
from cavitypair.cli import main
from cavitypair.dynamics import (
    oracle_propagate,
    propagate_lindblad,
    propagate_schrodinger,
)
from cavitypair.hamiltonian import (
    coupling_pair,
    full_parts,
    manifold_hamiltonian,
    manifold_parts,
)
from cavitypair.model import (
    DensityMatrix,
    FullBasis,
    PureState,
    SystemParams,
    manifold_basis,
)
from cavitypair.protocols import (
    default_stages,
    entangle_atoms,
    initial_product_state,
    maximal_target,
    teleport,
)
from cavitypair.spectrum import (
    closed_form_energies,
    mixing_angles,
    phi_angle,
    phi_asymptote,
    theta_angle,
    theta_big,
    wrap_angle,
)


def _check(number: int, ok: bool, detail: str) -> None:
    _report.record(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


def _entangle_fidelity(**kwargs) -> float:
    return float(entangle_atoms(SystemParams(g0=orc.G60, **kwargs))[1])


def _first_order_loss_slope(params: SystemParams) -> float:
    """-dF/d(gamma) at gamma = 0 for the entangling transit.

    To first order in gamma the target population P = F^2 changes by
    gamma times the integral over t of
    |<phi|a|psi>|^2 - Re(<phi|a^dag a|psi> <psi|phi>), where psi(t) runs
    forward from the product state and phi(t) runs backward from the
    target, both on the loss-free Hamiltonian.  Both are stepped with
    the exact exponential of the Hamiltonian frozen at each step
    midpoint (step sigma / 200); no Lindblad integrator is involved.
    """
    basis = FullBasis(params.n_max)
    x1, x2, d, a = full_parts(basis)
    t0, t1 = params.t_span
    n_steps = math.ceil((t1 - t0) / (params.sigma / 200.0))
    dt = (t1 - t0) / n_steps
    mids = t0 + (np.arange(n_steps) + 0.5) * dt
    eta = np.array([coupling_pair(t, params) for t in mids])
    h = (eta[:, 0, None, None] * x1 + eta[:, 1, None, None] * x2
         + params.detuning * d)
    w, v = np.linalg.eigh(h)
    steps = (v * np.exp(-1j * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)

    psi = np.empty((n_steps + 1, basis.size), dtype=complex)
    phi = np.empty_like(psi)
    psi[0] = initial_product_state(basis).amplitudes
    phi[-1] = maximal_target(basis).amplitudes
    for k in range(n_steps):
        psi[k + 1] = steps[k] @ psi[k]
    for k in range(n_steps - 1, -1, -1):
        phi[k] = steps[k].conj().T @ phi[k + 1]

    overlap = np.einsum("ki,ki->k", phi.conj(), psi)
    jump = np.einsum("ki,ij,kj->k", phi.conj(), a, psi)
    count = np.einsum("ki,ij,kj->k", phi.conj(), a.T @ a, psi)
    rate = np.abs(jump) ** 2 - np.real(count * overlap.conj())
    d_pop = float(np.sum(0.5 * (rate[1:] + rate[:-1])) * dt)
    return -d_pop / (2.0 * abs(overlap[-1]))


def _superadiabatic_phase(n: int, params: SystemParams) -> float:
    """Leading superadiabatic correction to the top-branch area of block n.

    One step of adiabatic iteration shifts the top level by
    sum_{m != top} |<m|dH/dt|top>|^2 / (E_top - E_m)^3, which is of order
    1/(g0 sigma^2); its integral over the window adds to phi.  The
    resonant block is diagonalized at each instant, and dH/dt comes from
    the analytic derivative of the Gaussian couplings.
    """
    x1, x2, _ = manifold_parts(manifold_basis(n + 2))

    def shift(t: float) -> float:
        eta1, eta2 = coupling_pair(t, params)
        tau = params.tau(t)
        w, v = np.linalg.eigh(eta1 * x1 + eta2 * x2)
        dh = -((tau + params.delta) * eta1 * x1
               + (tau - params.delta) * eta2 * x2) / params.sigma
        c = v.T @ dh @ v[:, -1]
        return float(np.sum(c[:-1] ** 2 / (w[-1] - w[:-1]) ** 3))

    peaks = [s * 2.0 * params.sigma * params.delta for s in (-1.0, 1.0)]
    value, _ = quad(shift, *params.t_span, points=peaks,
                    epsabs=1e-12, epsrel=1e-10, limit=400)
    return value


@pytest.fixture(scope="module")
def stages():
    return default_stages()


def test_criterion_01_symmetric_transit_entangles():
    fid = _entangle_fidelity()
    _check(1, fid > 0.999,
           f"maximal-entanglement fidelity {fid:.6f} at the 60 pi "
           f"operating point (needs > 0.999)")


def test_criterion_02_asymmetry_collapses_and_revives():
    f = {eps: _entangle_fidelity(epsilon=eps)
         for eps in (1.0, 0.99, 0.968, 0.94)}
    clauses = [
        0.7 < f[0.99] < 0.9,
        f[0.968] < 0.1,
        f[0.94] > 0.9,          # revival lobe
        f[0.94] < f[1.0],       # under a decaying envelope
    ]
    detail = (f"F(eps=0.99) = {f[0.99]:.4f} in (0.7, 0.9); "
              f"node F(0.968) = {f[0.968]:.4f} < 0.1; "
              f"revival F(0.94) = {f[0.94]:.4f} > 0.9 "
              f"yet below F(1.0) = {f[1.0]:.5f}")
    _check(2, all(clauses), detail)


def test_criterion_03_photon_loss_budget():
    p = SystemParams(g0=orc.G40)
    f = {g: float(entangle_atoms(p.replace(gamma=g))[1])
         for g in (0.0, 1e-3, 0.125)}
    secant = (f[0.0] - f[1e-3]) / 1e-3
    slope = _first_order_loss_slope(p)
    gap = abs(secant / slope - 1.0)
    clause_small = gap < 0.01
    clause_large = 0.85 < f[0.125] < 0.90
    detail = (
        f"weak loss: (F(0) - F(gamma sigma = 1e-3)) / 1e-3 = {secant:.4f} "
        f"against the first-order coefficient {slope:.4f} from the "
        f"loss-free trajectory, off by {gap:.2%} (needs < 1%); "
        f"F(0.125) = {f[0.125]:.6f} (needs 0.85..0.90)")
    _check(3, clause_small and clause_large, detail)


def test_criterion_04_detuning_switches_the_transit_off():
    fid = _entangle_fidelity(detuning=2.0)
    base = SystemParams(g0=50.0, t_span=(-6.0, 6.0))
    basis = manifold_basis(2)
    psi = PureState.from_label(basis, (1, "e", "g"))
    pops = {}
    for det in (20.0, 100.0):
        out = propagate_schrodinger(psi, base.replace(detuning=det))
        pops[det] = np.abs(out.amplitudes) ** 2
    spread = int(np.sum(pops[20.0] > 0.05))
    frozen = float(pops[100.0][0] + pops[100.0][3])
    clauses = [fid < 0.5, spread >= 3, frozen < 0.05]
    detail = (f"F(detuning sigma = 2) = {fid:.4f} < 0.5; at 20 the "
              f"transit spreads over {spread} bare states above 0.05; "
              f"at 100 the even sector keeps {frozen:.4f} < 0.05 "
              f"(excitation swap only)")
    _check(4, all(clauses), detail)


def test_criterion_05_resonant_transit_maps():
    p = SystemParams(g0=orc.G60)
    bare, resid, shift = {}, {}, {}
    for n in (-1, 0, 1):
        s = scatter_matrix(p, n + 2)
        angles = mixing_angles(n, p)
        dphi = _superadiabatic_phase(n, p)
        corrected = dataclasses.replace(angles, phi=angles.phi + dphi)
        bare[n] = check_input_output(s, angles, "resonant-symmetric").residual
        resid[n] = check_input_output(s, corrected,
                                      "resonant-symmetric").residual
        shift[n] = dphi * p.g0 * p.sigma
    p9 = p.replace(epsilon=0.9)
    s9 = scatter_matrix(p9, 2)
    excited = check_input_output(
        s9, mixing_angles(0, p9),
        "resonant-asymmetric").sector_residuals["excited"]
    clause_sym = all(r < 5e-3 for r in resid.values())
    clause_exc = excited < 5e-3
    detail = (
        "symmetric-map residuals against the table with phi + dphi: "
        + ", ".join(f"n={n}: {resid[n]:.3e} (bare phi {bare[n]:.3e}, "
                    f"dphi g0 sigma = {shift[n]:.3f})" for n in sorted(resid))
        + f" (needs < 5e-3 each); asymmetric excited-sector residual "
        f"{excited:.3e} (needs < 5e-3)")
    _check(5, clause_sym and clause_exc, detail)


def test_criterion_06_dispersive_swap():
    p = SystemParams(g0=80.0, detuning=800.0)
    s = scatter_matrix(p, 1)
    report = check_input_output(s, mixing_angles(-1, p), "large-detuning")
    big = theta_big(p)
    wrap_diff = abs(wrap_angle(report.measured_angle - big))
    clause_phase = wrap_diff < 0.05 * big

    dark_col = np.array([0.0, -1.0, 0.0], dtype=complex)
    dark = {}
    for det in (0.0, 2.0, 5.0):
        sd = scatter_matrix(SystemParams(g0=80.0, detuning=det), 1)
        dark[det] = float(np.max(np.abs(sd.matrix[:, 0] - dark_col)))
    clause_dark = all(r < 5e-3 for r in dark.values())

    detail = (
        f"swap phase off the dispersive prediction by {wrap_diff:.4f} rad "
        f"(allowed {0.05 * big:.3f} = 5% of Theta = {big:.3f}); "
        "dark-passage residuals at g0 sigma = 80: "
        + ", ".join(f"detuning {d:g}: {r:.3e}" for d, r in sorted(dark.items()))
        + " (all < 5e-3)")
    _check(6, clause_phase and clause_dark, detail)


def test_criterion_07_large_n_asymptote():
    p = SystemParams(g0=orc.G60)
    ratios = {n: phi_angle(n, p) / phi_asymptote(n, p)
              for n in (100, 1000, 10000)}
    clauses = [
        0.99 < ratios[10000] < 1.01,
        ratios[100] > ratios[1000] > ratios[10000] > 1.0,
    ]
    detail = ("area / (4 g0 sigma sqrt(n pi)) = "
              + ", ".join(f"{n}: {r:.6f}" for n, r in sorted(ratios.items()))
              + "; within 1% at n = 10^4 and decreasing toward 1")
    _check(7, all(clauses), detail)


def test_criterion_08_crossing_phase_jump():
    diffs = {}
    for eps in (0.85, 0.90, 0.95):
        p = SystemParams(g0=orc.G60, epsilon=eps)
        measured = check_crossing_phase(p, 0)
        diffs[eps] = abs(wrap_angle(measured + theta_angle(0, p)))
    detail = ("|wrap(measured phase + signed area)| = "
              + ", ".join(f"eps={e}: {d:.2e}" for e, d in sorted(diffs.items()))
              + " (needs < 0.05 rad each)")
    _check(8, all(d < 0.05 for d in diffs.values()), detail)


def test_criterion_09_numerical_contracts(tmp_path):
    notes = []
    ok = True

    # unitary propagation conserves the norm and matches the audit route
    p = SystemParams(g0=5.0, epsilon=0.8)
    basis = manifold_basis(1)
    start = PureState.from_label(basis, (0, "e", "g"))
    fast = propagate_schrodinger(start, p)
    slow = oracle_propagate(start, p, step=p.sigma / 2000.0)
    fdiff = abs(1.0 - abs(fast.overlap(slow)) ** 2)
    ok &= abs(fast.norm - 1.0) < 1e-12 and fdiff < 1e-6
    notes.append(f"two-route fidelity gap {fdiff:.1e}")

    # excitation number is conserved across blocks
    full = FullBasis(3)
    amp = np.zeros(full.size, dtype=complex)
    for label in ((0, "e", "e"), (1, "g", "e"), (2, "g", "g")):
        amp[full.index(label)] = 1.0 / math.sqrt(3.0)
    out = propagate_schrodinger(PureState(full, amp),
                                SystemParams(g0=5.0, detuning=3.0))
    stray = sum(abs(out.amplitudes[i]) ** 2
                for i, label in enumerate(full.labels)
                if full.excitation(label) != 2)
    ok &= stray < 1e-10
    notes.append(f"off-block leakage {stray:.1e}")

    # dissipative propagation keeps the state physical
    rho = DensityMatrix.from_pure(PureState.from_label(full, (1, "e", "g")))
    final = propagate_lindblad(rho, SystemParams(g0=5.0, gamma=0.1,
                                                 t_span=(-6.0, 6.0)))
    eig_floor = float(np.linalg.eigvalsh(final.matrix).min())
    ok &= abs(final.trace - 1.0) < 1e-8 and eig_floor > -1e-7
    notes.append(f"trace drift {abs(final.trace - 1.0):.1e}, "
                 f"eigenvalue floor {eig_floor:.1e}")

    # the transit map is unitary
    defect = scatter_matrix(SystemParams(g0=orc.G60), 1).unitarity_defect
    ok &= defect < 1e-6
    notes.append(f"transit-map unitarity defect {defect:.1e}")

    # closed-form energies match direct diagonalization
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 3))
        ps = SystemParams(g0=float(rng.uniform(1.0, 100.0)),
                          epsilon=float(rng.uniform(0.5, 1.5)),
                          delta=float(rng.uniform(0.0, 2.0)))
        t = float(rng.uniform(-8.0, 8.0))
        exact = np.sort(closed_form_energies(t, ps, n))
        num = np.linalg.eigvalsh(
            manifold_hamiltonian(t, ps, manifold_basis(n + 2)))
        worst = max(worst, float(np.max(np.abs(exact - num))) / ps.g0)
    ok &= worst < 1e-9
    notes.append(f"closed-form vs eigh {worst:.1e} g0")

    # a repeated run writes identical bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["angles", "--n", "0", "--out", str(a)])
    main(["angles", "--n", "0", "--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    ok &= same
    notes.append("rerun bytes identical" if same else "rerun bytes differ")

    _check(9, bool(ok), "; ".join(notes))


def test_criterion_10_payload_transfer(stages):
    rng = np.random.default_rng(7)
    worst = 1.0
    for _ in range(10):
        raw = rng.normal(size=4)
        alpha = complex(raw[0], raw[1])
        beta = complex(raw[2], raw[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        result = teleport(alpha / norm, beta / norm, stages)
        worst = min(worst, result.fidelity)

    zero = teleport(1.0, 0.0, stages).final_state.amplitudes
    one = teleport(0.0, 1.0, stages).final_state.amplitudes
    both = teleport(0.6, 0.8j, stages).final_state.amplitudes
    lin = float(np.max(np.abs(both - (0.6 * zero + 0.8j * one))))

    clauses = [worst > 0.995, lin < 1e-6]
    detail = (f"worst payload fidelity {worst:.6f} over 10 random "
              f"payloads (needs > 0.995); linearity residual {lin:.1e} "
              f"< 1e-6")
    _check(10, all(clauses), detail)

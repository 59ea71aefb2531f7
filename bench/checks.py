"""Output checks for the benchmark, written apart from the library.

Nothing here imports ``cavitypair.hamiltonian`` or ``cavitypair.dynamics``.
The Hamiltonians are assembled from the paper's couplings with Kronecker
products; the pure-state integrator is a fixed-step fourth-order Magnus
scheme (two Gauss points, exact exponential of the Hermitian exponent); the
Lindblad integrator splits the cavity loss off the coherent step (Strang)
on the 8 states with at most two excitations.  Basis labels and their order
come from ``cavitypair.model``, which only names the states.

Every check raises :class:`CheckError` with the number that failed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

G60 = 28.392906  # entangling operating point: phi(-1) = 60 pi
G40 = 18.928604  # photon-loss operating point: phi(-1) = 40 pi

# Agreement with the benchmark's own integrators.  Over 40 random points
# of each workload's ranges the gaps were below 1e-8 (pure) and 4e-8
# (Lindblad); the bounds leave a factor of 100 and still catch 1e-5.
PURE_TOL = 2e-6
LINDBLAD_TOL = 5e-6
TRACE_TOL = 1e-8  # the library's own trace contract
UNITARITY_TOL = 1e-8
EIG_FLOOR = -1e-8
ENERGY_TOL = 1e-9  # in units of g0
ANGLE_TOL = 1e-6  # rad, quadratures of the adiabatic branches
CROSSING_PHASE_TOL = 0.05  # rad
ENTANGLE_F_MIN = 0.999
TELEPORT_F_MIN = 0.995


class CheckError(AssertionError):
    """A library output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# couplings and Hamiltonians

def couplings(t, g0: float, epsilon: float, delta: float = 1.0,
              sigma: float = 1.0):
    """Gaussian couplings of the two atoms at time(s) t (atom 1 first)."""
    tau = np.asarray(t, dtype=float) / (2.0 * sigma)
    return (g0 * np.exp(-(tau + delta) ** 2),
            epsilon * g0 * np.exp(-(tau - delta) ** 2))


_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # atom basis (g, e)
_ATOM_INDEX = {"g": 0, "e": 1}


def _operators(n_ph: int):
    """(X1, X2, D, a) on photon x atom1 x atom2, photons 0..n_ph-1."""
    a = np.diag(np.sqrt(np.arange(1.0, n_ph)), 1)
    i2, ip = np.eye(2), np.eye(n_ph)
    sm1 = np.kron(ip, np.kron(_SIGMA_MINUS, i2))
    sm2 = np.kron(ip, np.kron(i2, _SIGMA_MINUS))
    big_a = np.kron(a, np.eye(4))
    x1 = big_a.T @ sm1 + sm1.T @ big_a
    x2 = big_a.T @ sm2 + sm2.T @ big_a
    d = sm1.T @ sm1 + sm2.T @ sm2
    return x1, x2, d, big_a


def _product_index(label) -> int:
    m, s1, s2 = label
    return 4 * m + 2 * _ATOM_INDEX[s1] + _ATOM_INDEX[s2]


class Space:
    """Hamiltonian pieces on a list of (photons, atom1, atom2) labels.

    ``offset`` is subtracted from the detuning term: the library's block
    Hamiltonians sit ``detuning * I`` below the full-space operator on
    every block with at least one excitation.
    """

    def __init__(self, labels, offset: float = 0.0):
        self.labels = tuple(labels)
        n_ph = max(m for m, _, _ in self.labels) + 2
        x1, x2, d, a = _operators(n_ph)
        idx = [_product_index(l) for l in self.labels]
        sub = np.ix_(idx, idx)
        self.x1, self.x2 = x1[sub], x2[sub]
        self.d = d[sub] - offset * np.eye(len(idx))
        self.a = a[sub]
        self.dim = len(idx)

    def hamiltonians(self, t, g0, epsilon, detuning, delta=1.0, sigma=1.0):
        """H at every time in t, shape (len(t), dim, dim)."""
        e1, e2 = couplings(t, g0, epsilon, delta, sigma)
        return (e1[:, None, None] * self.x1 + e2[:, None, None] * self.x2
                + detuning * self.d)


def block_space(labels, n_exc: int) -> Space:
    """The library's fixed-excitation block in the given label order."""
    return Space(labels, offset=1.0 if n_exc >= 1 else 0.0)


def block_eigvalsh(labels, n_exc, t, g0, epsilon, detuning, delta=1.0):
    space = block_space(labels, n_exc)
    return np.linalg.eigvalsh(space.hamiltonians(t, g0, epsilon, detuning,
                                                 delta))


# ---------------------------------------------------------------------------
# fixed-step integrators

_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def magnus_steps(space: Space, t0, t1, g0, epsilon, detuning, step,
                 delta=1.0):
    """Fourth-order Magnus step unitaries across [t0, t1], in time order."""
    n = max(1, math.ceil((t1 - t0) / step))
    h = (t1 - t0) / n
    mids = t0 + (np.arange(n) + 0.5) * h
    h1 = space.hamiltonians(mids - _GAUSS_OFFSET * h, g0, epsilon, detuning,
                            delta)
    h2 = space.hamiltonians(mids + _GAUSS_OFFSET * h, g0, epsilon, detuning,
                            delta)
    comm = h2 @ h1 - h1 @ h2
    k = 0.5 * h * (h1 + h2) - 1j * (math.sqrt(3.0) * h * h / 12.0) * comm
    w, v = np.linalg.eigh(k)
    return (v * np.exp(-1j * w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def default_step(g0, epsilon, detuning, n_exc=2) -> float:
    """Step that keeps (step * spectral radius) near 0.4 or below."""
    scale = abs(detuning) + 2.0 * g0 * max(1.0, epsilon) * math.sqrt(n_exc + 1)
    return min(1.0 / 100.0, 0.4 / scale)


def propagate(space: Space, psi, t_span, g0, epsilon, detuning, step=None,
              delta=1.0):
    """Pure state (vector) or transit map (matrix) after the window."""
    step = step or default_step(g0, epsilon, detuning)
    out = np.array(psi, dtype=complex)
    for u in magnus_steps(space, t_span[0], t_span[1], g0, epsilon, detuning,
                          step, delta):
        out = u @ out
    return out


def lindblad(space: Space, rho, t_span, g0, epsilon, detuning, gamma,
             step=None, delta=1.0):
    """Density matrix after the window, with cavity loss at rate gamma.

    Strang splitting: half a loss step, one Magnus step of the coherent
    part, half a loss step.  The loss step is the exact exponential of the
    time-independent dissipator.  The default step is half the pure-state
    one: at the full step the result was off by 2.1e-5 at epsilon 1.0376,
    gamma 0.073, and by 1e-8 at half of it.
    """
    step = step or default_step(g0, epsilon, detuning) / 2.0
    n = max(1, math.ceil((t_span[1] - t_span[0]) / step))
    h = (t_span[1] - t_span[0]) / n
    dim = space.dim
    a = space.a
    n_op = a.T @ a
    eye = np.eye(dim)
    # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
    dissipator = gamma * (np.kron(a, a) - 0.5 * np.kron(n_op, eye)
                          - 0.5 * np.kron(eye, n_op))
    half_loss = expm(0.5 * h * dissipator)
    y = np.array(rho, dtype=complex).ravel()
    for u in magnus_steps(space, t_span[0], t_span[1], g0, epsilon, detuning,
                          h, delta):
        r = (half_loss @ y).reshape(dim, dim)
        y = (u @ r @ u.conj().T).ravel()
        y = half_loss @ y
    return y.reshape(dim, dim)


# ---------------------------------------------------------------------------
# quadratures of the adiabatic branches

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def gauss_legendre(f, a: float, b: float, panels: int = 400) -> float:
    """Composite 16-point Gauss-Legendre rule; f takes an array of times."""
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    vals = np.asarray(f(t)).reshape(panels, _GL_X.size)
    return float(np.sum(half * (vals @ _GL_W)))


QUAD_SPAN = 14.0  # couplings are below 1e-15 g0 beyond this many sigma


def top_branch_area(labels, n_exc, g0, epsilon, delta=1.0) -> float:
    """Transit area of the highest resonant block eigenvalue."""
    return gauss_legendre(
        lambda t: block_eigvalsh(labels, n_exc, t, g0, epsilon, 0.0,
                                 delta)[:, -1],
        -QUAD_SPAN, QUAD_SPAN)


def crossing_t(epsilon: float, delta: float = 1.0) -> float:
    return 2.0 * (-math.log(epsilon) / (4.0 * delta))


def inner_branch_signed_area(labels, n_exc, g0, epsilon, delta=1.0) -> float:
    """Area of the upper inner branch after the crossing minus before it.

    On resonance the sorted 4-state spectrum is (-E+, -E-, +E-, +E+); the
    inner pair touches zero at the crossing, so each side is integrated
    on its own and stays smooth.
    """
    t_c = crossing_t(epsilon, delta)

    def e_minus(t):
        return block_eigvalsh(labels, n_exc, t, g0, epsilon, 0.0, delta)[:, 2]

    return (gauss_legendre(e_minus, t_c, QUAD_SPAN)
            - gauss_legendre(e_minus, -QUAD_SPAN, t_c))


def wrap(x: float) -> float:
    return math.remainder(x, 2.0 * math.pi)


def big_theta(g0, epsilon, detuning, sigma=1.0) -> float:
    """Gaussian integral of (eta1^2 + eta2^2) / detuning over all time."""
    return (2.0 * sigma * g0 ** 2 * (1.0 + epsilon ** 2)
            * math.sqrt(math.pi / 2.0) / detuning)


# ---------------------------------------------------------------------------
# checks on library outputs

def check_close(name: str, got, want, tol: float) -> None:
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    require(gap <= tol, f"{name}: off by {gap:.3e} (tolerance {tol:.1e})")


def check_norm(name: str, amplitudes, tol: float = 1e-9) -> None:
    norm = float(np.linalg.norm(amplitudes))
    require(abs(norm - 1.0) <= tol, f"{name}: norm {norm!r} is not 1")


def check_unitary(name: str, matrix, tol: float = UNITARITY_TOL) -> None:
    m = np.asarray(matrix)
    defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    require(defect <= tol, f"{name}: unitarity defect {defect:.3e}")


def check_density(name: str, rho) -> None:
    """Trace one, Hermitian, no eigenvalue below the floor."""
    rho = np.asarray(rho)
    tr = np.trace(rho)
    require(abs(tr - 1.0) <= TRACE_TOL, f"{name}: trace {tr!r} is not 1")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    require(herm <= 1e-12, f"{name}: not Hermitian by {herm:.3e}")
    low = float(np.linalg.eigvalsh(rho).min())
    require(low >= EIG_FLOOR, f"{name}: eigenvalue {low:.3e} below floor")


def check_fidelity(name: str, reported: float, recomputed: float,
                   tol: float = 1e-9) -> None:
    require(abs(reported - recomputed) <= tol,
            f"{name}: reported fidelity {reported!r}, "
            f"recomputed {recomputed!r}")


def check_falling(name: str, gammas, fids) -> None:
    """Fidelity must fall as the loss rate rises."""
    order = np.argsort(gammas)
    f = np.asarray(fids)[order]
    require(bool(np.all(np.diff(f) < 0.0)),
            f"{name}: fidelity does not fall with gamma: "
            f"{[round(float(x), 6) for x in f]}")


def check_crossings(name: str, crossings, tau_c: float,
                    tol: float = 1e-6) -> None:
    """Exactly one exact crossing, at tau_c."""
    taus = [c.tau for c in crossings]
    require(len(taus) == 1,
            f"{name}: {len(taus)} exact crossings, expected one")
    require(abs(taus[0] - tau_c) <= tol,
            f"{name}: crossing at tau={taus[0]!r}, expected {tau_c!r}")

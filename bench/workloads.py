"""The three workloads: seeded parameter points, the library call for each,
and the checks on each output.

A workload is one round of operations, repeated whole.  Each axis is cut
into equal strata with one seeded point in each, so the cost of a round
barely depends on the seed.  An operation looks the library function up
on its module when it runs, so the tracer's wrappers see every call.

``check`` runs on every output, outside the timed region.  ``deep`` runs on
the first round's outputs only: it repeats the point with the benchmark's
own integrator.  ``round_check`` compares outputs across one round.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks as C
from checks import require

WORKLOADS = ("coherent-transits", "lossy-transits", "spectral-analysis")

TRACK_GRID = np.linspace(-8.0, 8.0, 801)  # tau from -4 to 4, step 0.01
CLI_GRID = "-4:4:0.01"


@dataclass
class Op:
    kind: str
    point: str
    call: Callable[[], Any]
    check: Callable[[Any], dict | None]
    deep: Callable[[Any], None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    round_check: Callable[[list], None] | None = None


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One point in each of k equal slices of (lo, hi].

    Neighbouring slices take mirrored offsets (u, 1 - u), so a cost that
    grows linearly along the axis sums to the same round cost whatever
    the seed.
    """
    width = (hi - lo) / k
    u = rng.random()
    return [lo + (i + 1) * width - width * (u if i % 2 == 0 else 1.0 - u)
            for i in range(k)]


def build(name: str, seed: int, lib, out_dir: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "coherent-transits":
        return _coherent(lib, rng)
    if name == "lossy-transits":
        return _lossy(lib, rng)
    if name == "spectral-analysis":
        return _spectral(lib, rng, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# shared pieces of the entangling transit

class _EntanglingSpace:
    """The 8 states with at most two excitations inside FullBasis(3)."""

    def __init__(self, lib):
        full = lib.model.FullBasis(3)
        self.labels = [l for l in full.labels if sum(
            (l[0], l[1] == "e", l[2] == "e")) <= 2]
        self.index = [full.index(l) for l in self.labels]
        self.space = C.Space(self.labels)
        # even product state with the cavity empty, and the maximally
        # entangled pair the transit aims at
        self.psi0 = np.array([0.5 if m == 0 else 0.0
                              for m, _, _ in self.labels], dtype=complex)
        sign = {("g", "g"): 0.5, ("g", "e"): 0.5, ("e", "g"): -0.5,
                ("e", "e"): 0.5}
        self.target = np.array([sign[(s1, s2)] if m == 0 else 0.0
                                for m, s1, s2 in self.labels], dtype=complex)
        self.n_exc = np.array([m + (s1 == "e") + (s2 == "e")
                               for m, s1, s2 in self.labels])

    def outside(self, matrix_or_vector) -> float:
        """Largest entry outside the 8-state space."""
        a = np.asarray(matrix_or_vector)
        mask = np.ones(a.shape, dtype=bool)
        if a.ndim == 1:
            mask[self.index] = False
        else:
            mask[np.ix_(self.index, self.index)] = False
        return float(np.max(np.abs(a[mask]), initial=0.0))

    def sector_weights(self, probs) -> list[float]:
        return [float(np.sum(probs[self.n_exc == k])) for k in range(3)]


# ---------------------------------------------------------------------------
# coherent-transits

def _coherent(lib, rng) -> Workload:
    P = lib.model.SystemParams
    ent = _EntanglingSpace(lib)
    ops: list[Op] = []

    def entangle(p, strict: bool) -> Op:
        name = (f"entangle_atoms g0={p.g0} eps={p.epsilon:.6f} "
                f"det={p.detuning:.6f}")

        def check(out):
            state, fid = out
            amp = state.amplitudes
            C.check_norm(name, amp)
            require(ent.outside(amp) <= 1e-12,
                    f"{name}: amplitude left the two-excitation space")
            weights = ent.sector_weights(np.abs(amp[ent.index]) ** 2)
            C.check_close(f"{name} excitation weights", weights,
                          [0.25, 0.5, 0.25], 1e-9)
            C.check_fidelity(name, fid,
                             abs(np.vdot(ent.target, amp[ent.index])))
            if strict:
                require(fid > C.ENTANGLE_F_MIN,
                        f"{name}: fidelity {fid!r} <= {C.ENTANGLE_F_MIN}")

        def deep(out):
            mine = C.propagate(ent.space, ent.psi0, p.t_span, p.g0,
                               p.epsilon, p.detuning)
            C.check_close(name, out[0].amplitudes[ent.index], mine,
                          C.PURE_TOL)

        return Op("entangle_atoms", name,
                  lambda: lib.protocols.entangle_atoms(p), check, deep)

    # Five cheap points below the round's median cost keep the median
    # operation inside the cluster of 0.8 s operations for every seed.
    for eps in strata(rng, 0.9, 1.1, 5):
        ops.append(entangle(P(g0=C.G60, epsilon=eps), strict=False))
    for det in strata(rng, 0.0, 30.0, 2):
        ops.append(entangle(P(g0=C.G60, detuning=det), strict=False))
    ops.append(entangle(P(g0=C.G60), strict=True))

    # population handover: |1,eg> in the two-excitation block
    block = lib.model.manifold_basis(2)
    start = (1, "e", "g")
    for det in strata(rng, 0.0, 100.0, 2):
        p = P(g0=50.0, detuning=det, t_span=(-6.0, 6.0))
        ops.append(_populations(lib, p, block, start))

    for n_exc in (1, 2, 3):
        for eps in (1.0, rng.uniform(0.85, 0.95)):
            ops.append(_scatter(lib, P(g0=C.G60, epsilon=eps), n_exc))

    ops.append(_crossing_phase(lib, P(g0=C.G60,
                                      epsilon=rng.uniform(0.85, 0.95))))

    # Two payloads: teleport costs the same for any payload, and a pair of
    # equal-cost operations keeps the round's median operation in place
    # whichever side of it the seeded detunings fall.
    for _ in range(2):
        theta = rng.uniform(0.0, math.pi / 2)
        chi = rng.uniform(0.0, 2 * math.pi)
        ops.append(_teleport(lib, math.cos(theta),
                             math.sin(theta) * complex(math.cos(chi),
                                                       math.sin(chi))))
    return Workload("coherent-transits", ops)


def _populations(lib, p, block, start) -> Op:
    name = f"propagate_schrodinger |1,eg> g0=50 det={p.detuning:.6f}"
    space = C.block_space(block.labels, block.n_exc)
    e = np.zeros(block.dim, dtype=complex)
    e[block.labels.index(start)] = 1.0

    def call():
        psi = lib.model.PureState.from_label(block, start)
        return lib.dynamics.propagate_schrodinger(psi, p)

    def check(out):
        C.check_norm(name, out.amplitudes)

    def deep(out):
        mine = C.propagate(space, e, p.t_span, p.g0, p.epsilon, p.detuning)
        C.check_close(name, out.amplitudes, mine, C.PURE_TOL)

    return Op("populations", name, call, check, deep)


# The measured maps sit off the adiabatic table by the superadiabatic
# phase, about 1/(g0 sigma): 0.03 to 0.05 at G60.
_TABLE_RESIDUAL_MAX = 0.1


def _scatter(lib, p, n_exc) -> Op:
    regime = ("resonant-symmetric" if p.epsilon == 1.0
              else "resonant-asymmetric")
    name = f"scatter_matrix n_exc={n_exc} eps={p.epsilon:.6f}"
    basis = lib.model.manifold_basis(n_exc)
    space = C.block_space(basis.labels, n_exc)

    def call():
        s = lib.analysis.scatter_matrix(p, n_exc)
        angles = lib.spectrum.mixing_angles(n_exc - 2, p)
        return s, lib.analysis.check_input_output(s, angles, regime)

    def check(out):
        s, report = out
        C.check_unitary(name, s.matrix)
        require(report.residual < _TABLE_RESIDUAL_MAX,
                f"{name}: residual {report.residual:.3e} vs the table")

    def deep(out):
        mine = C.propagate(space, np.eye(basis.dim), p.t_span, p.g0,
                           p.epsilon, p.detuning)
        C.check_close(name, out[0].matrix, mine, C.PURE_TOL)

    return Op("scatter_matrix", name, call, check, deep)


def _crossing_phase(lib, p) -> Op:
    name = f"check_crossing_phase eps={p.epsilon:.6f}"
    labels = lib.model.manifold_basis(2).labels

    def check(out):
        area = C.inner_branch_signed_area(labels, 2, p.g0, p.epsilon)
        gap = abs(C.wrap(out + area))
        require(gap <= C.CROSSING_PHASE_TOL,
                f"{name}: phase {out!r} is {gap:.3e} rad from "
                f"minus the signed area {area!r}")

    return Op("check_crossing_phase", name,
              lambda: lib.analysis.check_crossing_phase(p, 0), check)


def _teleport(lib, alpha: complex, beta: complex) -> Op:
    name = f"teleport alpha={alpha:.6f} beta={beta:.6f}"

    def check(out):
        basis = out.final_state.basis
        target = np.zeros(basis.size, dtype=complex)
        target[basis.index((0, "g", "g"))] = alpha
        target[basis.index((1, "g", "g"))] = beta
        fid = abs(np.vdot(target, out.final_state.amplitudes))
        C.check_fidelity(name, out.fidelity, fid)
        require(fid > C.TELEPORT_F_MIN,
                f"{name}: fidelity {fid!r} <= {C.TELEPORT_F_MIN}")

    return Op("teleport", name,
              lambda: lib.protocols.teleport(alpha, beta), check)


# ---------------------------------------------------------------------------
# lossy-transits

def _lossy(lib, rng) -> Workload:
    P = lib.model.SystemParams
    ent = _EntanglingSpace(lib)
    rho0 = np.outer(ent.psi0, ent.psi0.conj())
    ops: list[Op] = []
    points = []
    for eps in (1.0, rng.uniform(0.9, 0.97), rng.uniform(1.03, 1.1)):
        for gamma in strata(rng, 0.0, 0.15, 4):
            points.append((eps, gamma))
            ops.append(_lossy_op(lib, ent, rho0,
                                 P(g0=C.G40, epsilon=eps, gamma=gamma)))

    # Loss lowers the fidelity of the symmetric transit only.  With unequal
    # couplings the loss-free transit leaves weight on the photon, and
    # losing it can raise F: at eps = 0.9656, F rose from 0.241 to 0.413
    # across the four gamma strata, in agreement with the own integrator.
    def round_check(outputs):
        pairs = [(g, out[1]) for (e, g), out in zip(points, outputs)
                 if e == 1.0]
        C.check_falling("entangle_atoms eps=1", [g for g, _ in pairs],
                        [f for _, f in pairs])

    return Workload("lossy-transits", ops, round_check)


def _lossy_op(lib, ent, rho0, p) -> Op:
    name = f"entangle_atoms eps={p.epsilon:.6f} gamma={p.gamma!r}"

    def check(out):
        rho, fid = out
        m = rho.matrix
        C.check_density(name, m)
        require(ent.outside(m) <= 1e-12,
                f"{name}: weight outside the two-excitation space")
        inner = m[np.ix_(ent.index, ent.index)]
        want = math.sqrt(max(np.vdot(ent.target, inner @ ent.target).real,
                             0.0))
        C.check_fidelity(name, fid, want)

    def deep(out):
        mine = C.lindblad(ent.space, rho0, p.t_span, p.g0, p.epsilon,
                          p.detuning, p.gamma)
        C.check_close(name, out[0].matrix[np.ix_(ent.index, ent.index)],
                      mine, C.LINDBLAD_TOL)

    return Op("entangle_atoms_lossy", name,
              lambda: lib.protocols.entangle_atoms(p), check, deep)


# ---------------------------------------------------------------------------
# spectral-analysis

def _spectral(lib, rng, out_dir: str) -> Workload:
    P = lib.model.SystemParams
    ops: list[Op] = []
    for n_exc in (1, 2, 3):
        for det in strata(rng, 2.0, 30.0, 2):
            ops.append(_track(lib, P(g0=C.G60, detuning=det), n_exc))
    for n_exc in (2, 3):
        for eps in (rng.uniform(0.85, 0.95), rng.uniform(1.05, 1.15)):
            ops.append(_track(lib, P(g0=C.G60, epsilon=eps), n_exc))
    for n in (-1, 0, 1, 2):
        ops.append(_angles(lib, P(g0=C.G60, epsilon=rng.uniform(0.85, 1.15)),
                           n))
    ops.append(_stages(lib))
    spectrum_csv = os.path.join(out_dir, "spectrum.csv")
    angles_csv = os.path.join(out_dir, "angles.csv")
    ops.append(_cli_spectrum(lib, rng.choice((0, 1)), rng.uniform(5.0, 25.0),
                             spectrum_csv))
    ops.append(_cli_angles(lib, rng.uniform(20.0, 200.0),
                           rng.uniform(0.9, 1.1), angles_csv))
    return Workload("spectral-analysis", ops)


def _track(lib, p, n_exc) -> Op:
    name = (f"track_spectrum n_exc={n_exc} det={p.detuning:.6f} "
            f"eps={p.epsilon:.6f}")
    basis = lib.model.manifold_basis(n_exc)

    def check(out):
        own = C.block_eigvalsh(basis.labels, n_exc, TRACK_GRID, p.g0,
                               p.epsilon, p.detuning)
        tol = C.ENERGY_TOL * p.g0
        C.check_close(name, np.sort(out.energies, axis=1), own, tol)
        if basis.dim == 4:
            C.check_close(f"{name} energy sum", out.energies.sum(axis=1),
                          0.0, tol)
            if p.detuning == 0.0:
                C.check_crossings(name, out.crossings,
                                  -math.log(p.epsilon) / (4.0 * p.delta))

    return Op("track_spectrum", name,
              lambda: lib.spectrum.track_spectrum(p, basis, TRACK_GRID),
              check)


def _angles(lib, p, n) -> Op:
    name = f"mixing_angles n={n} eps={p.epsilon:.6f}"
    labels = lib.model.manifold_basis(n + 2).labels

    def check(out):
        phi = C.top_branch_area(labels, n + 2, p.g0, p.epsilon)
        C.check_close(f"{name} phi", out.phi, phi, C.ANGLE_TOL)
        if n >= 0:
            theta = C.inner_branch_signed_area(labels, n + 2, p.g0, p.epsilon)
            C.check_close(f"{name} theta", out.theta, theta, C.ANGLE_TOL)
        C.check_close(f"{name} tau_c", out.tau_c,
                      -math.log(p.epsilon) / (4.0 * p.delta), 1e-12)

    return Op("mixing_angles", name,
              lambda: lib.spectrum.mixing_angles(n, p), check)


def _stages(lib) -> Op:
    labels = lib.model.manifold_basis(1).labels

    def check(out):
        for i in (0, 2):
            g0 = out[i].params.g0
            area = C.top_branch_area(labels, 1, g0, 1.0)
            miss = abs(C.wrap(area - math.pi / 2.0))
            require(miss <= C.ANGLE_TOL,
                    f"default_stages: stage {i + 1} at g0={g0!r} has area "
                    f"{area!r}, {miss:.3e} rad off pi/2 mod 2 pi")

    return Op("default_stages", "default_stages",
              lambda: lib.protocols.default_stages(), check)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(line for line in handle
                               if not line.startswith("#")))
    return rows[0], rows[1:]


def _cli_spectrum(lib, n: int, det: float, path: str) -> Op:
    argv = ["spectrum", "--n", str(n), "--detuning-sigma", repr(det),
            "--grid", CLI_GRID, "--jobs", "1", "--out", path]
    name = "cli " + " ".join(argv[:-2])
    labels = lib.model.manifold_basis(n + 2).labels

    def check(code):
        require(code == 0, f"{name}: exit code {code}")
        _, rows = _read_csv(path)
        data = np.array([[float(x) for x in row] for row in rows])
        own = C.block_eigvalsh(labels, n + 2, 2.0 * data[:, 0], C.G60, 1.0,
                               det) / C.G60
        C.check_close(name, np.sort(data[:, 1:], axis=1), own, C.ENERGY_TOL)
        return {"cli.csv_bytes": os.path.getsize(path)}

    return Op("cli_spectrum", name, lambda: lib.cli.main(argv), check)


def _cli_angles(lib, det: float, eps: float, path: str) -> Op:
    argv = ["angles", "--detuning-sigma", repr(det), "--epsilon", repr(eps),
            "--jobs", "1", "--out", path]
    name = "cli " + " ".join(argv[:-2])

    def check(code):
        require(code == 0, f"{name}: exit code {code}")
        header, rows = _read_csv(path)
        col = {h: i for i, h in enumerate(header)}
        want_big = C.big_theta(C.G60, eps, det)
        require(len(rows) == 3, f"{name}: {len(rows)} rows, expected 3")
        for row in rows:
            n = int(row[col["n"]])
            labels = lib.model.manifold_basis(n + 2).labels
            big = float(row[col["big_theta"]])
            require(abs(big - want_big) <= 1e-9 * want_big,
                    f"{name}: big_theta {big!r}, Gaussian integral "
                    f"{want_big!r}")
            phi = C.top_branch_area(labels, n + 2, C.G60, eps)
            C.check_close(f"{name} phi_{n}", float(row[col["phi_n"]]), phi,
                          C.ANGLE_TOL)
        return {"cli.csv_bytes": os.path.getsize(path)}

    return Op("cli_angles", name, lambda: lib.cli.main(argv), check)

"""The benchmark's checks pass on real outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py

Each test runs one operation of a workload, then feeds its check a copy of
the output with one defect: a map entry off by 1e-3, a trace off by 1e-6,
a fidelity off by 1%, an energy or an angle off by a little more than the
check's tolerance.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import checks as C
import run
import workloads

SEED = 7


@pytest.fixture(scope="module")
def lib():
    return run.load_library(with_cli=True)


def _op(lib, workload, kind, tmp_path_factory, index=0):
    out_dir = str(tmp_path_factory.mktemp("csv"))
    wl = workloads.build(workload, SEED, lib, out_dir)
    return [op for op in wl.ops if op.kind == kind][index]


@pytest.fixture(scope="module")
def scatter(lib, tmp_path_factory):
    op = _op(lib, "coherent-transits", "scatter_matrix", tmp_path_factory)
    return op, op.call()


@pytest.fixture(scope="module")
def entangle(lib, tmp_path_factory):
    op = _op(lib, "coherent-transits", "entangle_atoms", tmp_path_factory)
    return op, op.call()


@pytest.fixture(scope="module")
def lossy(lib, tmp_path_factory):
    op = _op(lib, "lossy-transits", "entangle_atoms_lossy", tmp_path_factory)
    return op, op.call()


def _rejects(fn, out):
    with pytest.raises(C.CheckError):
        fn(out)


def test_scatter_map_entry_off_by_1e3(scatter):
    op, (s, report) = scatter
    op.check((s, report))
    op.deep((s, report))
    bad = s.matrix.copy()
    bad[1, 0] += 1e-3
    corrupted = (dataclasses.replace(s, matrix=bad), report)
    _rejects(op.check, corrupted)  # unitarity
    _rejects(op.deep, corrupted)  # own integrator


def test_entangled_state_and_fidelity(entangle):
    op, (state, fid) = entangle
    op.check((state, fid))
    op.deep((state, fid))
    _rejects(op.check, (state, fid * 0.99))
    amp = state.amplitudes.copy()
    amp[np.argmax(np.abs(amp))] *= np.exp(1e-3j)  # norm kept, phase off
    _rejects(op.deep, (dataclasses.replace(state, amplitudes=amp), fid))


def test_lindblad_trace_off_by_1e6(lossy):
    op, (rho, fid) = lossy
    op.check((rho, fid))
    op.deep((rho, fid))
    m = rho.matrix.copy()
    m[0, 0] += 1e-6
    _rejects(op.check, (dataclasses.replace(rho, matrix=m), fid))


def test_lindblad_fidelity_off_by_1pct(lossy):
    op, (rho, fid) = lossy
    _rejects(op.check, (rho, fid * 1.01))


def test_lindblad_state_off_the_own_integrator(lossy):
    op, (rho, fid) = lossy
    m = rho.matrix.copy()
    i, j = np.unravel_index(np.argmax(np.abs(m - np.diag(np.diag(m)))),
                            m.shape)
    m[i, j] += 1e-4
    m[j, i] += 1e-4
    _rejects(op.deep, (dataclasses.replace(rho, matrix=m), fid))


def test_lossy_fidelity_must_fall_with_gamma():
    with pytest.raises(C.CheckError):
        C.check_falling("eps=1", [0.01, 0.05, 0.1], [0.99, 0.95, 0.96])
    C.check_falling("eps=1", [0.1, 0.01, 0.05], [0.90, 0.99, 0.95])


def test_teleport_fidelity_off_by_1pct(lib, tmp_path_factory):
    op = _op(lib, "coherent-transits", "teleport", tmp_path_factory)
    out = op.call()
    op.check(out)
    _rejects(op.check, dataclasses.replace(out, fidelity=out.fidelity * 0.99))


def test_tracked_energies(lib, tmp_path_factory):
    op = _op(lib, "spectral-analysis", "track_spectrum", tmp_path_factory,
             index=-1)  # resonant and asymmetric: one exact crossing
    out = op.call()
    op.check(out)
    e = out.energies.copy()
    e[400, 0] += 1e-6 * C.G60
    _rejects(op.check, dataclasses.replace(out, energies=e))
    _rejects(op.check, dataclasses.replace(out, crossings=()))


def test_mixing_angle_phi(lib, tmp_path_factory):
    op = _op(lib, "spectral-analysis", "mixing_angles", tmp_path_factory,
             index=1)
    out = op.call()
    op.check(out)
    _rejects(op.check, dataclasses.replace(out, phi=out.phi + 1e-5))
    _rejects(op.check, dataclasses.replace(out, theta=out.theta + 1e-5))


def test_cli_big_theta_column(lib, tmp_path):
    wl = workloads.build("spectral-analysis", SEED, lib, str(tmp_path))
    op = next(op for op in wl.ops if op.kind == "cli_angles")
    code = op.call()
    assert op.check(code)["cli.csv_bytes"] > 0
    path = tmp_path / "angles.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    col = lines[header].split(",").index("big_theta")
    fields = lines[header + 1].split(",")
    fields[col] = f"{float(fields[col]) * (1 + 1e-6):.11e}"
    lines[header + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _rejects(op.check, code)


def test_every_operation_kind_has_its_row(lib, tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, SEED, lib, str(tmp_path))
        assert {op.kind for op in wl.ops} <= set(run.OP_KINDS)


def test_benchmark_json_lists_the_printed_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

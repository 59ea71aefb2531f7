"""Serial benchmark of the cavitypair library.

    python3 bench/run.py --workload coherent-transits --seed 1 \
        --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process, as a closed loop:
each operation is one call into the library's public API, and the next
starts when it returns.  Whole rounds of the workload's operations repeat
until ``--seconds`` of operation time have passed.  Every output is checked
outside the timed region.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` traced and
untraced rounds alternate and the JSON holds the per-layer metrics.

BLAS and OpenMP run one thread, set below before numpy loads: the
benchmark measures the library's own serial cost.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace
from typing import NamedTuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, ".out")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402  (needs BENCH on the path)
from tracing import MODULES, Tracer  # noqa: E402

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

OP_KINDS = ("entangle_atoms", "populations", "scatter_matrix",
            "check_crossing_phase", "teleport", "entangle_atoms_lossy",
            "track_spectrum", "mixing_angles", "default_stages",
            "cli_spectrum", "cli_angles")

PER_LAYER = (
    ("dynamics.schrodinger_ms_per_transit", "ms"),
    ("dynamics.schrodinger_rhs_per_transit", "count"),
    ("dynamics.schrodinger_steps_per_transit", "count"),
    ("dynamics.self_us_per_rhs", "us"),
    ("dynamics.lindblad_ms_per_transit", "ms"),
    ("dynamics.lindblad_rhs_per_transit", "count"),
    ("dynamics.lindblad_steps_per_transit", "count"),
    ("dynamics.step_acceptance", "ratio"),
    ("hamiltonian.coupling_pair_calls", "count"),
    ("hamiltonian.coupling_pair_us", "us"),
    ("hamiltonian.manifold_hamiltonian_calls", "count"),
    ("hamiltonian.manifold_hamiltonian_us", "us"),
    ("spectrum.track_spectrum_ms", "ms"),
    ("spectrum.mixing_angles_ms", "ms"),
    ("spectrum.quad_calls", "count"),
    ("spectrum.gap_refinements", "count"),
    ("analysis.scatter_matrix_ms", "ms"),
    ("analysis.check_crossing_phase_ms", "ms"),
    ("analysis.check_input_output_ms", "ms"),
    ("protocols.entangle_atoms_ms", "ms"),
    ("protocols.teleport_ms", "ms"),
    ("protocols.calibrate_coupling_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.csv_bytes", "bytes"),
    ("setup.scipy_import_ms", "ms"),
    ("setup.numpy_import_ms", "ms"),
    ("setup.cavitypair_import_ms", "ms"),
    ("trace.overhead_pct", "%"),
    *((f"{m}.self_ms_per_op", "ms") for m in MODULES),
    *((f"op_ms.{k}", "ms") for k in OP_KINDS),
)


# ---------------------------------------------------------------------------
# loading the library from this checkout

def load_library(with_cli: bool) -> SimpleNamespace:
    """Import cavitypair from ``src/`` beside this directory, nowhere else."""
    init = os.path.join(SRC, "cavitypair", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: library source not found at {init}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("cavitypair")
    if os.path.abspath(package.__file__) != init:
        raise SystemExit(f"bench: imported cavitypair from "
                         f"{package.__file__}, not {init}")
    names = ["model", "hamiltonian", "spectrum", "dynamics", "analysis",
             "protocols"] + (["cli"] if with_cli else [])
    mods = {n: importlib.import_module(f"cavitypair.{n}") for n in names}
    return SimpleNamespace(package=package, **mods)


# ---------------------------------------------------------------------------
# set-up time, from fresh interpreters

def _probe_cmd(args, importtime: bool) -> list[str]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    return cmd + [os.path.abspath(__file__), "--setup-probe",
                  "--workload", args.workload, "--seed", str(args.seed)]


def _import_ms(stderr: str) -> dict[str, float]:
    """Self import time summed over each package's modules, in ms."""
    sums = {"numpy": 0.0, "scipy": 0.0, "cavitypair": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".", 1)[0]
        if top in sums:
            sums[top] += float(self_us) / 1e3
    return sums


def measure_setup(args, importtime: bool) -> tuple[float, dict[str, float]]:
    """Median wall time of fresh interpreters that get the first call ready."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(_probe_cmd(args, importtime), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if importtime:
            imports.append(_import_ms(proc.stderr))
    medians = {k: statistics.median(d[k] for d in imports)
               for k in (imports[0] if imports else {})}
    return statistics.median(walls), medians


# ---------------------------------------------------------------------------
# the timed loop

def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Record(NamedTuple):
    round: int
    pos: int  # position of the operation in its round
    kind: str
    wall: float  # s
    cpu: float  # s
    ok: bool
    traced: bool


def _typical(records) -> list[float]:
    """Median wall time of each position over the rounds given."""
    walls: dict[int, list[float]] = {}
    for r in records:
        if r.ok:
            walls.setdefault(r.pos, []).append(r.wall)
    return [statistics.median(w) for w in walls.values()]


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.records: list[Record] = []
        self.rounds = 0
        self.errors: list[str] = []
        self.first_round: list = []
        self.extra: dict[str, float] = {}

    def run_round(self, traced: bool) -> float:
        """One whole round; returns its operation time in seconds."""
        first = not self.records
        spent = 0.0
        if traced:
            self.tracer.install()
        try:
            for pos, op in enumerate(self.workload.ops):
                if traced:
                    self.tracer.begin(len(self.records), op.kind)
                cpu0 = _cpu_s()
                wall0 = time.perf_counter()
                try:
                    out, ok = op.call(), True
                except Exception:  # a failed operation is counted, not fatal
                    out, ok = None, False
                    print(f"bench: {op.point} failed:\n"
                          f"{traceback.format_exc()}", file=sys.stderr)
                wall = time.perf_counter() - wall0
                cpu = _cpu_s() - cpu0
                spent += wall
                self.records.append(Record(self.rounds, pos, op.kind, wall,
                                           cpu, ok, traced))
                if first:
                    self.first_round.append((op, out, ok))
                if ok:
                    extra = self._checked(op.point, op.check, out)
                    if traced and extra:
                        for key, value in extra.items():
                            self.extra[key] = self.extra.get(key, 0.0) + value
        finally:
            if traced:
                self.tracer.remove()
        self.rounds += 1
        return spent

    def _checked(self, point, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # every check failure is reported
            self.errors.append(f"{point}: {exc!r}")
            return None

    def final_checks(self) -> None:
        outputs = []
        for op, out, ok in self.first_round:
            outputs.append(out)
            if ok and op.deep is not None:
                self._checked(op.point, op.deep, out)
        rc = self.workload.round_check
        if rc is not None and all(ok for _, _, ok in self.first_round):
            self._checked("round", rc, outputs)


def end_to_end(runner: Runner, setup_s: float, peak_rss_mb: float) -> dict:
    """Wall-time metrics from the median round.

    Each operation of the round (a position) gets the median of its wall
    times over the rounds.  The round built from those medians gives the
    throughput and the median operation time; with three or more rounds a
    burst of CPU taken by another tenant during one round does not move
    them.
    """
    typical = _typical(runner.records)
    done = [r for r in runner.records if r.ok]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(typical) / sum(typical),
        "op_ms_p50": 1e3 * statistics.median(typical),
        "cpu_ms_per_op": 1e3 * sum(r.cpu for r in done) / len(done),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(runner: Runner, imports: dict[str, float]) -> dict:
    """Layer metrics from the traced rounds; times per operation from the
    untraced rounds after the first, which fills caches."""
    traced_rows = [r for r in runner.records if r.traced]
    untraced_rows = [r for r in runner.records
                     if not r.traced and r.round > 0]
    n_ops = len(traced_rows)
    tracer = runner.tracer
    totals: dict[str, list] = {}
    for (_, fn), (calls, incl, self_s) in tracer.totals.items():
        t = totals.setdefault(fn, [0, 0.0, 0.0])
        t[0] += calls
        t[1] += incl
        t[2] += self_s
    counts: dict[str, float] = {}
    for (_, name), value in tracer.counts.items():
        counts[name] = counts.get(name, 0.0) + value

    def calls(fn):
        return totals.get(fn, [0, 0.0, 0.0])[0]

    def per_call(fn, scale):
        c, incl, _ = totals.get(fn, [0, 0.0, 0.0])
        return scale * incl / c if c else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    schrod = calls("dynamics.propagate_schrodinger")
    lind = calls("dynamics.propagate_lindblad")
    rhs = sum(v for k, v in counts.items() if k.endswith(".rhs"))
    steps = sum(v for k, v in counts.items() if k.endswith(".steps"))
    attempted = sum(v for k, v in counts.items() if k.endswith(".attempted"))
    dyn_self = sum(t[2] for fn, t in totals.items()
                   if fn.startswith("dynamics."))
    cli_calls = calls("cli.main")
    m = {
        "dynamics.schrodinger_ms_per_transit":
            per_call("dynamics.propagate_schrodinger", 1e3),
        "dynamics.schrodinger_rhs_per_transit":
            ratio(counts.get("schrodinger.rhs", 0.0), schrod),
        "dynamics.schrodinger_steps_per_transit":
            ratio(counts.get("schrodinger.steps", 0.0), schrod),
        "dynamics.self_us_per_rhs": ratio(1e6 * dyn_self, rhs),
        "dynamics.lindblad_ms_per_transit":
            per_call("dynamics.propagate_lindblad", 1e3),
        "dynamics.lindblad_rhs_per_transit":
            ratio(counts.get("lindblad.rhs", 0.0), lind),
        "dynamics.lindblad_steps_per_transit":
            ratio(counts.get("lindblad.steps", 0.0), lind),
        "dynamics.step_acceptance": ratio(steps, attempted),
        "hamiltonian.coupling_pair_calls":
            calls("hamiltonian.coupling_pair") / n_ops,
        "hamiltonian.coupling_pair_us":
            per_call("hamiltonian.coupling_pair", 1e6),
        "hamiltonian.manifold_hamiltonian_calls":
            calls("hamiltonian.manifold_hamiltonian") / n_ops,
        "hamiltonian.manifold_hamiltonian_us":
            per_call("hamiltonian.manifold_hamiltonian", 1e6),
        "spectrum.track_spectrum_ms": per_call("spectrum.track_spectrum", 1e3),
        "spectrum.mixing_angles_ms": per_call("spectrum.mixing_angles", 1e3),
        "spectrum.quad_calls": counts.get("spectrum.quad_calls", 0.0) / n_ops,
        "spectrum.gap_refinements":
            counts.get("spectrum.gap_refinements", 0.0) / n_ops,
        "analysis.scatter_matrix_ms": per_call("analysis.scatter_matrix", 1e3),
        "analysis.check_crossing_phase_ms":
            per_call("analysis.check_crossing_phase", 1e3),
        "analysis.check_input_output_ms":
            per_call("analysis.check_input_output", 1e3),
        "protocols.entangle_atoms_ms":
            per_call("protocols.entangle_atoms", 1e3),
        "protocols.teleport_ms": per_call("protocols.teleport", 1e3),
        "protocols.calibrate_coupling_ms":
            per_call("protocols.calibrate_coupling", 1e3),
        "cli.main_ms": per_call("cli.main", 1e3),
        "cli.csv_bytes": ratio(runner.extra.get("cli.csv_bytes", 0.0),
                               cli_calls),
        "setup.scipy_import_ms": imports["scipy"],
        "setup.numpy_import_ms": imports["numpy"],
        "setup.cavitypair_import_ms": imports["cavitypair"],
        "trace.overhead_pct": 100.0 * (sum(_typical(traced_rows))
                                       / sum(_typical(untraced_rows)) - 1.0),
    }
    for mod in MODULES:
        m[f"{mod}.self_ms_per_op"] = 1e3 * sum(
            t[2] for fn, t in totals.items()
            if fn.startswith(mod + ".")) / n_ops
    for kind in OP_KINDS:
        walls = [r.wall for r in untraced_rows if r.kind == kind and r.ok]
        m[f"op_ms.{kind}"] = 1e3 * statistics.median(walls) if walls else 0.0
    return m


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library(with_cli=args.workload == "spectral-analysis")
    if args.setup_probe:
        workloads.build(args.workload, args.seed, lib, OUT)
        return 0

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_s, imports = measure_setup(args, importtime=bool(args.trace))
        workload = workloads.build(args.workload, args.seed, lib, out_dir)
        runner = Runner(workload, Tracer(lib.package) if args.trace else None)
        if args.trace:
            # The first round fills caches; then traced and untraced rounds
            # alternate, so the overhead compares warm rounds only.
            spent = runner.run_round(traced=False)
            while True:
                spent += runner.run_round(traced=True)
                spent += runner.run_round(traced=False)
                if spent >= args.seconds:
                    break
        else:
            spent = 0.0
            while spent < args.seconds:
                spent += runner.run_round(traced=False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.final_checks()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = len(runner.records)
    failed = sum(not r.ok for r in runner.records)
    if args.trace:
        metrics = per_layer(runner, imports)
        units = dict(PER_LAYER)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        runner.tracer.dump(path, {"workload": args.workload,
                                  "seed": args.seed, "metrics": metrics})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(runner, setup_s, peak_rss_mb)
        units = dict(END_TO_END)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{attempted} operations attempted, {failed} failed, "
          f"{len(runner.errors)} check failures")
    for err in runner.errors:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

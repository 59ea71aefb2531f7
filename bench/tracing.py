"""In-memory tracing of the library's public functions.

``Tracer.install`` replaces each public function of ``cavitypair`` in every
module that holds it by name (the modules import with ``from .x import y``),
plus three scipy entry points as the library sees them:
``dynamics.solve_ivp``, ``spectrum.quad`` and ``spectrum.minimize_scalar``.
``Tracer.remove`` puts the originals back, so traced and untraced rounds
can alternate in one process.

Each wrapped call pushes a frame.  When it returns, its time is added to
the parent frame's child time, and its self time (its time minus its
children's) to its function's totals for the current operation kind.
Calls of the hot leaf functions in ``HOT`` are only aggregated; every
other call is also kept as a span ``(id, parent, op, function, start,
end)`` and written out when the run ends.  The scipy hooks are not
frames: their time stays in the caller's self time, and they only read
counts off the solver's result: ``nfev``, accepted steps ``len(t) - 1``,
and attempted steps ``(nfev - 1) / n_stages`` for an explicit Runge-Kutta
method (DOP853 spends 12 evaluations on every attempt, kept or not).
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

import scipy.integrate

# ``model`` is left out: its constructors count in their callers' time.
MODULES = ("hamiltonian", "spectrum", "dynamics", "analysis", "protocols",
           "cli")

# Called per RHS evaluation, quadrature node or grid point: spans of these
# would run to millions per run, so only their totals are kept.
HOT = frozenset({
    "coupling", "coupling_pair", "manifold_hamiltonian", "full_hamiltonian",
    "closed_form_energies", "wrap_angle", "fix_phases", "diagonalize",
    "dark_state",
})

_PROPAGATORS = {"dynamics.propagate_schrodinger": "schrodinger",
                "dynamics.propagate_lindblad": "lindblad"}


class Tracer:
    def __init__(self, package) -> None:
        self._package = package
        # ``cli`` is wrapped only where the workload imported it
        self._mods = {name: getattr(package, name) for name in MODULES
                      if hasattr(package, name)}
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        # (op kind, qualified function) -> [calls, inclusive s, self s]
        self.totals: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        # (op kind, counter) -> value
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []
        self._kind = ""
        self._op = -1
        self._next_id = 0

    # -- operation context -------------------------------------------------
    def begin(self, op_index: int, kind: str) -> None:
        self._op, self._kind = op_index, kind
        self._stack = [[0.0, None, None]]  # [child s, span id, function]

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        originals = {}
        for mod_name, mod in self._mods.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[fn] = self._wrap(f"{mod_name}.{name}", fn,
                                               keep_span=name not in HOT)
        holders = list(self._mods.values()) + [self._package]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patch(holder, name, originals[value])
        dyn, spec = self._mods["dynamics"], self._mods["spectrum"]
        self._patch(dyn, "solve_ivp", self._ivp_hook(dyn.solve_ivp))
        self._patch(spec, "quad", self._count_hook(spec.quad,
                                                   "spectrum.quad_calls"))
        self._patch(spec, "minimize_scalar",
                    self._count_hook(spec.minimize_scalar,
                                     "spectrum.gap_refinements"))

    def remove(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _patch(self, holder, name: str, replacement) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, replacement)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, qualname: str, fn, keep_span: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            span_id = None
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id if keep_span else parent[1], qualname]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                tot = tracer.totals[(tracer._kind, qualname)]
                tot[0] += 1
                tot[1] += elapsed
                tot[2] += elapsed - frame[0]
                if keep_span:
                    tracer.spans.append((span_id, parent[1], tracer._op,
                                         qualname, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_hook(self, fn, counter: str):
        tracer = self

        def hook(*args, **kwargs):
            tracer.counts[(tracer._kind, counter)] += 1
            return fn(*args, **kwargs)

        return hook

    def _ivp_hook(self, fn):
        tracer = self

        def hook(*args, **kwargs):
            sol = fn(*args, **kwargs)
            kind = next((_PROPAGATORS[f[2]] for f in reversed(tracer._stack)
                         if f[2] in _PROPAGATORS), "other")
            steps = len(sol.t) - 1
            method = kwargs.get("method", "RK45")
            solver = (getattr(scipy.integrate, method, None)
                      if isinstance(method, str) else method)
            stages = getattr(solver, "n_stages", None)
            attempted, rest = divmod(sol.nfev - 1, stages or 1)
            if not stages or rest:  # not an explicit Runge-Kutta method
                attempted = steps
            c = tracer.counts
            c[(tracer._kind, f"{kind}.rhs")] += sol.nfev
            c[(tracer._kind, f"{kind}.steps")] += steps
            c[(tracer._kind, f"{kind}.attempted")] += attempted
            return sol

        return hook

    # -- output ------------------------------------------------------------
    def dump(self, path: str, meta: dict) -> None:
        """Write spans and totals as JSON."""
        doc = {
            "meta": meta,
            "span_fields": ["id", "parent", "op", "function", "start_s",
                            "end_s"],
            "spans": self.spans,
            "totals": [[k, f, *v]
                       for (k, f), v in sorted(self.totals.items())],
            "counts": [[k, c, v] for (k, c), v in sorted(self.counts.items())],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

"""Tracing of the program from outside: spans around calls into each module.

The program is not modified.  ``instrument`` rebinds each traced public
function in every ``mfjump`` module that holds it (``engine``, ``coupling``
and ``cli`` import ``quantize_state``, ``states_equal`` and the simulators by
name, so patching the defining module alone would miss most calls), wraps the
model callables of every bundle ``build_model`` returns with
``dataclasses.replace``, and restores everything on exit.

Spans are aggregated in memory per (parent span, span) edge, per thread:
calls, total time and self time (the span minus the time of its child
spans).  When the run ends, ``Tracer.spans`` hands them to ``run.py``, which
writes them with the run's record, and ``layer_metrics`` turns them into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import threading
from time import perf_counter

#: Model callables wrapped on every bundle, by field, with their span name.
MODEL_FIELDS = {
    "rate": "models.rate",
    "kernel": "models.kernel",
    "kernel_stream": "models.kernel",
    "base_flow": "models.base_flow",
    "kernel_atoms": "models.kernel_atoms",
    "mixed_kernel_atoms": "models.kernel_atoms",
}

#: Parent recorded for a span with no traced caller.
ROOT_SPAN = ""


class _ThreadState:
    __slots__ = ("stack", "edges", "counters")

    def __init__(self):
        # Each frame is [span name, time covered by child spans].
        self.stack: list = []
        self.edges: dict = {}
        self.counters: dict = {}


class Tracer:
    """In-memory span and counter store; safe to use from several threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(tracer, result)`` after."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][0] if stack else ROOT_SPAN
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = state.edges.get((parent, name))
                if row is None:
                    row = state.edges[(parent, name)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def spans(self) -> list[dict]:
        """Aggregated spans of every thread, one entry per (parent, name) edge."""
        merged: dict = {}
        for state in self._states:
            for key, (calls, total, own) in state.edges.items():
                row = merged.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return [
            {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
            for (parent, name), (c, t, s) in sorted(merged.items())
        ]

    def counters(self) -> dict:
        merged: dict = {}
        for state in self._states:
            for key, value in state.counters.items():
                merged[key] = merged.get(key, 0) + value
        return merged


# ---------------------------------------------------------------------------
# Counters read off simulator results.
# ---------------------------------------------------------------------------


def _count_events(tracer: Tracer, trajectory) -> int:
    """Events a coupled trajectory keeps in memory until the run reduces it."""
    events = len(getattr(trajectory, "events", ()))
    tracer.count("coupling.events_stored", events)
    return events


def _on_trajectory(prefix: str):
    def record(tracer: Tracer, trajectory) -> None:
        accepted = getattr(trajectory, "n_accepted", 0)
        tracer.count(f"{prefix}.accepted", accepted)
        tracer.count(f"{prefix}.proposals", accepted + getattr(trajectory, "n_rejected", 0))

    return record


def _on_merge_split(tracer: Tracer, trajectory) -> None:
    events = trajectory.events
    tracer.count("coupling.simulate_merge_split.events", _count_events(tracer, trajectory))
    tracer.count("coupling.simulate_merge_split.merged_events",
                 sum(1 for e in events if getattr(e, "merged", False)))
    tracer.count("coupling.simulate_merge_split.splits", getattr(trajectory, "n_splits", 0))
    tracer.count("coupling.simulate_merge_split.clamped", getattr(trajectory, "n_clamped", 0))


def _on_coupled_system(tracer: Tracer, trajectory) -> None:
    tracer.count("coupling.simulate_coupled_system.events", _count_events(tracer, trajectory))


def _on_picard(tracer: Tracer, result) -> None:
    tracer.count("engine.picard_solve.iterations", getattr(result, "n_iterations", 0))


_ON_RESULT = {
    "engine.simulate_nonlinear": _on_trajectory("engine.simulate_nonlinear"),
    "particles.simulate_system": _on_trajectory("particles.simulate_system"),
    "coupling.simulate_merge_split": _on_merge_split,
    "coupling.simulate_coupled_system": _on_coupled_system,
    "engine.picard_solve": _on_picard,
}


def _sized(items):
    return items if hasattr(items, "__len__") else tuple(items)


# ---------------------------------------------------------------------------
# Installing the wrappers.
# ---------------------------------------------------------------------------


class _Patches:
    """Attribute rebindings that are undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Replace ``original`` in every loaded ``mfjump`` module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mfjump" or mod_name.startswith("mfjump.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _TracedMachine:
    """A base-coupler machine whose ``advance`` is recorded as a span."""

    def __init__(self, machine, advance):
        self._machine = machine
        self.advance = advance

    def __getattr__(self, attr):
        return getattr(self._machine, attr)


def _wrap_coupler(tracer: Tracer, factory):
    def build(*args, **kwargs):
        tracer.count("coupling.machines_built")
        machine = factory(*args, **kwargs)
        return _TracedMachine(
            machine, tracer.wrap("coupling.machine_advance", machine.advance)
        )

    return build


def _wrap_spec(tracer: Tracer, spec):
    changes = {
        field: tracer.wrap(span, getattr(spec, field))
        for field, span in MODEL_FIELDS.items()
        if getattr(spec, field, None) is not None
    }
    if getattr(spec, "base_coupler", None) is not None:
        changes["base_coupler"] = _wrap_coupler(tracer, spec.base_coupler)
    return dataclasses.replace(spec, **changes)


def wrap_bundle(tracer: Tracer, bundle):
    """The bundle with its model or system callables traced."""
    changes = {
        part: _wrap_spec(tracer, getattr(bundle, part))
        for part in ("model", "system")
        if getattr(bundle, part, None) is not None
    }
    return dataclasses.replace(bundle, **changes)


def _span(name: str, count_args=None):
    """Replacement factory: the function recorded as span ``name``."""

    def make(tracer: Tracer, fn):
        inner = count_args(tracer, fn) if count_args is not None else fn
        return tracer.wrap(name, inner, _ON_RESULT.get(name))

    return make


def _count_states(tracer: Tracer, from_states):
    def counted(cls, states):
        states = _sized(states)
        tracer.count("engine.from_states.states_in", len(states))
        return from_states(cls, states)

    return counted


def _count_atoms(tracer: Tracer, overlap_decompose):
    def counted(atoms1, atoms2, *args, **kwargs):
        atoms1, atoms2 = _sized(atoms1), _sized(atoms2)
        tracer.count("coupling.overlap_decompose.atoms_in", len(atoms1) + len(atoms2))
        return overlap_decompose(atoms1, atoms2, *args, **kwargs)

    return counted


def _count_failures(tracer: Tracer, guarded):
    def counting_guarded(worker):
        run = guarded(worker)

        def run_counted(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            except Exception:
                tracer.count("cli.replica_failures")
                raise

        return run_counted

    return counting_guarded


def _wrap_built_bundles(tracer: Tracer, build_model):
    def traced_build_model(*args, **kwargs):
        return wrap_bundle(tracer, build_model(*args, **kwargs))

    return traced_build_model


#: What ``instrument`` rebinds: (module, attribute, replacement factory).
TARGETS = (
    ("mfjump.metrics", "quantize_state", _span("metrics.quantize_state")),
    ("mfjump.metrics", "states_equal", _span("metrics.states_equal")),
    ("mfjump.metrics", "estimate_tv_bound", _span("metrics.estimate_tv_bound")),
    ("mfjump.metrics", "estimate_vnorm_bound", _span("metrics.estimate_vnorm_bound")),
    ("mfjump.metrics", "dbar1", _span("metrics.dbar1")),
    ("mfjump.engine", "simulate_nonlinear", _span("engine.simulate_nonlinear")),
    ("mfjump.engine", "picard_solve", _span("engine.picard_solve")),
    ("mfjump.particles", "simulate_system", _span("particles.simulate_system")),
    ("mfjump.coupling", "overlap_decompose",
     _span("coupling.overlap_decompose", _count_atoms)),
    ("mfjump.coupling", "simulate_merge_split", _span("coupling.simulate_merge_split")),
    ("mfjump.coupling", "simulate_coupled_system",
     _span("coupling.simulate_coupled_system")),
    # The CLI's phases are private helpers; they are the only boundary
    # between config parsing, model building, replicas and output.
    ("mfjump.cli", "_load_config", _span("cli.load_config")),
    ("mfjump.cli", "_build_bundle", _span("cli.build_bundle")),
    ("mfjump.cli", "_map_replicas", _span("cli.map_replicas")),
    ("mfjump.cli", "_write_csv", _span("cli.write_csv")),
    ("mfjump.cli", "_guarded", _count_failures),
    ("mfjump.models", "build_model", _wrap_built_bundles),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every call into the program's layers while the block runs."""
    import mfjump.cli  # noqa: F401  (loads every module that is rebound)
    from mfjump.engine import EmpiricalMeasure

    patches = _Patches()
    try:
        for module_name, attr, make in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                tracer.absent.append(f"{module_name}.{attr} not found")
                continue
            patches.rebind(original, make(tracer, original))
        from_states = EmpiricalMeasure.__dict__["from_states"].__func__
        make = _span("engine.from_states", _count_states)
        patches.set(EmpiricalMeasure, "from_states", classmethod(make(tracer, from_states)))
        yield tracer
    finally:
        patches.undo()


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of one traced run, 0 where a layer did not run."""
    spans = tracer.spans()
    counters = tracer.counters()

    def calls(name):
        return sum(s["calls"] for s in spans if s["name"] == name)

    def own(*names):
        return sum(s["self_s"] for s in spans if s["name"] in names)

    def total(name):
        return sum(s["total_s"] for s in spans if s["name"] == name)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def count(name):
        return counters.get(name, 0)

    out = {}
    for name in ("metrics.quantize_state", "metrics.states_equal"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = own(name)
    out["metrics.reduce.self_s"] = own(
        "metrics.estimate_tv_bound", "metrics.estimate_vnorm_bound", "metrics.dbar1"
    )

    out["engine.from_states.calls"] = calls("engine.from_states")
    out["engine.from_states.states_in"] = count("engine.from_states.states_in")
    out["engine.from_states.self_s"] = own("engine.from_states")
    for name in ("engine.simulate_nonlinear", "particles.simulate_system"):
        proposals = count(f"{name}.proposals")
        out[f"{name}.proposals"] = proposals
        out[f"{name}.accept_ratio"] = ratio(count(f"{name}.accepted"), proposals)
        out[f"{name}.us_per_proposal"] = ratio(total(name), proposals, 1e6)
    out["engine.picard_solve.iterations"] = count("engine.picard_solve.iterations")
    coord_flows = sum(
        s["calls"] for s in spans
        if s["name"] == "models.base_flow" and s["parent"] == "particles.simulate_system"
    )
    out["particles.coord_flows_per_proposal"] = ratio(
        coord_flows, count("particles.simulate_system.proposals")
    )

    out["coupling.overlap_decompose.calls"] = calls("coupling.overlap_decompose")
    out["coupling.overlap_decompose.atoms_in"] = count("coupling.overlap_decompose.atoms_in")
    out["coupling.overlap_decompose.self_s"] = own("coupling.overlap_decompose")
    out["coupling.machine_advance.calls"] = calls("coupling.machine_advance")
    out["coupling.machine_advance.self_s"] = own("coupling.machine_advance")
    out["coupling.machines_built"] = count("coupling.machines_built")
    ms_events = count("coupling.simulate_merge_split.events")
    out["coupling.simulate_merge_split.events"] = ms_events
    out["coupling.simulate_merge_split.splits"] = count("coupling.simulate_merge_split.splits")
    out["coupling.simulate_merge_split.clamped"] = count("coupling.simulate_merge_split.clamped")
    out["coupling.simulate_merge_split.merged_share"] = ratio(
        count("coupling.simulate_merge_split.merged_events"), ms_events
    )
    cs_events = count("coupling.simulate_coupled_system.events")
    out["coupling.simulate_coupled_system.events"] = cs_events
    out["coupling.simulate_coupled_system.us_per_event"] = ratio(
        total("coupling.simulate_coupled_system"), cs_events, 1e6
    )
    out["coupling.events_stored"] = count("coupling.events_stored")

    model_spans = ("models.rate", "models.kernel", "models.base_flow", "models.kernel_atoms")
    for name in model_spans:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = own(name)
    out["models.self_share"] = ratio(own(*model_spans), wall_s)

    for phase in ("load_config", "build_bundle", "map_replicas", "write_csv"):
        out[f"cli.{phase}_s"] = total(f"cli.{phase}")
    out["cli.replica_failures"] = count("cli.replica_failures")
    return out

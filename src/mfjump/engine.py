"""Simulation of jump processes whose rate and kernel read an ambient measure.

The central objects are:

* :class:`EmpiricalMeasure` — a finitely supported probability measure.
* :class:`MeasureFlow` — a piecewise-constant path of measures on a time grid.
* :class:`ModelSpec` — the dynamics: deterministic-or-stochastic base flow
  between jumps, a jump rate and a jump kernel, both functions of the current
  state and of the ambient measure.

Trajectories are produced by thinning: jump times are proposed by a Poisson
clock at a ceiling rate and accepted with probability ``rate / ceiling``.
:func:`simulate_nonlinear` uses one global ceiling; for models whose rate is
unbounded, :func:`simulate_nonlinear_unbounded` uses per-flight local ceilings
supplied by the model.  :func:`picard_solve` closes the loop, iterating the
map "measure flow in, law of the simulated process out" to a fixed point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .metrics import Binning, make_binning, quantize_state

__all__ = [
    "JUMP_ACCEPTED",
    "JUMP_REJECTED",
    "SAMPLE",
    "EmpiricalMeasure",
    "Event",
    "MeasureFlow",
    "ModelSpec",
    "PicardResult",
    "RateCeilingError",
    "Trajectory",
    "flow_sample",
    "picard_solve",
    "simulate_nonlinear",
    "simulate_nonlinear_unbounded",
]

State = tuple

#: Event kinds recorded on trajectories.
JUMP_ACCEPTED = "jump-accepted"
JUMP_REJECTED = "jump-rejected"
SAMPLE = "sample"

#: Relative slack when checking rates against their ceiling, so that rates
#: which equal the ceiling up to float noise are not flagged.
_CEILING_SLACK = 1e-9


class RateCeilingError(RuntimeError):
    """A jump rate exceeded the ceiling it was promised to stay under."""


class EmpiricalMeasure:
    """A probability measure supported on finitely many states.

    ``atoms`` is a read-only sequence of ``(state, weight)`` pairs.  Weights
    must be nonnegative and sum to one (the empty measure, used as a
    placeholder for zero-mass residuals, is also allowed).

    A measure made by :meth:`from_states` only keeps the states: its atoms
    (quantised, merged and sorted) are built on the first read of ``atoms``,
    and until then :meth:`mean` reads the states directly.  The mean-field
    lift builds one such measure per rate and kernel call; most are never
    read, or read only through a moment.
    """

    __slots__ = ("_atoms", "_states", "_mean_cache")

    def __init__(self, atoms: Iterable[tuple[State, float]]):
        atoms = tuple((tuple(s), float(w)) for s, w in atoms)
        if atoms:
            total = sum(w for _, w in atoms)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"atom weights sum to {total}, expected 1")
            if any(w < -1e-12 for _, w in atoms):
                raise ValueError("atom weights must be nonnegative")
        self._atoms = atoms
        self._states = None
        self._mean_cache: dict[int, float] = {}

    @classmethod
    def from_states(cls, states: Iterable[State]) -> "EmpiricalMeasure":
        """Uniform measure on the given states, merging duplicates."""
        states = tuple(states)
        if not states:
            raise ValueError("cannot build an empirical measure from no states")
        measure = cls(())
        measure._atoms = None
        measure._states = states
        return measure

    @property
    def atoms(self) -> tuple:
        """The ``(state, weight)`` pairs, sorted by state."""
        # Callers may read one measure from several threads.  A build sets
        # the atoms before it drops the states, so a reader that takes the
        # states first (here and in ``mean``) finds the states or the atoms,
        # never neither.
        states = self._states
        if self._atoms is None:
            weights: dict[State, float] = {}
            for s in states:
                key = quantize_state(tuple(s))
                weights[key] = weights.get(key, 0.0) + 1.0
            count = len(states)
            self._atoms = tuple(sorted((s, w / count) for s, w in weights.items()))
            self._states = None
        return self._atoms

    def expect(self, fn: Callable[[State], float]) -> float:
        """Expectation of ``fn`` under the measure."""
        return sum(w * fn(s) for s, w in self.atoms)

    def mean(self, index: int) -> float:
        """Cached mean of the ``index``-th state coordinate."""
        cached = self._mean_cache.get(index)
        if cached is None:
            states = self._states
            if states is not None:
                cached = sum(s[index] for s in states) / len(states)
            else:
                cached = sum(w * s[index] for s, w in self._atoms)
            self._mean_cache[index] = cached
        return cached

    def point(self) -> Optional[State]:
        """The unique support point, or ``None`` if the support is larger."""
        if len(self.atoms) == 1:
            return self.atoms[0][0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmpiricalMeasure({len(self.atoms)} atoms)"


@dataclasses.dataclass(frozen=True)
class MeasureFlow:
    """Piecewise-constant measure path on a uniform time grid.

    ``snapshots[k]`` is the measure on ``[k * grid_step, (k+1) * grid_step)``;
    lookups beyond the final snapshot clamp to it.
    """

    grid_step: float
    snapshots: tuple
    horizon: Optional[float] = None

    def _index(self, t: float) -> int:
        if math.isinf(self.grid_step):
            return 0
        idx = int(math.floor(t / self.grid_step + 1e-9))
        return min(max(idx, 0), len(self.snapshots) - 1)

    def at(self, t: float) -> EmpiricalMeasure:
        """Measure in force at time ``t`` (left endpoint convention)."""
        return self.snapshots[self._index(t)]

    def span(self, t0: float, t1: float) -> tuple:
        """All snapshots in force at some point of ``[t0, t1]``."""
        return self.snapshots[self._index(t0) : self._index(t1) + 1]

    @classmethod
    def constant(cls, measure: EmpiricalMeasure, horizon: float) -> "MeasureFlow":
        """Flow frozen at a single measure."""
        return cls(grid_step=math.inf, snapshots=(measure,), horizon=horizon)


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Dynamics of a jump process driven by an ambient measure.

    Attributes:
        base_flow: ``(state, dt, stream) -> state`` evolution between jumps;
            deterministic models ignore ``stream``.
        rate: ``(state, measure) -> float`` jump intensity.
        kernel: ``(state, measure, u) -> state`` post-jump state, using the
            uniform variate ``u``.
        rate_ceiling: Global upper bound on ``rate`` (may be ``inf`` when a
            ``local_bound`` is supplied instead).
        state_layout: Per-component kind, ``"real"`` or ``"label"``.
        state_box: Per-component ``(low, high)`` ranges used for binning.
        name: Human-readable model name.
        local_bound: Optional ``(state, dt, measures) -> float`` ceiling valid
            along a base flight of length ``dt`` started at ``state``, where
            ``measures`` are the flow snapshots spanning the flight.
        mixed_kernel_atoms: Optional ``(state, measure) -> [(state, w), ...]``
            atoms of the one-proposal transition (kernel scaled by the accept
            probability, plus the stay-put remainder).
        kernel_atoms: Optional ``(state, measure) -> [(state, w), ...]`` atoms
            of the jump kernel itself.
        base_coupler: Optional ``(x, y, stream) -> machine`` factory producing
            a coupled simulator of two base motions (see
            :mod:`mfjump.coupling`).
        gap_bins: Bins per real coordinate used when comparing measure flows.
    """

    base_flow: Callable
    rate: Callable
    kernel: Callable
    rate_ceiling: float
    state_layout: tuple
    state_box: tuple
    name: str
    local_bound: Optional[Callable] = None
    mixed_kernel_atoms: Optional[Callable] = None
    kernel_atoms: Optional[Callable] = None
    base_coupler: Optional[Callable] = None
    gap_bins: int = 20


@dataclasses.dataclass(frozen=True)
class Event:
    """One recorded trajectory event.

    ``ceiling`` is the proposal ceiling in force (only set by the
    local-ceiling simulator).
    """

    time: float
    kind: str
    state: State
    ceiling: Optional[float] = None


@dataclasses.dataclass
class Trajectory:
    """A simulated path: initial state, events, and terminal state."""

    initial: State
    final_state: State
    horizon: float
    events: tuple
    n_accepted: int
    n_rejected: int
    sample_states: dict

    def state_at_sample(self, t: float) -> State:
        """State recorded at requested sample time ``t``."""
        return self.sample_states[t]


def flow_sample(model: ModelSpec, state: State, dt: float, stream) -> State:
    """Evolve ``state`` for ``dt`` time units under the model's base flow."""
    if dt == 0.0:
        return tuple(state)
    return tuple(model.base_flow(tuple(state), dt, stream))


def _check_rate(rate: float, ceiling: float, context: str) -> None:
    if rate > ceiling * (1.0 + _CEILING_SLACK) + 1e-12:
        raise RateCeilingError(
            f"{context}: rate {rate} exceeds ceiling {ceiling}"
        )


def simulate_nonlinear(
    model: ModelSpec,
    flow: MeasureFlow,
    initial: State,
    horizon: float,
    stream,
    sample_times: Sequence[float] = (),
    record_events: bool = True,
) -> Trajectory:
    """Simulate a jump process driven by ``flow`` via global-ceiling thinning.

    Proposals arrive at rate ``model.rate_ceiling`` and are accepted with
    probability ``rate / ceiling``.  Every proposal is recorded as an event
    (accepted or rejected), and the state at each requested sample time is
    recorded as a sample event.
    """
    ceiling = model.rate_ceiling
    if math.isinf(ceiling):
        raise ValueError(
            "simulate_nonlinear needs a finite rate ceiling; "
            "use simulate_nonlinear_unbounded for local ceilings"
        )
    if ceiling < 0.0:
        raise ValueError("rate ceiling must be nonnegative")
    pending = sorted(set(float(ts) for ts in sample_times))
    events: list[Event] = []
    sample_states: dict[float, State] = {}
    t = 0.0
    state = tuple(initial)
    n_accepted = n_rejected = 0
    next_prop = t + stream.exponential(1.0 / ceiling) if ceiling > 0.0 else math.inf
    si = 0
    while True:
        t_sample = pending[si] if si < len(pending) else math.inf
        t_next = min(t_sample, next_prop)
        if t_next > horizon:
            break
        if t_sample <= next_prop:
            state = flow_sample(model, state, t_sample - t, stream)
            t = t_sample
            events.append(Event(time=t, kind=SAMPLE, state=state))
            sample_states[t_sample] = state
            si += 1
            continue
        state = flow_sample(model, state, next_prop - t, stream)
        t = next_prop
        measure = flow.at(t)
        rate = model.rate(state, measure)
        _check_rate(rate, ceiling, model.name)
        if stream.random() * ceiling < rate:
            state = tuple(model.kernel(state, measure, stream.random()))
            n_accepted += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_ACCEPTED, state=state))
        else:
            n_rejected += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_REJECTED, state=state))
        next_prop = t + stream.exponential(1.0 / ceiling)
    state = flow_sample(model, state, horizon - t, stream)
    return Trajectory(
        initial=tuple(initial),
        final_state=state,
        horizon=horizon,
        events=tuple(events),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        sample_states=sample_states,
    )


def simulate_nonlinear_unbounded(
    model: ModelSpec,
    flow: MeasureFlow,
    initial: State,
    horizon: float,
    stream,
    sample_times: Sequence[float] = (),
    max_flight: float = 0.1,
    record_events: bool = True,
) -> Trajectory:
    """Simulate with per-flight ceilings for models with unbounded rates.

    Time is cut into flights of length at most ``max_flight`` (also broken at
    sample times).  For each flight the model's ``local_bound`` provides a
    ceiling valid along it, proposals are thinned against that ceiling, and
    an accepted jump ends the flight so the next ceiling is computed from the
    post-jump state.
    """
    if model.local_bound is None:
        raise ValueError("model provides no local rate bound")
    if max_flight <= 0.0:
        raise ValueError("max_flight must be positive")
    pending = sorted(set(float(ts) for ts in sample_times))
    events: list[Event] = []
    sample_states: dict[float, State] = {}
    t = 0.0
    state = tuple(initial)
    n_accepted = n_rejected = 0
    si = 0
    while t < horizon - 1e-12:
        t_sample = pending[si] if si < len(pending) else math.inf
        flight_end = min(t + max_flight, horizon, t_sample)
        dt = flight_end - t
        if dt > 1e-15:
            ceiling = float(model.local_bound(state, dt, flow.span(t, flight_end)))
            jumped = False
            tau, cur = t, state
            while ceiling > 0.0:
                gap = stream.exponential(1.0 / ceiling)
                if tau + gap >= flight_end:
                    break
                prop_t = tau + gap
                cur = flow_sample(model, cur, prop_t - tau, stream)
                tau = prop_t
                measure = flow.at(prop_t)
                rate = model.rate(cur, measure)
                _check_rate(rate, ceiling, model.name)
                if stream.random() * ceiling < rate:
                    cur = tuple(model.kernel(cur, measure, stream.random()))
                    n_accepted += 1
                    if record_events:
                        events.append(
                            Event(time=prop_t, kind=JUMP_ACCEPTED, state=cur, ceiling=ceiling)
                        )
                    jumped = True
                    break
                n_rejected += 1
                if record_events:
                    events.append(
                        Event(time=prop_t, kind=JUMP_REJECTED, state=cur, ceiling=ceiling)
                    )
            if jumped:
                t, state = tau, cur
                continue
            state = flow_sample(model, cur, flight_end - tau, stream)
            t = flight_end
        else:
            t = flight_end
        while si < len(pending) and pending[si] <= t:
            events.append(Event(time=t, kind=SAMPLE, state=state))
            sample_states[pending[si]] = state
            si += 1
    return Trajectory(
        initial=tuple(initial),
        final_state=state,
        horizon=horizon,
        events=tuple(events),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        sample_states=sample_states,
    )


def _binned_tv(m1: EmpiricalMeasure, m2: EmpiricalMeasure, binning: Binning) -> float:
    """Total variation between two measures after binning their atoms."""
    cells: dict = {}
    for s, w in m1.atoms:
        k = binning.cell(s)
        cells[k] = cells.get(k, 0.0) + w
    for s, w in m2.atoms:
        k = binning.cell(s)
        cells[k] = cells.get(k, 0.0) - w
    return float(sum(abs(v) for v in cells.values()))


@dataclasses.dataclass(frozen=True)
class PicardResult:
    """Outcome of the fixed-point iteration over measure flows."""

    flow: MeasureFlow
    converged: bool
    gap: float
    gap_history: tuple
    n_iterations: int


def picard_solve(
    model: ModelSpec,
    m0: EmpiricalMeasure,
    horizon: float,
    grid_step: float,
    n_samples: int,
    tol: float,
    max_iter: int,
    stream,
) -> PicardResult:
    """Iterate "simulate under the current flow, re-estimate the flow".

    Starting from the flow frozen at ``m0``, each iteration simulates
    ``n_samples`` independent trajectories under the previous flow, collects
    their states on the time grid into empirical snapshots, and measures the
    binned total-variation gap to the previous flow (the maximum over grid
    points).  Iteration stops when the gap drops to ``tol`` or after
    ``max_iter`` rounds.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100 for usable snapshots")
    if grid_step <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and grid_step must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n_steps = int(math.floor(horizon / grid_step + 1e-9))
    grid = [k * grid_step for k in range(n_steps + 1)]
    binning = make_binning(model.state_layout, model.state_box, model.gap_bins)
    simulate = (
        simulate_nonlinear_unbounded
        if math.isinf(model.rate_ceiling)
        else simulate_nonlinear
    )
    init_states = [s for s, _ in m0.atoms]
    init_weights = np.array([w for _, w in m0.atoms])
    init_weights = init_weights / init_weights.sum()
    snapshots = tuple(m0 for _ in grid)
    flow = MeasureFlow(grid_step=grid_step, snapshots=snapshots, horizon=horizon)
    gap_history: list[float] = []
    converged = False
    for _ in range(max_iter):
        children = stream.spawn(n_samples)
        per_grid: list[list[State]] = [[] for _ in grid[1:]]
        for child in children:
            if len(init_states) == 1:
                x0 = init_states[0]
            else:
                x0 = init_states[child.choice(len(init_states), p=init_weights)]
            traj = simulate(
                model, flow, x0, horizon, child,
                sample_times=grid[1:], record_events=False,
            )
            for k, tg in enumerate(grid[1:]):
                per_grid[k].append(traj.state_at_sample(tg))
        new_snapshots = (m0,) + tuple(
            EmpiricalMeasure.from_states(states) for states in per_grid
        )
        gap = max(
            _binned_tv(a, b, binning) for a, b in zip(new_snapshots, snapshots)
        )
        gap_history.append(gap)
        snapshots = new_snapshots
        flow = MeasureFlow(grid_step=grid_step, snapshots=snapshots, horizon=horizon)
        if gap <= tol:
            converged = True
            break
    return PicardResult(
        flow=flow,
        converged=converged,
        gap=gap_history[-1],
        gap_history=tuple(gap_history),
        n_iterations=len(gap_history),
    )

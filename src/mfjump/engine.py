"""Simulation of jump processes whose rate and kernel read an ambient measure.

The central objects are:

* :class:`EmpiricalMeasure` — a finitely supported probability measure.
* :class:`MeasureFlow` — a piecewise-constant path of measures on a time grid.
* :class:`ModelSpec` — the dynamics: a base motion between jumps, given by
  a coupler of pair machines, and a jump rate and a jump kernel, both
  functions of the current state and of the ambient measure.

Trajectories are produced by thinning: jump times are proposed by a Poisson
:func:`clock` at a ceiling rate and accepted with probability
``rate / ceiling``.  :func:`simulate_nonlinear` is the one single-process
simulator: it thins under the model's global ``rate_ceiling``, or, for a
model with a ``local_bound`` (an unbounded rate), under one local ceiling per
short flight.  :func:`picard_solve` closes the loop, iterating the map
"measure flow in, law of the simulated process out" to a fixed point.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import math
from typing import Callable, Iterable, Optional, Sequence

from .metrics import discrete_tv, make_binning

__all__ = [
    "JUMP_ACCEPTED",
    "JUMP_REJECTED",
    "PROPOSAL",
    "SAMPLE",
    "WINDOW",
    "DriftMachine",
    "EmpiricalMeasure",
    "Event",
    "MeasureFlow",
    "ModelSpec",
    "PicardResult",
    "RateCeilingError",
    "Trajectory",
    "check_rate",
    "clock",
    "picard_solve",
    "simulate_nonlinear",
    "thin",
]

State = tuple

#: Event kinds recorded on trajectories.
JUMP_ACCEPTED = "jump-accepted"
JUMP_REJECTED = "jump-rejected"

#: Kinds of the events :func:`clock` yields.
SAMPLE = "sample"
WINDOW = "window"
PROPOSAL = "proposal"

#: Relative slack when checking rates against their ceiling, so that rates
#: which equal the ceiling up to float noise are not flagged.
_CEILING_SLACK = 1e-9

#: Longest flight thinned under one ``local_bound`` ceiling.
_MAX_FLIGHT = 0.1

#: Bins per real coordinate when :func:`picard_solve` compares measure flows.
_GAP_BINS = 20

#: Distance from 1 within which a jump law's atom weights must sum.
_MASS_TOL = 1e-6

#: Most grid points (:func:`picard_solve`) or window boundaries (:func:`clock`) on a run.
_MAX_GRID_POINTS = 10**6

#: Uniforms a :class:`_BlockStream` draws from its generator at a time.
_BLOCK = 32


class RateCeilingError(RuntimeError):
    """A jump rate exceeded the ceiling it was promised to stay under."""


def _check_mass(total: float) -> None:
    """Raise ``ValueError`` unless the atom weights ``total`` is 1 within
    ``_MASS_TOL`` (a NaN total fails)."""
    if not abs(total - 1.0) <= _MASS_TOL:
        raise ValueError(f"atom weights sum to {total}, expected 1")


def _check_weight(w: float) -> None:
    """Raise ``ValueError`` if the atom weight ``w`` is below -1e-9; a weight
    in ``[-1e-9, 0)`` is float noise and counts as 0."""
    if w < -1e-9:
        raise ValueError(f"atom weight {w} is negative")


def _checked(atoms: Sequence) -> Sequence:
    """``atoms``, a sequence of ``(state, weight)`` pairs, once each weight
    (:func:`_check_weight`) and their mass (:func:`_check_mass`) pass."""
    total = 0.0
    for _, w in atoms:
        if w < 0.0:
            _check_weight(w)
        total += w
    _check_mass(total)
    return atoms


class EmpiricalMeasure:
    """A probability measure supported on finitely many states.

    ``atoms`` is a read-only sequence of ``(state, weight)`` pairs, checked
    as a jump law's atoms are (:func:`_checked`): none, of mass 0, is refused.

    A measure made by :meth:`from_states` only keeps the states: its atoms
    (one per distinct state, sorted) are built on the first read of ``atoms``,
    and until then :meth:`mean` reads the states directly.  The mean-field
    lift builds one such measure per rate and kernel call; most are never
    read, or read only through a moment.
    """

    __slots__ = ("_atoms", "_states", "_mean_cache")

    def __init__(self, atoms: Iterable[tuple[State, float]]):
        self._atoms = _checked(tuple((tuple(s), float(w)) for s, w in atoms))
        self._states = None
        self._mean_cache: dict[int, float] = {}

    @classmethod
    def from_states(cls, states: Iterable[State]) -> "EmpiricalMeasure":
        """Uniform measure on the given states, merging duplicates."""
        states = tuple(states)
        if not states:
            raise ValueError("cannot build an empirical measure from no states")
        measure = cls.__new__(cls)
        measure._atoms, measure._states, measure._mean_cache = None, states, {}
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
            counts = collections.Counter(map(tuple, states))
            n = len(states)
            self._atoms = tuple(sorted((s, c / n) for s, c in counts.items()))
            self._states = None
        return self._atoms

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
    def constant(cls, measure: EmpiricalMeasure) -> "MeasureFlow":
        """Flow frozen at a single measure."""
        return cls(grid_step=math.inf, snapshots=(measure,))


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Dynamics of a jump process driven by an ambient measure.

    Attributes:
        rate: ``(state, measure) -> float`` jump intensity.
        kernel: ``(state, measure, stream) -> state`` sampler of the
            post-jump state, drawing any variates it needs from ``stream``;
            for a jump law with no finite atom list.
        rate_ceiling: Global upper bound on ``rate``, the ceiling of every
            proposal when the model has no ``local_bound``.  It may be
            ``inf`` only when a ``local_bound`` is supplied.
        state_layout: Per-component kind, ``"real"`` or ``"label"``.
        state_box: Per-component ``(low, high)`` ranges used for binning.  A
            label's entry lists the values it may take (binning never reads
            it): ``(-1, 1)`` is the set {-1, +1}.  The CLI checks states
            against it.
        name: Human-readable model name.
        local_bound: Optional ``(state, dt, measures) -> float`` ceiling valid
            along a base flight of length ``dt`` started at ``state``, where
            ``measures`` are the flow snapshots spanning the flight.  When it
            is given, :func:`simulate_nonlinear` thins every flight under it
            and ignores ``rate_ceiling``.
        kernel_atoms: ``(state, measure) -> [(state, w), ...]`` atoms of the
            jump kernel, a sequence of nonnegative weights summing to one,
            which every simulator checks by one rule (:func:`_checked`).  A
            single run draws from them by one uniform variate (inverse CDF
            in the order given); coupled runs add up their positive weights
            by state into the mixed (one-proposal) kernel.
        base_coupler: ``(x, y, stream) -> machine``, the base motion: a
            factory of pair machines drawing from ``stream`` (protocol in
            :mod:`mfjump.coupling`), which on the diagonal (``x == y``) is
            the base motion itself.  A model with no merging coupling gives
            a :class:`~mfjump.coupling.TwinCoupler`.  Required.

    The jump law is declared once, by exactly one of ``kernel`` and
    ``kernel_atoms``, and the base motion once, by ``base_coupler``, which
    every simulator starts its machines by; a system coordinate's fields
    take ``(i, config)`` in place of ``(state, measure)``.  Construction
    stores the one jump sampler that every simulator calls, typed as
    ``kernel``, as ``jump`` (not a field).
    """

    rate: Callable
    rate_ceiling: float
    state_layout: tuple
    state_box: tuple
    name: str
    kernel: Optional[Callable] = None
    local_bound: Optional[Callable] = None
    kernel_atoms: Optional[Callable] = None
    base_coupler: Optional[Callable] = None

    def __post_init__(self) -> None:
        _check_base_motion(self)
        object.__setattr__(self, "jump", _jump_sampler(self, {"kernel_atoms": _atoms_jump}))


def _check_base_motion(spec) -> None:
    """Raise ``ValueError`` unless ``spec`` declares its base motion."""
    if spec.base_coupler is None:
        raise ValueError(f"{spec.name}: declare a base_coupler")


def _jump_sampler(spec, samplers: dict) -> Callable:
    """The one jump sampler of ``spec``, which declares its jump law by
    exactly one of ``kernel`` and the atom forms named in ``samplers``: the
    ``kernel`` itself, else ``samplers[form]`` of the declared form.  Raises
    ``ValueError`` unless exactly one is declared."""
    forms = ["kernel", *samplers]
    declared = [form for form in forms if getattr(spec, form) is not None]
    if len(declared) != 1:
        raise ValueError(
            f"{spec.name}: declare exactly one of {', '.join(forms[:-1])} and {forms[-1]}"
        )
    (form,) = declared
    law = getattr(spec, form)
    return law if form == "kernel" else samplers[form](law)


def _atoms_jump(atoms: Callable) -> Callable:
    """Jump sampler of a law declared by ``kernel_atoms``: one of its atoms,
    picked by one uniform variate, after they are checked."""

    def jump(a, b, stream):
        return _pick(_checked(atoms(a, b)), stream.random())

    return jump


def _pick(atoms: Sequence, w: float) -> tuple:
    """Inverse-CDF draw from ``atoms`` in the order given, at quantile ``w``.
    A ``w`` past the total, which rounding or a mass short of 1 within
    ``_MASS_TOL`` leaves, takes the last atom of positive weight."""
    acc = 0.0
    for state, weight in atoms:
        acc += weight
        if w < acc:
            return tuple(state)
    return next(tuple(state) for state, weight in reversed(atoms) if weight > 0.0)


@dataclasses.dataclass(frozen=True)
class Event:
    """One recorded trajectory event.

    ``ceiling`` is the ceiling a :func:`simulate_nonlinear` proposal was
    thinned under: the flight's ``local_bound`` value when the model has one,
    else its ``rate_ceiling``.  It is ``None`` on the events of particle
    systems.
    """

    time: float
    kind: str
    state: State
    ceiling: Optional[float] = None


@dataclasses.dataclass
class Trajectory:
    """A simulated path: initial state, events, samples and terminal state."""

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


class DriftMachine:
    """One-side base machine (for a :class:`~mfjump.coupling.TwinCoupler`) of
    a state moving at a constant ``drift`` (one velocity per component, or
    ``None`` to stand still), with no event.  A component with drift 0 keeps
    its exact value, so labels stay ints."""

    def __init__(self, state, drift: Optional[tuple] = None):
        self._state = tuple(state)
        self._drift = drift

    def next_event_in(self) -> float:
        return math.inf

    def drift(self) -> Optional[tuple]:
        return self._drift

    def advance(self, dt: float) -> State:
        if self._drift is not None and dt > 0.0:
            self._state = tuple(
                [x + d * dt if d else x for x, d in zip(self._state, self._drift)]
            )
        return self._state


class _BlockStream:
    """A stream that hands out a numpy ``Generator``'s uniforms from blocks.

    A scalar ``Generator.random()`` costs a numpy call per variate; this
    stream draws ``_BLOCK`` uniforms in one call and hands them out one at a
    time.  The generator's doubles are drawn one after another, so
    :meth:`random` gives exactly the values the generator's own ``random()``
    calls would.  :meth:`exponential` inverts a uniform of the same block,
    ``-log1p(-u) * scale``: an exact exponential law, finite since
    ``u < 1``.  :meth:`integers` and :meth:`spawn` draw from the generator
    itself (after the uniforms of the blocks already drawn), ``spawn``
    giving block streams; any other attribute is the generator's.  A deep
    copy copies the unread block, so a copy hands out the same variates.
    """

    __slots__ = ("_generator", "_block")

    def __init__(self, generator):
        self._generator = generator
        # The unread uniforms of the current block, the next one last.
        self._block: list[float] = []

    def _fill(self) -> None:
        self._block = self._generator.random(_BLOCK)[::-1].tolist()

    def random(self) -> float:
        if not self._block:
            self._fill()
        return self._block.pop()

    def exponential(self, scale: float = 1.0) -> float:
        if not self._block:
            self._fill()
        return -math.log1p(-self._block.pop()) * scale

    def integers(self, *args, **kwargs):
        return self._generator.integers(*args, **kwargs)

    def spawn(self, n_children: int) -> list:
        return [_BlockStream(child) for child in self._generator.spawn(n_children)]

    def __deepcopy__(self, memo) -> "_BlockStream":
        twin = _BlockStream(copy.deepcopy(self._generator, memo))
        twin._block = list(self._block)
        return twin

    def __getattr__(self, name: str):
        # Called only for names the class lacks; private names are refused
        # so that a half-built instance cannot recurse.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._generator, name)


def _waiting_time(stream, rate: float) -> float:
    """An exponential waiting time at ``rate`` drawn from ``stream``, or
    ``inf``, with nothing drawn, when ``rate`` is not positive."""
    return stream.exponential(1.0 / rate) if rate > 0.0 else math.inf


def check_rate(
    rate: float, ceiling: float, name: str, coordinate: Optional[int] = None
) -> None:
    """Raise :class:`RateCeilingError` if ``rate`` exceeds ``ceiling``.

    Thinning against a ceiling that the rate exceeds silently biases the
    law, so every simulator checks each rate it thins.  The message names
    ``name`` and, when given, the ``coordinate`` whose rate it is.  A NaN
    rate fails too.
    """
    if not rate <= ceiling * (1.0 + _CEILING_SLACK) + 1e-12:
        where = name if coordinate is None else f"{name}: coordinate {coordinate}"
        raise RateCeilingError(f"{where}: rate {rate} exceeds ceiling {ceiling}")


def thin(
    rate: float, ceiling: float, stream, name: str, coordinate: Optional[int] = None
) -> bool:
    """Whether a proposal at ``rate`` thinned under ``ceiling`` is a jump.

    The rate is checked against the ceiling (:func:`check_rate`), then
    accepted with probability ``rate / ceiling`` by one uniform from
    ``stream`` (Lewis & Shedler 1979).
    """
    check_rate(rate, ceiling, name, coordinate)
    return stream.random() * ceiling < rate


def clock(
    horizon: float,
    rate: float,
    stream,
    sample_times: Iterable[float] = (),
    window: float = math.inf,
    start: float = 0.0,
    *,
    name: str,
):
    """The events of a thinning run under one ceiling on ``[start, horizon]``.

    Yields ``(t, kind)`` in time order: each distinct sample time once
    (``SAMPLE``), each window boundary ``k * window`` for ``k >= 1``
    (``WINDOW``), and the points after ``start`` of a Poisson process of
    intensity ``rate`` (``PROPOSAL``).  At equal times samples
    come first, then windows.  The gap after a proposal is drawn from
    ``stream`` only when the caller asks for the next event, so the draws the
    caller makes at a proposal come before it.  With ``rate == 0`` nothing is
    drawn.  :func:`simulate_nonlinear` under local ceilings runs one clock
    per flight, every other simulator one over ``[0, horizon]``.

    It refuses, by a ``ValueError`` naming the run ``name``, a ``rate`` that
    is not finite and nonnegative, a ``window`` that is not positive, the
    run times :func:`_run_times` refuses, and a ``window`` that lays more
    than ``_MAX_GRID_POINTS`` boundaries on the run.
    """
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"{name}: proposal rate {rate} is not finite and nonnegative")
    if not window > 0.0:
        raise ValueError(f"{name}: window {window} is not positive")
    times = _run_times(horizon, sample_times, name, start)
    if not horizon / window <= _MAX_GRID_POINTS:
        raise ValueError(
            f"{name}: window {window} lays more than {_MAX_GRID_POINTS} "
            f"boundaries on the horizon {horizon}"
        )
    return _ticks(horizon, rate, stream, times, window, start)


def _run_times(
    horizon: float, sample_times: Iterable[float], name: str, start: float = 0.0
) -> list:
    """The sorted distinct sample times of a run on ``[start, horizon]``.

    Refuses, by a ``ValueError`` naming the run ``name``, a ``horizon`` that
    is NaN, infinite or before ``start`` (negative, for a run from 0), and a
    sample time that is NaN, before ``start`` or past ``horizon``.
    """
    if not start <= horizon < math.inf:
        raise ValueError(f"{name}: horizon {horizon} is NaN, infinite or before the start {start}")
    times = [float(ts) for ts in sample_times]
    for ts in times:
        if not ts >= start:
            raise ValueError(f"{name}: sample time {ts} is NaN or before the start {start}")
        if ts > horizon:
            raise ValueError(f"{name}: sample time {ts} is past the horizon {horizon}")
    return sorted(set(times))


def _ticks(horizon, rate, stream, sample_times, window, start):
    """The events of :func:`clock`, from sorted distinct ``sample_times``."""
    samples = iter(sample_times + [math.inf])
    t_sample = next(samples)
    k = 1
    next_window = window
    next_prop = start + _waiting_time(stream, rate)
    while min(t_sample, next_window, next_prop) <= horizon:
        if t_sample <= min(next_window, next_prop):
            yield t_sample, SAMPLE
            t_sample = next(samples)
        elif next_window <= next_prop:
            k += 1
            yield next_window, WINDOW
            next_window = k * window
        else:
            yield next_prop, PROPOSAL
            next_prop += _waiting_time(stream, rate)


def simulate_nonlinear(
    model: ModelSpec,
    flow: MeasureFlow,
    initial: State,
    horizon: float,
    stream,
    sample_times: Sequence[float] = (),
    record_events: bool = True,
) -> Trajectory:
    """Simulate a jump process driven by ``flow`` by thinning.

    Time is cut into flights, each thinned under one ceiling from
    :func:`clock` (Lewis & Shedler 1979; Ogata 1981): proposals are accepted
    with probability ``rate / ceiling``.

    * A model with a ``local_bound`` flies at most ``_MAX_FLIGHT`` at a time
      under the ceiling ``local_bound`` gives from the flight's start, and an
      accepted jump ends the flight, so the next ceiling is taken from the
      post-jump state.
    * A model without one flies once over ``[0, horizon]`` under its
      ``rate_ceiling``, which must then be finite.

    The state moves by the model's ``base_coupler`` started on the
    diagonal, drawing from ``stream``; an accepted jump restarts it at the
    post-jump state.  Every proposal is recorded as an event (accepted or
    rejected) when ``record_events``; with ``record_events=False`` no event
    is kept.  The state at each sample time is recorded in
    ``sample_states``.  The horizon and the sample times are checked at the
    call (:func:`_run_times`), and each flight's clock is given only the
    sample times inside it.
    """
    local_bound = model.local_bound
    pending = _run_times(horizon, sample_times, model.name)
    events: list[Event] = []
    sample_states: dict[float, State] = {}
    t = 0.0
    state = tuple(initial)
    n_accepted = n_rejected = 0
    machine = model.base_coupler(state, state, stream)
    while True:
        if local_bound is None:
            end, ceiling = horizon, model.rate_ceiling
        else:
            end = min(t + _MAX_FLIGHT, horizon)
            ceiling = float(local_bound(state, end - t, flow.span(t, end)))
        inside = [ts for ts in pending if ts <= end]
        for t_event, kind in clock(end, ceiling, stream, inside, start=t, name=model.name):
            state = machine.advance(t_event - t)[0]
            t = t_event
            if kind == SAMPLE:
                sample_states[t] = state
                continue
            measure = flow.at(t)
            accepted = thin(model.rate(state, measure), ceiling, stream, model.name)
            if accepted:
                state = tuple(model.jump(state, measure, stream))
                machine = model.base_coupler(state, state, stream)
                n_accepted += 1
            else:
                n_rejected += 1
            if record_events:
                outcome = JUMP_ACCEPTED if accepted else JUMP_REJECTED
                events.append(Event(time=t, kind=outcome, state=state, ceiling=ceiling))
            if accepted and local_bound is not None:
                break
        else:
            state = machine.advance(end - t)[0]
            t = end
        if t >= horizon:
            break
        # The flight yielded every sample up to t (samples come first at
        # equal times), so the next one starts after them.
        pending = [ts for ts in pending if ts > t]
    return Trajectory(
        initial=tuple(initial),
        final_state=state,
        horizon=horizon,
        events=tuple(events),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        sample_states=sample_states,
    )


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
    ``max_iter`` rounds.  A trajectory starts from a draw of ``m0`` by one
    uniform (none when ``m0`` is a point).  The grid is ``k * grid_step`` up
    to ``horizon``, with a last point that rounds past it taken at ``horizon``.
    A horizon that :func:`_run_times` refuses, or a ``grid_step`` that leaves
    no grid point after 0 or lays more than ``_MAX_GRID_POINTS``, raises
    ``ValueError`` before any path is simulated.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100 for usable snapshots")
    if not (grid_step > 0.0 and horizon > 0.0):
        raise ValueError("horizon and grid_step must be positive")
    _run_times(horizon, (), model.name)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not horizon / grid_step <= _MAX_GRID_POINTS:
        raise ValueError(
            f"{model.name}: grid_step {grid_step} lays more than {_MAX_GRID_POINTS} "
            f"grid points on the horizon {horizon}"
        )
    n_steps = int(math.floor(horizon / grid_step + 1e-9))
    if n_steps < 1:
        raise ValueError(
            f"{model.name}: grid_step {grid_step} leaves no grid point after 0 "
            f"within the horizon {horizon}"
        )
    grid = [min(k * grid_step, horizon) for k in range(n_steps + 1)]
    binning = make_binning(model.state_layout, model.state_box, _GAP_BINS)
    point = m0.point()
    flow = MeasureFlow(grid_step=grid_step, snapshots=tuple(m0 for _ in grid))
    # The cell weights of each snapshot of the flow: every measure is binned
    # once, a sampled one straight from its states.
    m0_cells = binning.weigh(*zip(*m0.atoms))
    cells = [m0_cells for _ in grid]
    gap_history: list[float] = []
    converged = False
    for _ in range(max_iter):
        per_grid: list[list[State]] = [[] for _ in grid[1:]]
        for _ in range(n_samples):
            x0 = point if point is not None else _pick(m0.atoms, stream.random())
            traj = simulate_nonlinear(
                model, flow, x0, horizon, stream,
                sample_times=grid[1:], record_events=False,
            )
            for k, tg in enumerate(grid[1:]):
                per_grid[k].append(traj.state_at_sample(tg))
        new_cells = [m0_cells] + [binning.weigh(states) for states in per_grid]
        gap = max(discrete_tv(a, b) for a, b in zip(new_cells, cells))
        gap_history.append(gap)
        cells = new_cells
        flow = MeasureFlow(
            grid_step=grid_step,
            snapshots=(m0,) + tuple(EmpiricalMeasure.from_states(s) for s in per_grid),
        )
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

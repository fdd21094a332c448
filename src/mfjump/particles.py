"""Interacting particle systems driven by a single global proposal clock.

A system of ``N`` coordinates evolves by: independent per-coordinate base
motion between jumps, a global Poisson proposal clock at rate
``N * rate_ceiling``, a uniformly chosen coordinate per proposal, and
thinning acceptance with probability ``rate_i / rate_ceiling``.  Jump rates
may depend on the whole configuration, which is how mean-field interaction
enters.

:func:`simulate_system` is event-driven, after the next-reaction method
(Gibson & Bruck, J. Phys. Chem. A 104, 2000) in Anderson's form for
time-dependent propensities (J. Chem. Phys. 127, 214107, 2007).  Each
coordinate's base machine tells when its next base event falls and how its
state drifts until then.  A heap of those times tells a proposal which
machines to advance; every other coordinate is read lazily as its state at
its last event moved by its drift, and the configuration's means come from
running sums.  So a mean-field proposal costs ``O(log N)``, not ``O(N)``.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import abc
from typing import Callable, Optional, Sequence

from .engine import (
    JUMP_ACCEPTED,
    JUMP_REJECTED,
    SAMPLE,
    EmpiricalMeasure,
    Event,
    ModelSpec,
    RateCeilingError,
    Trajectory,
    _atoms_jump,
    _check_base_motion,
    _checked,
    _jump_sampler,
    _pick,
    clock,
    thin,
)

__all__ = [
    "SystemSpec",
    "empirical",
    "meanfield_system",
    "simulate_system",
]

State = tuple


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """Dynamics of an interacting system of exchangeable coordinates.

    Attributes:
        n_particles: Number of coordinates.
        rate: ``(i, config) -> float`` jump rate of coordinate ``i`` given the
            full configuration.  ``config`` is a read-only sequence of
            coordinate states, valid only during the call: keep a copy
            (``tuple(config)``), not the sequence.
        kernel: ``(i, config, stream) -> coord_state`` sampler of the
            post-jump state of coordinate ``i``, drawing any variates it
            needs from ``stream``; for a jump law with no finite atom list.
            ``config`` is as for ``rate``.
        rate_ceiling: Uniform bound on every coordinate rate.
        coordinate_layout: Per-component kind of one coordinate.
        coordinate_box: Per-component range of one coordinate.  A label's
            entry lists the values it may take (binning never reads it):
            ``(-1, 1)`` is the set {-1, +1}.  The CLI checks coordinates
            against it.
        name: Human-readable system name.
        kernel_atoms: ``(i, config) -> [(coord_state, w), ...]`` atoms of
            the jump kernel of coordinate ``i``, used and checked as a
            model's (:attr:`~mfjump.engine.ModelSpec.kernel_atoms`).
        pair_atoms: ``(x_i, x_j) -> [(coord_state, w), ...]``, the
            jump kernel in mean-field pairwise form: the kernel of
            coordinate ``i`` is ``(1/n) * sum_j pair_atoms(x_i, x_j)`` over
            all ``n`` coordinates ``j`` (``i`` included), and each answer
            is checked as ``kernel_atoms`` are.  A single run draws a uniform
            donor ``j``, then one of its atoms.  Coupled runs add the
            positive weights of those atoms by state
            (:func:`~mfjump.coupling._weigh`).  At a merged coordinate,
            whatever the rates, they read the donors that agree on both
            sides one at a time, the one whose slot the merge uniform lands
            in, and the others only when it lands past them.  At an unmerged
            coordinate both sides draw one shared uniform donor and read
            its answer alone, one per side
            (:func:`~mfjump.coupling.simulate_coupled_system`).
        base_coupler: The base motion of one coordinate, typed as in
            :class:`~mfjump.engine.ModelSpec` (coordinates are exchangeable,
            so it takes no index).  Required.

    The jump law is declared once, by exactly one of ``kernel``,
    ``kernel_atoms`` and ``pair_atoms``; construction stores its one sampler
    as ``jump``, as for :class:`~mfjump.engine.ModelSpec`.
    """

    n_particles: int
    rate: Callable
    rate_ceiling: float
    coordinate_layout: tuple
    coordinate_box: tuple
    name: str
    kernel: Optional[Callable] = None
    kernel_atoms: Optional[Callable] = None
    base_coupler: Optional[Callable] = None
    pair_atoms: Optional[Callable] = None

    def __post_init__(self) -> None:
        _check_base_motion(self)
        samplers = {"kernel_atoms": _atoms_jump, "pair_atoms": _pairwise_jump}
        object.__setattr__(self, "jump", _jump_sampler(self, samplers))


def _pairwise_jump(pair_atoms: Callable) -> Callable:
    """Jump sampler of a system declared in pairwise form: a uniform donor,
    then one of its pair atoms by one uniform variate, after they are
    checked."""

    def jump(i, config, stream):
        donor = config[int(stream.integers(len(config)))]
        return _pick(_checked(pair_atoms(config[i], donor)), stream.random())

    return jump


def empirical(config: Sequence[State]) -> EmpiricalMeasure:
    """Empirical measure of a configuration (uniform over coordinates).

    For the configuration :func:`simulate_system` passes to ``rate`` and
    ``kernel`` while coordinates drift, ``mean`` reads the simulator's
    running sums in ``O(1)``; like that configuration, such a measure is
    valid only during the call.
    """
    if isinstance(config, _LiveSide):
        return _LiveMeasure(config)
    return EmpiricalMeasure.from_states(config)


def _anchor(state, drift, since: float, k: int) -> float:
    """Component ``k`` of ``state`` moved back by its drift to time 0."""
    if drift is None:
        return state[k]
    return state[k] - drift[k] * since


class _LiveSide(abc.Sequence):
    """One side of a running configuration, read at the time of its last flow.

    Coordinate ``j`` is stored as its state at its last base event or jump,
    ``since[j]``, with the drift its machine reported then.  It is read at
    the flow time ``t`` as that state moved by its drift for ``t -
    since[j]``; a component with no drift keeps its exact value, so labels
    stay ints.

    ``mean(k)`` is ``(A_k + t * B_k) / N`` with ``A_k = sum(x_jk - d_jk *
    since[j])`` and ``B_k = sum(d_jk)``.  Each sum is built with
    :func:`math.fsum` when first read and kept up to date at every change of
    a coordinate.  It is rebuilt after ``N`` updates and after each sample,
    so float error cannot build up.
    """

    def __init__(self, initial: Sequence[State]):
        n = len(initial)
        self._n = n
        self.t = 0.0
        self._states = list(initial)
        self._since = [0.0] * n
        self._drifts: list = [None] * n
        self._moving = 0
        self._sums: dict[int, list] = {}
        self._updates = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, j: int) -> State:
        drift = self._drifts[j]
        if drift is None:
            return self._states[j]
        dt = self.t - self._since[j]
        return tuple([x + d * dt if d else x for x, d in zip(self._states[j], drift)])

    def __iter__(self):
        return map(self.__getitem__, range(self._n))

    def view(self) -> Sequence[State]:
        """What ``rate`` and the jump law read: the stored
        states themselves while no coordinate drifts, else this lazy view."""
        return self if self._moving else self._states

    def snapshot(self) -> tuple:
        """The configuration at a sample time; the sums are rebuilt next."""
        self._sums.clear()
        return tuple(self.view())

    def mean(self, k: int) -> float:
        """Mean of component ``k`` over the coordinates, from the sums."""
        sums = self._sums.get(k)
        if sums is None:
            if not self._sums:
                self._updates = 0
            parts = zip(self._states, self._drifts, self._since)
            sums = self._sums[k] = [
                math.fsum(_anchor(s, d, since, k) for s, d, since in parts),
                math.fsum(d[k] for d in self._drifts if d is not None),
            ]
        return (sums[0] + self.t * sums[1]) / self._n

    def set(self, j: int, state: State, drift, t: float) -> None:
        """Store coordinate ``j`` as ``state`` at ``t`` and update the sums."""
        old_state, old_drift, old_t = self._states[j], self._drifts[j], self._since[j]
        self._states[j] = state
        self._drifts[j] = drift
        self._since[j] = t
        self._moving += (drift is not None) - (old_drift is not None)
        sums = self._sums
        if not sums:
            return
        self._updates += 1
        if self._updates > self._n:
            sums.clear()
            return
        for k, acc in sums.items():
            acc[0] += _anchor(state, drift, t, k) - _anchor(old_state, old_drift, old_t, k)
            acc[1] += (drift[k] if drift is not None else 0) - (
                old_drift[k] if old_drift is not None else 0
            )


class _Matching:
    """Coordinate indices split into ``matched`` (``x_j == y_j``) and
    ``mismatched`` lists, moved between them by swap-remove in ``O(1)``.

    The order of each list depends on the order of the moves, so two loops
    that make the same moves see the same lists.
    """

    def __init__(self, n: int):
        self.matched = list(range(n))
        self.mismatched: list[int] = []
        self._where = list(range(n))
        self._is_matched = [True] * n

    def assign(self, j: int, matched: bool) -> None:
        """Put ``j`` in ``matched`` or ``mismatched``."""
        if self._is_matched[j] == matched:
            return
        source, target = (
            (self.mismatched, self.matched) if matched else (self.matched, self.mismatched)
        )
        last = source.pop()
        if last != j:
            source[self._where[j]] = last
            self._where[last] = self._where[j]
        self._where[j] = len(target)
        target.append(j)
        self._is_matched[j] = matched


class _LiveConfig:
    """Coordinates of a running system, each moved by one pair machine.

    Coordinate ``j`` is a pair ``(x_j, y_j)`` moved by its base machine,
    started by the system's ``base_coupler`` and drawing from the run's one
    ``stream``.  A single run is the ``x`` side of the diagonal: its
    machines start at ``(x_j, x_j)`` and ``y`` is ``None``.  Each side is a
    :class:`_LiveSide`, and for a pair :attr:`matching` splits the
    coordinates by ``x_j == y_j``.

    Each machine sits in a heap keyed by the time of its next event on
    either side, and :meth:`flow` advances it only when that time has come.
    """

    def __init__(self, system: SystemSpec, x0: Sequence[State], stream, y0=None):
        n = len(x0)
        self._system = system
        self._stream = stream
        self.x = _LiveSide(x0)
        self.y = None if y0 is None else _LiveSide(y0)
        self.matching = None if y0 is None else _Matching(n)
        self._machines: list = [None] * n
        self._due = [math.inf] * n
        self._heap: list = []
        for j in range(n):
            self.start(j, x0[j], None if y0 is None else y0[j])

    def _settle(self, j: int, x: State, y: State, t: float) -> None:
        """Store coordinate ``j`` as ``(x, y)`` at ``t`` and queue the next
        event of its machine."""
        machine = self._machines[j]
        dx, dy = machine.drifts()
        self.x.set(j, x, dx, t)
        if self.y is not None:
            self.y.set(j, y, dy, t)
            self.matching.assign(j, x == y)
        self._due[j] = at = t + machine.next_event_in()
        if at < math.inf:
            heapq.heappush(self._heap, (at, j))

    def start(self, j: int, x: State, y: Optional[State] = None) -> None:
        """Start coordinate ``j``'s machine at ``(x, y)`` (``y`` defaults to
        ``x``) at the flow time."""
        if y is None:
            y = x
        self._machines[j] = self._system.base_coupler(x, y, self._stream)
        self._settle(j, x, y, self.x.t)

    def flow(self, t: float) -> None:
        """Advance to ``t`` the machines whose next event is due, in index
        order.

        A machine that is not due draws nothing when advanced, so these are
        the draws that advancing every machine in index order would make, in
        the same order.  A ceiling error raised by a machine is re-raised
        naming the coordinate it moves.
        """
        heap, due = self._heap, self._due
        popped = []
        while heap and heap[0][0] <= t:
            at, j = heapq.heappop(heap)
            if due[j] == at:
                due[j] = math.inf
                popped.append(j)
        popped.sort()
        since = self.x._since
        try:
            for j in popped:
                x, y = self._machines[j].advance(t - since[j])
                self._settle(j, x, y, t)
        except RateCeilingError as err:
            raise RateCeilingError(f"coordinate {j}: {err}") from err
        self.x.t = t
        if self.y is not None:
            self.y.t = t


class _LiveMeasure(EmpiricalMeasure):
    """Empirical measure of a :class:`_LiveSide` at its flow time.

    ``mean`` reads the configuration's running sums; the atoms, built on
    first read, read its states.
    """

    __slots__ = ("_live",)

    def __init__(self, live: _LiveSide):
        self._atoms = None
        self._states = live
        self._mean_cache = {}
        self._live = live

    def mean(self, index: int) -> float:
        return self._live.mean(index)


def simulate_system(
    system: SystemSpec,
    initial: Sequence[State],
    horizon: float,
    stream,
    sample_times: Sequence[float] = (),
    record_events: bool = True,
) -> Trajectory:
    """Simulate an interacting system by global-clock thinning.

    Each coordinate moves by its base machine, the system's
    ``base_coupler`` started on the diagonal and drawing from ``stream``.
    An accepted jump restarts the machine of the coordinate that jumped.

    The run is event-driven: at each proposal and sample only the machines
    whose next base event has come are advanced, in coordinate order.  A
    machine with no event in a step draws nothing, so the draws are those of
    advancing every machine at every step.  ``rate`` and the jump sampler
    receive a read-only configuration, valid only during the call, whose
    drifting coordinates are computed when read, and :func:`empirical` of it
    reads running sums for ``mean``.  So a proposal of a mean-field system
    costs ``O(log N)`` plus what its rate reads.

    Events carry full configurations (tuples of coordinate states), and the
    configuration at each sample time is recorded in ``sample_states``.
    With ``record_events=False`` no event is kept, while accepted and
    rejected proposals are still counted.
    """
    n = system.n_particles
    ceiling = system.rate_ceiling
    if len(initial) != n:
        raise ValueError(f"expected {n} coordinates, got {len(initial)}")
    ticks = clock(horizon, n * ceiling, stream, sample_times, name=system.name)
    events: list[Event] = []
    sample_states: dict[float, tuple] = {}
    initial_config = tuple(tuple(c) for c in initial)
    live = _LiveConfig(system, initial_config, stream)
    side = live.x
    n_accepted = n_rejected = 0

    for t, kind in ticks:
        if kind == SAMPLE:
            live.flow(t)
            sample_states[t] = side.snapshot()
            continue
        i = int(stream.integers(n))
        live.flow(t)
        config = side.view()
        if thin(system.rate(i, config), ceiling, stream, system.name, i):
            live.start(i, tuple(system.jump(i, config, stream)))
            n_accepted += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_ACCEPTED, state=tuple(side.view())))
        else:
            n_rejected += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_REJECTED, state=tuple(config)))
    live.flow(horizon)
    return Trajectory(
        initial=initial_config,
        final_state=tuple(side.view()),
        horizon=horizon,
        events=tuple(events),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        sample_states=sample_states,
    )


def meanfield_system(model_or_bundle, n_particles: int) -> SystemSpec:
    """Lift a measure-driven model to an ``N``-coordinate interacting system.

    Each coordinate follows the model's base motion (its ``base_coupler``,
    passed through unchanged); jump rates and kernels see
    the empirical measure of the current configuration in place of the
    ambient measure, and the jump law keeps the form the model declares.
    Accepts either a :class:`~mfjump.engine.ModelSpec` or a model bundle
    exposing ``.model``.
    """
    model: ModelSpec = getattr(model_or_bundle, "model", model_or_bundle)

    def rate(i, config):
        return model.rate(config[i], empirical(config))

    def lift(fn):
        if fn is None:
            return None
        return lambda i, config, *rest: fn(config[i], empirical(config), *rest)

    return SystemSpec(
        n_particles=n_particles,
        rate=rate,
        kernel=lift(model.kernel),
        rate_ceiling=model.rate_ceiling,
        coordinate_layout=model.state_layout,
        coordinate_box=model.state_box,
        name=f"{model.name}-system",
        kernel_atoms=lift(model.kernel_atoms),
        base_coupler=model.base_coupler,
    )

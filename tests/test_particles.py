"""Interacting particle systems driven by a single global proposal clock."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mfjump.coupling import TwinCoupler, make_telegraph_coupler
from mfjump.engine import (
    JUMP_ACCEPTED,
    JUMP_REJECTED,
    SAMPLE,
    DriftMachine,
    EmpiricalMeasure,
    Event,
    RateCeilingError,
    Trajectory,
    check_rate,
    clock,
    simulate_nonlinear,
)
from mfjump.metrics import discrete_tv
from mfjump.particles import (
    SystemSpec,
    empirical,
    meanfield_system,
    simulate_system,
)
from mfjump.models import (
    RunTumbleParams,
    SelectionParams,
    build_model,
    run_tumble,
    selection_mutation,
)

from conftest import (
    CountedMachine,
    CountingStream,
    advance_every_machine,
    assert_configs_close,
    constant_flow,
    flip_model,
    flip_system,
    frozen_machine,
    make_rng,
    selection_reference_kernel,
)


# ---------------------------------------------------------------------------
# empirical measures of particle configurations


def test_empirical_single_particle_is_point_mass():
    m = empirical(((2.0,),))
    assert m.atoms == (((2.0,), 1.0),)


def test_empirical_merges_identical_coordinates():
    m = empirical(((1.0,), (1.0,), (1.0,), (1.0,)))
    assert len(m.atoms) == 1
    assert m.atoms[0][1] == pytest.approx(1.0)


def test_empirical_uniform_weights():
    m = empirical(((0.0,), (1.0,)))
    weights = sorted(w for _, w in m.atoms)
    assert weights == pytest.approx([0.5, 0.5])


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
)
def test_empirical_tv_bounded_by_mismatch_fraction(a, b):
    n = min(len(a), len(b))
    x = tuple((k,) for k in a[:n])
    y = tuple((k,) for k in b[:n])
    mismatches = sum(1 for u, v in zip(x, y) if u != v)
    tv = discrete_tv(empirical(x).atoms, empirical(y).atoms)
    assert tv <= 2.0 * mismatches / n + 1e-12


# ---------------------------------------------------------------------------
# system simulation


def test_zero_rates_give_independent_base_dynamics(rng):
    sys = flip_system(3, rates=(0.0, 0.0, 0.0))
    traj = simulate_system(sys, ((0,), (1,), (0,)), 5.0, rng)
    assert traj.n_accepted == 0
    assert traj.final_state == ((0,), (1,), (0,))


def test_accepted_proposals_change_exactly_one_coordinate(rng):
    sys = flip_system(3, rates=(1.0, 1.0, 1.0))
    traj = simulate_system(sys, ((0,), (0,), (0,)), 20.0, rng)
    prev = traj.initial
    n_seen = 0
    for e in traj.events:
        changed = sum(1 for a, b in zip(prev, e.state) if a != b)
        if e.kind == JUMP_ACCEPTED:
            assert changed == 1
            n_seen += 1
        else:
            assert changed == 0
        prev = e.state
    assert n_seen > 0


def test_rate_violation_error_names_the_coordinate():
    sys = flip_system(2, rates=(1.0, 3.0), ceiling=2.0)
    with pytest.raises(RateCeilingError) as err:
        simulate_system(sys, ((0,), (0,)), 50.0, make_rng(5))
    assert "coordinate 1" in str(err.value)


def test_single_particle_system_matches_frozen_measure_dynamics():
    model = flip_model(rate_value=1.0, ceiling=2.0)
    flow = constant_flow((0,))

    def one_particle():
        def rate(i, state):
            return 1.0

        def kernel(i, state, stream):
            return (1 - state[i][0],)

        return SystemSpec(
            n_particles=1,
            rate=rate,
            kernel=kernel,
            rate_ceiling=2.0,
            coordinate_layout=("label",),
            coordinate_box=((0.0, 1.0),),
            name="one-flip",
            base_coupler=TwinCoupler(frozen_machine),
        )

    sys = one_particle()
    n = 2000
    counts_sys = np.empty(n)
    counts_nl = np.empty(n)
    ones_sys = 0
    ones_nl = 0
    for r in range(n):
        ts = simulate_system(sys, ((0,),), 10.0, make_rng(40_000 + r))
        tn = simulate_nonlinear(model, flow, (0,), 10.0, make_rng(90_000 + r))
        counts_sys[r] = ts.n_accepted
        counts_nl[r] = tn.n_accepted
        ones_sys += ts.final_state[0][0]
        ones_nl += tn.final_state[0]
    se = math.sqrt((counts_sys.var() + counts_nl.var()) / n)
    assert abs(counts_sys.mean() - counts_nl.mean()) < 3.0 * se
    se_p = math.sqrt(2.0 * 0.25 / n)
    assert abs(ones_sys / n - ones_nl / n) < 3.0 * se_p


def test_saturated_two_particle_system_has_poisson_coordinates():
    sys = flip_system(2, rates=(2.0, 2.0), ceiling=2.0)
    traj = simulate_system(sys, ((0,), (0,)), 2600.0, make_rng(77))
    times = {0: [0.0], 1: [0.0]}
    prev = traj.initial
    for e in traj.events:
        if e.kind != JUMP_ACCEPTED:
            prev = e.state
            continue
        (i,) = [k for k in range(2) if prev[k] != e.state[k]]
        times[i].append(e.time)
        prev = e.state
    for i in range(2):
        gaps = np.diff(np.asarray(times[i][:5001]))
        assert len(gaps) == 5000
        assert stats.kstest(gaps, "expon", args=(0.0, 0.5)).pvalue > 0.01


def test_exchangeable_coordinates_have_matching_laws():
    def symmetric_system(n):
        def rate(i, state):
            frac = sum(c[0] for c in state) / len(state)
            return 0.5 + 0.5 * frac

        def kernel(i, state, stream):
            return (1 - state[i][0],)

        return SystemSpec(
            n_particles=n,
            rate=rate,
            kernel=kernel,
            rate_ceiling=1.0,
            coordinate_layout=("label",),
            coordinate_box=((0.0, 1.0),),
            name="symmetric-flips",
            base_coupler=TwinCoupler(frozen_machine),
        )

    sys = symmetric_system(3)
    n = 3000
    ones = np.zeros(2)
    for r in range(n):
        traj = simulate_system(sys, ((0,), (0,), (0,)), 2.0, make_rng(60_000 + r))
        for i in range(2):
            ones[i] += traj.final_state[i][0]
    p = ones / n
    pbar = p.mean()
    se = math.sqrt(2.0 * pbar * (1.0 - pbar) / n)
    assert abs(p[0] - p[1]) < 3.0 * se + 1e-9


def test_snapshot_only_recording_keeps_samples(rng):
    sys = flip_system(2, rates=(1.0, 1.0))
    traj = simulate_system(
        sys, ((0,), (0,)), 5.0, rng, sample_times=(2.0, 4.0), record_events=False
    )
    assert traj.events == ()
    assert sorted(traj.sample_states) == [2.0, 4.0]
    assert traj.state_at_sample(2.0) is not None
    assert traj.n_accepted + traj.n_rejected > 0


# ---------------------------------------------------------------------------
# mean-field lift of a non-linear model


def test_meanfield_rate_uses_configuration_barycenter():
    model = run_tumble(RunTumbleParams(theta=0.5)).model
    sys = meanfield_system(run_tumble(RunTumbleParams(theta=0.5)), 2)
    state = ((1.0, 1), (-1.0, 1))
    # Barycenter is zero, so each coordinate sees rate r(v*x) - c.
    expit = lambda s: 1.0 / (1.0 + math.exp(-s))
    r1 = 1.0 + 2.0 * expit(3.0 * 1.0) - 1.0
    r2 = 1.0 + 2.0 * expit(3.0 * -1.0) - 1.0
    assert sys.rate(0, state) == pytest.approx(r1)
    assert sys.rate(1, state) == pytest.approx(r2)
    for i in range(2):
        assert sys.rate(i, state) == pytest.approx(
            model.rate(state[i], empirical(state))
        )


def test_meanfield_moment_reader_never_quantises(monkeypatch):
    # Run-tumble reads only the barycenter, so no atoms need building.
    def refuse(measure):
        raise AssertionError("EmpiricalMeasure.atoms read")

    monkeypatch.setattr(EmpiricalMeasure, "atoms", property(refuse))
    sys = meanfield_system(run_tumble(RunTumbleParams(theta=0.5)), 8)
    initial = tuple((0.25 * k, 1 if k % 2 else -1) for k in range(8))
    traj = simulate_system(sys, initial, 2.0, make_rng(8), sample_times=(2.0,))
    assert traj.n_accepted > 0


def test_meanfield_run_draws_per_base_event_not_per_coordinate():
    # Each coordinate keeps its pending flip, so a run draws one exponential
    # per machine start, proposal gap and flip: a few hundred here, where
    # flowing every coordinate at every proposal draws thousands.
    n = 64
    sys = meanfield_system(run_tumble(RunTumbleParams(theta=0.5)), n)
    initial = tuple(((k - 31.5) / 16.0, 1 if k % 2 else -1) for k in range(n))
    stream = CountingStream(make_rng(12))
    traj = simulate_system(sys, initial, 1.0, stream, sample_times=(0.5, 1.0))
    proposals = traj.n_accepted + traj.n_rejected
    assert proposals > 50
    assert stream.counts["exponential"] < 4 * (n + proposals)


def test_meanfield_system_size_and_ceiling():
    bundle = run_tumble(RunTumbleParams(theta=0.25))
    sys = meanfield_system(bundle, 4)
    assert sys.n_particles == 4
    assert sys.rate_ceiling == pytest.approx(bundle.model.rate_ceiling)


# ---------------------------------------------------------------------------
# the jump law and its one sampler


@pytest.mark.parametrize(
    "law", ["neither", "both", "pair_atoms and kernel", "pair_atoms and kernel_atoms"]
)
def test_system_declares_exactly_one_jump_law(law):
    fields = dict(
        n_particles=2, rate=lambda i, config: 1.0, rate_ceiling=1.0,
        coordinate_layout=("label",), coordinate_box=((0, 1),),
        name="toy-system", base_coupler=TwinCoupler(frozen_machine),
    )
    flip = lambda i, config, stream: (1 - config[i][0],)  # noqa: E731
    if law == "both":
        fields.update(kernel=flip, kernel_atoms=lambda i, config: [((1 - config[i][0],), 1.0)])
    elif law == "pair_atoms and kernel":
        fields.update(kernel=flip, pair_atoms=lambda own, donor: [(donor, 1.0)])
    elif law == "pair_atoms and kernel_atoms":
        fields.update(
            kernel_atoms=lambda i, config: [((1 - config[i][0],), 1.0)],
            pair_atoms=lambda own, donor: [(donor, 1.0)],
        )
    with pytest.raises(ValueError) as err:
        SystemSpec(**fields)
    assert str(err.value) == (
        "toy-system: declare exactly one of kernel, kernel_atoms and pair_atoms"
    )


def test_selection_pair_sampler_matches_the_hand_written_kernel():
    n = 8
    accept = lambda own, donor: 0.2 + 0.6 * donor[0]  # noqa: E731
    system = selection_mutation(SelectionParams(n_particles=n, accept_prob=accept)).system
    reference = selection_reference_kernel(n, accept)
    config = _spread(n)
    for seed in range(30):
        a_stream, b_stream = make_rng(500 + seed), make_rng(500 + seed)
        for i in range(n):
            assert system.jump(i, config, a_stream) == reference(i, config, b_stream)
        assert a_stream.random() == b_stream.random()
    # A rebuilt spec keeps the pairwise sampler, and whole runs match one
    # under the hand-written kernel.
    rebuilt = dataclasses.replace(system)
    by_hand = dataclasses.replace(system, kernel=reference, pair_atoms=None)
    for seed in range(3):
        a = simulate_system(rebuilt, config, 2.0, make_rng(600 + seed))
        b = simulate_system(by_hand, config, 2.0, make_rng(600 + seed))
        assert a.n_accepted > 0
        assert a.events == b.events


# ---------------------------------------------------------------------------
# the event-driven engine against the eager reference loop


def eager_simulate_system(system, initial, horizon, stream, sample_times=(),
                          record_events=True):
    """Reference loop: every coordinate machine is advanced at every event.

    This is ``simulate_system`` before it became event-driven, kept as the
    draw-for-draw reference of the event queue.
    """
    n = system.n_particles
    ceiling = system.rate_ceiling
    events = []
    sample_states = {}
    t = 0.0
    config = [tuple(c) for c in initial]
    initial_config = tuple(config)
    machines = [system.base_coupler(c, c, stream) for c in config]
    n_accepted = n_rejected = 0
    for t_event, kind in clock(horizon, n * ceiling, stream, sample_times, name=system.name):
        if kind == SAMPLE:
            advance_every_machine(machines, t_event - t, config, config)
            t = t_event
            sample_states[t] = tuple(config)
            continue
        i = int(stream.integers(n))
        advance_every_machine(machines, t_event - t, config, config)
        t = t_event
        full = tuple(config)
        rate_i = system.rate(i, full)
        check_rate(rate_i, ceiling, system.name, i)
        if stream.random() * ceiling < rate_i:
            config[i] = tuple(system.jump(i, full, stream))
            machines[i] = system.base_coupler(config[i], config[i], stream)
            n_accepted += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_ACCEPTED, state=tuple(config)))
        else:
            n_rejected += 1
            if record_events:
                events.append(Event(time=t, kind=JUMP_REJECTED, state=full))
    advance_every_machine(machines, horizon - t, config, config)
    return Trajectory(
        initial=initial_config,
        final_state=tuple(config),
        horizon=horizon,
        events=tuple(events),
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        sample_states=sample_states,
    )


def assert_runs_match(a, b, times):
    """``a`` and ``b`` made the same events and took the same samples, up to
    float noise in the positions."""
    assert [e.kind for e in a.events] == [e.kind for e in b.events]
    for ea, eb in zip(a.events, b.events):
        assert abs(ea.time - eb.time) <= 1e-12
        assert_configs_close(ea.state, eb.state)
    assert sorted(a.sample_states) == sorted(b.sample_states) == sorted(times)
    for t in times:
        assert_configs_close(a.sample_states[t], b.sample_states[t])
    assert_configs_close(a.final_state, b.final_state)


def _meanfield_rt(n):
    system = meanfield_system(run_tumble(RunTumbleParams(theta=0.5)), n)
    initial = tuple((4.0 * (k + 0.5) / n - 2.0, 1 if k % 2 else -1) for k in range(n))
    return system, initial, 2.0


def _spread(n):
    return tuple(((7 * k) % n / n,) for k in range(n))


def _mh(part):
    bundle = build_model("mh", {"n_sites": 16, "beta": 1.0, "lam_bar": 2.0})
    return getattr(bundle, part), _spread(16), 1.0


#: name -> () -> (system, initial configuration, horizon).
EXACTNESS_CASES = {
    "meanfield-rt-16": lambda: _meanfield_rt(16),
    "meanfield-rt-64": lambda: _meanfield_rt(64),
    "selection": lambda: (
        build_model("selection", {"n_particles": 16, "base_refresh_rate": 2.0}).system,
        _spread(16),
        1.0,
    ),
    "mh-decomposed": lambda: _mh("system"),
    "mh-raw": lambda: _mh("raw_system"),
    "zigzag": lambda: (
        build_model("zigzag", {"n_particles": 16}).system,
        tuple(((k - 8) / 4.0, 1 if k % 3 else -1) for k in range(16)),
        1.0,
    ),
}


@pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
def test_event_queue_matches_eager_loop_draw_for_draw(name):
    system, initial, horizon = EXACTNESS_CASES[name]()
    times = (horizon / 3.0, horizon / 2.0, horizon)
    for seed in range(20):
        a_stream, b_stream = make_rng(7_000 + seed), make_rng(7_000 + seed)
        a = simulate_system(system, initial, horizon, a_stream, sample_times=times)
        b = eager_simulate_system(system, initial, horizon, b_stream, sample_times=times)
        assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)
        assert_runs_match(a, b, times)
        assert a.initial == b.initial
        assert a_stream.random() == b_stream.random()


def _recording_telegraph_system(n, rate):
    """Telegraph coordinates (flip rate 1) with a constant jump rate; the
    kernel halves the position and flips the velocity."""

    def kernel(i, config, stream):
        x, v = config[i]
        return (0.5 * x, -v)

    return SystemSpec(
        n_particles=n,
        rate=rate,
        kernel=kernel,
        rate_ceiling=1.0,
        coordinate_layout=("real", "label"),
        coordinate_box=((-50.0, 50.0), (-1, 1)),
        name="telegraph-constant-rate",
        base_coupler=make_telegraph_coupler(1.0),
    )


def test_running_moments_and_lazy_coordinates_match_the_flowed_configuration():
    # Each proposal of a long run checks what the rate reads: the running
    # mean against the fsum mean of the configuration it materialises, and
    # every coordinate against the eager loop's configuration, where all
    # machines are flowed to the proposal time.  A constant rate keeps the
    # two runs on the same draws.
    n, horizon = 64, 50.0
    seen = []

    def record(i, config):
        seen.append(tuple(config))
        return 0.5

    samples = (10.0, 20.0)
    eager_simulate_system(
        _recording_telegraph_system(n, record), _meanfield_rt(n)[1], horizon,
        make_rng(31), sample_times=samples,
    )
    proposals = iter(seen)

    def check(i, config):
        expected = next(proposals)
        states = tuple(config)
        measure = empirical(config)
        for k in (0, 1):
            exact = math.fsum(c[k] for c in states) / n
            assert abs(measure.mean(k) - exact) <= 1e-12
        assert_configs_close([config[j] for j in range(n)], expected)
        return 0.5

    traj = simulate_system(
        _recording_telegraph_system(n, check), _meanfield_rt(n)[1], horizon,
        make_rng(31), sample_times=samples, record_events=False,
    )
    assert traj.n_accepted + traj.n_rejected == len(seen) > 3000
    assert next(proposals, None) is None


def _counting_system(system, advances):
    def coupler(x, y, stream):
        return CountedMachine(system.base_coupler(x, y, stream), advances)

    return dataclasses.replace(system, base_coupler=coupler)


def test_meanfield_run_advances_only_due_machines():
    # The eager loop advanced all N machines at every proposal.  Now a
    # machine is advanced only at a base event (each drew an exponential
    # when it was scheduled), plus at most once per proposal, sample and end.
    n = 256
    advances = [0]
    model = run_tumble(RunTumbleParams(theta=0.1)).model
    system = _counting_system(meanfield_system(model, n), advances)
    _, initial, _ = _meanfield_rt(n)
    stream = CountingStream(make_rng(17))
    samples = (0.25, 0.5)
    traj = simulate_system(system, initial, 0.5, stream, sample_times=samples)
    proposals = traj.n_accepted + traj.n_rejected
    assert proposals > 100
    bound = stream.counts["exponential"] + proposals + n * (len(samples) + 1)
    assert advances[0] <= bound


def test_zigzag_run_advances_per_proposal_do_not_grow_with_n():
    # Each coordinate's flip machine has a clock, so a proposal advances
    # only the machines whose chunk ended or whose flip candidate came: about
    # two per proposal at any N, where advancing every machine costs N.
    per_proposal = []
    for n in (64, 256):
        advances = [0]
        system = build_model("zigzag", {"n_particles": n}).system
        counted = _counting_system(system, advances)
        initial = tuple((4.0 * (k + 0.5) / n - 2.0, 1 if k % 2 else -1) for k in range(n))
        traj = simulate_system(
            counted, initial, 2.0, make_rng(5), sample_times=(1.0, 2.0),
            record_events=False,
        )
        per_proposal.append(advances[0] / (traj.n_accepted + traj.n_rejected))
    assert per_proposal[0] < 4.0
    assert per_proposal[1] <= 1.25 * per_proposal[0], per_proposal


def test_mh_raw_run_advances_no_machine():
    # mh-raw has no base motion: each coordinate gets a refresh machine at
    # rate 0, which has no event, so a run starts machines but advances none.
    system, initial, _ = _mh("raw_system")
    advances = [0]
    traj = simulate_system(
        _counting_system(system, advances), initial, 4.0, make_rng(23),
        sample_times=(2.0, 4.0),
    )
    assert traj.n_accepted > 20
    assert advances[0] == 0


def test_machines_with_and_without_a_clock_mix():
    # A coupler that gives a coordinate moving right a drift machine, which
    # has no event and is never advanced, and one moving left a telegraph
    # machine, so every accepted jump moves the coordinate into or out of
    # the heap.  The run must match the eager loop draw for draw, and the
    # running mean the materialised one.
    n = 8
    telegraph = make_telegraph_coupler(1.0)

    drifting = TwinCoupler(lambda c, stream: DriftMachine(c, (c[1], 0)))

    def coupler(x, y, stream):
        if x[1] > 0:
            return drifting(x, y, stream)
        return telegraph(x, y, stream)

    def rate(i, config):
        exact = math.fsum(c[0] for c in tuple(config)) / n
        assert abs(empirical(config).mean(0) - exact) <= 1e-12
        return 0.7

    def kernel(i, config, stream):
        x, v = config[i]
        return (x, -v)

    fields = dict(
        n_particles=n, rate=rate, kernel=kernel,
        rate_ceiling=1.0, coordinate_layout=("real", "label"),
        coordinate_box=((-50.0, 50.0), (-1, 1)), name="mixed-machines",
    )
    system = SystemSpec(**fields, base_coupler=coupler)
    initial = tuple((k / 4.0, 1 if k % 2 else -1) for k in range(n))
    for seed in range(5):
        a_stream, b_stream = make_rng(300 + seed), make_rng(300 + seed)
        a = simulate_system(system, initial, 5.0, a_stream, sample_times=(2.5,))
        b = eager_simulate_system(system, initial, 5.0, b_stream, sample_times=(2.5,))
        assert a.n_accepted == b.n_accepted > 10
        assert_runs_match(a, b, (2.5,))
        assert a_stream.random() == b_stream.random()


def test_single_run_refuses_pair_atoms_short_of_mass():
    system = dataclasses.replace(
        selection_mutation(SelectionParams(n_particles=4)).system,
        pair_atoms=lambda own, donor: ((donor, 0.4), (own, 0.4)),
    )
    initial = [(0.1,), (0.2,), (0.3,), (0.4,)]
    with pytest.raises(ValueError, match="^atom weights sum to 0.8, expected 1$"):
        simulate_system(system, initial, 10.0, make_rng(5))

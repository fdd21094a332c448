"""Single-process simulation engine: thinning, flows, and fixed-point solving."""

from __future__ import annotations

import collections
import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mfjump.coupling import TwinCoupler, _mixed_weights
from mfjump.engine import (
    JUMP_ACCEPTED,
    JUMP_REJECTED,
    PROPOSAL,
    SAMPLE,
    WINDOW,
    _BLOCK,
    DriftMachine,
    EmpiricalMeasure,
    MeasureFlow,
    ModelSpec,
    RateCeilingError,
    Trajectory,
    _BlockStream,
    _waiting_time,
    check_rate,
    clock,
    picard_solve,
    simulate_nonlinear,
    thin,
)
from mfjump.metrics import Binning, histogram_tv, make_binning
from mfjump.models import RunTumbleParams, run_tumble

from conftest import (
    CountingStream,
    constant_flow,
    drift_model,
    drift_velocity_model,
    flip_model,
    make_rng,
)


def tcp_toy():
    """Additive drift with position-dependent rate and a halving kernel."""

    def rate(state, measure):
        return 1.0 + state[0]

    def kernel(state, measure, stream):
        return (state[0] / 2.0,)

    def local_bound(state, dt, measures):
        return 1.0 + state[0] + dt

    return ModelSpec(
        rate=rate,
        kernel=kernel,
        rate_ceiling=math.inf,
        local_bound=local_bound,
        state_layout=("real",),
        state_box=((0.0, 100.0),),
        name="tcp-toy",
        base_coupler=TwinCoupler(lambda state, stream: DriftMachine(state, (1.0,))),
    )


# ---------------------------------------------------------------------------
# empirical measures and measure flows


def test_empirical_measure_weights_must_sum_to_one():
    EmpiricalMeasure(atoms=(((0.0,), 0.5), ((1.0,), 0.5)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(atoms=(((0.0,), 0.5), ((1.0,), 0.6)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(atoms=(((0.0,), -0.5), ((1.0,), 1.5)))


def test_empirical_measure_refuses_the_empty_measure():
    # An empty measure has mass 0, so it is no law, though its mean would
    # read 0 and a run could go on under it.
    with pytest.raises(ValueError, match="^atom weights sum to 0.0, expected 1$"):
        EmpiricalMeasure(())
    with pytest.raises(ValueError, match="^cannot build an empirical measure from no states$"):
        EmpiricalMeasure.from_states(())
    measure = EmpiricalMeasure.from_states([(1.0,), (3.0,)])
    assert measure.mean(0) == 2.0
    assert measure.atoms == (((1.0,), 0.5), ((3.0,), 0.5))


def test_empirical_measure_rejects_a_nan_weight_as_mixed_weights_does():
    atoms = [((0.0,), math.nan), ((1.0,), 1.0)]
    with pytest.raises(ValueError, match="atom weights sum to nan, expected 1"):
        EmpiricalMeasure(atoms=atoms)
    with pytest.raises(ValueError, match="atom weights sum to nan, expected 1"):
        _mixed_weights(atoms, (0,), 1.0)


def test_empirical_measure_merges_duplicate_states():
    # Exact duplicates merge; a state 1e-13 away is an atom of its own.
    states = [(1.0,), (1.0,), (2.0,), (1.0 + 1e-13,)]
    m = EmpiricalMeasure.from_states(states)
    assert len(m.atoms) == 3
    weights = {s: w for s, w in m.atoms}
    assert weights[(1.0,)] == pytest.approx(0.5)
    assert weights[(1.0 + 1e-13,)] == pytest.approx(0.25)
    assert weights[(2.0,)] == pytest.approx(0.25)
    atom_mean = sum(w * s[0] for s, w in m.atoms)
    assert m.mean(0) == pytest.approx(atom_mean, abs=1e-9)
    # The mean read before the atoms are built comes from the states.
    read_first = EmpiricalMeasure.from_states(states)
    assert read_first.mean(0) == pytest.approx(atom_mean, abs=1e-9)
    assert read_first.atoms == m.atoms


def test_empirical_measure_mean_and_point():
    m = EmpiricalMeasure(atoms=(((0.0,), 0.25), ((4.0,), 0.75)))
    assert m.mean(0) == pytest.approx(3.0)
    assert m.point() is None
    assert EmpiricalMeasure.from_states([(2.0,)]).point() == (2.0,)


def test_measure_flow_lookup_uses_left_endpoint():
    snaps = tuple(EmpiricalMeasure.from_states([(float(k),)]) for k in range(3))
    flow = MeasureFlow(grid_step=0.5, snapshots=snaps)
    assert flow.at(0.0).point() == (0.0,)
    assert flow.at(0.3).point() == (0.0,)
    assert flow.at(0.5).point() == (1.0,)
    assert flow.at(0.75).point() == (1.0,)
    assert flow.at(1.0).point() == (2.0,)


def test_measure_flow_clamps_beyond_final_snapshot():
    snaps = tuple(EmpiricalMeasure.from_states([(float(k),)]) for k in range(3))
    flow = MeasureFlow(grid_step=0.5, snapshots=snaps)
    assert flow.at(55.0).point() == (2.0,)


def test_measure_flow_constant():
    flow = constant_flow((3.0,))
    assert flow.at(0.0).point() == (3.0,)
    assert flow.at(17.2).point() == (3.0,)


# ---------------------------------------------------------------------------
# deterministic flow maps


class _GapStream:
    """Stand-in stream whose exponential gaps are fixed in advance."""

    def __init__(self, gaps):
        self.gaps = list(gaps)
        self.draws = 0

    def exponential(self, scale):
        self.draws += 1
        return self.gaps.pop(0)


def test_clock_orders_ties_sample_then_window_then_proposal():
    stream = _GapStream([1.0, 0.5, 10.0])
    events = list(clock(2.0, 1.0, stream, sample_times=(1.0, 0.5), window=1.0, name="toy"))
    assert events == [
        (0.5, SAMPLE),
        (1.0, SAMPLE),
        (1.0, WINDOW),
        (1.0, PROPOSAL),
        (1.5, PROPOSAL),
        (2.0, WINDOW),
    ]


def test_clock_yields_a_repeated_sample_time_once():
    events = list(clock(1.0, 0.0, _GapStream([]), sample_times=(0.5, 0.5, 0.5), name="toy"))
    assert events == [(0.5, SAMPLE)]


def test_clock_windows_fall_at_exact_multiples():
    times = [t for t, _ in clock(1.0, 0.0, _GapStream([]), window=0.1, name="toy")]
    assert times == [k * 0.1 for k in range(1, 11)]


def test_clock_yields_nothing_past_the_horizon(rng):
    events = list(clock(3.0, 5.0, rng, sample_times=(3.0,), window=0.7, name="toy"))
    assert events and max(t for t, _ in events) <= 3.0
    assert (3.0, SAMPLE) in events


def test_clock_refuses_a_sample_time_past_the_horizon_and_a_horizon_before_the_start():
    # Such a sample used to be dropped, so the run returned no state for it.
    with pytest.raises(ValueError, match="^toy: sample time 3.5 is past the horizon 3.0$"):
        clock(3.0, 5.0, _GapStream([]), sample_times=(3.0, 3.5), name="toy")
    with pytest.raises(ValueError, match="^toy: horizon 0.5 is NaN, infinite or before the start 1.0$"):
        clock(0.5, 5.0, _GapStream([]), start=1.0, name="toy")


def test_clock_at_rate_zero_proposes_nothing_and_draws_nothing():
    stream = _GapStream([])
    events = list(clock(5.0, 0.0, stream, sample_times=(1.0,), window=2.0, name="toy"))
    assert events == [(1.0, SAMPLE), (2.0, WINDOW), (4.0, WINDOW)]
    assert stream.draws == 0


def test_clock_draws_the_next_gap_only_when_resumed():
    stream = _GapStream([0.5, 0.25, 10.0])
    ticks = clock(5.0, 1.0, stream, name="toy")
    assert next(ticks) == (0.5, PROPOSAL)
    assert stream.draws == 1
    assert next(ticks) == (0.75, PROPOSAL)
    assert stream.draws == 2
    assert list(ticks) == []
    assert stream.draws == 3


#: Sample-time lists with a time the clock cannot take, first, in the
#: middle or last (sorting with a NaN is undefined, so each must be seen).
BAD_SAMPLE_TIMES = {
    "negative-first": (-0.5, 0.5),
    "negative-last": (0.5, 1.0, -0.5),
    "nan-first": (math.nan, 0.5, 1.0),
    "nan-middle": (0.5, math.nan, 1.0),
    "nan-last": (0.5, 1.0, math.nan),
}


@pytest.mark.parametrize("name", sorted(BAD_SAMPLE_TIMES))
def test_clock_refuses_a_sample_time_that_is_nan_or_before_its_start(name):
    with pytest.raises(ValueError, match=r"^toy: sample time (nan|-0\.5) is NaN or before"):
        clock(2.0, 1.0, _GapStream([]), sample_times=BAD_SAMPLE_TIMES[name], name="toy")


def test_clock_refuses_a_sample_time_before_a_later_start():
    with pytest.raises(ValueError, match="sample time 0.5 is NaN or before the start 1.0"):
        clock(2.0, 1.0, _GapStream([]), sample_times=(1.5, 0.5), start=1.0, name="toy")
    assert list(clock(2.0, 0.0, _GapStream([]), sample_times=(1.0,), start=1.0, name="toy")) == [
        (1.0, SAMPLE)
    ]


@pytest.mark.parametrize("times", [(-0.5, 0.5), (0.5, math.nan, 3.0)])
def test_simulate_nonlinear_refuses_sample_times_it_cannot_take(times):
    # At a negative sample time the run-tumble state used to move backwards
    # and then on again, so the state at 0.5 was wrong; a NaN one ended the
    # proposals early.
    model = run_tumble(RunTumbleParams(theta=0.5)).model
    with pytest.raises(ValueError, match=f"^{model.name}: sample time"):
        simulate_nonlinear(
            model, constant_flow((0.0, 1)), (0.0, 1), 5.0, make_rng(1), sample_times=times
        )


@pytest.mark.parametrize("window", [0.0, -1.0, math.nan])
def test_clock_refuses_a_window_that_is_not_positive(window):
    # A window of 0 would yield a boundary at t = 0 forever.
    with pytest.raises(ValueError, match=r"^toy: window .* is not positive"):
        clock(2.0, 1.0, _GapStream([]), window=window, name="toy")


def test_clock_refuses_a_window_too_small_to_run():
    # At 1e-300 the clock would lay 1e300 boundaries one by one.  A NaN
    # horizon keeps its own refusal.
    for window in (1e-300, 5e-324, 1e-6 / 1.5):
        with pytest.raises(
            ValueError,
            match=rf"^toy: window {window} lays more than 1000000 boundaries "
            r"on the horizon 1\.0$",
        ):
            clock(1.0, 1.0, _GapStream([]), window=window, name="toy")
        with pytest.raises(ValueError, match="^toy: horizon nan is NaN"):
            clock(math.nan, 1.0, _GapStream([]), window=window, name="toy")
    assert len(list(clock(1.0, 0.0, _GapStream([]), window=1e-6, name="toy"))) == 10**6


def test_clock_refuses_a_proposal_rate_that_overflowed():
    # Two coordinates under the ceiling 1e308 propose at rate inf: the clock
    # would propose at t = 0 forever.
    n, ceiling = 2, 1e308
    with pytest.raises(ValueError, match="^toy: proposal rate inf is not finite and nonnegative"):
        clock(1.0, n * ceiling, _GapStream([]), name="toy")


def test_thin_checks_the_rate_then_accepts_by_one_uniform():
    stream = CountingStream(make_rng(3))
    accepted = sum(thin(0.5, 2.0, stream, "toy") for _ in range(4000))
    assert stream.counts == {"random": 4000}
    assert abs(accepted / 4000 - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / 4000)
    with pytest.raises(RateCeilingError, match="^toy: coordinate 3: rate 3.0 exceeds ceiling 2.0"):
        thin(3.0, 2.0, stream, "toy", 3)
    assert stream.counts == {"random": 4000}


def test_block_stream_uniforms_are_the_generators_own_across_blocks():
    stream, generator = _BlockStream(make_rng(41)), make_rng(41)
    n = 3 * _BLOCK + 5
    assert [stream.random() for _ in range(n)] == [generator.random() for _ in range(n)]
    assert stream.bit_generator.seed_seq.entropy == 41


def _exponential_at(draws, rate: float) -> bool:
    """Whether ``draws`` pass a KS test against Exp(``rate``) at the 1% level
    and their mean is within 4 standard errors of ``1 / rate``."""
    draws = np.asarray(draws)
    mean = 1.0 / rate
    return bool(
        stats.kstest(draws, "expon", args=(0.0, mean)).pvalue > 0.01
        and abs(draws.mean() - mean) < 4.0 * mean / math.sqrt(draws.size)
    )


def test_block_stream_waiting_times_are_exponential():
    rate, n = 2.5, 100_000
    stream = _BlockStream(make_rng(42))
    assert _exponential_at([_waiting_time(stream, rate) for _ in range(n)], rate)
    # The check sees a scale off by a factor 0.8.
    assert not _exponential_at([stream.exponential(0.8 / rate) for _ in range(n)], rate)


def test_block_stream_deep_copy_hands_out_the_same_variates():
    stream = _BlockStream(make_rng(43))
    for _ in range(_BLOCK + _BLOCK // 2):
        stream.random()
    twin = copy.deepcopy(stream)

    def variates(s):
        return [(s.random(), s.exponential(0.5), int(s.integers(1000))) for _ in range(600)]

    assert variates(stream) == variates(twin)


def test_block_stream_integers_are_the_generators_own_draws():
    stream, generator = _BlockStream(make_rng(45)), make_rng(45)
    assert [int(stream.integers(7)) for _ in range(50)] == [
        int(generator.integers(7)) for _ in range(50)
    ]
    # After a uniform, integers come after the block it drew.
    stream.random()
    generator.random(_BLOCK)
    assert int(stream.integers(10**9)) == int(generator.integers(10**9))


def test_drift_machine_zero_duration_is_identity(rng):
    machine = drift_velocity_model().base_coupler.machine((1.0, 1), rng)
    assert machine.advance(0.0) == (1.0, 1)


def test_drift_machine_drift_with_velocity(rng):
    machine = drift_velocity_model().base_coupler.machine((1.0, 1), rng)
    assert machine.next_event_in() == math.inf
    assert machine.drift() == (1, 0)
    end = machine.advance(0.5)
    assert end == pytest.approx((1.5, 1))
    assert type(end[1]) is int  # a label with no drift keeps its exact value


def test_drift_machine_additive_drift(rng):
    machine = tcp_toy().base_coupler.machine((2.0,), rng)
    assert machine.advance(0.25) == pytest.approx((2.25,))
    assert machine.advance(0.75) == pytest.approx((3.0,))
    assert rng.random() == make_rng(20260818).random()  # it drew nothing


def test_frozen_drift_machine_stands_still(rng):
    machine = DriftMachine((1,))
    assert machine.drift() is None
    assert machine.advance(2.0) == (1,)


def _toy_fields():
    model = drift_model()
    return {
        "rate": model.rate, "kernel": model.kernel, "rate_ceiling": 1.0,
        "state_layout": ("real",), "state_box": ((-50.0, 50.0),), "name": "toy",
    }


def test_spec_without_a_base_coupler_is_refused():
    with pytest.raises(ValueError, match="^toy: declare a base_coupler$"):
        ModelSpec(**_toy_fields())


@pytest.mark.parametrize("law", ["neither", "both"])
def test_spec_declares_exactly_one_jump_law(law):
    fields = dict(_toy_fields(), base_coupler=drift_model().base_coupler)
    if law == "neither":
        del fields["kernel"]
    else:
        fields["kernel_atoms"] = lambda state, measure: [(state, 1.0)]
    with pytest.raises(ValueError) as err:
        ModelSpec(**fields)
    assert str(err.value) == "toy: declare exactly one of kernel and kernel_atoms"


def test_atom_sampler_draws_each_atom_at_its_weight():
    weights = {(0,): 0.2, (1,): 0.5, (2,): 0.3}
    model = dataclasses.replace(
        drift_model(), kernel=None, kernel_atoms=lambda state, measure: list(weights.items())
    )
    measure = EmpiricalMeasure.from_states([(0.0,)])
    stream = CountingStream(make_rng(11))
    n = 20_000
    counts = collections.Counter(model.jump((5.0,), measure, stream) for _ in range(n))
    assert stream.counts == {"random": n}  # one variate per jump
    assert set(counts) == set(weights)
    for state, w in weights.items():
        se = math.sqrt(w * (1.0 - w) / n)
        assert abs(counts[state] / n - w) < 4.0 * se


def test_nan_rate_fails_the_ceiling_check():
    with pytest.raises(RateCeilingError):
        check_rate(math.nan, 1.0, "toy")
    check_rate(1.0, 1.0, "toy")


# ---------------------------------------------------------------------------
# bounded-rate thinning


def test_zero_rate_gives_pure_base_dynamics(rng):
    model = drift_model(speed=2.0)
    traj = simulate_nonlinear(model, constant_flow((0.0,)), (0.0,), 5.0, rng)
    assert traj.n_accepted == 0
    jumps = [e for e in traj.events if e.kind == JUMP_ACCEPTED]
    assert jumps == []
    assert traj.final_state == pytest.approx((10.0,))


def test_every_proposal_is_recorded(rng):
    model = flip_model(rate_value=1.0, ceiling=2.0)
    traj = simulate_nonlinear(model, constant_flow((0.0,)), (0,), 50.0, rng)
    kinds = {e.kind for e in traj.events}
    assert JUMP_ACCEPTED in kinds and JUMP_REJECTED in kinds
    n_prop = traj.n_accepted + traj.n_rejected
    assert n_prop == len(traj.events)
    assert n_prop > 40  # ceiling-2 clock over 50 time units


def test_event_times_strictly_increase(rng):
    model = flip_model(rate_value=1.5, ceiling=2.0)
    traj = simulate_nonlinear(
        model, constant_flow((0.0,)), (0,), 20.0, rng, sample_times=(5.0, 10.0)
    )
    times = [e.time for e in traj.events]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert set(traj.sample_states) == {5.0, 10.0}
    assert traj.horizon == 20.0


def test_rejected_proposals_do_not_change_state(rng):
    model = drift_velocity_model(jump_rate=1.0, ceiling=2.0)
    traj = simulate_nonlinear(model, constant_flow((0.0,)), (0.0, 1), 10.0, rng)
    prev_t, prev_s = 0.0, traj.initial
    for e in traj.events:
        flowed = (prev_s[0] + prev_s[1] * (e.time - prev_t), prev_s[1])
        if e.kind == JUMP_REJECTED:
            assert e.state == flowed
        else:
            assert e.state == (flowed[0], -flowed[1])
        prev_t, prev_s = e.time, e.state


def test_identical_seeds_give_identical_trajectories():
    model = flip_model(rate_value=1.3, ceiling=2.0)
    t1 = simulate_nonlinear(model, constant_flow((0.0,)), (0,), 30.0, make_rng(99))
    t2 = simulate_nonlinear(model, constant_flow((0.0,)), (0,), 30.0, make_rng(99))
    assert t1.events == t2.events


def test_rate_above_ceiling_raises():
    model = flip_model(rate_value=3.0, ceiling=2.0)
    with pytest.raises(RateCeilingError):
        simulate_nonlinear(model, constant_flow((0.0,)), (0,), 10.0, make_rng(3))


def test_bounded_simulation_rejects_infinite_ceiling():
    no_bound = dataclasses.replace(tcp_toy(), local_bound=None)
    with pytest.raises(ValueError):
        simulate_nonlinear(no_bound, constant_flow((0.0,)), (0.0,), 1.0, make_rng(4))


def test_saturated_rate_gaps_are_exponential():
    model = flip_model(rate_value=2.0, ceiling=2.0)
    stream = make_rng(515)
    gaps = []
    t_prev = 0.0
    traj = simulate_nonlinear(model, constant_flow((0.0,)), (0,), 5100.0, stream)
    for e in traj.events:
        if e.kind == JUMP_ACCEPTED:
            gaps.append(e.time - t_prev)
            t_prev = e.time
    gaps = np.asarray(gaps[:10_000])
    assert len(gaps) == 10_000
    assert stats.kstest(gaps, "expon", args=(0.0, 0.5)).pvalue > 0.01


def test_half_rate_mean_jump_count():
    model = flip_model(rate_value=1.0, ceiling=2.0)
    flow = constant_flow((0.0,))
    counts = np.empty(10_000)
    for r in range(counts.size):
        traj = simulate_nonlinear(model, flow, (0,), 10.0, make_rng(7000 + r))
        counts[r] = traj.n_accepted
    se = math.sqrt(10.0 / counts.size)
    assert abs(counts.mean() - 10.0) < 3.0 * se


def test_sampling_records_requested_times(rng):
    model = drift_model(speed=1.0)
    traj = simulate_nonlinear(
        model, constant_flow((0.0,)), (0.0,), 4.0, rng, sample_times=(1.0, 2.5)
    )
    assert traj.state_at_sample(1.0) == pytest.approx((1.0,))
    assert traj.state_at_sample(2.5) == pytest.approx((2.5,))
    with pytest.raises(KeyError):
        traj.state_at_sample(3.0)


# ---------------------------------------------------------------------------
# unbounded rates via per-flight ceilings


def test_unbounded_halving_kernel_halves_flowed_state(rng):
    model = tcp_toy()
    # The second input puts sample times inside flights.
    for sample_times in [(), (0.05, 1.23, 2.5, 5.0)]:
        traj = simulate_nonlinear(
            model, constant_flow((0.0,)), (4.0,), 5.0, rng, sample_times=sample_times
        )
        assert set(traj.sample_states) == set(sample_times)
        prev_t, prev_s = 0.0, traj.initial
        saw_jump = False
        for e in traj.events:
            flowed = (prev_s[0] + (e.time - prev_t),)
            if e.kind == JUMP_ACCEPTED:
                saw_jump = True
                assert e.state[0] == pytest.approx(flowed[0] / 2.0)
            else:
                assert e.state[0] == pytest.approx(flowed[0])
            prev_t, prev_s = e.time, e.state
        assert saw_jump
        # A sample comes before a proposal at the same time, so it is the
        # state flowed from the last event strictly before it.
        for ts, state in traj.sample_states.items():
            before = [e for e in traj.events if e.time < ts]
            last_t, last_s = (before[-1].time, before[-1].state) if before else (0.0, traj.initial)
            assert state[0] == pytest.approx(last_s[0] + (ts - last_t))


def test_unbounded_records_local_ceilings(rng):
    model = tcp_toy()
    traj = simulate_nonlinear(
        model, constant_flow((0.0,)), (1.0,), 2.0, rng
    )
    assert traj.events
    for e in traj.events:
        assert e.ceiling is not None and e.ceiling > 0.0


def test_unbounded_survival_probability_matches_hazard():
    model = tcp_toy()
    flow = constant_flow((0.0,))
    n = 10_000
    survived = 0
    for r in range(n):
        traj = simulate_nonlinear(
            model, flow, (0.0,), 1.0, make_rng(31_000 + r)
        )
        if traj.n_accepted == 0:
            survived += 1
    p = math.exp(-1.5)
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(survived / n - p) < 3.0 * se


def test_accepted_jump_ends_a_local_flight():
    # After a jump to x + 1 the rate 1 + x + 1 exceeds the flight's ceiling
    # 1 + x + dt, so a proposal later in the same flight would raise.
    model = dataclasses.replace(
        tcp_toy(), kernel=lambda state, measure, stream: (state[0] + 1.0,), name="tcp-up"
    )
    jumps = 0
    for seed in range(200):
        traj = simulate_nonlinear(
            model, constant_flow((0.0,)), (0.0,), 1.0, make_rng(seed)
        )
        jumps += traj.n_accepted
    assert jumps > 200


def test_unbounded_rate_above_local_bound_raises():
    def lying_bound(state, dt, measures):
        return 0.25 * (1.0 + state[0])

    model = tcp_toy()
    bad = ModelSpec(
        rate=model.rate,
        kernel=model.kernel,
        rate_ceiling=math.inf,
        local_bound=lying_bound,
        state_layout=("real",),
        state_box=((0.0, 100.0),),
        name="tcp-lying",
        base_coupler=model.base_coupler,
    )
    with pytest.raises(RateCeilingError):
        simulate_nonlinear(
            bad, constant_flow((0.0,)), (3.0,), 5.0, make_rng(8)
        )


# ---------------------------------------------------------------------------
# fixed-point iteration over measure flows


def test_picard_zero_rate_converges_to_base_pushforward():
    model = drift_model(speed=1.0)
    m0 = EmpiricalMeasure.from_states([(0.0,)])
    result = picard_solve(
        model, m0, horizon=1.0, grid_step=0.5, n_samples=200,
        tol=1e-6, max_iter=5, stream=make_rng(11),
    )
    assert result.converged
    assert result.n_iterations <= 2
    assert result.flow.at(0.75).point() == pytest.approx((0.5,))
    assert result.flow.at(1.0).point() == pytest.approx((1.0,))


def test_picard_constant_rate_first_two_iterates_agree():
    model = flip_model(rate_value=1.0, ceiling=2.0)
    m0 = EmpiricalMeasure.from_states([(0,)])
    result = picard_solve(
        model, m0, horizon=2.0, grid_step=0.5, n_samples=2000,
        tol=0.0, max_iter=2, stream=make_rng(12),
    )
    assert len(result.gap_history) == 2
    assert result.gap_history[1] < 0.12


def test_picard_reports_non_convergence_without_raising():
    model = flip_model(rate_value=1.0, ceiling=2.0)
    m0 = EmpiricalMeasure.from_states([(0,)])
    result = picard_solve(
        model, m0, horizon=2.0, grid_step=0.5, n_samples=500,
        tol=1e-9, max_iter=2, stream=make_rng(13),
    )
    assert result.converged is False
    assert result.n_iterations == 2
    assert result.gap > 0.0


def test_picard_requires_minimum_sample_size():
    model = drift_model()
    m0 = EmpiricalMeasure.from_states([(0.0,)])
    with pytest.raises(ValueError):
        picard_solve(
            model, m0, horizon=1.0, grid_step=0.5, n_samples=50,
            tol=1e-3, max_iter=2, stream=make_rng(14),
        )


@pytest.mark.parametrize("horizon, grid_step", [(math.nan, 0.5), (1.0, math.nan)])
def test_picard_refuses_a_nan_horizon_or_grid_step(horizon, grid_step):
    m0 = EmpiricalMeasure.from_states([(0.0,)])
    with pytest.raises(ValueError, match="^horizon and grid_step must be positive$"):
        picard_solve(
            drift_model(), m0, horizon=horizon, grid_step=grid_step, n_samples=100,
            tol=1e-3, max_iter=2, stream=make_rng(14),
        )


@pytest.mark.parametrize(
    "horizon, grid_step, message",
    [
        (math.inf, 0.5, "^drift-toy: horizon inf is NaN, infinite or before the start 0.0$"),
        (1.0, 2.0, "^drift-toy: grid_step 2.0 leaves no grid point after 0 within the horizon 1.0$"),
        (1.0, 5e-324, "^drift-toy: grid_step 5e-324 lays more than 1000000 grid points "
                      "on the horizon 1.0$"),
        (1.0, 1e-300, "^drift-toy: grid_step 1e-300 lays more than 1000000 grid points "
                      "on the horizon 1.0$"),
    ],
    ids=["infinite-horizon", "step-past-horizon", "subnormal-step", "tiny-step"],
)
def test_picard_refuses_a_grid_it_cannot_run(horizon, grid_step, message):
    m0 = EmpiricalMeasure.from_states([(0.0,)])
    stream = CountingStream(make_rng(14))
    with pytest.raises(ValueError, match=message):
        picard_solve(
            drift_model(), m0, horizon=horizon, grid_step=grid_step, n_samples=100,
            tol=1e-3, max_iter=2, stream=stream,
        )
    assert stream.counts == {}  # refused before any path is simulated


def test_picard_bins_each_measure_once_from_its_states(monkeypatch):
    # m0 once, then each new snapshot once: it serves as the new flow in its
    # iteration and as the old one in the next.  No snapshot's sorted atoms
    # are built for the gap.
    binned = []
    weigh = Binning.weigh

    def counted(binning, states, weights=None):
        binned.append(len(states))
        return weigh(binning, states, weights)

    atoms = EmpiricalMeasure.atoms

    def built_atoms(measure):
        if measure._atoms is None:
            raise AssertionError("a snapshot's atoms were built")
        return atoms.fget(measure)

    monkeypatch.setattr(Binning, "weigh", counted)
    monkeypatch.setattr(EmpiricalMeasure, "atoms", property(built_atoms))
    model = run_tumble(RunTumbleParams(theta=0.1)).model
    m0 = EmpiricalMeasure([((0.0, 1), 0.5), ((0.5, -1), 0.5)])
    result = picard_solve(
        model, m0, horizon=1.0, grid_step=0.25, n_samples=100,
        tol=0.0, max_iter=3, stream=make_rng(5),
    )
    assert result.n_iterations == 3
    assert binned == [2] + [100] * (4 * 3)


def test_picard_grid_refinement_stays_within_noise():
    model = flip_model(rate_value=1.0, ceiling=2.0)
    m0 = EmpiricalMeasure.from_states([(0,)])
    binning = make_binning(("label",), ((0.0, 1.0),), bins=2)

    def terminal(grid_step, seed):
        res = picard_solve(
            model, m0, horizon=2.0, grid_step=grid_step, n_samples=2000,
            tol=1e-3, max_iter=4, stream=make_rng(seed),
        )
        m = res.flow.at(2.0)
        return [s for s, w in m.atoms for _ in range(int(round(w * 2000)))]

    coarse_a = terminal(0.5, 21)
    coarse_b = terminal(0.5, 22)
    fine = terminal(0.25, 23)
    noise = histogram_tv(coarse_a, coarse_b, binning) + 0.02
    assert histogram_tv(coarse_a, fine, binning) <= 2.0 * noise + 0.02


def test_single_run_refuses_kernel_atoms_short_of_mass():
    # A run-tumble flip atom of weight 0.8: the last atom would silently
    # take the missing mass, as coupled runs refuse to let it.
    model = dataclasses.replace(
        run_tumble(RunTumbleParams(theta=0.1)).model,
        kernel_atoms=lambda state, measure: (((state[0], -state[1]), 0.8),),
    )
    with pytest.raises(ValueError, match="^atom weights sum to 0.8, expected 1$"):
        simulate_nonlinear(model, constant_flow((0.0, 1)), (0.0, 1), 50.0, make_rng(3))

"""Interacting particle systems driven by a single global proposal clock."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mfjump.engine import JUMP_ACCEPTED, JUMP_REJECTED, SAMPLE, RateCeilingError
from mfjump.metrics import measure_tv, states_equal
from mfjump.particles import (
    SystemSpec,
    empirical,
    meanfield_system,
    simulate_system,
)
from mfjump.engine import simulate_nonlinear
from mfjump.models import run_tumble, RunTumbleParams

from conftest import CountingStream, constant_flow, flip_model, flip_system, make_rng


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
    assert measure_tv(empirical(x), empirical(y)) <= 2.0 * mismatches / n + 1e-12


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
        def base_flow(s, dt, stream):
            return s

        def rate(i, state):
            return 1.0

        def kernel(i, state, stream):
            return (1 - state[i][0],)

        return SystemSpec(
            n_particles=1,
            base_flow=base_flow,
            rate=rate,
            kernel=kernel,
            rate_ceiling=2.0,
            coordinate_layout=("label",),
            coordinate_box=((0.0, 1.0),),
            name="one-flip",
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
        def base_flow(s, dt, stream):
            return s

        def rate(i, state):
            frac = sum(c[0] for c in state) / len(state)
            return 0.5 + 0.5 * frac

        def kernel(i, state, stream):
            return (1 - state[i][0],)

        return SystemSpec(
            n_particles=n,
            base_flow=base_flow,
            rate=rate,
            kernel=kernel,
            rate_ceiling=1.0,
            coordinate_layout=("label",),
            coordinate_box=((0.0, 1.0),),
            name="symmetric-flips",
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
    kinds = {e.kind for e in traj.events}
    assert kinds <= {SAMPLE}
    assert len([e for e in traj.events if e.kind == SAMPLE]) == 2
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
    def refuse(state):
        raise AssertionError("quantize_state called")

    monkeypatch.setattr("mfjump.engine.quantize_state", refuse)
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

"""End-to-end acceptance checks with stated tolerances and runtime budgets.

Each test exercises one headline guarantee of the library, prints a single
PASS/FAIL line with the measured quantities, and enforces a wall-clock cap.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats

from mfjump.certificates import nonlinear_certificate, particle_certificate, tv_rate
from mfjump.coupling import (
    estimate_doeblin_alpha,
    optimal_pair_sampler,
    simulate_coupled_system,
    simulate_merge_split,
)
from mfjump.engine import (
    EmpiricalMeasure,
    MeasureFlow,
    picard_solve,
    simulate_nonlinear,
)
from mfjump.metrics import (
    dbar1,
    estimate_tv_bound,
    histogram_tv,
    make_binning,
)
from mfjump.models import (
    MhParams,
    RunTumbleParams,
    SelectionParams,
    TcpParams,
    mh_granular,
    run_tumble,
    selection_mutation,
    tcp,
)
from mfjump.particles import simulate_system

from conftest import constant_flow, flip_model, make_rng

import dataclasses


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{name}] {status} {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_acceptance_01_saturated_thinning_gaps_are_exponential():
    t_start = time.monotonic()
    model = flip_model(rate_value=2.0, ceiling=2.0)
    traj = simulate_nonlinear(
        model, constant_flow((0.0,)), (0,), 5100.0, make_rng(1_001)
    )
    times = [0.0] + [e.time for e in traj.events if e.kind == "jump-accepted"]
    gaps = np.diff(np.asarray(times))[:10_000]
    assert len(gaps) == 10_000
    pvalue = stats.kstest(gaps, "expon", args=(0.0, 0.5)).pvalue
    elapsed = time.monotonic() - t_start
    report(
        "A-01 thinning-gaps-exponential",
        pvalue > 0.01,
        f"KS p={pvalue:.4f} on 10^4 gaps vs rate-2 exponential",
        elapsed,
        10.0,
    )


def test_acceptance_02_pair_sampler_matches_exact_expected_distance():
    t_start = time.monotonic()
    gen = np.random.default_rng(2_002)
    worst = 0.0
    all_ok = True
    for trial in range(20):
        n_atoms = int(gen.integers(1, 11))
        states = [(float(k),) for k in range(n_atoms)]
        v_table = {s: float(gen.uniform(1.0, 5.0)) for s in states}

        def random_measure():
            w = gen.dirichlet(np.ones(n_atoms))
            return EmpiricalMeasure(
                atoms=tuple((s, float(wi)) for s, wi in zip(states, w))
            )

        m1, m2 = random_measure(), random_measure()
        w1 = {s: 0.0 for s in states}
        w2 = {s: 0.0 for s in states}
        for s, w in m1.atoms:
            w1[s] = w
        for s, w in m2.atoms:
            w2[s] = w
        exact = sum(abs(w1[s] - w2[s]) * v_table[s] for s in states)
        ps = optimal_pair_sampler(m1, m2)
        stream = make_rng(3_000 + trial)
        draws = (ps.draw(stream) for _ in range(100_000))
        dv = np.array([v_table[x] + v_table[y] if x != y else 0.0 for x, y, _ in draws])
        err = abs(dv.mean() - exact)
        se = dv.std(ddof=1) / math.sqrt(len(dv)) if dv.std() > 0 else 1e-9
        z = err / se if se > 0 else 0.0
        worst = max(worst, z)
        if err > 3.0 * se + 1e-12:
            all_ok = False
    elapsed = time.monotonic() - t_start
    report(
        "A-02 pair-sampler-expected-distance",
        all_ok,
        f"20 random pairs, worst |z|={worst:.2f} across 10^5-sample estimates",
        elapsed,
        30.0,
    )


def test_acceptance_03_coupled_selection_counter_dominates_mismatch():
    t_start = time.monotonic()
    bundle = selection_mutation(
        SelectionParams(
            n_particles=10,
            lam_star=1.0,
            accept_prob=lambda a, b: 0.5,
            base_refresh_rate=1.0,
        )
    )
    gen = np.random.default_rng(4_004)
    violations = 0
    events_checked = 0
    for r in range(1_000):
        x0 = tuple((float(gen.uniform()),) for _ in range(10))
        y0 = tuple(
            (x0[i][0],) if i < 5 else (float(gen.uniform()),) for i in range(10)
        )
        traj = simulate_coupled_system(
            bundle.system, x0, y0, 5.0, 1.0, 1.0, make_rng(5_000 + r)
        )
        for e in traj.events:
            events_checked += 1
            if 2 * e.j < dbar1(e.x, e.y) - 1e-9:
                violations += 1
    elapsed = time.monotonic() - t_start
    report(
        "A-03 coupled-system-counter-invariant",
        violations == 0,
        f"{violations} violations of 2J >= mismatch distance over "
        f"{events_checked} events in 1000 runs",
        elapsed,
        60.0,
    )


def test_acceptance_04_merge_split_marginal_fidelity():
    t_start = time.monotonic()
    bundle = run_tumble(RunTumbleParams(theta=0.2))
    model = bundle.model
    flow1 = constant_flow((0.5, 1))
    flow2 = constant_flow((-0.5, -1))
    n = 40_000
    coupled_ends = []
    direct_ends = []
    for r in range(n):
        traj = simulate_merge_split(
            model, flow1, flow2, (0.0, 1), (0.0, -1), 2.0, 1.0,
            make_rng(6_000_000 + r), sample_times=(2.0,),
        )
        coupled_ends.append(traj.pair_at(2.0)[0])
        ref = simulate_nonlinear(model, flow1, (0.0, 1), 2.0, make_rng(7_000_000 + r))
        direct_ends.append(ref.final_state)
    binning = make_binning(model.state_layout, model.state_box, bins=20)
    tv = histogram_tv(coupled_ends, direct_ends, binning)
    elapsed = time.monotonic() - t_start
    report(
        "A-04 merge-split-marginal-fidelity",
        tv < 0.05,
        f"coupled-vs-reference histogram TV={tv:.4f} (threshold 0.05, n=4x10^4, t=2)",
        elapsed,
        60.0,
    )


def test_acceptance_05_empirical_tv_bound_obeys_certificate_rate():
    t_start = time.monotonic()
    params = RunTumbleParams(
        theta=0.05, rate_low=1.0, rate_high=1.4, steepness=3.0, base_rate=1.0
    )
    bundle = run_tumble(params)
    model = bundle.model
    lam_star = model.rate_ceiling
    t0 = 3.0
    horizon = 15.0
    x0, y0 = (0.1, 1), (-0.1, 1)
    m0 = EmpiricalMeasure.from_states([x0])
    h0 = EmpiricalMeasure.from_states([y0])
    flow1 = picard_solve(
        model, m0, horizon=horizon, grid_step=0.25, n_samples=2_000,
        tol=0.03, max_iter=8, stream=make_rng(8_001),
    ).flow
    flow2 = picard_solve(
        model, h0, horizon=horizon, grid_step=0.25, n_samples=2_000,
        tol=0.03, max_iter=8, stream=make_rng(8_002),
    ).flow

    alpha_hat, alpha_se = estimate_doeblin_alpha(
        model, lambda stream: (x0, y0), t0, 2_000, make_rng(8_003)
    )

    sample_times = tuple(k * t0 for k in range(1, 6))
    runs = []
    for r in range(10_000):
        runs.append(
            simulate_merge_split(
                model, flow1, flow2, x0, y0, horizon, t0,
                make_rng(9_000_000 + r), sample_times=sample_times,
            )
        )
    lines = []
    all_ok = True
    for k, t in enumerate(sample_times, start=1):
        est = estimate_tv_bound(runs, t)
        rate = tv_rate(params.theta, t0, alpha_hat, lam_star, t)
        rel = est.se / est.point if est.point > 0 else 0.0
        ok = est.point <= rate * (1.0 + 3.0 * rel)
        all_ok = all_ok and ok
        lines.append(f"k={k}: {est.point:.3f}<= {rate:.3f}")
    elapsed = time.monotonic() - t_start
    report(
        "A-05 coupling-beats-certificate-rate",
        all_ok,
        f"alpha_hat={alpha_hat:.3f}+/-{alpha_se:.3f}; " + "; ".join(lines),
        elapsed,
        300.0,
    )


def test_acceptance_06_lyapunov_moment_decay_bound():
    t_start = time.monotonic()
    bundle = run_tumble(RunTumbleParams(theta=0.005))
    model = bundle.model
    c = bundle.constants
    m0 = EmpiricalMeasure.from_states([(0.0, 1)])
    flow = picard_solve(
        model, m0, horizon=8.0, grid_step=0.25, n_samples=3_000,
        tol=0.03, max_iter=8, stream=make_rng(10_001),
    ).flow
    sample_times = (1.0, 2.0, 4.0, 8.0)
    values = {t: [] for t in sample_times}
    for r in range(10_000):
        traj = simulate_nonlinear(
            model, flow, (0.0, 1), 8.0, make_rng(11_000_000 + r),
            sample_times=sample_times,
        )
        for t in sample_times:
            values[t].append(bundle.lyapunov(traj.state_at_sample(t)))
    m0v = bundle.lyapunov((0.0, 1))
    lines = []
    all_ok = True
    for t in sample_times:
        arr = np.asarray(values[t])
        decay = math.exp(-c.rho * (1.0 - c.eta) * t)
        bound = decay * m0v + (1.0 - decay) * c.M / (1.0 - c.eta)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        ok = arr.mean() <= bound + 3.0 * se
        all_ok = all_ok and ok
        lines.append(f"t={t:g}: {arr.mean():.2f}<={bound:.2f}")
    elapsed = time.monotonic() - t_start
    report(
        "A-06 lyapunov-moment-decay",
        all_ok,
        "; ".join(lines),
        elapsed,
        120.0,
    )


def test_acceptance_07_counter_expectation_growth_bound():
    t_start = time.monotonic()
    bundle = selection_mutation(
        SelectionParams(
            n_particles=10,
            lam_star=1.0,
            accept_prob=lambda a, b: 0.5,
            base_refresh_rate=1.0,
        )
    )
    theta = 1.0
    x0 = tuple((0.05 + 0.09 * i,) for i in range(10))
    y0 = tuple((x0[i][0],) if i < 5 else (0.99 - 0.07 * i,) for i in range(10))
    j0 = dbar1(x0, y0) / 2.0
    sample_times = (1.0, 2.0, 4.0)
    js = {t: [] for t in sample_times}
    for r in range(10_000):
        traj = simulate_coupled_system(
            bundle.system, x0, y0, 4.0, 1.0, theta, make_rng(12_000_000 + r),
            sample_times=sample_times,
        )
        for t in sample_times:
            js[t].append(traj.j_at(t))
    lines = []
    all_ok = True
    for t in sample_times:
        arr = np.asarray(js[t], dtype=float)
        bound = math.exp(theta * t) * j0
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        ok = arr.mean() <= bound + 3.0 * se
        all_ok = all_ok and ok
        lines.append(f"t={t:g}: E[J]={arr.mean():.2f}<={bound:.1f}")
    elapsed = time.monotonic() - t_start
    report(
        "A-07 counter-growth-bound",
        all_ok,
        f"J0={j0:g}; " + "; ".join(lines),
        elapsed,
        120.0,
    )


def test_acceptance_08_granular_chain_matches_grid_fixed_point():
    t_start = time.monotonic()
    beta = 1.0
    w_amp = 0.25
    params = MhParams(
        u=lambda x: math.cos(2.0 * math.pi * x),
        w=lambda x, y: w_amp * math.cos(2.0 * math.pi * (x - y)),
        beta=beta,
        lam_bar=1.0,
        n_sites=64,
        osc_u=2.0,
        osc_w=2.0 * w_amp,
    )
    bundle = mh_granular(params)

    # Independent fixed-point oracle on a 128-point grid.
    grid = (np.arange(128) + 0.5) / 128.0
    u_vals = np.cos(2.0 * np.pi * grid)
    w_mat = w_amp * np.cos(2.0 * np.pi * (grid[:, None] - grid[None, :]))
    v = u_vals.copy()
    for _ in range(10_000):
        gibbs = np.exp(-beta * v)
        gibbs /= gibbs.sum()
        v_new = u_vals + w_mat @ gibbs
        gap = float(np.max(np.abs(v_new - v)))
        v = v_new
        if gap < 1e-8:
            break
    assert gap < 1e-8

    # Long run of the interacting chain; pool single-site samples after burn-in.
    sys = bundle.system
    x0 = tuple((i / 64.0,) for i in range(64))
    sample_times = tuple(float(t) for t in np.arange(400.0, 3400.0, 4.0))
    traj = simulate_system(
        sys, x0, 3400.0, make_rng(13_001),
        sample_times=sample_times, record_events=False,
    )
    assert traj.n_accepted >= 100_000
    pooled = np.array(
        [s[0] for t in sample_times for s in traj.state_at_sample(t)]
    )

    edges = np.linspace(0.0, 1.0, 33)
    counts, _ = np.histogram(pooled, bins=edges)
    freq = counts / counts.sum()
    # Bin masses of the Gibbs density for the oracle potential.
    fine = (np.arange(4096) + 0.5) / 4096.0
    v_fine = np.interp(fine, grid, v, period=1.0)
    dens = np.exp(-beta * v_fine)
    dens /= dens.sum()
    mass = np.array(
        [dens[(fine >= a) & (fine < b)].sum() for a, b in zip(edges[:-1], edges[1:])]
    )
    tv = float(np.abs(freq - mass).sum())
    elapsed = time.monotonic() - t_start
    report(
        "A-08 granular-chain-gibbs-fixed-point",
        tv < 0.1,
        f"single-site histogram vs grid fixed point TV={tv:.4f} "
        f"({traj.n_accepted} accepted events)",
        elapsed,
        300.0,
    )


def test_acceptance_09_certificate_structure():
    t_start = time.monotonic()
    from test_certificates import NL, PART

    checks = []
    czero = nonlinear_certificate(dataclasses.replace(NL, theta=0.0))
    checks.append(("nonlinear c_star=0 at theta=0", czero.c_star == 0.0))
    pzero_l = particle_certificate(dataclasses.replace(PART, theta=0.0))
    pzero_c = particle_certificate(dataclasses.replace(PART, theta=0.0), corrected=True)
    checks.append(
        (
            "particle third term vanishes at theta=0",
            pzero_l.kappa_tilde == pytest.approx(2.0 * pzero_l.kappa),
        )
    )
    checks.append(
        ("variants agree at theta=0", pzero_l.kappa_tilde == pzero_c.kappa_tilde)
    )
    thetas = [0.05 * k for k in range(10)]
    nl_vals = [
        nonlinear_certificate(dataclasses.replace(NL, theta=th)).kappa_tilde
        for th in thetas
    ]
    checks.append(
        ("nonlinear monotone in theta", all(b >= a for a, b in zip(nl_vals, nl_vals[1:])))
    )
    for corrected in (False, True):
        p_vals = [
            particle_certificate(
                dataclasses.replace(PART, theta=th), corrected=corrected
            ).kappa_tilde
            for th in thetas
        ]
        checks.append(
            (
                f"particle monotone in theta (corrected={corrected})",
                all(b >= a for a, b in zip(p_vals, p_vals[1:])),
            )
        )
    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    elapsed = time.monotonic() - t_start
    report(
        "A-09 certificate-structure",
        ok,
        "all structural identities hold" if ok else f"failed: {failed}",
        elapsed,
        1.0,
    )


def test_acceptance_10_unbounded_rate_simulation():
    t_start = time.monotonic()
    g2 = lambda x: 0.1 * math.exp(0.5 * x)
    bundle_grow = tcp(TcpParams(g2=g2, envelope_k=0.1, envelope_rho=0.5))
    flow = constant_flow((0.0,))
    finite = 0
    for r in range(1_000):
        traj = simulate_nonlinear(
            bundle_grow.model, flow, (0.0,), 20.0, make_rng(14_000_000 + r)
        )
        if math.isfinite(traj.final_state[0]) and traj.n_accepted < 10_000:
            finite += 1

    bundle_lin = tcp(TcpParams())
    n = 10_000
    survived = 0
    for r in range(n):
        traj = simulate_nonlinear(
            bundle_lin.model, flow, (0.0,), 1.0, make_rng(15_000_000 + r)
        )
        survived += traj.n_accepted == 0
    p = math.exp(-1.5)
    se = math.sqrt(p * (1.0 - p) / n)
    ok = finite == 1_000 and abs(survived / n - p) < 3.0 * se
    elapsed = time.monotonic() - t_start
    report(
        "A-10 unbounded-rate-simulation",
        ok,
        f"{finite}/1000 finite growth paths; first-jump survival "
        f"{survived / n:.4f} vs {p:.4f} (+/-{3 * se:.4f})",
        elapsed,
        120.0,
    )

"""Exact laws of coupled systems against simulation.

A coupled run of a two-state mean-field system is a Markov chain on the
pair counts ``(n11, n10, n01, n00)``, where ``n_ab`` counts the coordinates
with ``x_k = a`` and ``y_k = b``: ``C(N + 3, 3)`` states, 165 at N = 8.  Its
generator is written out below and ``scipy.linalg.expm`` gives the exact law
of the mismatch ``K = n10 + n01`` at each sample time.

The model is a noisy voter: each coordinate proposes at the saturated rate
1, picks a uniform donor (itself included) and copies it with weight
``1 - EPS`` or flips its own state with weight ``EPS``.  At a merged
coordinate both sides take the maximal coupling of their two Bernoulli
kernels; at an unmerged one :func:`~mfjump.coupling.simulate_coupled_system`
draws one donor for both sides and couples the two one-donor laws.  The
chain is written twice, once under that rule and once under the maximal
coupling at every coordinate, and their means of ``K / N`` lie about 30
standard errors of 4,000 replicas apart, so the gates tell them apart.

A third chain reads the measure in its rate: each side proposes at the
ceiling 1 and jumps with its thinning share ``0.25 + 0.75 * (share of
ones)``, so the two sides' rates differ at a merged coordinate whenever
their configurations do.  Its mixed kernels put the rest of the mass on the
coordinate's own state, and the exact law couples them as the simulator
does: maximally under each side's share at a merged coordinate, and under
one shared donor at an unmerged one.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import stats
from scipy.linalg import expm

from mfjump import coupling
from mfjump.coupling import make_refresh_coupler, simulate_coupled_system
from mfjump.particles import SystemSpec

from conftest import make_rng

N = 8
EPS = 0.1
START = (4, 2, 2, 0)  # (n11, n10, n01, n00)
BY_MEAN_START = (3, 4, 1, 0)
TIMES = (0.5, 1.0, 2.0)
REPLICAS = 4_000
TYPES = ((1, 1), (1, 0), (0, 1), (0, 0))


def _saturated(ones: float) -> float:
    return 1.0


def _by_mean(ones: float) -> float:
    """The thinning share of a side whose share of ones is ``ones``."""
    return 0.25 + 0.75 * ones


def _noisy_voter(n: int, share=_saturated) -> SystemSpec:
    def pair_atoms(own, donor):
        return ((donor, 1.0 - EPS), ((1 - own[0],), EPS))

    return SystemSpec(
        n_particles=n,
        rate=lambda i, config: share(sum(c[0] for c in config) / len(config)),
        rate_ceiling=1.0,
        coordinate_layout=("label",),
        coordinate_box=((0, 1),),
        name="noisy-voter",
        base_coupler=make_refresh_coupler(0.0),
        pair_atoms=pair_atoms,
    )


def _copy_law(donor: float, own: int) -> float:
    """The chance that a coordinate at ``own`` jumps to 1, reading a donor
    at ``donor`` (the share of ones, for the whole configuration)."""
    return (1.0 - EPS) * donor + EPS * (1 - own)


def _mixed_law(share: float, donor: float, own: int) -> float:
    """The chance that a coordinate at ``own`` is at 1 after a proposal
    thinned at ``share`` that reads a donor at ``donor``: it jumps by
    :func:`_copy_law` with chance ``share`` and stays put otherwise."""
    return (1.0 - share) * own + share * _copy_law(donor, own)


def _maximal(qx: float, qy: float) -> dict:
    """The maximal coupling of Bernoulli ``qx`` and ``qy``, by pair type."""
    return {
        (1, 1): min(qx, qy),
        (0, 0): min(1.0 - qx, 1.0 - qy),
        (1, 0): max(qx - qy, 0.0),
        (0, 1): max(qy - qx, 0.0),
    }


def _ones(counts: dict) -> tuple:
    """Each side's share of ones."""
    return (counts[1, 1] + counts[1, 0]) / N, (counts[1, 1] + counts[0, 1]) / N


def _maximal_step(counts: dict, a: int, b: int, share) -> dict:
    """The next pair type of a coordinate of type ``(a, b)`` under the
    maximal coupling of the two sides' mixed kernels, each side thinned at
    ``share`` of its share of ones."""
    ones_x, ones_y = _ones(counts)
    return _maximal(
        _mixed_law(share(ones_x), ones_x, a), _mixed_law(share(ones_y), ones_y, b)
    )


def _synchronous_step(counts: dict, a: int, b: int, share) -> dict:
    """The same under one shared donor: the maximal coupling of the two
    one-donor laws, averaged over the donor's pair type ``(c, d)``."""
    share_x, share_y = map(share, _ones(counts))
    law = dict.fromkeys(TYPES, 0.0)
    for (c, d), m in counts.items():
        qx, qy = _mixed_law(share_x, c, a), _mixed_law(share_y, d, b)
        for pair, w in _maximal(qx, qy).items():
            law[pair] += w * m / N
    return law


def _exact_mismatch(unmerged_step, start=START, share=_saturated) -> dict:
    """``{t: law of K}`` from ``start`` for the chain thinned at ``share``
    whose merged coordinates take :func:`_maximal_step` and unmerged ones
    ``unmerged_step``."""
    states = [s for s in itertools.product(range(N + 1), repeat=4) if sum(s) == N]
    index = {s: k for k, s in enumerate(states)}
    generator = np.zeros((len(states), len(states)))
    for s in states:
        counts = dict(zip(TYPES, s))
        for (a, b), m in counts.items():
            step = _maximal_step if a == b else unmerged_step
            for pair, w in step(counts, a, b, share).items():
                if m and w > 0.0 and pair != (a, b):
                    moved = dict(counts)
                    moved[a, b] -= 1
                    moved[pair] += 1
                    target = index[tuple(moved[p] for p in TYPES)]
                    generator[index[s], target] += m * w
                    generator[index[s], index[s]] -= m * w
    mismatch = np.array([s[1] + s[2] for s in states])
    return {
        t: np.bincount(mismatch, weights=expm(generator * t)[index[start]], minlength=N + 1)
        for t in TIMES
    }


MAXIMAL = _exact_mismatch(_maximal_step)
SYNCHRONOUS = _exact_mismatch(_synchronous_step)
BY_MEAN = _exact_mismatch(_synchronous_step, BY_MEAN_START, _by_mean)


def _simulated_mismatch(seed: int, start=START, share=_saturated) -> dict:
    """``{t: K of each replica}`` of coupled runs from ``start``, thinned
    at ``share``."""
    system = _noisy_voter(N, share)
    counts = dict(zip(TYPES, start))
    pairs = [pair for pair in TYPES for _ in range(counts[pair])]
    x0 = tuple((a,) for a, _ in pairs)
    y0 = tuple((b,) for _, b in pairs)
    stream = make_rng(seed)
    ks = {t: [] for t in TIMES}
    for _ in range(REPLICAS):
        samples = simulate_coupled_system(
            system, x0, y0, TIMES[-1], TIMES[-1], 0.0, stream,
            sample_times=TIMES, record_events=False,
        ).samples
        for t in TIMES:
            x, y, _ = samples[t]
            ks[t].append(sum(a != b for a, b in zip(x, y)))
    return {t: np.array(k) for t, k in ks.items()}


def _gate_failures(ks: dict, exact: dict) -> list:
    """The gates a simulated ``K`` fails against an exact law, at each
    sample time: chi² past its 0.999 quantile (bins pooled in order until
    each expects at least 5), or ``E[K/N]`` more than 4 SE from exact."""
    failures = []
    support = np.arange(N + 1)
    for t in TIMES:
        law, k = exact[t], ks[t]
        observed = np.bincount(k, minlength=N + 1)
        pooled = []
        for count, expected in zip(observed, law * len(k)):
            if pooled and pooled[-1][1] < 5.0:
                pooled[-1] = (pooled[-1][0] + count, pooled[-1][1] + expected)
            else:
                pooled.append((count, expected))
        if len(pooled) > 1 and pooled[-1][1] < 5.0:
            last = pooled.pop()
            pooled[-1] = (pooled[-1][0] + last[0], pooled[-1][1] + last[1])
        chi2 = sum((o - e) ** 2 / e for o, e in pooled)
        bound = stats.chi2.ppf(0.999, len(pooled) - 1)
        if chi2 > bound:
            failures.append(f"t={t}: chi2 {chi2:.1f} > {bound:.1f}")
        mean = (law * support).sum() / N
        se = np.sqrt((law * (support / N) ** 2).sum() - mean**2) / np.sqrt(len(k))
        z = (k.mean() / N - mean) / se
        if abs(z) > 4.0:
            failures.append(f"t={t}: E[K/N] {k.mean() / N:.4f} vs {mean:.4f} (z={z:.1f})")
    return failures


def test_exact_chains_differ_by_more_than_the_gate_resolves():
    # At each sample time the two exact means lie 20 or more standard
    # errors apart, so no simulation can pass both gates.
    for t in TIMES:
        means = [(law * np.arange(N + 1)).sum() / N for law in (MAXIMAL[t], SYNCHRONOUS[t])]
        sd = np.sqrt((SYNCHRONOUS[t] * (np.arange(N + 1) / N) ** 2).sum() - means[1] ** 2)
        assert abs(means[1] - means[0]) > 20.0 * sd / np.sqrt(REPLICAS)
        assert abs(MAXIMAL[t].sum() - 1.0) < 1e-12
        assert abs(SYNCHRONOUS[t].sum() - 1.0) < 1e-12


def test_coupled_noisy_voter_draws_the_synchronous_chain():
    ks = _simulated_mismatch(27)
    assert _gate_failures(ks, SYNCHRONOUS) == []


def _maximal_parts(system, i, x, y, matching, stream):
    """A proposal's parts as the maximal coupling of the two sides' full
    mixed kernels at every coordinate, built eagerly: each side's kernel is
    the pair atoms of all ``N`` donors, each weighted ``1 / N``."""

    def mixed(c):
        kernel = coupling._weigh(map(system.pair_atoms, itertools.repeat(c[i]), c), 1.0 / len(c))
        return coupling._mixed_weights(kernel.items(), c[i], coupling._thinning(system, (i, c), i))

    return coupling._Overlap(mixed(x), mixed(y))


class _Independent:
    """A proposal at an unmerged coordinate of a saturated system that
    draws each side's jump by its own donor and uniform."""

    def __init__(self, system, i, x, y):
        self._sides = (system, i, x, y)

    def draw(self, stream):
        system, i, x, y = self._sides
        return system.jump(i, x, stream), system.jump(i, y, stream), 1.0


def test_the_maximal_coupling_draws_the_maximal_chain(monkeypatch):
    monkeypatch.setattr(coupling, "_proposal_parts", _maximal_parts)
    ks = _simulated_mismatch(27)
    assert _gate_failures(ks, MAXIMAL) == []
    assert _gate_failures(ks, SYNCHRONOUS) != []


def test_an_independent_coupling_at_unmerged_coordinates_fails_the_gate(monkeypatch):
    # Both marginals are kept; only the joint law of the unmerged sides moves.
    proposal_parts = coupling._proposal_parts

    def parts(system, i, x, y, matching, stream):
        if x[i] == y[i]:
            return proposal_parts(system, i, x, y, matching, stream)
        return _Independent(system, i, x, y)

    monkeypatch.setattr(coupling, "_proposal_parts", parts)
    assert _gate_failures(_simulated_mismatch(27), SYNCHRONOUS) != []


def test_a_rate_that_reads_the_measure_draws_its_exact_chain(monkeypatch):
    # From a start whose two configurations hold 7 and 4 ones of 8, the two
    # sides' rates differ at every merged coordinate; the merged parts
    # couple them maximally under each side's share.  A rate cut to 0.8
    # of its value keeps the coupling but moves both marginals, and the
    # gate sees it.
    ks = _simulated_mismatch(31, BY_MEAN_START, _by_mean)
    assert _gate_failures(ks, BY_MEAN) == []
    thinning = coupling._thinning
    monkeypatch.setattr(coupling, "_thinning", lambda *args: 0.8 * thinning(*args))
    assert _gate_failures(_simulated_mismatch(31, BY_MEAN_START, _by_mean), BY_MEAN) != []

"""Distance functions, histogram comparisons, and coupled-ensemble estimators."""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfjump.coupling import optimal_pair_sampler
from mfjump.engine import EmpiricalMeasure
from mfjump.metrics import (
    BoundEstimate,
    LyapunovFn,
    d_v,
    dbar1,
    discrete_tv,
    estimate_tv_bound,
    estimate_vnorm_bound,
    histogram_tv,
    make_binning,
)


class FakeCoupledRun:
    """Minimal stand-in exposing the paired-state lookup used by estimators."""

    def __init__(self, pairs):
        self._pairs = dict(pairs)

    def pair_at(self, t):
        return self._pairs[t]


# ---------------------------------------------------------------------------
# state equality


def test_states_a_hair_apart_stay_distinct_and_keep_each_side_marginal():
    # Equality is exact: a state 1e-13 away from the other side's is not an
    # overlap atom, and each residual holds its own side's state, so each
    # side draws only from its own kernel's support.
    x, y = (1.0,), (1.0 + 1e-13,)
    parts = optimal_pair_sampler(EmpiricalMeasure([(x, 1.0)]), EmpiricalMeasure([(y, 1.0)]))
    assert parts.p == 0
    assert parts.common == []
    assert parts.residuals() == (((x, 1.0),), ((y, 1.0),))
    a, b = (1.0, 1), (1.0 + 1e-12, 1)
    assert dbar1((a, a), (a, b)) == 2.0
    runs = [FakeCoupledRun({1.0: (a, b)}), FakeCoupledRun({1.0: (a, a)})]
    assert estimate_tv_bound(runs, 1.0).point == 1.0
    assert EmpiricalMeasure.from_states([a, b, a, a]).atoms == ((a, 0.75), (b, 0.25))


# ---------------------------------------------------------------------------
# distances


def test_d_v_vanishes_on_equal_states():
    v = LyapunovFn(lambda s: 1.0 + s[0] ** 2, name="quad")
    assert d_v((2.0,), (2.0,), v) == 0.0


def test_d_v_adds_both_weights_when_distinct():
    v = LyapunovFn(lambda s: 1.0 + abs(s[0]), name="abs")
    assert d_v((1.0,), (-2.0,), v) == pytest.approx(2.0 + 3.0)


def test_dbar1_counts_mismatched_coordinates():
    x = ((0.0,), (1.0,), (2.0,))
    y = ((0.0,), (5.0,), (2.0,))
    assert dbar1(x, x) == 0.0
    assert dbar1(x, y) == 2.0


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
)
def test_dbar1_bounds(xs, ys):
    n = min(len(xs), len(ys))
    x = tuple((v,) for v in xs[:n])
    y = tuple((v,) for v in ys[:n])
    d = dbar1(x, y)
    assert 0.0 <= d <= 2.0 * n
    assert d % 2.0 == 0.0
    if any(a != b for a, b in zip(x, y)):
        assert d >= 2.0


# ---------------------------------------------------------------------------
# Lyapunov function wrapper


def test_lyapunov_fn_rejects_values_below_one():
    bad = LyapunovFn(lambda s: 0.5, name="bad")
    with pytest.raises(ValueError):
        bad((0.0,))


def test_lyapunov_fn_evaluates_and_names():
    v = LyapunovFn(lambda s: 1.0 + s[0] ** 2, name="quad")
    assert v((3.0,)) == 10.0
    assert v.name == "quad"


# ---------------------------------------------------------------------------
# bound estimates


def test_bound_estimate_requires_two_observations():
    with pytest.raises(ValueError):
        BoundEstimate(point=1.0, se=0.1, count=1)
    est = BoundEstimate(point=1.0, se=0.1, count=10)
    assert est.count == 10


def test_estimate_tv_bound_all_merged_is_zero():
    runs = [FakeCoupledRun({1.0: ((0.0,), (0.0,))}) for _ in range(50)]
    est = estimate_tv_bound(runs, 1.0)
    assert est.point == 0.0
    assert est.se == 0.0


def test_estimate_tv_bound_half_merged():
    runs = [FakeCoupledRun({2.0: ((0.0,), (0.0,))}) for _ in range(2500)]
    runs += [FakeCoupledRun({2.0: ((0.0,), (1.0,))}) for _ in range(2500)]
    est = estimate_tv_bound(runs, 2.0)
    assert est.point == pytest.approx(1.0)
    assert est.se == pytest.approx(2.0 * math.sqrt(0.25 / 5000.0))
    assert est.count == 5000


def test_estimate_vnorm_bound_hand_value():
    v = LyapunovFn(lambda s: 1.0 + abs(s[0]), name="abs")
    runs = [
        FakeCoupledRun({1.0: ((0.0,), (0.0,))}),
        FakeCoupledRun({1.0: ((1.0,), (2.0,))}),  # d_v = 2 + 3 = 5
        FakeCoupledRun({1.0: ((0.0,), (3.0,))}),  # d_v = 1 + 4 = 5
        FakeCoupledRun({1.0: ((2.0,), (2.0,))}),
    ]
    est = estimate_vnorm_bound(runs, 1.0, v)
    values = np.array([0.0, 5.0, 5.0, 0.0])
    assert est.point == pytest.approx(values.mean())
    assert est.se == pytest.approx(values.std(ddof=1) / math.sqrt(4))


def test_vnorm_bound_dominates_tv_bound_when_v_at_least_one():
    v = LyapunovFn(lambda s: 1.0 + s[0] ** 2, name="quad")
    gen = np.random.default_rng(7)
    runs = []
    for _ in range(200):
        x = (float(gen.normal()),)
        y = x if gen.random() < 0.5 else (float(gen.normal()),)
        runs.append(FakeCoupledRun({1.0: (x, y)}))
    tv = estimate_tv_bound(runs, 1.0)
    vn = estimate_vnorm_bound(runs, 1.0, v)
    assert vn.point >= tv.point - 1e-12


# ---------------------------------------------------------------------------
# histogram total variation


def test_histogram_tv_identical_samples_is_zero():
    binning = make_binning(("real",), ((0.0, 1.0),), bins=8)
    a = [(x,) for x in np.linspace(0.05, 0.95, 100)]
    assert histogram_tv(a, list(a), binning) == 0.0


def test_histogram_tv_disjoint_supports_is_two():
    binning = make_binning(("real",), ((0.0, 2.0),), bins=4)
    a = [(x,) for x in np.linspace(0.01, 0.49, 50)]
    b = [(x,) for x in np.linspace(1.51, 1.99, 50)]
    assert histogram_tv(a, b, binning) == pytest.approx(2.0)


def test_histogram_tv_half_bin_shift_two_bins():
    # Uniform mass filling the first of two unit bins, against the same mass
    # shifted by half a bin: overlap drops to 1/2, so the distance is 1.
    binning = make_binning(("real",), ((0.0, 2.0),), bins=2)
    xs = np.linspace(0.0, 1.0, 400, endpoint=False) + 1.0 / 800.0
    a = [(float(x),) for x in xs]
    b = [(float(x + 0.5),) for x in xs]
    assert histogram_tv(a, b, binning) == pytest.approx(1.0)


def test_histogram_tv_clips_out_of_box_samples():
    binning = make_binning(("real",), ((0.0, 1.0),), bins=2)
    a = [(-5.0,), (-1.0,)]
    b = [(0.1,), (0.2,)]
    assert histogram_tv(a, b, binning) == 0.0


def test_histogram_tv_mixed_layout_uses_labels_exactly():
    binning = make_binning(("real", "label"), ((0.0, 1.0), (-1.0, 1.0)), bins=4)
    a = [(0.5, 1)] * 10
    b = [(0.5, -1)] * 10
    assert histogram_tv(a, b, binning) == pytest.approx(2.0)


@settings(max_examples=40)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
)
def test_histogram_tv_is_a_pseudometric(xs, ys, zs):
    binning = make_binning(("real",), ((0.0, 1.0),), bins=5)
    a = [(x,) for x in xs]
    b = [(y,) for y in ys]
    c = [(z,) for z in zs]
    dab = histogram_tv(a, b, binning)
    dba = histogram_tv(b, a, binning)
    assert dab == pytest.approx(dba)
    assert 0.0 <= dab <= 2.0
    assert dab <= histogram_tv(a, c, binning) + histogram_tv(c, b, binning) + 1e-12


def _cell(binning, state):
    """The cell of one state by the loop that vectorized binning replaced."""
    key = []
    for value, kind, (lo, hi) in zip(state, binning.layout, binning.box):
        if kind == "real":
            width = (hi - lo) / binning.bins
            idx = int((float(value) - lo) / width)
            key.append(min(max(idx, 0), binning.bins - 1))
        else:
            key.append(value)
    return tuple(key)


def _cellwise_tv(atoms1, atoms2, cell):
    """Total variation that adds up each atom's weight in its cell, atom by atom."""
    diff: dict = {}
    for sign, atoms in ((1.0, atoms1), (-1.0, atoms2)):
        for s, w in atoms:
            k = cell(s)
            diff[k] = diff.get(k, 0.0) + sign * w
    return sum(abs(v) for v in diff.values())


def _frequencies(samples, binning):
    counts = collections.Counter(_cell(binning, s) for s in samples)
    return [(k, c / len(samples)) for k, c in counts.items()]


@st.composite
def _binned_laws(draw):
    """A binning of a mixed layout, weighted atoms and two samples whose real
    coordinates fall inside and outside the box, on cell edges and at ``hi``."""
    layout = draw(st.lists(st.sampled_from(("real", "label")), min_size=1, max_size=3))
    bins = draw(st.integers(1, 6))
    box = []
    for kind in layout:
        if kind == "real":
            lo = draw(st.floats(-10.0, 10.0))
            box.append((lo, lo + draw(st.floats(0.1, 10.0))))
        else:
            box.append((-1, 1))
    binning = make_binning(tuple(layout), tuple(box), bins)

    def coordinate(kind, lo, hi):
        if kind == "label":
            return st.sampled_from((-1, 1, 2))
        width = (hi - lo) / bins
        return st.one_of(
            st.floats(lo - 2.0 * (hi - lo), hi + 2.0 * (hi - lo)),
            st.integers(-1, bins + 1).map(lambda k: lo + k * width),
            st.just(hi),
        )

    state = st.tuples(*(coordinate(kind, *b) for kind, b in zip(layout, box)))
    atoms = draw(st.lists(state, min_size=1, max_size=20))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(atoms), max_size=len(atoms)))
    weighted = [(s, w / sum(raw)) for s, w in zip(atoms, raw)]
    a = draw(st.lists(state, min_size=1, max_size=40))
    b = draw(st.lists(state, min_size=1, max_size=40))
    return binning, weighted, a, b


@settings(max_examples=200, deadline=None)
@given(_binned_laws())
def test_vectorized_binning_matches_the_cellwise_formula(laws):
    binning, weighted, a, b = laws
    cell = lambda s: _cell(binning, s)  # noqa: E731
    sampled_a = EmpiricalMeasure.from_states(a).atoms
    sampled_b = EmpiricalMeasure.from_states(b).atoms
    # picard_solve's gap: weighted atoms against a sample, and two samples.
    weights = binning.weigh(*zip(*weighted))
    assert discrete_tv(weights, binning.weigh(b)) == pytest.approx(
        _cellwise_tv(weighted, sampled_b, cell), abs=1e-12
    )
    assert discrete_tv(binning.weigh(a), binning.weigh(b)) == pytest.approx(
        _cellwise_tv(sampled_a, sampled_b, cell), abs=1e-12
    )
    assert histogram_tv(a, b, binning) == pytest.approx(
        _cellwise_tv(_frequencies(a, binning), _frequencies(b, binning), lambda k: k),
        abs=1e-12,
    )
    assert sum(w for _, w in weights) == pytest.approx(1.0, abs=1e-12)
    assert len({k for k, _ in weights}) == len(weights)

"""Golden bytes: fixed (config, seed) pairs produce pinned outputs.

Each CLI kind runs one small config, and the library runs one mean-field
run-tumble system at N=16.  The sha256 of every output is pinned, so any
change to the numbers, to their formatting or to the way random numbers are
consumed shows up here.  A change that alters random-number use on purpose
re-pins these values in the same change and says so in ``CHANGES.md``;
a change meant to be output-neutral must pass with them untouched.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from mfjump.cli import main
from mfjump.coupling import (
    MERGE,
    coupled_base,
    simulate_coupled_system,
    simulate_merge_split,
)
from mfjump.engine import EmpiricalMeasure, MeasureFlow
from mfjump.models import RunTumbleParams, build_model, run_tumble
from mfjump.particles import meanfield_system, simulate_system

from conftest import make_rng

RUN_TUMBLE = {"id": "run-tumble", "params": {"theta": 0.1}}
SELECTION = {"id": "selection", "params": {"n_particles": 3}}

#: kind -> (model, run section, seed, output file, pinned sha256).
CASES = {
    "certify": (
        None,
        {
            "family": "particle",
            "constants": {
                "lambda_star": 1.0, "theta": 0.3, "rho": 1.0, "rho_star": 0.2,
                "eta": 0.6, "M": 2.0, "gamma_star": 2.0, "alpha": 0.8, "t0": 2.0,
            },
        },
        0,
        "certify.csv",
        "2b4ce04a4bf0211415a197c1351803f08ea7e9f5e8b3af16cf158a58b498cf3b",
    ),
    "couple": (
        RUN_TUMBLE,
        {
            "x0": [0.2, 1], "y0": [-0.2, 1], "horizon": 1.0, "t0": 0.5,
            "replicas": 16, "sample_times": [0.5, 1.0],
            "flow1": {"type": "constant", "atom": [0.3, 1]},
            "flow2": {"type": "constant", "atom": [-0.3, -1]},
        },
        7,
        "couple.csv",
        "9648254f131fb6bde5339228c6afb873ccf991c7315b0cabb491486049f80fcf",
    ),
    "simulate": (
        RUN_TUMBLE,
        {
            "x0": [0.0, 1], "horizon": 2.0, "replicas": 4,
            "sample_times": [0.0, 1.0, 2.0],
            "flow": {"type": "constant", "atom": [0.0, 1]},
        },
        1,
        "simulate.csv",
        "fc36da2d6a4684c0f143a0480bb014ad69f5d519b58c9f3c1a378e68e3e4be7c",
    ),
    "estimate": (
        RUN_TUMBLE,
        {"x0": [0.1, 1], "y0": [-0.1, 1], "t0": 1.5, "replicas": 32},
        2,
        "estimate.csv",
        "62d6a2a0debccff1462da8f3049d96ede51cfda250297ef8696bf47137a0f53a",
    ),
    "picard": (
        RUN_TUMBLE,
        {
            "m0": [[0.0, 1], [0.5, -1]], "horizon": 1.0, "grid_step": 0.25,
            "n_samples": 100, "tol": 0.0, "max_iter": 2,
        },
        5,
        "picard.csv",
        "b8a6256900f87484798d5596c24b8f2a90d2abafe72fb453d333f73ca3da2843",
    ),
    "particles": (
        SELECTION,
        {
            "x0": [[0.1], [0.5], [0.9]], "horizon": 1.0, "replicas": 3,
            "sample_times": [0.5, 1.0],
        },
        9,
        "particles.csv",
        "29de901b02b24d3db4f3beef57f3b3e89a7186326f6191c8e44a26c31b6b931e",
    ),
    "couple-particles": (
        SELECTION,
        {
            "x0": [[0.1], [0.5], [0.9]], "y0": [[0.1], [0.4], [0.8]],
            "horizon": 1.0, "t0": 0.5, "replicas": 8, "sample_times": [0.5, 1.0],
        },
        4,
        "couple_particles.csv",
        "52ac4e114de556612943d800600344ad3f8ed0bc6a017e85056f64649230ceff",
    ),
}

#: ``particles`` runs of more systems: model id -> (params, x0, seed, sha256).
#: The ``mh`` system's kernel reads two variates; ``zigzag``'s atom sampler
#: reads one per accepted jump.
PARTICLE_CASES = {
    "mh": (
        {"n_sites": 3, "beta": 1.0, "lam_bar": 2.0},
        [[0.1], [0.5], [0.9]],
        3,
        "00738b6615f36aeca877ba4b89dd5d7ca8f2bea7a249ad10abc67590e141dbe6",
    ),
    "zigzag": (
        {"n_particles": 3},
        [[1.0, 1], [-0.8, -1], [0.3, 1]],
        6,
        "a4f14bea2efbad0bfd73f26791d7530ce71cfd9c7a41bb80bd1a328c6c59accb",
    ),
}

#: sha256 of ``simulate.csv`` of a ``tcp`` run (seed 13, 8 replicas): the one
#: registry model that moves by a ``DriftMachine`` and thins under
#: ``local_bound`` flights.
TCP_SIMULATE_SHA256 = (
    "e23a8cf9110e20b0412296bed6704ada706f1dad4084367cd6b32cfb8f7c1e88"
)

#: sha256 of ``couple_particles.csv`` of the CI's coupled selection run on 64
#: coordinates, half of them matched (seed 3, 4 replicas): its proposals
#: split often, so the residuals are read, and a proposal at a mismatched
#: coordinate draws one donor for both sides.
HALF_MATCHED_SHA256 = (
    "0e83221a55199879bd088008c3930d050a2c2f084acdf101d28ea02994b43d2f"
)

#: sha256 of the repr of the library mean-field run below.
MEANFIELD_SHA256 = (
    "6426b7a2a74f72814c809aae2a3e096ccf421f27e39a7380b82475df3fddc2fe"
)

#: sha256 of the repr of the merge/split records below: 40 seeds, 37 merges
#: of the base machine among their events.
MERGE_SPLIT_SHA256 = (
    "16fb967e8ca28232a20cfa38579e4e0801ca66f7b98e652df2ba52f6a1579526"
)

#: sha256 of the repr of the coupled-system records below: 40 runs, 1284
#: events, on systems that declare ``kernel_atoms``.
COUPLED_SYSTEM_SHA256 = (
    "49c05a072210fc2d95bbbdab9b4f2a0fec54068db4d7d92e7c63ccae331ed81a"
)

#: sha256 of the repr of the ``coupled_base`` windows below: 180 windows,
#: 117 of them merged.
COUPLED_BASE_SHA256 = (
    "3943d72aa2812582e0bfedf3d24ddca72026f1413c01c370cb29ffa7cfff8191"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_output_sha256(tmp_path, kind, model, run, seed, name) -> str:
    config = {"schema": 1, "kind": kind, "run": run}
    if model is not None:
        config["model"] = model
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    res = CliRunner().invoke(
        main,
        [kind, "--config", str(path), "--seed", str(seed), "--out", str(out)],
        catch_exceptions=False,
    )
    assert res.exit_code == 0, res.output
    return _sha256((out / name).read_bytes())


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cli_output_bytes_are_pinned(tmp_path, kind):
    model, run, seed, name, pinned = CASES[kind]
    assert _cli_output_sha256(tmp_path, kind, model, run, seed, name) == pinned


@pytest.mark.parametrize("model_id", sorted(PARTICLE_CASES))
def test_particles_output_bytes_are_pinned(tmp_path, model_id):
    params, x0, seed, pinned = PARTICLE_CASES[model_id]
    model = {"id": model_id, "params": params}
    run = {"x0": x0, "horizon": 1.0, "replicas": 3, "sample_times": [0.5, 1.0]}
    sha = _cli_output_sha256(tmp_path, "particles", model, run, seed, "particles.csv")
    assert sha == pinned


def test_tcp_simulate_output_is_pinned(tmp_path):
    model = {"id": "tcp", "params": {}}
    run = {"x0": [0.0], "horizon": 3.0, "replicas": 8, "sample_times": [1.0, 2.0, 3.0],
           "flow": {"type": "constant", "atom": [0.0]}}
    sha = _cli_output_sha256(tmp_path, "simulate", model, run, 13, "simulate.csv")
    assert sha == TCP_SIMULATE_SHA256


def test_half_matched_couple_particles_output_is_pinned(tmp_path):
    rng = random.Random(64)
    x0 = [[rng.random()] for _ in range(64)]
    y0 = [x if k % 2 else [rng.random()] for k, x in enumerate(x0)]
    model = {"id": "selection", "params": {"n_particles": 64}}
    run = {"x0": x0, "y0": y0, "horizon": 2.0, "t0": 1.0, "replicas": 4,
           "sample_times": [1.0, 2.0]}
    sha = _cli_output_sha256(tmp_path, "couple-particles", model, run, 3,
                             "couple_particles.csv")
    assert sha == HALF_MATCHED_SHA256


def test_meanfield_library_run_is_pinned():
    system = meanfield_system(run_tumble(RunTumbleParams(theta=0.1)), 16)
    initial = tuple(((k - 7.5) / 4.0, 1 if k % 2 else -1) for k in range(16))
    traj = simulate_system(
        system, initial, 4.0, make_rng(11), sample_times=(2.0, 4.0)
    )
    record = (
        traj.final_state,
        sorted(traj.sample_states.items()),
        [(e.time, e.kind, e.state) for e in traj.events],
        traj.n_accepted,
        traj.n_rejected,
    )
    assert _sha256(repr(record).encode()) == MEANFIELD_SHA256


def test_merge_split_records_are_pinned():
    # The MERGE events come from the base machine, the PROPOSAL events from
    # the maximal coupling of the jump kernels.
    model = run_tumble(RunTumbleParams(theta=0.1)).model
    flow1 = MeasureFlow.constant(EmpiricalMeasure([((0.3, 1), 1.0)]))
    flow2 = MeasureFlow.constant(EmpiricalMeasure([((-0.3, -1), 1.0)]))
    records = []
    for seed in range(40):
        traj = simulate_merge_split(
            model, flow1, flow2, (0.2, 1), (-0.2, 1), 4.0, 1.0, make_rng(seed),
            sample_times=(1.0, 2.0, 3.0, 4.0), record_events=True,
        )
        records.append((
            [(e.time, e.kind, e.x, e.y, e.merged, e.p) for e in traj.events],
            sorted(traj.sample_pairs.items()),
            traj.n_splits,
        ))
    assert sum(e[1] == MERGE for r in records for e in r[0]) == 37
    assert _sha256(repr(records).encode()) == MERGE_SPLIT_SHA256


def _window_end(model, x, y, stream) -> tuple:
    """The end pair of one ``coupled_base`` window at ``t0 = 2`` and its
    ``merged_at``."""
    x_end, y_end, merged_at = coupled_base(model, x, y, 2.0, stream)
    return tuple(x_end), tuple(y_end), merged_at


def test_coupled_base_windows_are_pinned():
    run_tumble_model = run_tumble(RunTumbleParams(theta=0.1)).model
    starts = [
        (run_tumble_model, (0.1, 1), (-0.1, 1)),
        (run_tumble_model, (0.5, 1), (0.5, 1)),
        (build_model("mh", {}).base_model, (0.2,), (0.7,)),
    ]
    windows = [
        _window_end(model, x, y, make_rng(1000 + seed))
        for model, x, y in starts
        for seed in range(60)
    ]
    assert sum(merged_at is not None for _, _, merged_at in windows) == 117
    assert _sha256(repr(windows).encode()) == COUPLED_BASE_SHA256


def test_coupled_kernel_atoms_systems_are_pinned():
    # The coupled systems that draw from ``kernel_atoms`` (not ``pair_atoms``):
    # zigzag from half-matched starts and a mean-field run-tumble lift with
    # every third coordinate mismatched.
    def record(traj) -> tuple:
        return (
            sorted(traj.samples.items()),
            [(e.time, e.x, e.y, e.j) for e in traj.events],
        )

    starts = random.Random(8)
    x0 = [(starts.uniform(-2, 2), starts.choice([-1, 1])) for _ in range(8)]
    y0 = [x0[k] if k % 2 else (starts.uniform(-2, 2), x0[k][1]) for k in range(8)]
    zigzag = build_model("zigzag", {"n_particles": 8}).system
    records = [
        record(simulate_coupled_system(
            zigzag, x0, y0, 2.0, 1.0, 1.0, make_rng(seed), sample_times=(1.0, 2.0)
        ))
        for seed in range(20)
    ]
    meanfield = meanfield_system(run_tumble(RunTumbleParams(theta=0.5)), 12)
    x0 = [((k - 5.5) / 4.0, 1 if k % 2 else -1) for k in range(12)]
    y0 = [x0[k] if k % 3 else (x0[k][0] + 0.3, -x0[k][1]) for k in range(12)]
    records += [
        record(simulate_coupled_system(
            meanfield, x0, y0, 2.0, 1.0, 1.0, make_rng(100 + seed),
            sample_times=(1.0, 2.0),
        ))
        for seed in range(20)
    ]
    assert sum(len(events) for _, events in records) == 1284
    assert _sha256(repr(records).encode()) == COUPLED_SYSTEM_SHA256

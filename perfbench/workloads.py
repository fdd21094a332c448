"""Seeded inputs, runners and output checks of the benchmark workloads.

Each workload is one simulator at a fixed problem size:

* ``couple-rt``    -- ``mfjump couple`` (``simulate_merge_split``) on run-tumble;
* ``couple-sel``   -- ``mfjump couple-particles`` (``simulate_coupled_system``)
  on selection with N = 256;
* ``meanfield-rt`` -- the library call ``simulate_system`` on the N = 256
  mean-field lift of run-tumble (no CLI kind builds this system);
* ``picard-rt``    -- ``mfjump picard`` (``picard_solve`` over
  ``simulate_nonlinear``) on run-tumble.

``generate`` turns (workload, seed, unit index) into the JSON the program
receives plus the seed it is run with.  Set-up is what a user pays before
any replica runs (import, config parse, model build): ``prepare`` does the
part before the program is called, and ``execute`` signals its end through
``on_ready`` before it simulates, reduces and writes one CSV.  ``check``
validates that CSV and compares its estimates with the reference estimates
of the seed code.

This module imports only the standard library at import time, so the parent
process of a timed run never loads the program.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
REFERENCE = pathlib.Path(__file__).resolve().with_name("reference.json")

#: Estimates may differ from the reference by this many standard errors.
#: Wide enough that a correct program fails a check with negligible
#: probability over thousands of checks, narrow enough to catch a biased law.
TOLERANCE_SE = 6.0

RUN_TUMBLE = {"id": "run-tumble", "params": {"theta": 0.1}}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is the ``mfjump`` subcommand it runs, or ``None`` for the
    library run.  Why each workload was chosen is in ``BENCHMARK.json``.
    """

    name: str
    kind: str | None
    csv_name: str
    header: str
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "couple-rt", "couple", "couple.csv",
            "t,p_unequal,tv_bound,tv_se,vnorm_bound,vnorm_se,n_replicas", 2,
        ),
        Workload(
            "couple-sel", "couple-particles", "couple_particles.csv",
            "t,mean_J,J_se,mean_dbar1,violations,n_replicas", 1,
        ),
        Workload("meanfield-rt", None, "meanfield.csv", "replica,t,particle,x0,x1", 1),
        Workload("picard-rt", "picard", "picard.csv", "iteration,gap,converged", 1),
    )
}

# Problem sizes.  They define the workloads; a change to any of them is a
# new benchmark and needs `make_reference.py` to be rerun.
COUPLE_RT_REPLICAS = 1500
COUPLE_RT_TIMES = [1.0, 2.0, 3.0, 4.0]
N_PARTICLES = 256
COUPLE_SEL_REPLICAS = 1
COUPLE_SEL_TIMES = [1.0, 2.0]
MEANFIELD_REPLICAS = 1
MEANFIELD_TIMES = [0.75, 1.5]
PICARD_SAMPLES = 2000
PICARD_ITERATIONS = 5


def use_source_tree() -> None:
    """Import ``mfjump`` from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE / "mfjump" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SOURCE / 'mfjump'}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import mfjump

    origin = pathlib.Path(mfjump.__file__).resolve()
    if SOURCE not in origin.parents:
        raise SystemExit(f"benchmark: mfjump imported from {origin}, not {SOURCE}")


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def generate(name: str, seed: int, unit: int) -> tuple[dict, int]:
    """Config and program seed of the ``unit``-th run of a workload.

    The same (name, seed, unit) always gives the same inputs.  Layouts are
    drawn so that their law does not depend on the seed (a random
    arrangement of fixed statistics), which lets one reference serve every
    seed.
    """
    rng = random.Random(f"perfbench/{name}/{seed}/{unit}")
    program_seed = rng.randrange(2**31)
    if name == "couple-rt":
        return {
            "schema": 1,
            "kind": "couple",
            "model": RUN_TUMBLE,
            "run": {
                "x0": [0.2, 1],
                "y0": [-0.2, 1],
                "horizon": COUPLE_RT_TIMES[-1],
                "t0": 1.0,
                "replicas": COUPLE_RT_REPLICAS,
                "sample_times": COUPLE_RT_TIMES,
                "flow1": {"type": "constant", "atom": [0.3, 1]},
                "flow2": {"type": "constant", "atom": [-0.3, -1]},
            },
        }, program_seed
    if name == "couple-sel":
        x0 = [[rng.random()] for _ in range(N_PARTICLES)]
        matched = set(rng.sample(range(N_PARTICLES), N_PARTICLES // 2))
        y0 = [x0[i] if i in matched else [rng.random()] for i in range(N_PARTICLES)]
        return {
            "schema": 1,
            "kind": "couple-particles",
            "model": {"id": "selection", "params": {"n_particles": N_PARTICLES}},
            "run": {
                "x0": x0,
                "y0": y0,
                "horizon": COUPLE_SEL_TIMES[-1],
                "t0": 1.0,
                "replicas": COUPLE_SEL_REPLICAS,
                "sample_times": COUPLE_SEL_TIMES,
            },
        }, program_seed
    if name == "meanfield-rt":
        # Evenly spread positions, half of each velocity, randomly paired.
        positions = [-1.0 + 2.0 * (i + 0.5) / N_PARTICLES for i in range(N_PARTICLES)]
        velocities = [1, -1] * (N_PARTICLES // 2)
        rng.shuffle(positions)
        rng.shuffle(velocities)
        return {
            "model": RUN_TUMBLE,
            "n_particles": N_PARTICLES,
            "x0": [[x, v] for x, v in zip(positions, velocities)],
            "horizon": MEANFIELD_TIMES[-1],
            "replicas": MEANFIELD_REPLICAS,
            "sample_times": MEANFIELD_TIMES,
        }, program_seed
    if name == "picard-rt":
        return {
            "schema": 1,
            "kind": "picard",
            "model": RUN_TUMBLE,
            "run": {
                "m0": [[0, 1]],
                "horizon": 1.0,
                "grid_step": 0.25,
                "n_samples": PICARD_SAMPLES,
                "tol": 0,
                "max_iter": PICARD_ITERATIONS,
            },
        }, program_seed
    raise KeyError(name)


def units(name: str, config: dict) -> int:
    """Replicas one run of the config completes (``picard``: samples x iterations)."""
    if name == "picard-rt":
        return config["run"]["n_samples"] * config["run"]["max_iter"]
    if name == "meanfield-rt":
        return config["replicas"]
    return config["run"]["replicas"]


# ---------------------------------------------------------------------------
# Running the program.
# ---------------------------------------------------------------------------


def prepare(name: str, config_path: str):
    """Set-up that ends before ``execute``: the import, and for the library
    run also the config parse, model build and system lift."""
    if WORKLOADS[name].kind is not None:
        import mfjump.cli  # noqa: F401  (the import is part of the set-up)

        return None
    from mfjump import models, particles

    config = json.loads(pathlib.Path(config_path).read_text())
    bundle = models.build_model(config["model"]["id"], config["model"]["params"])
    return particles.meanfield_system(bundle, config["n_particles"]), config


def execute(name: str, prepared, config_path: str, out_dir: str, seed: int,
            on_ready=None) -> None:
    """Run the program on the config and write the workload's CSV to ``out_dir``.

    ``on_ready()`` is called once, when set-up ends: for a CLI workload, when
    the CLI has parsed its config and built its model (``_build_bundle``
    returns); for the library run, at once.
    """
    workload = WORKLOADS[name]
    if workload.kind is not None:
        from mfjump import cli

        build = getattr(cli, "_build_bundle", None)
        if on_ready is not None and build is None:
            on_ready()  # no build phase to hook: set-up ends at the import
        elif on_ready is not None:

            def build_then_ready(*args, **kwargs):
                bundle = build(*args, **kwargs)
                on_ready()
                return bundle

            cli._build_bundle = build_then_ready
        try:
            cli.main.main(
                args=[
                    workload.kind, "--config", config_path, "--out", out_dir,
                    "--seed", str(seed), "--threads", str(workload.threads),
                ],
                prog_name="mfjump",
                standalone_mode=False,
            )
        finally:
            if build is not None:
                cli._build_bundle = build
        return
    import numpy as np

    from mfjump import particles

    if on_ready is not None:
        on_ready()
    system, config = prepared
    x0 = tuple(tuple(c) for c in config["x0"])
    times = tuple(config["sample_times"])
    root = np.random.SeedSequence(seed)
    rows = []
    for replica, child in enumerate(root.spawn(config["replicas"])):
        stream = np.random.Generator(np.random.Philox(child))
        trajectory = particles.simulate_system(
            system, x0, config["horizon"], stream,
            sample_times=times, record_events=False,
        )
        for t in times:
            for index, coord in enumerate(trajectory.state_at_sample(t)):
                rows.append((replica, t, index) + tuple(coord))
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [workload.header] + [",".join(_fmt(v) for v in row) for row in rows]
    (out / workload.csv_name).write_text("\n".join(lines) + "\n")


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _read_csv(path: pathlib.Path, header: str) -> tuple[list[dict], list[str]]:
    text = path.read_text()
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]!r} != {header!r}"]
    return list(csv.DictReader(lines)), []


def _is_number_in(value: float, low: float, high: float) -> bool:
    return math.isfinite(value) and low <= value <= high


def _check_couple_rt(rows, config) -> tuple[list[str], dict]:
    errors, stats = [], {}
    run = config["run"]
    if [float(r["t"]) for r in rows] != run["sample_times"]:
        errors.append("sample times do not match the config")
    for r in rows:
        p, tv, se = float(r["p_unequal"]), float(r["tv_bound"]), float(r["tv_se"])
        if not all(_is_number_in(v, 0.0, 2.0) for v in (p, tv, se)):
            errors.append(f"t={r['t']}: value outside [0, 2]")
        if abs(tv - 2.0 * p) > 1e-12:
            errors.append(f"t={r['t']}: tv_bound {tv} != 2 * p_unequal {p}")
        vnorm = float(r["vnorm_bound"])
        if not (math.isfinite(vnorm) and vnorm >= 0.0):
            errors.append(f"t={r['t']}: vnorm_bound {vnorm} not finite and >= 0")
        if int(r["n_replicas"]) != run["replicas"]:
            errors.append(f"t={r['t']}: n_replicas {r['n_replicas']}")
        stats[f"p_unequal@{r['t']}"] = p
        stats[f"vnorm_bound@{r['t']}"] = vnorm
    return errors, stats


def _check_couple_sel(rows, config) -> tuple[list[str], dict]:
    errors, stats = [], {}
    run = config["run"]
    if [float(r["t"]) for r in rows] != run["sample_times"]:
        errors.append("sample times do not match the config")
    for r in rows:
        if int(r["violations"]) != 0:
            errors.append(f"t={r['t']}: {r['violations']} counter violations")
        if int(r["n_replicas"]) != run["replicas"]:
            errors.append(f"t={r['t']}: n_replicas {r['n_replicas']}")
        mean_j, dbar = float(r["mean_J"]), float(r["mean_dbar1"])
        if not (_is_number_in(dbar, 0.0, 2.0 * N_PARTICLES) and math.isfinite(mean_j)):
            errors.append(f"t={r['t']}: mean_J {mean_j} or mean_dbar1 {dbar} invalid")
        stats[f"mean_J@{r['t']}"] = mean_j
        stats[f"mean_dbar1@{r['t']}"] = dbar
    return errors, stats


def _check_meanfield(rows, config) -> tuple[list[str], dict]:
    """Layouts are symmetric, so ``mean_x`` and ``share_v+`` only catch a
    bias; the outward speed ``x * v`` and the share of particles whose
    velocity differs from their initial one follow the tumble rate."""
    errors, stats = [], {}
    times = config["sample_times"]
    initial_v = [v for _, v in config["x0"]]
    by_time = {t: [] for t in times}
    for r in rows:
        x, v = float(r["x0"]), float(r["x1"])
        if not math.isfinite(x) or v not in (1.0, -1.0):
            errors.append(f"row {r}: position not finite or velocity not +-1")
            break
        t = float(r["t"])
        if t not in by_time:
            errors.append(f"unexpected sample time {t}")
            break
        by_time[t].append((x, v, v != initial_v[int(r["particle"])]))
    for t, coords in by_time.items():
        if coords:
            stats[f"mean_x@{t}"] = sum(x for x, _, _ in coords) / len(coords)
            stats[f"share_v+@{t}"] = sum(v > 0 for _, v, _ in coords) / len(coords)
            stats[f"mean_xv@{t}"] = sum(x * v for x, v, _ in coords) / len(coords)
            stats[f"flipped@{t}"] = sum(f for _, _, f in coords) / len(coords)
    return errors, stats


def _check_picard(rows, config) -> tuple[list[str], dict]:
    errors, stats = [], {}
    max_iter = config["run"]["max_iter"]
    if [int(r["iteration"]) for r in rows] != list(range(1, max_iter + 1)):
        errors.append(f"iterations are not 1..{max_iter}")
    for r in rows:
        gap = float(r["gap"])
        if not _is_number_in(gap, 0.0, 2.0):
            errors.append(f"iteration {r['iteration']}: gap {gap} not in [0, 2]")
        stats[f"gap@{r['iteration']}"] = gap
    return errors, stats


_CHECKS = {
    "couple-rt": _check_couple_rt,
    "couple-sel": _check_couple_sel,
    "meanfield-rt": _check_meanfield,
    "picard-rt": _check_picard,
}


def expected_rows(name: str, config: dict) -> int:
    if name == "picard-rt":
        return config["run"]["max_iter"]
    if name == "meanfield-rt":
        return config["replicas"] * len(config["sample_times"]) * config["n_particles"]
    return len(config["run"]["sample_times"])


def load_reference() -> dict:
    """Reference estimates of the seed code, written by ``make_reference.py``."""
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def compare(name: str, stats: dict, n_units: int, reference: dict) -> list[str]:
    """Estimates outside ``TOLERANCE_SE`` standard errors of the reference.

    The reference gives, per statistic, the mean and the standard deviation
    of one replica's value over ``n`` reference replicas; an estimate that
    averages ``n_units`` replicas has standard error ``sd / sqrt(n_units)``.
    """
    errors = []
    for key, ref in reference.get(name, {}).items():
        if key not in stats:
            errors.append(f"{key}: missing from the output")
            continue
        se = ref["sd"] * math.sqrt(1.0 / n_units + 1.0 / ref["n"])
        gap = abs(stats[key] - ref["mean"])
        if gap > TOLERANCE_SE * se + 1e-9:
            errors.append(
                f"{key}: {stats[key]:.6g} is {gap / max(se, 1e-300):.1f} SE "
                f"from the reference {ref['mean']:.6g}"
            )
    return errors


def compare_pooled(name: str, config: dict, unit_stats: list[dict],
                   reference: dict) -> list[str]:
    """``compare`` on the mean of each statistic over independent units.

    One unit of ``couple-sel`` or ``meanfield-rt`` is a single replica, so
    its own check only catches a gross change of law; pooled over a run's
    units the tolerance narrows by the square root of their number.
    """
    if not unit_stats:
        return []
    pooled = {
        key: sum(stats[key] for stats in unit_stats) / len(unit_stats)
        for key in reference.get(name, {})
        if all(key in stats for stats in unit_stats)
    }
    n_units = reference_units(name, config) * len(unit_stats)
    return [f"pooled over {len(unit_stats)} units: {e}"
            for e in compare(name, pooled, n_units, reference)]


def reference_units(name: str, config: dict) -> int:
    """Replicas averaged into one estimate of ``check``'s statistics."""
    if name == "picard-rt":
        return 1
    return units(name, config)


def check(name: str, config: dict, out_dir: str, reference: dict | None) -> dict:
    """Validate the CSV a run wrote; returns errors, statistics and its sha256."""
    workload = WORKLOADS[name]
    path = pathlib.Path(out_dir) / workload.csv_name
    if not path.is_file():
        return {"errors": [f"no output file {workload.csv_name}"], "stats": {}}
    rows, errors = _read_csv(path, workload.header)
    stats: dict = {}
    if not errors:
        want = expected_rows(name, config)
        if len(rows) != want:
            errors.append(f"{len(rows)} rows, expected {want}")
        try:
            more, stats = _CHECKS[name](rows, config)
        except (KeyError, TypeError, ValueError) as exc:
            more = [f"unreadable row: {exc!r}"]
        errors.extend(more)
    if not errors and reference is not None:
        errors.extend(compare(name, stats, reference_units(name, config), reference))
    return {
        "errors": errors,
        "stats": stats,
        "csv_bytes": path.stat().st_size,
        "csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }

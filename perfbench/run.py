"""The mfjump benchmark: one command, four workloads, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload couple-rt --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload in fresh child interpreters, one after the
other, while the next one is expected to end within ``--seconds`` (at least
``MIN_UNITS`` of them), and reports the median set-up time, replicas per
second (scaled by a host-speed probe, see ``end_to_end``) and peak resident
memory over the runs that passed their output checks.  ``--trace 1`` runs the
workload in this process, alternating an untraced and a traced run on the
same inputs for ``--seconds``, and reports the per-layer metrics of the
traced runs and the tracing overhead.  ``--workload all`` runs every
workload in turn.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
units fail their output checks, or whose estimates pooled over its units
miss the reference, reads ``"correct": false`` and exits with code 1; if
every unit failed, its metrics read 0.  Each run's full record
(environment stamp, every unit, spans) is also written under
``perfbench/_work/results``.  The metric names and units are those of
``BENCHMARK.json``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import functools
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer as tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = workloads.ROOT
WORK = HERE / "_work"

#: Fewest runs whose median a result reports, however short ``--seconds``.
MIN_UNITS = 3
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 100.0
#: Iterations of the host-speed probe, and the probe time that rates are
#: scaled to: a round figure near what the probe took on the 2-vCPU x86-64
#: VM the benchmark was tuned on.
PROBE_LOOPS = 100_000
PROBE_NOMINAL_S = 0.1


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this script reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    """Commit, interpreter, numpy, cores and load of the machine running this."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The loop does what the simulators do most (tuples, dict updates, float
    arithmetic, rounding) and uses nothing of the program, so its time
    follows only the speed the host lends this process at the moment.  On a
    shared host that speed moves by a third for minutes at a time, and
    set-up and run times move with it.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_LOOPS):
        state = (i * 0.001, i & 1)
        key = (round(state[0] % 1.0, 9), state[1])
        table[key] = table.get(key, 0.0) + state[0] * 1.5
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics from child processes.
# ---------------------------------------------------------------------------


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``, killed after ``timeout`` seconds; returns its own rusage
    (not that of all children reaped, as ``RUSAGE_CHILDREN`` would)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(name: str, seed: int, unit: int, scratch: pathlib.Path, reference) -> dict:
    """One timed run of the workload in a fresh interpreter."""
    config, program_seed = workloads.generate(name, seed, unit)
    directory = scratch / f"unit{unit}"
    directory.mkdir()
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = directory / "out"
    timing_path = directory / "timing.json"
    env = {k: v for k, v in os.environ.items() if k not in ("MFJUMP_LOG", "PYTHONPATH")}
    with open(directory / "stderr.txt", "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), name, str(config_path),
             str(out_dir), str(program_seed), str(timing_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
            env=env, cwd=ROOT,
        )
        usage = _wait(proc, CHILD_TIMEOUT_S)
    record = {"unit": unit, "program_seed": program_seed, "exit_code": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0 or not timing_path.is_file():
        tail = (directory / "stderr.txt").read_text(errors="replace").strip().splitlines()
        record["errors"] = [f"exit code {proc.returncode}: {tail[-1] if tail else ''}"]
        return record
    timing = json.loads(timing_path.read_text())
    record["setup_s"] = timing["ready"] - spawned
    record["run_s"] = timing["end"] - timing["ready"]
    record["wall_replicas_per_s"] = workloads.units(name, config) / record["run_s"]
    record.update(workloads.check(name, config, str(out_dir), reference))
    return record


def end_to_end(name: str, seed: int, seconds: int, reference):
    """Median end-to-end metrics over units run in child processes.

    A host probe runs before the first unit and after each one.  A unit's
    ``replicas_per_s`` is its wall-clock rate scaled to a host on which the
    probe takes ``PROBE_NOMINAL_S``, by the mean of the two probes around
    it; the wall-clock rate stays in the record.  ``setup_s`` is wall-clock:
    import time follows the probe only about half as much as compute does.
    """
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    records = []
    try:
        deadline = time.monotonic() + seconds
        last = 0.0
        probes = [host_probe()]
        while len(records) < MIN_UNITS or time.monotonic() + last < deadline:
            started = time.monotonic()
            record = run_child(name, seed, len(records), scratch, reference)
            probes.append(host_probe())
            last = time.monotonic() - started
            records.append(record)
            if not record["errors"]:
                speed = PROBE_NOMINAL_S / statistics.fmean(probes[-2:])
                record["host_speed"] = speed
                record["replicas_per_s"] = record["wall_replicas_per_s"] / speed
            status = "ok" if not record["errors"] else "FAILED " + "; ".join(record["errors"])
            print(f"  unit {record['unit']}: setup_s={record.get('setup_s', 0):.4f} "
                  f"replicas_per_s={record.get('replicas_per_s', 0):.3f} "
                  f"peak_rss_mb={record['peak_rss_mb']:.1f} "
                  f"(wall {record.get('wall_replicas_per_s', 0):.3f} 1/s at host "
                  f"speed {record.get('host_speed', 0):.3f}) "
                  f"sha256={record.get('csv_sha256', '-')[:12]} {status}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    good = [r for r in records if not r["errors"]]
    metrics = {
        m["name"]: {"value": _median([r[m["name"]] for r in good]), "unit": m["unit"]}
        for m in spec()["end_to_end"]
    }
    return metrics, records, {}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from traced runs in this process.
# ---------------------------------------------------------------------------


def run_in_process(name: str, seed: int, unit: int, scratch: pathlib.Path,
                   reference, tracer=None) -> dict:
    """One run in this process, traced when a tracer is given."""
    config, program_seed = workloads.generate(name, seed, unit)
    directory = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = directory / "out"
    scope = tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            prepared = workloads.prepare(name, str(config_path))
            workloads.execute(name, prepared, str(config_path), str(out_dir), program_seed)
    except Exception as exc:  # a failing program is reported, not fatal
        return {"unit": unit, "errors": [f"{type(exc).__name__}: {exc}"]}
    wall = time.perf_counter() - start
    record = {"unit": unit, "wall_s": wall}
    record.update(workloads.check(name, config, str(out_dir), reference))
    shutil.rmtree(directory, ignore_errors=True)
    return record


def per_layer(name: str, seed: int, seconds: int, reference):
    """Median per-layer metrics over traced units, and the tracing overhead."""
    workloads.use_source_tree()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-trace-", dir=WORK))
    records, layers, spans, absent = [], [], [], []
    try:
        deadline = time.monotonic() + seconds
        unit, last = 0, 0.0
        while unit == 0 or time.monotonic() + last < deadline:
            started = time.monotonic()
            plain = run_in_process(name, seed, unit, scratch, reference)
            tracer = tracing.Tracer()
            traced = run_in_process(name, seed, unit, scratch, reference, tracer)
            traced["traced"] = True
            last = time.monotonic() - started
            records += [plain, traced]
            if not traced["errors"]:
                metrics = tracing.layer_metrics(tracer, traced["wall_s"])
                is_cli = workloads.WORKLOADS[name].kind is not None
                metrics["cli.csv_bytes"] = traced["csv_bytes"] if is_cli else 0
                layers.append(metrics)
                spans = tracer.spans()
                absent = tracer.absent
            print(f"  unit {unit}: untraced {plain.get('wall_s', 0):.3f} s, "
                  f"traced {traced.get('wall_s', 0):.3f} s, "
                  f"errors {plain['errors'] + traced['errors']}", flush=True)
            unit += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    walls = {flag: [r["wall_s"] for r in records
                    if not r["errors"] and r.get("traced", False) == flag]
             for flag in (False, True)}
    overhead = _median(walls[True]) - _median(walls[False])
    for note in absent:
        print(f"  absent: {note}")
    metrics = {}
    for m in spec()["per_layer"]:
        if m["name"] == "trace.overhead_s":
            value = overhead
        else:
            value = _median([layer[m["name"]] for layer in layers])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, records, {"spans": spans, "absent": absent}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: int, reference) -> dict:
    why = {w["name"]: w["why"] for w in spec()["workloads"]}[name]
    print(f"== {name} (seed {seed}, {seconds} s, trace {trace}): {why}", flush=True)
    stamp = environment()
    measure = per_layer if trace else end_to_end
    metrics, records, extra = measure(name, seed, seconds, reference)
    stamp["loadavg_end"] = os.getloadavg()
    failed = sum(1 for r in records if r["errors"])
    # Traced runs repeat the inputs of the untraced ones, so only the
    # untraced units are independent.
    passing = [r["stats"] for r in records if not r["errors"] and not r.get("traced")]
    pooled_errors = workloads.compare_pooled(
        name, workloads.generate(name, seed, 0)[0], passing, reference)
    for error in pooled_errors:
        print(f"  FAILED {error}")
    if failed == len(records):
        print(f"  every run of {name} failed; its metrics read 0")
    print(f"  env {json.dumps(stamp)}")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  error_rate = {failed / len(records):.6g} fraction "
          f"({failed}/{len(records)} runs)")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    WORK.joinpath("results", f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "env": stamp, "metrics": metrics, "pooled_errors": pooled_errors,
                    "runs": records, **extra}, indent=1)
    )
    return {"correct": failed == 0 and not pooled_errors, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SOURCE / "mfjump" / "__init__.py").is_file():
        print(f"benchmark: no program source under {workloads.SOURCE}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(workloads.SOURCE), quiet=1)
    reference = workloads.load_reference()
    if not reference:
        print(f"benchmark: no reference estimates in {workloads.REFERENCE}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, reference)
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

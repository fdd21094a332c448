"""Write ``reference.json``: the estimates the output checks compare against.

Usage: ``python3 perfbench/make_reference.py [WORKLOAD ...]``

For each workload this runs ``RUNS`` independent inputs (seeds the
benchmark itself does not use) in this process and records, per statistic
that ``workloads.check`` reads off the CSV, the mean over runs and the
standard deviation of one replica's value.  Rerun it only on purpose: when a
workload's size changes, or when a change to the program deliberately
re-baselines how random numbers are used.  Record why in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import tempfile

import workloads

#: Inputs of the reference runs; the benchmark's own seeds are far smaller.
SEED_BASE = 1_000_000
#: Independent runs per workload behind each reference estimate.
RUNS = 40


def reference_for(name: str, scratch: pathlib.Path) -> dict:
    values: dict[str, list] = {}
    replicas = None
    for k in range(RUNS):
        config, program_seed = workloads.generate(name, SEED_BASE + k, 0)
        directory = pathlib.Path(tempfile.mkdtemp(dir=scratch))
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(config))
        prepared = workloads.prepare(name, str(config_path))
        workloads.execute(name, prepared, str(config_path), str(directory / "out"),
                          program_seed)
        result = workloads.check(name, config, str(directory / "out"), None)
        if result["errors"]:
            raise SystemExit(f"{name} reference run {k} failed: {result['errors']}")
        for key, value in result["stats"].items():
            values.setdefault(key, []).append(value)
        replicas = workloads.reference_units(name, config)
        print(f"{name} run {k}: {result['stats']}", flush=True)
    return {
        key: {
            "mean": statistics.fmean(vals),
            "sd": statistics.stdev(vals) * math.sqrt(replicas),
            "n": len(vals) * replicas,
        }
        for key, vals in values.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    workloads.use_source_tree()
    reference = workloads.load_reference()
    work = pathlib.Path(__file__).resolve().with_name("_work")
    work.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    try:
        for name in args.names:
            reference[name] = reference_for(name, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

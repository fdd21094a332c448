"""One timed run of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py WORKLOAD CONFIG OUT_DIR SEED TIMING_JSON``

Set-up (import, config parse, model build) ends at ``ready``, which
``workloads.execute`` signals; the run (simulate, reduce, write) ends at
``end``.  Both are ``time.monotonic`` readings, which share one clock with
the parent that started this process, so the parent can time set-up from the
moment it spawned the interpreter.
"""

import json
import pathlib
import sys
import time

import workloads


def main() -> None:
    name, config_path, out_dir, seed, timing_path = sys.argv[1:6]
    workloads.use_source_tree()
    prepared = workloads.prepare(name, config_path)
    ready = []
    workloads.execute(name, prepared, config_path, out_dir, int(seed),
                      on_ready=lambda: ready.append(time.monotonic()))
    end = time.monotonic()
    pathlib.Path(timing_path).write_text(json.dumps({"ready": ready[0], "end": end}))


if __name__ == "__main__":
    main()

"""graphonlab benchmark: end-to-end and per-layer metrics of graphonlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; graphonlab is imported from its
``src`` directory.  Every measurement is made in a fresh, single-threaded
interpreter (``worker.py``) started from this process.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median,
over ten fresh interpreters, of the time from starting the interpreter to
having the workload's inputs built; the last of them then repeats whole
rounds of the workload for about S seconds.  ``wall_s`` is the mean round
time: the host's slow spells can outlast a run, and the mean over the whole
run averages them as well as a run can.  ``peak_rss_mb`` is the worker's
peak resident set when its first round ends, before any check runs.

``--trace 1`` runs one round of every workload with spans around the
public functions of graphonlab's modules and reports the per-layer
metrics; the spans go to ``.bench_out/`` at the checkout root.

The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every worker
finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "sparse_growth", "dense_motifs", "certified_distances")
SETUP_SAMPLES = 10
TIME_LIMIT = 170.0  # seconds for all workers of one run

# One BLAS thread and a fixed hash seed, so runs differ only by their inputs.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def worker(args, mode, deadline):
    """Run one worker to its end; return its result and its start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", os.path.join(ROOT, ".bench_out")]
    env = dict(os.environ, **WORKER_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} worker for {args.workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{mode} worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed: makes every input (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to repeat rounds (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphonlab", "__init__.py")):
        sys.exit(f"no graphonlab source under {os.path.join(ROOT, 'src')}: run from a source checkout")

    deadline = time.monotonic() + TIME_LIMIT
    if args.trace:
        res, _ = worker(args, "trace", deadline)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            res, started = worker(args, "setup", deadline)
            setups.append(res["ready"] - started)
        res, started = worker(args, "body", deadline)
        setups.append(res["ready"] - started)
        metrics = {
            "wall_s": {"value": statistics.fmean(res["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"rounds: {' '.join(f'{r:.3f}' for r in res['rounds'])}  "
              f"setups: {' '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
    for problem in res["unexpected"]:
        print(f"FAILED CHECK {problem}", file=sys.stderr)
    print(json.dumps({"correct": not res["unexpected"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

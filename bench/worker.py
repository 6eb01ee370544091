"""One benchmark process: imports graphonlab, builds a workload's inputs and,
unless only set-up is measured, runs the workload.  ``run.py`` starts it
and reads the JSON object it prints last.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode setup|body|trace --out DIR

``setup`` stops once the inputs are built.  ``body`` repeats whole rounds of
the workload for about S seconds, checking each round's outputs.  ``trace``
runs one round of every workload with spans around graphonlab's public
functions and writes the spans to DIR.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import graphonlab  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _tally(workload, ops):
    """(attempted, failed, unexpected problems) of one round's checked operations."""
    failed, unexpected = 0, []
    for name, problems in ops:
        if problems:
            failed += 1
            if name not in workloads.KNOWN_FAULTS:
                unexpected += [f"{workload}/{name}: {p}" for p in problems]
    return len(ops), failed, unexpected


def run_body(name, seed, seconds):
    make_inputs, body, verify = workloads.WORKLOADS[name]
    inputs = make_inputs(seed)
    ready = time.monotonic()
    rounds, attempted, failed, unexpected = [], 0, 0, []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = body(inputs)
        rounds.append(time.perf_counter() - t0)
        if len(rounds) == 1:
            # A second round can raise the peak (sparse_growth: 393 against
            # 339 MB), so it is read once, before any check runs.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        a, f, u = _tally(name, verify(inputs, out))
        attempted, failed, unexpected = attempted + a, failed + f, unexpected + u
        del out
        gc.collect()
        if time.perf_counter() - start + rounds[-1] > seconds:
            break
    return {"ready": ready, "rounds": rounds, "attempted": attempted, "failed": failed,
            "unexpected": unexpected, "peak_rss_mb": peak_mb}


def run_traced(name, seed, out_dir):
    """One traced round of every workload; counts only ``name``'s operations."""
    tracer = spans.Tracer(spans.traced_functions(workloads.MOTIFS))
    attempted = failed = 0
    unexpected, sizes = [], {}
    for wl, (make_inputs, body, verify) in workloads.WORKLOADS.items():
        inputs = make_inputs(seed)
        tracer.install()
        try:
            with tracer.root(wl):
                out = body(inputs)
        finally:
            tracer.uninstall()
        a, f, u = _tally(wl, verify(inputs, out))
        unexpected += u
        if wl == name:
            attempted, failed = a, f
        if wl == "sparse_growth":
            sizes[wl] = workloads.sparse_sizes(out)
        elif wl == "dense_motifs":
            sizes[wl] = workloads.dense_sizes(out)
        del out
        gc.collect()
    all_spans = spans.annotate(tracer.spans)
    layers = spans.layer_metrics(
        all_spans, graphonlab.experiments.experiment_names(), workloads.SWEEP_HORIZONS,
        workloads.MOTIFS, "sparse_growth", "dense_motifs")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "sizes": sizes,
                   "walls": {s["name"]: s["end"] - s["start"] for s in all_spans if s["parent"] is None},
                   "spans": all_spans}, fh)
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "layers": layers, "spans_file": path}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "body", "trace"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(graphonlab.__file__).startswith(src + os.sep):
        sys.exit(f"graphonlab was imported from {graphonlab.__file__}, not from {src}")
    if args.mode == "setup":
        workloads.WORKLOADS[args.workload][0](args.seed)
        result = {"ready": time.monotonic()}
    elif args.mode == "body":
        result = run_body(args.workload, args.seed, args.seconds)
    else:
        result = run_traced(args.workload, args.seed, args.out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

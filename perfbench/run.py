"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload with spans around the public calls of each layer plus
the layer suite (ablation ladder and same-run ratios) and reports
the per-layer metrics.  Human-readable details (host stamp, inputs,
simulated statistics, check results) come first; the last line of
standard output is the JSON result.  ``perfbench/METRICS.md`` defines
every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")

#: Set-up is timed this many times (after one untimed warm-up) in
#: fresh interpreters; the median is reported.
SETUP_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "sim_cycles_per_s": "cycles/s",
             "ops_per_s": "1/s", "peak_rss_mb": "MB",
             "ok_share": "fraction"}


def load_repro():
    """Put this checkout's ``src`` first on the path and import repro
    from it; refuse to run against any other copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: %s holds no repro package; run from "
                         "the root of a full checkout" % SRC)
    sys.path[:0] = [SRC, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from %s, not %s"
                         % (repro.__file__, SRC))


def references_for(seed):
    """Reference group -> the outputs recorded for *seed* (or None)."""
    from perfbench.workloads import WORKLOADS
    with open(REFERENCES) as fh:
        recorded = json.load(fh)
    found = {}
    for workload in WORKLOADS.values():
        key = workload.reference_key
        entry = recorded[key].get(str(seed))
        if entry is not None and \
                entry["inputs"] != comparable(workload.inputs(seed)):
            raise SystemExit("perfbench: references.json was recorded "
                             "for other %s inputs; re-record it" % key)
        found[key] = entry and entry["outputs"]
    return found


def comparable(inputs):
    """Inputs minus the host-dependent worker count."""
    return {key: value for key, value in inputs.items() if key != "jobs"}


def peak_rss_mb():
    """This process's peak RSS plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(name, seed):
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, probe, name, str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if attempt:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    from perfbench import stats
    return stats.median(times), times


def host_stamp(seed):
    import numpy
    from perfbench.workloads import NPROC
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "seed": seed}


def end_to_end(workload, inputs, ctx, seconds, seed, details):
    from perfbench.workloads import run_for
    gc.collect()
    samples = run_for(seconds, lambda index: workload.op(inputs, ctx, index),
                      workload.min_ops(inputs))
    metrics = workload.summarize(samples)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"], details["setup_samples_s"] = setup_seconds(
        workload.name, seed)
    metrics["ok_share"] = 1.0 - ctx.failed / max(1, ctx.attempted)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_repro()
    from perfbench import layers
    from perfbench.workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (available: %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    references = references_for(args.seed)
    work_dir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work_dir)
    ctx = Context(work_dir, references)
    details = {"workload": workload.name, "why": workload.why,
               "host": host_stamp(args.seed), "inputs": inputs,
               "reference": "recorded"
               if references[workload.reference_key] is not None
               else "none recorded for this seed; repeats checked "
                    "against each other only"}
    started = time.perf_counter()
    try:
        if args.trace:
            trace_path = os.path.join(
                OUT, "traces", "%s-seed%d.json" % (workload.name, args.seed))
            metrics = layers.traced_run(workload, inputs, ctx, args.seconds,
                                        args.seed, details, trace_path)
        else:
            metrics = end_to_end(workload, inputs, ctx, args.seconds,
                                 args.seed, details)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    details.update(
        wall_s=time.perf_counter() - started, simulated=ctx.sim,
        notes=ctx.notes, failures=ctx.failures,
        error_share=ctx.failed / max(1, ctx.attempted))
    print(json.dumps(details, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": ctx.failed == 0 and ctx.attempted > 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs the benchmark checks its runs against.

Usage, from the repository root::

    python3 perfbench/record_references.py --seeds 0-24

Each reference comes from an independent execution path of the same
inputs: the testbench runs interpreted and without telemetry; campaigns
run serially on the interpreted engine without journal or checkpoints;
fuzz campaigns run serially on the interpreted engine.  Re-record only
when the workload inputs change, never to absorb a change of simulated
behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from perfbench import run
    run.load_repro()
    from perfbench.workloads import WORKLOADS

    with open(run.REFERENCES) as fh:
        references = json.load(fh)
    work_dir = os.path.join(run.OUT, "references-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        groups = {}
        for workload in WORKLOADS.values():
            groups.setdefault(workload.reference_key, workload)
        for key, workload in groups.items():
            for seed in args.seeds:
                inputs = workload.inputs(seed)
                references[key][str(seed)] = {
                    "inputs": run.comparable(inputs),
                    "outputs": workload.reference(inputs, work_dir)}
                print("recorded %s seed %d" % (key, seed), flush=True)
                with open(run.REFERENCES, "w") as fh:
                    json.dump(references, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

"""Write the oracle's reference digests (reference.json).

    python3 perfbench/make_reference.py

Runs every input of every workload for each benchmark seed in SEEDS, and
the self-test's inputs of its shortened workloads, and files each output
digest under the workload's signature, replacing the whole file. Run it
at a commit whose outputs are the intended reference: a change that means
to alter output bytes regenerates the references and says so.
"""

import json
import os
import sys

import run

run.load_caco()

import oracle  # noqa: E402  (needs caco on the path)
import workloads  # noqa: E402

SEEDS = range(0, 31)  # the benchmark seeds whose inputs get a stored reference


def main() -> int:
    jobs = [(workload, seed, workload.inputs(seed))
            for workload in workloads.WORKLOADS.values() for seed in SEEDS]
    jobs += [(brief, workloads.SELFTEST_SEED, workloads.selftest_inputs(brief))
             for brief in map(workloads.shortened, workloads.WORKLOADS.values())]
    found: dict[str, dict[str, str]] = {}
    out = run.WORK / f"reference-{os.getpid()}"
    try:
        for workload, seed, inputs in jobs:
            table = found.setdefault(workload.signature, {})
            for seeds in inputs:
                oracle.clear(out)
                workloads.run_rep(workload, seeds, out)
                table[oracle.input_key(seeds)] = oracle.digest(out)
            print(f"{workload.name} {workload.overrides} seed {seed}: done", flush=True)
    finally:
        run.remove_work_dir(out)
    oracle.REFERENCE.write_text(json.dumps(found, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

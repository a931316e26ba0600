"""Record the reference outputs that ``run.py`` checks cycle 0 against.

Runs cycle 0 of every workload for each seed, checks the invariants, and
writes the output fingerprints to ``bench/reference.json``. Run it only at a
commit whose outputs are the reference (the references in the repository
were recorded at the commit that added the benchmark):

    python3 bench/record_reference.py --seeds 0-19
"""

import argparse
import json
import shutil
import sys

import run
from workloads import WORKLOADS, setup_files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-19")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    crcsec = run.import_program()
    reference: dict[str, dict[str, dict]] = {w: {} for w in WORKLOADS}
    for workload in WORKLOADS:
        for seed in seeds:
            work = run.WORK / f"reference-{workload}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            setup_files(workload, seed, work / "inputs")
            loop = run.Loop(crcsec, workload, seed, work, None)
            records = loop.cycle(0)
            shutil.rmtree(work, ignore_errors=True)
            if loop.failures:
                print("\n".join(loop.failures), file=sys.stderr)
                return 1
            reference[workload][str(seed)] = {r["job"]: r["fingerprint"] for r in records}
            print(f"{workload} seed {seed}: {len(records)} jobs", flush=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

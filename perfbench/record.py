"""Record the stored reference outputs: every workload once at the default seed.

    python3 perfbench/record.py

Writes reference/<workload>/<output file>.gz. Run it only on a commit whose
outputs are known to be right; run.py compares every sample at the default
seed against these files.
"""

import gzip
import sys

from run import REFERENCE, WORK, check, spawn
from workloads import DEFAULT_SEED, WORKLOADS, config_text


def main():
    for workload in WORKLOADS.values():
        work = WORK / "record" / workload.name
        work.mkdir(parents=True, exist_ok=True)
        config = workload.config(DEFAULT_SEED)
        config_path = work / "config.yaml"
        config_path.write_text(config_text(config))
        sample = spawn(workload, "untraced", config_path, work / "out")
        if not check(sample, config["steps"], None):
            print(f"record: {workload.name}: {sample.problem}", file=sys.stderr)
            return 1
        folder = REFERENCE / workload.name
        folder.mkdir(parents=True, exist_ok=True)
        for name, data in sample.outputs.items():
            (folder / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))
        print(f"recorded {workload.name}: {sample.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

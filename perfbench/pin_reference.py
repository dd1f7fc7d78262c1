"""Write ``reference_seed0.json``: the answers the default seed must give.

For every workload and every input of its seed-0 pool this records the
verdicts and grand values (or boundary thresholds, or CLI verdicts)
that runs with ``--seed 0`` are compared against.  Rewrite it only for
a change that is meant to alter answers, and review the diff.

    python3 perfbench/pin_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker


def main() -> int:
    os.environ.update(worker.PINNED_ENV)
    sys.path[:0] = [str(worker.ROOT / "src"), str(worker.HERE)]
    from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS

    pinned = {}
    for name in WORKLOADS:
        workdir = worker.WORK / f"pin-{name}"
        try:
            wl, gate = worker.setup(name, DEFAULT_SEED, workdir)
            if gate:
                print(f"{name}: warm-up check failed: {gate}", file=sys.stderr)
                return 1
            pinned[name] = []
            for i in range(len(wl.inputs)):
                result = wl.record(i, wl.run(i))
                problems = wl.validate(i, result)
                if problems:
                    print(f"{name} input {i}: {problems}", file=sys.stderr)
                    return 1
                pinned[name].append(wl.pin(i, result))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

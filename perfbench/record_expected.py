"""Re-record expected.json: the golden-seed canary verdicts of every workload.

Only a change that deliberately alters verdict values should re-record, and
its diff of expected.json shows which values moved.  Run from the repository
root:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.bootstrap()
    import checks
    import workloads

    blocks = []
    with run.work_dir("record") as work:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workloads.GOLDEN_SEED, work)
            workload.setup()
            rows = ",\n".join(f"  {json.dumps(row)}" for row in workload.canary())
            blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    checks.EXPECTED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

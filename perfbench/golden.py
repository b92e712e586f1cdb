"""Record the digests the symbolic workloads check their reports against.

    PYTHONPATH=src python3 perfbench/golden.py

The digests are sha256 of each report serialized without ``runtime_info``,
and of each report item.  They were recorded on the commit that introduced
the benchmark; re-record them only when a change to the reports is intended.
"""

import json
import sys

from workloads import GOLDEN_PATH, golden_entries


def main() -> int:
    golden = {**golden_entries("tiny"), **golden_entries("full")}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} report digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

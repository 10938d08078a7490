"""Regenerate ``expected.json``: report digests for the pinned seeds.

Usage::

    python3 benchmarks/suite/pin.py

Runs every (experiment, seed) the workloads produce at the pinned seeds
on the reference backend — the oracle — and writes their sha256
digests.  Rerun it only when a change is meant to alter a report.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED
from workloads import SRC, WORKLOADS, expect

#: 1988 is the default seed; 2024 is held out for checking a claimed gain.
PINNED_SEEDS = (1988, 2024)


def main() -> int:
    sys.path.insert(0, str(SRC))
    digests: dict[str, str] = {}
    for seed in PINNED_SEEDS:
        for workload in WORKLOADS.values():
            digests.update(expect(workload, seed, "reference")["digests"])
    document = {
        "backend": "reference",
        "seeds": list(PINNED_SEEDS),
        "digests": dict(sorted(digests.items())),
    }
    EXPECTED.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

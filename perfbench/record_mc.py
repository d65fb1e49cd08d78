"""Record the MC catalogue's exact results into mc_reference.json.

Run from the repository root with ``python3 perfbench/record_mc.py``.  The
benchmark checks every MC output bit for bit against this file, so record
it again only when an MC estimate is meant to change, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402

import jobs  # noqa: E402
import oracles  # noqa: E402


def main() -> int:
    cases = jobs.mc_catalogue()
    for case in cases:
        case["expect"] = oracles.mc_record(jobs.mc_job(case).call())
    doc = {
        "recorded_with": {"python": sys.version.split()[0], "numpy": numpy.__version__},
        "cases": cases,
    }
    jobs.MC_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(cases)} cases into {jobs.MC_REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate expected.json: the mutated workload's pinned witnesses.

Run from the repository root:  python3 perfbench/pin.py

The file pins what the program printed when the benchmark was defined.
Located witnesses must not change, so a change that alters these outputs
is a behaviour change, not a reason to re-pin.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from toric_exc.cli import main  # noqa: E402

from workloads import ADD, EXPECTED_PATH, SWAP, violations_digest  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    if code != 1:
        raise SystemExit(f"{argv} exited {code}, expected a failed check")
    return json.loads(out.getvalue())["violations"]


def pin() -> dict:
    swap = run(["verify", "--dim", "8", "--mutate", SWAP])
    # The add mutation's command samples pairs by seed, so pin the whole
    # flat sweep and let each seed select its pairs from it.
    add = run(["verify", "--dim", "6", "--method", "oracle", "--mutate", ADD,
               "--allow-large"])
    return {
        "swap": {"count": len(swap), "first": swap[0],
                 "sha256": violations_digest(swap)},
        "add": {"violations": {f"{v['source']},{v['target']}":
                               [v["relation"], v["detail"]] for v in add}},
    }


if __name__ == "__main__":
    EXPECTED_PATH.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")

"""The benchmark's workloads and the checks behind its failure count.

Every command is a `toric-exc` argv exactly as a user would type it,
together with the exit code and JSON fields the seed program printed for
it. The mutated workload's witnesses are pinned in expected.json (see
pin.py).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("oracle-n8", "forbidden-n6", "certify", "mutated")
SWAP = "swap:0,600"
ADD = "add:1,0-1-2"

# What setup_s builds for each workload: (n, mutation or None).
SETUP = {
    "oracle-n8": [(8, None)],
    "forbidden-n6": [(6, None)],
    "certify": [(8, None)],
    "mutated": [(8, SWAP), (6, ADD)],
}


@dataclass(frozen=True)
class Command:
    argv: list[str]
    exit_code: int
    fields: dict  # payload fields that must match exactly
    pinned: dict | None = None  # count, first and digest of the violations


def _verify(*args, code=0, pinned=None, **fields) -> Command:
    return Command(["verify", *args, "--format", "json"], code, fields, pinned)


def _sweep(n, method, size, pairs, sampled, ok, **fields):
    expected = {6: 140, 8: 630}[n]
    return dict(what="exceptional", n=n, ok=ok, method=method, size=size,
                expected=expected, complete=size == expected, pairs_checked=pairs,
                sampled=sampled, **fields)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands in the order they run."""
    s = str(seed)
    if workload == "oracle-n8":
        return [_verify("--dim", "8", "--method", "oracle", "--sample", "100", "--seed", s,
                        **_sweep(8, "oracle", 630, 100, True, True, violations=[]))]
    if workload == "forbidden-n6":
        return [_verify("--dim", "6", "--method", "forbidden", "--sample", "100", "--seed", s,
                        **_sweep(6, "forbidden", 140, 100, True, True, violations=[]))]
    if workload == "certify":
        return [
            _verify("--dim", "8",
                    **_sweep(8, "inequalities", 630, 396270, False, True, violations=[])),
            _verify("--dim", "8", "--what", "stability", ok=True, failures=[]),
            _verify("--dim", "8", "--what", "cardinality", ok=True, size=630, expected=630),
            _verify("--dim", "8", "--what", "generation", ok=True, walls=256, pieces=630,
                    base_case="empty"),
            _verify("--dim", "6", "--what", "walls", ok=True, circuits=135, pairs=7,
                    sign_choices=128),
        ]
    if workload == "mutated":
        expected = json.loads(EXPECTED_PATH.read_text())
        table = expected["add"]["violations"]
        add_violations = [
            {"source": i, "target": j, "relation": table[f"{i},{j}"][0], "ok": False,
             "detail": table[f"{i},{j}"][1]}
            for i, j in sample_pairs(141, 500, seed) if f"{i},{j}" in table]
        return [
            _verify("--dim", "8", "--mutate", SWAP, code=1, pinned=expected["swap"],
                    **_sweep(8, "inequalities", 630, 396270, False, False)),
            _verify("--dim", "6", "--method", "oracle", "--mutate", ADD,
                    "--sample", "500", "--seed", s, code=1,
                    **_sweep(6, "oracle", 141, 500, True, False,
                             violations=add_violations)),
        ]
    raise KeyError(workload)


def sample_pairs(size: int, count: int, seed: int):
    """The ordered pairs `verify --sample count --seed seed` grades.

    An independent copy of the command's sampling, so a change to which
    pairs get checked shows up as a failed check. The add mutation's
    witnesses are the seed's pairs that violate in the pinned flat sweep.
    """
    rng = random.Random(seed)
    pairs = []
    for p in rng.sample(range(size * (size - 1)), count):
        i, r = divmod(p, size - 1)
        pairs.append((i, r + (r >= i)))
    return pairs


def violations_digest(violations) -> str:
    text = json.dumps(violations, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(command: Command, exit_code, stdout: str) -> list[str]:
    """Problems with one command's result; an empty list means correct."""
    problems = []
    if exit_code != command.exit_code:
        problems.append(f"exit code {exit_code}, expected {command.exit_code}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON payload"]
    if not isinstance(payload, dict) or payload.get("schema") != "toric-exc/report/1":
        return problems + ["payload is not a toric-exc/report/1 object"]
    for name, value in command.fields.items():
        if payload.get(name) != value:
            problems.append(f"{name} = {payload.get(name)!r:.80}, expected {value!r:.80}")
    if command.pinned is not None:
        got = payload.get("violations") or []
        summary = {"count": len(got), "first": got[0] if got else None,
                   "sha256": violations_digest(got)}
        wrong = [k for k in summary if summary[k] != command.pinned[k]]
        if wrong:
            problems.append(f"violations differ from the pinned ones in {wrong}")
    return problems

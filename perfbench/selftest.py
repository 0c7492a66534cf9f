"""Tiny-size self-test of the benchmark: each workload runs two rotations,
untraced and traced, twice with one seed.  Every metric named in
BENCHMARK.json must be emitted, the checks must pass, and the op counts,
failure and refusal counts, correctness shares and per-layer counts must
repeat exactly.

    python3 perfbench/selftest.py

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from suite import HERE, WORKLOADS, run

SEED = 3
ROTATIONS = 2  # the traced mode traces every second rotation
TIMED_UNITS = {"ms", "ms/op", "s", "1/s", "MB"}


def _deterministic(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in TIMED_UNITS and name != "trace.overhead_ratio"
    }


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace, names in expected.items():
            (a, da), (b, db) = (run(workload, SEED, 1, trace, ROTATIONS) for _ in range(2))
            where = f"{workload} trace={trace}"
            if set(a["metrics"]) != names:
                diff = sorted(set(a["metrics"]) ^ names)
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {diff}")
            if not (a["correct"] and b["correct"]):
                problems.append(f"{where}: checks failed: {da['check_notes']}")
            for key, x, y in (
                ("attempted", a["attempted"], b["attempted"]),
                ("failed", a["failed"], b["failed"]),
                ("refused", da["refused"], db["refused"]),
                ("shares", da["shares"], db["shares"]),
                ("by_input", da["by_input"], db["by_input"]),
                ("counts", _deterministic(a), _deterministic(b)),
            ):
                if x != y:
                    problems.append(f"{where}: {key} not reproduced: {x} != {y}")
            print(
                f"{where}: {a['attempted']} ops, {a['failed']} failed, {da['refused']} refused",
                flush=True,
            )
    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

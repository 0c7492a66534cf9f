"""Run every workload untraced and traced, and print each metric by name with
its unit and sample count, the correctness shares and the check result.

    python3 perfbench/suite.py --seed 0 --seconds 30 [--out perfbench/baseline.json]

Run from the root of a source checkout.  `--out` also writes every result
line and detail record as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("shots_protocol", "exact_sweep", "circuit_oracle")
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int, seconds: float, trace: int, rotations: int | None = None):
    """One run.py invocation; returns its result line and detail record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    if rotations is not None:
        cmd += ["--rotations", str(rotations)]
    proc = subprocess.run(
        cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _print(workload: str, mode: str, result: dict, detail: dict) -> None:
    n = detail["traced_ops"] if detail["trace"] else detail["ops"]
    print(
        f"{workload} [{mode}]  seed {detail['env']['seed']}  correct={result['correct']}  "
        f"failed {result['failed']}/{result['attempted']}  refused {detail['refused']}  "
        f"samples {n} ops  wall {detail['loop_wall_s']:.1f} s"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in detail["shares"].items():
        if name not in result["metrics"]:
            print(f"  {name:<40} {value:>14.6g} share")
    if detail["check_notes"]:
        print(f"  failed checks: {detail['checks_failed']}, first: {detail['check_notes']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", default=None, help="write all results to this JSON file")
    args = p.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        for trace, mode in ((0, "untraced"), (1, "traced")):
            result, detail = run(workload, args.seed, args.seconds, trace)
            _print(workload, mode, result, detail)
            results.setdefault(workload, {})[mode] = {"result": result, "detail": detail}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": results}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

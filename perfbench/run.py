"""pptnet benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload shots_protocol --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pptnet is imported from `src/`.  The
run builds the workload's inputs, runs one untimed warm-up op and then issues
ops back to back, each after the previous one returned, until `--seconds` of
wall time have passed, finishing the rotation in progress.  Each op is checked
against an exact reference right after it is timed.  Between rotations, spread
over the run, SETUP_PROBES fresh interpreters each import pptnet, build the
inputs, run one op and exit; `setup_s` is the median of their scaled CPU
time.

Op times are CPU time of this process (one thread, BLAS pinned to one
thread), which for this CPU-bound client equals wall time on an idle machine
but leaves out the time a shared host takes the CPU away.  The end-to-end
metrics scale them by the host-speed reference of speed.py, timed between
ops, so that a host that drifts slower or faster mid-run does not move them.
Raw CPU and wall-clock figures are reported in the detail record.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` rotations alternate between untraced and traced (see tracer.py),
and the last line carries the per-layer metrics of the traced ops, the
correctness shares and `trace.overhead_ratio`, the traced over the untraced
median op time.  The line before the last is a JSON detail record:
environment, sample counts, wall-clock figures, correctness shares per input
kind and the first failed checks.

In the result line `failed` counts ops whose output failed a check, and
`correct` is true when there are none.  An op that pptnet refused (it raised
EstimationError, or the CLI exited 2 after a failed recovery) still has its
partial output checked; refusals are a measured defect, reported as
`failed_share` and in the detail record, not as failed ops.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("shots_protocol", "exact_sweep", "circuit_oracle")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# One BLAS thread keeps CPU time equal to the op's own work on a shared
# machine; the variables must be set before numpy is first imported, and the
# set-up probes inherit them.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--rotations",
        type=int,
        default=None,
        help="run exactly this many rotations instead of timing by --seconds",
    )
    return p.parse_args(argv)


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _probe_setup(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """CPU and wall seconds of a fresh interpreter that imports pptnet, builds
    the inputs, finishes one op and exits."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(SCRATCH)]
    cpu0, t0 = _cpu_children(), perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {rc})")
    return _cpu_children() - cpu0, perf_counter() - t0


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _share(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _shares(outcomes) -> dict[str, float]:
    """failed: ops that pptnet refused (EstimationError, or exit 2), of all ops;
    unsound: ops on exactly-PPT states reported NPT_ENTANGLED, of those ops;
    verdict_mismatch: completed verdict ops whose classification differs from
    the exact one, of those ops."""

    def count(flag: str) -> int:
        return sum(getattr(o, flag) for o in outcomes)

    return {
        "failed_share": _share(count("refused"), len(outcomes)),
        "unsound_share": _share(count("unsound"), count("on_ppt")),
        "verdict_mismatch_share": _share(count("mismatched"), count("judged")),
    }


def _by_input(labels, outcomes) -> dict[str, list[int]]:
    """[ops, refused, unsound, mismatched] per input kind (instance index dropped)."""
    table = defaultdict(lambda: [0, 0, 0, 0])
    for label, o in zip(labels, outcomes):
        row = table[re.sub(r"#\d+", "", label)]
        for i, hit in enumerate((True, o.refused, o.unsound, o.mismatched)):
            row[i] += hit
    return dict(table)


def _measure(args, wl, tracer, probe, speed) -> dict:
    """Closed loop.  Between ops, at most every speed.REF_EVERY_S seconds,
    the host-speed kernel is timed.  The set-up probes run between
    rotations, spread over the run; their wall time does not count against
    --seconds.  Returns per-op CPU and wall seconds and start times, traced
    flags, labels and outcomes, the kernel samples, the probe samples, the
    loop's own CPU and wall seconds and the peak RSS."""
    keys = ("cpu", "wall", "start", "traced", "labels", "outcomes", "ref", "setups")
    m = {key: [] for key in keys}
    probe_wall = 0.0
    cpu_start, wall_start = process_time(), perf_counter()
    r = 0

    def progress() -> float:
        if args.rotations is not None:
            return r / args.rotations
        return (perf_counter() - wall_start - probe_wall) / args.seconds

    def sample_speed(every: float) -> None:
        if not m["ref"] or perf_counter() - m["ref"][-1][0] >= every:
            m["ref"].append((perf_counter(), speed.kernel()))

    def run_probe() -> float:
        t0 = perf_counter()
        cpu, wall = probe()
        m["setups"].append((cpu, wall, t0 + wall / 2))
        return wall

    while progress() < 1:
        while len(m["setups"]) < SETUP_PROBES and progress() >= len(m["setups"]) / SETUP_PROBES:
            probe_wall += run_probe()
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in wl.rotation(r):
                sample_speed(speed.REF_EVERY_S)
                if traced:
                    tracer.op = len(m["outcomes"])
                c0, t0 = process_time(), perf_counter()
                raw = op.run()
                m["cpu"].append(process_time() - c0)
                m["wall"].append(perf_counter() - t0)
                m["start"].append(t0)
                m["traced"].append(traced)
                m["labels"].append(op.label)
                m["outcomes"].append(op.judge(raw))
        finally:
            if traced:
                tracer.uninstall()
        r += 1
    sample_speed(0.0)
    m["loop_cpu"] = process_time() - cpu_start
    m["loop_wall"] = perf_counter() - wall_start - probe_wall
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(m["setups"]) < SETUP_PROBES:
        run_probe()
    sample_speed(0.0)
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pptnet" / "__init__.py").is_file():
        print(f"error: no pptnet sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        sys.path.insert(0, str(SRC))
        import speed
        import workloads

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        wl = workloads.build(args.workload, args.seed, workdir)
        wl.rotation(0)[0].run()  # warm-up
        speed.kernel()  # warm-up
        probe = functools.partial(_probe_setup, args.workload, args.seed, env)
        m = _measure(args, wl, tracer, probe, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    import numpy as np

    cpu_ms, wall_ms = np.array(m["cpu"]) * 1000, np.array(m["wall"]) * 1000
    ref_times, ref_cpu = (np.array(column) for column in zip(*m["ref"]))
    norm_ms = cpu_ms * speed.scale(np.array(m["start"]) + wall_ms / 2000, ref_times, ref_cpu)
    setup_cpu, setup_wall, setup_mid = (np.array(column) for column in zip(*m["setups"]))
    setup_norm = setup_cpu * speed.scale(setup_mid, ref_times, ref_cpu)
    traced = np.array(m["traced"])
    outcomes = m["outcomes"]
    shares = _shares(outcomes)
    if args.trace:
        layer = tracer.metrics(int(traced.sum()))
        ratio = np.median(norm_ms[traced]) / np.median(norm_ms[~traced])
        layer["trace.overhead_ratio"] = (float(ratio), "ratio")
        layer.update({name: (value, "share") for name, value in shares.items()})
    else:
        p50, p90 = np.percentile(norm_ms, [50, 90])
        layer = {
            "latency_p50_norm_ms": (float(p50), "ms"),
            "latency_p90_norm_ms": (float(p90), "ms"),
            "throughput_norm_ops_s": (1000 * len(norm_ms) / norm_ms.sum(), "1/s"),
            "setup_s": (float(np.median(setup_norm)), "s"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        }
    plain = ~traced
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "ops": len(cpu_ms),
        "traced_ops": int(traced.sum()),
        "traced_cpu_ms_per_op": float(cpu_ms[traced].mean()) if traced.any() else 0.0,
        "loop_cpu_s": m["loop_cpu"],
        "loop_wall_s": m["loop_wall"],
        "reference_kernel_ms": {
            "samples": len(ref_cpu),
            "median": float(np.median(ref_cpu) * 1000),
            "nominal": speed.NOMINAL_MS,
        },
        "cpu_latency_p50_ms": float(np.median(cpu_ms[plain])),
        "cpu_latency_p90_ms": float(np.percentile(cpu_ms[plain], 90)),
        "wall_latency_p50_ms": float(np.median(wall_ms[plain])),
        "wall_latency_p90_ms": float(np.percentile(wall_ms[plain], 90)),
        "wall_throughput_ops_s": len(wall_ms) / m["loop_wall"],
        "setup_cpu_s": sorted(setup_cpu.tolist()),
        "setup_wall_s": sorted(setup_wall.tolist()),
        "shares": shares,
        "by_input": _by_input(m["labels"], outcomes),
        "refused": sum(o.refused for o in outcomes),
        "checks_failed": sum(not o.ok for o in outcomes),
        "check_notes": [o.note for o in outcomes if not o.ok][:5],
        "env": _environment(args.seed),
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": all(o.ok for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in layer.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Inputs, operations and per-op correctness checks of the three benchmark
workloads.

A workload is built from a seed alone.  It hands out its operations one
rotation at a time; a rotation is a fixed sequence of ops that covers every
kind of input once, so a run that completes whole rotations always measures
the same mix.  Each op is a `run` callable (the timed call into pptnet) and a
`judge` callable that checks the output against a reference computed at
set-up from `linalg.hermitian_eigenvalues` on the partial transpose.

Run as a script (`python workloads.py WORKLOAD SEED TMPDIR`) this file is the
set-up probe: it imports pptnet, builds the inputs in a fresh directory under
TMPDIR, runs one op and prints `ready`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pptnet import cli, estimation, linalg, network, states

SHOTS_PER_K = 10**6
REPLICAS = 200
# random inputs are drawn POOL times per kind; rotation r uses instance r % POOL
POOL = 8
# The concrete stage-two gates halve the parity signal (README, measurement
# model), so the full-evolution alternating sum times 2 is the power sum.
CIRCUIT_ETA_SCALE = 2.0
CIRCUIT_TOL = 1e-9
EXACT_SUM_TOL = 1e-9
# a shot-mode power sum further than this many standard errors from the exact
# one is a wrong output, not noise (false-alarm odds ~1e-9 per order)
SHOT_SIGMAS = 6.0

NPT = estimation.NPT_ENTANGLED


@dataclass(frozen=True)
class Case:
    """A generated state with its exact reference."""

    label: str
    rho: states.DensityMatrix
    spectrum: np.ndarray  # eigenvalues of rho^T_B, descending
    sums: np.ndarray  # Tr[(rho^T_B)^k] for k = 1..d
    cls: str  # classification implied by the spectrum


@dataclass(frozen=True)
class Outcome:
    # pptnet declined the op: raised EstimationError, or the CLI exited 2
    # with a partial report.  A measured outcome, not a benchmark failure.
    refused: bool
    ok: bool  # every correctness check on the output held
    ref: str | None = None  # exact classification, for ops that give a verdict
    got: str | None = None  # classification the op reported
    note: str = ""

    @property
    def on_ppt(self) -> bool:
        """The input's exact verdict is PPT."""
        return self.ref is not None and self.ref != NPT

    @property
    def unsound(self) -> bool:
        """An exactly-PPT input was reported entangled."""
        return self.on_ppt and self.got == NPT

    @property
    def judged(self) -> bool:
        """The op gave a verdict that has an exact reference."""
        return self.ref is not None and self.got is not None

    @property
    def mismatched(self) -> bool:
        return self.judged and self.got != self.ref


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


def reference(label: str, rho: states.DensityMatrix) -> Case:
    pt = linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B")
    lam = linalg.hermitian_eigenvalues(pt)
    sums = np.array([np.sum(lam**k) for k in range(1, rho.d + 1)])
    if lam[-1] < -estimation.NEGATIVITY_FLOOR:
        cls = NPT
    elif rho.d <= 6:
        cls = estimation.PPT_CONCLUSIVE_SEPARABLE
    else:
        cls = estimation.PPT_INCONCLUSIVE
    return Case(label, rho, lam, sums, cls)


def _ss(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


def _random(dims, seed: int, *path: int) -> states.DensityMatrix:
    return states.random_density(dims, _ss(seed, *path))


def _random_entangled(dims, seed: int, *path: int) -> states.DensityMatrix:
    """First Ginibre state on the seeded path whose exact verdict is NPT."""
    for attempt in range(100):
        rho = _random(dims, seed, *path, attempt)
        if reference("", rho).cls == NPT:
            return rho
    raise RuntimeError(f"no entangled {dims} state in 100 draws")


def _separable(dims, seed: int, *path: int) -> states.DensityMatrix:
    return states.random_separable(dims, 5, _ss(seed, *path))


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _sums_close(got, case: Case, tol) -> bool:
    got = np.asarray(got, dtype=float)
    return got.shape == case.sums.shape and bool(np.all(np.abs(got - case.sums) <= tol))


class ShotsProtocol:
    """Library `run_protocol` at 10^6 shots per order and 200 bootstrap
    replicas over Bell, two Werner states, an entangled random 2x3 state and
    random separable 2x2 and 2x3 states (three of the six are PPT)."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        fixed = [
            reference("bell_phi+", states.bell_state("phi+")),
            reference("werner_0.8", states.werner(0.8)),
            reference("werner_0.25", states.werner(0.25)),
        ]
        self.pool = [
            fixed
            + [
                reference(f"random_2x3#{i}", _random_entangled((2, 3), seed, 1, i)),
                reference(f"separable_2x2#{i}", _separable((2, 2), seed, 2, i)),
                reference(f"separable_2x3#{i}", _separable((2, 3), seed, 3, i)),
            ]
            for i in range(POOL)
        ]

    def rotation(self, r: int) -> list[Op]:
        cases = self.pool[r % POOL]
        return [self._op(case, r * len(cases) + j) for j, case in enumerate(cases)]

    def _op(self, case: Case, index: int) -> Op:
        cfg = estimation.EstimationConfig(
            shots_per_k=SHOTS_PER_K,
            seed=int(_ss(self.seed, 9, index).generate_state(1)[0]),
            bootstrap_replicas=REPLICAS,
        )

        def run():
            try:
                return estimation.run_protocol(case.rho, cfg)
            except estimation.EstimationError as exc:
                return exc

        def judge(res) -> Outcome:
            refused = isinstance(res, estimation.EstimationError)
            ps = getattr(res, "power_sums", None)
            if ps is None:
                return Outcome(refused, False, case.cls, None, f"{case.label}: no power sums")
            tol = SHOT_SIGMAS * np.maximum(ps.stderr, 1.0 / SHOTS_PER_K) + EXACT_SUM_TOL
            ok = _sums_close(ps.p, case, tol)
            if not refused:
                ok = ok and bool(np.isfinite(res.sigma)) and res.sigma >= 0
            got = None if refused else res.verdict.classification
            return Outcome(refused, ok, case.cls, got, "" if ok else f"{case.label}: power sums off")

        return Op(case.label, run, judge)


class ExactSweep:
    """In-process `pptnet check` and `pptnet simulate --exact-probabilities`
    on state files: random full-rank and random separable states on 2x2 up to
    4x4, plus a Werner grid."""

    DIMS = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
    WERNER = (0.0, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)
    PER_DIMS = 2  # random and separable files per dims

    def __init__(self, seed: int, workdir: str):
        cases = []
        for n, dims in enumerate(self.DIMS):
            tag = f"{dims[0]}x{dims[1]}"
            for i in range(self.PER_DIMS):
                cases.append(reference(f"random_{tag}#{i}", _random(dims, seed, 4, n, i)))
                cases.append(reference(f"separable_{tag}#{i}", _separable(dims, seed, 5, n, i)))
        cases += [reference(f"werner_{p}", states.werner(p)) for p in self.WERNER]
        self.files = []
        for case in cases:
            path = os.path.join(workdir, f"{case.label.replace('#', '_')}.json")
            states.save(case.rho, path)
            self.files.append((path, case))

    def rotation(self, r: int) -> list[Op]:
        ops = []
        for path, case in self.files:
            ops.append(self._op(["check", path], case))
            ops.append(self._op(["simulate", path, "--exact-probabilities"], case))
        return ops

    @staticmethod
    def _op(argv: list[str], case: Case) -> Op:
        def judge(res) -> Outcome:
            rc, text = res
            label = f"{argv[0]} {case.label}"
            if rc not in (0, 2):
                return Outcome(False, False, case.cls, None, f"{label}: exit {rc}")
            report = json.loads(text)
            ok = _sums_close(report["power_sums"], case, EXACT_SUM_TOL)
            if argv[0] == "check":
                ok = ok and rc == 0
                dev = np.abs(np.array(report["spectrum"]) - case.spectrum)
                ok = ok and bool(np.all(dev <= 1e-12))
            got = report["classification"] if rc == 0 else None
            return Outcome(rc != 0, ok, case.cls, got, "" if ok else f"{label}: report off")

        return Op(f"{argv[0]} {case.label}", lambda: _cli(argv), judge)


class CircuitOracle:
    """The dense full-evolution circuit for 2x2 at k = 2, 3, 4 and 2x3 at
    k = 2, 3, then `pptnet calibrate --dims 2 2` and `pptnet verify --dims 2 2
    --kmax 4`."""

    ORDERS = (((2, 2), 2), ((2, 2), 3), ((2, 2), 4), ((2, 3), 2), ((2, 3), 3))

    def __init__(self, seed: int, workdir: str):
        self.pool = [
            {
                dims: reference(f"random_{tag}#{i}", _random(dims, seed, 6, n, i))
                for n, (dims, tag) in enumerate((((2, 2), "2x2"), ((2, 3), "2x3")))
            }
            for i in range(POOL)
        ]

    def rotation(self, r: int) -> list[Op]:
        cases = self.pool[r % POOL]
        ops = [self._circuit(cases[dims], k) for dims, k in self.ORDERS]
        calibrate = ["calibrate", "--dims", "2", "2"]
        verify = ["verify", "--dims", "2", "2", "--kmax", "4"]
        ops.append(Op("calibrate", lambda: _cli(calibrate), self._calibrated))
        ops.append(Op("verify", lambda: _cli(verify), self._verified))
        return ops

    @staticmethod
    def _circuit(case: Case, k: int) -> Op:
        def judge(dist) -> Outcome:
            dev = abs(CIRCUIT_ETA_SCALE * dist.alternating_sum() - case.sums[k - 1])
            ok = dev <= CIRCUIT_TOL
            return Outcome(False, ok, note="" if ok else f"{case.label} k={k}: deviation {dev:.2e}")

        return Op(
            f"full_evolution {case.label} k={k}",
            lambda: network.stage_two_distribution(case.rho, k, "full_evolution"),
            judge,
        )

    @staticmethod
    def _calibrated(res) -> Outcome:
        rc, text = res
        ok = rc == 0 and abs(json.loads(text)["eta_scale"] - CIRCUIT_ETA_SCALE) <= CIRCUIT_TOL
        return Outcome(False, ok, note="" if ok else f"calibrate: exit {rc}")

    @staticmethod
    def _verified(res) -> Outcome:
        rc, text = res
        ok = rc == 0 and json.loads(text)["pass"] is True
        return Outcome(False, ok, note="" if ok else f"verify: exit {rc}")


WORKLOADS = {
    "shots_protocol": ShotsProtocol,
    "exact_sweep": ExactSweep,
    "circuit_oracle": CircuitOracle,
}


def build(name: str, seed: int, workdir: str):
    return WORKLOADS[name](seed, workdir)


if __name__ == "__main__":
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        build(name, seed, tmp).rotation(0)[0].run()
        print("ready", flush=True)

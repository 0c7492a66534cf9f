"""Command-line front end: generate states, run exact PPT checks, simulate the
measurement protocol with shots, verify the trace-identity suite, and print
the readout calibration constant.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit codes:
0 success, 1 input error, 2 estimation failure, 3 identity-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, estimation, linalg, network, permnet, states

IDENTITY_TOL = 1e-10


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _report(
    rho: states.DensityMatrix,
    method: str,
    power_sums=None,
    power_sum_stderr=None,
    spectrum=None,
    lambda_min=None,
    sigma=None,
    classification=None,
    shots_per_k=0,
    seed=None,
    copies_consumed=0,
) -> dict:
    return {
        "dims": [rho.d_a, rho.d_b],
        "method": method,
        "power_sums": None if power_sums is None else [float(x) for x in power_sums],
        "power_sum_stderr": None
        if power_sum_stderr is None
        else [float(x) for x in power_sum_stderr],
        "spectrum": None if spectrum is None else [float(x) for x in spectrum],
        "lambda_min": None if lambda_min is None else float(lambda_min),
        "sigma": None if sigma is None else float(sigma),
        "classification": classification,
        "shots_per_k": int(shots_per_k),
        "seed": seed,
        "copies_consumed": int(copies_consumed),
        "tool_version": __version__,
    }


def cmd_gen(args) -> int:
    if args.kind == "bell":
        rho = states.bell_state(args.which)
    elif args.kind == "werner":
        if args.p is None:
            raise ValueError("werner requires --p")
        rho = states.werner(args.p)
    elif args.kind == "random":
        rho = states.random_density(tuple(args.dims), args.seed)
    elif args.kind == "separable":
        rho = states.random_separable(tuple(args.dims), args.terms, args.seed)
    elif args.kind == "mix":
        if not args.inputs:
            raise ValueError("mix requires --inputs")
        parts = [states.load(path) for path in args.inputs]
        dims = parts[0].dims
        if any(p.dims != dims for p in parts):
            raise states.StateFormatError("mix inputs must share dimensions")
        weights = args.weights or [1.0] * len(parts)
        if len(weights) != len(parts) or any(w < 0 for w in weights) or sum(weights) == 0:
            raise ValueError("weights must be nonnegative, one per input")
        weights = np.asarray(weights, dtype=float)
        weights /= weights.sum()
        m = sum(w * p.matrix for w, p in zip(weights, parts))
        rho = states.DensityMatrix(dims, m)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind!r}")
    report = states.validate(rho)
    if not report.ok:
        raise states.PhysicalityError(report)
    states.save(rho, args.out)
    _info(f"wrote {args.kind} state ({rho.d_a}x{rho.d_b}) to {args.out}")
    _info(f"validation: {report.summary()}")
    return 0


def cmd_check(args) -> int:
    rho = states.load(args.state)
    pt = linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B")
    spectrum = linalg.hermitian_eigenvalues(pt)
    ps = estimation.power_sums_exact(rho)
    v = estimation.verdict(estimation.Spectrum(spectrum, 0.0), rho.dims, 0.0, args.z)
    _emit(
        _report(
            rho,
            "exact",
            power_sums=ps.p,
            power_sum_stderr=ps.stderr,
            spectrum=spectrum,
            lambda_min=v.lambda_min,
            sigma=0.0,
            classification=v.classification,
        )
    )
    _info(f"lambda_min = {v.lambda_min:+.6f} -> {v.classification}")
    return 0


def cmd_simulate(args) -> int:
    rho = states.load(args.state)
    cfg = estimation.EstimationConfig(
        shots_per_k=args.shots,
        seed=args.seed,
        bootstrap_replicas=args.bootstrap,
        z=args.z,
        use_k2_shortcut=not args.no_k2_shortcut,
    )
    method = "locc_exact" if args.exact_probabilities else "locc_shots"
    shots = 0 if args.exact_probabilities else cfg.shots_per_k
    try:
        result = estimation.run_protocol(rho, cfg, exact_probabilities=args.exact_probabilities)
    except estimation.EstimationError as exc:
        ps = getattr(exc, "power_sums", None)
        partial = _report(
            rho,
            method,
            power_sums=None if ps is None else ps.p,
            power_sum_stderr=None if ps is None else ps.stderr,
            shots_per_k=shots,
            seed=cfg.seed,
            copies_consumed=0 if args.exact_probabilities else shots * sum(range(2, rho.d + 1)),
        )
        partial["error"] = str(exc)
        _emit(partial)
        _info(f"estimation failed: {exc}")
        return 2
    _emit(
        _report(
            rho,
            method,
            power_sums=result.power_sums.p,
            power_sum_stderr=result.power_sums.stderr,
            spectrum=result.spectrum.lambdas,
            lambda_min=result.verdict.lambda_min,
            sigma=result.sigma,
            classification=result.verdict.classification,
            shots_per_k=shots,
            seed=cfg.seed,
            copies_consumed=result.copies_consumed,
        )
    )
    _info(
        f"lambda_min = {result.verdict.lambda_min:+.6f} (sigma {result.sigma:.2e}) "
        f"-> {result.verdict.classification}"
    )
    return 0


def _identity_rows(rho: states.DensityMatrix, k: int, rng: np.random.Generator) -> list[dict]:
    """Max deviations of every trace identity at order k for one state."""
    d_a, d_b = rho.dims
    rows = []
    if (d_a * d_b) ** k > permnet.BRUTEFORCE_TERM_GUARD:
        return [
            {"identity": "all_bruteforce", "k": k, "max_dev": None, "status": "skipped"}
        ]
    m = rho.matrix
    pt_b = linalg.partial_transpose(m, d_a, d_b, "B")
    pt_a = linalg.partial_transpose(m, d_a, d_b, "A")
    eta_b = permnet.shift_trace_bruteforce(rho, k, "inverse", "forward")
    eta_a = permnet.shift_trace_bruteforce(rho, k, "forward", "inverse")
    checks = {
        "transpose_power_B": abs(eta_b - np.trace(linalg.mat_power(pt_b, k))),
        "transpose_power_A": abs(eta_a - np.trace(linalg.mat_power(pt_a, k))),
        "conjugate_pair_reality": max(abs(eta_b.imag), abs(eta_a.imag), abs(eta_b - eta_a.conjugate())),
        "reduced_power_A": abs(
            permnet.shift_trace_bruteforce(rho, k, "forward", "identity")
            - np.trace(linalg.mat_power(rho.reduced("A"), k))
        ),
        "reduced_power_B": abs(
            permnet.shift_trace_bruteforce(rho, k, "identity", "forward")
            - np.trace(linalg.mat_power(rho.reduced("B"), k))
        ),
        "combined_shift_power": abs(
            permnet.shift_trace_bruteforce(rho, k, "forward", "forward")
            - np.trace(linalg.mat_power(m, k))
        ),
    }
    if k == 2:
        checks["purity_equality"] = abs(
            np.trace(linalg.mat_power(pt_b, 2)) - np.trace(linalg.mat_power(m, 2))
        )
    # ordered product against the explicit shift matrix, on each local dimension
    for label, d in (("A", d_a), ("B", d_b)):
        if d**k > permnet.MATRIX_SIZE_GUARD:
            rows.append(
                {"identity": f"shift_product_{label}", "k": k, "max_dev": None, "status": "skipped"}
            )
            continue
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(k)
        ]
        prod = np.eye(d, dtype=complex)
        big = np.eye(1, dtype=complex)
        for mat in mats:
            prod = prod @ mat
            big = np.kron(big, mat)
        v_fwd = permnet.build_shift_matrix(k, d, "forward")
        rev = np.eye(d, dtype=complex)
        for mat in reversed(mats):
            rev = rev @ mat
        dev = max(
            abs(np.trace(v_fwd.conj().T @ big) - np.trace(prod)),
            abs(np.trace(v_fwd @ big) - np.trace(rev)),
        )
        checks[f"shift_product_{label}"] = dev
    for name, dev in checks.items():
        rows.append(
            {
                "identity": name,
                "k": k,
                "max_dev": float(dev),
                "status": "pass" if dev < IDENTITY_TOL else "fail",
            }
        )
    return rows


def cmd_verify(args) -> int:
    if args.kmax < 2:
        raise ValueError(f"--kmax must be >= 2, got {args.kmax}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    d_a, d_b = args.dims
    merged: dict[tuple[str, int], dict] = {}
    for trial in range(args.trials):
        rho = states.random_density((d_a, d_b), np.random.SeedSequence([args.seed, trial]))
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, trial, 1]))
        for k in range(2, args.kmax + 1):
            for row in _identity_rows(rho, k, rng):
                key = (row["identity"], k)
                prev = merged.get(key)
                if prev is None or (
                    row["max_dev"] is not None
                    and (prev["max_dev"] is None or row["max_dev"] > prev["max_dev"])
                ):
                    merged[key] = row
    rows = [merged[key] for key in sorted(merged)]
    ok = all(r["status"] != "fail" for r in rows)
    _emit(
        {
            "dims": [d_a, d_b],
            "kmax": args.kmax,
            "trials": args.trials,
            "seed": args.seed,
            "tolerance": IDENTITY_TOL,
            "identities": rows,
            "pass": ok,
        }
    )
    width = max(len(r["identity"]) for r in rows)
    for r in rows:
        dev = "skipped" if r["max_dev"] is None else f"{r['max_dev']:.3e}"
        _info(f"{r['status']:>7}  k={r['k']}  {r['identity']:<{width}}  max_dev={dev}")
    _info("identity suite: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 3


def cmd_calibrate(args) -> int:
    report = estimation.calibration_report(tuple(args.dims))  # raises if inconsistent
    _emit({"dims": list(args.dims), **report, "residual_tol": estimation.CALIBRATION_TOL})
    _info(f"eta_scale = {report['eta_scale']!r} (circuit readout; analytic sampling needs none)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pptnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pptnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a state file")
    p_gen.add_argument("kind", choices=["bell", "werner", "random", "separable", "mix"])
    p_gen.add_argument("--which", default="phi+", help="bell: phi+ phi- psi+ psi-")
    p_gen.add_argument("--p", type=float, default=None, help="werner mixing parameter")
    p_gen.add_argument("--dims", type=int, nargs=2, default=[2, 2], metavar=("DA", "DB"))
    p_gen.add_argument("--terms", type=int, default=5, help="separable: product terms")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--inputs", nargs="+", default=None, help="mix: state files")
    p_gen.add_argument("--weights", type=float, nargs="+", default=None, help="mix: weights")
    p_gen.add_argument("--out", required=True, help="output state file")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="exact PPT check of a state file")
    p_check.add_argument("state")
    p_check.add_argument("--z", type=float, default=3.0)
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="simulate the measurement protocol")
    p_sim.add_argument("state")
    p_sim.add_argument("--shots", type=int, default=100_000, help="shots per order k")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--z", type=float, default=3.0)
    p_sim.add_argument("--bootstrap", type=int, default=200, help="bootstrap replicas")
    p_sim.add_argument(
        "--exact-probabilities",
        action="store_true",
        help="feed exact outcome probabilities to the estimator (infinite-shot limit)",
    )
    p_sim.add_argument(
        "--no-k2-shortcut",
        action="store_true",
        help="estimate order 2 from the second-stage readout instead of the first",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the trace-identity suite")
    p_verify.add_argument("--dims", type=int, nargs=2, default=[2, 2], metavar=("DA", "DB"))
    p_verify.add_argument("--kmax", type=int, default=4)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="measure the circuit readout scale")
    p_cal.add_argument("--dims", type=int, nargs=2, default=[2, 2], metavar=("DA", "DB"))
    p_cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except estimation.EstimationError as exc:
        _info(f"error: {exc}")
        return 2
    except (ValueError, OSError) as exc:
        _info(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate states, run exact PPT checks, simulate the
measurement protocol with shots, verify the trace-identity suite, and print
the readout calibration constant.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit codes:
0 success, 1 input error (bad arguments too), 2 an --exact-probabilities
recovery refusal or a calibration failure, 3 identity-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, estimation, linalg, network, permnet, states

IDENTITY_TOL = 1e-10


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _report(rho, method, result, shots_per_k=0, seed=None) -> dict:
    """The one `check` / `simulate` report, read off a ProtocolResult: where
    recovery refused, the spectrum (and in exact mode the verdict) is null."""
    v = result.verdict
    return {
        "dims": [rho.d_a, rho.d_b],
        "method": method,
        "power_sums": result.power_sums.p.tolist(),
        "power_sum_stderr": result.power_sums.stderr.tolist(),
        "spectrum": None if result.spectrum is None else result.spectrum.lambdas.tolist(),
        "lambda_min": None if v is None else v.lambda_min,
        "sigma": result.sigma,
        "interval": None if result.interval is None else list(result.interval),
        "classification": None if v is None else v.classification,
        "shots_per_k": shots_per_k,
        "seed": seed,
        "copies_consumed": result.copies_consumed,
        "tool_version": __version__,
        "recovery_error": result.recovery_error,
    }


def _check_dims(dims: list[int]) -> int:
    """d = d_A d_B, refused before any array is sized from `dims` when a d x d matrix
    would pass permnet.TRIAL_ENTRY_BUDGET entries."""
    states.check_dims(dims)
    budget, d = permnet.TRIAL_ENTRY_BUDGET, math.prod(dims)
    if d * d > budget:
        raise ValueError(f"--dims must have d_A*d_B <= {math.isqrt(budget)}, got {dims}")
    return d


def cmd_gen(args) -> int:
    if args.kind == "bell":
        rho = states.bell_state(args.which)
    elif args.kind == "werner":
        rho = states.werner(args.p)
    elif args.kind == "random":
        _check_dims(args.dims)
        rho = states.random_density(tuple(args.dims), args.seed)
    elif args.kind == "separable":
        _check_dims(args.dims)
        if args.terms > permnet.TRIAL_ENTRY_BUDGET:  # one Dirichlet weight per term
            raise ValueError(f"--terms must be <= {permnet.TRIAL_ENTRY_BUDGET}, got {args.terms}")
        rho = states.random_separable(tuple(args.dims), args.terms, args.seed)
    else:  # mix; the parser restricts the kinds
        parts = [states.load(path) for path in args.inputs]
        if any(p.dims != parts[0].dims for p in parts):
            raise states.StateFormatError("mix inputs must share dimensions")
        weights = args.weights or [1.0] * len(parts)
        total = sum(weights)  # NaN or inf when a weight is, or when the weights overflow
        if len(weights) != len(parts) or any(w < 0 for w in weights) or not 0 < total < math.inf:
            raise ValueError("weights must be finite and nonnegative, one per input")
        weights = np.asarray(weights, dtype=float)
        weights /= weights.sum()
        m = sum(w * p.matrix for w, p in zip(weights, parts))
        rho = states.DensityMatrix(parts[0].dims, m)
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
    # no Hermiticity check: pt permutes the entries of rho - rho^dagger, which load bounded
    spectrum = estimation.Spectrum(np.linalg.eigvalsh(pt)[::-1], 0.0)
    # p_k = sum lambda^k; power_sums_exact keeps the moment table as an independent check
    p = (spectrum.lambdas[:, None] ** np.arange(1, rho.d + 1)).sum(axis=0)
    p[0] = 1.0  # the unit trace, pinned as power_sums_exact pins it
    ps = estimation.PowerSums(p, "exact", np.zeros(rho.d))
    v = estimation.verdict(spectrum, rho.dims)
    _emit(_report(rho, "exact", estimation.ProtocolResult(ps, spectrum, v)))
    _info(f"lambda_min = {v.lambda_min:+.6f} -> {v.classification}")
    return 0


def cmd_simulate(args) -> int:
    options = {"shots_per_k": args.shots, "seed": args.seed}  # None where left out
    given = {name: value for name, value in options.items() if value is not None}
    if args.exact_probabilities and given:  # no shot is drawn, so neither would be read
        flag = "--shots" if "shots_per_k" in given else "--seed"
        raise ValueError(f"argument {flag}: not allowed with argument --exact-probabilities")
    rho = states.load(args.state)
    cfg = estimation.EstimationConfig(**given)
    r = estimation.run_protocol(rho, cfg, exact_probabilities=args.exact_probabilities)
    method = "locc_exact" if args.exact_probabilities else "locc_shots"
    report = _report(rho, method, r, 0 if args.exact_probabilities else cfg.shots_per_k, cfg.seed)
    _emit(report)
    keys = ("classification", "lambda_min", "sigma", "recovery_error")
    _info(" ".join(f"{k}={report[k]}" for k in keys))
    return 2 if r.verdict is None else 0  # exact mode has no verdict without a spectrum


def _trace_checks(mats: np.ndarray, dims: tuple[int, int], moments_k: np.ndarray, k: int) -> dict:
    """Per trial, the deviations of the brute-force shift traces at order k of
    a (T, d, d) stack of states from `moments_k`, the (T, 4) order-k rows of
    their moment tables (network.moment_tables)."""
    t_a, t_b, t_rho, eta = moments_k.T
    oracle = functools.partial(permnet.shift_traces, mats, dims, k)  # (dir_a, dir_b) -> (T,) traces
    eta_b = oracle("inverse", "forward")
    eta_a = oracle("forward", "inverse")
    checks = {
        "transpose_power_B": np.abs(eta_b - eta),
        # rho^T_A = (rho^T_B)^T has the same power traces
        "transpose_power_A": np.abs(eta_a - eta),
        "conjugate_pair_reality": np.max(
            np.abs([eta_b.imag, eta_a.imag, eta_b - eta_a.conjugate()]), axis=0
        ),
        "reduced_power_A": np.abs(oracle("forward", "identity") - t_a),
        "reduced_power_B": np.abs(oracle("identity", "forward") - t_b),
        "combined_shift_power": np.abs(oracle("forward", "forward") - t_rho),
    }
    if k == 2:
        checks["purity_equality"] = np.abs(eta - t_rho)
    return checks


def _shift_product_devs(mats: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Per trial, the deviation of Tr[V^dagger (m1 ⊗ ... ⊗ mk)] and
    Tr[V (m1 ⊗ ... ⊗ mk)] from the traces of the ordered products m1 ... mk
    and mk ... m1, V the forward shift whose permutation is `perm`; `mats` is
    (T, k, d, d).  V's nonzeros are the ones at (perm[x], x), so
    Tr(V^dagger X) = sum_x X[perm[x], x] and Tr(V X) = sum_x X[x, perm[x]],
    with the Kronecker entry X_ij = prod_t m_t[i_t, j_t] gathered from the
    base-d digits of i and j (most significant first): no V, no product."""
    _, k, d, _ = mats.shape
    i, j = np.unravel_index(perm, (d,) * k), np.unravel_index(np.arange(d**k), (d,) * k)
    x_ij, x_ji = mats[:, 0, i[0], j[0]], mats[:, 0, j[0], i[0]]
    ordered, reversed_ = mats[:, 0], mats[:, k - 1]
    for t in range(1, k):  # in place: at the budget's edge each (T, d^k) array is 64 MiB
        x_ij *= mats[:, t, i[t], j[t]]
        x_ji *= mats[:, t, j[t], i[t]]
        ordered = ordered @ mats[:, t]
        reversed_ = reversed_ @ mats[:, k - 1 - t]
    return np.maximum(
        np.abs(x_ij.sum(axis=1) - np.trace(ordered, axis1=1, axis2=2)),
        np.abs(x_ji.sum(axis=1) - np.trace(reversed_, axis1=1, axis2=2)),
    )


def _random_matrices(seed: int, k: int, sides: list[int], trials: int, d: int) -> np.ndarray:
    """The (len(sides)·T, k, d, d) complex matrices of the shift products on `sides`
    at order k, side after side: for each, one draw from [seed, 1, k, side], k
    complex d x d matrices per trial, real then imaginary part, each over its Frobenius
    norm: the d^k absolute terms of Tr(m1 ... mk) then add up to at most 1."""
    x = np.empty((len(sides), trials, k, 2, d, d))
    for row, side in zip(x, sides):
        np.random.default_rng([seed, 1, k, side]).standard_normal(out=row)
    x /= np.sqrt(np.square(x).sum(axis=(3, 4, 5), keepdims=True))
    return (x[:, :, :, 0] + 1j * x[:, :, :, 1]).reshape(-1, k, d, d)


def _verify_plan(dims: list[int], kmax: int, trials: int) -> dict[int, tuple[bool, list]]:
    """Order k -> (brute force admitted, shift-product calls), k = 2..kmax: verify's one
    reader of its arguments and limits, refusing bad ones before any state is drawn.  A
    call lists the sides, A (0) and B (1), it checks: both at d_A = d_B while their joint
    (2T, d^k) gathers fit the budget, else one per admitted side."""
    if kmax < 2:
        raise ValueError(f"--kmax must be >= 2, got {kmax}")
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    # the budget is below 10^8: brute force reaches k = 2
    budget, d = permnet.TRIAL_ENTRY_BUDGET, _check_dims(dims)
    if trials * d * d > budget:
        raise ValueError(f"--trials must be <= {budget // (d * d)} at dims {dims}, got {trials}")
    plan, most = {}, min(permnet.MATRIX_SIZE_GUARD, budget // trials)  # d^k one side may gather
    for k in range(2, kmax + 1):  # every d >= 2, so each guard only tightens as k grows
        sides = [side for side, m in enumerate(dims) if m**k <= most]
        joint = len(sides) == 2 and dims[0] == dims[1] and 2 * trials * dims[0] ** k <= budget
        brute = permnet.bruteforce_admits(trials, d, k)
        if not (brute or sides):
            raise ValueError(f"--kmax must be <= {k - 1} at dims {dims}, got {kmax}")
        plan[k] = (brute, [sides] if joint else [[side] for side in sides])
    return plan


def _identity_rows(dims: list[int], kmax: int, trials: int, seed: int) -> list[dict]:
    """Largest deviation over the trials of every trace identity at every order
    2..kmax (None, `skipped`, past its guard), sorted by identity and order.
    Each input stack is one draw from its own stream, row t for trial t: the
    states from `seed` (states.random_densities), the k matrices of side A (0)
    or B (1) at order k from [seed, 1, k, side], drawn only where that check runs."""
    plan = _verify_plan(dims, kmax, trials)  # refuses before any state is drawn
    mats = states.random_densities(dims, seed, trials)
    moments = network.moment_tables(mats, dims, kmax)
    devs = {}  # (identity, k) -> per-trial deviations, or None where a guard skips the check
    for k, (brute, calls) in plan.items():
        if not brute:  # skips the brute-force rows only
            devs["all_bruteforce", k] = None
        else:
            checks = _trace_checks(mats, dims, moments[:, k - 1], k)
            devs.update(((name, k), dev) for name, dev in checks.items())
        # ordered product against the shift permutation, one call per group of sides
        devs.update(((f"shift_product_{label}", k), None) for label in "AB")
        for sides in calls:
            d = dims[sides[0]]
            mats_k = _random_matrices(seed, k, sides, trials, d)
            dev = _shift_product_devs(mats_k, permnet.shift_permutation(k, d, "forward"))
            for side, part in zip(sides, np.split(dev, len(sides))):
                devs[f"shift_product_{'AB'[side]}", k] = part
    rows = []
    for (name, k), dev in sorted(devs.items()):  # the keys are unique, so no value is compared
        dev = None if dev is None else float(np.max(dev))
        status = "skipped" if dev is None else "pass" if dev < IDENTITY_TOL else "fail"
        rows.append({"identity": name, "k": k, "max_dev": dev, "status": status})
    return rows


def cmd_verify(args) -> int:
    rows = _identity_rows(args.dims, args.kmax, args.trials, args.seed)
    ok = all(r["status"] != "fail" for r in rows)
    _emit(
        {
            "dims": list(args.dims),
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


def _seed(text: str) -> int:
    """Type of every --seed flag: numpy seeds are nonnegative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"--seed must be a nonnegative integer, got {text}")
    return int(text)


class _ArgumentParser(argparse.ArgumentParser):
    # a bad argument is an input error (exit 1); argparse's 2 means estimation failure here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_DIMS = {"type": int, "nargs": 2, "default": [2, 2], "metavar": ("DA", "DB")}
_SEED = {"type": _seed, "default": 0}
_OUT = {"--out": {"required": True, "help": "output state file"}}
# command -> (help, handler, {argument: add_argument keywords}), in the usage line's order; a
# (help, {argument: keywords}) pair is a kind instead: a sub-parser of its own, read to args.kind
COMMANDS = {
    "gen": ("generate a state file", cmd_gen, {
        "bell": ("a Bell state", {
            "--which": {"default": "phi+", "help": "phi+ phi- psi+ psi-"}, **_OUT}),
        "werner": ("a Werner state", {
            "--p": {"type": float, "required": True, "help": "mixing parameter"}, **_OUT}),
        "random": ("a random state", {"--dims": _DIMS, "--seed": _SEED, **_OUT}),
        "separable": ("a random separable state", {
            "--dims": _DIMS, "--terms": {"type": int, "default": 5}, "--seed": _SEED, **_OUT}),
        "mix": ("a mixture of state files", {"--inputs": {"nargs": "+", "required": True},
                "--weights": {"type": float, "nargs": "+"}, **_OUT}),
    }),
    "check": ("exact PPT check of a state file", cmd_check, {"state": {}}),
    "simulate": ("simulate the measurement protocol", cmd_simulate, {
        "state": {},
        "--shots": {"type": int, "help": "shots per order k (default 100000)"},
        "--seed": {"type": _seed},
        "--exact-probabilities": {
            "action": "store_true",
            "help": "feed exact outcome probabilities to the estimator (infinite-shot limit)",
        },
    }),
    "verify": ("run the trace-identity suite", cmd_verify, {
        "--dims": _DIMS,
        "--kmax": {"type": int, "default": 4},
        "--trials": {"type": int, "default": 20},
        "--seed": _SEED,
    }),
    "calibrate": ("measure the circuit readout scale", cmd_calibrate, {"--dims": _DIMS}),
}


def _add_arguments(parser: argparse.ArgumentParser, arguments: dict) -> None:
    kinds = None  # made at the first kind
    for arg, spec in arguments.items():
        if isinstance(spec, tuple):
            kinds = kinds or parser.add_subparsers(dest="kind", required=True)
            _add_arguments(kinds.add_parser(arg, help=spec[0]), spec[1])
        else:
            parser.add_argument(arg, **spec)
    if kinds:  # gen's kinds take --out after the kind: `gen --out F bell` reads F as a kind
        parser.usage = f"%(prog)s [-h] {{{','.join(kinds.choices)}}} ... --out FILE"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves no state on it."""
    parser = _ArgumentParser(prog="pptnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pptnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, arguments) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_), arguments)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except estimation.EstimationError as exc:
        _info(f"error: {exc}")
        return 2
    except (ValueError, OSError) as exc:
        _info(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

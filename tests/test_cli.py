"""End-to-end tests of the command-line interface."""

import json
import os
import string
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import cli, estimation, linalg, network, permnet, states

# the report keys in the order every report writes them
REPORT_KEYS = [
    "dims",
    "method",
    "power_sums",
    "power_sum_stderr",
    "spectrum",
    "lambda_min",
    "sigma",
    "interval",
    "classification",
    "shots_per_k",
    "seed",
    "copies_consumed",
    "tool_version",
    "recovery_error",
]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def gen(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _ = run(capsys, ["gen", *argv, "--out", str(path)])
    assert code == 0
    return str(path)


def test_check_bell(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell.json", "bell", "--which", "phi+")
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert list(report) == REPORT_KEYS
    assert report["method"] == "exact"
    assert report["classification"] == "NPT_ENTANGLED"
    assert_allclose(report["lambda_min"], -0.5, atol=1e-10)
    assert_allclose(report["spectrum"], [0.5, 0.5, 0.5, -0.5], atol=1e-10)
    assert_allclose(report["power_sums"], [1.0, 1.0, 0.25, 0.25], atol=1e-10)
    assert report["copies_consumed"] == 0 and report["shots_per_k"] == 0
    assert report["seed"] is None
    assert report["interval"] is None
    assert report["recovery_error"] is None


def test_check_werner_separable(capsys, tmp_path):
    path = gen(capsys, tmp_path, "w.json", "werner", "--p", "0.2")
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert report["classification"] == "PPT_CONCLUSIVE_SEPARABLE"
    assert_allclose(report["lambda_min"], 0.1, atol=1e-10)


def test_check_separable_3x3_is_inconclusive(capsys, tmp_path):
    path = gen(
        capsys, tmp_path, "s.json", "separable", "--dims", "3", "3", "--terms", "5", "--seed", "4"
    )
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert report["dims"] == [3, 3]
    assert report["classification"] == "PPT_INCONCLUSIVE"
    assert len(report["spectrum"]) == 9


def test_gen_random_deterministic(capsys, tmp_path):
    a = gen(capsys, tmp_path, "a.json", "random", "--dims", "2", "3", "--seed", "11")
    b = gen(capsys, tmp_path, "b.json", "random", "--dims", "2", "3", "--seed", "11")
    assert json.load(open(a)) == json.load(open(b))


def test_gen_mix(capsys, tmp_path):
    bell = gen(capsys, tmp_path, "bell.json", "bell", "--which", "phi+")
    mixed = gen(capsys, tmp_path, "mixed.json", "werner", "--p", "0")
    out = gen(
        capsys, tmp_path, "mix.json", "mix", "--inputs", bell, mixed, "--weights", "0.5", "0.5"
    )
    code, report = run(capsys, ["check", out])
    assert code == 0
    assert_allclose(report["lambda_min"], -0.125, atol=1e-10)
    assert report["classification"] == "NPT_ENTANGLED"


def test_simulate_exact_matches_check(capsys, tmp_path):
    # both ways classify through estimation.verdict; check's power sums are sum lambda^k
    # over its spectrum, simulate's come from the moment table: two computations that
    # must agree, the eleven zero eigenvalues of the separable 4x4 state included
    states.save(NEAR_LIMIT_STATES["diagonal"], tmp_path / "near_limit.json")
    for name, argv, label in (
        ("w08.json", ["werner", "--p", "0.8"], "NPT_ENTANGLED"),
        ("w04.json", ["werner", "--p", "0.4"], "NPT_ENTANGLED"),
        ("bell.json", ["bell"], "NPT_ENTANGLED"),
        ("sep44.json", ["separable", "--dims", "4", "4", "--seed", "7"], "PPT_INCONCLUSIVE"),
        ("near_limit.json", None, "PPT_CONCLUSIVE_SEPARABLE"),
    ):
        path = gen(capsys, tmp_path, name, *argv) if argv else str(tmp_path / name)
        code, exact = run(capsys, ["check", path])
        assert code == 0
        code, sim = run(capsys, ["simulate", path, "--exact-probabilities"])
        assert code == 0
        assert list(sim) == REPORT_KEYS
        assert sim["method"] == "locc_exact"
        assert sim["classification"] == exact["classification"] == label, name
        d = len(exact["spectrum"])
        assert len(sim["spectrum"]) == len(sim["power_sums"]) == len(exact["power_sums"]) == d
        assert_allclose(sim["spectrum"], exact["spectrum"], rtol=0, atol=1e-9, err_msg=name)
        assert_allclose(sim["power_sums"], exact["power_sums"], rtol=0, atol=1e-9, err_msg=name)
        assert sim["interval"] is None


def test_simulate_shots_report(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell.json", "bell")
    argv = ["simulate", path, "--shots", "50000", "--seed", "3"]
    code, report = run(capsys, argv)
    assert code == 0
    assert list(report) == REPORT_KEYS
    assert report["method"] == "locc_shots"
    assert report["shots_per_k"] == 50000 and report["seed"] == 3
    assert report["copies_consumed"] == 50000 * 9
    assert report["classification"] == "NPT_ENTANGLED"
    assert abs(report["lambda_min"] + 0.5) < 0.05
    # the certified interval holds the exact lambda_min, -0.5, and lies below 0 on an NPT call
    lo, hi = report["interval"]
    assert lo <= -0.5 <= hi < 0
    assert report["sigma"] == (hi - lo) / 2 > 0
    code2, report2 = run(capsys, argv)
    assert report2 == report


def test_simulate_too_noisy_reports_the_certified_verdict(capsys, tmp_path):
    # 2 shots per order: the point spectrum is refused, yet the Hoeffding
    # certificate reads the counts, so the run reports its verdict (exit 0)
    path = gen(capsys, tmp_path, "mixed.json", "werner", "--p", "0")
    code = cli.main(["simulate", path, "--shots", "2", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert list(report) == REPORT_KEYS
    assert report["classification"] == "PPT_INCONCLUSIVE"
    assert report["spectrum"] is None and report["lambda_min"] is None
    assert report["recovery_error"] == "root imaginary residual 7.397e-01 exceeds cap 2.500e-01"
    assert "root imaginary residual" in captured.err
    # the interval comes from the counts, not from the refused point: no shift fires, so
    # hi is the mean 1/4; Samuelson's bound at the top of a wide Hoeffding box lies below
    # -1/2, so lo is the floor -1/2 - load_band(4) that no partial transpose goes under
    lo, hi = report["interval"]
    assert lo == -0.5 - states.load_band(4) and hi == 0.25
    assert report["sigma"] == (hi - lo) / 2
    assert report["power_sums"][0] == 1.0
    assert report["copies_consumed"] == 2 * 9  # 2 shots at each of k = 2, 3, 4


def test_simulate_3x3_shots_report_a_verdict_without_spectrum(capsys, tmp_path):
    # the point spectrum of this state does not recover at 10^6 shots; the certificate still fires
    path = gen(capsys, tmp_path, "r33.json", "random", "--dims", "3", "3", "--seed", "1")
    code = cli.main(["simulate", path, "--shots", "1000000"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["classification"] == "NPT_ENTANGLED"
    assert report["spectrum"] is None and report["lambda_min"] is None
    # and the certified interval holds the exact lambda_min, -0.1024, below 0
    lo, hi = report["interval"]
    assert lo <= -0.1024 <= hi <= 0
    assert report["sigma"] == (hi - lo) / 2 > 0
    assert "root imaginary residual" in report["recovery_error"]
    assert "Traceback" not in captured.err


def test_simulate_exact_refusal_exits_2_with_power_sums(capsys, tmp_path):
    # exact mode has no certificate: a refused recovery leaves no verdict
    path = gen(capsys, tmp_path, "r44.json", "random", "--dims", "4", "4", "--seed", "7")
    code = cli.main(["simulate", path, "--exact-probabilities"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert list(report) == REPORT_KEYS
    result_keys = ["spectrum", "lambda_min", "sigma", "interval", "classification"]
    assert all(report[key] is None for key in result_keys)
    assert report["recovery_error"] == "root imaginary residual 6.376e-02 exceeds cap 1.000e-03"
    assert len(report["power_sums"]) == 16 and report["power_sums"][0] == 1.0
    assert report["copies_consumed"] == 0
    assert "root imaginary residual" in captured.err


@pytest.mark.parametrize("eps", [5e-10, 9e-10])
def test_simulate_accepts_state_at_validation_edge(capsys, tmp_path, eps):
    # an eigenvalue of -eps passes load's 1e-9 tolerance; the outcome
    # probabilities it drives below zero are clipped, not an uncaught error.
    # Shot mode claims nothing without an NPT certificate.
    path = tmp_path / "edge.json"
    states.save(states.DensityMatrix((2, 2), np.diag([1.0, eps, -eps, 0.0])), path)
    states.load(path)
    for mode, label in (
        ([], "PPT_INCONCLUSIVE"),
        (["--exact-probabilities"], "PPT_CONCLUSIVE_SEPARABLE"),
    ):
        code, report = run(capsys, ["simulate", str(path), "--shots", "1000", *mode])
        assert code == 0
        assert report["classification"] == label
        assert_allclose(report["power_sums"], [1.0, 1.0, 1.0, 1.0], atol=1e-8)


@pytest.mark.parametrize("eps", [5e-10, 9e-10])
def test_check_agrees_with_exact_simulate_at_validation_edge(capsys, tmp_path, eps):
    # lambda_min = -eps lies inside the d * VALIDATION_TOL band that state
    # validation cannot resolve, so neither way calls the state entangled
    path = tmp_path / "edge.json"
    states.save(states.DensityMatrix((2, 2), np.diag([1.0, eps, -eps, 0.0])), path)
    code, exact = run(capsys, ["check", str(path)])
    assert code == 0
    assert_allclose(exact["lambda_min"], -eps, rtol=1e-6)
    code, sim = run(capsys, ["simulate", str(path), "--exact-probabilities"])
    assert code == 0
    assert exact["classification"] == sim["classification"] == "PPT_CONCLUSIVE_SEPARABLE"


def near_limit_state(dims, seed, rank_one):
    """A state at load's limit: a random state, or a maximally entangled one
    with a rank-one part, plus an anti-Hermitian part with zero trace and
    largest entry 4.99e-10, so Hermiticity is off by just under 1e-9."""
    d = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    if rank_one:
        m = min(dims)
        v = np.zeros(d, dtype=complex)
        v[[i * dims[1] + i for i in range(m)]] = 1 / np.sqrt(m)
        base = np.outer(v, v.conj())
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        h = np.outer(psi, psi.conj())
    else:
        base = states.random_density(dims, seed).matrix
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
    anti = 1j * (h - np.trace(h) / d * np.eye(d))
    return states.DensityMatrix(dims, base + anti * (4.99e-10 / np.max(np.abs(anti))))


NEAR_LIMIT_STATES = {
    # I/4 off by 4.9e-10 i on two diagonal entries: Hermiticity and trace both 9.8e-10 off
    "diagonal": states.DensityMatrix((2, 2), np.eye(4) / 4 + np.diag([4.9e-10j, 4.9e-10j, 0, 0])),
    **{
        f"{dims[0]}x{dims[1]}-{kind}-{seed}": near_limit_state(dims, seed, kind == "rank1")
        for dims in ((2, 2), (2, 3), (3, 3))
        for kind in ("random", "rank1")
        for seed in range(3)
    },
}


@pytest.mark.parametrize("name", list(NEAR_LIMIT_STATES))
def test_states_at_the_load_limit_run_like_their_hermitian_part(capsys, tmp_path, name):
    # load accepts the state, so no later stage refuses it as input (exit 1):
    # check passes, and each simulate mode ends exactly as it does on the
    # Hermitian part, some with the recovery's own exit 2
    rho = NEAR_LIMIT_STATES[name]
    m = rho.matrix
    path, herm_path = tmp_path / "limit.json", tmp_path / "hermitian.json"
    states.save(rho, path)
    states.save(states.DensityMatrix(rho.dims, (m + m.conj().T) / 2), herm_path)
    report = states.validate(states.load(path))
    assert 9e-10 < report.hermiticity_dev <= states.VALIDATION_TOL
    code, _ = run(capsys, ["check", str(path)])
    assert code == 0
    for mode in (["--exact-probabilities"], ["--shots", "10000"]):
        code, sim = run(capsys, ["simulate", str(path), *mode])
        herm_code, herm = run(capsys, ["simulate", str(herm_path), *mode])
        assert code == herm_code != 1
        assert sim["classification"] == herm["classification"]
        if name == "diagonal" and mode == ["--exact-probabilities"]:
            assert code == 0 and sim["classification"] == "PPT_CONCLUSIVE_SEPARABLE"


def test_check_spectrum_equals_hermitian_eigenvalues_bit_for_bit(capsys, tmp_path):
    # check reads the spectrum with one eigvalsh call and no Hermiticity check:
    # the partial transpose permutes the entries of rho - rho^dagger, so its
    # deviation is rho's, which load already bounds by the same tolerance
    path = tmp_path / "state.json"
    extra = [states.random_density((4, 4), seed=1), states.bell_state("psi-"), states.werner(0.3)]
    for rho in [*NEAR_LIMIT_STATES.values(), *extra]:
        states.save(rho, path)
        m = states.load(path).matrix
        pt = linalg.partial_transpose(m, rho.d_a, rho.d_b, "B")
        assert np.max(np.abs(pt - pt.conj().T)) == np.max(np.abs(m - m.conj().T))
        code, report = run(capsys, ["check", str(path)])
        assert code == 0
        assert report["spectrum"] == linalg.hermitian_eigenvalues(pt).tolist()


def test_check_power_sums_come_from_its_own_spectrum(capsys, tmp_path, monkeypatch):
    # check reads p_k = sum lambda^k off the spectrum it reports, with p[0]
    # pinned to the unit trace, and builds no moment table; the moment table's
    # column (power_sums_exact) agrees within the load band of each order
    dims_grid = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
    cases = [states.bell_state("phi+"), states.werner(0.4), NEAR_LIMIT_STATES["diagonal"]]
    cases += [states.random_density(dims, seed=3) for dims in dims_grid]
    cases += [states.random_separable(dims, terms=5, seed=3) for dims in dims_grid]
    paths = []
    for i, rho in enumerate(cases):
        paths.append(tmp_path / f"state{i}.json")
        states.save(rho, paths[-1])
    table_sums = [estimation.power_sums_exact(states.load(path)).p for path in paths]

    def no_table(*args, **kwargs):
        raise AssertionError("check built a moment table")

    monkeypatch.setattr(network, "moment_tables", no_table)
    for rho, path, want in zip(cases, paths, table_sums):
        code, report = run(capsys, ["check", str(path)])
        assert code == 0
        p, lam = np.array(report["power_sums"]), np.array(report["spectrum"])
        ks = np.arange(1, rho.d + 1)
        assert p[0] == 1.0
        assert_allclose(p[1:], [np.sum(lam**k) for k in ks[1:]], rtol=0, atol=1e-14)
        assert np.all(np.abs(p - want) <= states.load_band(rho.d, ks))


def test_help_and_version_exit_0(capsys):
    for argv in (["--help"], *([command, "--help"] for command in cli.COMMANDS), ["--version"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "pptnet" in out
        if argv == ["--help"]:  # the top-level help lists every command
            assert all(command in out for command in cli.COMMANDS)



# argv the parser tree must answer byte for byte however and how often it is reached;
# {tmp} is the test's directory, holding a Bell state in bell.json
PARSER_GRID = [
    [], ["--help"], ["-h"], ["--version"], ["--version", "check"],
    ["bogus"], ["CHECK", "x"], ["--", "check"],
    *([command, "--help"] for command in cli.COMMANDS),
    ["check", "--version"], ["check", "a", "b"], ["check", "-h", "x"],
    ["simulate", "x.json", "--z", "3"],
    ["gen", "random", "--seed", "-1", "--out", "x.json"],
    ["simulate", "x.json", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["verify", "--kmax", "x"], ["calibrate", "--dims", "2"],
    ["gen", "werner", "--p", "0.5", "--out", "{tmp}/w.json"],
    ["check", "{tmp}/bell.json"],
    ["simulate", "{tmp}/bell.json", "--shots", "1000"],
    ["verify", "--kmax", "3", "--trials", "2"],
    ["calibrate", "--dims", "2", "3"],
]


def outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout and stderr of one main call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_GRID, ids=lambda argv: " ".join(argv) or "no-args")
def test_command_parser_answers_as_the_full_tree(capsys, tmp_path, monkeypatch, argv):
    # a shell command line, which main reads from sys.argv, answers as the same
    # argv passed to main: both reach the one parser tree
    states.save(states.bell_state("phi+"), tmp_path / "bell.json")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    got = outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["pptnet", *argv])
    assert got == outcome(capsys, None)


def test_full_tree_errors_name_the_command_argument(capsys):
    # the parser names the subcommand argument by its dest
    for argv, message in (([], "required: command"), (["bogus"], "argument command: invalid")):
        code, out, err = outcome(capsys, argv)
        assert code == ("SystemExit", 1) and out == ""
        assert err.startswith("usage: pptnet [-h] [--version] {gen,check,simulate,verify,calibrate}")
        assert message in err


def test_main_builds_the_parser_tree_once(capsys, tmp_path, monkeypatch):
    path = gen(capsys, tmp_path, "bell.json", "bell")
    cli._build_parser.cache_clear()
    built = []
    init = cli._ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting_init)
    assert cli.main(["check", path]) == 0  # the first call builds every command's parser
    assert built == ["pptnet"] + [f"pptnet {command}" for command in cli.COMMANDS]
    assert len(built) == 6
    built.clear()
    assert cli.main(["check", path]) == 0  # later calls only parse
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
    assert built == []


@pytest.mark.parametrize(
    "line",
    [
        "verify --dims 3 3 --kmax 3 --trials 4",
        "check bell.json",
        "simulate bell.json --exact-probabilities",
        "calibrate --dims 2 3",
        "bogus",
    ],
)
def test_a_fresh_interpreter_prints_what_main_prints(capsys, tmp_path, monkeypatch, line):
    # the parsers are cached per process, yet no state carries across calls: a line run
    # twice in one interpreter prints what a new interpreter prints, errors included
    states.save(states.bell_state("phi+"), tmp_path / "bell.json")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    fresh = subprocess.run(
        [sys.executable, "-m", "pptnet.cli", *line.split()],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert fresh.returncode == (1 if line == "bogus" else 0), fresh.stderr
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        code, out, err = outcome(capsys, line.split())
        assert code == (("SystemExit", 1) if line == "bogus" else 0)
        assert (out, err) == (fresh.stdout, fresh.stderr)


def test_cached_parsers_answer_as_fresh_ones(capsys, tmp_path):
    # every grid argv, run twice in order and once in reverse in one process,
    # answers as it does on a cleared cache: parsing leaves no state behind
    states.save(states.bell_state("phi+"), tmp_path / "bell.json")
    grid = [[arg.format(tmp=tmp_path) for arg in argv] for argv in PARSER_GRID]
    fresh = {}
    for argv in grid:
        cli._build_parser.cache_clear()
        fresh[tuple(argv)] = outcome(capsys, argv)
    for argv in grid + grid + grid[::-1]:
        assert outcome(capsys, argv) == fresh[tuple(argv)], argv


def test_verify_passes(capsys):
    # equal and unequal local dims in both orders (the only case where the A and B
    # moment chains differ in size), the default 20 trials, and d^k = 1024 at k = 10
    for argv in (
        "--dims 2 2 --kmax 3 --trials 2",
        "--dims 3 3 --kmax 5 --trials 2",
        "--dims 2 3 --kmax 4 --trials 5",
        "--dims 3 2 --kmax 3 --trials 3",
        "--dims 2 2 --kmax 10 --trials 2",
        "--dims 2 2 --kmax 4",
    ):
        code, report = run(capsys, ["verify", *argv.split()])
        assert code == 0, argv
        assert report["pass"] is True
        assert report["tolerance"] == 1e-10
        names = {row["identity"] for row in report["identities"]}
        assert {"transpose_power_B", "transpose_power_A", "conjugate_pair_reality",
                "combined_shift_power", "purity_equality"} <= names
        for row in report["identities"]:
            assert row["status"] == "pass", (argv, row)
            assert row["max_dev"] < 1e-10


def reference_identity_rows(rho, moments_k, k, side_mats, trials):
    """One trial's identity rows at order k, one state and one shift matrix at a time;
    side_mats[side] holds the trial's k random matrices for side A (0) or B (1)."""
    d_a, d_b = rho.dims
    rows, checks = [], {}
    # the brute-force guard, which counts the terms of all trials, skips the
    # brute-force rows only; the shift products still run
    if trials * (d_a * d_b) ** k > permnet.BRUTEFORCE_TERM_GUARD:
        rows.append({"identity": "all_bruteforce", "k": k, "max_dev": None, "status": "skipped"})
    else:
        t_a, t_b, t_rho, eta = moments_k
        eta_b = permnet.shift_trace_bruteforce(rho, k, "inverse", "forward")
        eta_a = permnet.shift_trace_bruteforce(rho, k, "forward", "inverse")
        checks = {
            "transpose_power_B": abs(eta_b - eta),
            "transpose_power_A": abs(eta_a - eta),
            "conjugate_pair_reality": max(
                abs(eta_b.imag), abs(eta_a.imag), abs(eta_b - eta_a.conjugate())
            ),
            "reduced_power_A": abs(
                permnet.shift_trace_bruteforce(rho, k, "forward", "identity") - t_a
            ),
            "reduced_power_B": abs(
                permnet.shift_trace_bruteforce(rho, k, "identity", "forward") - t_b
            ),
            "combined_shift_power": abs(
                permnet.shift_trace_bruteforce(rho, k, "forward", "forward") - t_rho
            ),
        }
        if k == 2:
            checks["purity_equality"] = abs(eta - t_rho)
    for side, (label, d) in enumerate((("A", d_a), ("B", d_b))):
        if d**k > permnet.MATRIX_SIZE_GUARD or trials * d**k > permnet.TRIAL_ENTRY_BUDGET:
            rows.append(
                {"identity": f"shift_product_{label}", "k": k, "max_dev": None, "status": "skipped"}
            )
            continue
        mats = list(side_mats[side])
        r, c = string.ascii_uppercase[:k], string.ascii_lowercase[:k]
        subs = ",".join(a + b for a, b in zip(r, c)) + "->" + r + c
        big = np.einsum(subs, *mats).reshape(d**k, d**k)
        v_fwd = permnet.build_shift_matrix(k, d, "forward")
        dev = max(
            abs(np.trace(v_fwd.conj().T @ big) - np.trace(np.linalg.multi_dot(mats))),
            abs(np.trace(v_fwd @ big) - np.trace(np.linalg.multi_dot(mats[::-1]))),
        )
        checks[f"shift_product_{label}"] = dev
    for name, dev in checks.items():
        rows.append(
            {
                "identity": name,
                "k": k,
                "max_dev": float(dev),
                "status": "pass" if dev < cli.IDENTITY_TOL else "fail",
            }
        )
    return rows


def reference_draws(dims, kmax, trials, seed):
    """The suite's inputs as its streams lay them out, trial t in row t: one
    (trials, 2, D, D) normal draw from `seed` for the states, each made G G^dagger / Tr
    on its own, and one (trials, k, 2, d, d) draw from [seed, 1, k, side] for the k
    random matrices of side A (0) or B (1) at order k, real then imaginary part, each
    divided by its Frobenius norm."""
    d = dims[0] * dims[1]
    rhos = []
    for x in np.random.default_rng(seed).standard_normal((trials, 2, d, d)):
        g = x[0] + 1j * x[1]
        m = g @ g.conj().T
        rhos.append(states.DensityMatrix(tuple(dims), m / np.trace(m).real))
    mats = {}
    for k in range(2, kmax + 1):
        for side, d_side in enumerate(dims):
            rng = np.random.default_rng([seed, 1, k, side])
            x = rng.standard_normal((trials, k, 2, d_side, d_side))
            m = x[:, :, 0] + 1j * x[:, :, 1]
            mats[k, side] = m / np.sqrt(np.sum(np.abs(m) ** 2, axis=(2, 3), keepdims=True))
    return rhos, mats


def reference_verify_rows(dims, kmax, trials, seed, draws=None):
    """The identity suite trial by trial, keeping the largest deviation per row;
    trial t reads row t of `draws` (reference_draws), by default drawn for these trials."""
    rhos, mats = draws or reference_draws(dims, kmax, trials, seed)
    merged = {}
    for trial in range(trials):
        rho = rhos[trial]
        moments = network.mu_parameters(rho, kmax)
        for k in range(2, kmax + 1):
            side_mats = (mats[k, 0][trial], mats[k, 1][trial])
            for row in reference_identity_rows(rho, moments[k - 1], k, side_mats, trials):
                key = (row["identity"], k)
                prev = merged.get(key)
                if prev is None or (
                    row["max_dev"] is not None
                    and (prev["max_dev"] is None or row["max_dev"] > prev["max_dev"])
                ):
                    merged[key] = row
    return [merged[key] for key in sorted(merged)]


def break_shift_permutation(monkeypatch):
    """Replace every shift permutation by the identity of the same size."""
    shift = permnet.shift_permutation
    monkeypatch.setattr(
        permnet, "shift_permutation", lambda k, d, direction="forward": shift(k, d, "identity")
    )


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("dims, kmax, trials", [((2, 3), 3, 3), ((2, 2), 4, 4)])
def test_verify_matches_per_trial_reference(capsys, monkeypatch, dims, kmax, trials, broken):
    if broken:
        # On working code every deviation is rounding noise far below 1e-13, so
        # the rows would match whichever trial or random matrix they came from.
        # Broken oracles give deviations that depend on each trial's state and
        # random matrices, so a lost trial or a shifted stream shows.  The
        # stacked oracle is scaled state by state; the reference reaches it
        # through shift_trace_bruteforce, a stack of one.  The identity in
        # place of the shift gives Tr(m1)...Tr(mk) for Tr(m1...mk), and the
        # reference's build_shift_matrix reads the same broken permutation.
        oracle = permnet.shift_traces
        monkeypatch.setattr(
            permnet,
            "shift_traces",
            lambda mats, dims, k, a, b: oracle(mats, dims, k, a, b) * (1 + mats[:, 0, 0].real),
        )
        break_shift_permutation(monkeypatch)
    argv = ["verify", "--dims", *map(str, dims), "--kmax", str(kmax), "--trials", str(trials)]
    code, report = run(capsys, argv)
    assert code == (3 if broken else 0)
    ref = reference_verify_rows(dims, kmax, trials, seed=0)
    assert report["pass"] is all(row["status"] != "fail" for row in ref)
    got = report["identities"]
    assert [(r["identity"], r["k"], r["status"]) for r in got] == [
        (r["identity"], r["k"], r["status"]) for r in ref
    ]
    # chained matmul in place of multi_dot may differ in the last bits
    for g, r in zip(got, ref):
        assert (g["max_dev"] is None) == (r["max_dev"] is None)
        if r["max_dev"] is not None:
            assert abs(g["max_dev"] - r["max_dev"]) <= 1e-13 * max(1.0, r["max_dev"])


def test_verify_trials_read_a_prefix_of_longer_draws(capsys, monkeypatch):
    # A trial's inputs depend on neither --trials nor --kmax: 3 trials at kmax 3
    # are the first 3 rows of the draws of 5 trials at kmax 4.  The broken
    # oracles of test_verify_matches_per_trial_reference make every deviation
    # depend on its trial's state and random matrices, so a shifted row shows.
    oracle = permnet.shift_traces
    monkeypatch.setattr(
        permnet,
        "shift_traces",
        lambda mats, dims, k, a, b: oracle(mats, dims, k, a, b) * (1 + mats[:, 0, 0].real),
    )
    break_shift_permutation(monkeypatch)
    code, report = run(capsys, ["verify", "--dims", "2", "3", "--kmax", "3", "--trials", "3"])
    assert code == 3
    ref = reference_verify_rows((2, 3), 3, 3, 0, reference_draws((2, 3), 4, 5, seed=0))
    got = report["identities"]
    assert [(r["identity"], r["k"], r["status"]) for r in got] == [
        (r["identity"], r["k"], r["status"]) for r in ref
    ]
    for g, r in zip(got, ref):
        assert (g["max_dev"] is None) == (r["max_dev"] is None)
        if r["max_dev"] is not None:
            assert abs(g["max_dev"] - r["max_dev"]) <= 1e-13 * max(1.0, r["max_dev"])


def test_verify_builds_one_generator_per_input_stack(capsys, monkeypatch):
    # one for the states and one per admitted (k, side), whatever the trials
    seeds = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed)
    )
    cli._identity_rows([2, 2], 4, 500, 0)
    assert seeds == [0] + [[0, 1, k, side] for k in (2, 3, 4) for side in (0, 1)]
    # 70^2 is past the matrix guard: the skipped shift_product_B draws nothing
    seeds.clear()
    code, _ = run(capsys, ["verify", "--dims", "2", "70", "--kmax", "2", "--trials", "1"])
    assert code == 0
    assert seeds == [0, [0, 1, 2, 0]]
    # a refusal draws nothing; an admitted 10^8-trial stack would fail at once
    seeds.clear()
    monkeypatch.setattr(states, "random_densities", lambda *args: pytest.fail("state drawn"))
    for argv in (["--trials", "100000000"], ["--kmax", "13"], ["--dims", "101", "101"]):
        assert cli.main(["verify", *argv]) == 1
    assert seeds == []


def per_side_identity_rows(dims, kmax, trials, seed):
    """`cli._identity_rows` as it was before the sides that share a local dimension
    were checked in one call: one draw and one shift-product call per admitted (k, side),
    each matrix divided by its Frobenius norm."""
    plan = cli._verify_plan(dims, kmax, trials)
    mats = states.random_densities(dims, seed, trials)
    moments = network.moment_tables(mats, dims, kmax)
    devs = {}
    for k, (brute, calls) in plan.items():
        if not brute:
            devs["all_bruteforce", k] = None
        else:
            checks = cli._trace_checks(mats, dims, moments[:, k - 1], k)
            devs.update(((name, k), dev) for name, dev in checks.items())
        admitted = [side for call in calls for side in call]
        for side, (name, d) in enumerate(zip(("shift_product_A", "shift_product_B"), dims)):
            devs[name, k] = None
            if side in admitted:
                x = np.random.default_rng([seed, 1, k, side]).standard_normal((trials, k, 2, d, d))
                x /= np.sqrt(np.square(x).sum(axis=(2, 3, 4), keepdims=True))
                perm = permnet.shift_permutation(k, d, "forward")
                devs[name, k] = cli._shift_product_devs(x[:, :, 0] + 1j * x[:, :, 1], perm)
    rows = []
    for (name, k), dev in sorted(devs.items()):
        dev = None if dev is None else float(np.max(dev))
        status = "skipped" if dev is None else "pass" if dev < cli.IDENTITY_TOL else "fail"
        rows.append({"identity": name, "k": k, "max_dev": dev, "status": status})
    return rows


@pytest.mark.parametrize(
    "dims, kmax, budget, calls",
    [
        # equal local dims: one call per order on both sides' 2T rows
        ((2, 2), 4, None, [(2, 40), (3, 40), (4, 40)]),
        ((3, 3), 3, None, [(2, 40), (3, 40)]),
        # unequal local dims: one call per side, A before B
        ((2, 3), 4, None, [(k, 20) for k in (2, 3, 4) for _ in "AB"]),
        # at 20 x 16 entries the joint (40, 2^4) gathers are past the budget at k = 4
        # only (2 x 20 x 2^3 = 320 fits): there each side is its own call
        ((2, 2), 4, 20 * 16, [(2, 40), (3, 40), (4, 20), (4, 20)]),
    ],
)
def test_identity_rows_equal_the_per_side_loop_exactly(monkeypatch, dims, kmax, budget, calls):
    if budget is not None:
        monkeypatch.setattr(permnet, "TRIAL_ENTRY_BUDGET", budget)
    seen = []
    shift_product_devs = cli._shift_product_devs
    monkeypatch.setattr(
        cli,
        "_shift_product_devs",
        lambda mats, perm: seen.append(mats.shape[:2][::-1]) or shift_product_devs(mats, perm),
    )
    rows = cli._identity_rows(list(dims), kmax, 20, 3)
    assert seen == calls
    assert rows == per_side_identity_rows(list(dims), kmax, 20, 3)  # every max_dev to the bit
    assert all(row["status"] == "pass" for row in rows)


def reference_shift_product_devs(mats, v_fwd):
    """The identity the suite checks, through each trial's explicit Kronecker
    product m1 ⊗ ... ⊗ mk as one outer product, row digits before column digits."""
    _, k, d, _ = mats.shape
    r, c = string.ascii_uppercase[:k], string.ascii_lowercase[:k]
    subs = ",".join("z" + a + b for a, b in zip(r, c)) + "->z" + r + c
    big = np.einsum(subs, *mats.transpose(1, 0, 2, 3)).reshape(len(mats), d**k, d**k)
    shifted_adj = np.einsum("ij,zij->z", v_fwd.conj(), big)
    shifted = np.einsum("ij,zji->z", v_fwd, big)
    ordered = np.array([np.trace(np.linalg.multi_dot(list(m))) for m in mats])
    reversed_ = np.array([np.trace(np.linalg.multi_dot(list(m[::-1]))) for m in mats])
    return np.maximum(np.abs(shifted_adj - ordered), np.abs(shifted - reversed_))


@pytest.mark.parametrize("direction", ["forward", "identity"])
@pytest.mark.parametrize("k, d", [(2, 2), (3, 2), (4, 2), (3, 3), (2, 3), (5, 2)])
def test_shift_product_devs_match_kronecker_reference(k, d, direction):
    # the identity is a wrong shift: its deviations are O(1) and must agree
    # with the dense reference built from the same permutation too
    rng = np.random.default_rng(k * 10 + d)
    mats = rng.standard_normal((3, k, d, d)) + 1j * rng.standard_normal((3, k, d, d))
    perm = permnet.shift_permutation(k, d, direction)
    got = cli._shift_product_devs(mats, perm)
    ref = reference_shift_product_devs(mats, permnet.permutation_matrix(perm))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, ref))
    if direction == "forward":
        assert np.all(got < cli.IDENTITY_TOL)
    else:
        assert np.all(got > 1e-3)


@pytest.fixture(scope="module")
def top_order_draws():
    # side B's draws at the matrix guard's edge, 2^12, for the most trials the budget
    # admits there: 1024 x 2^12 = 2^22 gathered entries
    return cli._random_matrices(0, 12, [1], 1024, 2)


def test_shift_product_rounding_stays_far_below_the_tolerance_at_the_top_order(top_order_draws):
    # each matrix is divided by its Frobenius norm, so the 2^12 absolute terms of a
    # trace add up to at most 1; unscaled Gaussian draws read 1.5e-10 here, past 1e-10
    assert_allclose(np.linalg.norm(top_order_draws, axis=(2, 3)), 1.0, rtol=1e-15)
    devs = cli._shift_product_devs(top_order_draws, permnet.shift_permutation(12, 2))
    assert devs.shape == (1024,)
    assert np.max(devs) < 1e-13 < cli.IDENTITY_TOL


def test_a_broken_shift_is_still_caught_at_the_top_order(top_order_draws):
    # the identity in place of the shift reads Tr(m1)...Tr(mk) for Tr(m1...mk):
    # normalised inputs keep every trial's deviation far above the tolerance
    devs = cli._shift_product_devs(top_order_draws, permnet.shift_permutation(12, 2, "identity"))
    assert np.min(devs) > 1e-3


def test_shift_product_memory_stays_below_one_kronecker_product():
    # d = 2, k = 8: one Kronecker product is 256 x 256 (1 MiB).  The
    # permutation gather holds a few (trials, 256) arrays instead: 20 trials
    # peak well under one product, and each trial adds O(d^k) entries, not O(d^2k)
    perm = permnet.shift_permutation(8, 2, "forward")
    rng = np.random.default_rng(3)
    peaks, devs = [], []
    for trials in (1, 20):
        mats = rng.standard_normal((trials, 8, 2, 2)) + 1j * rng.standard_normal((trials, 8, 2, 2))
        tracemalloc.start()
        try:
            devs.append(cli._shift_product_devs(mats, perm))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert devs[1].shape == (20,)
    assert np.all(np.concatenate(devs) < cli.IDENTITY_TOL)
    assert peaks[1] < 2**20
    assert (peaks[1] - peaks[0]) / 19 < 8 * 256 * 16


def test_identity_rows_at_the_matrix_guard_hold_no_dense_shift():
    # d_B^k = 16^3 = 4096 is the guard edge: a dense shift matrix there is
    # 4096 x 4096 complex (256 MiB), the (T, d^k) gathers a few 64 KiB arrays
    tracemalloc.start()
    try:
        rows = cli._identity_rows([2, 16], 3, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # no row is skipped, so shift_product_B ran at k = 3
    assert all(row["status"] == "pass" for row in rows)
    assert ("shift_product_B", 3) in [(row["identity"], row["k"]) for row in rows]


def test_verify_marks_guarded_checks_skipped(capsys):
    code, report = run(capsys, ["verify", "--dims", "2", "70", "--kmax", "2", "--trials", "1"])
    assert code == 0
    assert report["pass"] is True
    by_name = {row["identity"]: row for row in report["identities"]}
    assert by_name["shift_product_B"]["status"] == "skipped"
    assert by_name["shift_product_B"]["max_dev"] is None
    assert by_name["transpose_power_B"]["status"] == "pass"


def test_verify_brute_force_guard_skips_only_the_brute_force_rows(capsys, monkeypatch):
    # 3 trials x 4^4 = 768 terms pass the guard at 3 x 64 only up to k = 3, while
    # the shift products (2^4 = 16 <= MATRIX_SIZE_GUARD) are still checked at k = 4
    monkeypatch.setattr(permnet, "BRUTEFORCE_TERM_GUARD", 3 * 64)
    argv = ["verify", "--dims", "2", "2", "--kmax", "4", "--trials", "3"]
    code, report = run(capsys, argv)
    assert code == 0 and report["pass"] is True
    at_4 = {row["identity"]: row for row in report["identities"] if row["k"] == 4}
    assert at_4["all_bruteforce"] == {
        "identity": "all_bruteforce", "k": 4, "max_dev": None, "status": "skipped"
    }
    assert at_4.keys() == {"all_bruteforce", "shift_product_A", "shift_product_B"}
    for name in ("shift_product_A", "shift_product_B"):
        assert at_4[name]["status"] == "pass" and at_4[name]["max_dev"] < cli.IDENTITY_TOL
    # the orders below the guard are unchanged by the rows past it
    _, low = run(capsys, argv[:-3] + ["3", "--trials", "3"])
    assert low["identities"] == [row for row in report["identities"] if row["k"] <= 3]
    # a wrong shift permutation makes each deviation depend on its trial's random
    # matrices, so the draws past the guard must come from the reference's streams
    break_shift_permutation(monkeypatch)
    code, broken = run(capsys, argv)
    assert code == 3
    ref = reference_verify_rows((2, 2), 4, 3, seed=0)
    assert [(r["identity"], r["k"], r["status"]) for r in broken["identities"]] == [
        (r["identity"], r["k"], r["status"]) for r in ref
    ]
    for g, r in zip(broken["identities"], ref):
        assert (g["max_dev"] is None) == (r["max_dev"] is None)
        if r["max_dev"] is not None:
            assert abs(g["max_dev"] - r["max_dev"]) <= 1e-13 * max(1.0, r["max_dev"])


def test_verify_shift_product_runs_past_the_brute_force_guard(capsys):
    # 140^4 terms are past the brute-force guard, 2^4 is far inside the matrix guard
    code, report = run(capsys, ["verify", "--dims", "2", "70", "--kmax", "4", "--trials", "1"])
    assert code == 0 and report["pass"] is True
    at_4 = {row["identity"]: row["status"] for row in report["identities"] if row["k"] == 4}
    assert at_4 == {
        "all_bruteforce": "skipped", "shift_product_A": "pass", "shift_product_B": "skipped"
    }


def test_verify_refuses_orders_past_every_guard(capsys, monkeypatch):
    # with the guards at 2 trials x 64 terms and d^k <= 8, 2x2 reaches k = 3 (2 x 4^3 = 128,
    # 2^3 = 8) and no check reaches k = 4; 10^12 is refused at once, before any moment
    # table is sized
    monkeypatch.setattr(permnet, "BRUTEFORCE_TERM_GUARD", 2 * 64)
    monkeypatch.setattr(permnet, "MATRIX_SIZE_GUARD", 8)
    code, report = run(capsys, ["verify", "--kmax", "3", "--trials", "2"])
    assert code == 0 and report["pass"] is True
    assert {row["status"] for row in report["identities"] if row["k"] == 3} == {"pass"}
    for kmax in ("4", "1000000000000"):
        code = cli.main(["verify", "--kmax", kmax, "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"--kmax must be <= 3 at dims [2, 2], got {kmax}" in captured.err


def test_verify_brute_force_guard_counts_every_trial(capsys, monkeypatch):
    # the real guard admits the default 20 trials up to k = 11 (INPUT_REFUSALS refuses k = 13)
    assert 20 * 4**11 <= permnet.BRUTEFORCE_TERM_GUARD < 20 * 4**12
    # at a guard of 4^4 terms, one 2x2 state is checked by brute force at k = 4,
    # while 20 states (20 x 4^4 terms in one oracle call) are not
    monkeypatch.setattr(permnet, "BRUTEFORCE_TERM_GUARD", 4**4)
    at_4 = {}
    for trials in ("1", "20"):
        code, report = run(capsys, ["verify", "--kmax", "4", "--trials", trials])
        assert code == 0 and report["pass"] is True
        rows = report["identities"]
        at_4[trials] = {row["identity"]: row["status"] for row in rows if row["k"] == 4}
    assert at_4["1"]["transpose_power_B"] == "pass" and "all_bruteforce" not in at_4["1"]
    assert at_4["20"] == {
        "all_bruteforce": "skipped", "shift_product_A": "pass", "shift_product_B": "pass"
    }
    mats = np.array([states.werner(0.5).matrix] * 20)
    assert permnet.shift_traces(mats[:1], (2, 2), 4, "inverse", "forward").shape == (1,)
    with pytest.raises(ValueError, match="20 x 4\\^4 terms exceed the brute-force guard"):
        permnet.shift_traces(mats, (2, 2), 4, "inverse", "forward")


def test_verify_shift_product_guard_counts_every_trial(capsys, monkeypatch):
    # at an entry budget of 2^5, which admits the stack of two 2x2 states (2 x 16
    # entries), one trial's 2^5 shift product is checked at k = 5, while two
    # trials (2 x 2^5 entries in one gather) are not
    monkeypatch.setattr(permnet, "TRIAL_ENTRY_BUDGET", 2**5)
    at_k = {}
    for trials in ("1", "2"):
        code, report = run(capsys, ["verify", "--kmax", "5", "--trials", trials])
        assert code == 0 and report["pass"] is True
        for row in report["identities"]:
            if row["identity"].startswith("shift_product"):
                at_k[trials, row["identity"], row["k"]] = row["status"]
    for label in ("A", "B"):
        assert [at_k["1", f"shift_product_{label}", k] for k in (2, 3, 4, 5)] == ["pass"] * 4
        assert [at_k["2", f"shift_product_{label}", k] for k in (2, 3, 4, 5)] == [
            "pass", "pass", "pass", "skipped"
        ]
    # the default 20 trials at 2^12 entries and 1024 trials at the matrix guard stay admitted
    monkeypatch.undo()
    assert cli._verify_plan([2, 2], 12, 20)[12] == (False, [[0, 1]])
    assert cli._verify_plan([2, 16], 3, 1024)[3] == (True, [[0], [1]])
    assert cli._verify_plan([2, 16], 3, 1025)[3] == (True, [[0]])
    assert cli._verify_plan([2, 2], 13, 1)[13] == (True, [])


def test_verify_refusal_counts_the_trials_of_the_shift_products(capsys, monkeypatch):
    # brute force reaches k = 2 for one or two trials (2 x 4^2 = 32 terms); at an entry
    # budget of 2^5, which admits both stacks, the gathers reach k = 5 for one trial
    # (2^5 entries) but only k = 4 for two
    monkeypatch.setattr(permnet, "BRUTEFORCE_TERM_GUARD", 2 * 16)
    monkeypatch.setattr(permnet, "TRIAL_ENTRY_BUDGET", 2**5)
    monkeypatch.setattr(states, "random_densities", lambda *args: pytest.fail("--kmax 6 admitted"))
    for trials, last in (("1", 5), ("2", 4)):
        code = cli.main(["verify", "--kmax", "6", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"--kmax must be <= {last} at dims [2, 2], got 6" in captured.err


def test_verify_state_stack_refusal_names_the_flag_that_trips(capsys, monkeypatch):
    # at an entry budget of 2^6, four 2x2 states (4 x 16 entries) are admitted and
    # five are not; one 3x3 state (81 entries) is past the budget at any --trials
    monkeypatch.setattr(permnet, "TRIAL_ENTRY_BUDGET", 2**6)
    code, report = run(capsys, ["verify", "--kmax", "3", "--trials", "4"])
    assert code == 0 and report["pass"] is True
    monkeypatch.setattr(states, "random_densities", lambda *args: pytest.fail("state drawn"))
    for argv, message in (
        (["--trials", "5"], "--trials must be <= 4 at dims [2, 2], got 5"),
        (["--dims", "3", "3", "--trials", "1"], "--dims must have d_A*d_B <= 8, got [3, 3]"),
    ):
        code = cli.main(["verify", "--kmax", "3", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err
    # the suite refuses on its own, before it draws a state
    with pytest.raises(ValueError, match=r"--trials must be <= 4 at dims \[2, 2\], got 5"):
        cli._identity_rows([2, 2], 3, 5, 0)
    with pytest.raises(ValueError, match=r"--dims must have d_A\*d_B <= 8, got \[3, 3\]"):
        cli._identity_rows([3, 3], 3, 1, 0)


def test_verify_entry_budget_bounds_the_state_stack(capsys, monkeypatch):
    # at the real budget of 2^22 entries, read from the plan alone: 2x2 up to
    # 262144 trials, 16x16 up to 64, one state up to d_A*d_B = 2048
    assert permnet.TRIAL_ENTRY_BUDGET == 2**22 < permnet.BRUTEFORCE_TERM_GUARD
    for dims, most in (([2, 2], 2**18), ([16, 16], 64), ([2, 1024], 1)):
        assert cli._verify_plan(dims, 2, most)[2][0]  # brute force runs at k = 2
        with pytest.raises(ValueError, match=f"--trials must be <= {most} at dims"):
            cli._verify_plan(dims, 2, most + 1)
    with pytest.raises(ValueError, match="--dims must have d_A\\*d_B <= 2048, got \\[2, 1025\\]"):
        cli._verify_plan([2, 1025], 2, 1)
    # the edge runs: each input stack is one seeded draw
    code, report = run(capsys, ["verify", "--dims", "2", "2", "--kmax", "2", "--trials", "262144"])
    assert code == 0 and report["pass"] is True
    # a million 2x70 states would be a 313 GB stack: refused before any is drawn
    monkeypatch.setattr(states, "random_densities", lambda *args: pytest.fail("state drawn"))
    code = cli.main(["verify", "--dims", "2", "70", "--kmax", "2", "--trials", "1000000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--trials must be <= 213 at dims [2, 70], got 1000000" in captured.err


def test_calibrate(capsys):
    # the readout map halves the parity signal: eta_scale is 2 up to its last bits, through
    # the stage-one gather plan of 2x2, 3x3 and unequal local dims in both orders
    for dims in (["2", "2"], ["2", "3"], ["3", "3"], ["3", "2"]):
        code, report = run(capsys, ["calibrate", "--dims", *dims])
        assert code == 0
        assert_allclose(report["eta_scale"], 2.0, rtol=0, atol=1e-9, err_msg=str(dims))
        assert all(row["residual"] < 1e-9 for row in report["states"]), dims


def test_gen_dims_default_and_agreeing_dims(capsys, tmp_path):
    # random and separable default to 2x2; the other kinds accept --dims that match their state
    for argv in (["random"], ["separable"], ["werner", "--p", "0.5", "--dims", "2", "2"]):
        path = gen(capsys, tmp_path, "x.json", *argv)
        assert states.load(path).dims == (2, 2)


@pytest.fixture
def refusal_files(tmp_path):
    """Input files the refusal tests read: a 2x2 and a 2x3 state, a truncated
    copy of the first, one with a quoted entry, one with dims [2.7, 2] and one
    with a bare NaN entry, a JSON list, a matrix whose entries are words, and a
    real 4x4 matrix under dims [2, 2]."""
    states.save(states.bell_state("phi+"), tmp_path / "bell.json")
    states.save(states.random_density((2, 3), 0), tmp_path / "random_2x3.json")
    text = (tmp_path / "bell.json").read_text()
    (tmp_path / "truncated.json").write_text(text[: len(text) // 2])
    quoted, float_dims, nan = json.loads(text), json.loads(text), json.loads(text)
    quoted["matrix"][0][0] = ["0.5", "0"]
    float_dims["dims"] = [2.7, 2]
    nan["matrix"][0][1][1] = float("nan")  # json writes a bare NaN token
    for name, doc in (("quoted", quoted), ("float_dims", float_dims), ("nan", nan)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "list.json").write_text(json.dumps([[2, 2], []]))
    words = {"dims": [2, 2], "matrix": [[["one", "zero"]] * 4] * 4}
    (tmp_path / "words.json").write_text(json.dumps(words))
    (tmp_path / "real.json").write_text(json.dumps({"dims": [2, 2], "matrix": [[1.0] * 4] * 4}))
    return tmp_path


WEIGHTS = "weights must be finite and nonnegative, one per input"
BUDGET = permnet.TRIAL_ENTRY_BUDGET

# id -> (argv, message); paths are relative to the refusal_files directory
INPUT_REFUSALS = {
    "werner without p": (["gen", "werner"], "werner requires --p"),
    "mix without inputs": (["gen", "mix"], "mix requires --inputs"),
    "werner with foreign dims": (
        ["gen", "werner", "--p", "0.5", "--dims", "3", "3"], "--dims [3, 3]: the werner state is 2x2"
    ),
    "bell with foreign dims": (
        ["gen", "bell", "--dims", "2", "3"], "--dims [2, 3]: the bell state is 2x2"
    ),
    "mix with foreign dims": (
        ["gen", "mix", "--inputs", "random_2x3.json", "--dims", "3", "2"],
        "--dims [3, 2]: the mix state is 2x3",
    ),
    "mix of 2x2 and 2x3": (
        ["gen", "mix", "--inputs", "bell.json", "random_2x3.json"], "mix inputs must share dimensions"
    ),
    "mix with more weights than inputs": (
        ["gen", "mix", "--inputs", "bell.json", "--weights", "0.5", "0.5"], WEIGHTS
    ),
    "mix with a NaN weight": (
        ["gen", "mix", "--inputs", "bell.json", "bell.json", "--weights", "nan", "1"], WEIGHTS
    ),
    "werner past p = 1": (
        ["gen", "werner", "--p", "1.5"], "mixing parameter must lie in [0, 1], got 1.5"
    ),
    "unknown bell state": (["gen", "bell", "--which", "sigma+"], "unknown Bell state 'sigma+'"),
    # verify's limit, refused before any array is allocated
    **{
        f"{kind} past the dims limit at {a}x{b}": (
            ["gen", kind, "--dims", a, b], f"--dims must have d_A*d_B <= 2048, got [{a}, {b}]"
        )
        for kind in ("random", "separable")
        for a, b in (("1000", "1000"), ("2", "1025"))
    },
    # one Dirichlet weight per term: 10^12 terms once ended in a 7.28 TiB MemoryError
    **{
        f"separable with {terms} terms": (
            ["gen", "separable", "--terms", str(terms)], f"--terms must be <= {BUDGET}, got {terms}"
        )
        for terms in (BUDGET + 1, 10**12)
    },
    # checked before any array is sized from the dims
    **{
        f"{command[0]} at dims {d_a} 2": (
            [*command, "--dims", d_a, "2"], f"local dimensions must be >= 2, got ({d_a}, 2)"
        )
        for command in (["calibrate"], ["verify"], ["gen", "random"])
        for d_a in ("0", "-2", "1")
    },
    "check missing file": (["check", "nope.json"], "[Errno 2] No such file or directory"),
    "check truncated": (["check", "truncated.json"], "malformed JSON in"),
    "check list": (["check", "list.json"], "expected object with 'dims' and 'matrix'"),
    "check words": (["check", "words.json"], "matrix entries must be [re, im] pairs"),
    "check quoted number": (["check", "quoted.json"], "must be JSON numbers"),
    "check 4x4 matrix at dims 2 2": (
        ["check", "real.json"], "matrix shape (4, 4) does not match dims 2x2"
    ),
    "check non-integer dims": (
        ["check", "float_dims.json"], "dims must be a list of two integers, got [2.7, 2]"
    ),
    # a NaN once failed as "Eigenvalues did not converge"
    "check NaN entry": (["check", "nan.json"], "matrix entries must be finite"),
    # the multinomial draws take int64 counts: 2^63 shots is an input error, not an OverflowError
    "simulate 2^63 shots": (
        ["simulate", "bell.json", "--shots", str(2**63)],
        f"shots_per_k must be in [1, 2**63 - 1], got {2**63}",
    ),
    # two 3600 x 3600 probes, refused before they are built
    "calibrate past the matrix guard": (["calibrate", "--dims", "60", "60"], "exceeds guard 4096"),
    "verify kmax 1": (["verify", "--kmax", "1"], "--kmax must be >= 2, got 1"),
    "verify trials 0": (["verify", "--trials", "0"], "--trials must be >= 1, got 0"),
    # 20 trials x 4^11 terms is the last brute-force order within the guard, and the shift
    # products stop at 2^12 = 4096: an admitted --kmax 13 would take minutes
    "verify kmax past the guards": (
        ["verify", "--kmax", "13"], "--kmax must be <= 12 at dims [2, 2], got 13"
    ),
    # 2x70 is past the brute-force guard from k = 4 on, 2^13 past the matrix guard
    "verify kmax past the last shift product": (
        ["verify", "--dims", "2", "70", "--kmax", "13", "--trials", "1"],
        "--kmax must be <= 12 at dims [2, 70], got 13",
    ),
    # 10^8 2x2 states are 16 x 10^8 entries, past the 2^22 entry budget
    "verify 10^8 trials": (
        ["verify", "--trials", "100000000"],
        "--trials must be <= 262144 at dims [2, 2], got 100000000",
    ),
    # the parser's refusals: each names the argument, and numpy never sees it
    "no command": ([], "the following arguments are required: command"),
    "simulate shots many": (
        ["simulate", "bell.json", "--shots", "many"], "argument --shots: invalid int value: 'many'"
    ),
    **{
        f"{argv[0]} seed -1": (
            [*argv, "--seed", "-1"], "--seed must be a nonnegative integer, got -1"
        )
        for argv in (["gen", "random"], ["verify"], ["simulate", "bell.json"])
    },
    # removed options: order 2 reads the same distribution with or without the k = 2
    # shortcut, there is no noise gate, and the bootstrap replica count is fixed
    "simulate no-k2-shortcut": (
        ["simulate", "bell.json", "--shots", "20000", "--seed", "2", "--no-k2-shortcut"],
        "unrecognized arguments: --no-k2-shortcut",
    ),
    "simulate eta-scale": (
        ["simulate", "bell.json", "--eta-scale", "2"], "unrecognized arguments: --eta-scale 2"
    ),
    **{
        f"{command} z": ([command, "bell.json", "--z", "3"], "unrecognized arguments: --z 3")
        for command in ("check", "simulate")
    },
    **{
        f"simulate bootstrap {count}": (
            ["simulate", "bell.json", "--bootstrap", count],
            f"unrecognized arguments: --bootstrap {count}",
        )
        for count in ("1", "0", "200")
    },
}


@pytest.mark.parametrize("argv, message", INPUT_REFUSALS.values(), ids=INPUT_REFUSALS.keys())
def test_incomplete_or_malformed_inputs_exit_1(capsys, monkeypatch, refusal_files, argv, message):
    # exit 1 with a named reason: nothing on stdout, no file written, no state drawn
    monkeypatch.chdir(refusal_files)
    for draw in ("random_density", "random_separable", "random_densities"):
        monkeypatch.setattr(states, draw, lambda *args, draw=draw: pytest.fail(f"{draw} called"))
    if argv[:1] == ["gen"]:
        argv = [*argv, "--out", "out.json"]
    files = {path.name: path.read_bytes() for path in refusal_files.iterdir()}
    code, out, err = outcome(capsys, argv)
    # a command refuses through main's return value, an argument through the parser
    prefix = {1: "error: ", ("SystemExit", 1): "usage: pptnet"}
    assert code in prefix and err.startswith(prefix[code])
    assert out == ""
    assert message in err
    assert "Traceback" not in err
    assert {path.name: path.read_bytes() for path in refusal_files.iterdir()} == files


def test_calibrate_disagreement_exits_2(capsys, monkeypatch):
    # no residual is below a negative tolerance: main's EstimationError handler answers
    monkeypatch.setattr(estimation, "CALIBRATION_TOL", -1.0)
    code = cli.main(["calibrate"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: calibration states disagree: residual ")
    assert "Traceback" not in captured.err

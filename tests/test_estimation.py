"""Tests for shot sampling, power-sum estimation, and spectrum recovery."""

import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pptnet import estimation as est
from pptnet import linalg, network, states
from test_network import state_family

BELL_POWER_SUMS = np.array([1.0, 1.0, 0.25, 0.25])


def degenerate_dist(k=2):
    return network.outcome_distribution(k, np.array([1.0, 0.0, 0.0, 0.0]), 4)


def test_sample_shots_degenerate():
    counts = est.sample_shots(degenerate_dist(), 1000, np.random.default_rng(0))
    assert counts.k == 2
    assert_array_equal(counts.n, [1000, 0, 0, 0])


def test_sample_shots_deterministic():
    dist = network.stage_two_distribution(states.bell_state("phi+"), 3)
    a = est.sample_shots(dist, 5000, np.random.default_rng(7))
    b = est.sample_shots(dist, 5000, np.random.default_rng(7))
    assert a.k == b.k == 3
    assert_array_equal(a.n, b.n)
    assert not np.array_equal(a.n, est.sample_shots(dist, 5000, np.random.default_rng(8)).n)


def test_sample_shots_uniform_within_binomial_noise():
    dist = network.outcome_distribution(2, np.full(4, 0.25), 4)
    counts = est.sample_shots(dist, 1_000_000, np.random.default_rng(1)).n
    assert np.all(np.abs(counts - 250_000) < 5 * math.sqrt(1e6 * 0.25 * 0.75))


def test_sample_shots_rejects_bad_n():
    with pytest.raises(ValueError):
        est.sample_shots(degenerate_dist(), 0, np.random.default_rng(0))


def test_eta_from_counts_frozen():
    eta, se = est.eta_from_counts(np.array([1000, 0, 0, 0]))
    assert eta == 1.0 and se == 0.0
    eta, se = est.eta_from_counts(np.array([4375, 1875, 1875, 1875]))
    assert_allclose(eta, 0.25)
    assert_allclose(se, math.sqrt(0.9375 / 10_000))


def test_eta_from_counts_balanced_is_zero():
    eta, _ = est.eta_from_counts(np.array([2500, 2500, 2500, 2500]))
    assert eta == 0.0


def test_eta_from_counts_rejects_empty():
    with pytest.raises(ValueError):
        est.eta_from_counts(np.zeros(4, dtype=int))
    with pytest.raises(ValueError):  # one empty row among several
        est.eta_from_counts(np.array([[10, 0, 0, 0], [0, 0, 0, 0]]))
    # a negative count once read as eta = -3 with standard error 0
    for counts in ([-1, 2, 0, 0], [[10, 0, 0, 0], [5, -1, 0, 0]]):
        with pytest.raises(ValueError, match="negative counts"):
            est.eta_from_counts(np.array(counts))


def test_calibrate_eta_scale():
    assert_allclose(est.calibrate_eta_scale((2, 2)), 2.0, atol=1e-12)
    assert_allclose(est.calibrate_eta_scale((2, 3)), 2.0, atol=1e-12)


def test_calibration_report_structure():
    report = est.calibration_report((2, 2))
    assert set(report) == {"eta_scale", "states"}
    assert [row["state"] for row in report["states"]] == ["maximally_mixed", "pure_product"]
    assert all(row["residual"] < 1e-9 for row in report["states"])


def test_calibration_refuses_oversize_dims_before_building_probes():
    # two 3600 x 3600 complex probes would take 415 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds guard 4096"):
            est.calibration_report((60, 60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_power_sums_exact_bell():
    ps = est.power_sums_exact(states.bell_state("phi+"))
    assert len(ps.p) == 4 and ps.source == "exact"
    assert_allclose(ps.p, BELL_POWER_SUMS, atol=1e-12)
    assert ps.order(3) == ps.p[2]


def test_power_sums_exact_maximally_mixed():
    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        rho = states.DensityMatrix(dims, np.eye(d, dtype=complex) / d)
        ps = est.power_sums_exact(rho)
        assert_allclose(ps.p, [d ** (1 - k) for k in range(1, d + 1)], atol=1e-12)


def test_power_sums_exact_identities():
    for seed in range(10):
        rho = states.random_density((2, 3), seed=seed)
        ps = est.power_sums_exact(rho)
        assert_allclose(ps.p[0], 1.0)
        purity = np.trace(linalg.mat_power(rho.matrix, 2)).real
        assert_allclose(ps.p[1], purity, atol=1e-10)


def test_estimate_power_sums_exact_probabilities():
    cfg = est.EstimationConfig()
    ps = est.estimate_power_sums(states.bell_state("phi+"), cfg, exact_probabilities=True)
    assert ps.source == "exact"
    assert_allclose(ps.p, BELL_POWER_SUMS, atol=1e-12)


def test_estimate_power_sums_product_state_shots():
    rho = states.random_separable((2, 2), terms=1, seed=3)
    cfg = est.EstimationConfig(shots_per_k=1000, seed=0)
    ps = est.estimate_power_sums(rho, cfg)
    assert ps.source == "estimated"
    assert_allclose(ps.p, np.ones(4), atol=1e-9)


def test_estimate_power_sums_deterministic():
    bell = states.bell_state("phi+")
    cfg = est.EstimationConfig(shots_per_k=10_000, seed=5)
    a = est.estimate_power_sums(bell, cfg)
    b = est.estimate_power_sums(bell, cfg)
    assert np.array_equal(a.p, b.p)
    c = est.estimate_power_sums(bell, est.EstimationConfig(shots_per_k=10_000, seed=6))
    assert not np.array_equal(a.p, c.p)


def test_estimate_power_sums_tracks_truth():
    bell = states.bell_state("phi+")
    cfg = est.EstimationConfig(shots_per_k=200_000, seed=0)
    ps = est.estimate_power_sums(bell, cfg)
    # every k=2 shot of a pure state lands in an even-parity bin: zero variance
    assert ps.p[1] == 1.0 and ps.stderr[1] == 0.0
    for k in (3, 4):
        se = ps.stderr[k - 1]
        assert se > 0
        assert abs(ps.p[k - 1] - BELL_POWER_SUMS[k - 1]) < 5 * se


def test_k2_shortcut_matches_full_route_exactly():
    for seed in range(5):
        rho = states.random_density((2, 2), seed=seed)
        with_shortcut = est.estimate_power_sums(
            rho, est.EstimationConfig(use_k2_shortcut=True), exact_probabilities=True
        )
        without = est.estimate_power_sums(
            rho, est.EstimationConfig(use_k2_shortcut=False), exact_probabilities=True
        )
        assert_allclose(with_shortcut.p, without.p, atol=1e-12)
        purity = np.trace(linalg.mat_power(rho.matrix, 2)).real
        assert_allclose(with_shortcut.p[1], purity, atol=1e-12)


def test_estimation_config_validation():
    with pytest.raises(ValueError):
        est.EstimationConfig(shots_per_k=0)
    # the multinomial draws take int64 counts
    with pytest.raises(ValueError, match=r"shots_per_k must be in \[1, 2\*\*63 - 1\]"):
        est.EstimationConfig(shots_per_k=2**63)
    assert est.EstimationConfig(shots_per_k=2**63 - 1).shots_per_k == 2**63 - 1
    with pytest.raises(ValueError):
        est.EstimationConfig(seed=-1)
    with pytest.raises(ValueError):
        est.EstimationConfig(bootstrap_replicas=-1)
    # no z: the shot-mode verdict is the certificate's, and no gate reads sigma
    with pytest.raises(TypeError):
        est.EstimationConfig(z=3.0)


def test_one_bootstrap_replica_is_an_input_error():
    # one replica has no sample spread: bootstrap_lambda_min's sigma (ddof = 1) is undefined for it
    with pytest.raises(ValueError, match="bootstrap_replicas must be 0 or >= 2, got 1"):
        est.EstimationConfig(bootstrap_replicas=1)
    bell = states.bell_state("phi+")
    # run_protocol does not read the replica count: 0, 2 and 200 give one result, bit for bit
    none, *others = (
        est.run_protocol(bell, est.EstimationConfig(shots_per_k=1000, bootstrap_replicas=b))
        for b in (0, 2, 200)
    )
    assert none.sigma > 0
    for other in others:
        assert_array_equal(other.power_sums.p, none.power_sums.p)
        assert_array_equal([c.n for c in other.counts_per_k], [c.n for c in none.counts_per_k])
        assert_array_equal(other.spectrum.lambdas, none.spectrum.lambdas)
        assert other.verdict == none.verdict
        assert other.interval == none.interval and other.sigma == none.sigma


MISTYPED_CONFIG_FIELDS = [
    *(
        pytest.param(field, value, "an integer", id=f"{value}-{field}")
        for field in ("shots_per_k", "seed", "bootstrap_replicas")
        for value in (1000.0, 1000.9, 1.5, True, False, "1000", None)
    ),
    # "no", 0.5 and 1 would run with the k = 2 shortcut on, 0 and None with it off
    *(
        pytest.param("use_k2_shortcut", value, "a bool", id=f"{value}-use_k2_shortcut")
        for value in ("no", 0.5, 1, 0, None)
    ),
]


@pytest.mark.parametrize("field, value, kind", MISTYPED_CONFIG_FIELDS)
def test_config_refuses_non_integer_counts(field, value, kind):
    # the draws would truncate a float (and read a bool as 0 or 1) without notice
    with pytest.raises(ValueError, match=f"{field} must be {kind}, got {value!r}"):
        est.EstimationConfig(**{field: value})
    # numpy integers are integers, numpy bools are bools
    typed = np.int64(1000) if kind == "an integer" else np.False_
    assert getattr(est.EstimationConfig(**{field: typed}), field) == typed


def test_bootstrap_lambda_min_refuses_zero_replicas():
    # 0 is run_protocol's no-bootstrap mode, never a bootstrap of no replicas
    counts = [est.ShotCounts(k, np.array([1000, 0, 0, 0])) for k in (2, 3, 4)]
    with pytest.raises(ValueError, match="bootstrap requires bootstrap_replicas >= 2"):
        est.bootstrap_lambda_min(counts, est.EstimationConfig(bootstrap_replicas=0))


def test_power_sums_stderr_is_required():
    with pytest.raises(TypeError):
        est.PowerSums(np.ones(4), "exact")


def test_spectrum_from_power_sums_rank_one():
    ps = est.PowerSums(np.ones(4), "exact", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    assert_allclose(spec.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-8)


def test_spectrum_from_power_sums_fourfold_degenerate():
    ps = est.PowerSums(np.array([1.0, 0.25, 0.0625, 0.015625]), "exact", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    # cluster merging recovers the fourfold root that raw root finding splits
    assert_allclose(spec.lambdas, np.full(4, 0.25), atol=1e-9)
    assert 0 < spec.residual_imag < 1e-3


def test_spectrum_from_power_sums_bell():
    ps = est.PowerSums(BELL_POWER_SUMS, "exact", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    assert_allclose(spec.lambdas, [0.5, 0.5, 0.5, -0.5], atol=1e-8)
    assert_allclose(spec.lambdas.sum(), 1.0, atol=1e-8)


def test_spectrum_cap_override_rejects():
    # residual 0.90 lies above EXACT_IMAG_CAP, so the exact-source cap rejects it
    ps = est.PowerSums(np.array([1.0, -0.9, 0.8, -0.7]), "exact", np.zeros(4))
    with pytest.raises(est.SpectrumTooNoisyError):
        est.spectrum_from_power_sums(ps)


def test_spectrum_too_noisy_estimated_source():
    ps = est.PowerSums(np.array([1.0, -0.9, 0.8, -0.7]), "estimated", np.zeros(4))
    with pytest.raises(est.SpectrumTooNoisyError):
        est.spectrum_from_power_sums(ps)


def test_spectrum_estimated_source_skips_clustering():
    ps = est.PowerSums(BELL_POWER_SUMS, "estimated", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    assert_allclose(spec.lambdas, [0.5, 0.5, 0.5, -0.5], atol=1e-4)
    assert np.all(np.diff(spec.lambdas) <= 0)


def test_verdict_frozen_cases():
    npt = est.verdict(est.Spectrum(np.array([0.5, 0.5, 0.5, -0.5]), 0.0), (2, 2))
    assert npt.classification == est.NPT_ENTANGLED
    assert npt.lambda_min == -0.5
    sep = est.verdict(est.Spectrum(np.array([0.5, 0.3, 0.1, 0.1]), 0.0), (2, 2))
    assert sep.classification == est.PPT_CONCLUSIVE_SEPARABLE
    inc = est.verdict(est.Spectrum(np.array([0.3, 0.2, 0.1, 0.05] + [0.07] * 5), 0.0), (3, 3))
    assert inc.classification == est.PPT_INCONCLUSIVE


def test_verdict_band_is_dimension_times_validation_tolerance():
    # 4e-9 on 2x2 and 9e-9 on 3x3, plus the 1e-12 eigensolver floor
    def spectrum(lam_min, d):
        return est.Spectrum(np.array([1.0 - lam_min] + [0.0] * (d - 2) + [lam_min]), 0.0)

    def classify(lam_min, dims):
        return est.verdict(spectrum(lam_min, dims[0] * dims[1]), dims).classification

    assert classify(-3.9e-9, (2, 2)) == est.PPT_CONCLUSIVE_SEPARABLE
    assert classify(-4.1e-9, (2, 2)) == est.NPT_ENTANGLED
    assert classify(-8.9e-9, (3, 3)) == est.PPT_INCONCLUSIVE
    assert classify(-9.1e-9, (3, 3)) == est.NPT_ENTANGLED
    # the band applies to lambda_min alone: verdict takes no sigma
    with pytest.raises(TypeError):
        est.verdict(spectrum(-1e-2, 4), (2, 2), 0.005)


def test_bootstrap_lambda_min_degenerate_counts():
    counts = [est.ShotCounts(k, np.array([1000, 0, 0, 0])) for k in (2, 3, 4)]
    cfg = est.EstimationConfig(bootstrap_replicas=20)
    sigma, interval, failures = est.bootstrap_lambda_min(counts, cfg)
    assert sigma == 0.0
    assert_allclose(interval, (0.0, 0.0), atol=1e-12)
    assert failures == 0


def _point_sums(counts):
    """The point estimate's power sums of per-order counts, as _measure has them."""
    p = np.array([1.0] + [est.eta_from_counts(c.n)[0] for c in counts])
    return est.PowerSums(p, "estimated", np.zeros(len(p)))


def test_bootstrap_lambda_min_reports_failure():
    # the point estimate of these counts recovers, and none of its 20 replicas does
    counts = [
        est.ShotCounts(2, np.array([12, 6, 1, 1])),
        est.ShotCounts(3, np.array([6, 4, 5, 5])),
        est.ShotCounts(4, np.array([4, 4, 6, 6])),
    ]
    cfg = est.EstimationConfig(bootstrap_replicas=20)
    assert est.bootstrap_lambda_min(counts, cfg) == (None, None, 20)  # no spread below two survivors
    assert isinstance(est.spectrum_from_power_sums(_point_sums(counts)), est.Spectrum)
    # every replica of degenerate counts repeats the point estimate, which is refused
    degenerate = [
        est.ShotCounts(2, np.array([100, 0, 0, 0])),
        est.ShotCounts(3, np.array([100, 0, 0, 0])),
        est.ShotCounts(4, np.array([0, 100, 0, 0])),
    ]
    assert est.bootstrap_lambda_min(degenerate, cfg) == (None, None, 20)
    refused = "root imaginary residual 5.507e-01 exceeds cap 2.500e-01"
    with pytest.raises(est.SpectrumTooNoisyError, match=refused):
        est.spectrum_from_power_sums(_point_sums(degenerate))


def _newton_reference(p):
    """Scalar Newton's-identity loop over one row of power sums, snapped as
    the recovery snaps: the reference for _newton_coefficients."""
    d = len(p)
    e = np.zeros(d + 1)
    e[0] = 1.0
    for m in range(1, d + 1):
        acc = 0.0
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * p[i - 1]
        e[m] = acc / m
    coeffs = np.array([(-1) ** m * e[m] for m in range(d + 1)])
    coeffs[np.abs(coeffs) < est.COEFF_SNAP_TOL] = 0.0
    return coeffs


def test_newton_coefficients_batched_equal_scalar_loop():
    sums = np.random.default_rng(6).uniform(-1.0, 1.0, (30, 12))
    sums[:, 0] = 1.0
    for p in sums:
        assert_array_equal(est._newton_coefficients(p), _newton_reference(p))


def _newton_cumsum_reference(p):
    """_newton_coefficients as numpy cumsums: e_m the last entry of a cumsum over the
    products e_{m-i} (-1)^(i-1) p_i, i = 1..m, with exact sign flips, then snapped."""
    d = len(p)
    sign = (-1.0) ** np.arange(d + 1)
    e = np.zeros(d + 1)
    e[0] = 1.0
    signed = sign[:d] * p
    for m in range(1, d + 1):
        e[m] = np.cumsum(e[m - 1 :: -1] * signed[:m])[-1] / m
    coeffs = sign * e
    coeffs[np.abs(coeffs) < est.COEFF_SNAP_TOL] = 0.0
    return coeffs


def test_newton_coefficients_equal_the_cumsum_form_byte_for_byte():
    # exact and 10^6-, 100- and 2-shot estimates of random and separable states, 2x2 to
    # 3x5, and the 3x3 and 4x4 maximally entangled states: the same bytes, -0.0 included
    rows = [est._measure(maximally_entangled(m), est.EstimationConfig(), True)[0].p for m in (3, 4)]
    for dims in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (3, 5)):
        for s in range(3):
            for rho in (states.random_density(dims, s), states.random_separable(dims, 5, s)):
                rows.append(est._measure(rho, est.EstimationConfig(), True)[0].p)
                for shots in (10**6, 100, 2):
                    cfg = est.EstimationConfig(shots_per_k=shots, seed=s)
                    rows.append(est._measure(rho, cfg, False)[0].p)
    for p in rows:
        assert est._newton_coefficients(p).tobytes() == _newton_cumsum_reference(p).tobytes(), p


def test_bootstrap_sigma_matches_per_replica_reference():
    # The batched draws use other streams than a per-replica loop, so sigma
    # agrees in distribution only: averaged over 5 seeds, within 15%.
    bell = states.bell_state("phi+")
    batched, reference = [], []
    for seed in range(5):
        cfg = est.EstimationConfig(shots_per_k=100_000, seed=seed, bootstrap_replicas=200)
        counts = est.run_protocol(bell, cfg).counts_per_k
        sigma, _, failures = est.bootstrap_lambda_min(counts, cfg)
        batched.append(sigma)
        rng = np.random.default_rng([seed, 7])
        lam_mins = []
        for _ in range(cfg.bootstrap_replicas):
            p = [1.0]
            for c in counts:
                draw = rng.multinomial(c.n.sum(), c.n / c.n.sum())
                p.append(est.eta_from_counts(draw)[0])
            roots = np.roots(_newton_reference(p))
            if np.max(np.abs(roots.imag)) <= est.SHOT_IMAG_CAP:
                lam_mins.append(roots.real.min())
        reference.append(np.std(lam_mins, ddof=1))
        assert failures == cfg.bootstrap_replicas - len(lam_mins) == 0
    assert abs(np.mean(batched) / np.mean(reference) - 1.0) < 0.15


def _bootstrap_reference(counts_per_k, cfg):
    """The per-order bootstrap loop: B replicas of order k in one multinomial
    draw from substream (seed, 1, k), eta written out order by order, then
    np.roots of the scalar Newton loop, replica by replica."""
    b = cfg.bootstrap_replicas
    p = np.ones((b, len(counts_per_k) + 1))
    for c in counts_per_k:
        total = int(c.n.sum())
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, c.k]))
        draws = rng.multinomial(total, c.n / total, size=b)
        p[:, c.k - 1] = (draws[:, 0] - draws[:, 1] - draws[:, 2] + draws[:, 3]) / total
    values = []
    for row in p:
        roots = np.roots(_newton_reference(row))
        if np.max(np.abs(roots.imag)) <= est.SHOT_IMAG_CAP:
            values.append(roots.real.min())
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(np.std(values, ddof=1)), (float(lo), float(hi)), b - len(values)


def test_bootstrap_streams_match_per_order_reference_exactly():
    product = states.random_separable((2, 3), terms=1, seed=3)  # rank-one
    for rho, seed in ((states.bell_state("phi+"), 4), (states.werner(0.25), 5), (product, 6)):
        cfg = est.EstimationConfig(shots_per_k=100_000, seed=seed, bootstrap_replicas=200)
        counts = est.run_protocol(rho, cfg).counts_per_k
        assert est.bootstrap_lambda_min(counts, cfg) == _bootstrap_reference(counts, cfg)


def test_shot_run_does_not_import_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma through np.unique; the shot path must not,
    # in the library or through the CLI, which reads and writes the files around it
    code = (
        "import sys; from pptnet import cli, estimation as est, states; "
        "r = est.run_protocol(states.bell_state(), est.EstimationConfig(shots_per_k=100_000)); "
        "assert r.interval[0] <= -0.5 <= r.interval[1]; "
        "states.save(states.bell_state(), sys.argv[1]); "
        "assert cli.main(['simulate', sys.argv[1], '--shots', '1000']) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(est.__file__))}
    argv = [sys.executable, "-c", code, str(tmp_path / "bell.json")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_run_protocol_recovers_the_point_once(monkeypatch):
    # one spectrum_from_power_sums call per run in both modes
    calls = []
    recover = est.spectrum_from_power_sums
    monkeypatch.setattr(est, "spectrum_from_power_sums", lambda ps: calls.append(ps) or recover(ps))
    cfg = est.EstimationConfig(shots_per_k=10_000, seed=2)
    for exact in (False, True):
        calls.clear()
        res = est.run_protocol(states.bell_state("phi+"), cfg, exact)
        assert calls == [res.power_sums]


def test_refused_point_keeps_the_certified_interval():
    # Werner p = 0 at 2 shots per order, seed 0: the point estimate's roots lie
    # 0.74 off the real axis, and the interval still comes from the estimates
    rho, cfg = states.werner(0.0), est.EstimationConfig(shots_per_k=2, seed=0)
    ps, _ = est._measure(rho, cfg, exact=False)
    res = est.run_protocol(rho, cfg)
    assert res.recovery_error == "root imaginary residual 7.397e-01 exceeds cap 2.500e-01"
    assert res.spectrum is None and res.verdict == est.PptVerdict(None, est.PPT_INCONCLUSIVE)
    npt, lo, hi = est.lambda_min_interval(ps, 2)
    assert not npt and res.interval == (lo, hi) and res.sigma == (hi - lo) / 2
    assert lo <= 0.25 <= hi  # lambda_min of I/4
    assert res.copies_consumed == 2 * (2 + 3 + 4)
    assert res.power_sums.source == "estimated" and res.power_sums.p[0] == 1.0


def test_eta_from_counts_stack_equals_row_by_row():
    stack = np.random.default_rng(8).integers(0, 1000, size=(50, 3, 4))
    eta, se = est.eta_from_counts(stack)
    assert eta.shape == se.shape == (50, 3)
    for i, j in np.ndindex(50, 3):
        row_eta, row_se = est.eta_from_counts(stack[i, j])
        assert eta[i, j] == row_eta and se[i, j] == row_se


def test_run_protocol_recovery_matches_per_row_reference():
    product = states.random_separable((2, 3), terms=1, seed=3)  # rank-one, deflated roots
    for rho, seed in ((states.bell_state("phi+"), 4), (states.werner(0.25), 5), (product, 6)):
        cfg = est.EstimationConfig(shots_per_k=100_000, seed=seed)
        res = est.run_protocol(rho, cfg)
        p = [1.0] + [est.eta_from_counts(c.n)[0] for c in res.counts_per_k]
        assert_array_equal(res.power_sums.p, p)
        expected = np.sort(np.roots(_newton_reference(p)).real)[::-1]
        assert_array_equal(res.spectrum.lambdas, expected)
        assert_array_equal(est.spectrum_from_power_sums(res.power_sums).lambdas, expected)
        assert res.verdict.lambda_min == expected[-1]
        assert res.interval[0] <= exact_lambda_min(rho) <= res.interval[1]


def test_run_protocol_exact_bell():
    res = est.run_protocol(states.bell_state("phi+"), est.EstimationConfig(), exact_probabilities=True)
    assert res.verdict.classification == est.NPT_ENTANGLED
    assert_allclose(res.spectrum.lambdas, [0.5, 0.5, 0.5, -0.5], atol=1e-8)
    assert res.copies_consumed == 0
    assert res.counts_per_k is None and res.interval is None and res.sigma == 0.0


def test_run_protocol_bell_shots():
    cfg = est.EstimationConfig(shots_per_k=100_000, seed=1)
    res = est.run_protocol(states.bell_state("phi+"), cfg)
    assert res.verdict.classification == est.NPT_ENTANGLED
    assert abs(res.verdict.lambda_min + 0.5) < 0.02
    # the certified interval holds the exact lambda_min, and lies below 0 on an NPT call
    assert res.interval[0] <= -0.5 <= res.interval[1] < 0
    assert res.sigma == (res.interval[1] - res.interval[0]) / 2 > 0
    assert res.copies_consumed == 100_000 * (2 + 3 + 4)
    assert [c.k for c in res.counts_per_k] == [2, 3, 4]
    # copies are counted from the shots drawn: k copies per order-k shot
    assert res.copies_consumed == sum(c.k * int(c.n.sum()) for c in res.counts_per_k)


def test_run_protocol_sigma_shrinks_with_shots():
    # Quadrupling the shot budget halves the Hoeffding box, and with it about
    # halves the certified half-width.
    bell = states.bell_state("phi+")
    ratios = []
    for seed in range(10):
        lo = est.run_protocol(bell, est.EstimationConfig(shots_per_k=5_000, seed=seed))
        hi = est.run_protocol(bell, est.EstimationConfig(shots_per_k=20_000, seed=seed))
        ratios.append(lo.sigma / hi.sigma)
    assert abs(np.mean(ratios) - 2.0) < 0.4


def test_run_protocol_deterministic():
    bell = states.bell_state("phi+")
    cfg = est.EstimationConfig(shots_per_k=10_000, seed=9)
    a = est.run_protocol(bell, cfg)
    b = est.run_protocol(bell, cfg)
    assert np.array_equal(a.power_sums.p, b.power_sums.p)
    assert a.sigma == b.sigma and a.interval == b.interval


def test_array_records_compare_without_raising():
    # the generated __eq__ compared array fields and raised "truth value of an
    # array is ambiguous"; records holding arrays compare and hash by identity
    def records():
        rho = states.bell_state("phi+")
        ps = est.power_sums_exact(rho)
        result = est.run_protocol(rho, est.EstimationConfig(shots_per_k=1000))
        dist = network.stage_two_distribution(rho, 2)
        ancilla = network.stage_one_state(rho, 2)
        return [rho, ps, est.spectrum_from_power_sums(ps), result, result.counts_per_k[0], dist, ancilla]

    for a, b in zip(records(), records()):
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
    cfg = est.EstimationConfig(seed=1)
    assert cfg == est.EstimationConfig(seed=1) and hash(cfg) == hash(est.EstimationConfig(seed=1))
    assert est.PptVerdict(-0.5, est.NPT_ENTANGLED) == est.PptVerdict(-0.5, est.NPT_ENTANGLED)
    report = states.validate(states.bell_state("phi+"))
    assert report == states.validate(states.bell_state("phi+"))


def _measure_reference(rho, cfg, exact):
    """The per-order pipeline: for each order k one moment-table row, one
    probability vector (the stage-one diagonal for the k=2 shortcut), one
    range check and clip, then one alternating sum or one multinomial draw
    from substream (seed, 0, k)."""
    moments = network.mu_parameters(rho, rho.d)
    p, se, counts = np.ones(rho.d), np.zeros(rho.d), []
    for k in range(2, rho.d + 1):
        row = moments[k - 1]
        if k == 2 and cfg.use_k2_shortcut:
            probs = np.real(np.diag(network.stage_one_template(row)))
        else:
            t_a, t_b, _, eta = row
            mu1, mu2 = t_a + t_b, t_a - t_b
            probs = np.array([1 + mu1 + eta, 1 - mu2 - eta, 1 + mu2 - eta, 1 - mu1 + eta]) / 4.0
        tol = states.load_band(rho.d, k)
        assert probs.min() >= -tol and abs(probs.sum() - 1.0) <= tol
        probs = np.clip(probs, 0.0, None)
        if exact:
            p[k - 1] = float(probs @ network.PARITY)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, k]))
            counts.append(rng.multinomial(cfg.shots_per_k, probs / probs.sum()))
    if not exact:
        p[1:], se[1:] = est.eta_from_counts(np.array(counts))
    return p, se, counts


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
def test_measure_equals_per_order_reference_bit_for_bit(dims):
    # all orders' distributions as one array, one range check, and the
    # alternating sums row by row: not one bit moves against the per-order loop
    for seed, rho in enumerate(state_family(dims, seed=43)):
        for shortcut in (True, False):
            cfg = est.EstimationConfig(shots_per_k=10_000, seed=seed, use_k2_shortcut=shortcut)
            ps, counts = est._measure(rho, cfg, exact=True)
            p, se, _ = _measure_reference(rho, cfg, exact=True)
            assert counts is None and ps.source == "exact"
            assert_array_equal(ps.p, p)
            assert_array_equal(ps.stderr, se)
        ps, counts = est._measure(rho, cfg, exact=False)
        p, se, want = _measure_reference(rho, cfg, exact=False)
        assert [c.k for c in counts] == list(range(2, rho.d + 1))
        assert_array_equal([c.n for c in counts], want)
        assert_array_equal(ps.p, p)
        assert_array_equal(ps.stderr, se)


def maximally_entangled(m):
    v = np.zeros(m * m, dtype=complex)
    v[[i * m + i for i in range(m)]] = 1 / np.sqrt(m)
    return states.DensityMatrix((m, m), np.outer(v, v.conj()))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exact recovery leaves root imaginary residual 1.704e-3 against the 1e-3 cap: no verdict",
)
def test_exact_probabilities_call_3x3_maximally_entangled_state_entangled():
    # partial-transpose spectrum 1/3 (x6) and -1/3 (x3): check calls it entangled
    rho = maximally_entangled(3)
    pt = linalg.partial_transpose(rho.matrix, 3, 3, "B")
    exact = est.verdict(est.Spectrum(linalg.hermitian_eigenvalues(pt), 0.0), rho.dims)
    assert exact.classification == est.NPT_ENTANGLED
    res = est.run_protocol(rho, est.EstimationConfig(), exact_probabilities=True)
    assert res.verdict is not None, res.recovery_error
    assert res.verdict.classification == est.NPT_ENTANGLED


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exact recovery returns a wrong spectrum: the absolute COEFF_SNAP_TOL zeroes "
    "e_d = det(rho^T_B), and CLUSTER_TOL averages distinct eigenvalues",
)
@pytest.mark.parametrize(
    "rho",
    [states.random_density((2, 5), 6), states.random_separable((3, 3), 9, 1001)],
    ids=["random 2x5 seed 6", "separable 3x3 9 terms seed 1001"],
)
def test_exact_probabilities_spectrum_is_refused_or_right(rho):
    # the power sums agree with the eigensolver's to rounding, yet the spectra come out
    # 8.7e-3 and 8.0e-4 off with no recovery_error; the second reads lambda_min 0.0
    # against an exact 6.2e-4
    pt = linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B")
    want = np.sort(linalg.hermitian_eigenvalues(pt))[::-1]
    res = est.run_protocol(rho, est.EstimationConfig(), exact_probabilities=True)
    if res.recovery_error is None:
        assert_allclose(res.spectrum.lambdas, want, rtol=0, atol=1e-5)


def test_shot_mode_never_refuses_werner_half_at_ten_thousand_shots():
    # lambda_min = -0.125, but the threefold eigenvalue 0.375 of the partial
    # transpose splits into complex pairs under shot noise; the point still
    # recovers on every seed, and every certified interval holds -0.125
    refused = {}
    for seed in range(10):
        res = est.run_protocol(states.werner(0.5), est.EstimationConfig(shots_per_k=10_000, seed=seed))
        if res.recovery_error:
            refused[seed] = res.recovery_error
        assert np.isfinite(res.sigma) and res.sigma > 0
        assert res.interval[0] <= -0.125 <= res.interval[1]
    assert refused == {}


def test_separable_3x3_shot_runs_return_and_never_call_entanglement():
    # shot recovery refuses most 3x3 points; the certificate still classifies every run
    for terms in (2, 5):
        for s in range(20):
            rho = states.random_separable((3, 3), terms, s)
            res = est.run_protocol(rho, est.EstimationConfig(shots_per_k=10**6, seed=500 + s))
            assert res.verdict.classification == est.PPT_INCONCLUSIVE, (terms, s)


@pytest.mark.parametrize("d", [4, 6, 9])
def test_o3_floor_holds_on_random_psd_spectra(d):
    # p3 >= f(p2, d) on every PSD trace-one spectrum, and the minimiser
    # (m equal entries x, one y = 1 - m x, zeros) attains it
    rng = np.random.default_rng(d)
    for rank in range(1, d + 1):
        lam = np.zeros((500, d))
        lam[:, :rank] = rng.dirichlet(np.full(rank, 0.3), size=500)
        for p2, p3 in zip(np.sum(lam**2, axis=1), np.sum(lam**3, axis=1)):
            assert p3 >= est._o3_floor(p2, d) - 1e-15
    for m in range(1, d):
        for y_over_x in (0.0, 0.3, 1.0):
            x = 1.0 / (m + y_over_x)
            lam = np.array([x] * m + [1.0 - m * x])
            assert est._o3_floor(np.sum(lam**2), d) == pytest.approx(np.sum(lam**3), abs=1e-12)


@pytest.mark.parametrize("d", [4, 6, 9, 16])
def test_o3_floor_rises_with_p2(d):
    # the box reads the floor at p2's lower end, which is sound only because f rises
    floor = [est._o3_floor(p2, d) for p2 in np.linspace(1.0 / d, 1.0, 20_001)]
    assert np.all(np.diff(floor) > 0)
    assert floor[0] == pytest.approx(1.0 / d**2) and floor[-1] == pytest.approx(1.0)
    assert est._o3_floor(0.0, d) == floor[0]  # p2 is clamped to [1/d, 1]


def shot_npt_call(rho, seed, shots):
    """Whether shot mode calls rho NPT_ENTANGLED."""
    cfg = est.EstimationConfig(shots_per_k=shots, seed=seed)
    return est.run_protocol(rho, cfg).verdict.classification == est.NPT_ENTANGLED


def test_shot_mode_never_calls_a_separable_state_npt():
    # state seed s with simulate seed 500 + s: one noise draw per state, not one for all
    called = [
        (dims, terms, shots, s)
        for dims in ((2, 2), (2, 3), (3, 3))
        for terms in (2, 5)
        for shots in (10**6, 10**7)
        for s in range(20)
        if shot_npt_call(states.random_separable(dims, terms, s), 500 + s, shots)
    ]
    assert called == []


def test_shot_mode_calls_bell_and_werner_npt():
    # Werner 0.4 has lambda_min = -0.05
    for rho in (states.bell_state("phi+"), states.werner(0.4)):
        assert all(shot_npt_call(rho, seed, 10**6) for seed in range(20))


def npt_random_densities(dims, n):
    """The first n random_density states, by seed, whose partial transpose has a negative eigenvalue."""
    found, seed = [], 0
    while len(found) < n:
        rho = states.random_density(dims, seed)
        if np.linalg.eigvalsh(linalg.partial_transpose(rho.matrix, *dims, "B"))[0] < 0:
            found.append(rho)
        seed += 1
    return found


def test_shot_mode_makes_no_false_separability_claim():
    # shot runs never raise; the i-th NPT state gets simulate seed 1000 + i
    runs = [(states.werner(0.5), seed, 10_000) for seed in range(10)]
    for dims in ((2, 2), (2, 3)):
        runs += [(rho, 1000 + i, 10**6) for i, rho in enumerate(npt_random_densities(dims, 40))]
    claims = []
    for rho, seed, shots in runs:
        res = est.run_protocol(rho, est.EstimationConfig(shots_per_k=shots, seed=seed))
        if res.verdict.classification == est.PPT_CONCLUSIVE_SEPARABLE:
            claims.append((rho.dims, seed))
    assert claims == []


def exact_lambda_min(rho):
    return np.linalg.eigvalsh(linalg.partial_transpose(rho.matrix, *rho.dims, "B"))[0]


def _o3_floor_reference(p2, d):
    """The scalar order-3 floor, as the certificate read it before the shifted box."""
    p2 = min(max(p2, 1.0 / d), 1.0)
    m = min(int(1.0 / p2), d - 1)
    x = (m + np.sqrt(max(0.0, m * m - m * (m + 1) * (1.0 - p2)))) / (m * (m + 1))
    return float(m * x**3 + (1.0 - m * x) ** 3)


def _box_reference(counts, d):
    """The Hoeffding box of p_0 = d, p_1 = 1 and p_2 .. p_{K+1}, as _box states it."""
    eta = est.eta_from_counts(counts)[0]
    eps = np.sqrt(2 * np.log(2 * len(counts) / est.CERTIFICATE_DELTA) / counts.sum(axis=1))
    return np.array([d, 1.0, *(eta - eps)]), np.array([d, 1.0, *(eta + eps)])


def _shift_tests_reference(lo, hi, d, t):
    """_shift_tests shift by shift: the box of q_k = sum_j C(k, j) (-t)^(k-j) p_j from the
    same matrix products, O3 on q_k / (1 - d t)^k for t < 1/d, then the interval Newton
    recursion term by term in Python floats.  Fires on an O3 hit or an m e_m whose upper
    end is below 0; PSD when every m e_m has its lower end >= 0."""
    n = len(lo)
    c = np.zeros((len(t), n, n))
    for g, x in enumerate(t.tolist()):
        powers = [1.0]  # (-t)^p as a running product, as np.vander builds its rows
        for _ in range(n - 1):
            powers.append(powers[-1] * -x)
        for a in range(n):
            for b in range(a + 1):
                c[g, a, b] = math.comb(a, b) * powers[a - b]
    pos, neg = np.maximum(c, 0.0), np.minimum(c, 0.0)
    q_lo, q_hi = (pos @ lo + neg @ hi).tolist(), (pos @ hi + neg @ lo).tolist()
    fires, psd = [], []
    for x, ql, qh in zip(t.tolist(), q_lo, q_hi):
        scale = ql[1]  # 1 - d t
        hit = n > 3 and x < 1.0 / d and qh[3] / scale**3 < _o3_floor_reference(ql[2] / scale**2, d)
        ok, e = True, [(1.0, 1.0)]
        for m in range(1, n):
            s_lo = s_hi = 0.0
            for i in range(1, m + 1):
                (a, b), p_lo, p_hi = e[m - i], ql[i], qh[i]
                ends = (a * p_lo, a * p_hi, b * p_lo, b * p_hi)
                if i % 2:
                    s_lo, s_hi = s_lo + min(ends), s_hi + max(ends)
                else:
                    s_lo, s_hi = s_lo - max(ends), s_hi - min(ends)
            hit, ok = hit or s_hi < 0, ok and s_lo >= 0
            e.append((s_lo / m, s_hi / m))
        fires.append(hit)
        psd.append(ok)
    return np.array(fires), np.array(psd)


@pytest.mark.parametrize(
    "dims, n, shots", [((2, 2), 20, 10**6), ((2, 3), 20, 10**6), ((3, 3), 20, 10**6), ((4, 4), 5, 10)]
)
def test_shift_tests_equal_the_scalar_reference(dims, n, shots):
    d = dims[0] * dims[1]
    t = np.array([0.0, 1.0 / d, -0.5, *np.random.default_rng(7).uniform(-1.0, 1.0, 30)])
    outcomes = set()
    for s in range(n):  # the box of one shot run on each of the first n random states
        cfg = est.EstimationConfig(shots_per_k=shots, seed=s)
        counts = np.array([c.n for c in est._measure(states.random_density(dims, s), cfg, False)[1]])
        lo, hi = _box_reference(counts, d)
        fires, psd = est._shift_tests(lo, hi, d, t)
        want_fires, want_psd = _shift_tests_reference(lo, hi, d, t)
        assert_array_equal(fires, want_fires)
        assert_array_equal(psd, want_psd)
        outcomes |= set(zip(fires.tolist(), psd.tolist()))
    # both calls occur; up to 2x3 the recursion proves PSD on some shift below the spectrum
    assert {(True, False), (False, False)} <= outcomes
    assert (False, True) in outcomes or dims[0] * dims[1] > 6


def _lambda_min_interval_reference(counts, d):
    """lambda_min_interval from a run's counts in Python floats: the scalar box and shift
    tests over one grid, t = 0 and INTERVAL_SHIFTS - 1 shifts from Samuelson's bound to
    1/d; hi the least fired shift (else 1/d), lo the largest PSD shift (else the bound)
    raised to the Rana floor -1/2 - load_band(d), then capped at hi."""
    lo_p, hi_p = _box_reference(counts, d)
    floor = 1.0 / d - math.sqrt((d - 1) * max(0.0, hi_p[2] / d - 1.0 / d**2))
    t = np.append(0.0, np.linspace(floor, 1.0 / d, est.INTERVAL_SHIFTS - 1))
    fires, psd = _shift_tests_reference(lo_p, hi_p, d, t)
    hi = min((x for x, hit in zip(t.tolist(), fires) if hit), default=1.0 / d)
    lo = max((x for x, ok in zip(t.tolist(), psd) if ok), default=floor)
    lo = max(lo, -0.5 - states.load_band(d))
    return bool(fires[0]), min(lo, hi), hi


def test_certified_interval_is_one_grid_pass_equal_to_the_scalar_reference(monkeypatch):
    # 8 random and 8 separable states per size at 10 and 10^6 shots, bit for bit, each
    # interval from exactly one _shift_tests call over the INTERVAL_SHIFTS grid shifts
    calls, shift_tests = [], est._shift_tests

    def count(*args):
        calls.append(len(args[-1]))
        return shift_tests(*args)

    monkeypatch.setattr(est, "_shift_tests", count)
    npt_calls, runs = set(), 0
    for dims in ((2, 2), (2, 3), (3, 3)):
        d = dims[0] * dims[1]
        for s in range(8):
            for rho in (states.random_density(dims, s), states.random_separable(dims, 5, s)):
                for shots in (10, 10**6):
                    ps, counts = est._measure(rho, est.EstimationConfig(shots_per_k=shots, seed=s), False)
                    got = est.lambda_min_interval(ps, shots)
                    want = _lambda_min_interval_reference(np.array([c.n for c in counts]), d)
                    assert got == want, (dims, s, shots, got, want)
                    runs += 1
                    assert calls == [est.INTERVAL_SHIFTS] * runs
                    npt_calls.add(got[0])
    assert npt_calls == {True, False}


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_npt_call_is_the_scalar_certificate_and_caps_the_interval(dims):
    # 60 random states per size at 10^6 shots: the box of the run's estimates is the
    # counts' box bit for bit, the shift t = 0 makes the scalar certificate's call,
    # and every NPT call comes with hi <= 0
    for s in range(60):
        rho = states.random_density(dims, s)
        res = est.run_protocol(rho, est.EstimationConfig(shots_per_k=10**6, seed=2000 + s))
        box = _box_reference(np.array([c.n for c in res.counts_per_k]), rho.d)
        for got, ref in zip(est._box(res.power_sums, 10**6), box):
            assert_array_equal(got, ref)
        want = _shift_tests_reference(*box, rho.d, np.zeros(1))[0][0]
        assert (res.verdict.classification == est.NPT_ENTANGLED) == want, (dims, s)
        if want:
            assert res.interval[1] <= 0, (dims, s, res.interval)


def test_certified_interval_frozen():
    # lambda_min_interval on one shot run per state (seed 0), bit for bit; Bell and the
    # Werner 0 run at 2 shots have lo at the floor -1/2 - load_band(4)
    floor = "-0x1.000000225e4acp-1"
    frozen = [
        (states.bell_state("phi+"), 10**6, True, floor, "-0x1.f16403f438a10p-2"),
        (states.werner(0.8), 10**6, True, "-0x1.686837a1629ecp-2", "-0x1.5b01c71de079fp-2"),
        (states.werner(0.4), 10**6, True, "-0x1.c41c0396ea268p-5", "-0x1.d56acee70fc0cp-6"),
        (states.werner(0.25), 10**6, False, "0x1.be32e1f86bfdcp-5", "0x1.2f11c46e50de6p-3"),
        (states.random_density((2, 2), 3), 10**6, True, "-0x1.045ada823433cp-2", "-0x1.3a2af736b9ec6p-3"),
        (states.random_density((2, 3), 1), 10**6, False, "-0x1.a385df0fee013p-3", "0x1.e12db6b6eeb60p-6"),
        (states.random_density((3, 3), 1), 10**6, True, "-0x1.c9e8e0c223d3ap-3", "-0x1.5bbf91b75ad40p-8"),
        (states.werner(0.0), 2, False, floor, "0x1.0000000000000p-2"),
    ]
    assert float.fromhex(floor) == -0.5 - states.load_band(4)
    for rho, shots, npt, lo, hi in frozen:
        ps, _ = est._measure(rho, est.EstimationConfig(shots_per_k=shots, seed=0), exact=False)
        got = est.lambda_min_interval(ps, shots)
        assert got == (npt, float.fromhex(lo), float.fromhex(hi)), (rho.dims, shots, got)


@pytest.mark.parametrize("shots", [10**6, 10**7])
def test_certified_interval_covers_the_exact_lambda_min(shots):
    # each run's box fails with probability at most 1e-3: all 88 runs cover
    cases = [states.bell_state("phi+"), *(states.werner(p) for p in (0.8, 0.4, 0.25, 0.0))]
    for dims in ((2, 2), (2, 3), (3, 3)):
        cases += [states.random_density(dims, 1), states.random_separable(dims, 5, 1)]
    missed = []
    for i, rho in enumerate(cases):
        lam = exact_lambda_min(rho)
        for seed in range(8):
            lo, hi = est.run_protocol(rho, est.EstimationConfig(shots_per_k=shots, seed=seed)).interval
            if not lo <= lam <= hi:
                missed.append((i, seed, lam, lo, hi))
    assert missed == []


def test_every_shot_run_has_a_finite_certified_interval():
    # refused points (a few shots, and a random 3x3 state at 10^6, whose sigma
    # was None under the bootstrap) included: sigma is the half-width of a finite [lo, hi]
    runs = [
        (states.werner(0.0), 2),
        (states.random_density((3, 3), 1), 10**6),
        (states.bell_state("phi+"), 1),
        (states.random_separable((2, 3), 5, 0), 3),
        (states.random_density((3, 3), 1), 1),
    ]
    for rho, shots in runs:
        res = est.run_protocol(rho, est.EstimationConfig(shots_per_k=shots, seed=0))
        lo, hi = res.interval
        assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi, (rho.dims, shots)
        assert lo >= -0.5 - states.load_band(rho.d)  # no state's partial transpose goes lower
        assert math.isfinite(res.sigma) and res.sigma == (hi - lo) / 2 >= 0
    assert res.recovery_error is not None  # the 3x3 runs refuse their points
    # p_2 = p_3 = -1 fits no spectrum: Samuelson's bound puts lambda_min at the mean 1/4
    # while t = 0 fires, so lo is lowered to hi
    impossible = est.PowerSums(np.array([1.0, -1.0, -1.0, 1.0]), "estimated", np.zeros(4))
    assert est.lambda_min_interval(impossible, 1000) == (True, 0.0, 0.0)


def test_certified_interval_draws_no_random_numbers(monkeypatch):
    # the interval is a function of the estimated power sums and the shots per order:
    # only the three sampling streams are drawn
    paths, substream = [], est._substream

    def record(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(est, "_substream", record)
    res = est.run_protocol(states.werner(0.4), est.EstimationConfig(shots_per_k=10**6, seed=5))
    assert paths == [(0, 2), (0, 3), (0, 4)]
    ps = res.power_sums
    copy = est.PowerSums(ps.p.copy(), ps.source, ps.stderr.copy())
    assert est.lambda_min_interval(ps, 10**6) == est.lambda_min_interval(copy, 10**6)
    assert est.lambda_min_interval(ps, 10**6)[1:] == res.interval
    # no shots would make the box infinite
    with pytest.raises(ValueError, match="shot count must be >= 1, got 0"):
        est.lambda_min_interval(ps, 0)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_certificate_is_monotone_in_shots_on_noise_free_estimates(dims):
    # the exact-probability estimates with a box of N shots: once the certificate
    # fires it keeps firing as N grows, so a noise-free shot threshold is well defined
    shots = [int(n) for n in np.logspace(2, 12, 31)]
    fired = []
    for rho in npt_random_densities(dims, 5):
        ps = est._measure(rho, est.EstimationConfig(), exact=True)[0]
        calls = [est.lambda_min_interval(ps, n)[0] for n in shots]
        assert calls == sorted(calls), (dims, calls)
        fired.append(calls[-1])
    assert any(fired), dims


def test_every_name_the_benchmark_tracer_wraps_exists_and_is_restored():
    # perfbench/tracer.py looks its targets up by name: deleting or renaming one fails here
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    targets = [(module, attr) for module, attr, *_ in tracer_module.TARGETS]
    for module, attr in targets:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
    originals = [(module, attr, getattr(module, attr)) for module, attr in targets]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        est.run_protocol(states.bell_state("phi+"), est.EstimationConfig(shots_per_k=10**4))
    finally:
        tracer.uninstall()
    # each shot run recovers its point spectrum once
    assert tracer.metrics(1)["estimation.recovery.calls"] == (1.0, "calls/op")
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"

"""Tests for shot sampling, power-sum estimation, and spectrum recovery."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import estimation as est
from pptnet import linalg, network, states

BELL_POWER_SUMS = np.array([1.0, 1.0, 0.25, 0.25])


def degenerate_dist(k=2):
    return network.outcome_distribution(k, np.array([1.0, 0.0, 0.0, 0.0]))


def test_sample_shots_degenerate():
    counts = est.sample_shots(degenerate_dist(), 1000, seed=0)
    assert (counts.n00, counts.n01, counts.n10, counts.n11) == (1000, 0, 0, 0)
    assert counts.total == 1000


def test_sample_shots_deterministic():
    dist = network.stage_two_distribution(states.bell_state("phi+"), 3)
    a = est.sample_shots(dist, 5000, seed=7)
    b = est.sample_shots(dist, 5000, seed=7)
    assert a == b
    assert a != est.sample_shots(dist, 5000, seed=8)


def test_sample_shots_uniform_within_binomial_noise():
    dist = network.outcome_distribution(2, np.full(4, 0.25))
    counts = est.sample_shots(dist, 1_000_000, seed=1).as_array()
    assert np.all(np.abs(counts - 250_000) < 5 * math.sqrt(1e6 * 0.25 * 0.75))


def test_sample_shots_rejects_bad_n():
    with pytest.raises(ValueError):
        est.sample_shots(degenerate_dist(), 0, seed=0)


def test_eta_from_counts_frozen():
    eta, se = est.eta_from_counts(est.ShotCounts(2, 1000, 0, 0, 0))
    assert eta == 1.0 and se == 0.0
    eta, se = est.eta_from_counts(est.ShotCounts(3, 4375, 1875, 1875, 1875))
    assert_allclose(eta, 0.25)
    assert_allclose(se, math.sqrt(0.9375 / 10_000))


def test_eta_from_counts_balanced_is_zero():
    eta, _ = est.eta_from_counts(est.ShotCounts(2, 2500, 2500, 2500, 2500))
    assert eta == 0.0


def test_eta_from_counts_rejects_empty():
    with pytest.raises(ValueError):
        est.eta_from_counts(est.ShotCounts(2, 0, 0, 0, 0))


def test_calibrate_eta_scale():
    assert_allclose(est.calibrate_eta_scale((2, 2)), 2.0, atol=1e-12)
    assert_allclose(est.calibrate_eta_scale((2, 3)), 2.0, atol=1e-12)


def test_calibration_report_structure():
    report = est.calibration_report((2, 2))
    assert set(report) == {"eta_scale", "states"}
    assert [row["state"] for row in report["states"]] == ["maximally_mixed", "pure_product"]
    assert all(row["residual"] < 1e-9 for row in report["states"])


def test_power_sums_exact_bell():
    ps = est.power_sums_exact(states.bell_state("phi+"))
    assert ps.d == 4 and ps.source == "exact"
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
    with pytest.raises(ValueError):
        est.EstimationConfig(seed=-1)
    with pytest.raises(ValueError):
        est.EstimationConfig(bootstrap_replicas=-1)
    with pytest.raises(ValueError):
        est.EstimationConfig(z=float("nan"))


def test_spectrum_from_power_sums_rank_one():
    ps = est.PowerSums(4, np.ones(4), "exact", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    assert_allclose(spec.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-8)


def test_spectrum_from_power_sums_fourfold_degenerate():
    ps = est.PowerSums(4, np.array([1.0, 0.25, 0.0625, 0.015625]), "exact", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    # cluster merging recovers the fourfold root that raw root finding splits
    assert_allclose(spec.lambdas, np.full(4, 0.25), atol=1e-9)
    assert 0 < spec.residual_imag < 1e-3


def test_spectrum_from_power_sums_bell():
    ps = est.PowerSums(4, BELL_POWER_SUMS, "exact", np.zeros(4))
    spec = est.spectrum_from_power_sums(ps)
    assert_allclose(spec.lambdas, [0.5, 0.5, 0.5, -0.5], atol=1e-8)
    assert_allclose(spec.lambdas.sum(), 1.0, atol=1e-8)


def test_spectrum_cap_override_rejects():
    ps = est.PowerSums(4, BELL_POWER_SUMS, "exact", np.zeros(4))
    with pytest.raises(est.SpectrumTooNoisyError):
        est.spectrum_from_power_sums(ps, imag_cap=1e-12)


def test_spectrum_too_noisy_estimated_source():
    ps = est.PowerSums(4, np.array([1.0, -0.9, 0.8, -0.7]), "estimated", np.zeros(4))
    with pytest.raises(est.SpectrumTooNoisyError):
        est.spectrum_from_power_sums(ps)


def test_spectrum_estimated_source_skips_clustering():
    ps = est.PowerSums(4, BELL_POWER_SUMS, "estimated", np.zeros(4))
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


def test_verdict_noise_gate():
    spec = est.Spectrum(np.array([0.6, 0.3, 0.11, -0.01]), 0.0)
    cautious = est.verdict(spec, (2, 2), sigma_lambda_min=0.005, z=3.0)
    assert cautious.classification == est.PPT_CONCLUSIVE_SEPARABLE
    eager = est.verdict(spec, (2, 2), sigma_lambda_min=0.005, z=1.0)
    assert eager.classification == est.NPT_ENTANGLED
    # a negative z would flip the gate and a NaN one would disable it
    for bad in (-50.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            est.verdict(spec, (2, 2), sigma_lambda_min=0.005, z=bad)


def test_bootstrap_lambda_min_degenerate_counts():
    counts = [est.ShotCounts(k, 1000, 0, 0, 0) for k in (2, 3, 4)]
    cfg = est.EstimationConfig(bootstrap_replicas=20)
    sigma, interval = est.bootstrap_lambda_min(counts, cfg)
    assert sigma == 0.0
    assert_allclose(interval, (0.0, 0.0), atol=1e-12)


def test_bootstrap_lambda_min_reports_failure():
    counts = [
        est.ShotCounts(2, 100, 0, 0, 0),
        est.ShotCounts(3, 100, 0, 0, 0),
        est.ShotCounts(4, 0, 100, 0, 0),
    ]
    with pytest.raises(est.EstimationError):
        est.bootstrap_lambda_min(counts, est.EstimationConfig(bootstrap_replicas=20))


def test_run_protocol_exact_bell():
    res = est.run_protocol(states.bell_state("phi+"), est.EstimationConfig(), exact_probabilities=True)
    assert res.verdict.classification == est.NPT_ENTANGLED
    assert_allclose(res.spectrum.lambdas, [0.5, 0.5, 0.5, -0.5], atol=1e-8)
    assert res.copies_consumed == 0
    assert res.counts_per_k is None and res.interval is None and res.sigma == 0.0


def test_run_protocol_bell_shots():
    cfg = est.EstimationConfig(shots_per_k=100_000, seed=1, bootstrap_replicas=50)
    res = est.run_protocol(states.bell_state("phi+"), cfg)
    assert res.verdict.classification == est.NPT_ENTANGLED
    assert abs(res.verdict.lambda_min + 0.5) < 0.02
    assert res.sigma > 0
    assert res.interval[0] <= res.verdict.lambda_min <= res.interval[1]
    assert res.copies_consumed == 100_000 * (2 + 3 + 4)
    assert [c.k for c in res.counts_per_k] == [2, 3, 4]


def test_run_protocol_sigma_shrinks_with_shots():
    # Quadrupling the shot budget should halve the bootstrap spread, within
    # sampling slack.
    bell = states.bell_state("phi+")
    ratios = []
    for seed in range(10):
        lo = est.run_protocol(bell, est.EstimationConfig(shots_per_k=5_000, seed=seed, bootstrap_replicas=100))
        hi = est.run_protocol(bell, est.EstimationConfig(shots_per_k=20_000, seed=seed, bootstrap_replicas=100))
        ratios.append(lo.sigma / hi.sigma)
    assert abs(np.mean(ratios) - 2.0) < 0.4


def test_run_protocol_deterministic():
    bell = states.bell_state("phi+")
    cfg = est.EstimationConfig(shots_per_k=10_000, seed=9, bootstrap_replicas=25)
    a = est.run_protocol(bell, cfg)
    b = est.run_protocol(bell, cfg)
    assert np.array_equal(a.power_sums.p, b.power_sums.p)
    assert a.sigma == b.sigma and a.interval == b.interval


def test_run_protocol_attaches_partial_power_sums_on_failure():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    cfg = est.EstimationConfig(shots_per_k=2, seed=101, bootstrap_replicas=0)
    seen = None
    for seed in range(200):
        try:
            est.run_protocol(rho, est.EstimationConfig(shots_per_k=2, seed=seed, bootstrap_replicas=0))
        except est.EstimationError as exc:
            seen = exc
            break
    assert seen is not None, "expected at least one noisy failure at 2 shots per k"
    assert isinstance(seen.power_sums, est.PowerSums)
    assert seen.power_sums.p[0] == 1.0

"""Tests for the two-stage interference network."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import linalg, network, states


def eta_exact(rho, k):
    pt = linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B")
    return np.trace(linalg.mat_power(pt, k)).real


def test_mu_parameters_maximally_mixed():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    table = network.mu_parameters(rho, 2)
    assert table.shape == (2, 4)
    assert_allclose(table[1], [0.5, 0.5, 0.25, 0.25], atol=1e-12)


def test_mu_parameters_pure_product():
    rho = states.random_separable((2, 2), terms=1, seed=1)
    assert_allclose(network.mu_parameters(rho, 4), np.ones((4, 4)), atol=1e-10)


def test_mu_parameters_bell_k3():
    table = network.mu_parameters(states.bell_state("phi+"), 3)
    assert_allclose(table[2], [0.25, 0.25, 1.0, 0.25], atol=1e-12)


def test_mu_parameters_invariants():
    for seed in range(10):
        rho = states.random_density((2, 3), seed=seed)
        table = network.mu_parameters(rho, 3)
        assert_allclose(table[0], np.ones(4), atol=1e-12)
        for k in (2, 3):
            t_a, t_b, r, eta = table[k - 1]
            assert_allclose(r, np.trace(linalg.mat_power(rho.matrix, k)).real, atol=1e-10)
            assert_allclose(eta, eta_exact(rho, k), atol=1e-10)
            assert_allclose(t_a, np.trace(linalg.mat_power(rho.reduced("A"), k)).real, atol=1e-10)
            assert_allclose(t_b, np.trace(linalg.mat_power(rho.reduced("B"), k)).real, atol=1e-10)


def test_stage_one_state_maximally_mixed_frozen():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    got = network.stage_one_state(rho, 2).matrix
    assert_allclose(got, np.diag([0.5625, 0.1875, 0.1875, 0.0625]), atol=1e-12)


def test_stage_one_state_pure_product_frozen():
    rho = states.random_separable((2, 2), terms=1, seed=2)
    got = network.stage_one_state(rho, 2).matrix
    assert_allclose(got, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)


def test_stage_one_state_bell_k3_frozen():
    got = network.stage_one_state(states.bell_state("phi+"), 3).matrix
    expected = np.array(
        [
            [0.53125, 0, 0, -0.09375],
            [0, 0.09375, 0.09375, 0],
            [0, 0.09375, 0.09375, 0],
            [-0.09375, 0, 0, 0.28125],
        ]
    )
    assert_allclose(got, expected, atol=1e-12)


def test_stage_one_state_is_physical():
    for seed in range(5):
        rho = states.random_density((2, 2), seed=seed)
        m = network.stage_one_state(rho, 3).matrix
        assert_allclose(m, m.conj().T, atol=1e-12)
        assert_allclose(np.trace(m).real, 1.0, atol=1e-12)
        assert linalg.hermitian_eigenvalues(m)[-1] > -1e-10


def test_stage_one_circuit_matches_analytic():
    for seed in (3, 4):
        rho = states.random_density((2, 2), seed=seed)
        for k in (2, 3):
            full = network.stage_one_state(rho, k, mode="full_evolution").matrix
            analytic = network.stage_one_state(rho, k, mode="analytic").matrix
            assert np.linalg.norm(full - analytic) < 1e-10


def test_stage_one_circuit_guard():
    rho = states.random_density((2, 3), seed=5)
    with pytest.raises(ValueError):
        network.stage_one_state(rho, 4, mode="full_evolution")


def test_stage_one_state_rejects_unknown_mode():
    with pytest.raises(ValueError):
        network.stage_one_state(states.bell_state("phi+"), 2, mode="fast")


def test_stage_one_diagonal_encodes_marginal_powers():
    # Outcome-bit convention: the first bit's balance reads Tr(rho_B^k) and the
    # second bit's balance reads Tr(rho_A^k).
    rho = states.random_density((2, 3), seed=6)
    for k in (2, 3):
        p = np.diag(network.stage_one_state(rho, k).matrix).real
        t_a = np.trace(linalg.mat_power(rho.reduced("A"), k)).real
        t_b = np.trace(linalg.mat_power(rho.reduced("B"), k)).real
        assert_allclose((p[0] + p[1]) - (p[2] + p[3]), t_b, atol=1e-10)
        assert_allclose((p[0] + p[2]) - (p[1] + p[3]), t_a, atol=1e-10)


def test_stage_one_k2_alternating_sum_is_purity():
    for seed in range(5):
        rho = states.random_density((2, 2), seed=seed)
        p = np.diag(network.stage_one_state(rho, 2).matrix).real
        purity = np.trace(linalg.mat_power(rho.matrix, 2)).real
        assert_allclose(p[0] - p[1] - p[2] + p[3], purity, atol=1e-10)
        assert_allclose(eta_exact(rho, 2), purity, atol=1e-10)


def test_outcome_distribution_validation():
    with pytest.raises(RuntimeError):
        network.outcome_distribution(2, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(RuntimeError):
        network.outcome_distribution(2, np.array([0.5, 0.5, 0.5, 0.5]))
    dist = network.outcome_distribution(2, np.array([1.0 + 5e-13, 0.0, 0.0, -5e-13]))
    assert dist.p11 == 0.0
    assert dist.as_array().sum() <= 1.0 + 1e-12


def test_stage_two_distribution_bell_frozen():
    bell = states.bell_state("phi+")
    assert_allclose(
        network.stage_two_distribution(bell, 2).as_array(), [0.75, 0.0, 0.0, 0.25], atol=1e-12
    )
    assert_allclose(
        network.stage_two_distribution(bell, 3).as_array(),
        [0.4375, 0.1875, 0.1875, 0.1875],
        atol=1e-12,
    )
    assert_allclose(
        network.stage_two_distribution(bell, 4).as_array(),
        [0.375, 0.1875, 0.1875, 0.25],
        atol=1e-12,
    )


def test_stage_two_distribution_maximally_mixed_frozen():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    dist = network.stage_two_distribution(rho, 2)
    assert_allclose(dist.as_array(), [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-12)
    assert_allclose(dist.alternating_sum(), 0.25, atol=1e-12)


def test_stage_two_distribution_pure_product():
    rho = states.random_separable((2, 2), terms=1, seed=7)
    assert_allclose(
        network.stage_two_distribution(rho, 3).as_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-10
    )


def test_stage_two_alternating_sum_is_transpose_power_trace():
    for seed in range(8):
        rho = states.random_density((2, 2), seed=seed)
        for k in (2, 3, 4):
            dist = network.stage_two_distribution(rho, k)
            assert_allclose(dist.alternating_sum(), eta_exact(rho, k), atol=1e-10)
            assert_allclose(dist.as_array().sum(), 1.0, atol=1e-12)
            assert np.all(dist.as_array() >= 0)


def test_stage_two_circuit_output_is_diagonal():
    rho = states.random_density((2, 2), seed=9)
    m = network.stage_two_state(rho, 2, mode="full_evolution").matrix
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-12
    assert_allclose(np.trace(m).real, 1.0, atol=1e-12)


def test_stage_two_circuit_halves_the_alternating_sum():
    # The concrete readout gates attenuate the interference terms: the circuit
    # distribution carries eta / 2 and the marginals carry t / sqrt(2).
    for seed in (10, 11):
        rho = states.random_density((2, 2), seed=seed)
        for k in (2, 3):
            dist = network.stage_two_distribution(rho, k, mode="full_evolution")
            assert_allclose(dist.alternating_sum(), eta_exact(rho, k) / 2, atol=1e-10)
            p = dist.as_array()
            t_a = np.trace(linalg.mat_power(rho.reduced("A"), k)).real
            t_b = np.trace(linalg.mat_power(rho.reduced("B"), k)).real
            assert_allclose((p[0] + p[1]) - (p[2] + p[3]), t_b / np.sqrt(2), atol=1e-10)
            assert_allclose((p[0] + p[2]) - (p[1] + p[3]), t_a / np.sqrt(2), atol=1e-10)


def test_readout_gates_are_hermitian_unitaries():
    for gate in (network.R_PLUS, network.R_MINUS):
        assert_allclose(gate, gate.conj().T, atol=1e-15)
        assert_allclose(gate @ gate, np.eye(2), atol=1e-15)

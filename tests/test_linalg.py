"""Tests for the dense matrix kernel."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pptnet import linalg

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_state(rng, d):
    g = random_complex(rng, d)
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_kron_identity():
    assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_block_structure():
    got = linalg.kron(np.diag([1.0, 0.0]), SIGMA_X)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1.0
    assert_allclose(got, expected)


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        assert_allclose(np.trace(linalg.kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12)


def test_mat_power_identity():
    assert_allclose(linalg.mat_power(np.eye(4), 7), np.eye(4))


def test_mat_power_diagonal():
    assert_allclose(
        linalg.mat_power(np.diag([0.5, 0.5, 0.0, 0.0]), 2), np.diag([0.25, 0.25, 0.0, 0.0])
    )


def test_mat_power_purity_of_maximally_mixed():
    assert_allclose(np.trace(linalg.mat_power(np.eye(4) / 4, 2)), 0.25)


def test_mat_power_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.mat_power(np.ones((2, 3)), 2)
    with pytest.raises(ValueError):
        linalg.mat_power(np.eye(2), 0)


def test_partial_transpose_frozen_entries():
    m = np.arange(16, dtype=float).reshape(4, 4)
    assert_allclose(
        linalg.partial_transpose(m, 2, 2, "B"),
        [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]],
    )
    assert_allclose(
        linalg.partial_transpose(m, 2, 2, "A"),
        [[0, 1, 8, 9], [4, 5, 12, 13], [2, 3, 10, 11], [6, 7, 14, 15]],
    )


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(5)
    m = random_complex(rng, 6)
    twice = linalg.partial_transpose(linalg.partial_transpose(m, 2, 3, "B"), 2, 3, "B")
    assert np.array_equal(twice, m)


def test_partial_transpose_product_state_factorizes():
    rng = np.random.default_rng(6)
    a, b = random_state(rng, 2), random_state(rng, 3)
    got = linalg.partial_transpose(linalg.kron(a, b), 2, 3, "B")
    assert_allclose(got, linalg.kron(a, b.T), atol=1e-14)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_state(rng, 4)
        for side in ("A", "B"):
            pt = linalg.partial_transpose(m, 2, 2, side)
            assert abs(np.trace(pt) - np.trace(m)) < 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_spectra_agree_between_sides():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = random_state(rng, 6)
        ev_a = linalg.hermitian_eigenvalues(linalg.partial_transpose(m, 2, 3, "A"))
        ev_b = linalg.hermitian_eigenvalues(linalg.partial_transpose(m, 2, 3, "B"))
        assert_allclose(ev_a, ev_b, atol=1e-10)


def test_partial_transpose_bell_spectrum():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    ev = linalg.hermitian_eigenvalues(linalg.partial_transpose(bell, 2, 2, "B"))
    assert_allclose(ev, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(4), 2, 3, "B")


def test_partial_transpose_refuses_an_unknown_subsystem():
    with pytest.raises(ValueError, match="subsystem must be 'A' or 'B', got 'C'"):
        linalg.partial_transpose(np.eye(4), 2, 2, "C")


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    a, b = random_state(rng, 2), random_state(rng, 3)
    assert_allclose(linalg.partial_trace(linalg.kron(a, b), [2, 3], 0), a, atol=1e-14)
    assert_allclose(linalg.partial_trace(linalg.kron(a, b), [2, 3], 1), b, atol=1e-14)


def test_partial_trace_bell_reduction():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert_allclose(linalg.partial_trace(bell, [2, 2], 0), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(10)
    m = random_state(rng, 6)
    assert_allclose(np.trace(linalg.partial_trace(m, [2, 3], 1)), 1.0, atol=1e-12)


def test_partial_trace_scales_by_companion_trace():
    rng = np.random.default_rng(12)
    a, b = random_complex(rng, 3), random_complex(rng, 2)
    got = linalg.partial_trace(linalg.kron(a, b), [3, 2], 0)
    assert_allclose(got, a * np.trace(b), atol=1e-12)


def test_partial_trace_bad_dims():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(5), [2, 3], 0)
    # two factors and one kept index, 0 or 1
    for dims, keep in (([2, 3, 2], 1), ([2, 3, 2], 0), ([6, 2], 2), ([6, 2], -1), ([6, 2], [0])):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(12) / 12, dims, keep)


def test_hermitian_eigenvalues_frozen():
    assert_allclose(
        linalg.hermitian_eigenvalues(np.diag([0.7, 0.3, 0.0, 0.0])), [0.7, 0.3, 0.0, 0.0]
    )
    assert_allclose(linalg.hermitian_eigenvalues(np.eye(5) / 5), np.full(5, 0.2))


def test_hermitian_eigenvalues_descending_and_trace():
    rng = np.random.default_rng(14)
    m = random_state(rng, 5)
    ev = linalg.hermitian_eigenvalues(m)
    assert np.all(np.diff(ev) <= 0)
    assert_allclose(ev.sum(), np.trace(m).real, atol=1e-12)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def stack_views(rng, trials, n):
    """A contiguous (trials, n, n) stack and two non-contiguous views of stacks:
    every other matrix of a longer stack, and the transposes of a stack."""
    g = rng.standard_normal((2 * trials, n, n)) + 1j * rng.standard_normal((2 * trials, n, n))
    return [g[:trials], g[::2], g[trials:].transpose(0, 2, 1)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_stacked_partial_transpose_and_trace_equal_per_matrix_calls_bit_for_bit(dims):
    d_a, d_b = dims
    rng = np.random.default_rng(d_a * 10 + d_b)
    for stack in stack_views(rng, 5, d_a * d_b):
        for side in ("A", "B"):
            want = np.array([linalg.partial_transpose(m, d_a, d_b, side) for m in stack])
            assert_array_equal(linalg.partial_transpose(stack, d_a, d_b, side), want)
        for keep in (0, 1):
            want = np.array([linalg.partial_trace(m, list(dims), keep) for m in stack])
            assert_array_equal(linalg.partial_trace(stack, list(dims), keep), want)
    # two leading axes, and the stack of one
    grid = stack_views(rng, 6, d_a * d_b)[1].reshape(2, 3, d_a * d_b, d_a * d_b)
    assert_array_equal(
        linalg.partial_transpose(grid, d_a, d_b, "B")[1, 2],
        linalg.partial_transpose(grid[1, 2], d_a, d_b, "B"),
    )
    assert_array_equal(
        linalg.partial_trace(grid[:1, 0], list(dims), 1)[0],
        linalg.partial_trace(grid[0, 0], list(dims), 1),
    )


def test_stacked_kernels_reject_non_square_stacks():
    for bad in (np.ones(4), np.ones((3, 4, 6))):
        with pytest.raises(ValueError, match="must be square"):
            linalg.partial_transpose(bad, 2, 2, "B")
        with pytest.raises(ValueError, match="must be square"):
            linalg.partial_trace(bad, [2, 2], 0)
    with pytest.raises(ValueError, match="does not match dims"):
        linalg.partial_transpose(np.ones((3, 6, 6)), 2, 2, "B")
    stack = np.ones((3, 4, 4), dtype=complex)
    stack[2, 1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        linalg.partial_trace(stack, [2, 2], 0)


def test_hermitian_eigenvalues_on_stacks_equal_per_matrix_calls():
    # a (1, 4, 4) stack of a Werner state, whose transpose is not itself on
    # the leading axis, and a stack of random states
    werner = 0.3 * np.diag([0, 1, 1, 0]) / 2 + 0.7 * np.eye(4) / 4
    werner[1, 2] = werner[2, 1] = -0.3 / 2
    rng = np.random.default_rng(15)
    for stack in (werner[None], np.array([random_state(rng, 6) for _ in range(4)])):
        want = np.array([linalg.hermitian_eigenvalues(m) for m in stack])
        assert_array_equal(linalg.hermitian_eigenvalues(stack), want)
        assert np.all(np.diff(want, axis=-1) <= 0)
    stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eigenvalues(stack)

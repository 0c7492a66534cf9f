"""Tests for cyclic-shift permutations and replica trace contractions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import linalg, permnet, states


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_shift_permutation_single_copy_is_identity():
    assert permnet.shift_permutation(1, 3, "forward").tolist() == [0, 1, 2]


def test_shift_permutation_two_qubit_swap():
    assert permnet.shift_permutation(2, 2, "forward").tolist() == [0, 2, 1, 3]
    assert permnet.shift_permutation(2, 2, "inverse").tolist() == [0, 2, 1, 3]


def test_shift_permutation_inverse_undoes_forward():
    for k, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        fwd = permnet.shift_permutation(k, d, "forward")
        inv = permnet.shift_permutation(k, d, "inverse")
        assert np.array_equal(fwd[inv], np.arange(d**k))
        assert sorted(fwd.tolist()) == list(range(d**k))


def test_shift_permutation_has_order_k():
    for k, d in ((2, 3), (3, 2), (4, 2)):
        perm = permnet.shift_permutation(k, d, "forward")
        walk = np.arange(d**k)
        for _ in range(k):
            walk = perm[walk]
        assert np.array_equal(walk, np.arange(d**k))


def test_build_shift_matrix_swap_is_hermitian_unitary():
    m = permnet.build_shift_matrix(2, 2, "forward")
    assert_allclose(m, m.conj().T)
    assert_allclose(m @ m, np.eye(4), atol=1e-14)


def test_build_shift_matrix_cubes_to_identity():
    m = permnet.build_shift_matrix(3, 2, "forward")
    assert not np.allclose(m, m.conj().T)
    assert_allclose(m @ m.conj().T, np.eye(8), atol=1e-14)
    assert_allclose(np.linalg.matrix_power(m, 3), np.eye(8), atol=1e-14)


def test_build_shift_matrix_matches_permutation():
    perm = permnet.shift_permutation(3, 3, "inverse")
    m = permnet.build_shift_matrix(3, 3, "inverse")
    assert np.array_equal(np.nonzero(m.T)[1], perm)


def test_build_shift_matrix_size_guard():
    with pytest.raises(ValueError):
        permnet.build_shift_matrix(7, 4, "forward")


def test_shift_matrix_traces_cyclic_products():
    # Contracting the inverse shift against m1 (x) ... (x) mk yields the trace of
    # the ordered product m1 m2 ... mk; the forward shift reverses the order.
    rng = np.random.default_rng(21)
    for k, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        mats = [random_complex(rng, d) for _ in range(k)]
        big = mats[0]
        for m in mats[1:]:
            big = linalg.kron(big, m)
        ordered = np.trace(np.linalg.multi_dot(mats)) if k > 1 else np.trace(mats[0])
        reversed_ = np.trace(np.linalg.multi_dot(mats[::-1]))
        v = permnet.build_shift_matrix(k, d, "forward")
        assert_allclose(np.trace(v.conj().T @ big), ordered, atol=1e-10)
        assert_allclose(np.trace(v @ big), reversed_, atol=1e-10)


def test_digit_shift_permutation_controlled():
    # A controlled shift acts only on basis states whose control digit is 1.
    perm = permnet.digit_shift_permutation([2, 2, 2], [1, 2], "forward", control=0)
    for a in (0, 1):
        for b in (0, 1):
            assert perm[2 * a + b] == 2 * a + b
            assert perm[4 + 2 * a + b] == 4 + 2 * b + a


def test_shift_trace_bruteforce_maximally_mixed():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    got = permnet.shift_trace_bruteforce(rho, 2, "inverse", "forward")
    assert_allclose(got, 0.25, atol=1e-14)


def test_shift_trace_bruteforce_bell_frozen():
    got = permnet.shift_trace_bruteforce(states.bell_state("phi+"), 3, "inverse", "forward")
    assert_allclose(got, 0.25, atol=1e-12)


def test_shift_trace_bruteforce_matches_transposed_power():
    for d_a, d_b in ((2, 2), (2, 3)):
        for seed in range(5):
            rho = states.random_density((d_a, d_b), seed=seed)
            for k in (2, 3):
                pt = linalg.partial_transpose(rho.matrix, d_a, d_b, "B")
                want = np.trace(linalg.mat_power(pt, k))
                got = permnet.shift_trace_bruteforce(rho, k, "inverse", "forward")
                assert_allclose(got, want, atol=1e-10)
                pt_a = linalg.partial_transpose(rho.matrix, d_a, d_b, "A")
                want_a = np.trace(linalg.mat_power(pt_a, k))
                got_a = permnet.shift_trace_bruteforce(rho, k, "forward", "inverse")
                assert_allclose(got_a, want_a, atol=1e-10)
                assert_allclose(got, np.conj(got_a), atol=1e-10)


def test_shift_trace_bruteforce_one_sided_gives_marginal_power():
    rho = states.random_density((2, 3), seed=23)
    want = np.trace(linalg.mat_power(rho.reduced("A"), 3))
    got = permnet.shift_trace_bruteforce(rho, 3, "forward", "identity")
    assert_allclose(got, want, atol=1e-10)


def test_shift_trace_bruteforce_term_guard():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        permnet.shift_trace_bruteforce(rho, 14, "inverse", "forward")


"""Tests for cyclic-shift permutations and replica trace contractions."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import linalg, network, permnet, states
from test_network import controlled_shift

DIRECTIONS = ("forward", "inverse", "identity")


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


def roll_reference(dims, positions, direction):
    """The digit permutation by unravel, roll and ravel: the image of x takes at
    positions[i] the digit of x at positions[i - 1] (forward) or [i + 1] (inverse)."""
    digits = np.array(np.unravel_index(np.arange(math.prod(dims)), dims))
    shift = {"forward": 1, "inverse": -1, "identity": 0}[direction]
    digits[positions] = np.roll(digits[positions], shift, axis=0)
    return np.ravel_multi_index(tuple(digits), dims)


# every uniform d^k up to the matrix guard, and the interleaved (d_A, d_B)^k
# environments of the circuit's gather plan, behind two control digits or none
UNIFORM = [([d] * k, list(range(k))) for d in (2, 3, 4, 5, 16, 64, 4096) for k in range(1, 13)
           if d**k <= permnet.MATRIX_SIZE_GUARD]
INTERLEAVED = [
    (lead + [d_a, d_b] * k, [len(lead) + 2 * c + side for c in range(k)])
    for d_a, d_b, kmax in ((2, 2, 6), (2, 3, 4), (3, 2, 4), (3, 3, 3), (2, 5, 3))
    for k in range(1, kmax + 1)
    for side in (0, 1)
    for lead in ([], [2, 2])
]


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_digit_shift_permutation_equals_the_roll_reference(direction):
    for dims, positions in UNIFORM + INTERLEAVED:
        got = permnet.digit_shift_permutation(dims, positions, direction)
        want = roll_reference(dims, positions, direction)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (dims, positions)
        if len(positions) == len(dims):
            k, d = len(dims), dims[0]
            assert np.array_equal(permnet.shift_permutation(k, d, direction), want)


def test_permutation_builders_refuse_bad_arguments():
    with pytest.raises(ValueError, match="direction must be one of .*, got 'sideways'"):
        permnet.digit_shift_permutation([2, 2], [0, 1], "sideways")
    with pytest.raises(ValueError, match="shifted positions must have equal dimensions"):
        permnet.digit_shift_permutation([2, 3], [0, 1], "forward")
    with pytest.raises(ValueError, match="need k >= 1 and d >= 2, got k=0, d=2"):
        permnet.shift_permutation(0, 2)


def test_shift_permutation_refuses_past_the_matrix_guard_before_allocating(monkeypatch):
    # 2^12 = 4096 is the edge.  Past it, 2^30 would unravel 2^30 indices into 30 digit
    # arrays, and computing 2^(10^9) alone would build a 125 MB integer: every case is
    # refused before a digit array or a large integer exists
    assert len(permnet.shift_permutation(12, 2, "forward")) == permnet.MATRIX_SIZE_GUARD
    monkeypatch.setattr(permnet, "digit_shift_permutation", lambda *a: pytest.fail("allocated"))
    tracemalloc.start()
    try:
        for k, d in ((13, 2), (30, 2), (10**9, 2), (2, 65), (1, 4097)):
            with pytest.raises(ValueError, match="exceeds matrix guard 4096"):
                permnet.shift_permutation(k, d, "forward")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(ValueError, match="exceeds matrix guard 4096"):
        permnet.build_shift_matrix(13, 2, "forward")


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
    # The circuit references' controlled shift acts only on basis states whose
    # control digit is 1.
    perm = controlled_shift([2, 2, 2], [1, 2], "forward", control=0)
    for a in (0, 1):
        for b in (0, 1):
            assert perm[2 * a + b] == 2 * a + b
            assert perm[4 + 2 * a + b] == 4 + 2 * b + a


def _cycled(t: tuple, direction: str) -> tuple:
    if direction == "forward":
        return (t[-1],) + t[:-1]
    if direction == "inverse":
        return t[1:] + (t[0],)
    return t


def _loop_reference(rho, k, dir_a, dir_b):
    """Tr[(V_A ⊗ V_B) rho^⊗k] by a Python loop over every index tuple."""
    d_a, d_b = rho.dims
    m = rho.matrix
    total = 0.0 + 0.0j
    for ii in itertools.product(range(d_a), repeat=k):
        ii2 = _cycled(ii, dir_a)
        rows_a = [i * d_b for i in ii]
        cols_a = [i * d_b for i in ii2]
        for jj in itertools.product(range(d_b), repeat=k):
            jj2 = _cycled(jj, dir_b)
            term = 1.0 + 0.0j
            for c in range(k):
                term *= m[rows_a[c] + jj[c], cols_a[c] + jj2[c]]
            total += term
    return total


@pytest.mark.parametrize("dims,kmax", [((2, 2), 4), ((2, 3), 3), ((3, 2), 3), ((3, 3), 2)])
def test_shift_trace_bruteforce_matches_loop_reference(dims, kmax):
    rho = states.random_density(dims, seed=31)
    for k in range(1, kmax + 1):
        for dir_a, dir_b in itertools.product(DIRECTIONS, repeat=2):
            got = permnet.shift_trace_bruteforce(rho, k, dir_a, dir_b)
            assert_allclose(got, _loop_reference(rho, k, dir_a, dir_b), rtol=0, atol=1e-13)


# the five (A, B) shift pairs the identity suite reads
SUITE_PAIRS = [
    ("inverse", "forward"),
    ("forward", "inverse"),
    ("forward", "identity"),
    ("identity", "forward"),
    ("forward", "forward"),
]


@pytest.mark.parametrize("dims,kmax", [((2, 2), 4), ((2, 3), 3), ((3, 2), 3), ((3, 3), 2)])
def test_shift_traces_of_a_stack_match_loop_reference_state_by_state(dims, kmax):
    rhos = [states.random_density(dims, seed=s) for s in range(5)]
    # a general complex matrix too: the oracle is multilinear in its entries
    rng = np.random.default_rng(5)
    d = dims[0] * dims[1]
    rhos.append(states.DensityMatrix(dims, random_complex(rng, d) / d))
    mats = np.array([rho.matrix for rho in rhos])
    for k in range(1, kmax + 1):
        for dir_a, dir_b in SUITE_PAIRS:
            got = permnet.shift_traces(mats, dims, k, dir_a, dir_b)
            want = [_loop_reference(rho, k, dir_a, dir_b) for rho in rhos]
            assert got.shape == (len(rhos),)
            assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dims,k", [((2, 2), 8), ((3, 3), 5)])
def test_shift_trace_bruteforce_at_high_order_matches_moment_table(dims, k):
    # (d_a d_b)^k = 65536 and 59049 terms, beyond what the loop reference reaches quickly
    rho = states.random_density(dims, seed=37)
    t_a, t_b, r, eta = network.mu_parameters(rho, k)[k - 1]
    want = {
        ("inverse", "forward"): eta,
        ("forward", "inverse"): eta,
        ("forward", "identity"): t_a,
        ("identity", "forward"): t_b,
        ("forward", "forward"): r,
        ("identity", "identity"): 1.0,
    }
    for (dir_a, dir_b), value in want.items():
        got = permnet.shift_trace_bruteforce(rho, k, dir_a, dir_b)
        assert_allclose(got, value, rtol=0, atol=1e-10)


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


def test_shift_trace_bruteforce_term_guard(monkeypatch):
    # the guard counts the terms of every state in one call: the real one admits 20 2x2
    # states up to k = 11 and one state up to k = 13
    assert 20 * 4**11 <= permnet.BRUTEFORCE_TERM_GUARD < 20 * 4**12
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError, match=r"^1 x 4\^14 terms exceed the brute-force guard$"):
        permnet.shift_trace_bruteforce(rho, 14, "inverse", "forward")
    # at a guard of 4^4 terms, one 2x2 state is admitted at k = 4 and 20 states are not
    monkeypatch.setattr(permnet, "BRUTEFORCE_TERM_GUARD", 4**4)
    mats = np.array([states.werner(0.5).matrix] * 20)
    assert permnet.shift_traces(mats[:1], (2, 2), 4, "inverse", "forward").shape == (1,)
    with pytest.raises(ValueError, match=r"^20 x 4\^4 terms exceed the brute-force guard$"):
        permnet.shift_traces(mats, (2, 2), 4, "inverse", "forward")


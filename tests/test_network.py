"""Tests for the two-stage interference network."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pptnet import estimation, linalg, network, permnet, states


def controlled_shift(dims, positions, direction, control):
    """Reference controlled digit shift: moves only the basis indices whose
    digit at `control` is 1."""
    index = np.arange(math.prod(dims))
    control_digit = np.unravel_index(index, dims)[control]
    shifted = permnet.digit_shift_permutation(dims, positions, direction)
    return np.where(control_digit == 1, shifted, index)


def dense_stage_one(rho, k):
    """Reference stage-one circuit as an explicit n x n unitary, n = 4 d^k <= 256:
    Hadamards on both controls, controlled-inverse shift of the A factors on
    the A-side control, controlled-forward shift of the B factors on the
    B-side control, Hadamards."""
    n = 4 * rho.d**k
    assert n <= 256
    d_a, d_b = rho.dims
    dims = [2, 2] + [d_a, d_b] * k
    c_shift_a = permnet.permutation_matrix(
        controlled_shift(dims, [2 + 2 * c for c in range(k)], "inverse", control=1)
    )
    c_shift_b = permnet.permutation_matrix(
        controlled_shift(dims, [3 + 2 * c for c in range(k)], "forward", control=0)
    )
    h_pair = np.kron(np.kron(network.HADAMARD, network.HADAMARD), np.eye(n // 4))
    u = h_pair @ c_shift_a @ c_shift_b @ h_pair
    rho_k = np.eye(1)
    for _ in range(k):
        rho_k = np.kron(rho_k, rho.matrix)
    rho_in = np.zeros((n, n), dtype=complex)
    rho_in[: n // 4, : n // 4] = rho_k
    # keep the two controls, one factor of dimension 4
    return linalg.partial_trace(u @ rho_in @ u.conj().T, [4, n // 4], 0)


def _embed_controlled_qubit_gate(n, control, target, u):
    """Controlled-u on an n-qubit register, given control/target factor positions."""
    proj = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    out = np.zeros((2**n, 2**n), dtype=complex)
    for x in (0, 1):
        factors = [np.eye(2, dtype=complex)] * n
        factors[control] = proj[x]
        if x == 1:
            factors[target] = u
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        out += term
    return out


def dense_stage_two(rho, k):
    """Reference stage-two circuit as an explicit 16 x 16 unitary on
    (b-readout, a-readout, b-control, a-control), fed the dense stage-one state:
    Hadamards on the readouts, controlled R- from the b-readout onto the
    b-control, controlled R+ from the a-readout onto the a-control, Hadamards,
    then the controls traced out."""
    anc0 = np.zeros((4, 4), dtype=complex)
    anc0[0, 0] = 1.0
    rho_in = np.kron(anc0, dense_stage_one(rho, k))
    h_pair = np.kron(np.kron(network.HADAMARD, network.HADAMARD), np.eye(4))
    c_plus = _embed_controlled_qubit_gate(4, control=1, target=3, u=network.R_PLUS)
    c_minus = _embed_controlled_qubit_gate(4, control=0, target=2, u=network.R_MINUS)
    u = h_pair @ c_plus @ c_minus @ h_pair
    return linalg.partial_trace(u @ rho_in @ u.conj().T, [4, 4], 0)


def circuit_inputs(dims, seeds):
    """Random states of the given seeds plus one general complex matrix.  The
    circuit is linear in rho, so it must match a dense reference on any
    matrix.  A Hermitian rho cannot expose a conjugated rho: conj(rho) = rho^T
    has the same power traces."""
    inputs = [states.random_density(dims, seed=seed) for seed in seeds]
    rng = np.random.default_rng(seeds[0])
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return inputs + [states.DensityMatrix(dims, g / d)]


def eta_exact(rho, k):
    pt = linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B")
    return np.trace(linalg.mat_power(pt, k)).real


def assert_circuit_matches_power_sums(rho, k):
    row = network.mu_parameters(rho, k)[k - 1]
    full = network.stage_one_state(rho, k, mode="full_evolution").matrix
    assert np.max(np.abs(full - network.stage_one_template(row))) < 1e-10
    # the readout gates halve the alternating sum (calibrated eta scale 2);
    # eta_exact, not power_sums_exact, since k may exceed d
    dist = network.stage_two_distribution(rho, k, mode="full_evolution")
    assert abs(2 * dist.alternating_sum() - eta_exact(rho, k)) < 1e-9


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


def reference_moment_table(rho, kmax):
    """One state's moment table, one basis and one chain of 2-D products at a time."""
    bases = (
        linalg.partial_trace(rho.matrix, list(rho.dims), 0),
        linalg.partial_trace(rho.matrix, list(rho.dims), 1),
        rho.matrix,
        linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B"),
    )
    table = np.empty((kmax, 4), dtype=complex)
    for j, base in enumerate(bases):
        acc = base
        table[0, j] = np.trace(acc)
        for k in range(1, kmax):
            acc = acc @ base
            table[k, j] = np.trace(acc)
    return table.real


def state_family(dims, seed):
    """Five random, five separable, five Bell-like and five Werner-like states:
    the Bell-like ones are sum_i e^{i theta_i} |ii> / sqrt(m), m = min(dims),
    and the Werner-like ones mix the first of them with white noise."""
    d_a, d_b = dims
    d, m = d_a * d_b, min(dims)
    rng = np.random.default_rng(seed)
    out = [states.random_density(dims, seed=seed + s) for s in range(5)]
    out += [states.random_separable(dims, 3, seed=seed + s) for s in range(5)]
    bells = []
    for _ in range(5):
        v = np.zeros(d, dtype=complex)
        v[[i * d_b + i for i in range(m)]] = np.exp(1j * rng.uniform(0, 2 * np.pi, m)) / np.sqrt(m)
        bells.append(states.DensityMatrix(dims, np.outer(v, v.conj())))
    out += bells
    out += [
        states.DensityMatrix(dims, p * bells[0].matrix + (1 - p) * np.eye(d) / d)
        for p in (0.0, 0.2, 0.4, 0.7, 1.0)
    ]
    if dims == (2, 2):
        out[10:] = [states.bell_state(w) for w in ("phi+", "phi-", "psi+", "psi-")] + [
            states.werner(p) for p in (0.0, 0.2, 0.34, 0.5, 0.8, 1.0)
        ]
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
def test_moment_tables_equal_per_state_reference_bit_for_bit(dims):
    # every product of a stacked chain has one state's size, so neither the
    # stack nor its neighbours may move a single bit of a state's table
    family = state_family(dims, seed=41)
    assert len(family) == 20
    d = dims[0] * dims[1]
    # kmax = d for the power sums; past d as verify runs it (2x2 at kmax 10)
    for kmax in (d, d + 6):
        want = np.array([reference_moment_table(rho, kmax) for rho in family])
        for rho, table in zip(family, want):
            assert_array_equal(network.mu_parameters(rho, kmax), table)
            assert_array_equal(network.moment_tables(rho.matrix[None], dims, kmax)[0], table)
        stacked = network.moment_tables(np.array([rho.matrix for rho in family]), dims, kmax)
        assert stacked.shape == (20, kmax, 4)
        assert_array_equal(stacked, want)


def inline_layout_moment_tables(mats, dims, kmax):
    """Moment tables with the partial transpose and both partial traces written
    inline on the (T, d_a, d_b, d_a, d_b) view of the stack, not through linalg."""
    mats = np.asarray(mats, dtype=complex)
    d_a, d_b = dims
    trials = len(mats)
    t = mats.reshape(trials, d_a, d_b, d_a, d_b)
    pt = t.transpose(0, 1, 4, 3, 2).reshape(mats.shape)
    full = network._power_traces(np.concatenate([mats, pt]), kmax)
    columns = (
        network._power_traces(np.einsum("zabcb->zac", t), kmax),
        network._power_traces(np.einsum("zabac->zbc", t), kmax),
        full[:trials],
        full[trials:],
    )
    return np.stack(columns, axis=-1).real


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4)])
def test_moment_tables_equal_inline_layout_reference_bit_for_bit(dims):
    d = dims[0] * dims[1]
    for trials in (1, 5, 20):
        seeds = range(7 * trials, 8 * trials)
        mats = np.array([states.random_density(dims, seed=s).matrix for s in seeds])
        # contiguous, every other state of a longer stack, and conj(rho^T) = rho as a view
        for stack in (mats, np.repeat(mats, 2, axis=0)[::2], mats.transpose(0, 2, 1).conj()):
            for kmax in (1, d, d + 6):
                want = inline_layout_moment_tables(stack, dims, kmax)
                assert_array_equal(network.moment_tables(stack, dims, kmax), want)


def test_moment_tables_hold_no_partial_transpose_beside_the_chain():
    # the (rho, rho^T_B) chain runs on one 2T-state concatenation; a partial
    # transpose kept alive beside it adds a whole stack to the traced peak
    # (6.25 stack sizes at kmax 2 with it, 5.25 without)
    mats = states.random_densities((2, 2), 0, 4096)
    tracemalloc.start()
    try:
        network.moment_tables(mats, (2, 2), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.75 * mats.nbytes


def literal_stage_one_template(row):
    """The stage-one control state written out entry by entry."""
    t_a, t_b, r, eta = row
    mu1, mu2, mu3, mu4 = t_a + t_b, t_a - t_b, (r + eta) / 2, (r - eta) / 2
    m = np.array(
        [
            [1 + mu1 + mu3, 0, 0, -mu4],
            [0, 1 - mu2 - mu3, mu4, 0],
            [0, mu4, 1 + mu2 - mu3, 0],
            [-mu4, 0, 0, 1 - mu1 + mu3],
        ],
        dtype=complex,
    )
    return m / 4.0


def hand_signed_probabilities(rows):
    """The four readout probabilities with each parity sign of eta written by hand."""
    t_a, t_b, _, eta = np.moveaxis(rows, -1, 0)
    mu1, mu2 = t_a + t_b, t_a - t_b
    return np.stack([1 + mu1 + eta, 1 - mu2 - eta, 1 + mu2 - eta, 1 - mu1 + eta], axis=-1) / 4.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_templates_and_probabilities_equal_written_out_references_bit_for_bit(dims):
    d = dims[0] * dims[1]
    tables = np.array([network.mu_parameters(rho, d) for rho in state_family(dims, seed=3)])
    for row in tables.reshape(-1, 4):
        assert_array_equal(network.stage_one_template(row), literal_stage_one_template(row))
        assert_array_equal(network.stage_two_probabilities(row), hand_signed_probabilities(row))
    # (T, kmax, 4) rows at once, as the measurement front half passes them
    assert_array_equal(network.stage_two_probabilities(tables), hand_signed_probabilities(tables))
    rho = states.random_density(dims, seed=1)
    for k in range(1, d + 1):
        row = network.mu_parameters(rho, k)[k - 1]
        want = literal_stage_one_template(row)
        assert_array_equal(network.stage_one_state(rho, k).matrix, want)
        clipped = np.maximum(hand_signed_probabilities(row), 0.0)  # as outcome_rows clips
        assert_array_equal(network.stage_two_distribution(rho, k).p, clipped)


def test_moment_table_keeps_no_whole_power():
    # the chains keep one product and the diagonals of the powers: a
    # (kmax, 64, 64) stack of powers would take 4 MiB per chain here
    rho = states.random_density((8, 8), seed=5)
    tracemalloc.start()
    try:
        network.mu_parameters(rho, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_moment_tables_reject_non_finite_and_complex_traces():
    mats = np.array([np.eye(4, dtype=complex) / 4] * 3)
    mats[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        network.moment_tables(mats, (2, 2), 2)
    # a non-Hermitian pair of entries gives the order-2 traces an imaginary part
    mats[1] = np.eye(4) / 4
    mats[2, 0, 1], mats[2, 1, 0] = 0.1j, 0.1
    with pytest.raises(ValueError, match="at k=2 has imaginary part"):
        network.moment_tables(mats, (2, 2), 2)


def test_moment_tables_gate_imaginary_parts_at_the_load_band():
    # Tr(rho) = Tr(rho_A) = Tr(rho_B) carry the whole imaginary trace, so the
    # order-1 band decides; states.load_band(4) is 4.001e-9
    band = states.load_band(4)
    for scale in (0.99, 1.01, 10.0):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] += 1j * scale * band
        if scale < 1:
            assert network.moment_tables(m[None], (2, 2), 4).shape == (1, 4, 4)
        else:
            with pytest.raises(ValueError, match="at k=1 has imaginary part .* beyond the load band"):
                network.moment_tables(m[None], (2, 2), 4)


@pytest.mark.parametrize(
    "dims, off, message",
    [
        ((2, 2), 0.1, "Tr(rho_B^k) at k=3 has imaginary part 3.000e-02 beyond the load band 1.200e-08"),
        ((2, 3), 0.05, "Tr(rho_B^k) at k=2 has imaginary part 5.000e-03 beyond the load band 1.200e-08"),
    ],
    ids=["2x2", "2x3"],
)
def test_moment_table_refusal_names_the_largest_excess_of_the_stack(dims, off, message):
    # state 0 is out of band first (order 1, three bands' worth of imaginary trace), but
    # state 1's non-Hermitian pair gives rho_B a larger excess: the refusal names that one
    d = dims[0] * dims[1]
    mats = np.array([np.eye(d, dtype=complex) / d] * 3)
    mats[0, 0, 0] += 3j * states.load_band(d)
    mats[1, 0, 1], mats[1, 1, 0] = off * 1j, off
    with pytest.raises(ValueError) as info:
        network.moment_tables(mats, dims, d)
    assert str(info.value) == message


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


def test_stage_one_circuit_matches_dense_unitary():
    for dims, k in (((2, 2), 2), ((2, 2), 3), ((2, 3), 2)):
        for rho in circuit_inputs(dims, (12, 13)):
            full = network.stage_one_state(rho, k, mode="full_evolution").matrix
            assert np.max(np.abs(full - dense_stage_one(rho, k))) < 1e-12


@pytest.mark.parametrize("dims, kmax", [((2, 2), 5), ((2, 3), 3), ((3, 2), 3), ((3, 3), 3)])
def test_shift_sources_pin_the_shift_directions(dims, kmax):
    # The gather sources must invert the controlled shifts of the circuit on
    # the whole 4 d^k space.  Reversing both cycles runs the inverse evolution,
    # which leaves every trace (and so every dense-state test) unchanged; only
    # these indices can tell.
    for k in range(1, kmax + 1):
        m = (dims[0] * dims[1]) ** k
        full = [2, 2] + list(dims) * k
        shift_a = controlled_shift(full, range(2, 2 * k + 2, 2), "inverse", control=1)
        shift_b = controlled_shift(full, range(3, 2 * k + 2, 2), "forward", control=0)
        src = np.argsort(shift_a[shift_b]).reshape(4, m)
        assert_array_equal(src // m, np.repeat(np.arange(4)[:, None], m, axis=1))
        assert_array_equal(network._shift_sources(dims, k), src % m)


def per_call_stage_one(rho, k):
    """Reference stage one that gathers per call, without a plan: the digits of
    the shift sources, then one broadcast fancy index into rho per copy."""
    terms = np.full((4, 4, rho.d**k), 0.25, dtype=complex)
    for e in np.unravel_index(network._shift_sources(rho.dims, k), [rho.d] * k):
        terms *= rho.matrix[e[:, None, :], e[None, :, :]]
    return network.H_PAIR @ terms.sum(axis=2) @ network.H_PAIR


@pytest.mark.parametrize(
    "dims, kmax",
    [
        ((2, 2), 5),
        ((2, 3), 3),
        ((3, 2), 3),
        ((3, 3), 3),
        ((2, 4), 3),
        ((4, 2), 3),
        ((2, 5), 3),
        ((4, 4), 2),
        ((2, 16), 2),
    ],
)
def test_planned_stage_one_equals_per_call_gather_bit_for_bit(dims, kmax):
    for k in range(1, kmax + 1):
        for rho in circuit_inputs(dims, (21, 22)):
            planned = network.stage_one_state(rho, k, mode="full_evolution").matrix
            assert_array_equal(planned, per_call_stage_one(rho, k))


def test_gather_plan_is_cached_read_only():
    plan = network._gather_plan((2, 3), 2)
    assert plan.shape == (2, 4, 4, 36)
    assert network._gather_plan((2, 3), 2) is plan
    with pytest.raises(ValueError):
        plan[0, 0, 0, 0] = 0
    # unequal local dims swap which digits each control shifts
    assert not np.array_equal(plan, network._gather_plan((3, 2), 2))
    for dims in ((2, 3), (3, 2)):
        assert_allclose(estimation.calibrate_eta_scale(dims), 2.0, atol=1e-9)
    # from k = 3 on, copies 0 and 1 share one row into the 4^4-entry table (rho / 4) ⊗ rho
    fused = network._gather_plan((2, 2), 5)
    assert fused.shape == (4, 4, 4, 1024)
    assert fused[0].max() < 4**4


@pytest.mark.parametrize("dims, k", [((2, 2), 5), ((3, 3), 3), ((2, 5), 3), ((2, 16), 2)])
def test_warm_circuit_call_peaks_below_three_complex_rows(dims, k):
    # a row is the 16 d^k complex entries of one gather; forming rho^⊗k, or a
    # table larger than a row, would break the bound
    rho = states.random_density(dims, seed=1)
    network.stage_two_distribution(rho, k, mode="full_evolution")
    tracemalloc.start()
    try:
        network.stage_two_distribution(rho, k, mode="full_evolution")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * rho.d**k * 16


def test_gather_plan_cache_stays_bounded():
    network._gather_plan.cache_clear()
    bound = network.GATHER_PLAN_CACHE_SIZE
    for d_b in range(2, bound + 5):
        network._gather_plan((2, d_b), 1)
    info = network._gather_plan.cache_info()
    assert info.maxsize == bound
    assert info.misses == bound + 3 and info.currsize == bound


def test_rejected_circuit_calls_build_no_plan():
    network._gather_plan.cache_clear()
    for rho, k in (
        (states.bell_state("phi+"), 0),
        (states.bell_state("phi+"), -1),
        (states.random_density((2, 3), seed=5), 4),
        (states.random_density((2, 2), seed=5), 6),
    ):
        with pytest.raises(ValueError):
            network.stage_two_distribution(rho, k, mode="full_evolution")
    info = network._gather_plan.cache_info()
    assert info.misses == info.currsize == 0


def test_stage_two_circuit_matches_dense_unitary():
    for dims, k in (((2, 2), 2), ((2, 2), 3), ((2, 3), 2)):
        for rho in circuit_inputs(dims, (15, 16)):
            full = network.stage_two_state(rho, k, mode="full_evolution").matrix
            assert np.max(np.abs(full - dense_stage_two(rho, k))) < 1e-12


def test_circuit_at_benchmark_sizes_matches_exact_power_sums():
    for dims, k in (((2, 2), 4), ((2, 3), 3)):
        assert_circuit_matches_power_sums(states.random_density(dims, seed=14), k)


def test_circuit_at_guard_edge_matches_exact_power_sums():
    # 2x2 at k = 5 is n = 4096, exactly the guard; a dense n x n complex state
    # there takes 268 MB per array
    assert 4 * 4**5 == network.FULL_EVOLUTION_GUARD
    for dims, k in (((2, 2), 5), ((3, 3), 3)):
        assert_circuit_matches_power_sums(states.random_density(dims, seed=17), k)


@pytest.mark.parametrize("mode", ["analytic", "full_evolution"])
@pytest.mark.parametrize("k", [0, -1])
def test_stage_functions_reject_order_below_one(mode, k):
    bell = states.bell_state("phi+")
    for stage in (network.stage_one_state, network.stage_two_state, network.stage_two_distribution):
        with pytest.raises(ValueError, match="kmax must be >= 1"):
            stage(bell, k, mode)


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
    with pytest.raises(network.OutcomeRangeError):
        network.outcome_distribution(2, np.array([0.5, 0.5, 0.5, -0.5]), 4)
    with pytest.raises(network.OutcomeRangeError):
        network.outcome_distribution(2, np.array([0.5, 0.5, 0.5, 0.5]), 4)
    dist = network.outcome_distribution(2, np.array([1.0 + 5e-13, 0.0, 0.0, -5e-13]), 4)
    assert dist.p[3] == 0.0
    assert dist.p.sum() <= 1.0 + 1e-12
    # the clipping band is k * d * VALIDATION_TOL (8e-9 here), an input error beyond it
    assert issubclass(network.OutcomeRangeError, ValueError)
    dist = network.outcome_distribution(2, np.array([1.0 + 7e-9, 0.0, 0.0, -7e-9]), 4)
    assert dist.p[3] == 0.0
    with pytest.raises(network.OutcomeRangeError):
        network.outcome_distribution(2, np.array([1.0 + 9e-9, 0.0, 0.0, -9e-9]), 4)


def test_outcome_rows_name_the_first_order_out_of_range():
    # one check for every order, each against its own band k * d * VALIDATION_TOL
    ks = np.array([2, 3, 4])
    probs = np.full((3, 4), 0.25)
    probs[0] = [1.0 + 7e-9, 0.0, 0.0, -7e-9]  # inside k=2's band 8e-9: clipped
    probs[1] = [0.5, 0.5, 0.5, -0.5]
    probs[2] = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(network.OutcomeRangeError) as err:
        network.outcome_rows(ks, probs, 4)
    assert str(err.value) == "k=3 outcome probabilities [0.5, 0.5, 0.5, -0.5] beyond 1.2e-08"
    with pytest.raises(network.OutcomeRangeError, match="^k=4 outcome probabilities "):
        network.outcome_rows(ks[[0, 2]], probs[[0, 2]], 4)
    probs[1:] = [1.0 + 1e-8, 0.0, 0.0, -1e-8]  # beyond k=2's band 8e-9, inside k=3's and k=4's
    clipped = network.outcome_rows(ks, probs, 4)
    assert_array_equal(clipped[:, 3], 0.0)
    assert_array_equal(clipped[:, :3], probs[:, :3])
    with pytest.raises(network.OutcomeRangeError, match="^k=2 outcome probabilities "):
        network.outcome_rows(ks[:1], probs[1:2], 4)
    # the one-order call keeps its message
    with pytest.raises(network.OutcomeRangeError) as err:
        network.outcome_distribution(2, np.array([0.5, 0.5, 0.5, -0.5]), 4)
    assert str(err.value) == "k=2 outcome probabilities [0.5, 0.5, 0.5, -0.5] beyond 8.0e-09"


# rows at and just past the band of test_outcome_distribution_validation, and a NaN row
BAND_EDGE_ROWS = {
    "5e-13": [1.0 + 5e-13, 0.0, 0.0, -5e-13],
    "7e-9": [1.0 + 7e-9, 0.0, 0.0, -7e-9],
    "9e-9": [1.0 + 9e-9, 0.0, 0.0, -9e-9],
    "nan": [math.nan, 0.5, 0.5, 0.0],
}


def band_answer(call):
    """The clipped row's bytes, or the refusal's type and message."""
    try:
        return call().tobytes()
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("d, k", [(4, 1), (4, 2), (4, 3), (6, 2), (9, 3), (16, 5)])
@pytest.mark.parametrize("row", BAND_EDGE_ROWS.values(), ids=BAND_EDGE_ROWS.keys())
def test_one_order_and_many_share_the_band_rule(d, k, row):
    # one order is checked on its own, not as a stack of one: same verdict, same bytes
    row = np.array(row)
    one = band_answer(lambda: network.outcome_distribution(k, row, d).p)
    many = band_answer(lambda: network.outcome_rows(np.array([k]), row[None], d)[0])
    assert one == many
    # and as the second of two rows, behind one in band
    rows = np.array([[0.25] * 4, row])
    assert band_answer(lambda: network.outcome_rows(np.array([1, k]), rows, d)[1]) == many
    if math.isnan(row[0]):
        assert one == (network.OutcomeRangeError, f"k={k} outcome probabilities "
                       f"[nan, 0.5, 0.5, 0.0] beyond {states.load_band(d, k):.1e}")


def test_non_finite_readouts_are_refused():
    # a NaN fails every comparison, so the band is a test that must hold, not one that fails;
    # a state's own non-finite entries never get here: DensityMatrix refuses them when built
    with pytest.raises(network.OutcomeRangeError, match=r"^k=2 outcome probabilities \[nan"):
        network.outcome_distribution(2, [math.nan, 0.5, 0.5, 0.0], 4)
    for value in (math.inf, -math.inf):
        with pytest.raises(network.OutcomeRangeError):
            network.outcome_distribution(2, [value, 0.5, 0.5, 0.0], 4)


def test_stage_two_readout_refuses_a_state_off_the_diagonal(monkeypatch):
    # the Bell k = 2 controls have c[0, 0] = 1/4, so column 0 of the readout map, moved
    # in its row 1 (entry (0, 1) of the readout state), moves that coherence by a quarter
    bell = states.bell_state("phi+")
    assert_allclose(network._stage_one_circuit(bell, 2)[0, 0], 0.25, atol=1e-15)
    p = network.stage_two_distribution(bell, 2, "full_evolution").p
    perturbed = network.READOUT_MAP.copy()
    perturbed[1, 0] += 4e-11  # a coherence of 1e-11, within the 1e-10 tolerance
    monkeypatch.setattr(network, "READOUT_MAP", perturbed)
    assert_array_equal(network.stage_two_distribution(bell, 2, "full_evolution").p, p)
    perturbed[1, 0] += 4e-6
    with pytest.raises(RuntimeError) as err:
        network.stage_two_distribution(bell, 2, "full_evolution")
    assert str(err.value) == "stage-two readout state is not diagonal (max off-diagonal 1.000e-06)"


def test_stage_two_distribution_bell_frozen():
    bell = states.bell_state("phi+")
    assert_allclose(
        network.stage_two_distribution(bell, 2).p, [0.75, 0.0, 0.0, 0.25], atol=1e-12
    )
    assert_allclose(
        network.stage_two_distribution(bell, 3).p,
        [0.4375, 0.1875, 0.1875, 0.1875],
        atol=1e-12,
    )
    assert_allclose(
        network.stage_two_distribution(bell, 4).p,
        [0.375, 0.1875, 0.1875, 0.25],
        atol=1e-12,
    )


def test_stage_two_distribution_maximally_mixed_frozen():
    rho = states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
    dist = network.stage_two_distribution(rho, 2)
    assert_allclose(dist.p, [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-12)
    assert_allclose(dist.alternating_sum(), 0.25, atol=1e-12)


def test_stage_two_distribution_pure_product():
    rho = states.random_separable((2, 2), terms=1, seed=7)
    assert_allclose(
        network.stage_two_distribution(rho, 3).p, [1.0, 0.0, 0.0, 0.0], atol=1e-10
    )


def test_stage_two_alternating_sum_is_transpose_power_trace():
    for seed in range(8):
        rho = states.random_density((2, 2), seed=seed)
        for k in (2, 3, 4):
            dist = network.stage_two_distribution(rho, k)
            assert_allclose(dist.alternating_sum(), eta_exact(rho, k), atol=1e-10)
            assert_allclose(dist.p.sum(), 1.0, atol=1e-12)
            assert np.all(dist.p >= 0)


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
            p = dist.p
            t_a = np.trace(linalg.mat_power(rho.reduced("A"), k)).real
            t_b = np.trace(linalg.mat_power(rho.reduced("B"), k)).real
            assert_allclose((p[0] + p[1]) - (p[2] + p[3]), t_b / np.sqrt(2), atol=1e-10)
            assert_allclose((p[0] + p[2]) - (p[1] + p[3]), t_a / np.sqrt(2), atol=1e-10)


def gate_by_gate_readout(c):
    """Reference stage-two readout of traced stage-one controls c: H2 G H2 with
    G[xy, x'y'] = Tr(U_x'y'^dagger U_xy sigma) / 4 and sigma = H2 c H2, each
    entry of G taken from the gates U_xy of READOUT_GATES."""
    h2, gates = network.H_PAIR, network.READOUT_GATES
    sigma = h2 @ c @ h2
    g = np.array([[np.trace(v.conj().T @ u @ sigma) / 4 for v in gates] for u in gates])
    return h2 @ g @ h2


def test_readout_map_equals_gate_by_gate_readout():
    rng = np.random.default_rng(29)
    for _ in range(20):
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c /= np.linalg.norm(c)  # a state's traced controls have Frobenius norm at most 1
        got = (network.READOUT_MAP @ c.ravel()).reshape(4, 4)
        assert np.max(np.abs(got - gate_by_gate_readout(c))) <= 1e-15


def test_readout_gates_are_hermitian_unitaries():
    for gate in (network.R_PLUS, network.R_MINUS):
        assert_allclose(gate, gate.conj().T, atol=1e-15)
        assert_allclose(gate @ gate, np.eye(2), atol=1e-15)

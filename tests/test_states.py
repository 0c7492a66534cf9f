"""Tests for state construction, validation, and file IO."""

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import estimation, linalg, states


def test_load_band_is_order_times_dimension_times_tolerance_plus_floor():
    assert states.load_band(4) == 4 * states.VALIDATION_TOL + states.NEGATIVITY_FLOOR
    assert states.load_band(9, 3) == 3 * 9 * states.VALIDATION_TOL + states.NEGATIVITY_FLOOR
    bands = states.load_band(6, np.arange(1, 6))
    assert bands.tolist() == [states.load_band(6, k) for k in range(1, 6)]
    assert estimation.NEGATIVITY_FLOOR is states.NEGATIVITY_FLOOR
    assert linalg.VALIDATION_TOL is states.VALIDATION_TOL
    assert not hasattr(linalg, "HERMITICITY_TOL")


def test_validate_maximally_mixed():
    report = states.validate(states.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4))
    assert report.ok
    assert report.hermiticity_dev == 0.0
    assert abs(report.trace_dev) < 1e-15
    assert_allclose(report.min_eigenvalue, 0.25)


def test_validate_flags_negative_eigenvalue():
    bad = states.DensityMatrix((2, 2), np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex))
    report = states.validate(bad)
    assert not report.ok
    assert_allclose(report.min_eigenvalue, -0.1)
    assert "min_eig" in report.summary()


def test_bell_state_matrix_frozen():
    rho = states.bell_state("phi+")
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert_allclose(rho.matrix, expected)
    assert rho.dims == (2, 2)


def test_bell_states_are_pure_with_maximally_mixed_marginals():
    for which in ("phi+", "phi-", "psi+", "psi-"):
        rho = states.bell_state(which)
        assert_allclose(np.trace(rho.matrix @ rho.matrix).real, 1.0, atol=1e-12)
        assert_allclose(rho.reduced("A"), np.eye(2) / 2, atol=1e-12)
        pt = linalg.partial_transpose(rho.matrix, 2, 2, "B")
        assert_allclose(linalg.hermitian_eigenvalues(pt)[-1], -0.5, atol=1e-12)


def test_bell_state_unknown_label():
    with pytest.raises(ValueError):
        states.bell_state("phi")


def test_werner_endpoints():
    assert_allclose(states.werner(0.0).matrix, np.eye(4) / 4)
    assert_allclose(states.werner(1.0).matrix, states.bell_state("psi-").matrix)


def test_werner_negativity_profile():
    # The partially transposed Werner state has minimum eigenvalue (1 - 3p) / 4.
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 1.0):
        pt = linalg.partial_transpose(states.werner(p).matrix, 2, 2, "B")
        assert_allclose(linalg.hermitian_eigenvalues(pt)[-1], (1 - 3 * p) / 4, atol=1e-12)


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        states.werner(1.5)
    with pytest.raises(ValueError):
        states.werner(-0.1)


def test_random_density_is_valid_and_full_rank():
    for seed in range(50):
        rho = states.random_density((2, 3), seed=seed)
        assert states.validate(rho).ok
        assert linalg.hermitian_eigenvalues(rho.matrix)[-1] > 0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)])
@pytest.mark.parametrize("seed", [7, [7, 3], np.random.SeedSequence([7, 3, 1])])
def test_random_density_matches_the_two_draw_formula(dims, seed):
    # the real part of G, then its imaginary part, from one generator
    d = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    assert np.array_equal(states.random_density(dims, seed).matrix, m / np.trace(m).real)


def test_random_densities_rows_do_not_depend_on_the_stack_size():
    short, long = states.random_densities((2, 3), 5, 3), states.random_densities((2, 3), 5, 8)
    assert short.shape == (3, 6, 6)
    assert np.array_equal(short, long[:3])
    assert np.array_equal(long[0], states.random_density((2, 3), 5).matrix)
    for m in long:
        assert states.validate(states.DensityMatrix((2, 3), m)).ok


def test_random_density_deterministic():
    a = states.random_density((2, 2), seed=42)
    b = states.random_density((2, 2), seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    c = states.random_density((2, 2), seed=43)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_separable_stays_ppt():
    for seed in range(25):
        rho = states.random_separable((2, 2), terms=4, seed=seed)
        assert states.validate(rho).ok
        pt = linalg.partial_transpose(rho.matrix, 2, 2, "B")
        assert linalg.hermitian_eigenvalues(pt)[-1] > -1e-10


def test_random_separable_single_term_is_product():
    rho = states.random_separable((2, 3), terms=1, seed=7)
    assert_allclose(rho.matrix, linalg.kron(rho.reduced("A"), rho.reduced("B")), atol=1e-12)


def test_random_separable_rejects_bad_terms():
    with pytest.raises(ValueError):
        states.random_separable((2, 2), terms=0, seed=0)


def test_save_load_round_trip(tmp_path):
    rho = states.random_density((2, 3), seed=3)
    path = tmp_path / "state.json"
    states.save(rho, path)
    back = states.load(path)
    assert back.dims == rho.dims
    assert_allclose(back.matrix, rho.matrix, atol=0, rtol=0)


def test_load_rejects_unnormalized(tmp_path):
    rho = states.random_density((2, 2), seed=4)
    path = tmp_path / "state.json"
    states.save(rho, path)
    doc = json.loads(path.read_text())
    doc["matrix"][0][0][0] -= 0.1
    path.write_text(json.dumps(doc))
    with pytest.raises(states.PhysicalityError) as err:
        states.load(path)
    assert not err.value.report.ok


def test_density_matrix_refuses_a_matrix_of_another_size():
    with pytest.raises(states.StateFormatError, match=r"matrix shape \(6, 6\) does not match dims 2x2"):
        states.DensityMatrix((2, 2), np.eye(6))


def test_load_rejects_shape_mismatch(tmp_path):
    rho = states.random_density((2, 2), seed=5)
    path = tmp_path / "state.json"
    states.save(rho, path)
    doc = json.loads(path.read_text())
    doc["dims"] = [2, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(states.StateFormatError):
        states.load(path)


@pytest.mark.parametrize("dims", [[2.7, 2], ["2", "2"], [2.0, 2], [True, 4]])
def test_load_rejects_non_integer_dims(tmp_path, dims):
    # each of these once loaded as a 2x2 state or failed with a misleading (1, 4)
    path = tmp_path / "state.json"
    states.save(states.random_density((2, 2), seed=6), path)
    doc = json.loads(path.read_text())
    doc["dims"] = dims
    path.write_text(json.dumps(doc))
    with pytest.raises(states.StateFormatError, match="two integers"):
        states.load(path)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_entries(tmp_path, entry):
    # json reads these; they once failed as "Eigenvalues did not converge"
    path = tmp_path / "state.json"
    states.save(states.random_density((2, 2), seed=7), path)
    doc = json.loads(path.read_text())
    doc["matrix"][1][2][1] = float(entry)
    path.write_text(json.dumps(doc))  # written as the bare token
    # load names the file, before the matrix reaches DensityMatrix's own refusal
    message = f"^{re.escape(str(path))}: matrix entries must be finite$"
    with pytest.raises(states.StateFormatError, match=message):
        states.load(path)


@pytest.mark.parametrize("dims, entry", [((2, 2), (0, 1)), ((2, 3), (1, 2))])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_density_matrix_refuses_non_finite_entries(dims, entry, value):
    # refused when built, so no readout mode meets one: the full-evolution k = 1 circuit
    # reads only the diagonal, and once returned finite probabilities for a NaN off it
    m = states.random_density(dims, 0).matrix.copy()
    m[entry] = value
    with pytest.raises(states.StateFormatError, match="^matrix entries must be finite$"):
        states.DensityMatrix(dims, m)


@pytest.mark.parametrize(
    "row, col, entry",
    [(0, 0, ["0.25", "0"]), (0, 1, [False, False]), (1, 2, [0.0, False]), (2, 3, [0, None])],
)
def test_load_rejects_entries_that_are_not_numbers(tmp_path, row, col, entry):
    # the float conversion takes each of these at its value (null as NaN), so the
    # maximally mixed state with a quoted or boolean entry once passed `check`
    doc = {"dims": [2, 2], "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]}
    doc["matrix"][row][col] = entry
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(states.StateFormatError, match="must be JSON numbers"):
        states.load(path)


def test_load_rejects_malformed_entries(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": [[1.0] * 4] * 4}))
    with pytest.raises(states.StateFormatError):
        states.load(path)


def test_density_matrix_properties():
    rho = states.bell_state("phi+")
    assert rho.d_a == 2 and rho.d_b == 2 and rho.d == 4

"""Two-stage local interferometer network evaluated two ways: an analytic fast
path from trace functionals, and a full unitary-evolution oracle that builds
the actual circuit on small instances.

Outcome-bit convention (used for ancilla states and four-outcome
distributions alike): the B-side control qubit is the leading tensor factor,
so label (xy) means x = B-side bit, y = A-side bit, basis index 2x + y.
Under this ordering the first-bit marginal difference reads Tr(rho_B^k) and
the second-bit one Tr(rho_A^k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, permnet
from .states import DensityMatrix

FULL_EVOLUTION_GUARD = 4096

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# the two controlled rotations of the second stage
R_PLUS = (PAULI_Z + PAULI_Y) / np.sqrt(2)
R_MINUS = (PAULI_Z - PAULI_Y) / np.sqrt(2)


@dataclass(frozen=True)
class AncillaState:
    which: str  # "stage1_a1b1" or "stage2_a2b2"
    matrix: np.ndarray


@dataclass(frozen=True)
class OutcomeDistribution:
    k: int
    p00: float
    p01: float
    p10: float
    p11: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p01, self.p10, self.p11])

    def alternating_sum(self) -> float:
        return self.p00 - self.p01 - self.p10 + self.p11


def outcome_distribution(k: int, probs: np.ndarray) -> OutcomeDistribution:
    """Validated four-outcome distribution (nonnegative within -1e-12, unit sum)."""
    probs = np.asarray(probs, dtype=float)
    if probs.min() < -1e-12:
        raise RuntimeError(f"negative outcome probability {probs.min():.3e}")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise RuntimeError(f"outcome probabilities sum to {probs.sum()!r}")
    probs = np.clip(probs, 0.0, None)
    return OutcomeDistribution(k, *(float(p) for p in probs))


_MOMENT_NAMES = ("Tr(rho_A^k)", "Tr(rho_B^k)", "Tr(rho^k)", "Tr[(rho^T_B)^k]")


def mu_parameters(rho: DensityMatrix, kmax: int) -> np.ndarray:
    """Moment table of every trace functional the network reads out: a
    (kmax, 4) array whose row k-1 holds

        Tr(rho_A^k), Tr(rho_B^k), Tr(rho^k), Tr[(rho^T_B)^k]

    computed from accumulated products of the reduced states, rho and its
    partial transpose (never from rho^⊗k).  No column is needed for the other
    transpose: rho^T_A = (rho^T_B)^T has the same power traces.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    bases = (
        rho.reduced("A"),
        rho.reduced("B"),
        rho.matrix,
        linalg.partial_transpose(rho.matrix, rho.d_a, rho.d_b, "B"),
    )
    table = np.empty((kmax, len(bases)), dtype=complex)
    for j, base in enumerate(bases):
        acc = base
        table[0, j] = np.trace(acc)
        for k in range(1, kmax):
            acc = acc @ base
            table[k, j] = np.trace(acc)
    k, j = np.unravel_index(np.argmax(np.abs(table.imag)), table.shape)
    if abs(table[k, j].imag) > 1e-10:
        raise ValueError(
            f"{_MOMENT_NAMES[j]} at k={k + 1} has imaginary part {table[k, j].imag:.3e} beyond 1e-10"
        )
    return table.real.copy()


def stage_one_template(row: np.ndarray) -> np.ndarray:
    """Analytic stage-one control state from one row of the moment table, in
    terms of mu1,2 = Tr(rho_A^k) ± Tr(rho_B^k) and mu3,4 = (Tr(rho^k) ± eta) / 2
    with eta = Tr[(rho^T_B)^k]."""
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


def stage_two_probabilities(row: np.ndarray) -> np.ndarray:
    """Analytic four-outcome readout probabilities from one row of the moment
    table; their alternating sum is eta = Tr[(rho^T_B)^k]."""
    t_a, t_b, _, eta = row
    mu1, mu2 = t_a + t_b, t_a - t_b
    return np.array([1 + mu1 + eta, 1 - mu2 - eta, 1 + mu2 - eta, 1 - mu1 + eta]) / 4.0


def _analytic(mode: str) -> bool:
    if mode not in ("analytic", "full_evolution"):
        raise ValueError(f"mode must be 'analytic' or 'full_evolution', got {mode!r}")
    return mode == "analytic"


def _stage_one_circuit(rho: DensityMatrix, k: int) -> np.ndarray:
    """Build the stage-one circuit explicitly: two control qubits, Hadamards,
    controlled cyclic shifts on the A- and B-factors of rho^⊗k, Hadamards,
    then trace out everything but the controls."""
    size = 4 * rho.d**k
    if size > FULL_EVOLUTION_GUARD:
        raise ValueError(f"full-evolution space size {size} exceeds guard {FULL_EVOLUTION_GUARD}")
    d_a, d_b = rho.dims
    dims = [2, 2] + [d_a, d_b] * k  # (b-control, a-control, A1, B1, ..., Ak, Bk)
    a_positions = [2 + 2 * c for c in range(k)]
    b_positions = [3 + 2 * c for c in range(k)]
    # the B-side control applies the forward shift and the A-side control the
    # inverse shift, which targets the partial transpose on B
    c_shift_a = permnet.permutation_matrix(
        permnet.digit_shift_permutation(dims, a_positions, "inverse", control=1)
    )
    c_shift_b = permnet.permutation_matrix(
        permnet.digit_shift_permutation(dims, b_positions, "forward", control=0)
    )
    h_pair = np.kron(np.kron(HADAMARD, HADAMARD), np.eye(size // 4))
    u = h_pair @ c_shift_a @ c_shift_b @ h_pair
    anc0 = np.zeros((4, 4), dtype=complex)
    anc0[0, 0] = 1.0
    rho_in = anc0
    for _ in range(k):
        rho_in = np.kron(rho_in, rho.matrix)
    rho_out = u @ rho_in @ u.conj().T
    return linalg.partial_trace(rho_out, dims, [0, 1])


def stage_one_state(rho: DensityMatrix, k: int, mode: str = "analytic") -> AncillaState:
    """Joint state of the two stage-one control qubits after the interference round."""
    if _analytic(mode):
        return AncillaState("stage1_a1b1", stage_one_template(mu_parameters(rho, k)[k - 1]))
    return AncillaState("stage1_a1b1", _stage_one_circuit(rho, k))


def _embed_controlled_qubit_gate(n: int, control: int, target: int, u: np.ndarray) -> np.ndarray:
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


def stage_two_state(rho: DensityMatrix, k: int, mode: str = "analytic") -> AncillaState:
    """Joint state of the two stage-two readout qubits.

    In analytic mode this is the diagonal matrix of the four outcome
    probabilities; in full-evolution mode the second-stage circuit (Hadamards,
    controlled R+ / R- onto the stage-one controls, Hadamards) is applied
    explicitly and the readout pair is traced out.
    """
    if _analytic(mode):
        probs = stage_two_distribution(rho, k).as_array()
        return AncillaState("stage2_a2b2", np.diag(probs).astype(complex))
    stage_one = _stage_one_circuit(rho, k)
    # factors: (b-readout, a-readout, b-control, a-control)
    anc0 = np.zeros((4, 4), dtype=complex)
    anc0[0, 0] = 1.0
    rho_in = np.kron(anc0, stage_one)
    h_pair = np.kron(np.kron(HADAMARD, HADAMARD), np.eye(4))
    c_plus = _embed_controlled_qubit_gate(4, control=1, target=3, u=R_PLUS)
    c_minus = _embed_controlled_qubit_gate(4, control=0, target=2, u=R_MINUS)
    u = h_pair @ c_plus @ c_minus @ h_pair
    rho_out = u @ rho_in @ u.conj().T
    return AncillaState("stage2_a2b2", linalg.partial_trace(rho_out, [2, 2, 2, 2], [0, 1]))


def stage_two_distribution(rho: DensityMatrix, k: int, mode: str = "analytic") -> OutcomeDistribution:
    """Four-outcome readout distribution whose alternating sum encodes
    Tr[(rho^T_B)^k]: exactly in analytic mode, up to the measured calibration
    constant in full-evolution mode."""
    if _analytic(mode):
        return outcome_distribution(k, stage_two_probabilities(mu_parameters(rho, k)[k - 1]))
    reduced = stage_two_state(rho, k, mode).matrix
    off = reduced - np.diag(np.diag(reduced))
    if np.max(np.abs(off)) > 1e-10:
        raise RuntimeError(
            f"stage-two readout state is not diagonal (max off-diagonal "
            f"{np.max(np.abs(off)):.3e})"
        )
    return outcome_distribution(k, np.real(np.diag(reduced)))

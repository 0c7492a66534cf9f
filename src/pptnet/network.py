"""Two-stage local interferometer network evaluated two ways: an analytic fast
path from trace functionals, and a full-evolution oracle that runs the actual
circuit on small instances.

Outcome-bit convention (used for ancilla states and four-outcome
distributions alike): the B-side control qubit is the leading tensor factor,
so label (xy) means x = B-side bit, y = A-side bit, basis index 2x + y.
Under this ordering the first-bit marginal difference reads Tr(rho_B^k) and
the second-bit one Tr(rho_A^k).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg, permnet
from .states import DensityMatrix, load_band

FULL_EVOLUTION_GUARD = 4096
# cached stage-one gather plans, each at most 16*(k-1)*d^k indices (524 KB at the guard)
GATHER_PLAN_CACHE_SIZE = 16

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# the two controlled rotations of the second stage
R_PLUS = (PAULI_Z + PAULI_Y) / np.sqrt(2)
R_MINUS = (PAULI_Z - PAULI_Y) / np.sqrt(2)
# H ⊗ H on a qubit pair; real and symmetric, so its own adjoint
H_PAIR = np.kron(HADAMARD, HADAMARD)
# U_xy = R_MINUS^x ⊗ R_PLUS^y on (b-control, a-control), stacked by readout 2x + y
READOUT_GATES = np.array(
    [np.kron(u_b, u_a) for u_b in (np.eye(2), R_MINUS) for u_a in (np.eye(2), R_PLUS)]
)
# column j: the stage-two state H2 G H2, row-major, of traced stage-one controls E_j (basis
# matrix j, row-major), G[xy, x'y'] = Tr(U_x'y'^dagger U_xy sigma) / 4, sigma = H2 E_j H2
_SIGMAS = H_PAIR @ np.eye(16).reshape(16, 4, 4) @ H_PAIR
_GRAMS = np.einsum("aim,jml,bil->jab", READOUT_GATES, _SIGMAS, READOUT_GATES.conj()) / 4
READOUT_MAP = (H_PAIR @ _GRAMS @ H_PAIR).reshape(16, 16).T.copy()


# weight of readout 2x + y in the parity P00 - P01 - P10 + P11
PARITY = np.array([1, -1, -1, 1])
OFF_DIAGONAL = ~np.eye(4, dtype=bool)


@dataclass(frozen=True, eq=False)
class AncillaState:
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    k: int
    p: np.ndarray  # (4,) probabilities by readout 2x + y

    def alternating_sum(self) -> float:
        return float(self.p @ PARITY)


class OutcomeRangeError(ValueError):
    """Outcome probabilities out of range beyond what state validation allows."""


def _in_band(low, total, tol):
    """The band test on rows' least entries and sums, scalars or arrays: a test that must
    hold, so that a row holding a NaN, which fails every comparison, is out of band."""
    return (low >= -tol) & (abs(total - 1.0) <= tol)


def _out_of_band(k, row: np.ndarray, tol) -> OutcomeRangeError:
    return OutcomeRangeError(f"k={k} outcome probabilities {row.tolist()} beyond {tol:.1e}")


def outcome_rows(ks: np.ndarray, probs: np.ndarray, d: int) -> np.ndarray:
    """The (K, 4) outcome distributions of orders ks of a d-dimensional state,
    clipped to nonnegative values; OutcomeRangeError, naming the first order
    out of range, when a probability or a row's sum strays beyond that order's
    states.load_band(d, k)."""
    tols = load_band(d, ks)
    ok = _in_band(probs.min(axis=-1), probs.sum(axis=-1), tols)
    if not ok.all():
        i = (~ok).argmax()
        raise _out_of_band(ks[i], probs[i], tols[i])
    return np.maximum(probs, 0.0)


def outcome_distribution(k: int, probs: np.ndarray, d: int) -> OutcomeDistribution:
    """Order-k four-outcome distribution of a d-dimensional state: one row of `outcome_rows`."""
    probs = np.asarray(probs, dtype=float)
    tol = load_band(d, k)
    if not _in_band(np.minimum.reduce(probs), np.add.reduce(probs), tol):
        raise _out_of_band(k, probs, tol)
    return OutcomeDistribution(k, np.maximum(probs, 0.0))


_MOMENT_NAMES = ("Tr(rho_A^k)", "Tr(rho_B^k)", "Tr(rho^k)", "Tr[(rho^T_B)^k]")


def _power_traces(bases: np.ndarray, kmax: int) -> np.ndarray:
    """Tr(b^k) for k = 1..kmax of every matrix b in a (..., n, n) stack, as a (..., kmax)
    array: the diagonals of accumulated products, one (..., kmax, n) array summed once."""
    diags = np.empty(bases.shape[:-2] + (kmax, bases.shape[-1]), dtype=complex)
    acc = bases
    diags[..., 0, :] = acc.diagonal(axis1=-2, axis2=-1)
    for k in range(1, kmax):
        acc = acc @ bases
        diags[..., k, :] = acc.diagonal(axis1=-2, axis2=-1)
    return diags.sum(axis=-1)


def moment_tables(mats: np.ndarray, dims: tuple[int, int], kmax: int) -> np.ndarray:
    """Moment tables of a (T, d, d) stack of states with local dims (d_a, d_b):
    a (T, kmax, 4) array whose row k-1 of table t holds

        Tr(rho_A^k), Tr(rho_B^k), Tr(rho^k), Tr[(rho^T_B)^k]

    of state t, computed from accumulated products of the reduced states, rho
    and its partial transpose, each taken by `linalg` on the whole stack
    (never from rho^⊗k).  No column is needed for the other transpose:
    rho^T_A = (rho^T_B)^T has the same power traces.

    rho_A and rho_B each run their own chain of products and (rho, rho^T_B)
    share one; every product has the size of a single state's, so a table
    does not depend on the other states of the stack, bit for bit.  An
    imaginary part beyond order k's states.load_band is an input error.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    trials = len(mats)
    full = _power_traces(np.concatenate([mats, linalg.partial_transpose(mats, *dims, "B")]), kmax)
    columns = (
        _power_traces(linalg.partial_trace(mats, dims, 0), kmax),
        _power_traces(linalg.partial_trace(mats, dims, 1), kmax),
        full[:trials],
        full[trials:],
    )
    tables = np.stack(columns, axis=-1)
    bands = load_band(mats.shape[-1], np.arange(1, kmax + 1))
    excess = np.abs(tables.imag) - bands[:, None]
    z, k, j = np.unravel_index(np.argmax(excess), tables.shape)
    if excess[z, k, j] > 0:
        raise ValueError(
            f"{_MOMENT_NAMES[j]} at k={k + 1} has imaginary part "
            f"{tables[z, k, j].imag:.3e} beyond the load band {bands[k]:.3e}"
        )
    return tables.real.copy()


def mu_parameters(rho: DensityMatrix, kmax: int) -> np.ndarray:
    """Moment table of every trace functional the network reads out: the
    (kmax, 4) table of `moment_tables` for the one state rho."""
    return moment_tables(rho.matrix[None], rho.dims, kmax)[0]


def stage_one_template(row: np.ndarray) -> np.ndarray:
    """Analytic stage-one control state from one row of the moment table, in
    terms of mu1,2 = Tr(rho_A^k) ± Tr(rho_B^k) and mu3,4 = (Tr(rho^k) ± eta) / 2
    with eta = Tr[(rho^T_B)^k]."""
    t_a, t_b, r, eta = row
    mu3, mu4 = (r + eta) / 2, (r - eta) / 2
    # the diagonal is the stage-two distribution with mu3 in place of eta
    m = np.diag(stage_two_probabilities(np.array([t_a, t_b, r, mu3]))).astype(complex)
    m[[0, 3], [3, 0]] = -mu4 / 4.0
    m[[1, 2], [2, 1]] = mu4 / 4.0
    return m


def stage_two_probabilities(rows: np.ndarray) -> np.ndarray:
    """Analytic four-outcome readout probabilities, (..., 4), from (..., 4)
    rows of the moment table; their alternating sum is eta = Tr[(rho^T_B)^k]."""
    t_a, t_b, _, eta = np.moveaxis(rows, -1, 0)
    mu1, mu2 = t_a + t_b, t_a - t_b
    marginals = np.stack([1 + mu1, 1 - mu2, 1 + mu2, 1 - mu1], axis=-1)
    return (marginals + eta[..., None] * PARITY) / 4.0


def _analytic(mode: str) -> bool:
    if mode not in ("analytic", "full_evolution"):
        raise ValueError(f"mode must be 'analytic' or 'full_evolution', got {mode!r}")
    return mode == "analytic"


def _shift_sources(dims: tuple[int, int], k: int) -> np.ndarray:
    """Source rows of the stage-one gather, row 2 x_b + x_a for control value
    (x_b, x_a): the environment index of (A1, B1, ..., Ak, Bk) each index takes
    its entry from.  The A-side control applies the inverse shift of the A
    factors and the B-side control the forward shift of the B factors (which
    targets the partial transpose on B), so the sources undo those shifts.
    Traces cannot tell this evolution from its inverse; a test pins them."""
    env = list(dims) * k
    a_src = permnet.digit_shift_permutation(env, range(0, 2 * k, 2), "forward")
    b_src = permnet.digit_shift_permutation(env, range(1, 2 * k, 2), "inverse")
    return np.stack([np.arange(len(a_src)), a_src, b_src, a_src[b_src]])


@functools.lru_cache(maxsize=GATHER_PLAN_CACHE_SIZE)
def _gather_plan(dims: tuple[int, int], k: int) -> np.ndarray:
    """Read-only (k, 4, 4, d^k) flat indices into a d x d matrix: entry
    [t, c, c', r] = e_t(src[c, r]) d + e_t(src[c', r]), src the rows of
    `_shift_sources` and e_t the t-th base-d digit of an environment index.
    For k >= 3 rows 0 and 1 are fused into row0 d^2 + row1, indices into the
    d^4-entry table (rho / 4) ⊗ rho, which the guard (d <= 10) keeps no larger
    than a row; the plan is then (k - 1, 4, 4, d^k)."""
    d = dims[0] * dims[1]
    digits = np.unravel_index(_shift_sources(dims, k), [d] * k)
    plan = np.stack([e[:, None, :] * d + e[None, :, :] for e in digits])
    if k >= 3:
        plan = np.concatenate([plan[:1] * (d * d) + plan[1:2], plan[2:]])
    plan.flags.writeable = False
    return plan


def check_circuit_size(d: int, k: int) -> None:
    """Refuse an order-k circuit on a d-dimensional state that the
    full-evolution guard does not admit, before anything is sized from it."""
    if k < 1:
        raise ValueError(f"kmax must be >= 1, got {k}")
    size = 4 * d**k
    if size > FULL_EVOLUTION_GUARD:
        raise ValueError(f"full-evolution space size {size} exceeds guard {FULL_EVOLUTION_GUARD}")


def _stage_one_circuit(rho: DensityMatrix, k: int) -> np.ndarray:
    """Evolve the stage-one circuit: two control qubits, Hadamards, controlled
    cyclic shifts on the A- and B-factors of rho^⊗k, Hadamards, then trace out
    everything but the controls; the 4 x 4 controls are returned before the
    second Hadamards.  Each control value gathers through a plain shift of the
    d^k environment, and only the 16 d^k entries of the shifted state that the
    trace reads are evaluated, each as a product of k entries of rho; neither
    rho^⊗k nor the 4 d^k x 4 d^k state is formed.  For k >= 3 the first two
    factors are read together from the d^4-entry table (rho / 4) ⊗ rho, so a
    call makes k - 1 gather passes over 16 d^k entries (k for k <= 2)."""
    check_circuit_size(rho.d, k)
    # The input is 1/4 J_4 ⊗ rho^⊗k (the first Hadamards take the controls from
    # |00> to |++>), so input entry (i, j) is 1/4 of the product over copies t
    # of rho[e_t(i), e_t(j)], e_t the t-th base-d digit of the environment
    # index.  The trace reads entry (c, r; c', r) of the shifted state, which
    # is input entry (c, src[c, r]; c', src[c', r]), formed as ((1/4 f_0) f_1) f_2 ...
    plan = _gather_plan(tuple(rho.dims), k)
    flat = rho.matrix.ravel()
    table = flat * 0.25
    if len(plan) < k:  # the first row reads (rho / 4) ⊗ rho
        table = np.multiply.outer(table, flat).ravel()
    terms = table[plan[0]]
    for row in plan[1:]:
        terms *= flat[row]
    return terms.sum(axis=2)


def stage_one_state(rho: DensityMatrix, k: int, mode: str = "analytic") -> AncillaState:
    """Joint state of the two stage-one control qubits after the interference round."""
    if _analytic(mode):
        return AncillaState(stage_one_template(mu_parameters(rho, k)[k - 1]))
    # the second Hadamards act on the controls alone, so they commute with the trace
    return AncillaState(H_PAIR @ _stage_one_circuit(rho, k) @ H_PAIR)


def stage_two_state(rho: DensityMatrix, k: int, mode: str = "analytic") -> AncillaState:
    """Joint state of the two stage-two readout qubits.

    In analytic mode this is the diagonal matrix of the four outcome
    probabilities.  In full-evolution mode the second-stage circuit is applied
    to the stage-one controls: Hadamards take the readouts to |++>, readout
    (x, y) applies U_xy = R_MINUS^x ⊗ R_PLUS^y to the (b-control, a-control)
    pair, the controls are traced out and Hadamards act on the readouts.  That
    leaves H G H with G[xy, x'y'] = Tr(U_x'y'^dagger U_xy sigma) / 4, sigma the
    stage-one state: a fixed linear map of the traced controls, READOUT_MAP.
    """
    if _analytic(mode):
        return AncillaState(np.diag(stage_two_distribution(rho, k).p).astype(complex))
    return AncillaState((READOUT_MAP @ _stage_one_circuit(rho, k).ravel()).reshape(4, 4))


def stage_two_distribution(rho: DensityMatrix, k: int, mode: str = "analytic") -> OutcomeDistribution:
    """Four-outcome readout distribution whose alternating sum encodes
    Tr[(rho^T_B)^k]: exactly in analytic mode, up to the measured calibration
    constant in full-evolution mode."""
    if _analytic(mode):
        row = mu_parameters(rho, k)[k - 1]
        return outcome_distribution(k, stage_two_probabilities(row), rho.d)
    reduced = stage_two_state(rho, k, mode).matrix
    off = np.abs(reduced[OFF_DIAGONAL]).max()
    if off > 1e-10:
        raise RuntimeError(f"stage-two readout state is not diagonal (max off-diagonal {off:.3e})")
    return outcome_distribution(k, reduced.diagonal().real, rho.d)

"""Cyclic shift operators on k tensor copies and a brute-force index-sum
trace oracle.

A shift permutation is returned as an integer array `perm` over basis indices,
with perm[x] = image of basis state x.  The forward shift moves the last
tensor factor to the front: digits (x1, ..., xk) -> (xk, x1, ..., x_{k-1}),
where x1 is the most significant digit (leading Kronecker factor).
"""

from __future__ import annotations

import math
import string

import numpy as np

from .states import DensityMatrix

MATRIX_SIZE_GUARD = 4096  # d^k bound of one shift matrix, dense or read as a permutation
TRIAL_ENTRY_BUDGET = 2**22  # entries of verify's T·D² state stack and of each T·d^k gather
BRUTEFORCE_TERM_GUARD = 10**8  # terms of one brute-force call, over all its states

# under a shift, copy c takes the digit of copy c + step (mod k)
_CYCLE_STEP = {"forward": -1, "inverse": 1, "identity": 0}


def _check_direction(direction: str) -> None:
    if direction not in _CYCLE_STEP:
        raise ValueError(f"direction must be one of {tuple(_CYCLE_STEP)}, got {direction!r}")


def digit_shift_permutation(dims: list[int], positions: list[int], direction: str) -> np.ndarray:
    """Permutation of a mixed-radix index space cyclically shifting the digits
    at `positions`, which must share one dimension: one transpose of the index
    grid, as the image of x takes at positions[i] the digit of x at
    positions[i + step]."""
    _check_direction(direction)
    dims = [int(d) for d in dims]
    positions = list(positions)
    if len({dims[p] for p in positions}) > 1:
        raise ValueError("shifted positions must have equal dimensions")
    axes = list(range(len(dims)))
    for i, p in enumerate(positions):
        axes[p] = positions[(i - _CYCLE_STEP[direction]) % len(positions)]
    return np.arange(math.prod(dims)).reshape(dims).transpose(axes).ravel()


def shift_permutation(k: int, d: int, direction: str = "forward") -> np.ndarray:
    """Basis permutation of the cyclic shift on k factors of dimension d,
    guarded to d^k <= 4096."""
    if k < 1 or d < 2:
        raise ValueError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    # d >= 2, so k > log2(guard) is past it without raising d to a huge power
    if k > math.log2(MATRIX_SIZE_GUARD) or d**k > MATRIX_SIZE_GUARD:
        raise ValueError(f"d^k = {d}^{k} exceeds matrix guard {MATRIX_SIZE_GUARD}")
    return digit_shift_permutation([d] * k, list(range(k)), direction)


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Unitary matrix with entry (perm[x], x) = 1; a dense test reference."""
    size = len(perm)
    m = np.zeros((size, size), dtype=complex)
    m[perm, np.arange(size)] = 1.0
    return m


def build_shift_matrix(k: int, d: int, direction: str = "forward") -> np.ndarray:
    """Explicit d^k x d^k shift matrix, guarded to d^k <= 4096 by
    `shift_permutation`; a dense test reference, since verify and the circuit
    read the permutations themselves."""
    return permutation_matrix(shift_permutation(k, d, direction))


def bruteforce_admits(trials: int, d: int, k: int) -> bool:
    return trials * d**k <= BRUTEFORCE_TERM_GUARD  # d^k = (d_a d_b)^k terms per state


def shift_traces(
    mats: np.ndarray, dims: tuple[int, int], k: int, dir_a: str, dir_b: str
) -> np.ndarray:
    """Tr[(V_A ⊗ V_B) rho^⊗k] of every state of a (T, d, d) stack with local
    dims (d_a, d_b), as a (T,) complex array, in one unoptimized einsum over
    the states' entries.

    Copy c carries the indices (a_c, b_c, a_σA(c), b_σB(c)), where σ takes c
    to c + step (mod k), step -1 for forward, +1 for inverse and 0 for
    identity, and every copy shares the state index Z.  With optimize=False
    numpy adds up the product over all (d_a d_b)^k index tuples of each state
    in C: no rho^⊗k, no contraction path and no matrix product.  Correctness
    oracle, not a production path."""
    _check_direction(dir_a)
    _check_direction(dir_b)
    d_a, d_b = dims
    t = np.asarray(mats, dtype=complex).reshape(-1, d_a, d_b, d_a, d_b)
    if not bruteforce_admits(len(t), d_a * d_b, k):
        raise ValueError(f"{len(t)} x {d_a * d_b}^{k} terms exceed the brute-force guard")
    # the guard keeps k <= 13, so the 2k index letters are lowercase and Z is free
    a, b = string.ascii_letters[:k], string.ascii_letters[k : 2 * k]
    step_a, step_b = _CYCLE_STEP[dir_a], _CYCLE_STEP[dir_b]
    subs = ",".join(
        "Z" + a[c] + b[c] + a[(c + step_a) % k] + b[(c + step_b) % k] for c in range(k)
    )
    return np.einsum(subs + "->Z", *[t] * k, optimize=False)


def shift_trace_bruteforce(rho: DensityMatrix, k: int, dir_a: str, dir_b: str) -> complex:
    """Tr[(V_A ⊗ V_B) rho^⊗k] of one state: `shift_traces` of the stack [rho]."""
    return complex(shift_traces(rho.matrix[None], rho.dims, k, dir_a, dir_b)[0])

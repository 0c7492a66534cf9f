"""Cyclic shift operators on k tensor copies, their controlled versions, and a
brute-force index-sum trace oracle.

A shift permutation is returned as an integer array `perm` over basis indices,
with perm[x] = image of basis state x.  The forward shift moves the last
tensor factor to the front: digits (x1, ..., xk) -> (xk, x1, ..., x_{k-1}),
where x1 is the most significant digit (leading Kronecker factor).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .states import DensityMatrix

MATRIX_SIZE_GUARD = 4096
BRUTEFORCE_TERM_GUARD = 10**8

_DIRECTIONS = ("forward", "inverse", "identity")


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


def digit_shift_permutation(
    dims: list[int], positions: list[int], direction: str, control: int | None = None
) -> np.ndarray:
    """Permutation of a mixed-radix index space cyclically shifting the digits
    at `positions` (which must share one dimension); with `control` set, only
    indices whose control digit equals 1 are moved."""
    _check_direction(direction)
    dims = [int(d) for d in dims]
    positions = list(positions)
    if len({dims[p] for p in positions}) > 1:
        raise ValueError("shifted positions must have equal dimensions")
    size = math.prod(dims)
    digits = np.array(np.unravel_index(np.arange(size), dims))
    sel = digits[positions]
    if direction == "forward":
        sel = np.roll(sel, 1, axis=0)
    elif direction == "inverse":
        sel = np.roll(sel, -1, axis=0)
    if control is not None:
        mask = digits[control] == 1
        moved = digits[:, mask].copy()
        moved[positions] = sel[:, mask]
        out = digits.copy()
        out[:, mask] = moved
    else:
        out = digits.copy()
        out[positions] = sel
    return np.ravel_multi_index(tuple(out), dims)


def shift_permutation(k: int, d: int, direction: str = "forward") -> np.ndarray:
    """Basis permutation of the cyclic shift on k factors of dimension d."""
    if k < 1 or d < 2:
        raise ValueError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    return digit_shift_permutation([d] * k, list(range(k)), direction)


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """Unitary matrix with entry (perm[x], x) = 1."""
    size = len(perm)
    m = np.zeros((size, size), dtype=complex)
    m[perm, np.arange(size)] = 1.0
    return m


def build_shift_matrix(k: int, d: int, direction: str = "forward") -> np.ndarray:
    """Explicit d^k x d^k shift matrix; guarded to d^k <= 4096 for oracle use."""
    if d**k > MATRIX_SIZE_GUARD:
        raise ValueError(f"d^k = {d**k} exceeds dense-matrix guard {MATRIX_SIZE_GUARD}")
    return permutation_matrix(shift_permutation(k, d, direction))


def _cycled(t: tuple, direction: str) -> tuple:
    if direction == "forward":
        return (t[-1],) + t[:-1]
    if direction == "inverse":
        return t[1:] + (t[0],)
    return t


def shift_trace_bruteforce(rho: DensityMatrix, k: int, dir_a: str, dir_b: str) -> complex:
    """Tr[(V_A ⊗ V_B) rho^⊗k] via direct index-tuple summation over rho's
    entries, never forming rho^⊗k.  Each side's shift direction is forward,
    inverse, or identity.  Correctness oracle, not a production path."""
    _check_direction(dir_a)
    _check_direction(dir_b)
    d_a, d_b = rho.dims
    if (d_a * d_b) ** k > BRUTEFORCE_TERM_GUARD:
        raise ValueError(f"(d_a*d_b)^k = {(d_a * d_b) ** k} exceeds brute-force guard")
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


"""Dense complex matrix kernel: Kronecker products, and the matrix powers, partial
transposes, partial traces and Hermitian eigenvalues of (..., n, n) stacks.

Composite basis convention used throughout the package: the bipartite basis
state |ij> (i on A, j on B) sits at index i*d_b + j (row-major, A-major).
"""

from __future__ import annotations

import numpy as np

# the input tolerance, whose rule states owns (states.load_band); it sits here,
# below states in the import graph, so hermitian_eigenvalues reads the same one
VALIDATION_TOL = 1e-9


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor major: entry ((i*rb+k),(j*cb+l)) = a[i,j]*b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def mat_power(a: np.ndarray, k: int) -> np.ndarray:
    """k-fold matrix product a @ a @ ... @ a for integer k >= 1."""
    a = _as_square(a)
    if k < 1:
        raise ValueError(f"power must be a positive integer, got {k}")
    return np.linalg.matrix_power(a, k)


def partial_transpose(rho: np.ndarray, d_a: int, d_b: int, subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one subsystem only, in every matrix of a stack.

    For subsystem B the output entry at (i*d_b+j, m*d_b+n) is the input entry
    at (i*d_b+n, m*d_b+j); for subsystem A the A-indices are swapped instead.
    A pure index permutation: involutive, trace- and Hermiticity-preserving.
    """
    rho = _as_square(rho, "rho")
    if rho.shape[-1] != d_a * d_b:
        raise ValueError(f"matrix size {rho.shape[-1]} does not match dims {d_a}x{d_b}")
    t = rho.reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))
    if subsystem == "B":
        t = t.swapaxes(-3, -1)
    elif subsystem == "A":
        t = t.swapaxes(-4, -2)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(rho.shape)


def partial_trace(rho: np.ndarray, dims: list[int], keep: int) -> np.ndarray:
    """Reduced matrices of factor `keep` (0 or 1) of a stack of two-factor matrices
    whose factor dimensions `dims` list the leading (leftmost Kronecker) factor first."""
    rho = _as_square(rho, "rho")
    if len(dims) != 2 or dims[0] * dims[1] != rho.shape[-1]:
        raise ValueError(f"dims {list(dims)} inconsistent with matrix size {rho.shape[-1]}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    t = rho.reshape(rho.shape[:-2] + (dims[0], dims[1], dims[0], dims[1]))
    return np.einsum("...abcb->...ac" if keep == 0 else "...abad->...bd", t)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of each Hermitian matrix of a stack, sorted descending;
    raises if max|a - a^dagger| over the stack exceeds VALIDATION_TOL."""
    a = _as_square(a)
    dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)))
    if dev > VALIDATION_TOL:
        raise ValueError(
            f"matrix is not Hermitian within {VALIDATION_TOL} (deviation {dev:.3e})"
        )
    return np.linalg.eigvalsh(a)[..., ::-1]

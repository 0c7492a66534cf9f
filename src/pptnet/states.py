"""Construction, validation, and JSON serialization of bipartite density matrices."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import linalg
from .linalg import VALIDATION_TOL

# rounding slack on top of every band load_band gives
NEGATIVITY_FLOOR = 1e-12

_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def load_band(d: int, k=1):
    """Tolerance of every range check downstream of `load`, for an order-k
    quantity of a d-dimensional state: k * d * VALIDATION_TOL + NEGATIVITY_FLOOR.

    `validate` lets through eigenvalues down to -VALIDATION_TOL, so a negative
    part of trace up to d * VALIDATION_TOL (and Hermiticity and trace errors
    up to VALIDATION_TOL); an order-k trace, outcome probability or lambda_min
    moves by about k times that.  NEGATIVITY_FLOOR absorbs rounding (exactly-PPT
    states come back with lambda_min around -1e-16).  `k` may be an array."""
    return k * d * VALIDATION_TOL + NEGATIVITY_FLOOR


class StateFormatError(ValueError):
    """Structural problem with a state file or matrix/dims mismatch."""


class PhysicalityError(ValueError):
    """State fails Hermiticity / trace / positivity checks; carries the report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(f"state is not physical: {report.summary()}")


def check_dims(dims) -> None:
    """Reject local dimensions below 2 before any array is sized from them."""
    if min(dims) < 2:
        raise StateFormatError(f"local dimensions must be >= 2, got {tuple(dims)}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite state: local dims (d_a, d_b) plus a (d_a*d_b)^2 matrix, A-major basis."""

    dims: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        check_dims(self.dims)
        d_a, d_b = self.dims
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape != (d_a * d_b, d_a * d_b):
            raise StateFormatError(
                f"matrix shape {m.shape} does not match dims {d_a}x{d_b}"
            )
        # refused here, so no reader sees one: the k = 1 circuit reads only the diagonal
        if not np.isfinite(m).all():
            raise StateFormatError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    @property
    def d(self) -> int:
        return self.dims[0] * self.dims[1]

    def reduced(self, keep: str) -> np.ndarray:
        """Reduced state of subsystem 'A' or 'B'."""
        return linalg.partial_trace(self.matrix, [self.d_a, self.d_b], 0 if keep == "A" else 1)


@dataclass(frozen=True)
class ValidationReport:
    hermiticity_dev: float
    trace_dev: float
    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return (
            self.hermiticity_dev <= VALIDATION_TOL
            and self.trace_dev <= VALIDATION_TOL
            and self.min_eigenvalue >= -VALIDATION_TOL
        )

    def summary(self) -> str:
        return (
            f"hermiticity_dev={self.hermiticity_dev:.3e} trace_dev={self.trace_dev:.3e} "
            f"min_eigenvalue={self.min_eigenvalue:.3e} tol={VALIDATION_TOL:.1e} "
            f"-> {'pass' if self.ok else 'fail'}"
        )


def validate(rho: DensityMatrix) -> ValidationReport:
    """Check Hermiticity, unit trace, and positive semidefiniteness within VALIDATION_TOL."""
    m = rho.matrix
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    trace_dev = float(abs(np.trace(m) - 1.0))
    # eigvalsh on the Hermitian part; the deviation itself is reported separately
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    return ValidationReport(herm_dev, trace_dev, min_eig)


def bell_state(which: str = "phi+") -> DensityMatrix:
    """Rank-1 projector onto one of the four Bell vectors, dims 2x2."""
    key = which.lower()
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state {which!r}; choose from {sorted(_BELL_VECTORS)}")
    v = _BELL_VECTORS[key]
    return DensityMatrix((2, 2), np.outer(v, v.conj()))


def werner(p: float) -> DensityMatrix:
    """p * |psi-><psi-| + (1-p) * I/4; entangled exactly when p > 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    singlet = bell_state("psi-").matrix
    return DensityMatrix((2, 2), p * singlet + (1.0 - p) * np.eye(4) / 4)


def random_densities(
    dims: tuple[int, int], seed: int | list[int] | np.random.SeedSequence, trials: int
) -> np.ndarray:
    """(trials, d, d) stack of Ginibre-induced random states G G^dagger / Tr,
    G = X_0 + i X_1 from one `default_rng(seed)` draw of shape (trials, 2, d, d).
    Row t depends on `seed` and t alone, so a stack is a prefix of any longer one."""
    check_dims(dims)
    d = dims[0] * dims[1]
    x = np.random.default_rng(seed).standard_normal((trials, 2, d, d))
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().transpose(0, 2, 1)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return m


def random_density(
    dims: tuple[int, int], seed: int | list[int] | np.random.SeedSequence
) -> DensityMatrix:
    """Ginibre-induced random state, deterministic per seed: row 0 of `random_densities`."""
    return DensityMatrix(tuple(dims), random_densities(dims, seed, 1)[0])


def random_separable(dims: tuple[int, int], terms: int, seed: int) -> DensityMatrix:
    """Convex mixture of `terms` random pure product states with simplex weights."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    check_dims(dims)
    d_a, d_b = dims
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        psi_a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        psi_b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        psi_a /= np.linalg.norm(psi_a)
        psi_b /= np.linalg.norm(psi_b)
        m += w * linalg.kron(np.outer(psi_a, psi_a.conj()), np.outer(psi_b, psi_b.conj()))
    return DensityMatrix(tuple(dims), m)


def save(rho: DensityMatrix, path) -> None:
    """Write the JSON state format: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}."""
    payload = {
        "dims": [rho.d_a, rho.d_b],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.matrix],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load(path) -> DensityMatrix:
    """Read and validate a state file; structural and physicality errors are distinct."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict) or "dims" not in payload or "matrix" not in payload:
        raise StateFormatError(f"{path}: expected object with 'dims' and 'matrix'")
    dims = payload["dims"]
    # a JSON integer, not a float, string or boolean (bool subclasses int)
    if not (isinstance(dims, list) and len(dims) == 2 and all(type(x) is int for x in dims)):
        raise StateFormatError(f"{path}: dims must be a list of two integers, got {dims!r}")
    try:
        raw = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"{path}: matrix entries must be [re, im] pairs") from exc
    d = dims[0] * dims[1]
    if raw.ndim != 3 or raw.shape != (d, d, 2):
        raise StateFormatError(
            f"{path}: matrix shape {raw.shape} does not match dims {dims[0]}x{dims[1]}"
        )
    # the float conversion above also takes JSON strings and booleans, which are no numbers
    entries = chain.from_iterable(chain.from_iterable(payload["matrix"]))
    if not set(map(type, entries)) <= {float, int}:
        raise StateFormatError(f"{path}: matrix entries must be JSON numbers")
    # json reads NaN and Infinity, which no physical state holds
    if not np.all(np.isfinite(raw)):
        raise StateFormatError(f"{path}: matrix entries must be finite")
    rho = DensityMatrix(tuple(dims), raw[..., 0] + 1j * raw[..., 1])
    report = validate(rho)
    if not report.ok:
        raise PhysicalityError(report)
    return rho

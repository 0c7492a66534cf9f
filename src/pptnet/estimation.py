"""Measurement-statistics layer: shot sampling, eta estimation and calibration,
power sums, spectrum recovery via Newton's identities, and the PPT verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network
from .states import DensityMatrix

NPT_ENTANGLED = "NPT_ENTANGLED"
PPT_CONCLUSIVE_SEPARABLE = "PPT_CONCLUSIVE_SEPARABLE"
PPT_INCONCLUSIVE = "PPT_INCONCLUSIVE"

# Hard caps on the imaginary residual left after root cleanup.  Exact power
# sums of a degenerate spectrum still split multiple roots by roughly
# eps^(1/multiplicity) (about 1e-4 for a fourfold root in double precision),
# and million-shot statistics on a threefold root scatter them a few times
# further, so the caps sit well above those scales while still rejecting
# spectra whose roots have drifted a sizable fraction off the real axis.
EXACT_IMAG_CAP = 1e-3
SHOT_IMAG_CAP = 0.25

NEGATIVITY_FLOOR = 1e-12

COEFF_SNAP_TOL = 1e-12
# the calibration states must agree on the readout constant within this
CALIBRATION_TOL = 1e-9
# exact-mode roots closer than this are treated as one multiple root
CLUSTER_TOL = 1e-3

_STREAM_PRIMARY = 0
_STREAM_BOOTSTRAP = 1


class EstimationError(RuntimeError):
    """Estimation pipeline failure (noisy spectrum, failed calibration, ...)."""


class SpectrumTooNoisyError(EstimationError):
    """Recovered roots are too far off the real axis to trust."""


class CalibrationError(EstimationError):
    """Calibration states disagree on the readout scale constant."""


@dataclass(frozen=True)
class ShotCounts:
    k: int
    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    def as_array(self) -> np.ndarray:
        return np.array([self.n00, self.n01, self.n10, self.n11])


@dataclass(frozen=True)
class PowerSums:
    """Power sums p[i] = Tr[(rho^T_B)^(i+1)] for orders 1..d (index offset one)."""

    d: int
    p: np.ndarray
    source: str  # "exact" or "estimated"
    stderr: np.ndarray | None = None

    def order(self, k: int) -> float:
        return float(self.p[k - 1])


@dataclass(frozen=True)
class Spectrum:
    lambdas: np.ndarray  # descending
    residual_imag: float


@dataclass(frozen=True)
class PptVerdict:
    lambda_min: float
    sigma: float
    classification: str
    dims: tuple[int, int]
    z: float


@dataclass(frozen=True)
class EstimationConfig:
    shots_per_k: int = 100_000
    seed: int = 0
    bootstrap_replicas: int = 200
    z: float = 3.0
    use_k2_shortcut: bool = True

    def __post_init__(self):
        if self.shots_per_k < 1:
            raise ValueError(f"shots_per_k must be >= 1, got {self.shots_per_k}")
        if self.bootstrap_replicas < 0:
            raise ValueError(f"bootstrap_replicas must be >= 0, got {self.bootstrap_replicas}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not (math.isfinite(self.z) and self.z >= 0):
            raise ValueError(f"z must be a finite nonnegative number, got {self.z!r}")


@dataclass(frozen=True)
class ProtocolResult:
    power_sums: PowerSums
    spectrum: Spectrum
    verdict: PptVerdict
    counts_per_k: list[ShotCounts] | None
    sigma: float
    interval: tuple[float, float] | None
    copies_consumed: int


def _substream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def sample_shots(dist: network.OutcomeDistribution, n: int, seed) -> ShotCounts:
    """Multinomial draw of n outcomes from the four-outcome distribution."""
    if n < 1:
        raise ValueError(f"shot count must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    probs = np.clip(dist.as_array(), 0.0, None)
    counts = rng.multinomial(n, probs / probs.sum())
    return ShotCounts(dist.k, *(int(c) for c in counts))


def eta_from_counts(counts: ShotCounts) -> tuple[float, float]:
    """Estimate eta = P00 - P01 - P10 + P11 plus its standard error."""
    total = counts.total
    if total <= 0:
        raise ValueError("cannot estimate from zero total counts")
    m_hat = (counts.n00 - counts.n01 - counts.n10 + counts.n11) / total
    stderr = math.sqrt(max(0.0, 1.0 - m_hat**2) / total)
    return m_hat, stderr


def calibration_report(dims: tuple[int, int]) -> dict:
    """Fit the scale constant relating the full-evolution circuit's alternating
    sum to Tr[(rho^T_B)^2] on the maximally mixed and a pure product state;
    returns the fitted constant and per-state residuals.

    Both calibration states must agree within CALIBRATION_TOL or the fit is
    rejected.  The analytic distributions need no scaling (their alternating
    sum is the power sum itself); the constant applies only to the circuit's
    readout.
    """
    d = dims[0] * dims[1]
    product = np.zeros((d, d), dtype=complex)
    product[0, 0] = 1.0
    probes = [
        ("maximally_mixed", DensityMatrix(tuple(dims), np.eye(d, dtype=complex) / d), 1.0 / d),
        ("pure_product", DensityMatrix(tuple(dims), product), 1.0),
    ]
    rows = []
    for name, rho, eta_exact in probes:
        dist = network.stage_two_distribution(rho, 2, mode="full_evolution")
        rows.append((name, dist.alternating_sum(), eta_exact))
    c = sum(s * e for _, s, e in rows) / sum(s * s for _, s, _ in rows)
    states = [
        {
            "state": name,
            "alternating_sum": float(s),
            "eta_exact": float(e),
            "residual": float(abs(e - c * s)),
        }
        for name, s, e in rows
    ]
    for row in states:
        if row["residual"] > CALIBRATION_TOL:
            raise CalibrationError(
                f"calibration states disagree: residual {row['residual']:.3e} "
                f"on {row['state']} at scale {c!r}"
            )
    return {"eta_scale": float(c), "states": states}


def calibrate_eta_scale(dims: tuple[int, int]) -> float:
    """Measured readout scale constant of the full-evolution circuit."""
    return calibration_report(dims)["eta_scale"]


def power_sums_exact(rho: DensityMatrix) -> PowerSums:
    """p[k] = Tr[(rho^T_B)^k] for k = 1..d, with p[1] pinned to 1."""
    p = network.mu_parameters(rho, rho.d)[:, 3]  # column 3: Tr[(rho^T_B)^k]
    p[0] = 1.0
    return PowerSums(rho.d, p, "exact", np.zeros(rho.d))


def _distribution_for_k(
    moments: np.ndarray, k: int, cfg: EstimationConfig
) -> network.OutcomeDistribution:
    """Analytic outcome distribution for order k from the moment table.

    The k=2 shortcut reads the stage-one control qubits directly: their
    alternating diagonal sum already equals Tr(rho^2) = Tr[(rho^T_B)^2].
    """
    row = moments[k - 1]
    if k == 2 and cfg.use_k2_shortcut:
        probs = np.real(np.diag(network.stage_one_template(row)))
    else:
        probs = network.stage_two_probabilities(row)
    return network.outcome_distribution(k, probs)


def _power_sums_from_counts(d: int, counts_per_k: list[ShotCounts]) -> PowerSums:
    p = np.empty(d)
    se = np.zeros(d)
    p[0] = 1.0
    for counts in counts_per_k:
        p[counts.k - 1], se[counts.k - 1] = eta_from_counts(counts)
    return PowerSums(d, p, "estimated", se)


def _collect_counts(rho: DensityMatrix, cfg: EstimationConfig) -> list[ShotCounts]:
    moments = network.mu_parameters(rho, rho.d)
    return [
        sample_shots(
            _distribution_for_k(moments, k, cfg),
            cfg.shots_per_k,
            _substream(cfg.seed, _STREAM_PRIMARY, k),
        )
        for k in range(2, rho.d + 1)
    ]


def estimate_power_sums(
    rho: DensityMatrix, cfg: EstimationConfig, exact_probabilities: bool = False
) -> PowerSums:
    """Estimate p[2..d] from per-k outcome statistics; p[1] is pinned to 1.

    Per-k substreams derive from the master seed, so results are reproducible
    and independent of evaluation order.  With exact_probabilities the exact
    distributions feed the estimator directly (infinite-shot limit).
    """
    d = rho.d
    if exact_probabilities:
        moments = network.mu_parameters(rho, d)
        p = [1.0] + [_distribution_for_k(moments, k, cfg).alternating_sum() for k in range(2, d + 1)]
        return PowerSums(d, np.array(p), "exact", np.zeros(d))
    return _power_sums_from_counts(d, _collect_counts(rho, cfg))


def _newton_coefficients(p: np.ndarray) -> np.ndarray:
    """Monic characteristic-polynomial coefficients from power sums via
    Newton's identities: m*e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i."""
    d = len(p)
    e = np.zeros(d + 1)
    e[0] = 1.0
    for m in range(1, d + 1):
        acc = 0.0
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * p[i - 1]
        e[m] = acc / m
    return np.array([(-1) ** m * e[m] for m in range(d + 1)])


def _cluster_multiple_roots(roots: np.ndarray, tol: float) -> np.ndarray:
    """Replace groups of mutually close roots by their common centroid; the
    centroid of a conjugate-closed cluster cancels the leading splitting error
    of a multiple root."""
    order = np.argsort(roots.real)
    clusters: list[list[complex]] = []
    for r in roots[order]:
        if clusters and abs(r - np.mean(clusters[-1])) < tol:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    out = []
    for cluster in clusters:
        centroid = float(np.mean(cluster).real)
        out.extend([centroid] * len(cluster))
    return np.array(out)


def spectrum_from_power_sums(
    ps: PowerSums, imag_cap: float | None = None, cluster_tol: float = CLUSTER_TOL
) -> Spectrum:
    """Recover the d eigenvalues from power sums: Newton's identities give the
    characteristic polynomial, companion-matrix roots give the spectrum.

    The polynomial is real, so roots pair up conjugately; the recorded
    residual_imag is the largest raw imaginary magnitude.  Above `imag_cap`
    (source-dependent default) the estimate is rejected as too noisy instead
    of silently cleaned up.  Exact-source inputs additionally merge root
    clusters within `cluster_tol`, recovering degenerate eigenvalues that
    finite precision splits apart.
    """
    if imag_cap is None:
        imag_cap = EXACT_IMAG_CAP if ps.source == "exact" else SHOT_IMAG_CAP
    coeffs = _newton_coefficients(ps.p)
    # Coefficients below the float-noise floor are zeros in disguise.  Snapping
    # them lets the root finder deflate exact zero eigenvalues of rank-deficient
    # input instead of scattering a multiple zero root into a ring of radius
    # eps^(1/multiplicity), which for high multiplicity dwarfs every cap here.
    coeffs[np.abs(coeffs) < COEFF_SNAP_TOL] = 0.0
    roots = np.roots(coeffs)
    residual = float(np.max(np.abs(roots.imag))) if len(roots) else 0.0
    if residual > imag_cap:
        raise SpectrumTooNoisyError(
            f"root imaginary residual {residual:.3e} exceeds cap {imag_cap:.3e}"
        )
    if ps.source == "exact":
        lambdas = _cluster_multiple_roots(roots, cluster_tol)
    else:
        lambdas = roots.real
    return Spectrum(np.sort(lambdas)[::-1], residual)


def verdict(
    spectrum: Spectrum, dims: tuple[int, int], sigma_lambda_min: float = 0.0, z: float = 3.0
) -> PptVerdict:
    """Classify: entangled when lambda_min + z*sigma is negative beyond the
    numerical floor; otherwise PPT, which is conclusive separability only in
    2x2 and 2x3.

    The floor absorbs eigensolver jitter: exactly-PPT states routinely come
    back with lambda_min around -1e-16, which a strict sign test would
    misread as entanglement.  A negative or non-finite z is rejected: it
    would flip or disable the noise gate.
    """
    if not (math.isfinite(z) and z >= 0):
        raise ValueError(f"z must be a finite nonnegative number, got {z!r}")
    lam_min = float(spectrum.lambdas[-1])
    if lam_min + z * sigma_lambda_min < -NEGATIVITY_FLOOR:
        cls = NPT_ENTANGLED
    elif dims[0] * dims[1] <= 6:
        cls = PPT_CONCLUSIVE_SEPARABLE
    else:
        cls = PPT_INCONCLUSIVE
    return PptVerdict(lam_min, float(sigma_lambda_min), cls, tuple(dims), float(z))


def bootstrap_lambda_min(
    counts_per_k: list[ShotCounts], cfg: EstimationConfig
) -> tuple[float, tuple[float, float]]:
    """Multinomial resampling of the per-k counts through the full recovery
    pipeline; returns the standard deviation and central 95% interval of
    lambda_min over replicas.  Fails if more than 10% of replicas error out."""
    b = cfg.bootstrap_replicas
    if b < 1:
        raise ValueError("bootstrap requires bootstrap_replicas >= 1")
    d = len(counts_per_k) + 1
    lam_mins, failures = [], 0
    for rep in range(b):
        resampled = []
        for counts in counts_per_k:
            rng = _substream(cfg.seed, _STREAM_BOOTSTRAP, rep, counts.k)
            draw = rng.multinomial(counts.total, counts.as_array() / counts.total)
            resampled.append(ShotCounts(counts.k, *(int(x) for x in draw)))
        try:
            ps = _power_sums_from_counts(d, resampled)
            lam_mins.append(float(spectrum_from_power_sums(ps).lambdas[-1]))
        except SpectrumTooNoisyError:
            failures += 1
    if failures > 0.1 * b:
        raise EstimationError(f"{failures}/{b} bootstrap replicas failed root recovery")
    values = np.array(lam_mins)
    sigma = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    lo, hi = np.percentile(values, [2.5, 97.5])
    return sigma, (float(lo), float(hi))


def run_protocol(
    rho: DensityMatrix, cfg: EstimationConfig, exact_probabilities: bool = False
) -> ProtocolResult:
    """Full measurement pipeline: distributions -> (shots) -> power sums ->
    spectrum -> verdict, with bootstrap uncertainty in shot mode."""
    d = rho.d
    if exact_probabilities:
        ps = estimate_power_sums(rho, cfg, exact_probabilities=True)
        counts_per_k, copies = None, 0
    else:
        counts_per_k = _collect_counts(rho, cfg)
        ps = _power_sums_from_counts(d, counts_per_k)
        copies = cfg.shots_per_k * sum(range(2, d + 1))
    try:
        spectrum = spectrum_from_power_sums(ps)
        if counts_per_k is not None and cfg.bootstrap_replicas >= 1:
            sigma, interval = bootstrap_lambda_min(counts_per_k, cfg)
        else:
            sigma, interval = 0.0, None
    except EstimationError as exc:
        exc.power_sums = ps  # partial result for error reporting
        raise
    v = verdict(spectrum, rho.dims, sigma, cfg.z)
    return ProtocolResult(ps, spectrum, v, counts_per_k, sigma, interval, copies)

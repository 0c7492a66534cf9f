"""Measurement-statistics layer: shot sampling, eta estimation and calibration,
power sums, spectrum recovery via Newton's identities, and the PPT verdict."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import network
from .states import NEGATIVITY_FLOOR, DensityMatrix, check_dims, load_band  # noqa: F401

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

# the shot-mode NPT certificate holds on every separable state with probability >= 1 - this
CERTIFICATE_DELTA = 1e-3
# shifts of the certified lambda_min search, tested in one pass
INTERVAL_SHIFTS = 48

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


@dataclass(frozen=True, eq=False)
class ShotCounts:
    k: int
    n: np.ndarray  # (4,) counts by readout 2x + y


@dataclass(frozen=True, eq=False)
class PowerSums:
    """Power sums p[i] = Tr[(rho^T_B)^(i+1)] for orders 1..d (index offset one)."""

    p: np.ndarray
    source: str  # "exact" or "estimated"
    stderr: np.ndarray

    def order(self, k: int) -> float:
        return float(self.p[k - 1])


@dataclass(frozen=True, eq=False)
class Spectrum:
    lambdas: np.ndarray  # descending
    residual_imag: float


@dataclass(frozen=True)
class PptVerdict:
    lambda_min: float | None  # None when the point spectrum was refused
    classification: str


@dataclass(frozen=True)
class EstimationConfig:
    shots_per_k: int = 100_000
    seed: int = 0
    bootstrap_replicas: int = 200  # read by bootstrap_lambda_min only; run_protocol ignores it
    # at k = 2 both routes draw from one distribution, since Tr rho^2 = Tr (rho^T_B)^2
    use_k2_shortcut: bool = True

    def __post_init__(self):
        for name in ("shots_per_k", "seed", "bootstrap_replicas"):
            value = getattr(self, name)
            # a float or bool would be truncated to an int by the draws without notice
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # a truthy stand-in such as "no" would switch the shortcut on without notice
        if not isinstance(self.use_k2_shortcut, (bool, np.bool_)):
            raise ValueError(f"use_k2_shortcut must be a bool, got {self.use_k2_shortcut!r}")
        if not 1 <= self.shots_per_k <= np.iinfo(np.int64).max:  # multinomial counts are int64
            raise ValueError(f"shots_per_k must be in [1, 2**63 - 1], got {self.shots_per_k}")
        if self.bootstrap_replicas < 0 or self.bootstrap_replicas == 1:  # 1 has no spread
            raise ValueError(f"bootstrap_replicas must be 0 or >= 2, got {self.bootstrap_replicas}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    power_sums: PowerSums
    spectrum: Spectrum | None  # None when recovery refused the point estimate
    verdict: PptVerdict | None  # None only when exact-mode recovery refused
    counts_per_k: list[ShotCounts] | None = None
    # shot mode: interval is the certified [lo, hi] of lambda_min, sigma its half-width;
    # exact mode: no interval, sigma 0 (None when recovery refused)
    sigma: float | None = 0.0
    interval: tuple[float, float] | None = None
    copies_consumed: int = 0  # k copies of rho per order-k shot drawn
    recovery_error: str | None = None  # the point recovery's refusal text


def _substream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def sample_shots(dist: network.OutcomeDistribution, n: int, rng: np.random.Generator) -> ShotCounts:
    """Multinomial draw of n outcomes from the four-outcome distribution."""
    if n < 1:
        raise ValueError(f"shot count must be >= 1, got {n}")
    return ShotCounts(dist.k, rng.multinomial(n, dist.p / dist.p.sum()))


def eta_from_counts(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimate eta = P00 - P01 - P10 + P11 plus its standard error from
    (..., 4) counts by readout 2x + y, one estimate per row."""
    total = n.sum(axis=-1)
    if (total <= 0).any() or (n < 0).any():  # methods: half np.any's call overhead
        raise ValueError("cannot estimate from negative counts or a zero total")
    eta = n @ network.PARITY / total
    return eta, np.sqrt(np.maximum(0.0, 1.0 - eta**2) / total)


def calibration_report(dims: tuple[int, int]) -> dict:
    """Fit the scale constant relating the full-evolution circuit's alternating
    sum to Tr[(rho^T_B)^2] on the maximally mixed and a pure product state;
    returns the fitted constant and per-state residuals.

    Both calibration states must agree within CALIBRATION_TOL or the fit is
    rejected.  The analytic distributions need no scaling (their alternating
    sum is the power sum itself); the constant applies only to the circuit's
    readout.
    """
    check_dims(dims)
    d = dims[0] * dims[1]
    network.check_circuit_size(d, 2)  # before the d x d probes are built
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
    return PowerSums(p, "exact", np.zeros(rho.d))


def _measure(
    rho: DensityMatrix, cfg: EstimationConfig, exact: bool
) -> tuple[PowerSums, list[ShotCounts] | None]:
    """Power sums p[2..d] from the order-k outcome distributions, the rows of
    one (d-1, 4) array, p[1] pinned to 1: their alternating sums when exact
    (the infinite-shot limit), else eta estimates from cfg.shots_per_k shots
    per order, returned with the counts.  The k=2 shortcut reads the stage-one
    controls: the stage-two row with mu3 = (Tr(rho^2) + eta) / 2 for eta, whose
    alternating sum is Tr(rho^2) = Tr[(rho^T_B)^2] too.  Per-k substreams of
    the master seed make results reproducible and independent of order."""
    rows = network.mu_parameters(rho, rho.d)[1:]
    if cfg.use_k2_shortcut:
        rows[0, 3] = (rows[0, 2] + rows[0, 3]) / 2
    ks = np.arange(2, rho.d + 1)
    probs = network.outcome_rows(ks, network.stage_two_probabilities(rows), rho.d)
    p, se = np.ones(rho.d), np.zeros(rho.d)
    if exact:
        # row by row: a stacked (d-1, 4) @ PARITY product rounds differently; one exact cast
        parity = network.PARITY.astype(float)
        p[1:] = [row @ parity for row in probs]
        return PowerSums(p, "exact", se), None
    dists = [network.OutcomeDistribution(k, row) for k, row in zip(ks.tolist(), probs)]
    counts = [
        sample_shots(dist, cfg.shots_per_k, _substream(cfg.seed, _STREAM_PRIMARY, dist.k))
        for dist in dists
    ]
    p[1:], se[1:] = eta_from_counts(np.array([c.n for c in counts]))
    return PowerSums(p, "estimated", se), counts


def estimate_power_sums(
    rho: DensityMatrix, cfg: EstimationConfig, exact_probabilities: bool = False
) -> PowerSums:
    """Estimate p[2..d] from per-k outcome statistics; p[1] is pinned to 1."""
    return _measure(rho, cfg, exact_probabilities)[0]


def _newton_coefficients(p: np.ndarray) -> np.ndarray:
    """Monic characteristic-polynomial coefficients from one row of power sums
    via Newton's identities: m*e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i."""
    signed = [-x if i % 2 else x for i, x in enumerate(p.tolist())]  # (-1)^(i-1) p_i, exact flips
    e = [1.0]
    for m in range(1, len(signed) + 1):
        # terms i = 1..m added in order in Python floats: a sequential sum's rounding, no numpy calls
        acc = e[m - 1] * signed[0]
        for i in range(2, m + 1):
            acc += e[m - i] * signed[i - 1]
        e.append(acc / m)
    coeffs = np.array([-x if m % 2 else x for m, x in enumerate(e)])
    # Coefficients below the float-noise floor are zeros in disguise.  Snapping
    # them lets the root finder deflate exact zero eigenvalues of rank-deficient
    # input instead of scattering a multiple zero root into a ring of radius
    # eps^(1/multiplicity), which for high multiplicity dwarfs every cap here.
    coeffs[np.abs(coeffs) < COEFF_SNAP_TOL] = 0.0
    return coeffs


def _cluster_multiple_roots(roots: np.ndarray, tol: float) -> np.ndarray:
    """Replace groups of mutually close roots by their common centroid; the
    centroid of a conjugate-closed cluster cancels the leading splitting error
    of a multiple root.  Roots are taken in ascending real part, each joining
    the last cluster when within tol of its centroid.  A centroid is computed
    only when its cluster grows, as np.mean of the members so far (a lone
    root is its own), and serves every later test and every member."""
    clusters: list[list[complex]] = []
    centroids: list[complex] = []
    for r in roots[np.argsort(roots.real)].tolist():
        if clusters and abs(r - centroids[-1]) < tol:
            clusters[-1].append(r)
            centroids[-1] = np.mean(clusters[-1])
        else:
            clusters.append([r])
            centroids.append(r)
    return np.array([c.real for c, members in zip(centroids, clusters) for _ in members])


def spectrum_from_power_sums(ps: PowerSums) -> Spectrum:
    """Recover the d eigenvalues from power sums: Newton's identities give the
    characteristic polynomial, np.roots (companion-matrix eigenvalues) the spectrum.

    The polynomial is real, so roots pair up conjugately; the recorded
    residual_imag is the largest raw imaginary magnitude.  Above the cap of
    the source (EXACT_IMAG_CAP or SHOT_IMAG_CAP) the estimate is rejected as
    too noisy instead of silently cleaned up.  Exact-source inputs
    additionally merge root clusters within CLUSTER_TOL, recovering
    degenerate eigenvalues that finite precision splits apart.
    """
    roots = np.roots(_newton_coefficients(ps.p))
    exact = ps.source == "exact"
    cap = EXACT_IMAG_CAP if exact else SHOT_IMAG_CAP
    residual = float(abs(roots.imag).max())
    if residual > cap:
        raise SpectrumTooNoisyError(f"root imaginary residual {residual:.3e} exceeds cap {cap:.3e}")
    lambdas = _cluster_multiple_roots(roots, CLUSTER_TOL) if exact else roots.real
    return Spectrum(np.sort(lambdas)[::-1], residual)


def verdict(spectrum: Spectrum, dims: tuple[int, int]) -> PptVerdict:
    """Classify: entangled when lambda_min is below -states.load_band(d), d = d_A d_B;
    otherwise PPT, which is conclusive separability only in 2x2 and 2x3."""
    lam_min = float(spectrum.lambdas[-1])
    d = dims[0] * dims[1]
    if lam_min < -load_band(d):
        cls = NPT_ENTANGLED
    elif d <= 6:
        cls = PPT_CONCLUSIVE_SEPARABLE
    else:
        cls = PPT_INCONCLUSIVE
    return PptVerdict(lam_min, cls)


def bootstrap_lambda_min(
    counts_per_k: list[ShotCounts], cfg: EstimationConfig
) -> tuple[float | None, tuple[float, float] | None, int]:
    """B multinomial replicas of the per-k counts, one draw per order, each
    recovered by spectrum_from_power_sums.  Returns sigma and the central 95%
    interval of lambda_min over the replicas it does not refuse (None when fewer
    than two recover), and the refused count.  A library function: run_protocol
    reports the certified interval of lambda_min_interval instead."""
    b = cfg.bootstrap_replicas
    if b < 2:
        raise ValueError("bootstrap requires bootstrap_replicas >= 2")
    draws = [
        _substream(cfg.seed, _STREAM_BOOTSTRAP, c.k).multinomial(c.n.sum(), c.n / c.n.sum(), size=b)
        for c in counts_per_k
    ]
    p = np.ones((b, len(counts_per_k) + 1))
    p[:, 1:] = eta_from_counts(np.stack(draws, axis=1))[0]  # orders k = 2.. in sequence
    lams = []
    for row in p:
        try:
            spectrum = spectrum_from_power_sums(PowerSums(row, "estimated", np.zeros(len(row))))
        except SpectrumTooNoisyError:
            continue
        lams.append(spectrum.lambdas[-1])
    if len(lams) < 2:
        return None, None, b - len(lams)
    lo, hi = np.percentile(lams, [2.5, 97.5])
    return float(np.std(lams, ddof=1)), (float(lo), float(hi)), b - len(lams)


def _o3_floor(p2, d: int):
    """f(p2, d), the least Tr(X^3) over PSD trace-one d x d matrices X with Tr(X^2) = p2
    (p2 clamped to [1/d, 1]), which rises with p2; elementwise on arrays.  The minimiser
    has m = min(floor(1/p2), d - 1) equal eigenvalues x and one y = 1 - m x in [0, x], the
    rest zero: the optimal test of PPT from p2 and p3 (Yu, Imai & Guehne, PRL 127, 060504
    (2021))."""
    p2 = np.clip(p2, 1.0 / d, 1.0)
    m = np.minimum(np.floor(1.0 / p2), d - 1)
    x = (m + np.sqrt(np.maximum(0.0, m * m - m * (m + 1) * (1.0 - p2)))) / (m * (m + 1))
    return m * x**3 + (1.0 - m * x) ** 3


def _box(ps: PowerSums, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of p_0 = d, p_1 = 1 and p_2 .. p_d from the estimates ps, each
    from N = shots shots: each within eps = sqrt(2 ln(2(d - 1)/delta) / N), which holds for
    all d - 1 together with probability >= 1 - delta by Hoeffding's bound and the union
    bound (delta = CERTIFICATE_DELTA)."""
    d = len(ps.p)
    eps = np.sqrt(2 * np.log(2 * (d - 1) / CERTIFICATE_DELTA) / shots)
    exact = [float(d), 1.0]
    return np.array([*exact, *(ps.p[1:] - eps)]), np.array([*exact, *(ps.p[1:] + eps)])


@functools.lru_cache(maxsize=16)
def _shift_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of _shift_tests for p_0 .. p_{n-1}: C(k, j), the power max(k - j, 0)
    of -t in C(k, j) (-t)^(k-j), and whether each order 1..n-1 is odd."""
    k = np.arange(n)
    binom = np.array([[math.comb(a, b) for b in range(n)] for a in range(n)], dtype=float)
    tables = binom, np.maximum(k[:, None] - k, 0), k[1:, None] % 2 == 1
    for table in tables:
        table.flags.writeable = False
    return tables


def _shift_tests(
    lo: np.ndarray, hi: np.ndarray, d: int, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each shift t, whether the box [lo, hi] of p_0 .. p_{n-1} proves rho^T_B - t I
    is not PSD (so lambda_min < t), and whether it proves every e_m of its spectrum >= 0,
    m = 1..n-1 (with n - 1 = d: PSD, so lambda_min >= t).  The shifted power sums
    q_k = sum_j C(k, j) (-t)^(k-j) p_j are linear in p, so their box is exact.  Two tests
    prove not PSD: q_3 below the order-3 floor (_o3_floor) of the trace-one
    (rho^T_B - t I) / (1 - d t), for t < 1/d; or the upper end of some e_m below 0 in the
    interval Newton recursion m e_m = sum_i (-1)^(i-1) e_{m-i} q_i (a PSD spectrum has
    every e_m >= 0; Neven et al., npj Quantum Inf. 7, 152 (2021)).  At t = 0, q = p.
    The recursion holds both ends of each quantity in one array, (2, order, shift)."""
    n = len(lo)
    binom, power, odd = _shift_tables(n)
    # C(k, j) (-t)^(k-j), zero for j > k: the power is read off one Vandermonde row per shift
    c = binom * np.vander(-t, n, increasing=True)[:, power]
    pos, neg = np.maximum(c, 0.0), np.minimum(c, 0.0)
    q_lo, q_hi = pos @ lo + neg @ hi, pos @ hi + neg @ lo  # (G, n); both ends of q_1 are 1 - d t
    below = t < 1.0 / d
    scale = np.where(below, q_lo[:, 1], 1.0)
    # f rises with q_2: its least is at the lower end
    fires = below & (q_hi[:, 3] / scale**3 < _o3_floor(q_lo[:, 2] / scale**2, d))
    s = np.where(odd, [q_lo.T[1:], q_hi.T[1:]], [-q_hi.T[1:], -q_lo.T[1:]])  # (-1)^(i-1) q_i
    e = np.ones((2, n, len(t)))  # e_0 .. e_{n-1}
    terms, me = np.empty((2, 2, n - 1, len(t)))  # the ends of e_{m-i} q_i; of m e_m, m = 1..n-1
    for m in range(1, n):
        ends = e[:, None, m - 1 :: -1] * s[:, :m]  # e_{m-i} q_i, i = 1..m, all four end pairs
        np.minimum.reduce(ends, axis=(0, 1), out=terms[0, :m])
        np.maximum.reduce(ends, axis=(0, 1), out=terms[1, :m])
        # accumulate adds terms i = 1..m in order, as a scalar loop would
        me[:, m - 1] = np.add.accumulate(terms[:, :m], axis=1)[:, -1]
        np.divide(me[:, m - 1], m, out=e[:, m])
    return fires | (me[1] < 0).any(axis=0), (me[0] >= 0).all(axis=0)


def lambda_min_interval(ps: PowerSums, shots: int) -> tuple[bool, float, float]:
    """Whether the estimates ps of orders 2..d, each from N = shots shots, prove rho^T_B is
    not PSD while every p_k lies in its Hoeffding box (_box): the shift t = 0 of
    _shift_tests, the shot-mode certificate.  And [lo, hi], which holds lambda_min
    whenever the box does, so with probability >= 1 - delta.
    hi is the least shift on a grid at which _shift_tests proves lambda_min below it,
    else the mean 1/d.  lo is the larger of the largest shift proved PSD and Samuelson's
    bound: all d eigenvalues lie within sqrt(d - 1) standard deviations of their mean
    1/d (Samuelson, JASA 63, 1522 (1968)), read at p_2's upper end.  The grid holds
    t = 0 and INTERVAL_SHIFTS - 1 shifts from Samuelson's bound to 1/d, both ends included,
    tested in one pass: hi and lo are grid shifts, step (1/d - bound) / (INTERVAL_SHIFTS - 2),
    except that lo is raised to -1/2 - load_band(d) when below it: a state's partial
    transpose has no eigenvalue below -1/2 (Rana, PRA 87, 054301 (2013)).
    A box no spectrum fits can prove hi > lambda_min >= lo > hi: lo is then lowered to hi."""
    if shots < 1:  # a zero N would make the box infinite
        raise ValueError(f"shot count must be >= 1, got {shots}")
    d = len(ps.p)
    lo_p, hi_p = _box(ps, shots)
    floor = 1.0 / d - float(np.sqrt((d - 1) * max(0.0, hi_p[2] / d - 1.0 / d**2)))
    t = np.append(0.0, np.linspace(floor, 1.0 / d, INTERVAL_SHIFTS - 1))
    fires, psd = _shift_tests(lo_p, hi_p, d, t)
    hi = t[fires].min(initial=1.0 / d)
    lo = max(t[psd].max(initial=floor), -0.5 - load_band(d))
    return bool(fires[0]), float(min(lo, hi)), float(hi)


def run_protocol(
    rho: DensityMatrix, cfg: EstimationConfig, exact_probabilities: bool = False
) -> ProtocolResult:
    """Full measurement pipeline: distributions -> (shots) -> power sums ->
    spectrum -> verdict, with the certified lambda_min interval in shot mode.  The
    shot-mode verdict is NPT_ENTANGLED exactly when lambda_min_interval certifies the
    estimates, and PPT_INCONCLUSIVE otherwise, whether or not the point spectrum recovers:
    a refused one is None, its text in recovery_error (in exact mode, no verdict)."""
    ps, counts_per_k = _measure(rho, cfg, exact_probabilities)
    try:
        spectrum, error = spectrum_from_power_sums(ps), None
    except SpectrumTooNoisyError as exc:
        spectrum, error = None, str(exc)
    if counts_per_k is None:
        v = None if spectrum is None else verdict(spectrum, rho.dims)
        sigma = None if spectrum is None else 0.0  # a refused point has no spread
        return ProtocolResult(ps, spectrum, v, sigma=sigma, recovery_error=error)
    npt, lo, hi = lambda_min_interval(ps, cfg.shots_per_k)
    lam = None if spectrum is None else float(spectrum.lambdas[-1])
    v = PptVerdict(lam, NPT_ENTANGLED if npt else PPT_INCONCLUSIVE)
    copies = sum(c.k * int(c.n.sum()) for c in counts_per_k)
    return ProtocolResult(ps, spectrum, v, counts_per_k, (hi - lo) / 2, (lo, hi), copies, error)

"""Ensemble estimators: correlations, envelope histogram, crossing rates.

Correlation statistics are estimated by averaging lag products over the trial
ensemble and over a deterministic set of anchor times (every 10th sample by
default, keeping every anchor clear of the final max-lag window).  The anchor
averaging is a variance reducer justified by the stationarity the suite also
verifies; per-trial values remain available for standard-error estimates.

The product sums are computed as FFT cross-correlations, which is exact (no
windowing approximations) and returns every lag at once.  Anchors must be
non-negative, strictly increasing integers; written as start + step*i, with
step the gcd of their gaps (1 for a single anchor), they mark a decimated grid
of n_d = (last - start) // step + 1 points.  Lag l = step*j + q then reads
phase q of the trace, the samples start + step*r + q, so each lag-product sum
is lag j of a short correlation of the anchor samples with one phase
(polyphase decomposition; Vaidyanathan, *Multirate Systems and Filter Banks*,
1993).  The anchor samples are transformed once at length
m = next_fast_len(n_d + max_lag // step, real=True) and the trace as step
phases of that length in one call: no sum reads row n_d + max_lag // step or
past it, so no circular correlation wraps.  At 6001 samples with the default
anchors and 1001 lags that is step = 10 and m = 625.

``correlation_means`` returns trial means only.  It sums spectra over trials
and takes one inverse transform per lag-product family: P, Q (from which every
quadrature kind and rzz follow) and the |z|^2 family.  ``per_trial_correlations``
keeps one row per trial, at one inverse transform per trial and family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .sos import TraceEnsemble
from .theory import CorrelationSeries, LagGrid

DEFAULT_ANCHOR_STRIDE = 10
# Trials per chunk of the per-trial path (half as many for complex pairs).
# One kind at 500x6001 (best of 5, 2-vCPU Xeon) took 0.039 s (rxx) and
# 0.052 s (rsq) at 16, 0.043/0.058 s at 32, 0.044/0.067 s at 64 and
# 0.052/0.071 s at 128; the analysis benchmark's peak RSS read 171.6, 172.2
# and 177.0 MB at 16, 32 and 64.
_FFT_TRIAL_CHUNK = 16
# correlation_means keeps no per-trial rows, so its chunks can be small.  Its
# freed workspace stays on the heap when it is smaller than glibc's trim
# threshold, and so adds to every later peak: the validate benchmark's peak
# RSS read 132.3, 133.0 and 136.6 MB at 4, 8 and 16 trials per chunk.  The
# five harness statistics at 500x6001 took 0.080, 0.076, 0.074 and 0.085 s
# at 4, 8, 16 and 32 (best of 7).
_MEANS_TRIAL_CHUNK = 8

# Per kind: the sequences (a, b) of z = x + jy whose products
# conj(a[t]) b[t+l] it sums, and the part of the sum it reports (None: all).
# rzz, z(t) conj(z(t+l)), is the conjugate of the (z, z) sum.
_SEQUENCES = {
    "z": lambda z: z,
    "|z|^2": lambda z: z.real * z.real + z.imag * z.imag,
    "x": lambda z: z.real,
    "y": lambda z: z.imag,
}
_LAG_PRODUCTS = {
    "rxx": ("x", "x", None),
    "ryy": ("y", "y", None),
    "rxy": ("x", "y", None),
    "ryx": ("y", "x", None),
    "rzz": ("z", "z", np.conj),
    "rzz_re": ("z", "z", np.real),
    "rzz_im": ("z", "z", lambda c: -c.imag),
    "rsq": ("|z|^2", "|z|^2", None),
}
ESTIMATOR_KINDS = tuple(_LAG_PRODUCTS)
# Every kind but rsq from P(l) = sum conj(z[t]) z[t+l] and Q(l) = sum z[t]
# z[t+l], summed over anchors t.  With x = Re z, y = Im z and primes at t+l,
# P + Q = 2(x x' + j x y') and P - Q = 2(y y' - j y x').
_PQ_PARTS = {
    "rxx": lambda p, q: (p + q).real / 2,
    "ryy": lambda p, q: (p - q).real / 2,
    "rxy": lambda p, q: (p + q).imag / 2,
    "ryx": lambda p, q: (q - p).imag / 2,
    "rzz": lambda p, q: p.conj(),
    "rzz_re": lambda p, q: p.real,
    "rzz_im": lambda p, q: -p.imag,
}


class LagError(ValueError):
    """Raised for lags that are off the sample grid or too long."""


@dataclass(frozen=True, eq=False)
class HistogramDensity:
    """Unit-integral envelope histogram."""

    bin_edges: np.ndarray
    densities: np.ndarray
    n_samples: int

    def cdf_at_edges(self) -> np.ndarray:
        """Cumulative distribution at every bin edge (starts at 0)."""
        widths = np.diff(self.bin_edges)
        return np.concatenate(([0.0], np.cumsum(self.densities * widths)))


@dataclass(frozen=True, eq=False)
class LcrCurve:
    """Normalized upward crossing rates over a threshold grid."""

    thresholds: np.ndarray
    rates: np.ndarray
    observation_time_s: float


def lag_samples(grid: LagGrid, sample_period_s: float, n_samples: int) -> np.ndarray:
    """Convert grid lags to sample counts, rejecting off-grid or long lags."""
    ratio = grid.lags_s / sample_period_s
    lags = np.rint(ratio).astype(int)
    if np.any(np.abs(ratio - lags) > 1e-6):
        raise LagError("lag grid contains lags that are not multiples of T_s")
    if lags[-1] >= n_samples:
        raise LagError(
            f"max lag {lags[-1]} samples exceeds trace length {n_samples}"
        )
    return lags


def default_anchors(
    n_samples: int, max_lag: int, stride: int = DEFAULT_ANCHOR_STRIDE
) -> np.ndarray:
    """Every ``stride``-th sample, excluding the final max-lag window."""
    stop = n_samples - max_lag
    if stop < 1:
        raise LagError(
            f"trace length {n_samples} leaves no anchor clear of max lag {max_lag}"
        )
    return np.arange(0, stop, stride)


def _checked_anchors(anchors, n_samples: int, max_lag: int) -> np.ndarray:
    """The default anchors, or ``anchors`` as int64 once they are known to be
    non-negative, strictly increasing integers clear of the final max-lag
    window.  A repeated anchor would be counted once by the mask but twice by
    the division, and a negative one would mark a sample from the end.  The
    order is checked without subtraction, which wraps on unsigned dtypes."""
    if anchors is None:
        return default_anchors(n_samples, max_lag)
    anchors = np.asarray(anchors)
    if anchors.size == 0:
        raise LagError("anchor set is empty")
    if anchors.ndim != 1 or not np.issubdtype(anchors.dtype, np.integer):
        raise LagError("anchors must be a 1-D sequence of integers")
    if anchors[0] < 0 or np.any(anchors[1:] <= anchors[:-1]):
        raise LagError("anchors must be non-negative and strictly increasing")
    if int(anchors[-1]) + max_lag >= n_samples:
        raise LagError("anchor set overlaps the final max-lag window")
    return anchors.astype(np.int64)


@dataclass(frozen=True, eq=False)
class _Polyphase:
    """The anchors as start + step*i for i < mask.size, marked by ``mask``;
    the sums read ``span`` samples from ``start``, and every transform has
    length ``m``.  Lag step*j + q is row j of phase q, so an inverse transform
    of (trials, m, step) phases reshaped to (trials, m*step) is in lag order.
    """

    start: int
    step: int
    mask: np.ndarray
    span: int
    m: int

    def operands(self, z: np.ndarray, left, right):
        """d = mask*left(z) on the anchor grid, and right(z) from ``start`` as
        (trials, m, step) phases, zero past the samples the sums read."""
        d = left(z[:, self.start :: self.step][:, : self.mask.size]) * self.mask
        b = right(z[:, self.start : self.start + self.span])
        phases = np.zeros((z.shape[0], self.m * self.step), dtype=b.dtype)
        phases[:, : self.span] = b
        return d, phases.reshape(z.shape[0], self.m, self.step)


def _correlation_setup(ens: TraceEnsemble, kinds, grid: LagGrid, anchors):
    """Checked kinds, lags and anchors, and the polyphase layout of the sums.

    Since step*(max_lag // step + 1) > max_lag, m*step >= span.
    """
    unknown = [kind for kind in kinds if kind not in ESTIMATOR_KINDS]
    if unknown:
        raise ValueError(f"unknown estimator kind {unknown[0]!r}")
    scn = ens.scenario
    lags = lag_samples(grid, scn.sample_period_s, scn.n_samples)
    max_lag = int(lags[-1])
    anchors = _checked_anchors(anchors, scn.n_samples, max_lag)
    start, last = int(anchors[0]), int(anchors[-1])
    step = int(np.gcd.reduce(np.diff(anchors))) if anchors.size > 1 else 1
    mask = np.zeros((last - start) // step + 1)
    mask[(anchors - start) // step] = 1.0
    m = sp_fft.next_fast_len(mask.size + max_lag // step, real=True)
    return lags, anchors, _Polyphase(start, step, mask, last + max_lag + 1 - start, m)


def _masked_crosscorr(
    z: np.ndarray, left, right, layout: _Polyphase, lags: np.ndarray
) -> np.ndarray:
    """Per-trial sums over anchors t of conj(a[t])*b[t+l] for l in lags.

    a = left(z) and b = right(z) are built per trial chunk.  Real sequences go
    through rfft/irfft, complex ones through fft/ifft with half as many trials
    per chunk, so the FFT workspace keeps its size.
    """
    empty = left(z[:0])
    if np.iscomplexobj(empty):
        forward, inverse, chunk = sp_fft.fft, sp_fft.ifft, _FFT_TRIAL_CHUNK // 2
    else:
        forward, inverse, chunk = sp_fft.rfft, sp_fft.irfft, _FFT_TRIAL_CHUNK
    m = layout.m
    # Fortran order keeps each lag's trials contiguous, so a mean over trials
    # sums them pairwise; the digits of every reported mean depend on it.
    out = np.empty((z.shape[0], lags.size), dtype=empty.dtype, order="F")
    for start in range(0, z.shape[0], chunk):
        stop = start + chunk
        d, phases = layout.operands(z[start:stop], left, right)
        fd = forward(d, m, axis=1)
        fb = forward(phases, axis=1)
        np.conjugate(fd, out=fd)
        fb *= fd[:, :, None]
        out[start:stop] = inverse(fb, m, axis=1).reshape(len(d), -1)[:, lags]
    return out


def per_trial_correlations(
    ens: TraceEnsemble,
    kinds: list[str] | tuple[str, ...],
    grid: LagGrid,
    anchors: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Anchor-averaged lag products per trial for several kinds at once.

    Returns {kind: (n_trials, n_lags) array}.  Kinds that share a sequence
    pair (rzz, rzz_re and rzz_im all use (z, z)) share one FFT correlation;
    each kind's part and the division by the anchor count are applied to the
    raw products, so every array equals its :func:`per_trial_correlation`.
    For trial means alone, :func:`correlation_means` is cheaper.
    """
    lags, anchors, layout = _correlation_setup(ens, kinds, grid, anchors)
    # At these chunk sizes the pair order does not move the peak RSS: all
    # eight kinds of a 500x6001 ensemble raised it 61.7 MB over the ensemble,
    # and 62.0 MB with the pairs sorted by falling workspace.
    raw = {
        (left, right): _masked_crosscorr(
            ens.sample_matrix, _SEQUENCES[left], _SEQUENCES[right], layout, lags
        )
        for left, right in dict.fromkeys(_LAG_PRODUCTS[kind][:2] for kind in kinds)
    }
    out = {}
    for kind in kinds:
        left, right, part = _LAG_PRODUCTS[kind]
        values = raw[left, right] if part is None else part(raw[left, right])
        out[kind] = values / anchors.size
    return out


def per_trial_correlation(
    ens: TraceEnsemble,
    kind: str,
    grid: LagGrid,
    anchors: np.ndarray | None = None,
) -> np.ndarray:
    """Anchor-averaged lag products per trial, shape (n_trials, n_lags).

    ``kind`` follows the quadrature decomposition x = Re z, y = Im z:
    rxx/ryy/rxy/ryx are the component products, rzz is z(t)*conj(z(t+tau))
    (complex output; rzz_re/rzz_im select one part), rsq is |z|^2 products.
    """
    return per_trial_correlations(ens, (kind,), grid, anchors)[kind]


def _trial_sum(fm: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """sum over trials t of fm[t, k] * fz[t, k, q]: one (1, t) @ (t, step)
    product per frequency k."""
    return np.matmul(fm.T[:, None, :], fz.transpose(1, 0, 2))[:, 0]


def correlation_means(
    ens: TraceEnsemble,
    kinds: list[str] | tuple[str, ...],
    grid: LagGrid,
    anchors: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Trial means of the anchor-averaged lag products, {kind: (n_lags,) array}.

    Each equals ``per_trial_correlations(...)[kind].mean(axis=0)`` up to
    round-off.  The FFT is linear, so the trial sum is taken over spectra and
    each lag-product family gets one inverse transform in all, not one per
    trial.  With Fm = F(d), d = mask*z on the anchor grid, and Fz = F(z) per
    trace phase (see ``_Polyphase``), the (m, step) sums are

        S_P = sum conj(Fm[k]) Fz[k],    P = F^-1(S_P) = sum conj(z[t]) z[t+l]
        S_Q = sum Fm[-k] Fz[k],         Q = F^-1(S_Q) = sum z[t] z[t+l]

    (anchor sums over t), and every quadrature kind and rzz is a fixed
    combination of P and Q (``_PQ_PARTS``).  rsq sums the same spectrum of
    s = |z|^2 on the real transform.
    """
    lags, anchors, layout = _correlation_setup(ens, kinds, grid, anchors)
    z, m = ens.sample_matrix, layout.m
    s_p = np.zeros((m, layout.step), dtype=complex)
    s_q = np.zeros((m, layout.step), dtype=complex)
    s_sq = np.zeros((m // 2 + 1, layout.step), dtype=complex)
    # Fm[-k] is Fm[0] at k = 0 and Fm[m - k] above it.
    reverse = -np.arange(m) % m
    pq = any(kind in _PQ_PARTS for kind in kinds)
    for start in range(0, z.shape[0], _MEANS_TRIAL_CHUNK):
        chunk = z[start : start + _MEANS_TRIAL_CHUNK]
        if pq:
            d, phases = layout.operands(chunk, _SEQUENCES["z"], _SEQUENCES["z"])
            fm = sp_fft.fft(d, m, axis=1)
            fz = sp_fft.fft(phases, axis=1)
            s_q += _trial_sum(fm[:, reverse], fz)
            s_p += _trial_sum(fm.conj(), fz)
        if "rsq" in kinds:
            sq = _SEQUENCES["|z|^2"]
            d, phases = layout.operands(chunk, sq, sq)
            fm = sp_fft.rfft(d, m, axis=1)
            fz = sp_fft.rfft(phases, axis=1)
            s_sq += _trial_sum(fm.conj(), fz)
    count = z.shape[0] * anchors.size
    p = sp_fft.ifft(s_p, axis=0).reshape(-1)[lags] / count
    q = sp_fft.ifft(s_q, axis=0).reshape(-1)[lags] / count
    means = {}
    for kind in kinds:
        if kind == "rsq":
            means[kind] = sp_fft.irfft(s_sq, m, axis=0).reshape(-1)[lags] / count
        else:
            means[kind] = _PQ_PARTS[kind](p, q)
    return means


def ensemble_correlation(
    ens: TraceEnsemble,
    kind: str,
    grid: LagGrid,
    anchors: np.ndarray | None = None,
) -> CorrelationSeries:
    """Ensemble-and-anchor averaged correlation as a CorrelationSeries."""
    if kind == "rzz":
        raise ValueError("request rzz_re or rzz_im for series output")
    values = correlation_means(ens, (kind,), grid, anchors)[kind]
    return CorrelationSeries(kind, "empirical", grid, values, n_trials=ens.n_trials)


def ensemble_mean(ens: TraceEnsemble) -> complex:
    """Mean of z over all trials and times (zero for valid scenarios)."""
    return complex(ens.sample_matrix.mean())


def decorrelation_stride(scenario) -> int:
    """Sample stride putting consecutive envelope picks ~2 Doppler cycles apart."""
    return max(1, math.ceil(2.0 / (scenario.doppler_hz * scenario.sample_period_s)))


def envelope_picks(ens: TraceEnsemble, stride: int | None = None) -> np.ndarray:
    """Decorrelated envelope samples, one per stride per trial."""
    if stride is None:
        stride = decorrelation_stride(ens.scenario)
    return np.abs(ens.sample_matrix[:, ::stride]).ravel()


def envelope_pdf(
    ens: TraceEnsemble,
    bins: int = 100,
    value_range: tuple[float, float] = (0.0, 3.0),
) -> HistogramDensity:
    """Histogram density of decorrelated envelope picks, normalized to 1.

    The range must cover every observed pick; silently dropping samples would
    break the unit-integral invariant.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if ens.n_trials == 0:
        raise ValueError("empty ensemble")
    picks = envelope_picks(ens)
    lo, hi = value_range
    if picks.min() < lo or picks.max() >= hi:
        raise ValueError(
            f"range [{lo}, {hi}) does not cover observed envelopes "
            f"[{picks.min():g}, {picks.max():g}]"
        )
    counts, edges = np.histogram(picks, bins=bins, range=value_range)
    widths = np.diff(edges)
    densities = counts / (picks.size * widths)
    return HistogramDensity(edges, densities, picks.size)


def per_trial_crossing_rates(
    ens: TraceEnsemble, thresholds: np.ndarray
) -> np.ndarray:
    """Normalized upward crossing rates per trial, shape (n_trials, n_thresholds).

    An upward crossing is a sample pair (at-or-below, above); counts divide by
    the per-trial observation time and the maximum Doppler frequency.
    """
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if np.any(thresholds < 0):
        raise ValueError("thresholds must be >= 0")
    scn = ens.scenario
    env = np.abs(ens.sample_matrix)
    obs_time = (scn.n_samples - 1) * scn.sample_period_s
    rates = np.empty((ens.n_trials, thresholds.size))
    for j, rho in enumerate(thresholds):
        ups = ((env[:, :-1] <= rho) & (env[:, 1:] > rho)).sum(axis=1)
        rates[:, j] = ups / obs_time / scn.doppler_hz
    return rates


def level_crossing_rate(ens: TraceEnsemble, thresholds) -> LcrCurve:
    """Trial-averaged normalized level crossing rate curve."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    rates = per_trial_crossing_rates(ens, thresholds).mean(axis=0)
    scn = ens.scenario
    total_time = ens.n_trials * (scn.n_samples - 1) * scn.sample_period_s
    return LcrCurve(thresholds, rates, total_time)

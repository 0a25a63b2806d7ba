"""Ensemble estimators: correlations, envelope histogram, crossing rates.

Correlation statistics are estimated by averaging lag products over the trial
ensemble and over a deterministic set of anchor times (every 10th sample by
default, keeping every anchor clear of the final max-lag window).  The anchor
averaging is a variance reducer justified by the stationarity the suite also
verifies; per-trial values remain available for standard-error estimates.

Every kind is a fixed real combination of lag-product families
ab(l) = sum over anchors t of a[t] b[t+l], over three real sequences: x = Re z,
y = Im z and s = |z|^2.  One table (``_KIND_PARTS``) gives each kind its real
part and, for rzz, its imaginary part:

    rxx = xx   ryy = yy   rxy = xy   ryx = yx   rsq = ss
    rzz_re = xx + yy      rzz_im = yx - xy      rzz = (xx + yy) + j(yx - xy)

The sums are computed as FFT cross-correlations, which is exact (no windowing
approximations) and returns every lag at once.  Anchors must be non-negative,
strictly increasing integers; written as start + step*i, with step the gcd of
their gaps (1 for a single anchor), they mark a decimated grid of
n_d = (last - start) // step + 1 points.  Lag l = step*j + q then reads phase q
of the trace, the samples start + step*r + q, so each family is lag j of a
short correlation of the anchor samples with one phase (polyphase
decomposition; Vaidyanathan, *Multirate Systems and Filter Banks*, 1993).  Per
trial chunk, each sequence a family reads is transformed once with rfft at
length m = next_fast_len(n_d + max_lag // step, real=True): on the anchor
grid d = mask*a when a is a left sequence, and as step phases of that length
when it is a right one.  Family ab has the spectrum conj(F(d_a)) F(b).  No sum
reads row n_d + max_lag // step or past it, so no circular correlation wraps.
At 6001 samples with the default anchors and 1001 lags that is step = 10 and
m = 625.

Two reductions share those spectra:

* ``per_trial_correlations`` combines each kind part's families in the
  spectrum and takes one irfft per part and trial: per trial, 1 + step
  forward transforms per sequence and step inverse ones per part.
* ``correlation_means`` sums each family's spectrum over trials and takes one
  irfft per part in all: per trial, the same 1 + step forward transforms per
  sequence, and per call, step inverse ones per part.

No complex transform is taken.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .sos import TraceEnsemble
from .theory import CorrelationSeries, LagGrid

DEFAULT_ANCHOR_STRIDE = 10
# Trials per chunk of the per-trial path.  One kind at 500x6001 (best of 5,
# 2-vCPU Xeon) took 0.039 s (rxx) and 0.052 s (rsq) at 16, 0.043/0.058 s at
# 32, 0.044/0.067 s at 64 and 0.052/0.071 s at 128; the analysis benchmark's
# peak RSS read 171.6, 172.2 and 177.0 MB at 16, 32 and 64.
_FFT_TRIAL_CHUNK = 16
# correlation_means keeps no per-trial rows, so its chunks can be small.  Its
# freed workspace stays on the heap when it is smaller than glibc's trim
# threshold, and so adds to every later peak: the validate benchmark's peak
# RSS read 132.3, 133.0 and 136.6 MB at 4, 8 and 16 trials per chunk.  The
# five harness statistics at 500x6001 took 0.080, 0.076, 0.074 and 0.085 s
# at 4, 8, 16 and 32 (best of 7).
_MEANS_TRIAL_CHUNK = 8

# The three real sequences of z = x + jy that every kind correlates.
_SEQUENCES = {
    "x": lambda z: z.real,
    "y": lambda z: z.imag,
    "s": lambda z: z.real * z.real + z.imag * z.imag,
}
# Per kind: its real part and, for rzz, its imaginary part, each a signed sum
# of lag-product families ab(l) = sum over anchors t of a[t] b[t+l], with the
# first term positive.  rzz is z(t) conj(z(t+l)).
_KIND_PARTS = {
    "rxx": ("xx",),
    "ryy": ("yy",),
    "rxy": ("xy",),
    "ryx": ("yx",),
    "rzz": ("xx+yy", "yx-xy"),
    "rzz_re": ("xx+yy",),
    "rzz_im": ("yx-xy",),
    "rsq": ("ss",),
}
ESTIMATOR_KINDS = tuple(_KIND_PARTS)
# Per part, its (sign, family) terms: "yx-xy" gives [("", "yx"), ("-", "xy")].
_TERMS = {
    part: re.findall(r"([+-]?)(\w\w)", part)
    for parts in _KIND_PARTS.values()
    for part in parts
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

    def spectra(self, z: np.ndarray, families, chunk: int):
        """Yield (trials, left, right) per chunk of ``chunk`` trials of ``z``:
        the chunk's slice of trials and the transforms ``families`` read.

        left[a] is conj(F(d)) of d = mask*a on the anchor grid, shape
        (trials, m//2 + 1), and right[b] is F(b) of b from ``start`` as
        (trials, m, step) phases, zero past the samples the sums read, shape
        (trials, m//2 + 1, step).  Family ab has the spectrum
        left[a][:, :, None] * right[b].  Each sequence is formed and
        transformed once per chunk, however many families read it.  The two
        dicts are refilled for every chunk: read them before the next.
        """
        left, right = {ab[0] for ab in families}, {ab[1] for ab in families}
        # z from ``start``, filled up to ``span`` per chunk; the rest stays
        # zero, and so does every sequence formed from it.
        phases = np.zeros((chunk, self.m * self.step), dtype=complex)
        fa, fb = {}, {}
        for first in range(0, z.shape[0], chunk):
            # Refill the yielded dicts, so the last chunk's spectra are freed
            # before this chunk's are made.
            fa.clear()
            fb.clear()
            rows = min(chunk, z.shape[0] - first)
            samples = z[first : first + rows, self.start : self.start + self.span]
            phases[:rows, : self.span] = samples
            for name in sorted(left | right):
                seq = _SEQUENCES[name](phases[:rows])
                if name in right:
                    fb[name] = sp_fft.rfft(seq.reshape(rows, self.m, self.step), axis=1)
                if name in left:
                    d = seq[:, :: self.step][:, : self.mask.size] * self.mask
                    fa[name] = sp_fft.rfft(d, self.m, axis=1)
                    np.conjugate(fa[name], out=fa[name])
            yield slice(first, first + rows), fa, fb


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


def _parts_and_families(kinds):
    """The distinct parts of ``kinds``, and the distinct families they read."""
    parts = tuple(dict.fromkeys(part for kind in kinds for part in _KIND_PARTS[kind]))
    families = dict.fromkeys(ab for part in parts for _, ab in _TERMS[part])
    return parts, tuple(families)


def _part_spectrum(part: str, family_spectrum) -> np.ndarray:
    """The signed sum of the family spectra of ``part``; family_spectrum(ab)
    returns family ab's spectrum as a new array."""
    (_, first), *rest = _TERMS[part]
    total = family_spectrum(first)
    for sign, ab in rest:
        if sign == "+":
            total += family_spectrum(ab)
        else:
            total -= family_spectrum(ab)
    return total


def _kind_values(kind: str, parts: dict) -> np.ndarray:
    """A kind's values from its part values; rzz is assembled from its real
    and imaginary parts, so it equals rzz_re + j*rzz_im bit for bit."""
    real, *imag = (parts[part] for part in _KIND_PARTS[kind])
    if not imag:
        return real
    # Fortran order, as for every per-trial array (see per_trial_correlations).
    values = np.empty(real.shape, dtype=complex, order="F")
    values.real, values.imag = real, imag[0]
    return values


def per_trial_correlations(
    ens: TraceEnsemble,
    kinds: list[str] | tuple[str, ...],
    grid: LagGrid,
    anchors: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Anchor-averaged lag products per trial for several kinds at once.

    Returns {kind: (n_trials, n_lags) array}.  Per trial chunk every sequence
    is transformed once, and each distinct kind part (rzz_re and the real
    part of rzz are one) gets one inverse transform per trial, so every array
    equals its :func:`per_trial_correlation` bit for bit.  For trial means
    alone, :func:`correlation_means` is cheaper.
    """
    lags, anchors, layout = _correlation_setup(ens, kinds, grid, anchors)
    parts, families = _parts_and_families(kinds)
    z = ens.sample_matrix
    # Fortran order keeps each lag's trials contiguous, so a mean over trials
    # sums them pairwise; the digits of every reported mean depend on it.
    values = {part: np.empty((z.shape[0], lags.size), order="F") for part in parts}
    for trials, fa, fb in layout.spectra(z, families, _FFT_TRIAL_CHUNK):
        for part, out in values.items():
            spectrum = _part_spectrum(part, lambda ab: fb[ab[1]] * fa[ab[0]][:, :, None])
            sums = sp_fft.irfft(spectrum, layout.m, axis=1).reshape(len(spectrum), -1)
            np.divide(sums[:, lags], anchors.size, out=out[trials])
    return {kind: _kind_values(kind, values) for kind in kinds}


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


def _trial_sum(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """sum over trials t of fa[t, k] * fb[t, k, q]: one (1, t) @ (t, step)
    product per frequency k."""
    return np.matmul(fa.T[:, None, :], fb.transpose(1, 0, 2))[:, 0]


def correlation_means(
    ens: TraceEnsemble,
    kinds: list[str] | tuple[str, ...],
    grid: LagGrid,
    anchors: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Trial means of the anchor-averaged lag products, {kind: (n_lags,) array}.

    Each equals ``per_trial_correlations(...)[kind].mean(axis=0)`` up to
    round-off.  The transform is linear, so each family's spectrum is summed
    over trials, and each distinct kind part gets one inverse transform in
    all, not one per trial.
    """
    lags, anchors, layout = _correlation_setup(ens, kinds, grid, anchors)
    parts, families = _parts_and_families(kinds)
    z, m = ens.sample_matrix, layout.m
    sums = {ab: np.zeros((m // 2 + 1, layout.step), dtype=complex) for ab in families}
    for _, fa, fb in layout.spectra(z, families, _MEANS_TRIAL_CHUNK):
        for ab, total in sums.items():
            total += _trial_sum(fa[ab[0]], fb[ab[1]])
    count = z.shape[0] * anchors.size
    means = {
        part: sp_fft.irfft(_part_spectrum(part, lambda ab: sums[ab].copy()), m, axis=0)
        .reshape(-1)[lags]
        / count
        for part in parts
    }
    return {kind: _kind_values(kind, means) for kind in kinds}


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

    An upward crossing is a sample pair (at-or-below, above): one comparison
    per sample marks it above or not, and a crossing is a not-above sample
    followed by an above one.  Counts divide by the per-trial observation time
    and the maximum Doppler frequency.
    """
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if not np.all(thresholds >= 0):  # NaN fails this too
        raise ValueError("thresholds must be >= 0 and not NaN")
    scn = ens.scenario
    env = np.abs(ens.sample_matrix)
    obs_time = (scn.n_samples - 1) * scn.sample_period_s
    rates = np.empty((ens.n_trials, thresholds.size))
    for j, rho in enumerate(thresholds):
        above = env > rho
        ups = (above[:, 1:] & ~above[:, :-1]).sum(axis=1)
        rates[:, j] = ups / obs_time / scn.doppler_hz
    return rates


def level_crossing_rate(ens: TraceEnsemble, thresholds) -> LcrCurve:
    """Trial-averaged normalized level crossing rate curve."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    rates = per_trial_crossing_rates(ens, thresholds).mean(axis=0)
    scn = ens.scenario
    total_time = ens.n_trials * (scn.n_samples - 1) * scn.sample_period_s
    return LcrCurve(thresholds, rates, total_time)

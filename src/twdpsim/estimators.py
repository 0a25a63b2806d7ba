"""Ensemble estimators: correlations, envelope histogram, crossing rates.

Correlation statistics are estimated by averaging lag products over the trial
ensemble and over one deterministic set of anchor times, ``default_anchors``:
every 10th sample, keeping every anchor clear of the final max-lag window.
The anchor averaging is a variance reducer justified by the stationarity the
suite also verifies; per-trial values remain available for standard-error
estimates.

Every kind is a fixed real combination of lag-product families
ab(l) = sum over anchors t of a[t] b[t+l], over three real sequences: x = Re z,
y = Im z and s = |z|^2.  One table, ``theory.KIND_FAMILIES``, gives each kind
its signed families, and each kind is a part; rzz is the one composite kind,
made of the parts rzz_re and rzz_im:

    rxx = xx   ryy = yy   rxy = xy   ryx = yx   rsq = ss
    rzz_re = xx + yy      rzz_im = yx - xy      rzz = rzz_re + j*rzz_im

A part's spectrum is the signed sum of its families' spectra by
``theory._signed_sum``, the rule by which ``harness.oracle_series`` sums the
families' closed forms, so an estimate and its oracle read the same signs.

The sums are computed as FFT cross-correlations, which is exact (no windowing
approximations) and returns every lag at once.  The n_a anchors are step*i,
with step = 10 (1 for a single anchor).  Lag l = step*j + q then reads phase q
of the trace, the samples step*r + q, so each family is lag j of a short
correlation of the anchor samples with one phase (polyphase decomposition;
Vaidyanathan, *Multirate Systems and Filter Banks*, 1993).  Per trial block,
each sequence a family reads is transformed once with rfft at length
m = next_fast_len(n_a + max_lag // step, real=True): its anchor samples d when
a family reads it on the left, and as step phases of that length when one
reads it on the right.  Family ab has the spectrum conj(F(d_a)) F(b).  No sum
reads row n_a + max_lag // step or past it, so no circular correlation wraps.
At 6001 samples and 1001 lags that is step = 10 and m = 625.

Two reductions share those spectra:

* ``per_trial_correlations`` combines each kind part's families in the
  spectrum and takes one irfft per part and trial: per trial, 1 + step
  forward transforms per sequence and step inverse ones per part.
* ``correlation_means`` sums each family's spectrum over trials and takes one
  irfft per part in all: per trial, the same 1 + step forward transforms per
  sequence, and per call, step inverse ones per part.

No complex transform is taken.

Every estimator reads its ensemble through ``blocks()`` (see ``sos``), a
block of ``sos.TRIAL_BLOCK`` trials at a time, and reduces each block as one
unit, so a ``LazyEnsemble`` is never whole in memory: per-trial results are
filled in block by block, trial sums add one block after another in trial
order, and envelope picks are taken per block, from ``blocks(stride)`` at
``decorrelation_stride``, so a lazy ensemble synthesizes the picks alone.
Every result is therefore the same, bit for bit, for an in-memory and a lazy
ensemble of one scenario.
On an ensemble of no trials the per-trial estimators return arrays of no
rows, and every trial mean raises ValueError("empty ensemble").

scipy.fft is imported at the first transform (``theory._Deferred``), so
importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sos import Ensemble
from .theory import CORRELATION_KINDS, KIND_FAMILIES, CorrelationSeries, LagGrid
from .theory import _RZZ_PARTS, _Deferred, _kind_parts, _signed_sum

# Read at call time, so a test can replace it.
sp_fft = _Deferred("scipy.fft")

DEFAULT_ANCHOR_STRIDE = 10

# The three real sequences of z = x + jy that every kind correlates.
_SEQUENCES = {
    "x": lambda z: z.real,
    "y": lambda z: z.imag,
    "s": lambda z: z.real * z.real + z.imag * z.imag,
}
# The table kinds, with the composite rzz (see theory) listed before its parts.
_RZZ_AT = CORRELATION_KINDS.index(_RZZ_PARTS[0])
ESTIMATOR_KINDS = (*CORRELATION_KINDS[:_RZZ_AT], "rzz", *CORRELATION_KINDS[_RZZ_AT:])


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


def _trial_count(ens: Ensemble) -> int:
    """``ens.n_trials``, which a trial mean divides by: refused when 0."""
    if ens.n_trials == 0:
        raise ValueError("empty ensemble")
    return ens.n_trials


def lag_samples(grid: LagGrid, sample_period_s: float, n_samples: int) -> np.ndarray:
    """Convert grid lags to sample counts, rejecting off-grid or long lags.

    The longest lag is checked before the cast to int, which a lag past the
    int64 range would overflow.
    """
    ratio = grid.lags_s / sample_period_s
    max_lag = np.rint(ratio[-1])
    if max_lag >= n_samples:
        raise LagError(
            f"max lag {max_lag:.17g} samples exceeds trace length {n_samples}"
        )
    lags = np.rint(ratio).astype(int)
    if np.any(np.abs(ratio - lags) > 1e-6):
        raise LagError("lag grid contains lags that are not multiples of T_s")
    return lags


def default_anchors(n_samples: int, max_lag: int) -> np.ndarray:
    """Every DEFAULT_ANCHOR_STRIDE-th sample, excluding the final max-lag window."""
    stop = n_samples - max_lag
    if stop < 1:
        raise LagError(
            f"trace length {n_samples} leaves no anchor clear of max lag {max_lag}"
        )
    return np.arange(0, stop, DEFAULT_ANCHOR_STRIDE)


@dataclass(frozen=True, eq=False)
class _Polyphase:
    """The default anchors as step*i for i < n_anchors; the sums read the
    first ``span`` samples, and every transform has length ``m``.  Lag
    step*j + q is row j of phase q, so an inverse transform of (trials, m,
    step) phases reshaped to (trials, m*step) is in lag order.
    """

    step: int
    n_anchors: int
    span: int
    m: int

    def spectra(self, ens: Ensemble, families):
        """Yield (trials, left, right) per block of ``ens``: the block's
        slice of trials and the transforms ``families`` read.

        left[a] is conj(F(d)) of the anchor samples d of a, shape
        (trials, m//2 + 1), and right[b] is F(b) of b as (trials, m, step)
        phases, zero past the samples the sums read, shape
        (trials, m//2 + 1, step).  Family ab has the spectrum
        left[a][:, :, None] * right[b].  Each sequence is formed and
        transformed once per block, however many families read it.  The two
        dicts are refilled for every block: read them before the next.
        """
        left, right = {ab[0] for ab in families}, {ab[1] for ab in families}
        # z filled up to ``span`` per block; the rest stays zero, and so does
        # every sequence formed from it.
        phases = np.zeros((0, self.m * self.step), dtype=complex)
        fa, fb = {}, {}
        for trials, block in ens.blocks():
            # Refill the yielded dicts, so the last block's spectra are freed
            # before this block's are made.
            fa.clear()
            fb.clear()
            rows = len(block)
            if rows > len(phases):
                phases = np.zeros((rows, self.m * self.step), dtype=complex)
            phases[:rows, : self.span] = block[:, : self.span]
            for name in sorted(left | right):
                seq = _SEQUENCES[name](phases[:rows])
                if name in right:
                    fb[name] = sp_fft.rfft(seq.reshape(rows, self.m, self.step), axis=1)
                if name in left:
                    # A contiguous copy: on the strided view, correlation_means
                    # measured about 35% slower (100 x 6001, 2-vCPU Xeon).
                    d = np.ascontiguousarray(seq[:, :: self.step][:, : self.n_anchors])
                    fa[name] = sp_fft.rfft(d, self.m, axis=1)
                    np.conjugate(fa[name], out=fa[name])
            yield trials, fa, fb


def _correlation_setup(ens: Ensemble, kinds, grid: LagGrid):
    """Checked kinds and lags, and the polyphase layout of the sums over the
    default anchors.

    Since step*(max_lag // step + 1) > max_lag, m*step >= span.
    """
    unknown = [kind for kind in kinds if kind not in ESTIMATOR_KINDS]
    if unknown:
        raise ValueError(f"unknown estimator kind {unknown[0]!r}")
    scn = ens.scenario
    lags = lag_samples(grid, scn.sample_period_s, scn.n_samples)
    max_lag = int(lags[-1])
    n_anchors = default_anchors(scn.n_samples, max_lag).size
    step = DEFAULT_ANCHOR_STRIDE if n_anchors > 1 else 1
    span = step * (n_anchors - 1) + max_lag + 1
    m = sp_fft.next_fast_len(n_anchors + max_lag // step, real=True)
    return lags, _Polyphase(step, n_anchors, span, m)


def _parts_and_families(kinds):
    """The distinct parts of ``kinds``, and the distinct families they read."""
    parts = tuple(dict.fromkeys(part for kind in kinds for part in _kind_parts(kind)))
    families = dict.fromkeys(ab for part in parts for _, ab in KIND_FAMILIES[part])
    return parts, tuple(families)


def _kind_values(kind: str, parts: dict) -> np.ndarray:
    """A kind's values from its part values; rzz is assembled from its real
    and imaginary parts, so it equals rzz_re + j*rzz_im bit for bit."""
    real, *imag = (parts[part] for part in _kind_parts(kind))
    if not imag:
        return real
    # Fortran order, as for every per-trial array (see per_trial_correlations).
    values = np.empty(real.shape, dtype=complex, order="F")
    values.real, values.imag = real, imag[0]
    return values


def per_trial_correlations(
    ens: Ensemble,
    kinds: list[str] | tuple[str, ...],
    grid: LagGrid,
) -> dict[str, np.ndarray]:
    """Anchor-averaged lag products per trial for several kinds at once.

    Returns {kind: (n_trials, n_lags) array}.  Per trial block every sequence
    is transformed once, and each distinct kind part (rzz_re and the real
    part of rzz are one) gets one inverse transform per trial, so every array
    equals its :func:`per_trial_correlation` bit for bit.  For trial means
    alone, :func:`correlation_means` is cheaper.
    """
    lags, layout = _correlation_setup(ens, kinds, grid)
    parts, families = _parts_and_families(kinds)
    # Fortran order keeps each lag's trials contiguous, so a mean over trials
    # sums them pairwise; the digits of every reported mean depend on it.
    values = {part: np.empty((ens.n_trials, lags.size), order="F") for part in parts}
    for trials, fa, fb in layout.spectra(ens, families):
        for part, out in values.items():
            spectrum = _signed_sum(part, lambda ab: fb[ab[1]] * fa[ab[0]][:, :, None])
            sums = sp_fft.irfft(spectrum, layout.m, axis=1).reshape(len(spectrum), -1)
            np.divide(sums[:, lags], layout.n_anchors, out=out[trials])
    return {kind: _kind_values(kind, values) for kind in kinds}


def per_trial_correlation(
    ens: Ensemble,
    kind: str,
    grid: LagGrid,
) -> np.ndarray:
    """Anchor-averaged lag products per trial, shape (n_trials, n_lags).

    ``kind`` follows the quadrature decomposition x = Re z, y = Im z:
    rxx/ryy/rxy/ryx are the component products, rzz is z(t)*conj(z(t+tau))
    (complex output; rzz_re/rzz_im select one part), rsq is |z|^2 products.
    """
    return per_trial_correlations(ens, (kind,), grid)[kind]


def _trial_sum(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """sum over trials t of fa[t, k] * fb[t, k, q]: one (1, t) @ (t, step)
    product per frequency k."""
    return np.matmul(fa.T[:, None, :], fb.transpose(1, 0, 2))[:, 0]


def correlation_means(
    ens: Ensemble,
    kinds: list[str] | tuple[str, ...],
    grid: LagGrid,
) -> dict[str, np.ndarray]:
    """Trial means of the anchor-averaged lag products, {kind: (n_lags,) array}.

    Each equals ``per_trial_correlations(...)[kind].mean(axis=0)`` up to
    round-off.  The transform is linear, so each family's spectrum is summed
    over trials, and each distinct kind part gets one inverse transform in
    all, not one per trial.
    """
    lags, layout = _correlation_setup(ens, kinds, grid)
    parts, families = _parts_and_families(kinds)
    m = layout.m
    sums = {ab: np.zeros((m // 2 + 1, layout.step), dtype=complex) for ab in families}
    for _, fa, fb in layout.spectra(ens, families):
        for ab, total in sums.items():
            total += _trial_sum(fa[ab[0]], fb[ab[1]])
    count = _trial_count(ens) * layout.n_anchors
    means = {
        part: sp_fft.irfft(_signed_sum(part, lambda ab: sums[ab].copy()), m, axis=0)
        .reshape(-1)[lags]
        / count
        for part in parts
    }
    return {kind: _kind_values(kind, means) for kind in kinds}


def ensemble_correlation(
    ens: Ensemble,
    kind: str,
    grid: LagGrid,
) -> CorrelationSeries:
    """Ensemble-and-anchor averaged correlation as a CorrelationSeries."""
    if kind == "rzz":
        raise ValueError("request rzz_re or rzz_im for series output")
    values = correlation_means(ens, (kind,), grid)[kind]
    return CorrelationSeries(kind, grid, values)


def ensemble_mean(ens: Ensemble) -> complex:
    """Mean of z over all trials and times (zero for valid scenarios)."""
    total = sum(block.sum() for _, block in ens.blocks())
    return complex(total / (_trial_count(ens) * ens.scenario.n_samples))


def decorrelation_stride(scenario) -> int:
    """Sample stride putting consecutive envelope picks ~2 Doppler cycles apart."""
    return max(1, math.ceil(2.0 / (scenario.doppler_hz * scenario.sample_period_s)))


def envelope_picks(ens: Ensemble) -> np.ndarray:
    """Decorrelated envelope samples, one per decorrelation_stride per trial.

    The ensemble's blocks are read at that stride, so a ``LazyEnsemble``
    synthesizes only the picks (see ``sos.generate_trace``).
    """
    stride = decorrelation_stride(ens.scenario)
    picks = [np.abs(block).ravel() for _, block in ens.blocks(stride)]
    return np.concatenate([np.empty(0), *picks])


def envelope_pdf(
    ens: Ensemble,
    bins: int = 100,
    value_range: tuple[float, float] = (0.0, 3.0),
) -> HistogramDensity:
    """Histogram density of decorrelated envelope picks, normalized to 1.

    The range must cover every observed pick; silently dropping samples would
    break the unit-integral invariant.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    _trial_count(ens)
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


def _checked_thresholds(thresholds) -> np.ndarray:
    """``thresholds`` as a 1-D float array, once each is >= 0 and not NaN; a
    scalar is one threshold."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if thresholds.ndim != 1:
        raise ValueError("thresholds must be a scalar or a 1-D sequence")
    if not np.all(thresholds >= 0):  # NaN fails this too
        raise ValueError("thresholds must be >= 0 and not NaN")
    return thresholds


def per_trial_crossing_rates(
    ens: Ensemble, thresholds: np.ndarray
) -> np.ndarray:
    """Normalized upward crossing rates per trial, shape (n_trials, n_thresholds).

    An upward crossing of rho is a sample pair env_t <= rho < env_{t+1}, so it
    lies on a rising step.  The envelope rises through a maximal run of rising
    steps, from env_s up to env_e, so the run holds exactly one crossing of
    rho when env_s <= rho < env_e and none otherwise.  Per block of trials,
    one comparison pass marks the rising steps in a mask with a zero after
    each trial's last sample, so the mask's changes are the run starts and
    ends, alternating, and no run joins two trials.  One ``searchsorted``
    (side left) of the run end values into the sorted distinct thresholds
    gives each run the range of thresholds it crosses, and each trial counts
    its ranges in a difference array (``bincount``, then ``cumsum``), read
    back in the caller's threshold order.

    For n samples, R runs and T thresholds that costs O(n + R log T) per
    block, where a comparison pass per threshold costs O(n T).  R grows with
    f_D*T_s: about 980 runs per 8 x 10000 block at 0.01, and 31000, about
    one per 2.5 samples, at 0.5, where the search dominates.  Counts divide
    by the per-trial observation time and the maximum Doppler frequency.
    """
    thresholds = _checked_thresholds(thresholds)
    levels, rank = np.unique(thresholds, return_inverse=True)
    width = levels.size + 1
    scn = ens.scenario
    obs_time = (scn.n_samples - 1) * scn.sample_period_s
    rates = np.empty((ens.n_trials, thresholds.size))
    for rows, block in ens.blocks():
        env = np.abs(block)
        n_rows, n = env.shape
        # rising[1:] holds the rows' steps: entry t of a row marks
        # env_t < env_{t+1}, and its entry n - 1 stays False.  So change k,
        # rising[k] != rising[k + 1], is sample k of env.ravel(): the start of
        # a run when rising[k + 1] is True, its end when it is False.
        rising = np.zeros(n_rows * n + 1, dtype=bool)
        np.greater(env[:, 1:], env[:, :-1], out=rising[1:].reshape(n_rows, n)[:, :-1])
        changes = np.flatnonzero(rising[1:] != rising[:-1])
        # A run's difference-array entries: +1 at its start's level index in
        # its row, -1 at its end's.
        keys = changes // n * width + np.searchsorted(levels, env.ravel()[changes])
        size = n_rows * width
        marks = np.bincount(keys[::2], minlength=size) - np.bincount(
            keys[1::2], minlength=size
        )
        counts = np.cumsum(marks.reshape(n_rows, width)[:, :-1], axis=1)
        rates[rows] = counts[:, rank] / obs_time / scn.doppler_hz
    return rates


def level_crossing_rate(ens: Ensemble, thresholds) -> LcrCurve:
    """Trial-averaged normalized level crossing rate curve."""
    thresholds = _checked_thresholds(thresholds)
    scn = ens.scenario
    total_time = _trial_count(ens) * (scn.n_samples - 1) * scn.sample_period_s
    rates = per_trial_crossing_rates(ens, thresholds).mean(axis=0)
    return LcrCurve(thresholds, rates, total_time)

"""Sum-of-sinusoids generation of TWDP fading traces.

Each trial draws fresh random initial phases for the two specular tones and a
fresh diffuse realization: N sinusoids whose arrival angles are regular with a
random per-path offset, ``beta_i = (2*pi*i + theta_i)/N``.  The normalized
lowpass process is

    z(t) = (v1*exp(j*(phi1 + rate1*t)) + v2*exp(j*(phi2 + rate2*t)) + n(t)) / sqrt(omega)

with n(t) = sqrt(diffuse_power/N) * sum_i exp(j*(2*pi*f_D*t*cos(beta_i) + phase_i)).
The normalization lives on ``ChannelParams``: synthesis reads z's amplitudes
as ``tone_amplitudes`` and ``path_amplitude(N)``, and its ``envelope_bound(N)``
is the bound on |z|.

``specular_tone`` and ``diffuse_sample`` evaluate these terms directly and are
the reference definition.  ``generate_trace`` computes the same sum by block
factorization: z(t) is N+2 phasors a_k*exp(j*(phi_k + w_k*t)), and at sample
t = (b*B + r)*T each one splits as

    a_k*exp(j*(phi_k + w_k*b*B*T)) * exp(j*w_k*r*T),   0 <= r < B,

so a trace is one complex matrix product, head (R, N+2) @ tail (N+2, B) with
R = ceil(n/B) rows, raveled and cut to n samples.  The head factors the same
way one level up: with S = ceil(sqrt(R)), row b = u*S + v is

    coarse[u] * fine[v] = a_k*exp(j*(phi_k + w_k*u*S*B*T)) * exp(j*w_k*v*B*T),

for u < ceil(R/S) and v < S, so the head is the (ceil(R/S), S) grid of those
products cut to its first R rows.  That takes about (2*sqrt(n/B) + B)*(N+2)
complex exponentials instead of n*(N+2), plus R*(N+2) complex products.
B = ``BLOCK`` = 64 trades the head's rows against the tail's B columns and
keeps both small for traces of 10^3 to 10^5 samples.  The product rounds
differently from the direct sum, by about 1e-13 on unit-power traces.

A trace at a sample ``stride`` holds samples t = 0, stride, 2*stride, ...
only.  Sample t is entry (t // B, t % B) of the product, so a strided trace
multiplies only the head rows unique(t // B) by the same tail and gathers
those entries.  S depends on n alone, never on the stride, so those rows are
the full trace's rows, the same coarse-by-fine products bit for bit.  It equals
``samples[::stride]`` of the full trace bit for bit, because BLAS rounds each
row of a product the same whatever the number of rows, with one exception: a
one-row product takes BLAS's matrix-vector path, which rounds differently.
So a strided trace computes at least two head rows whenever the full trace
has two (the two-row rule).  BLAS does not promise the rest; the tests pin
it, and CI compares validation reports at one and at several BLAS threads.
At 40000 samples and the pdf check's stride of 200 the product takes 200 of
the 625 head rows, and the head 50 rows of exponentials (25 coarse, 25 fine).
Every stride at or past the trace length picks sample 0 alone, so the picks
are taken at min(stride, n_samples); the trace keeps its stride as given.

Randomness comes from one Philox substream per (seed, trial_index), so every
trial is reproducible in isolation and ensembles are independent of execution
order.  Each thread keeps one Philox and resets it for every trial to the
state ``Philox(key=[seed, trial_index])`` starts in, which skips the
constructor's OS-entropy SeedSequence; one uniform draw of 2N+2 angles then
gives the same doubles as one draw per angle group.  The tone phase rates are
the scenario's ``rates``, and a ``FadingTrace`` is its samples, trial index,
scenario and stride: seed and scenario digest are read off the scenario, and
the sample period is the scenario's times the stride.

An ensemble is read block by block: ``blocks(stride)`` yields consecutive
trials, ``TRIAL_BLOCK`` at a time, as (rows, samples) pairs, at every
``stride``-th sample (default 1, every sample).  A ``TraceEnsemble`` holds its
samples in memory and yields row views of them; a ``LazyEnsemble`` holds only
its scenario and synthesizes each block on demand with
``generate_ensemble(scenario, trials, stride)``, so at most a block or two of
its trials exist at once, and only the samples read.  Both yield the same
arrays for the same scenario and stride.  Every estimator reduces one block at
a time, so ``TRIAL_BLOCK`` is the one trial grain of the package.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .params import TWO_PI, ValidatedScenario, wrap_angle

# Samples per block of the factorized synthesis; see the module docstring.
BLOCK = 64
# Trials per block of an ensemble read, and so per step of every trial
# reduction: the estimators transform and sum each block as one unit, so
# their sums run over the same trials in the same order for every kind of
# ensemble.  Changing it reorders those sums, and so moves the last digits of
# every trial mean and of the validation report.  At 40000 samples a block is
# 5 MB.
TRIAL_BLOCK = 8


@dataclass(frozen=True, eq=False)
class DiffuseRealization:
    """Random angles of one diffuse-component draw.

    aoas[i] = wrap((2*pi*(i+1) + thetas[i]) / n_sinusoids), all angles stored
    in [-pi, pi).
    """

    n_sinusoids: int
    thetas: np.ndarray
    init_phases: np.ndarray
    aoas: np.ndarray


@dataclass(frozen=True, eq=False)
class FadingTrace:
    """One trial's complex lowpass samples, its trial index and its scenario.

    ``samples`` are the scenario's samples 0, stride, 2*stride, ...; seed
    and scenario digest are read off the scenario, and the sample period is
    the scenario's times ``stride``.
    """

    samples: np.ndarray
    trial_index: int
    scenario: ValidatedScenario
    stride: int = 1

    @property
    def sample_period_s(self) -> float:
        return self.scenario.sample_period_s * self.stride

    @property
    def seed(self) -> int:
        return self.scenario.seed

    @property
    def scenario_digest(self) -> str:
        return self.scenario.digest()


def _trial_blocks(n_trials: int):
    """Row slices of ``TRIAL_BLOCK`` trials that partition range(n_trials)."""
    return (slice(i, min(i + TRIAL_BLOCK, n_trials)) for i in range(0, n_trials, TRIAL_BLOCK))


def _checked_stride(stride) -> int:
    """``stride`` once it is known to be a positive integer."""
    if operator.index(stride) < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    return stride


def _checked_trial_index(trial_index) -> int:
    """``trial_index`` as an int once it is known to fit the trace header's u32."""
    index = operator.index(trial_index)
    if not 0 <= index < 2 ** 32:
        raise ValueError(f"trial_index must be >= 0 and < 2**32, got {index}")
    return index


@dataclass(frozen=True, eq=False)
class TraceEnsemble:
    """Consecutive trials of one scenario held in memory, in trial order.

    ``sample_matrix`` holds the samples as one (n_trials, n_picks) complex
    array; row i is trial ``first_trial + i`` at samples 0, stride,
    2*stride, ..., so n_picks = n_samples for the default stride 1.
    """

    sample_matrix: np.ndarray
    scenario: ValidatedScenario
    first_trial: int = 0
    stride: int = 1

    @property
    def traces(self) -> tuple[FadingTrace, ...]:
        """One FadingTrace per trial; each one's samples are a row view."""
        return tuple(
            FadingTrace(row, self.first_trial + i, self.scenario, self.stride)
            for i, row in enumerate(self.sample_matrix)
        )

    @property
    def n_trials(self) -> int:
        return self.sample_matrix.shape[0]

    def blocks(self, stride: int = 1):
        """Yield (rows, samples) per ``TRIAL_BLOCK`` trials: the slice of
        ``sample_matrix`` rows and a view of them at every ``stride``-th
        sample.  Refused on a strided ensemble, whose rows are picks and not
        the traces every estimator reads."""
        if self.stride != 1:
            raise ValueError(
                f"a stride-{self.stride} ensemble holds picks, not traces; "
                "blocks() reads traces"
            )
        _checked_stride(stride)
        for rows in _trial_blocks(self.n_trials):
            yield rows, self.sample_matrix[rows, ::stride]


@dataclass(frozen=True, eq=False)
class LazyEnsemble:
    """All n_trials trials of a scenario, synthesized block by block on read.

    Holds no samples: each ``blocks()`` pass synthesizes its trials again, one
    ``TRIAL_BLOCK`` at a time, and yields what ``TraceEnsemble.blocks`` of
    ``generate_ensemble(scenario)`` would, bit for bit.
    """

    scenario: ValidatedScenario

    @property
    def n_trials(self) -> int:
        return self.scenario.n_trials

    def blocks(self, stride: int = 1):
        """Yield (rows, samples) per ``TRIAL_BLOCK`` trials: the slice of trial
        indices and the samples of ``generate_ensemble`` for them, which
        synthesizes every ``stride``-th sample only."""
        for rows in _trial_blocks(self.n_trials):
            block = generate_ensemble(self.scenario, range(rows.start, rows.stop), stride)
            yield rows, block.sample_matrix


# What the estimators read: either kind of ensemble.
Ensemble = TraceEnsemble | LazyEnsemble


# Each thread's Generator over one Philox, which draw_trial_randoms resets to
# the start of a trial's substream before every draw; no state outlives a call.
_THREAD = threading.local()


def _substream(seed: int, trial_index: int) -> np.random.Generator:
    """This thread's generator at the start of substream (seed, trial_index).

    The state is the one ``Philox(key=[seed, trial_index])`` starts in: counter
    0, that key and an empty buffer.  Setting it skips the OS-entropy
    SeedSequence that the constructor builds and then discards.
    """
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, trial_index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def draw_trial_randoms(
    seed: int, trial_index: int, n_sinusoids: int
) -> tuple[float, float, DiffuseRealization]:
    """Draw all random angles for one trial from its keyed substream.

    Returns the two specular initial phases and the diffuse realization.  The
    2N+2 angles are i.i.d. uniform on [-pi, pi), drawn in the order phi1,
    phi2, thetas, init_phases; identical (seed, trial_index, n_sinusoids)
    always produce identical output.
    """
    angles = _substream(seed, trial_index).uniform(-np.pi, np.pi, size=2 * n_sinusoids + 2)
    phi1, phi2 = angles[:2]
    thetas, init_phases = angles[2:].reshape(2, n_sinusoids)
    i = np.arange(1, n_sinusoids + 1)
    aoas = wrap_angle((TWO_PI * i + thetas) / n_sinusoids)
    return phi1, phi2, DiffuseRealization(n_sinusoids, thetas, init_phases, aoas)


def specular_tone(
    amplitude: float, init_phase: float, phase_rate: float, t_grid: np.ndarray
) -> np.ndarray:
    """Constant-envelope tone amplitude*exp(j*(init_phase + phase_rate*t))."""
    return amplitude * np.exp(1j * (init_phase + phase_rate * np.asarray(t_grid)))


def diffuse_sample(
    realization: DiffuseRealization,
    diffuse_power: float,
    doppler_hz: float,
    t,
) -> complex | np.ndarray:
    """Evaluate the N-sinusoid diffuse component at time(s) ``t``.

    Returns sqrt(diffuse_power/N) * sum_i exp(j*(2*pi*f_D*t*cos(aoas[i]) + phase_i));
    a scalar for scalar ``t``, else an array matching ``t``.
    """
    n = realization.n_sinusoids
    t_arr = np.asarray(t, dtype=float)
    arg = (
        TWO_PI * doppler_hz * np.multiply.outer(t_arr, np.cos(realization.aoas))
        + realization.init_phases
    )
    total = math.sqrt(diffuse_power / n) * np.exp(1j * arg).sum(axis=-1)
    return complex(total) if t_arr.ndim == 0 else total


def generate_trace(
    scenario: ValidatedScenario, trial_index: int, stride: int = 1
) -> FadingTrace:
    """Generate one trial's normalized fading trace deterministically.

    Evaluates the module's z(t) by block factorization at samples 0, stride,
    2*stride, ...; the result equals ``samples[::stride]`` of the stride-1
    trace bit for bit.  See the module docstring.  ``trial_index`` must be an
    integer (TypeError) in [0, 2**32), the trace header's u32 (ValueError).
    """
    _checked_stride(stride)
    trial_index = _checked_trial_index(trial_index)
    phi1, phi2, real = draw_trial_randoms(
        scenario.seed, trial_index, scenario.n_sinusoids
    )
    p = scenario.params
    n_sin = scenario.n_sinusoids
    amps = np.empty(n_sin + 2)
    amps[:2] = p.tone_amplitudes
    amps[2:] = p.path_amplitude(n_sin)
    phases = np.concatenate(([phi1, phi2], real.init_phases))
    rates = np.concatenate(
        (scenario.rates, TWO_PI * scenario.doppler_hz * np.cos(real.aoas))
    )
    n = scenario.n_samples
    # Head row r = u*S + v is coarse[u] * fine[v]; S comes from n alone, so
    # every stride computes the same head rows.  See the module docstring.
    n_rows = -(-n // BLOCK)
    span = math.isqrt(n_rows - 1) + 1
    n_coarse = -(-n_rows // span)
    # The head grid comes first, so that numpy refuses a trace too long to
    # hold before any exponential is taken.
    head = np.empty((n_coarse, span, n_sin + 2), complex)
    period = BLOCK * scenario.sample_period_s
    t_coarse = np.arange(n_coarse) * (span * period)
    t_fine = np.arange(span) * period
    t_tail = np.arange(BLOCK) * scenario.sample_period_s
    coarse = amps * np.exp(1j * (phases + np.multiply.outer(t_coarse, rates)))
    fine = np.exp(1j * np.multiply.outer(t_fine, rates))
    tail = np.exp(1j * np.multiply.outer(rates, t_tail))
    head = np.multiply(coarse[:, None, :], fine, out=head).reshape(-1, n_sin + 2)
    if stride == 1:
        head = head[:n_rows]
    else:
        # Every stride past the trace picks sample 0 alone, and np.arange
        # takes no int past int64.
        t = np.arange(0, n, min(stride, n))
        head_rows, row_of = np.unique(t // BLOCK, return_inverse=True)
        if head_rows.size == 1 and n > BLOCK:
            # The two-row rule; see the module docstring.  Every pick is in
            # row 0 here, so row_of still points at it.
            head_rows = np.arange(2)
        head = head[head_rows]
    product = head @ tail
    z = product.ravel()[:n] if stride == 1 else product[row_of, t % BLOCK]
    return FadingTrace(z, trial_index, scenario, stride)


def generate_ensemble(
    scenario: ValidatedScenario, trials: range | None = None, stride: int = 1
) -> TraceEnsemble:
    """Generate the traces of ``trials`` (default: all n_trials) into one
    (len(trials), n_picks) array; row i is ``generate_trace`` of trial
    ``trials[i]`` at the sample ``stride``.  ``trials`` must be a step-1
    range inside ``range(n_trials)``.
    """
    if trials is None:
        trials = range(scenario.n_trials)
    if not (
        isinstance(trials, range)
        and trials.step == 1
        and 0 <= trials.start <= trials.stop <= scenario.n_trials
    ):
        raise ValueError(
            f"trials must be a step-1 range inside range({scenario.n_trials}), "
            f"got {trials!r}"
        )
    n_picks = -(-scenario.n_samples // _checked_stride(stride))
    z = np.empty((len(trials), n_picks), dtype=complex)
    for row, idx in enumerate(trials):
        z[row] = generate_trace(scenario, idx, stride).samples
    return TraceEnsemble(z, scenario, trials.start, stride)

"""Sum-of-sinusoids generation of TWDP fading traces.

Each trial draws fresh random initial phases for the two specular tones and a
fresh diffuse realization: N sinusoids whose arrival angles are regular with a
random per-path offset, ``beta_i = (2*pi*i + theta_i)/N``.  The normalized
lowpass process is

    z(t) = (v1*exp(j*(phi1 + rate1*t)) + v2*exp(j*(phi2 + rate2*t)) + n(t)) / sqrt(omega)

with n(t) = sqrt(diffuse_power/N) * sum_i exp(j*(2*pi*f_D*t*cos(beta_i) + phase_i)).

``specular_tone`` and ``diffuse_sample`` evaluate these terms directly and are
the reference definition.  ``generate_trace`` computes the same sum by block
factorization: z(t) is N+2 phasors a_k*exp(j*(phi_k + w_k*t)), and at sample
t = (b*B + r)*T each one splits as

    a_k*exp(j*(phi_k + w_k*b*B*T)) * exp(j*w_k*r*T),   0 <= r < B,

so a trace is one complex matrix product, head (ceil(n/B), N+2) @ tail
(N+2, B), raveled and cut to n samples.  That takes about
(n/B + B)*(N+2) complex exponentials instead of n*(N+2).  B = ``BLOCK`` = 64
trades the head's n/B rows against the tail's B columns and keeps both small
for traces of 10^3 to 10^5 samples.  The product rounds differently from the
direct sum, by about 1e-13 on unit-power traces.

Randomness comes from one Philox substream per (seed, trial_index), so every
trial is reproducible in isolation and ensembles are independent of execution
order.  The tone phase rates are the scenario's ``rates``, and a
``FadingTrace`` is its samples, trial index and scenario: sample period, seed
and scenario digest are read off the scenario.

An ensemble is read block by block: ``blocks()`` yields consecutive trials,
``TRIAL_BLOCK`` at a time, as (rows, samples) pairs.  A ``TraceEnsemble``
holds its samples in memory and yields row views of them; a ``LazyEnsemble``
holds only its scenario and synthesizes each block on demand with
``generate_ensemble(scenario, trials)``, so at most a block or two of its
trials exist at once.  Both yield the same arrays for the same scenario.
Every estimator reduces one block at a time, so ``TRIAL_BLOCK`` is the one
trial grain of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import TWO_PI, ChannelParams, ValidatedScenario, wrap_angle

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

    Sample period, seed and scenario digest are read off the scenario.
    """

    samples: np.ndarray
    trial_index: int
    scenario: ValidatedScenario

    @property
    def sample_period_s(self) -> float:
        return self.scenario.sample_period_s

    @property
    def seed(self) -> int:
        return self.scenario.seed

    @property
    def scenario_digest(self) -> str:
        return self.scenario.digest()


def _trial_blocks(n_trials: int):
    """Row slices of ``TRIAL_BLOCK`` trials that partition range(n_trials)."""
    return (slice(i, min(i + TRIAL_BLOCK, n_trials)) for i in range(0, n_trials, TRIAL_BLOCK))


@dataclass(frozen=True, eq=False)
class TraceEnsemble:
    """Consecutive trials of one scenario held in memory, in trial order.

    ``sample_matrix`` holds the samples as one (n_trials, n_samples) complex
    array; row i is trial ``first_trial + i``.
    """

    sample_matrix: np.ndarray
    scenario: ValidatedScenario
    first_trial: int = 0

    @property
    def traces(self) -> tuple[FadingTrace, ...]:
        """One FadingTrace per trial; each one's samples are a row view."""
        return tuple(
            FadingTrace(row, self.first_trial + i, self.scenario)
            for i, row in enumerate(self.sample_matrix)
        )

    @property
    def n_trials(self) -> int:
        return self.sample_matrix.shape[0]

    def blocks(self):
        """Yield (rows, samples) per ``TRIAL_BLOCK`` trials: the slice of
        ``sample_matrix`` rows and a view of them."""
        for rows in _trial_blocks(self.n_trials):
            yield rows, self.sample_matrix[rows]


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

    def blocks(self):
        """Yield (rows, samples) per ``TRIAL_BLOCK`` trials: the slice of trial
        indices and the samples of ``generate_ensemble`` for them."""
        for rows in _trial_blocks(self.n_trials):
            block = generate_ensemble(self.scenario, range(rows.start, rows.stop))
            yield rows, block.sample_matrix


# What the estimators read: either kind of ensemble.
Ensemble = TraceEnsemble | LazyEnsemble


def draw_trial_randoms(
    seed: int, trial_index: int, n_sinusoids: int
) -> tuple[float, float, DiffuseRealization]:
    """Draw all random angles for one trial from its keyed substream.

    Returns the two specular initial phases and the diffuse realization.  The
    2N+2 angles are i.i.d. uniform on [-pi, pi); identical (seed, trial_index,
    n_sinusoids) always produce identical output.
    """
    key = np.array([seed, trial_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    phi1, phi2 = rng.uniform(-np.pi, np.pi, size=2)
    thetas = rng.uniform(-np.pi, np.pi, size=n_sinusoids)
    init_phases = rng.uniform(-np.pi, np.pi, size=n_sinusoids)
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


def generate_trace(scenario: ValidatedScenario, trial_index: int) -> FadingTrace:
    """Generate one trial's normalized fading trace deterministically.

    Evaluates the module's z(t) by block factorization; see the module
    docstring.
    """
    phi1, phi2, real = draw_trial_randoms(
        scenario.seed, trial_index, scenario.n_sinusoids
    )
    p = scenario.params
    n_sin = scenario.n_sinusoids
    amps = np.empty(n_sin + 2)
    amps[:2] = p.v1, p.v2
    amps[2:] = math.sqrt(p.diffuse_power / n_sin)
    amps /= math.sqrt(p.omega)
    phases = np.concatenate(([phi1, phi2], real.init_phases))
    rates = np.concatenate(
        (scenario.rates, TWO_PI * scenario.doppler_hz * np.cos(real.aoas))
    )
    n = scenario.n_samples
    n_blocks = -(-n // BLOCK)
    t_head = np.arange(n_blocks) * (BLOCK * scenario.sample_period_s)
    t_tail = np.arange(BLOCK) * scenario.sample_period_s
    head = amps * np.exp(1j * (phases + np.multiply.outer(t_head, rates)))
    tail = np.exp(1j * np.multiply.outer(rates, t_tail))
    z = (head @ tail).ravel()[:n]
    return FadingTrace(z, trial_index, scenario)


def generate_ensemble(
    scenario: ValidatedScenario, trials: range | None = None
) -> TraceEnsemble:
    """Generate the traces of ``trials`` (default: all n_trials) into one
    (len(trials), n_samples) array; row i is ``generate_trace`` of trial
    ``trials[i]``.  ``trials`` must be a step-1 range inside
    ``range(n_trials)``.
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
    z = np.empty((len(trials), scenario.n_samples), dtype=complex)
    for row, idx in enumerate(trials):
        z[row] = generate_trace(scenario, idx).samples
    return TraceEnsemble(sample_matrix=z, scenario=scenario, first_trial=trials.start)


def envelope_bound(scenario: ValidatedScenario) -> float:
    """Exact triangle-inequality bound on |z| for this scenario."""
    return phasor_sum_bound(scenario.params, scenario.n_sinusoids)


def phasor_sum_bound(p: ChannelParams, n_sinusoids: int) -> float:
    """Sum of the N+2 phasor amplitudes of z, which |z| never passes."""
    return (p.v1 + p.v2 + math.sqrt(p.diffuse_power * n_sinusoids)) / math.sqrt(p.omega)

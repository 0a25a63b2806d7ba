"""TWDP channel parameterization, scenario configuration, and validation.

A two-wave-with-diffuse-power (TWDP) channel carries two constant-amplitude
specular tones plus a diffuse scattered component.  Three linear quantities
describe the power budget: the tone amplitudes ``v1 >= v2`` and the diffuse
power ``2*sigma**2``, with total power ``omega = v1**2 + v2**2 + diffuse``.
The common shape parameters are

    k     = (v1**2 + v2**2) / diffuse_power     specular-to-diffuse power ratio
    gamma = v2 / v1                             tone amplitude ratio in [0, 1]

Rayleigh fading is k=0 and Rician fading is gamma=0.  Each tone arrives from
angle ``aoa`` relative to the receiver track and accumulates phase at the
constant rate ``-2*pi*f_D*cos(aoa)`` over the local stationarity interval.

The simulated process z is normalized to unit power: it is N+2 phasors, the
two tones and N diffuse paths, divided by sqrt(omega).  :class:`ChannelParams`
is the one place that normalization is written: ``tone_amplitudes``,
``power_fractions``, ``path_amplitude(N)`` and ``envelope_bound(N)`` give z's
amplitudes, power shares and envelope bound, and synthesis (``sos``) and every
closed form (``theory``) read them there.

One experiment is one :class:`ScenarioConfig`: the channel, both arrival
angles, f_D, T_s, the sinusoid count, trials, trace length and seed.
:func:`validate_scenario` checks it and returns a :class:`ValidatedScenario`,
the same nine fields with the angles wrapped; the tone phase rates, f_D*T_s
and the trace digest are properties computed from those fields, never stored.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
import struct
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Common experiment defaults: 8 sinusoids, 500 trials, f_D*T_s = 0.01 at 1 kHz
# Doppler, unit total power, tone arrivals at pi/4 and 2*pi/3.
DEFAULT_N_SINUSOIDS = 8
DEFAULT_N_TRIALS = 500
DEFAULT_FD_TS = 0.01
DEFAULT_DOPPLER_HZ = 1000.0
DEFAULT_OMEGA = 1.0
DEFAULT_AOA1 = math.pi / 4
DEFAULT_AOA2 = 2 * math.pi / 3
DEFAULT_N_SAMPLES = 2001

# Relative tolerance for the power-sum identity omega = v1^2 + v2^2 + diffuse.
_OMEGA_RTOL = 1e-12


class ParameterError(ValueError):
    """Raised for physically inconsistent channel parameters."""


class InvalidScenarioError(ValueError):
    """Raised by validate_scenario; carries the complete list of violations."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid scenario: " + "; ".join(errors))
        self.errors = list(errors)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, a numpy scalar's included: not a
    string, None or a complex, which the range checks cannot compare.  A
    float is let through first: the ABC check costs about 0.4 us, and
    synthesis reads two phase rates per trace."""
    return type(value) is float or isinstance(value, numbers.Real)


def _require_real(**values) -> None:
    """Refuse, naming each, the ``values`` that are not real numbers."""
    problems = [
        f"{name} must be a real number, got {value!r}"
        for name, value in values.items()
        if not _is_real(value)
    ]
    if problems:
        raise ParameterError("; ".join(problems))


def wrap_angle(angle):
    """Reduce an angle, or an array of them, to the interval [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def phase_rate(aoa: float, doppler_hz: float) -> float:
    """Phase velocity -2*pi*f_D*cos(aoa) of a tone arriving from ``aoa``.

    ``doppler_hz`` is the maximum Doppler frequency f_D = v/lambda and must be
    positive.
    """
    if not (_is_real(doppler_hz) and doppler_hz > 0):
        _require_real(doppler_hz=doppler_hz)
        raise ParameterError(f"doppler_hz must be > 0, got {doppler_hz}")
    return -TWO_PI * doppler_hz * math.cos(aoa)


@dataclass(frozen=True)
class ChannelParams:
    """Linear TWDP power parameters.

    Invariants enforced at construction: non-negative amplitudes with
    v2 <= v1 (canonical ordering), omega equal to the component power sum to
    1e-12 relative, and at least one of v1, diffuse_power strictly positive.
    """

    v1: float
    v2: float
    diffuse_power: float
    omega: float

    def __post_init__(self):
        _require_real(**vars(self))
        problems = []
        if not (math.isfinite(self.v1) and self.v1 >= 0):
            problems.append(f"v1 must be finite and >= 0, got {self.v1}")
        if not (math.isfinite(self.v2) and self.v2 >= 0):
            problems.append(f"v2 must be finite and >= 0, got {self.v2}")
        if not (math.isfinite(self.diffuse_power) and self.diffuse_power >= 0):
            problems.append(
                f"diffuse_power must be finite and >= 0, got {self.diffuse_power}"
            )
        if not (math.isfinite(self.omega) and self.omega > 0):
            problems.append(f"omega must be finite and > 0, got {self.omega}")
        if problems:
            raise ParameterError("; ".join(problems))
        if self.v2 > self.v1:
            raise ParameterError(
                f"canonical ordering requires v2 <= v1, got v1={self.v1}, v2={self.v2}"
            )
        if self.v1 == 0 and self.diffuse_power == 0:
            raise ParameterError("at least one of v1, diffuse_power must be > 0")
        total = self.v1 * self.v1 + self.v2 * self.v2 + self.diffuse_power
        if abs(total - self.omega) > _OMEGA_RTOL * self.omega:
            raise ParameterError(
                f"omega={self.omega} does not match component power sum {total}"
            )

    @classmethod
    def from_components(cls, v1: float, v2: float, diffuse_power: float) -> "ChannelParams":
        """Build params with omega computed from the component powers."""
        _require_real(v1=v1, v2=v2, diffuse_power=diffuse_power)
        try:
            omega = v1 ** 2 + v2 ** 2 + diffuse_power
        except OverflowError:  # rejected below as a non-finite omega
            omega = math.inf
        return cls(v1, v2, diffuse_power, omega)

    @property
    def specular_power(self) -> float:
        return self.v1 ** 2 + self.v2 ** 2

    # The normalized view: z's phasors and their powers, in units of
    # sqrt(omega) and omega.  Plain properties, not cached: the digest packs
    # vars(params), which must hold the four fields alone.
    @property
    def tone_amplitudes(self) -> tuple[float, float]:
        """The tones' amplitudes in z, v1/sqrt(omega) and v2/sqrt(omega)."""
        root = math.sqrt(self.omega)
        return self.v1 / root, self.v2 / root

    @property
    def power_fractions(self) -> tuple[float, float, float]:
        """The shares of z's unit power: v1^2/omega, v2^2/omega and
        diffuse_power/omega."""
        omega = self.omega
        return self.v1 ** 2 / omega, self.v2 ** 2 / omega, self.diffuse_power / omega

    def path_amplitude(self, n_sinusoids: int) -> float:
        """Each diffuse path's amplitude in z, sqrt(diffuse_power/N)/sqrt(omega)."""
        return math.sqrt(self.diffuse_power / n_sinusoids) / math.sqrt(self.omega)

    def envelope_bound(self, n_sinusoids: int) -> float:
        """(v1 + v2 + sqrt(diffuse_power*N))/sqrt(omega): the sum of z's N+2
        amplitudes, which |z| never passes.  Summed in this form, not as the
        N+2 amplitudes, whose sum rounds differently: the pdf range of the
        validation suite takes its top edge from it."""
        root = math.sqrt(self.omega)
        return (self.v1 + self.v2 + math.sqrt(self.diffuse_power * n_sinusoids)) / root


def from_k_gamma(k: float, gamma: float, omega: float = DEFAULT_OMEGA) -> ChannelParams:
    """Construct ChannelParams from the shape parameters (k, gamma).

    The diffuse power is omega/(1+k) and the specular power omega*k/(1+k) is
    split between the tones so that v2 = gamma*v1.
    """
    _require_real(k=k, gamma=gamma, omega=omega)
    if not (math.isfinite(k) and k >= 0):
        raise ParameterError(f"k must be finite and >= 0, got {k}")
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    if not (math.isfinite(omega) and omega > 0):
        raise ParameterError(f"omega must be finite and > 0, got {omega}")
    diffuse = omega / (1.0 + k)
    v1_sq = omega * k / ((1.0 + k) * (1.0 + gamma ** 2))
    v1 = math.sqrt(v1_sq)
    return ChannelParams(v1, gamma * v1, diffuse, omega)


def to_k_gamma(p: ChannelParams) -> tuple[float, float]:
    """Recover (k, gamma) from linear params.

    k is +inf when there is no diffuse power; gamma is 0 when both tones
    vanish.  A lone second tone (v1=0, v2>0) cannot reach it: ``ChannelParams``
    refuses any v2 > v1.
    """
    if p.diffuse_power == 0:
        k = math.inf
    else:
        k = p.specular_power / p.diffuse_power
    gamma = 0.0 if p.v1 == 0 else p.v2 / p.v1
    return k, gamma


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation experiment.

    Not validated at construction; run it through :func:`validate_scenario`
    to get a :class:`ValidatedScenario` with wrapped angles, or the full list
    of violated constraints.
    """

    params: ChannelParams
    aoa1: float
    aoa2: float
    doppler_hz: float
    sample_period_s: float
    n_sinusoids: int
    n_trials: int
    n_samples: int
    seed: int


@dataclass(frozen=True)
class ValidatedScenario(ScenarioConfig):
    """A scenario that satisfies every constraint, angles wrapped to [-pi, pi).

    Declares no fields of its own: everything else is derived from the
    configuration.  Build one with :func:`validate_scenario`; construction and
    ``dataclasses.replace`` re-check the constraints.
    """

    def __post_init__(self):
        errors = scenario_violations(self)
        if errors:
            raise InvalidScenarioError(errors)

    @property
    def fd_ts(self) -> float:
        return self.doppler_hz * self.sample_period_s

    @property
    def rates(self) -> tuple[float, float]:
        """Phase rates of the two tones, -2*pi*f_D*cos(aoa)."""
        return (
            phase_rate(self.aoa1, self.doppler_hz),
            phase_rate(self.aoa2, self.doppler_hz),
        )

    def digest(self) -> str:
        """Hex digest of the per-trace generation inputs.

        Covers everything that determines an individual trace (params, AoAs,
        Doppler, sampling, sinusoid count, length, seed).  The trial count is
        excluded: it selects how many traces exist, not their content, and is
        not part of the persisted trace header.
        """
        blob = struct.pack(
            "<8d2IQQ",
            *vars(self.params).values(),
            self.aoa1,
            self.aoa2,
            self.doppler_hz,
            self.sample_period_s,
            self.n_sinusoids,
            0,
            self.n_samples,
            self.seed,
        )
        return hashlib.sha256(blob).hexdigest()[:16]


def scenario_violations(cfg: ScenarioConfig) -> list[str]:
    """Return the complete list of constraint violations (empty if valid)."""
    errors = []
    for prefix, name in (("doppler", "doppler_hz"), ("sampling", "sample_period_s")):
        value = getattr(cfg, name)
        if not _is_real(value):
            errors.append(f"{prefix}: {name} must be a real number, got {value!r}")
        elif not (math.isfinite(value) and value > 0):
            errors.append(f"{prefix}: {name} must be > 0, got {value}")
    if not errors and cfg.doppler_hz * cfg.sample_period_s > 0.5:
        errors.append(
            "doppler_sampling: f_D*T_s = "
            f"{cfg.doppler_hz * cfg.sample_period_s:g} exceeds the 0.5 bound"
        )
    # Trace headers store the sinusoid count and the trial index as u32.
    # Counts and seed are integers, numpy's included (operator.index).
    counts = (
        ("n_sinusoids", 1, 2 ** 32, "must be >= 1 and < 2**32"),
        ("n_trials", 1, 2 ** 32, "must be >= 1 and < 2**32"),
        ("n_samples", 2, math.inf, "must be >= 2"),
        ("seed", 0, 2 ** 64, "must be an unsigned 64-bit integer"),
    )
    for name, low, high, rule in counts:
        value = getattr(cfg, name)
        try:
            operator.index(value)
        except TypeError:
            errors.append(f"{name}: must be an integer, got {value!r}")
            continue
        if not low <= value < high:
            errors.append(f"{name}: {rule}, got {value}")
    for name in ("aoa1", "aoa2"):
        value = getattr(cfg, name)
        if not _is_real(value):
            errors.append(f"{name}: must be a real number, got {value!r}")
        elif not math.isfinite(value):
            errors.append(f"{name}: must be finite, got {value}")
    return errors


def validate_scenario(cfg: ScenarioConfig) -> ValidatedScenario:
    """Normalize and validate a scenario.

    Raises :class:`InvalidScenarioError` carrying every violated constraint,
    in terms of the values given; otherwise returns the scenario with both
    angles wrapped.  This is the one place angles are wrapped: ``wrap_angle``
    can move an already wrapped angle by an ulp.
    """
    errors = scenario_violations(cfg)
    if errors:
        raise InvalidScenarioError(errors)
    wrapped = dict(vars(cfg), aoa1=wrap_angle(cfg.aoa1), aoa2=wrap_angle(cfg.aoa2))
    return ValidatedScenario(**wrapped)


def make_scenario(
    k: float = 0.0,
    gamma: float = 0.0,
    omega: float = DEFAULT_OMEGA,
    aoa1: float = DEFAULT_AOA1,
    aoa2: float = DEFAULT_AOA2,
    doppler_hz: float = DEFAULT_DOPPLER_HZ,
    fd_ts: float = DEFAULT_FD_TS,
    n_sinusoids: int = DEFAULT_N_SINUSOIDS,
    n_trials: int = DEFAULT_N_TRIALS,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = 0,
    params: ChannelParams | None = None,
) -> ScenarioConfig:
    """Convenience builder with the common experiment defaults.

    Channel parameters come from (k, gamma, omega) unless ``params`` is given
    explicitly.  The sample period derives from the normalized product
    ``fd_ts = f_D * T_s``, so ``doppler_hz`` must be positive.
    """
    _require_real(doppler_hz=doppler_hz, fd_ts=fd_ts)
    if doppler_hz <= 0:
        raise ParameterError(f"doppler_hz must be > 0, got {doppler_hz}")
    if params is None:
        params = from_k_gamma(k, gamma, omega)
    return ScenarioConfig(
        params=params,
        aoa1=aoa1,
        aoa2=aoa2,
        doppler_hz=doppler_hz,
        sample_period_s=fd_ts / doppler_hz,
        n_sinusoids=n_sinusoids,
        n_trials=n_trials,
        n_samples=n_samples,
        seed=seed,
    )

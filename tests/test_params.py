import math
from dataclasses import fields, replace

import numpy as np
import pytest

from twdpsim.params import (
    ChannelParams,
    InvalidScenarioError,
    ParameterError,
    ScenarioConfig,
    ValidatedScenario,
    from_k_gamma,
    make_scenario,
    phase_rate,
    scenario_violations,
    to_k_gamma,
    validate_scenario,
    wrap_angle,
)


class TestFromKGamma:
    def test_rayleigh(self):
        p = from_k_gamma(0.0, 0.0, 1.0)
        assert p.v1 == 0.0 and p.v2 == 0.0
        assert p.diffuse_power == 1.0

    def test_k10_gamma_half(self):
        p = from_k_gamma(10.0, 0.5, 1.0)
        assert abs(p.diffuse_power - 1.0 / 11.0) < 1e-15
        assert abs(p.v1 ** 2 - 8.0 / 11.0) < 1e-15
        assert abs(p.v2 ** 2 - 2.0 / 11.0) < 1e-15
        assert abs(p.v1 ** 2 + p.v2 ** 2 + p.diffuse_power - 1.0) < 1e-12

    def test_large_k_equal_tones(self):
        p = from_k_gamma(1e12, 1.0, 1.0)
        assert p.diffuse_power == pytest.approx(1.0 / (1.0 + 1e12), rel=1e-15)
        assert p.diffuse_power == pytest.approx(1e-12, rel=1e-11)
        assert abs(p.v1 ** 2 - 0.5) <= 1e-12
        assert abs(p.v2 ** 2 - 0.5) <= 1e-12

    @pytest.mark.parametrize(
        "k,gamma,omega",
        [(-1.0, 0.0, 1.0), (1.0, -0.1, 1.0), (1.0, 1.5, 1.0), (1.0, 0.5, 0.0),
         (1.0, 0.5, -2.0), (math.nan, 0.5, 1.0)],
    )
    def test_rejects_bad_inputs(self, k, gamma, omega):
        with pytest.raises(ParameterError):
            from_k_gamma(k, gamma, omega)


class TestToKGamma:
    def test_rayleigh(self):
        assert to_k_gamma(ChannelParams(0.0, 0.0, 1.0, 1.0)) == (0.0, 0.0)

    def test_round_trip_named(self):
        k, gamma = to_k_gamma(from_k_gamma(10.0, 0.5, 1.0))
        assert abs(k - 10.0) < 1e-12 * 10.0
        assert abs(gamma - 0.5) < 1e-12

    def test_direct_substitution(self):
        k, gamma = to_k_gamma(ChannelParams.from_components(1.0, 0.0, 0.2))
        assert abs(k - 5.0) < 1e-12 * 5.0
        assert gamma == 0.0

    def test_no_diffuse_gives_infinite_k(self):
        k, gamma = to_k_gamma(ChannelParams.from_components(1.0, 0.5, 0.0))
        assert math.isinf(k)
        assert gamma == 0.5

    def test_round_trip_property(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = 10.0 ** rng.uniform(-3, 3)
            gamma = rng.uniform(0.0, 1.0)
            omega = 10.0 ** rng.uniform(-2, 2)
            p = from_k_gamma(k, gamma, omega)
            k2, gamma2 = to_k_gamma(p)
            assert abs(k2 - k) <= 1e-12 * k
            assert abs(gamma2 - gamma) <= 1e-12 * max(gamma, 1.0)
            # powers non-negative and summing to omega
            assert p.v1 >= 0 and p.v2 >= 0 and p.diffuse_power >= 0
            assert abs(p.v1 ** 2 + p.v2 ** 2 + p.diffuse_power - omega) <= 1e-12 * omega


class TestChannelParamsInvariants:
    def test_rejects_reversed_ordering(self):
        with pytest.raises(ParameterError, match="ordering"):
            ChannelParams.from_components(0.5, 1.0, 0.1)

    def test_rejects_all_zero_power(self):
        with pytest.raises(ParameterError):
            ChannelParams.from_components(0.0, 0.0, 0.0)

    def test_rejects_inconsistent_omega(self):
        with pytest.raises(ParameterError, match="omega"):
            ChannelParams(1.0, 0.5, 0.25, 2.0)

    def test_rejects_lone_second_tone(self):
        with pytest.raises(ParameterError):
            ChannelParams.from_components(0.0, 1.0, 0.5)


class TestPhaseRate:
    def test_perpendicular_arrival(self):
        assert phase_rate(math.pi / 2, 1000.0) == pytest.approx(0.0, abs=1e-9)

    def test_head_on_arrival(self):
        assert phase_rate(0.0, 1000.0) == -2000.0 * math.pi

    def test_oblique_arrival(self):
        want = -2.0 * math.pi * 1000.0 * math.cos(math.pi / 4)
        got = phase_rate(math.pi / 4, 1000.0)
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(-4442.882938158366, rel=1e-12)

    def test_even_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            aoa = rng.uniform(-np.pi, np.pi)
            fd = 10.0 ** rng.uniform(0, 4)
            assert phase_rate(aoa, fd) == phase_rate(-aoa, fd)
            assert abs(phase_rate(aoa, fd)) <= 2 * math.pi * fd + 1e-9

    def test_requires_positive_doppler(self):
        with pytest.raises(ParameterError):
            phase_rate(0.0, 0.0)


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        scn = validate_scenario(make_scenario(k=10.0, gamma=0.5))
        assert scn.n_sinusoids == 8
        assert scn.n_trials == 500
        assert scn.fd_ts == pytest.approx(0.01)
        assert scn.doppler_hz == 1000.0

    def test_phase_rates_attached(self):
        scn = validate_scenario(make_scenario(k=10.0, gamma=0.5))
        assert scn.rates == (phase_rate(scn.aoa1, 1000.0), phase_rate(scn.aoa2, 1000.0))
        assert scn.params.v1 == from_k_gamma(10.0, 0.5).v1

    def test_declares_no_fields_of_its_own(self):
        assert fields(ValidatedScenario) == fields(ScenarioConfig)
        assert issubclass(ValidatedScenario, ScenarioConfig)

    def test_replace_cannot_make_an_invalid_scenario(self):
        scn = validate_scenario(make_scenario(k=10.0, gamma=0.5))
        with pytest.raises(InvalidScenarioError, match="n_trials"):
            replace(scn, n_trials=0)
        with pytest.raises(InvalidScenarioError, match="doppler_sampling"):
            replace(scn, sample_period_s=1.0)

    def test_angles_wrapped_once(self):
        cfg = make_scenario(aoa1=0.1, aoa2=7.0)
        scn = validate_scenario(cfg)
        assert (scn.aoa1, scn.aoa2) == (wrap_angle(0.1), wrap_angle(7.0))
        assert replace(scn, seed=5).aoa1 == scn.aoa1

    def test_sampling_violation(self):
        cfg = make_scenario(fd_ts=0.6)
        errors = scenario_violations(cfg)
        assert any(e.startswith("doppler_sampling") for e in errors)
        with pytest.raises(InvalidScenarioError):
            validate_scenario(cfg)

    @pytest.mark.parametrize("doppler_hz", [0.0, -5.0])
    def test_make_scenario_requires_positive_doppler(self, doppler_hz):
        message = f"^doppler_hz must be > 0, got {doppler_hz}$"
        with pytest.raises(ParameterError, match=message):
            make_scenario(doppler_hz=doppler_hz)

    def test_zero_trials(self):
        with pytest.raises(InvalidScenarioError, match="n_trials"):
            validate_scenario(make_scenario(n_trials=0))

    @pytest.mark.parametrize("field", ["n_sinusoids", "n_trials"])
    def test_counts_fit_the_u32_header_fields(self, field):
        # validated only: a scenario this large is never generated
        assert scenario_violations(make_scenario(**{field: 2 ** 32 - 1})) == []
        with pytest.raises(InvalidScenarioError, match=f"{field}: .*2\\*\\*32"):
            validate_scenario(make_scenario(**{field: 2 ** 32}))

    def test_collects_every_violation(self):
        cfg = make_scenario(fd_ts=0.7, n_trials=0, n_samples=1, n_sinusoids=0)
        try:
            validate_scenario(cfg)
        except InvalidScenarioError as exc:
            prefixes = {e.split(":")[0] for e in exc.errors}
            assert {"doppler_sampling", "n_trials", "n_samples", "n_sinusoids"} <= prefixes
        else:
            pytest.fail("expected InvalidScenarioError")

    def test_angles_wrapped(self):
        scn = validate_scenario(make_scenario(aoa1=3 * math.pi, aoa2=-math.pi))
        assert -math.pi <= scn.aoa1 < math.pi
        assert -math.pi <= scn.aoa2 < math.pi
        assert scn.aoa1 == pytest.approx(-math.pi)

    def test_digest_ignores_trial_count_only(self):
        base = validate_scenario(make_scenario(k=1.0, n_trials=500))
        same = validate_scenario(make_scenario(k=1.0, n_trials=7))
        other = validate_scenario(make_scenario(k=1.0, n_trials=500, seed=1))
        assert base.digest() == same.digest()
        assert base.digest() != other.digest()


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert abs(math.sin(w - a)) < 1e-12

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

    @pytest.mark.parametrize(
        "args,field", [(("x", 0.0), "k"), ((1.0, "x"), "gamma")], ids=["k-str", "gamma-str"]
    )
    def test_rejects_a_shape_parameter_that_is_not_a_real_number(self, args, field):
        with pytest.raises(ParameterError, match=f"^{field} must be a real number, got 'x'$"):
            from_k_gamma(*args)


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

    @pytest.mark.parametrize(
        "fields,field",
        [(("x", 0.0, 1.0, 1.0), "v1"), ((1.0, 0.0, None, 2.0), "diffuse_power")],
        ids=["v1-str", "diffuse-none"],
    )
    def test_rejects_a_field_that_is_not_a_real_number(self, fields, field):
        with pytest.raises(ParameterError, match=f"{field} must be a real number"):
            ChannelParams(*fields)

    def test_from_components_rejects_a_component_that_is_not_a_real_number(self):
        with pytest.raises(ParameterError, match="^v1 must be a real number, got 'x'$"):
            ChannelParams.from_components("x", 0.0, 1.0)

    def test_numpy_scalar_fields_accepted(self):
        p = ChannelParams(np.float32(1.0), np.int64(0), np.float64(1.0), 2.0)
        assert to_k_gamma(p) == (1.0, 0.0)


class TestNormalizedPhasors:
    def test_members_are_z_normalized_by_omega(self):
        p = ChannelParams.from_components(1.2, 0.6, 0.5)
        root = math.sqrt(p.omega)
        assert p.omega == 1.2 ** 2 + 0.6 ** 2 + 0.5
        assert p.tone_amplitudes == (1.2 / root, 0.6 / root)
        assert p.power_fractions == (1.2 ** 2 / p.omega, 0.6 ** 2 / p.omega, 0.5 / p.omega)
        assert p.path_amplitude(8) == math.sqrt(0.5 / 8) / root
        assert p.envelope_bound(8) == (1.2 + 0.6 + math.sqrt(0.5 * 8)) / root

    @pytest.mark.parametrize("omega", [1.0, 2.3, 1e-3])
    def test_unit_power_and_bound_at_any_omega(self, omega):
        p = from_k_gamma(10.0, 0.5, omega)
        assert sum(p.power_fractions) == pytest.approx(1.0, rel=1e-15)
        amps = [*p.tone_amplitudes] + [p.path_amplitude(8)] * 8
        assert p.envelope_bound(8) == pytest.approx(sum(amps), rel=1e-15)

    def test_reading_them_leaves_the_digest_fields(self):
        # The scenario digest packs vars(params): the four fields, nothing cached.
        p = from_k_gamma(10.0, 0.5, 2.3)
        p.tone_amplitudes, p.power_fractions, p.path_amplitude(8), p.envelope_bound(8)
        assert list(vars(p)) == ["v1", "v2", "diffuse_power", "omega"]


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

    def test_rejects_a_doppler_that_is_not_a_real_number(self):
        with pytest.raises(ParameterError, match="^doppler_hz must be a real number, got 'x'$"):
            phase_rate(0.1, "x")


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

    @pytest.mark.parametrize("doppler_hz", [0.0, -5.0, math.inf, math.nan])
    def test_make_scenario_requires_positive_doppler(self, doppler_hz):
        message = f"^doppler_hz must be > 0, got {doppler_hz}$"
        with pytest.raises(ParameterError, match=message):
            make_scenario(doppler_hz=doppler_hz)

    @pytest.mark.parametrize(
        "field,value", [("doppler_hz", "1000"), ("fd_ts", "0.01")], ids=["doppler-str", "fd-ts-str"]
    )
    def test_make_scenario_rejects_a_rate_that_is_not_a_real_number(self, field, value):
        message = f"^{field} must be a real number, got {value!r}$"
        with pytest.raises(ParameterError, match=message):
            make_scenario(**{field: value})

    def test_zero_trials(self):
        with pytest.raises(InvalidScenarioError, match="n_trials"):
            validate_scenario(make_scenario(n_trials=0))

    @pytest.mark.parametrize("field", ["n_sinusoids", "n_trials"])
    def test_counts_fit_the_u32_header_fields(self, field):
        # validated only: a scenario this large is never generated
        assert scenario_violations(make_scenario(**{field: 2 ** 32 - 1})) == []
        with pytest.raises(InvalidScenarioError, match=f"{field}: .*2\\*\\*32"):
            validate_scenario(make_scenario(**{field: 2 ** 32}))

    @pytest.mark.parametrize(
        "field,value",
        [("n_sinusoids", 8.0), ("n_trials", 3.5), ("n_samples", 300.0), ("seed", 1.5),
         ("seed", "1")],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        cfg = make_scenario(**{field: value})
        assert scenario_violations(cfg) == [f"{field}: must be an integer, got {value!r}"]
        with pytest.raises(InvalidScenarioError, match=f"{field}: must be an integer"):
            validate_scenario(cfg)

    @pytest.mark.parametrize(
        "field,value,message",
        [("aoa1", "x", "aoa1: must be"),
         ("aoa2", None, "aoa2: must be"),
         ("aoa1", 1 + 0j, "aoa1: must be"),
         ("aoa2", np.complex128(0.5), "aoa2: must be"),
         ("doppler_hz", "1000", "doppler: doppler_hz must be"),
         ("sample_period_s", "1e-5", "sampling: sample_period_s must be")],
        ids=["aoa1-str", "aoa2-none", "aoa1-complex", "aoa2-numpy-complex", "doppler-str",
             "sampling-str"],
    )
    def test_fields_must_be_real_numbers(self, field, value, message):
        # Listed, not raised: scenario_violations gives the complete list.
        cfg = replace(make_scenario(), **{field: value})
        assert scenario_violations(cfg) == [f"{message} a real number, got {value!r}"]
        with pytest.raises(InvalidScenarioError, match="must be a real number"):
            validate_scenario(cfg)

    def test_numpy_real_fields_accepted(self):
        fields = dict(aoa1=np.float32(0.5), aoa2=np.int64(2), doppler_hz=np.float64(1000.0))
        cfg = replace(make_scenario(), sample_period_s=np.float64(1e-5), **fields)
        assert scenario_violations(cfg) == []

    def test_numpy_integer_counts_and_seed_accepted(self):
        counts = dict(n_sinusoids=np.int64(8), n_trials=np.uint32(3), n_samples=np.int16(300))
        scn = validate_scenario(make_scenario(seed=np.uint64(2 ** 64 - 1), **counts))
        assert scn.digest() == validate_scenario(
            make_scenario(seed=2 ** 64 - 1, n_sinusoids=8, n_trials=3, n_samples=300)
        ).digest()

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

import math
import sys
import threading

import numpy as np
import pytest

from twdpsim.params import ChannelParams, make_scenario, validate_scenario
from twdpsim.sos import (
    BLOCK,
    TRIAL_BLOCK,
    DiffuseRealization,
    LazyEnsemble,
    TraceEnsemble,
    diffuse_sample,
    draw_trial_randoms,
    envelope_bound,
    generate_ensemble,
    generate_trace,
    specular_tone,
)


def small_scenario(**kw):
    defaults = dict(k=10.0, gamma=0.5, n_trials=20, n_samples=401, seed=42)
    defaults.update(kw)
    return validate_scenario(make_scenario(**defaults))


def direct_trace(scn, trial_index):
    """The generator's definition evaluated term by term, sample by sample."""
    t = np.arange(scn.n_samples) * scn.sample_period_s
    phi1, phi2, real = draw_trial_randoms(scn.seed, trial_index, scn.n_sinusoids)
    p = scn.params
    rate1, rate2 = scn.rates
    return (
        specular_tone(p.v1, phi1, rate1, t)
        + specular_tone(p.v2, phi2, rate2, t)
        + diffuse_sample(real, p.diffuse_power, scn.doppler_hz, t)
    ) / math.sqrt(p.omega)


# Trial 3 of the k=10, gamma=0.5 scenario at seed 20240811, 6001 samples:
# (sample index, real, imag).  Indices straddle the first block boundary.
GOLDEN_SAMPLES = (
    (0, -0.41135298864273306, -0.9154280750794996),
    (1, -0.444090530890679, -0.9297113215748415),
    (63, 0.037911803824021484, 0.4137844602658468),
    (64, 0.08121578183613155, 0.42514623946183183),
    (65, 0.12468605602206471, 0.43469500632499614),
    (1000, -0.40546148017158207, -0.7111723807716688),
    (4097, 0.6673598691417169, -1.2471529957695169),
    (6000, -0.449286666228351, 0.9882892588085427),
)


def three_call_randoms(seed, trial_index, n_sinusoids):
    """The draw as three uniform calls on a fresh Generator(Philox(key))."""
    key = np.array([seed, trial_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    phi1, phi2 = rng.uniform(-np.pi, np.pi, size=2)
    thetas = rng.uniform(-np.pi, np.pi, size=n_sinusoids)
    init_phases = rng.uniform(-np.pi, np.pi, size=n_sinusoids)
    return phi1, phi2, thetas, init_phases


def assert_draw_is(got, want):
    phi1, phi2, real = got
    assert (phi1, phi2) == want[:2]
    assert real.thetas.tobytes() == want[2].tobytes()
    assert real.init_phases.tobytes() == want[3].tobytes()


class TestDrawTrialRandoms:
    @pytest.mark.parametrize("n_sinusoids", [1, 8, 64])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_equals_three_calls_on_a_fresh_philox(self, seed, n_sinusoids):
        for trial in (0, 1, 5, 2**64 - 1):
            assert_draw_is(
                draw_trial_randoms(seed, trial, n_sinusoids),
                three_call_randoms(seed, trial, n_sinusoids),
            )

    def test_equals_three_calls_when_threads_interleave(self):
        # Two threads draw alternately under a short switch interval; each
        # thread's generator is reset per draw, so no draw sees another's.
        cases = [
            (seed, trial, n)
            for seed in (0, 7, 2**64 - 1)
            for trial in range(40)
            for n in (1, 8, 64)
        ]
        want = {case: three_call_randoms(*case) for case in cases}
        got = [{}, {}]
        barrier = threading.Barrier(2, timeout=30)

        def draw(out, order):
            barrier.wait()
            for case in order:
                out[case] = draw_trial_randoms(*case)

        threads = [
            threading.Thread(target=draw, args=(got[0], cases)),
            threading.Thread(target=draw, args=(got[1], cases[::-1])),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in got:
            assert len(out) == len(cases)
            for case in cases:
                assert_draw_is(out[case], want[case])

    def test_deterministic(self):
        a = draw_trial_randoms(1234, 17, 8)
        b = draw_trial_randoms(1234, 17, 8)
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2].thetas, b[2].thetas)
        assert np.array_equal(a[2].init_phases, b[2].init_phases)
        assert np.array_equal(a[2].aoas, b[2].aoas)

    def test_trials_differ(self):
        a = draw_trial_randoms(1234, 0, 8)
        b = draw_trial_randoms(1234, 1, 8)
        angles_a = np.concatenate(([a[0], a[1]], a[2].thetas, a[2].init_phases))
        angles_b = np.concatenate(([b[0], b[1]], b[2].thetas, b[2].init_phases))
        assert np.all(angles_a != angles_b)

    def test_angles_in_range(self):
        phi1, phi2, real = draw_trial_randoms(7, 3, 64)
        for values in (np.array([phi1, phi2]), real.thetas, real.init_phases, real.aoas):
            assert np.all(values >= -np.pi) and np.all(values < np.pi)

    def test_aoa_construction(self):
        _, _, real = draw_trial_randoms(7, 3, 8)
        i = np.arange(1, 9)
        raw = (2 * np.pi * i + real.thetas) / 8
        wrapped = (raw + np.pi) % (2 * np.pi) - np.pi
        assert np.allclose(real.aoas, wrapped, atol=0, rtol=0)

    def test_specular_phase_mean(self):
        # uniform on [-pi, pi): mean 0, std pi/sqrt(3)
        n = 100_000
        phis = np.array([draw_trial_randoms(99, t, 1)[0] for t in range(n)])
        tol = 3.0 * (np.pi / math.sqrt(3.0)) / math.sqrt(n)
        assert abs(phis.mean()) < tol


class TestSpecularTone:
    def test_zero_amplitude(self):
        t = np.arange(10) * 1e-5
        assert np.all(specular_tone(0.0, 1.0, -100.0, t) == 0)

    def test_zero_rate_is_constant(self):
        t = np.arange(10) * 1e-5
        tone = specular_tone(2.0, 0.7, 0.0, t)
        assert np.allclose(tone, 2.0 * np.exp(1j * 0.7), rtol=0, atol=0)

    def test_scalar_evaluation(self):
        rate = -2.0 * math.pi * 1000.0 * math.cos(math.pi / 4)
        t = np.arange(101) * 1e-5
        tone = specular_tone(1.0, 0.0, rate, t)
        assert tone[100] == pytest.approx(np.exp(1j * rate * 1e-3), abs=1e-12)

    def test_constant_magnitude(self):
        t = np.arange(1000) * 1e-5
        tone = specular_tone(1.7, 0.3, -4000.0, t)
        assert np.allclose(np.abs(tone), 1.7, atol=1e-12)


class TestDiffuseSample:
    def test_zero_power(self):
        _, _, real = draw_trial_randoms(1, 0, 8)
        assert diffuse_sample(real, 0.0, 1000.0, 0.123) == 0.0

    def test_coherent_sum(self):
        n = 8
        thetas = np.zeros(n)
        i = np.arange(1, n + 1)
        aoas = (2 * np.pi * i + thetas) / n
        aoas = (aoas + np.pi) % (2 * np.pi) - np.pi
        real = DiffuseRealization(n, thetas, np.zeros(n), aoas)
        got = diffuse_sample(real, 0.5, 1000.0, 0.0)
        assert got == pytest.approx(math.sqrt(0.5 * n), abs=1e-12)

    def test_magnitude_bound(self):
        _, _, real = draw_trial_randoms(3, 5, 16)
        t = np.linspace(0, 0.01, 200)
        vals = diffuse_sample(real, 2.0, 1000.0, t)
        assert np.all(np.abs(vals) <= math.sqrt(2.0 * 16) + 1e-12)

    def test_zero_mean(self):
        n_draws = 100_000
        acc = 0.0 + 0.0j
        for trial in range(n_draws):
            _, _, real = draw_trial_randoms(2024, trial, 4)
            acc += diffuse_sample(real, 1.0, 1000.0, 0.37e-3)
        mean = acc / n_draws
        tol = 3.0 * 1.0 / math.sqrt(n_draws)  # 3*sqrt(2 sigma^2)/sqrt(n) per part
        assert abs(mean.real) < tol and abs(mean.imag) < tol


class TestGenerateTrace:
    def test_two_tone_envelope_bounds(self):
        params = ChannelParams.from_components(0.8, 0.6, 0.0)
        scn = validate_scenario(
            make_scenario(params=params, n_trials=4, n_samples=2000, seed=5)
        )
        for trial in range(4):
            env = np.abs(generate_trace(scn, trial).samples) * math.sqrt(params.omega)
            assert np.all(env <= 0.8 + 0.6 + 1e-12)
            assert np.all(env >= 0.8 - 0.6 - 1e-12)

    def test_deterministic_per_trial(self):
        scn = small_scenario()
        a = generate_trace(scn, 3)
        b = generate_trace(scn, 3)
        assert np.array_equal(a.samples, b.samples)
        assert a.scenario_digest == b.scenario_digest == scn.digest()

    @pytest.mark.parametrize("n_samples", [2, BLOCK - 1, BLOCK, BLOCK + 1, 6001, 40000])
    def test_block_synthesis_matches_definition(self, n_samples):
        scn = small_scenario(k=10.0, gamma=1.0, n_samples=n_samples)
        for trial in (0, 5):
            got = generate_trace(scn, trial).samples
            assert got.shape == (n_samples,)
            assert np.abs(got - direct_trace(scn, trial)).max() <= 1e-12

    def test_block_synthesis_matches_definition_at_fd_ts_bound(self):
        # Both evaluations round phases of up to 2*pi*f_D*t radians, so the
        # agreement scales with that phase rather than sitting at 1e-12.
        scn = small_scenario(k=0.0, gamma=0.0, n_sinusoids=64, fd_ts=0.5, n_samples=3001)
        max_phase = 2 * math.pi * scn.fd_ts * (scn.n_samples - 1)
        got = generate_trace(scn, 2).samples
        assert np.abs(got - direct_trace(scn, 2)).max() <= 10 * np.finfo(float).eps * max_phase

    def test_golden_samples(self):
        scn = validate_scenario(
            make_scenario(k=10.0, gamma=0.5, n_trials=8, n_samples=6001, seed=20240811)
        )
        z = generate_trace(scn, 3).samples
        for idx, re, im in GOLDEN_SAMPLES:
            assert abs(z[idx] - complex(re, im)) <= 1e-12, idx

    def test_trace_metadata(self):
        scn = small_scenario()
        tr = generate_trace(scn, 9)
        assert tr.trial_index == 9
        assert tr.seed == scn.seed
        assert tr.samples.size == scn.n_samples
        assert np.all(np.isfinite(tr.samples.view(float)))


# n_samples not a multiple of BLOCK, strides below, at and above BLOCK, and
# strides at and past n_samples, where one pick lies in the first head row,
# up to strides past the int64 range.
@pytest.mark.parametrize(
    "n_samples, stride",
    [
        (1001, 2),
        (1001, 63),
        (1001, 64),
        (1001, 65),
        (1001, 200),
        (1001, 1000),
        (1001, 1001),
        (1001, 5000),
        (1001, 2 ** 63),
        (1001, 2 ** 64),
        (65, 63),
        (65, 64),
        (65, 2 ** 63),
        (130, 200),
        (40, 3),
        (40, 40),
        (40, 2 ** 64),
    ],
)
def test_strided_trace_is_every_stride_th_sample(n_samples, stride):
    scn = small_scenario(n_samples=n_samples)
    for trial in range(6):
        full = generate_trace(scn, trial)
        picks = generate_trace(scn, trial, stride)
        assert picks.samples.tobytes() == full.samples[::stride].tobytes()
        assert picks.stride == stride and picks.trial_index == trial
        assert picks.sample_period_s == stride * full.sample_period_s


def test_trial_index_is_an_integer_in_the_header_range():
    scn = small_scenario(n_trials=2, n_samples=100)
    with pytest.raises(TypeError):
        generate_trace(scn, 1.5)
    for trial_index in (-1, 2 ** 32):
        with pytest.raises(ValueError, match="trial_index must be >= 0 and < 2\\*\\*32"):
            generate_trace(scn, trial_index)
    last = generate_trace(scn, np.uint32(2 ** 32 - 1))
    assert last.trial_index == 2 ** 32 - 1 and type(last.trial_index) is int


@pytest.mark.parametrize("stride", [0, -3])
def test_stride_must_be_positive(stride):
    scn = small_scenario(n_trials=2, n_samples=100)
    with pytest.raises(ValueError, match="stride must be a positive integer"):
        generate_trace(scn, 0, stride)
    with pytest.raises(ValueError, match="stride must be a positive integer"):
        generate_ensemble(scn, stride=stride)
    for ens in (LazyEnsemble(scn), generate_ensemble(scn)):
        with pytest.raises(ValueError, match="stride must be a positive integer"):
            next(ens.blocks(stride))
    with pytest.raises(TypeError):
        generate_trace(scn, 0, 2.0)


class TestGenerateEnsemble:
    def test_singleton_matches_single_trace(self):
        scn = small_scenario(n_trials=1)
        ens = generate_ensemble(scn)
        assert ens.n_trials == 1
        assert np.array_equal(ens.traces[0].samples, generate_trace(scn, 0).samples)

    def test_rows_bit_identical_to_single_traces(self):
        scn = small_scenario(n_trials=7, n_samples=1000)
        ens = generate_ensemble(scn)
        assert ens.sample_matrix.shape == (7, 1000)
        for i in range(7):
            assert np.array_equal(ens.sample_matrix[i], generate_trace(scn, i).samples)

    def test_traces_are_row_views(self):
        ens = generate_ensemble(small_scenario(n_trials=3))
        for i, tr in enumerate(ens.traces):
            assert np.shares_memory(tr.samples, ens.sample_matrix)
            assert np.array_equal(tr.samples, ens.sample_matrix[i])
            assert tr.sample_period_s == ens.scenario.sample_period_s

    def test_bit_identical_reruns(self):
        scn = small_scenario()
        a = generate_ensemble(scn)
        b = generate_ensemble(scn)
        assert np.array_equal(a.sample_matrix, b.sample_matrix)

    def test_trial_indices_contiguous(self):
        ens = generate_ensemble(small_scenario(n_trials=7))
        assert [t.trial_index for t in ens.traces] == list(range(7))
        digests = {t.scenario_digest for t in ens.traces}
        assert len(digests) == 1

    def test_trial_range_is_those_trials_only(self):
        scn = small_scenario(n_trials=9, n_samples=300)
        ens = generate_ensemble(scn, range(3, 8))
        assert ens.sample_matrix.shape == (5, 300) and ens.first_trial == 3
        assert [t.trial_index for t in ens.traces] == [3, 4, 5, 6, 7]
        for tr in ens.traces:
            assert np.array_equal(tr.samples, generate_trace(scn, tr.trial_index).samples)
        assert generate_ensemble(scn, range(9, 9)).sample_matrix.shape == (0, 300)

    @pytest.mark.parametrize(
        "trials", [range(0, 10), range(0, 9, 2), range(-1, 3), range(5, 3), [0, 1]]
    )
    def test_trial_range_outside_the_scenario_rejected(self, trials):
        with pytest.raises(ValueError, match=r"step-1 range inside range\(9\)"):
            generate_ensemble(small_scenario(n_trials=9, n_samples=300), trials)

    def test_power_normalization_m500(self):
        scn = validate_scenario(
            make_scenario(k=10.0, gamma=0.5, n_trials=500, n_samples=2001, seed=31)
        )
        ens = generate_ensemble(scn)
        power = np.mean(np.abs(ens.sample_matrix) ** 2)
        assert abs(power - 1.0) < 0.02

    def test_quadrature_symmetry_m500(self):
        scn = validate_scenario(
            make_scenario(k=10.0, gamma=0.5, n_trials=500, n_samples=2001, seed=77)
        )
        z = generate_ensemble(scn).sample_matrix
        assert abs(z.real.var() - 0.5) < 0.02
        assert abs(z.imag.var() - 0.5) < 0.02

    def test_envelope_bound_random_scenarios(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            scn = validate_scenario(
                make_scenario(
                    k=10.0 ** rng.uniform(-1, 2),
                    gamma=rng.uniform(0, 1),
                    n_trials=3,
                    n_samples=500,
                    seed=int(rng.integers(2 ** 32)),
                )
            )
            env = np.abs(generate_ensemble(scn).sample_matrix)
            assert np.all(env <= envelope_bound(scn) + 1e-12)

    def test_power_deviation_shrinks_with_trials(self):
        # average |E|z|^2 - 1| over 10 seed groups at M=500 vs M=2000
        devs = {500: [], 2000: []}
        for group in range(10):
            for m in (500, 2000):
                scn = validate_scenario(
                    make_scenario(
                        k=10.0, gamma=0.5, n_trials=m, n_samples=201, seed=1000 + group
                    )
                )
                power = np.mean(np.abs(generate_ensemble(scn).sample_matrix) ** 2)
                devs[m].append(abs(power - 1.0))
        assert np.mean(devs[2000]) < np.mean(devs[500])


class TestEnsembleBlocks:
    @pytest.mark.parametrize("n_trials", [1, TRIAL_BLOCK, 16, 37])
    def test_lazy_blocks_equal_in_memory_blocks(self, n_trials):
        scn = small_scenario(n_trials=n_trials, n_samples=300)
        lazy = list(LazyEnsemble(scn).blocks())
        held = list(generate_ensemble(scn).blocks())
        assert [rows for rows, _ in lazy] == [rows for rows, _ in held]
        assert [rows.stop - rows.start for rows, _ in held] == [
            min(TRIAL_BLOCK, n_trials - first) for first in range(0, n_trials, TRIAL_BLOCK)
        ]
        for (_, a), (_, b) in zip(lazy, held):
            assert np.array_equal(a, b)
        assert LazyEnsemble(scn).n_trials == n_trials

    @pytest.mark.parametrize("n_trials", [1, 37])
    @pytest.mark.parametrize("stride", [2, 65, 200, 301, 2 ** 64])
    def test_lazy_strided_blocks_equal_in_memory_strided_blocks(self, n_trials, stride):
        scn = small_scenario(n_trials=n_trials, n_samples=301)
        held = generate_ensemble(scn)
        lazy = list(LazyEnsemble(scn).blocks(stride))
        assert [rows for rows, _ in lazy] == [rows for rows, _ in held.blocks(stride)]
        for (rows, a), (_, b) in zip(lazy, held.blocks(stride)):
            assert np.shares_memory(b, held.sample_matrix)
            assert a.tobytes() == b.tobytes() == held.sample_matrix[rows, ::stride].tobytes()

    def test_strided_ensemble_holds_picks(self):
        scn = small_scenario(n_trials=9, n_samples=301)
        picks = generate_ensemble(scn, range(2, 7), 10)
        assert isinstance(picks, TraceEnsemble) and picks.stride == 10
        assert picks.sample_matrix.shape == (5, 31)
        for tr in picks.traces:
            assert tr.stride == 10
            assert np.array_equal(tr.samples, generate_trace(scn, tr.trial_index).samples[::10])
        # Estimators read traces, so a strided ensemble's blocks are refused.
        with pytest.raises(ValueError, match="holds picks, not traces"):
            next(picks.blocks())

    def test_in_memory_blocks_are_row_views(self):
        ens = generate_ensemble(small_scenario(n_trials=20, n_samples=100))
        for rows, block in ens.blocks():
            assert np.shares_memory(block, ens.sample_matrix)
            assert np.array_equal(block, ens.sample_matrix[rows])

import math

import numpy as np
import pytest
from helpers import synthetic_ensemble

from twdpsim import estimators
from twdpsim.estimators import (
    ESTIMATOR_KINDS,
    LagError,
    default_anchors,
    ensemble_correlation,
    ensemble_mean,
    envelope_pdf,
    envelope_picks,
    level_crossing_rate,
    per_trial_correlation,
    per_trial_correlations,
    per_trial_crossing_rates,
)
from twdpsim.params import ChannelParams, make_scenario, validate_scenario
from twdpsim.sos import generate_ensemble
from twdpsim.theory import (
    LagGrid,
    envelope_cdf_reference,
    rayleigh_lcr_oracle,
    ref_acf_quadrature,
    sim_acf_quadrature,
)


def synth_scenario(n_trials, n_samples, **kw):
    defaults = dict(k=1.0, gamma=0.5, n_trials=n_trials, n_samples=n_samples, seed=3)
    defaults.update(kw)
    return validate_scenario(make_scenario(**defaults))


def small_grid(scn, n_lags=51):
    return LagGrid.from_sample_lags(n_lags, scn.sample_period_s, scn.doppler_hz)


class TestEnsembleCorrelationSynthetic:
    def test_constant_ensemble_rzz_is_one(self):
        scn = synth_scenario(4, 300)
        ens = synthetic_ensemble(np.ones((4, 300), dtype=complex), scn)
        grid = small_grid(scn)
        for kind in ("rzz_re", "rxx", "rsq"):
            series = ensemble_correlation(ens, kind, grid)
            assert np.allclose(series.values, 1.0, rtol=0, atol=1e-12)
        series = ensemble_correlation(ens, "rzz_im", grid)
        assert np.allclose(series.values, 0.0, rtol=0, atol=1e-12)

    def test_all_zero_traces(self):
        scn = synth_scenario(3, 200)
        ens = synthetic_ensemble(np.zeros((3, 200), dtype=complex), scn)
        series = ensemble_correlation(ens, "rzz_re", small_grid(scn))
        assert np.all(series.values == 0.0)
        assert ensemble_mean(ens) == 0.0

    def test_off_grid_lag_rejected(self):
        scn = synth_scenario(2, 200)
        ens = synthetic_ensemble(np.ones((2, 200), dtype=complex), scn)
        bad = LagGrid(np.array([0.0, 1.5 * scn.sample_period_s]), scn.doppler_hz)
        with pytest.raises(LagError, match="multiples"):
            ensemble_correlation(ens, "rxx", bad)

    def test_overlong_lag_rejected(self):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        long_grid = LagGrid.from_sample_lags(150, scn.sample_period_s, scn.doppler_hz)
        with pytest.raises(LagError):
            ensemble_correlation(ens, "rxx", long_grid)

    def test_unknown_kind_rejected(self):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        with pytest.raises(ValueError):
            ensemble_correlation(ens, "bogus", small_grid(scn, 11))

    def test_anchor_window_exclusion(self):
        anchors = default_anchors(n_samples=200, max_lag=50)
        assert anchors[0] == 0
        assert anchors[-1] <= 200 - 1 - 50
        assert np.all(np.diff(anchors) == 10)
        with pytest.raises(LagError):
            default_anchors(n_samples=100, max_lag=100)


# Each kind's lag product z-components (a, b), summed as a[t] * b[t+l].
_DEFINITIONS = {
    "rxx": lambda z: (z.real, z.real),
    "ryy": lambda z: (z.imag, z.imag),
    "rxy": lambda z: (z.real, z.imag),
    "ryx": lambda z: (z.imag, z.real),
    "rzz": lambda z: (z, z.conj()),
    "rzz_re": lambda z: (z, z.conj()),
    "rzz_im": lambda z: (z, z.conj()),
    "rsq": lambda z: (np.abs(z) ** 2, np.abs(z) ** 2),
}


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_per_trial_correlation_matches_definition(kind):
    scn = synth_scenario(3, 200)
    rng = np.random.default_rng(17)
    z = rng.standard_normal((3, 200)) + 1j * rng.standard_normal((3, 200))
    grid = small_grid(scn, 31)
    anchors = np.array([0, 3, 4, 50, 101, 168])
    got = per_trial_correlation(synthetic_ensemble(z, scn), kind, grid, anchors)
    a, b = _DEFINITIONS[kind](z)
    want = np.array(
        [[sum(a[m, t] * b[m, t + lag] for t in anchors) / anchors.size for lag in range(31)]
         for m in range(3)]
    )
    if kind == "rzz_re":
        want = want.real
    elif kind == "rzz_im":
        want = want.imag
    assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
    assert np.abs(got - want).max() <= 1e-12


def test_per_trial_correlations_bundle_is_bit_identical(monkeypatch):
    # Every kind of one bundle call equals its own per-kind call bit for bit,
    # and the bundle runs one FFT correlation per distinct sequence pair.
    scn = synth_scenario(5, 300)
    rng = np.random.default_rng(23)
    z = rng.standard_normal((5, 300)) + 1j * rng.standard_normal((5, 300))
    ens = synthetic_ensemble(z, scn)
    grid = small_grid(scn, 41)
    single = {kind: per_trial_correlation(ens, kind, grid) for kind in ESTIMATOR_KINDS}
    calls = []
    original = estimators._masked_crosscorr
    monkeypatch.setattr(
        estimators, "_masked_crosscorr", lambda *a: calls.append(a[1:3]) or original(*a)
    )
    bundle = per_trial_correlations(ens, ESTIMATOR_KINDS, grid)
    assert list(bundle) == list(ESTIMATOR_KINDS)
    for kind in ESTIMATOR_KINDS:
        assert bundle[kind].dtype == single[kind].dtype
        assert bundle[kind].tobytes() == single[kind].tobytes()
    assert len(calls) == len(ESTIMATOR_KINDS) - 2  # rzz, rzz_re, rzz_im share (z, z)
    with pytest.raises(ValueError, match="bogus"):
        per_trial_correlations(ens, ("rxx", "bogus"), grid)


class TestEnsembleCorrelationStatistical:
    def test_single_tone_cosine(self):
        params = ChannelParams.from_components(1.0, 0.0, 0.0)
        scn = validate_scenario(
            make_scenario(params=params, n_trials=500, n_samples=1501, seed=8)
        )
        ens = generate_ensemble(scn)
        grid = LagGrid.from_sample_lags(1001, scn.sample_period_s, scn.doppler_hz)
        series = ensemble_correlation(ens, "rxx", grid)
        want = 0.5 * np.cos(scn.rates[0] * grid.lags_s)
        assert np.abs(series.values - want).max() <= 0.03

    def test_default_scenario_matches_formula(self, corr_ensembles_m500, corr_grid):
        ens = corr_ensembles_m500[(10.0, 0.5)]
        scn = ens.scenario
        series = ensemble_correlation(ens, "rxx", corr_grid)
        oracle = sim_acf_quadrature(scn.params, scn.rates, scn.doppler_hz, corr_grid)
        assert np.abs(series.values - oracle.values).max() <= 0.05

    def test_xy_antisymmetry(self, corr_ensembles_m500, corr_grid):
        ens = corr_ensembles_m500[(10.0, 1.0)]
        rxy = ensemble_correlation(ens, "rxy", corr_grid)
        ryx = ensemble_correlation(ens, "ryx", corr_grid)
        assert np.abs(rxy.values + ryx.values).max() <= 0.1

    def test_xx_yy_agreement(self, corr_ensembles_m500, corr_grid):
        ens = corr_ensembles_m500[(10.0, 0.5)]
        rxx = ensemble_correlation(ens, "rxx", corr_grid)
        ryy = ensemble_correlation(ens, "ryy", corr_grid)
        assert np.abs(rxx.values - ryy.values).max() <= 0.05

    def test_early_vs_late_anchors_stationary(self, corr_ensembles_m500):
        # WSS surrogate: disjoint anchor epochs give the same Rzz within 3
        # combined standard errors
        ens = corr_ensembles_m500[(10.0, 0.5)]
        scn = ens.scenario
        grid = LagGrid.from_sample_lags(
            101, scn.sample_period_s, scn.doppler_hz, stride=10
        )
        max_lag = 1000
        stop = scn.n_samples - max_lag
        early = np.arange(0, stop // 2, 10)
        late = np.arange(stop // 2, stop, 10)
        za = per_trial_correlation(ens, "rzz", grid, anchors=early)
        zb = per_trial_correlation(ens, "rzz", grid, anchors=late)
        m = ens.n_trials
        for part in (np.real, np.imag):
            a, b = part(za), part(zb)
            diff = np.abs(a.mean(0) - b.mean(0))
            se = np.sqrt(a.var(0, ddof=1) / m + b.var(0, ddof=1) / m)
            # 1e-12 floor absorbs float rounding on identically-zero lags
            # (Im Rzz at lag 0), where both diff and se are pure epsilon
            assert np.all(diff <= 3.0 * se + 1e-12)

    def test_convergence_in_trials(self):
        # RMS deviation from the closed form shrinks from M=500 to M=2000,
        # averaged over 10 independent seeds
        rms = {500: [], 2000: []}
        for seed in range(10):
            for m in (500, 2000):
                scn = validate_scenario(
                    make_scenario(
                        k=10.0, gamma=0.5, n_trials=m, n_samples=301, seed=500 + seed
                    )
                )
                ens = generate_ensemble(scn)
                grid = LagGrid.from_sample_lags(
                    101, scn.sample_period_s, scn.doppler_hz
                )
                series = ensemble_correlation(ens, "rxx", grid)
                oracle = ref_acf_quadrature(scn.params, scn.rates, scn.doppler_hz, grid)
                rms[m].append(
                    math.sqrt(np.mean((series.values - oracle.values) ** 2))
                )
        assert np.mean(rms[2000]) < np.mean(rms[500])

    def test_per_trial_shape_and_mean(self, corr_ensembles_m500, corr_grid):
        ens = corr_ensembles_m500[(0.0, 0.0)]
        per_trial = per_trial_correlation(ens, "rxx", corr_grid)
        assert per_trial.shape == (500, len(corr_grid))
        series = ensemble_correlation(ens, "rxx", corr_grid)
        assert np.allclose(per_trial.mean(0), series.values, rtol=0, atol=1e-12)


class TestEnsembleMean:
    def test_constant_one(self):
        scn = synth_scenario(3, 50)
        ens = synthetic_ensemble(np.ones((3, 50), dtype=complex), scn)
        assert ensemble_mean(ens) == 1.0 + 0.0j

    def test_zero_within_clt_bound(self, corr_ensembles_m500):
        ens = corr_ensembles_m500[(10.0, 0.5)]
        trial_means = ens.sample_matrix.mean(axis=1)
        m = ens.n_trials
        se = math.sqrt(
            trial_means.real.var(ddof=1) / m + trial_means.imag.var(ddof=1) / m
        )
        assert abs(ensemble_mean(ens)) <= 3.0 * se


class TestEnvelopePdf:
    def test_constant_envelope_single_bin(self):
        scn = synth_scenario(5, 400)
        ens = synthetic_ensemble(np.ones((5, 400), dtype=complex), scn)
        hist = envelope_pdf(ens, bins=100, value_range=(0.0, 3.0))
        width = 0.03
        occupied = hist.densities > 0
        assert occupied.sum() == 1
        assert hist.densities[occupied][0] == pytest.approx(1.0 / width, rel=1e-12)
        assert hist.bin_edges[np.flatnonzero(occupied)[0]] <= 1.0
        assert 1.0 < hist.bin_edges[np.flatnonzero(occupied)[0] + 1]

    def test_normalization_exact(self, corr_ensembles_m500):
        hist = envelope_pdf(corr_ensembles_m500[(10.0, 1.0)])
        widths = np.diff(hist.bin_edges)
        assert abs(np.sum(hist.densities * widths) - 1.0) <= 1e-12
        assert np.all(hist.densities >= 0)

    def test_rayleigh_reduction_cdf(self):
        # estimator check against the closed-form law; 64 sinusoids keep the
        # generator's own finite-N envelope bias (~1/N) out of the comparison,
        # and the coarser sampling only shortens the decorrelation stride
        scn = validate_scenario(
            make_scenario(
                k=0.0, gamma=0.0, n_trials=500, n_samples=8000, seed=13,
                n_sinusoids=64, fd_ts=0.05,
            )
        )
        ens = generate_ensemble(scn)
        picks = envelope_picks(ens)
        assert picks.size >= 100_000
        # at N=64 the true Rayleigh tail reaches past 3, so widen the range
        hist = envelope_pdf(ens, bins=160, value_range=(0.0, 5.0))
        emp_cdf = hist.cdf_at_edges()[1:]
        want_cdf = 1.0 - np.exp(-hist.bin_edges[1:] ** 2)
        assert np.abs(emp_cdf - want_cdf).max() <= 0.01

    def test_twdp_matches_reference_per_bin(self, corr_ensembles_m500):
        ens = corr_ensembles_m500[(10.0, 1.0)]
        hist = envelope_pdf(ens)
        n = hist.n_samples
        widths = np.diff(hist.bin_edges)
        emp_prob = hist.densities * widths
        ref_cdf = envelope_cdf_reference(ens.scenario.params, hist.bin_edges[1:])
        ref_prob = np.diff(np.concatenate(([0.0], ref_cdf)))
        se = np.sqrt(np.maximum(emp_prob, ref_prob) / n)
        assert np.all(np.abs(emp_prob - ref_prob) <= 3 * se + 1e-9)

    def test_range_must_cover(self):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.full((2, 100), 5.0 + 0j), scn)
        with pytest.raises(ValueError, match="cover"):
            envelope_pdf(ens, value_range=(0.0, 3.0))

    def test_rejects_single_bin(self):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        with pytest.raises(ValueError):
            envelope_pdf(ens, bins=1)


class TestLevelCrossingRate:
    def test_deterministic_ramp(self):
        scn = synth_scenario(1, 1000)
        ramp = np.linspace(0.0, 2.0, 1000).astype(complex)
        ens = synthetic_ensemble(ramp[None, :], scn)
        curve = level_crossing_rate(ens, [1.0])
        obs = (1000 - 1) * scn.sample_period_s
        assert curve.rates[0] == pytest.approx(1.0 / (obs * scn.doppler_hz), rel=1e-12)
        assert curve.observation_time_s == pytest.approx(obs)

    def test_constant_trace_rate_zero(self):
        scn = synth_scenario(2, 500)
        ens = synthetic_ensemble(np.ones((2, 500), dtype=complex), scn)
        curve = level_crossing_rate(ens, [0.5, 1.0, 2.0])
        assert np.all(curve.rates == 0.0)

    def test_rayleigh_against_oracle(self):
        # 64 sinusoids: the Gaussian-limit closed form applies (at N=8 the
        # finite-sum process itself crosses differently; see ledger)
        scn = validate_scenario(
            make_scenario(
                k=0.0, gamma=0.0, n_trials=500, n_samples=10000, seed=21,
                n_sinusoids=64,
            )
        )
        ens = generate_ensemble(scn)
        curve = level_crossing_rate(ens, [1.0])
        want = rayleigh_lcr_oracle(1.0)
        assert abs(curve.rates[0] - want) / want <= 0.05

    def test_per_trial_rates_shape(self):
        scn = synth_scenario(6, 300)
        ens = synthetic_ensemble(
            np.abs(np.random.default_rng(1).standard_normal((6, 300))) + 0j, scn
        )
        rates = per_trial_crossing_rates(ens, np.array([0.5, 1.0]))
        assert rates.shape == (6, 2)
        assert np.all(rates >= 0)

    def test_rejects_negative_threshold(self):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        with pytest.raises(ValueError):
            level_crossing_rate(ens, [-0.1])

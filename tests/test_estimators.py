import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import synthetic_ensemble
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft

from twdpsim import estimators
from twdpsim.estimators import (
    ESTIMATOR_KINDS,
    LagError,
    correlation_means,
    default_anchors,
    ensemble_correlation,
    envelope_pdf,
    envelope_picks,
    level_crossing_rate,
    per_trial_correlation,
    per_trial_correlations,
    per_trial_crossing_rates,
)
from twdpsim.params import ChannelParams, make_scenario, validate_scenario
from twdpsim.sos import TRIAL_BLOCK, LazyEnsemble, TraceEnsemble, generate_ensemble
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lag_past_int64_rejected_as_too_long(self):
        # A lag past the int64 range is refused before the cast to int,
        # which would warn and overflow.
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        huge = LagGrid(np.array([0.0, 1e300]), scn.doppler_hz)
        with pytest.raises(LagError, match="exceeds trace length 100"):
            ensemble_correlation(ens, "rxx", huge)

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


def _definition(kind, z, anchors, n_lags):
    """Per-trial anchor sums of each kind's lag product, straight from the
    definition, divided by the anchor count."""
    a, b = _DEFINITIONS[kind](z)
    want = np.array(
        [[sum(a[m, t] * b[m, t + lag] for t in anchors) / len(anchors)
          for lag in range(n_lags)]
         for m in range(z.shape[0])]
    )
    if kind == "rzz_re":
        return want.real
    if kind == "rzz_im":
        return want.imag
    return want


def _random_ensemble(n_trials, n_samples, seed):
    scn = synth_scenario(n_trials, n_samples)
    rng = np.random.default_rng(seed)
    shape = (n_trials, n_samples)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return synthetic_ensemble(z, scn), z


# Trace geometries (n_samples, n_lags) by test id, with the polyphase step,
# anchor count and transform length the default anchors give each one.
_GEOMETRIES = {
    "default-anchors": ((200, 31), (10, 17, 20)),
    "single-anchor": ((32, 32), (1, 1, 32)),  # only anchor 0 clears lag 31
    "two-anchors": ((50, 31), (10, 2, 5)),
    "max-lag-off-step": ((200, 36), (10, 17, 20)),  # max lag 35 = 3*10 + 5
    "phases-past-trace-end": ((201, 31), (10, 18, 24)),  # 24*10 > 201
}


def _geometry_case(name, seed, n_trials=3):
    """The random ensemble, grid and default anchors of geometry ``name``."""
    (n_samples, n_lags), _ = _GEOMETRIES[name]
    ens, z = _random_ensemble(n_trials, n_samples, seed)
    return ens, z, small_grid(ens.scenario, n_lags), default_anchors(n_samples, n_lags - 1)


# (kind, geometry name) for every kind and geometry; the two-anchor geometry
# keeps the bare kind as its test id.
_KIND_AND_GEOMETRY_CASES = [
    pytest.param(kind, name, id=kind if name == "two-anchors" else f"{kind}-{name}")
    for name in _GEOMETRIES
    for kind in ESTIMATOR_KINDS
]


@pytest.mark.parametrize("name", _GEOMETRIES)
def test_polyphase_layout(name):
    ens, _, grid, anchors = _geometry_case(name, 17, n_trials=2)
    (n_samples, n_lags), want = _GEOMETRIES[name]
    _, layout = estimators._correlation_setup(ens, ("rxx",), grid)
    assert (layout.step, layout.n_anchors, layout.m) == want
    assert np.array_equal(layout.step * np.arange(layout.n_anchors), anchors)
    # m * step covers every sample the sums read, and only one geometry's
    # phases run past the trace end.
    assert layout.span == anchors[-1] + n_lags <= layout.m * layout.step
    assert (layout.m * layout.step > n_samples) == (name == "phases-past-trace-end")


@pytest.mark.parametrize("kind, name", _KIND_AND_GEOMETRY_CASES)
def test_per_trial_correlation_matches_definition(kind, name):
    ens, z, grid, anchors = _geometry_case(name, 17)
    got = per_trial_correlation(ens, kind, grid)
    want = _definition(kind, z, anchors, len(grid))
    assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name", _GEOMETRIES)
@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_correlation_means_matches_definition(kind, name):
    ens, z, grid, anchors = _geometry_case(name, 19)
    got = correlation_means(ens, (kind,), grid)[kind]
    want = _definition(kind, z, anchors, len(grid)).mean(axis=0)
    assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
    assert np.abs(got - want).max() <= 1e-12


@st.composite
def _geometries(draw, max_samples):
    """(n_samples, n_lags): a trace length and a lag count it can hold, so
    that 1 up to 8 default anchors clear the final max-lag window."""
    n_samples = draw(st.integers(2, max_samples))
    return n_samples, draw(st.integers(1, n_samples))


@settings(max_examples=60, deadline=None)
@given(case=_geometries(80))
def test_correlations_match_definition_on_any_geometry(case):
    n_samples, n_lags = case
    ens, z = _random_ensemble(2, n_samples, 47)
    grid = small_grid(ens.scenario, n_lags)
    anchors = default_anchors(n_samples, n_lags - 1)
    means = correlation_means(ens, ESTIMATOR_KINDS, grid)
    per_trial = per_trial_correlations(ens, ESTIMATOR_KINDS, grid)
    for kind in ESTIMATOR_KINDS:
        want = _definition(kind, z, anchors, n_lags)
        assert np.abs(per_trial[kind] - want).max() <= 1e-12
        assert np.abs(means[kind] - want.mean(axis=0)).max() <= 1e-12


@pytest.mark.parametrize(
    "name", _GEOMETRIES, ids=lambda name: {"default-anchors": "default"}.get(name, name)
)
def test_correlation_means_equal_per_trial_means(name):
    ens, _, grid, _ = _geometry_case(name, 29, n_trials=7)
    means = correlation_means(ens, ESTIMATOR_KINDS, grid)
    per_trial = per_trial_correlations(ens, ESTIMATOR_KINDS, grid)
    for kind in ESTIMATOR_KINDS:
        assert means[kind].dtype == per_trial[kind].dtype
        assert np.abs(means[kind] - per_trial[kind].mean(axis=0)).max() <= 1e-14


def test_correlation_means_keep_kind_order_and_refuse_unknown_kinds():
    ens, _ = _random_ensemble(2, 120, 31)
    grid = small_grid(ens.scenario, 11)
    kinds = ("rsq", "ryx", "rzz_im", "rxx")
    assert list(correlation_means(ens, kinds, grid)) == list(kinds)
    with pytest.raises(ValueError, match="bogus"):
        correlation_means(ens, ("rxx", "bogus"), grid)


def _count_transforms(monkeypatch):
    """{(transform, length): number of 1-D transforms} of the estimators."""
    counts = {}

    def counted(name):
        transform = getattr(sp_fft, name)

        def call(x, n=None, axis=-1, **kwargs):
            key = (name, x.shape[axis] if n is None else n)
            counts[key] = counts.get(key, 0) + x.size // x.shape[axis]
            return transform(x, n, axis=axis, **kwargs)

        return call

    counting = SimpleNamespace(next_fast_len=sp_fft.next_fast_len)
    for name in ("fft", "rfft", "ifft", "irfft"):
        setattr(counting, name, counted(name))
    monkeypatch.setattr(estimators, "sp_fft", counting)
    return counts


_HARNESS_KINDS = ("rxx", "rxy", "rzz_re", "rzz_im", "rsq")


def test_correlation_means_fft_budget(monkeypatch):
    # The five harness statistics read the families xx, xy, yy, yx and ss of
    # the real sequences x = Re z, y = Im z and s = |z|^2.  Per trial, each
    # sequence costs one real transform of its anchor samples and `step` of
    # its trace phases, all of length m; per scenario, each kind part (rxx,
    # rxy, rzz_re, rzz_im, rsq) costs `step` inverse real transforms.
    # Default anchors on 200 samples with max lag 30: step 10, 17 anchors,
    # m = next_fast_len(17 + 3) = 20.
    ens, _ = _random_ensemble(150, 200, 43)
    grid = small_grid(ens.scenario, 31)
    counts = _count_transforms(monkeypatch)
    correlation_means(ens, _HARNESS_KINDS, grid)
    step, m = 10, 20
    assert m == sp_fft.next_fast_len(17 + 30 // step, real=True)
    assert counts == {
        ("rfft", m): 150 * 3 * (1 + step),
        ("irfft", m): 5 * step,
    }


def test_per_trial_correlations_fft_budget(monkeypatch):
    # Per trial: for each of x, y and s, one transform of the anchor samples
    # and `step` of the trace phases, and for each of the five kind parts
    # `step` inverse transforms, all real and of length m.  32 samples with
    # max lag 31 leave one anchor: step 1, m = next_fast_len(1 + 31) = 32.
    ens, _ = _random_ensemble(40, 32, 43)
    grid = small_grid(ens.scenario, 32)
    counts = _count_transforms(monkeypatch)
    per_trial_correlations(ens, _HARNESS_KINDS, grid)
    step, m = 1, 32
    assert counts == {
        ("rfft", m): 40 * 3 * (1 + step),
        ("irfft", m): 40 * 5 * step,
    }


def test_per_trial_correlations_bundle_is_bit_identical(monkeypatch):
    # Every kind of one bundle call equals its own per-kind call bit for bit,
    # and the bundle transforms each sequence once per trial.
    scn = synth_scenario(5, 300)
    rng = np.random.default_rng(23)
    z = rng.standard_normal((5, 300)) + 1j * rng.standard_normal((5, 300))
    ens = synthetic_ensemble(z, scn)
    grid = small_grid(scn, 41)
    single = {kind: per_trial_correlation(ens, kind, grid) for kind in ESTIMATOR_KINDS}
    counts = _count_transforms(monkeypatch)
    bundle = per_trial_correlations(ens, ESTIMATOR_KINDS, grid)
    assert list(bundle) == list(ESTIMATOR_KINDS)
    for kind in ESTIMATOR_KINDS:
        assert bundle[kind].dtype == single[kind].dtype
        assert bundle[kind].tobytes() == single[kind].tobytes()
    # Default anchors 0, 10, ..., 250 with max lag 40: step 10, 26 anchors,
    # m = next_fast_len(26 + 4) = 30.  Each of x, y and s takes one forward
    # pass (anchor samples and `step` phases); the seven distinct kind parts
    # (rzz_re and rzz_im are the two parts of rzz) take `step` inverse
    # transforms each.
    step, m = 10, 30
    assert counts == {
        ("rfft", m): 5 * 3 * (1 + step),
        ("irfft", m): 5 * 7 * step,
    }
    with pytest.raises(ValueError, match="bogus"):
        per_trial_correlations(ens, ("rxx", "bogus"), grid)


@pytest.mark.parametrize("estimator", [per_trial_correlations, correlation_means])
def test_rzz_is_rzz_re_plus_j_rzz_im_bit_for_bit(estimator):
    ens, _ = _random_ensemble(6, 250, 59)
    grid = small_grid(ens.scenario, 37)
    got = estimator(ens, ("rzz", "rzz_re", "rzz_im"), grid)
    alone = {kind: estimator(ens, (kind,), grid)[kind] for kind in ("rzz_re", "rzz_im")}
    assert got["rzz"].dtype == complex
    for part, kind in ((got["rzz"].real, "rzz_re"), (got["rzz"].imag, "rzz_im")):
        assert part.tobytes() == got[kind].tobytes() == alone[kind].tobytes()


def _window(ens, start, stop):
    """Samples start..stop-1 of every trial of ``ens``, as an ensemble."""
    scn = replace(ens.scenario, n_samples=stop - start)
    return TraceEnsemble(ens.sample_matrix[:, start:stop], scn)


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
        # combined standard errors.  The early and late windows' default
        # anchors are the first and the second half of the whole trace's.
        ens = corr_ensembles_m500[(10.0, 0.5)]
        scn = ens.scenario
        grid = LagGrid(np.arange(101) * (10 * scn.sample_period_s), scn.doppler_hz)
        max_lag = 1000
        stop = scn.n_samples - max_lag
        early = _window(ens, 0, stop // 2 + max_lag)
        late = _window(ens, stop // 2, scn.n_samples)
        za = per_trial_correlation(early, "rzz", grid)
        zb = per_trial_correlation(late, "rzz", grid)
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


class TestLazyEnsemble:
    def test_per_trial_rows_do_not_depend_on_the_block(self):
        # Trials 5..12 straddle a block boundary of the 37-trial ensemble but
        # are one block of their own ensemble; every per-trial row is the
        # same either way, so the block size moves no per-trial number.
        trials = range(5, 13)
        assert trials.start // TRIAL_BLOCK != (trials.stop - 1) // TRIAL_BLOCK
        scn = synth_scenario(37, 900, k=10.0)
        grid = small_grid(scn, 101)
        whole = per_trial_correlations(generate_ensemble(scn), ESTIMATOR_KINDS, grid)
        part = per_trial_correlations(
            generate_ensemble(scn, trials), ESTIMATOR_KINDS, grid
        )
        for kind in ESTIMATOR_KINDS:
            assert np.array_equal(whole[kind][5:13], part[kind]), kind

    @pytest.mark.parametrize("n_trials", [1, 37])
    def test_every_estimator_matches_the_in_memory_ensemble(self, n_trials):
        scn = synth_scenario(n_trials, 900, k=10.0)
        lazy, held = LazyEnsemble(scn), generate_ensemble(scn)
        grid = small_grid(scn, 101)
        a = per_trial_correlations(lazy, ESTIMATOR_KINDS, grid)
        b = per_trial_correlations(held, ESTIMATOR_KINDS, grid)
        for kind in ESTIMATOR_KINDS:
            assert np.array_equal(a[kind], b[kind]), kind
        # Max lag 889 leaves two anchors, 0 and 10.
        grid = small_grid(scn, 890)
        a = correlation_means(lazy, ESTIMATOR_KINDS, grid)
        b = correlation_means(held, ESTIMATOR_KINDS, grid)
        for kind in ESTIMATOR_KINDS:
            assert np.array_equal(a[kind], b[kind]), kind
        assert np.array_equal(envelope_picks(lazy), envelope_picks(held))
        thresholds = np.array([0.5, 1.0, 1.5])
        a, b = level_crossing_rate(lazy, thresholds), level_crossing_rate(held, thresholds)
        assert np.array_equal(a.rates, b.rates)
        assert a.observation_time_s == b.observation_time_s


class _NoTrials(LazyEnsemble):
    """A lazy ensemble of no trials, which no valid scenario gives."""

    n_trials = 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lazy", [False, True], ids=["in-memory", "lazy"])
def test_empty_ensemble(lazy):
    # Per-trial estimators return no rows; every trial mean is refused.
    scn = synth_scenario(2, 201)
    ens = _NoTrials(scn) if lazy else generate_ensemble(scn, range(2, 2))
    grid = small_grid(scn)
    thresholds = [0.5, 1.0]
    assert per_trial_correlation(ens, "rzz", grid).shape == (0, len(grid))
    for values in per_trial_correlations(ens, ESTIMATOR_KINDS, grid).values():
        assert values.shape == (0, len(grid))
    assert per_trial_crossing_rates(ens, thresholds).shape == (0, 2)
    assert envelope_picks(ens).shape == (0,)
    means = [
        lambda: correlation_means(ens, ESTIMATOR_KINDS, grid),
        lambda: ensemble_correlation(ens, "rxx", grid),
        lambda: envelope_pdf(ens),
        lambda: level_crossing_rate(ens, thresholds),
    ]
    for estimate in means:
        with pytest.raises(ValueError, match="empty ensemble"):
            estimate()


class TestEnsembleMean:
    def test_zero_within_clt_bound(self, corr_ensembles_m500):
        ens = corr_ensembles_m500[(10.0, 0.5)]
        trial_means = ens.sample_matrix.mean(axis=1)
        m = ens.n_trials
        se = math.sqrt(
            trial_means.real.var(ddof=1) / m + trial_means.imag.var(ddof=1) / m
        )
        assert abs(ens.sample_matrix.mean()) <= 3.0 * se


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

    @given(
        bins=st.integers(2, 5000),
        lo=st.floats(0.0, 10.0),
        width=st.floats(1e-6, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bin_edges_are_numpys(self, bins, lo, width):
        # Closed forms are evaluated at these edges before the histogram is
        # taken, so they must be the histogram's edges bit for bit.
        value_range = (lo, lo + width)
        picks = np.random.default_rng(bins).uniform(lo, lo + width, 50)
        _, want = np.histogram(picks, bins=bins, range=value_range)
        assert np.array_equal(estimators._bin_edges(bins, value_range), want)


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

    @pytest.mark.parametrize("estimator", [per_trial_crossing_rates, level_crossing_rate])
    def test_rejects_nan_threshold(self, estimator):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        with pytest.raises(ValueError, match="NaN"):
            estimator(ens, [np.nan, 1.0])

    @pytest.mark.parametrize("estimator", [per_trial_crossing_rates, level_crossing_rate])
    @pytest.mark.parametrize("thresholds", [[[0.5], [1.0]], [[0.5, 1.0]]])
    def test_rejects_thresholds_that_are_not_1d(self, estimator, thresholds):
        scn = synth_scenario(2, 100)
        ens = synthetic_ensemble(np.ones((2, 100), dtype=complex), scn)
        with pytest.raises(ValueError, match="1-D"):
            estimator(ens, thresholds)

    def test_counts_equal_the_two_comparison_definition(self):
        # A crossing is a pair (at-or-below, above), counted here one
        # threshold at a time.  Thresholds equal to sample values, and the
        # plateaus of a quantized envelope, put samples exactly on the `<=`
        # tie; ramps, constant trials beside noisy ones and 2-sample traces
        # give runs at and without the trial edges; 37 trials are more than
        # one TRIAL_BLOCK; and at f_D*T_s = 0.5 a run ends about every 2.5
        # steps.
        def check(ens, env, thresholds, case):
            rates = per_trial_crossing_rates(ens, thresholds)
            assert rates.shape == (len(env), len(thresholds)), case
            scn = ens.scenario
            obs_time = (scn.n_samples - 1) * scn.sample_period_s
            for j, rho in enumerate(thresholds):
                ups = ((env[:, :-1] <= rho) & (env[:, 1:] > rho)).sum(axis=1)
                want = ups / obs_time / scn.doppler_hz
                assert rates[:, j].tobytes() == want.tobytes(), (case, j)
            return rates

        assert 37 > TRIAL_BLOCK
        for n_trials in (7, 37):
            scn = synth_scenario(n_trials, 400)
            rng = np.random.default_rng(61)
            z = rng.standard_normal((n_trials, 400)) + 1j * rng.standard_normal((n_trials, 400))
            env = np.abs(z)
            thresholds = np.concatenate(([0.0, 0.5, 1.0], env[0, :40], env[3, 200:220]))
            rates = check(synthetic_ensemble(z, scn), env, thresholds, n_trials)
            assert np.any(rates > 0)
            # Unsorted, with duplicates, 0 and inf; and no thresholds at all.
            unsorted = np.concatenate(([1.0, np.inf, 0.0, 1.0], env[0, :40], env[0, 9:3:-1]))
            check(synthetic_ensemble(z, scn), env, unsorted, ("unsorted", n_trials))
            check(synthetic_ensemble(z, scn), env, [], ("none", n_trials))
            # Plateaus: a quarter-step grid makes runs of equal samples.
            plateaus = np.round(env * 4) / 4
            assert np.any(plateaus[:, 1:] == plateaus[:, :-1])
            grid = np.concatenate((np.arange(0.0, 3.0, 0.25), np.arange(0.125, 3.0, 0.25)))
            rates = check(
                synthetic_ensemble(plateaus, scn), plateaus, grid, ("plateaus", n_trials)
            )
            assert np.any(rates > 0)

        ramp = np.linspace(0.0, 2.0, 50)
        rows = np.stack([ramp, ramp[::-1], np.ones(50), np.abs(z[0, :50]), ramp])
        levels = np.concatenate(([0.0, 1.0, np.inf], ramp[::7], rows[3, ::5]))
        rates = check(synthetic_ensemble(rows, synth_scenario(5, 50)), rows, levels, "ramps")
        assert not np.any(rates[1:3]) and np.any(rates[0]) and np.any(rates[3])

        pairs = np.random.default_rng(62).integers(0, 3, (19, 2)).astype(float)
        levels = [0.0, 0.5, 1.0, 1.5, 2.0, np.inf, 1.0]
        check(synthetic_ensemble(pairs, synth_scenario(19, 2)), pairs, levels, "2 samples")

        scn = synth_scenario(2 * TRIAL_BLOCK + 3, 2000, k=10.0, fd_ts=0.5)
        held = generate_ensemble(scn)
        env = np.abs(held.sample_matrix)
        levels = np.concatenate((np.round(np.arange(0.1, 2.51, 0.1), 10), env[2, :30]))
        for ens in (held, LazyEnsemble(scn)):
            check(ens, env, levels, ("undersampled", type(ens).__name__))

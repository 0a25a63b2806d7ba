import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twdpsim import estimators, harness, sos, theory
from twdpsim.harness import (
    CORRELATION_STATS,
    LCR_ORACLE_THRESHOLDS,
    LCR_THRESHOLDS,
    PDF_BINS,
    PDF_RANGE,
    STATISTIC_ORACLES,
    Tolerance,
    ValidationScenario,
    builtin_scenarios,
    default_correlation_grid,
    derive_seed,
    pdf_range,
    run_validation,
)
from twdpsim.estimators import ensemble_correlation
from twdpsim.params import ChannelParams, make_scenario, validate_scenario
from twdpsim.theory import ref_acf_squared, sim_acf_squared


class TestBuiltinScenarios:
    def test_coverage(self):
        names = {vs.name for vs in builtin_scenarios()}
        assert {
            "corr-rayleigh",
            "corr-rician-k10",
            "corr-twdp-k10-g05",
            "corr-twdp-k10-g10",
            "pdf-twdp-k10-g10",
            "lcr-twdp-k10-g10-perp",
            "lcr-twdp-k10-g05",
        } <= names

    def test_all_validate(self):
        for vs in builtin_scenarios():
            scn = validate_scenario(vs.scenario)
            assert scn.n_sinusoids == 8
            assert scn.n_trials == 500
            assert scn.fd_ts == pytest.approx(0.01)

    def test_correlation_combos(self):
        combos = set()
        for vs in builtin_scenarios():
            if vs.name.startswith("corr-"):
                p = vs.scenario.params
                k = 0.0 if p.diffuse_power == p.omega else p.specular_power / p.diffuse_power
                gamma = 0.0 if p.v1 == 0 else p.v2 / p.v1
                combos.add((round(k), round(gamma, 2)))
                assert vs.oracle == "simulator_formula"
        assert combos == {(0, 0.0), (10, 0.0), (10, 0.5), (10, 1.0)}

    def test_aoa_geometries(self):
        by_name = {vs.name: vs.scenario for vs in builtin_scenarios()}
        assert by_name["corr-rayleigh"].aoa1 == pytest.approx(math.pi / 4)
        assert by_name["corr-rayleigh"].aoa2 == pytest.approx(2 * math.pi / 3)
        assert by_name["lcr-twdp-k10-g10-perp"].aoa1 == pytest.approx(math.pi / 2)
        assert by_name["lcr-twdp-k10-g10-perp"].aoa2 == pytest.approx(-math.pi / 2)

    def test_scenario_validation_rules(self):
        cfg = make_scenario()
        with pytest.raises(ValueError, match="statistic"):
            ValidationScenario("x", cfg, (), {}, "simulator_formula")
        with pytest.raises(ValueError, match="tolerance"):
            ValidationScenario("x", cfg, ("rxx",), {}, "simulator_formula")
        with pytest.raises(ValueError, match="oracle"):
            ValidationScenario(
                "x", cfg, ("rxx",), {"rxx": Tolerance(0.1, 0.1)}, "psychic"
            )
        with pytest.raises(ValueError):
            Tolerance(0.0, 0.1)

    @pytest.mark.parametrize("oracle", ["closed_form_oracle", "self_consistency"])
    def test_pdf_needs_a_cdf_oracle(self, oracle):
        with pytest.raises(ValueError, match="pdf"):
            ValidationScenario(
                "x", make_scenario(), ("pdf",), {"pdf": Tolerance(0.01, 0.01)}, oracle
            )

    @pytest.mark.parametrize(
        "stat, oracle",
        [
            ("lcr", "reference_formula"),
            ("lcr", "simulator_formula"),
            ("rxx", "self_consistency"),
            ("rsq", "closed_form_oracle"),
        ],
    )
    def test_unscorable_pairs_refused(self, stat, oracle):
        with pytest.raises(ValueError, match=stat):
            ValidationScenario(
                "x", make_scenario(), (stat,), {stat: Tolerance(0.1, 0.1)}, oracle
            )

    def test_rayleigh_lcr_law_needs_a_diffuse_only_channel(self):
        tol = {"lcr": Tolerance(0.1, 0.1)}
        ValidationScenario("x", make_scenario(), ("lcr",), tol, "closed_form_oracle")
        with pytest.raises(ValueError, match="v1 == 0"):
            ValidationScenario(
                "x", make_scenario(k=10.0, gamma=0.5), ("lcr",), tol, "closed_form_oracle"
            )

    def test_builtin_pairs_are_scorable(self):
        for vs in builtin_scenarios():
            for stat in vs.statistics:
                assert vs.oracle in STATISTIC_ORACLES[stat]

    def test_finite_n_pdf_needs_three_sinusoids(self):
        # The scenario is refused with the law's own words.
        cfg = make_scenario(n_sinusoids=2)
        tol = {"pdf": Tolerance(0.01, 0.01)}
        message = "finite-N envelope law requires n_sinusoids >= 3, got 2"
        with pytest.raises(ValueError) as refused:
            ValidationScenario("x", cfg, ("pdf",), tol, "simulator_formula")
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            theory.envelope_cdf_simulator(cfg.params, 2, [1.0])
        assert str(refused.value) == message
        ValidationScenario("x", cfg, ("pdf",), tol, "reference_formula")

    @pytest.mark.parametrize("oracle", ["reference_formula", "simulator_formula"])
    def test_density_needs_diffuse_power(self, oracle):
        # Refused at construction with the density's own message, not
        # mid-run; correlations still score such a channel.
        cfg = make_scenario(
            params=ChannelParams.from_components(1.0, 0.5, 0.0), n_trials=2, n_samples=400
        )
        tol = {"pdf": Tolerance(0.01, 0.01), "rxx": Tolerance(0.01, 0.01)}
        message = "envelope density requires diffuse_power > 0 (singular otherwise)"
        with pytest.raises(ValueError) as refused:
            ValidationScenario("dfree", cfg, ("pdf",), tol, oracle)
        assert str(refused.value) == message
        ValidationScenario("dfree", cfg, ("rxx",), tol, oracle)
        # Kluyver's law refuses too few sinusoids first.
        first = {"reference_formula": "diffuse_power", "simulator_formula": "n_sinusoids"}
        few = replace(cfg, n_sinusoids=2)
        with pytest.raises(ValueError, match=first[oracle]):
            ValidationScenario("dfree", few, ("pdf",), tol, oracle)

    def test_builtin_pdf_scenario_on_reference(self):
        pdf = next(vs for vs in builtin_scenarios() if "pdf" in vs.statistics)
        assert pdf.name == "pdf-twdp-k10-g10"
        assert pdf.oracle == "reference_formula"


def _loop_zscores(a, b):
    """The crossing-rate z-score rule, one threshold column at a time."""
    out = []
    for j in range(a.shape[1]):
        x, y = a[:, j], b[:, j]
        diff = abs(x.mean() - y.mean())
        se = 0.0
        if x.size > 1 and y.size > 1:
            se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        out.append(diff / se if se > 0 else 0.0 if diff == 0 else math.inf)
    return np.array(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_trials", [1, 2, 37, 500])
def test_crossing_zscores_equal_a_per_threshold_loop(n_trials):
    rng = np.random.default_rng(n_trials)
    a, b = rng.gamma(2.0, size=(2, n_trials, 6))
    a[:, 3] = b[:, 3] = 0.0  # a threshold neither ensemble crosses
    a[:, 4] = b[:, 4] = 1.5  # no spread, equal means
    a[:, 5], b[:, 5] = 1.0, 2.0  # no spread, unequal means
    z = harness._crossing_zscores(a, b)
    assert z.tobytes() == _loop_zscores(a, b).tobytes()
    assert z[3] == z[4] == 0.0 and z[5] == math.inf
    assert np.all(np.isfinite(z[:3])) == (n_trials > 1)


def _closed_forms(scn, grid, oracle):
    """Every kind's closed form, each written out apart from the kind table."""
    p, rates, fd = scn.params, scn.rates, scn.doppler_hz
    acf = theory.ref_acf_quadrature(p, rates, fd, grid).values
    ccf = theory.ref_ccf_quadrature(p, rates, grid).values
    rzz_re, rzz_im = theory.ref_acf_complex(p, rates, fd, grid)
    if oracle == "simulator_formula":
        rsq = sim_acf_squared(p, rates, fd, scn.n_sinusoids, grid)
    else:
        rsq = ref_acf_squared(p, rates, fd, grid)
    return {
        "rxx": acf, "ryy": acf, "rxy": ccf, "ryx": -ccf,
        "rzz_re": rzz_re.values, "rzz_im": rzz_im.values, "rsq": rsq.values,
    }


@pytest.mark.parametrize("oracle", ["reference_formula", "simulator_formula"])
def test_oracle_series_equals_the_closed_forms(oracle):
    # The oracles sum the kind table's families; every first term is
    # positive, as that sum assumes.
    assert all(terms[0][0] == 1 for terms in theory.KIND_FAMILIES.values())
    checks = [vs for vs in builtin_scenarios() if vs.statistics == CORRELATION_STATS]
    assert len(checks) == 4
    for vs in checks:
        scn = validate_scenario(vs.scenario)
        grid = default_correlation_grid(scn)
        want = _closed_forms(scn, grid, oracle)
        for kind in theory.CORRELATION_KINDS:
            got = harness.oracle_series(kind, scn, grid, oracle)
            assert got.kind == kind and got.grid is grid
            np.testing.assert_allclose(got.values, want[kind], rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="no oracle series for kind 'rzz'"):
        harness.oracle_series("rzz", scn, grid, oracle)


class TestRunValidation:
    def test_smoke_single_trial(self):
        scenarios = [
            replace(vs, scenario=replace(vs.scenario, n_trials=1))
            for vs in builtin_scenarios()
        ]
        report = run_validation(scenarios, seed=5)
        stats = {(r.scenario, r.statistic) for r in report.records}
        wanted = {
            (vs.name, stat) for vs in scenarios for stat in vs.statistics
        }
        assert stats == wanted
        assert all(r.n_trials == 1 for r in report.records)
        assert report.anchor_policy

    def test_anchor_policy_names_the_default_stride(self):
        stride = estimators.DEFAULT_ANCHOR_STRIDE
        assert f"anchor times every {stride}th sample" in harness.ANCHOR_POLICY

    def test_report_bytes_deterministic(self):
        scenarios = [
            replace(vs, scenario=replace(vs.scenario, n_trials=1))
            for vs in builtin_scenarios()
        ]
        a = run_validation(scenarios, seed=5).to_json()
        b = run_validation(scenarios, seed=5).to_json()
        assert a.encode() == b.encode()

    def test_self_consistency_lcr_scores_the_scenario_ensemble(self):
        # The record compares the scenario's own ensemble with one at the
        # "<name>/b" seed, per threshold in combined standard errors.
        cfg = make_scenario(k=10.0, gamma=0.5, n_trials=20, n_samples=2001)
        tol = {"lcr": Tolerance(4.0, 2.0)}
        vs = ValidationScenario("lcr", cfg, ("lcr",), tol, "self_consistency")
        (rec,) = run_validation([vs], seed=3).records
        a, b = (
            estimators.per_trial_crossing_rates(
                sos.generate_ensemble(
                    validate_scenario(replace(cfg, seed=derive_seed(3, label)))
                ),
                LCR_THRESHOLDS,
            )
            for label in ("lcr", "lcr/b")
        )
        diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
        se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
        assert np.all((se > 0) | (diff == 0))
        z = np.divide(diff, se, out=np.zeros_like(diff), where=se > 0)
        assert rec.seed == derive_seed(3, "lcr")
        assert rec.max_abs_dev == pytest.approx(z.max(), rel=1e-12)
        assert rec.rms_dev == pytest.approx(np.sqrt(np.mean(z**2)), rel=1e-12)

    def test_one_correlation_means_call_per_correlation_scenario(self, monkeypatch):
        # The harness keeps trial means only: one correlation_means call per
        # scenario with correlation statistics, none for pdf or lcr scenarios,
        # and no per-trial correlation arrays.
        scenarios = [
            replace(vs, scenario=replace(vs.scenario, n_trials=2))
            for vs in builtin_scenarios()
            if "pdf" not in vs.statistics
        ]
        calls = []
        original = estimators.correlation_means
        monkeypatch.setattr(
            estimators,
            "correlation_means",
            lambda ens, kinds, grid: calls.append(tuple(kinds)) or original(ens, kinds, grid),
        )
        monkeypatch.setattr(estimators, "per_trial_correlations", None)
        run_validation(scenarios, seed=5)
        expected = [vs.statistics for vs in scenarios if "lcr" not in vs.statistics]
        assert len(expected) == 4 and calls == expected

    @pytest.mark.parametrize("n_trials", [37, 1])
    def test_streaming_changes_no_number(self, n_trials, monkeypatch):
        # Every estimator call of run_validation reads a lazy ensemble; each
        # result equals the in-memory ensemble's bit for bit.  37 and 1 are
        # not multiples of the trial block.
        def scenario(name, stats, oracle, n_samples):
            cfg = make_scenario(k=10.0, gamma=0.5, n_trials=n_trials, n_samples=n_samples)
            tols = {stat: Tolerance(10.0, 10.0) for stat in stats}
            return ValidationScenario(name, cfg, stats, tols, oracle)

        suite = [
            scenario("corr", CORRELATION_STATS, "simulator_formula", 2001),
            scenario("pdf", ("pdf",), "reference_formula", 4000),
            scenario("lcr", ("lcr",), "self_consistency", 2001),
        ]
        calls = []
        for name in ("correlation_means", "envelope_pdf", "per_trial_crossing_rates"):
            original = getattr(estimators, name)

            def recorded(ens, *args, _original=original, **kwargs):
                result = _original(ens, *args, **kwargs)
                calls.append((_original, ens, args, kwargs, result))
                return result

            monkeypatch.setattr(estimators, name, recorded)
        report = run_validation(suite, seed=8)
        assert len(report.records) == len(CORRELATION_STATS) + 2
        assert [call[0].__name__ for call in calls] == [
            "correlation_means", "envelope_pdf",
            "per_trial_crossing_rates", "per_trial_crossing_rates",
        ]
        lcr_seeds = {call[1].scenario.seed for call in calls[2:]}
        assert lcr_seeds == {derive_seed(8, "lcr"), derive_seed(8, "lcr/b")}
        for fn, ens, args, kwargs, streamed in calls:
            assert isinstance(ens, sos.LazyEnsemble)
            held = fn(sos.generate_ensemble(ens.scenario), *args, **kwargs)
            if isinstance(held, dict):
                assert held.keys() == streamed.keys()
                for kind in held:
                    assert np.array_equal(held[kind], streamed[kind]), kind
            elif isinstance(held, estimators.HistogramDensity):
                assert np.array_equal(held.bin_edges, streamed.bin_edges)
                assert np.array_equal(held.densities, streamed.densities)
                assert held.n_samples == streamed.n_samples
            else:
                assert np.array_equal(held, streamed)

    @pytest.mark.parametrize(
        "stat, oracle", [("pdf", "reference_formula"), ("lcr", "self_consistency")]
    )
    def test_memory_stays_within_a_few_trial_blocks(self, stat, oracle):
        # The 96 x 40000 ensemble would take 61 MB; the harness holds at most
        # two of its 10 MB trial blocks and their reductions at a time.
        cfg = make_scenario(k=10.0, gamma=1.0, n_trials=96, n_samples=40000)
        vs = ValidationScenario("big", cfg, (stat,), {stat: Tolerance(10.0, 10.0)}, oracle)
        tracemalloc.start()
        try:
            (rec,) = run_validation([vs], seed=1).records
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.passed
        assert peak < 3 * sos.TRIAL_BLOCK * cfg.n_samples * 16

    def test_seed_changes_report(self):
        scenarios = [
            replace(vs, scenario=replace(vs.scenario, n_trials=1))
            for vs in builtin_scenarios()[:1]
        ]
        a = run_validation(scenarios, seed=5)
        b = run_validation(scenarios, seed=6)
        assert a.records[0].seed != b.records[0].seed

    def test_rayleigh_squared_envelope_oracle_switch(self):
        # against the ideal-channel formula the squared-envelope check fails
        # (the finite-N deficit is 0.125 at zero lag); against the finite-N
        # formula it passes
        cfg = make_scenario(k=0.0, gamma=0.0, n_samples=6001)
        tol = {"rsq": Tolerance(max_abs=0.05, rms=0.025)}
        scenarios = [
            ValidationScenario("ray-ref", cfg, ("rsq",), tol, "reference_formula"),
            ValidationScenario("ray-sim", cfg, ("rsq",), tol, "simulator_formula"),
        ]
        report = run_validation(scenarios, seed=3)
        by_name = {r.scenario: r for r in report.records}
        assert not by_name["ray-ref"].passed
        assert by_name["ray-ref"].max_abs_dev > 0.1
        assert by_name["ray-sim"].passed
        assert not report.overall_passed

    def test_empirical_closer_to_finite_n_formula(self, corr_ensembles_m500, corr_grid):
        ens = corr_ensembles_m500[(0.0, 0.0)]
        scn = ens.scenario
        empirical = ensemble_correlation(ens, "rsq", corr_grid)
        sim = sim_acf_squared(scn.params, scn.rates, scn.doppler_hz, 8, corr_grid)
        ref = ref_acf_squared(scn.params, scn.rates, scn.doppler_hz, corr_grid)
        rms = [math.sqrt(np.mean((empirical.values - law.values) ** 2)) for law in (sim, ref)]
        assert rms[0] < rms[1]

    def test_pdf_scored_against_the_declared_oracle(self):
        # one ensemble scored by hand against each envelope CDF; at 8
        # sinusoids the Rayleigh-parameter laws differ by 0.0146 in sup-CDF
        cfg = make_scenario(k=0.0, gamma=0.0, n_trials=40, n_samples=4000)
        scn = validate_scenario(replace(cfg, seed=derive_seed(4, "pdf")))
        hist = estimators.envelope_pdf(
            sos.generate_ensemble(scn), bins=PDF_BINS, value_range=PDF_RANGE
        )
        edges = hist.bin_edges[1:]
        emp = hist.cdf_at_edges()[1:]
        want = {
            "reference_formula": theory.envelope_cdf_reference(scn.params, edges),
            "simulator_formula": theory.envelope_cdf_simulator(scn.params, 8, edges),
        }
        assert np.abs(want["reference_formula"] - want["simulator_formula"]).max() > 0.01
        for oracle, oracle_cdf in want.items():
            vs = ValidationScenario("pdf", cfg, ("pdf",), {"pdf": Tolerance(1.0, 1.0)}, oracle)
            (rec,) = run_validation([vs], seed=4).records
            assert rec.oracle == oracle
            assert rec.max_abs_dev == pytest.approx(np.abs(emp - oracle_cdf).max(), abs=1e-15)

    def test_rayleigh_lcr_scored_against_the_closed_form_law(self):
        # one ensemble's crossing rates at the oracle thresholds, scored by
        # hand in relative deviation from the Rayleigh law
        cfg = make_scenario(k=0.0, gamma=0.0, n_trials=20, n_samples=2001)
        tol = {"lcr": Tolerance(1.0, 1.0)}
        vs = ValidationScenario("ray", cfg, ("lcr",), tol, "closed_form_oracle")
        (rec,) = run_validation([vs], seed=4).records
        scn = validate_scenario(replace(cfg, seed=derive_seed(4, "ray")))
        curve = estimators.level_crossing_rate(
            sos.generate_ensemble(scn), LCR_ORACLE_THRESHOLDS
        )
        law = theory.rayleigh_lcr_oracle(LCR_ORACLE_THRESHOLDS)
        dev = np.abs((curve.rates - law) / law)
        assert (rec.oracle, rec.seed) == ("closed_form_oracle", scn.seed)
        assert rec.max_abs_dev == float(dev.max())
        assert rec.rms_dev == math.sqrt(np.mean(dev ** 2))

    @staticmethod
    def _forbid_synthesis(monkeypatch):
        def synthesize(*args, **kwargs):
            raise AssertionError("a trial was synthesized before the law refused")

        monkeypatch.setattr(sos, "generate_ensemble", synthesize)

    @pytest.mark.parametrize("oracle", ["reference_formula", "simulator_formula"])
    def test_narrow_envelope_law_refuses_before_synthesis(self, oracle, monkeypatch):
        # K = 1e12 has diffuse power, so the scenario is built; the envelope
        # quadrature at the pdf check's edges needs more than its node budget.
        cfg = make_scenario(k=1e12, gamma=0.5, n_trials=2, n_samples=101)
        vs = ValidationScenario("narrow", cfg, ("pdf",), {"pdf": Tolerance(0.01, 0.01)}, oracle)
        self._forbid_synthesis(monkeypatch)
        with pytest.raises(ValueError) as refused:
            run_validation([vs], seed=0)
        assert str(refused.value) == "diffuse part too narrow for the envelope quadrature"

    def test_kernel_node_budget_refuses_before_synthesis(self, monkeypatch):
        # The finite-N rsq kernel at 2e6 sinusoids needs more nodes than its
        # budget; the ensemble would need a (2000002, 64) complex head per trial.
        cfg = make_scenario(n_sinusoids=2000000, n_trials=2, n_samples=101)
        vs = harness.correlation_scenario("configured", cfg)
        self._forbid_synthesis(monkeypatch)
        with pytest.raises(ValueError, match=r"n = 2000000 exceeds the node budget$"):
            run_validation([vs], seed=0)

    def test_every_scenario_is_refused_before_any_synthesis(self, monkeypatch):
        # A later scenario's law refuses before an earlier one is synthesized.
        tol = {"rxx": Tolerance(1.0, 1.0), "pdf": Tolerance(1.0, 1.0)}
        small = make_scenario(n_trials=2, n_samples=101)
        narrow = make_scenario(k=1e12, gamma=0.5, n_trials=2, n_samples=101)
        scenarios = [
            ValidationScenario("small", small, ("rxx",), tol, "simulator_formula"),
            ValidationScenario("narrow", narrow, ("pdf",), tol, "reference_formula"),
        ]
        self._forbid_synthesis(monkeypatch)
        with pytest.raises(ValueError, match="diffuse part too narrow"):
            run_validation(scenarios, seed=0)

    @pytest.mark.parametrize(
        "stat, oracle",
        [(stat, oracle) for stat, oracles in STATISTIC_ORACLES.items() for oracle in oracles],
    )
    def test_every_pair_scores_one_finite_record(self, stat, oracle):
        # A Rayleigh channel at 8 sinusoids is admitted by every law.
        cfg = make_scenario(n_trials=4, n_samples=1201)
        vs = ValidationScenario("pair", cfg, (stat,), {stat: Tolerance(1.0, 1.0)}, oracle)
        (rec,) = run_validation([vs], seed=2).records
        assert (rec.statistic, rec.oracle) == (stat, oracle)
        assert math.isfinite(rec.max_abs_dev) and math.isfinite(rec.rms_dev)

    def test_pdf_range_reaches_the_envelope_bound(self):
        # 64 sinusoids over 40000 samples reach envelopes past 3: the record
        # is scored on a range up to the envelope bound, not raised
        cfg = make_scenario(n_sinusoids=64, n_trials=5, n_samples=40000, fd_ts=0.5)
        scn = validate_scenario(cfg)
        bound = scn.params.envelope_bound(scn.n_sinusoids)
        assert bound > PDF_RANGE[1]
        assert pdf_range(scn) == (PDF_RANGE[0], bound)
        tol = {"pdf": Tolerance(1.0, 1.0)}
        vs = ValidationScenario("wide", cfg, ("pdf",), tol, "reference_formula")
        (rec,) = run_validation([vs], seed=0).records
        assert (rec.scenario, rec.statistic) == ("wide", "pdf")
        assert 0.0 <= rec.max_abs_dev <= 1.0 and rec.passed

    def test_builtin_pdf_range_unchanged(self):
        (pdf,) = [vs for vs in builtin_scenarios() if "pdf" in vs.statistics]
        assert pdf_range(validate_scenario(pdf.scenario)) == PDF_RANGE

    def test_derive_seed_stable(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")
        assert 0 <= derive_seed(7, "a") < 2 ** 64

    def test_mirror_component_statistics(self):
        # ryy shares the rxx form and ryx is the negated cross-correlation
        cfg = make_scenario(k=10.0, gamma=1.0, n_trials=120, n_samples=2001)
        tol = {s: Tolerance(0.08, 0.04) for s in ("ryy", "ryx")}
        scenarios = [
            ValidationScenario("mirror", cfg, ("ryy", "ryx"), tol, "simulator_formula")
        ]
        report = run_validation(scenarios, seed=2)
        assert {r.statistic for r in report.records} == {"ryy", "ryx"}
        assert report.overall_passed, [vars(r) for r in report.records]


@pytest.mark.slow
def test_builtin_suite_passes_at_full_scale():
    report = run_validation(builtin_scenarios(), seed=7)
    failing = [r for r in report.records if not r.passed]
    assert report.overall_passed, f"failing records: {failing}"
    kinds = {r.statistic for r in report.records}
    assert kinds == {"rxx", "rxy", "rzz_re", "rzz_im", "rsq", "pdf", "lcr"}

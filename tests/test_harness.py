import math
from dataclasses import replace

import numpy as np
import pytest

from twdpsim import estimators, sos, theory
from twdpsim.harness import (
    LCR_THRESHOLDS,
    PDF_BINS,
    PDF_RANGE,
    STATISTIC_ORACLES,
    Tolerance,
    ValidationScenario,
    builtin_scenarios,
    compare_series,
    default_correlation_grid,
    derive_seed,
    pdf_range,
    run_validation,
)
from twdpsim.estimators import ensemble_correlation
from twdpsim.params import make_scenario, validate_scenario
from twdpsim.theory import (
    LagGrid,
    CorrelationSeries,
    ref_acf_squared,
    sim_acf_squared,
)


def tiny_grid():
    return LagGrid.from_sample_lags(5, 1e-5, 1000.0)


def series_of(values, kind="rxx", grid=None):
    grid = grid or tiny_grid()
    return CorrelationSeries(kind, "empirical", grid, np.asarray(values, float))


class TestCompareSeries:
    def test_identical(self):
        a = series_of([0.5, 0.4, 0.3, 0.2, 0.1])
        dev = compare_series(a, a)
        assert dev.max_abs == 0.0 and dev.rms == 0.0

    def test_constant_offset(self):
        a = series_of([0.0] * 5)
        b = series_of([0.1] * 5)
        dev = compare_series(a, b)
        assert dev.max_abs == pytest.approx(0.1)
        assert dev.rms == pytest.approx(0.1)

    def test_symmetry(self):
        a = series_of([0.0, 0.2, -0.1, 0.4, 0.0])
        b = series_of([0.3, 0.0, 0.0, 0.0, -0.2])
        d1, d2 = compare_series(a, b), compare_series(b, a)
        assert d1 == d2

    def test_grid_mismatch_rejected(self):
        other = LagGrid.from_sample_lags(5, 2e-5, 1000.0)
        with pytest.raises(ValueError, match="grid"):
            compare_series(series_of([0] * 5), series_of([0] * 5, grid=other))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            compare_series(series_of([0] * 5), series_of([0] * 5, kind="rxy"))

    def test_finite_n_deficit_for_rayleigh(self):
        # the two squared-envelope formulas differ by exactly the kernel term,
        # peaking at 1/8 at zero lag for 8 sinusoids
        scn = validate_scenario(make_scenario(k=0.0, gamma=0.0))
        grid = default_correlation_grid(scn)
        ref = ref_acf_squared(scn.params, scn.rates, scn.doppler_hz, grid)
        sim = sim_acf_squared(scn.params, scn.rates, scn.doppler_hz, 8, grid)
        dev = compare_series(ref, sim)
        assert abs(dev.max_abs - 0.125) <= 1e-10
        assert np.argmax(np.abs(ref.values - sim.values)) == 0


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

    def test_rician_scenario_flagged(self):
        rician = next(vs for vs in builtin_scenarios() if vs.name == "corr-rician-k10")
        assert "Rician" in rician.notes

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
        cfg = make_scenario(n_sinusoids=2)
        tol = {"pdf": Tolerance(0.01, 0.01)}
        with pytest.raises(ValueError, match="n_sinusoids"):
            ValidationScenario("x", cfg, ("pdf",), tol, "simulator_formula")
        ValidationScenario("x", cfg, ("pdf",), tol, "reference_formula")

    def test_builtin_pdf_scenario_on_reference(self):
        pdf = next(vs for vs in builtin_scenarios() if "pdf" in vs.statistics)
        assert pdf.name == "pdf-twdp-k10-g10"
        assert pdf.oracle == "reference_formula"


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
        assert compare_series(empirical, sim).rms < compare_series(empirical, ref).rms

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

    def test_pdf_range_reaches_the_envelope_bound(self):
        # 64 sinusoids over 40000 samples reach envelopes past 3: the record
        # is scored on a range up to the envelope bound, not raised
        cfg = make_scenario(n_sinusoids=64, n_trials=5, n_samples=40000, fd_ts=0.5)
        bound = sos.envelope_bound(validate_scenario(cfg))
        assert bound > PDF_RANGE[1]
        assert pdf_range(validate_scenario(cfg)) == (PDF_RANGE[0], bound)
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

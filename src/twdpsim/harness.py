"""Declarative validation scenarios and the ensemble-vs-theory report.

Each scenario names a channel configuration, the statistics to check, the
oracle family to check them against, and fixed numeric tolerances.  Running a
scenario estimates every requested statistic from its ensemble and records
max-abs and RMS deviations against the oracle.  The ensemble is a
``sos.LazyEnsemble``: each estimator synthesizes, reduces and drops one block
of ``sos.TRIAL_BLOCK`` trials at a time, the one trial grain of every
reduction, so no scenario's full ensemble is ever in memory, and the results
equal those of the in-memory ensemble bit for bit.  Each estimator call
synthesizes the trials again; the correlation statistics of a scenario come
from one ``estimators.correlation_means`` call, so they share one pass, and
the harness holds their trial means only, never per-trial values.  A failed
tolerance is a report entry, never an exception; the overall verdict is the
AND of all entries.

The CLI shares these rules: ``correlation_scenario`` builds the builtin and
the ``validate --config`` correlation checks, ``resolve_scenario`` is the
scenario ``run_validation`` runs, at its derived seed, and ``validate`` logs,
``oracle_series`` is the closed form ``theory`` and ``acf`` print, and
``lcr`` prints the Rayleigh oracle where the law table admits the scenario to
``closed_form_oracle``.  ``oracle_series`` sums the closed forms of a kind's
lag-product families by ``theory.KIND_FAMILIES`` with the rule by which the
estimators sum their spectra, so an estimate and its oracle cannot differ in
a sign.

One law table (``_LAWS``) holds every (statistic, oracle) pair the harness
can score: how the pair is scored, which scenarios it refuses, and, for the
formula oracles, the oracle's squared-envelope ACF and envelope CDF.
``STATISTIC_ORACLES`` and ``ORACLES`` are read off it, and a scenario naming
any other pair is refused.  The oracles, and the statistics each one scores:
  reference_formula    correlations and the envelope density: closed forms of
                       the ideal (Gaussian-diffuse) channel; the density
                       needs diffuse power
  simulator_formula    correlations and the envelope density: closed forms of
                       the finite-N generator; for the density, Kluyver's
                       random-phasor-sum CDF, so 3 sinusoids or more and
                       diffuse power
  closed_form_oracle   lcr: the Rayleigh crossing-rate law, so Rayleigh
                       channels (no tone, v1 == 0) only
  self_consistency     lcr: the scenario's ensemble against a second one at a
                       disjoint seed, deviations in combined standard errors

The envelope density is scored by sup-CDF distance against a CDF oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import estimators, sos, theory
from .params import (
    DEFAULT_AOA1,
    DEFAULT_AOA2,
    ScenarioConfig,
    ValidatedScenario,
    make_scenario,
    validate_scenario,
)
from .theory import CorrelationSeries, LagGrid

ANCHOR_POLICY = (
    "ensemble average over trials and over anchor times every "
    f"{estimators.DEFAULT_ANCHOR_STRIDE}th sample, "
    "anchors excluded from the final max-lag window"
)

# Correlation grids span fd*tau in [0, 10]; crossing-rate checks use a fixed
# threshold ladder; oracle-based LCR checks use the three mid thresholds.
CORRELATION_FD_TAU_MAX = 10.0
MAX_GRID_LAGS = 2 ** 22
LCR_THRESHOLDS = np.round(np.arange(0.1, 2.51, 0.1), 10)
LCR_ORACLE_THRESHOLDS = np.array([0.5, 1.0, 2.0])
PDF_BINS = 100
PDF_RANGE = (0.0, 3.0)


@dataclass(frozen=True)
class Tolerance:
    max_abs: float
    rms: float

    def __post_init__(self):
        if not (self.max_abs > 0 and self.rms > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ValidationScenario:
    name: str
    scenario: ScenarioConfig
    statistics: tuple[str, ...]
    tolerances: dict[str, Tolerance]
    oracle: str

    def __post_init__(self):
        if not self.statistics:
            raise ValueError("statistics must be non-empty")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        for stat in self.statistics:
            if stat not in STATISTIC_ORACLES:
                raise ValueError(f"unknown statistic {stat!r}")
            if stat not in self.tolerances:
                raise ValueError(f"no tolerance declared for {stat!r}")
            if self.oracle not in STATISTIC_ORACLES[stat]:
                raise ValueError(
                    f"{stat} is scored by {' or '.join(STATISTIC_ORACLES[stat])}, "
                    f"not {self.oracle!r}"
                )
            if refusal := _LAWS[stat, self.oracle].refuse(self.scenario):
                raise ValueError(refusal)


@dataclass(frozen=True)
class Deviation:
    max_abs: float
    rms: float


@dataclass(frozen=True)
class ValidationRecord:
    scenario: str
    statistic: str
    oracle: str
    max_abs_dev: float
    rms_dev: float
    tol_max_abs: float
    tol_rms: float
    passed: bool
    n_trials: int
    seed: int


@dataclass(frozen=True)
class ValidationReport:
    master_seed: int
    anchor_policy: str
    records: tuple[ValidationRecord, ...] = field(default_factory=tuple)

    @property
    def overall_passed(self) -> bool:
        return all(rec.passed for rec in self.records)

    def to_json(self) -> str:
        doc = {
            "master_seed": self.master_seed,
            "anchor_policy": self.anchor_policy,
            "overall_passed": self.overall_passed,
            "records": [vars(rec) for rec in self.records],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _deviation(diff) -> Deviation:
    """Max-abs and RMS of the deviations ``diff``."""
    diff = np.abs(diff)
    return Deviation(float(diff.max()), float(math.sqrt(np.mean(diff ** 2))))


# Tolerances for the builtin suite, sized from the estimator standard errors
# at M=500 (max-abs ~3x the worst per-lag SE; RMS roughly half of that).  The
# self-consistency bound is a familywise max over the 25-threshold ladder, so
# it sits at 4 standard errors rather than the per-threshold 3.
CORRELATION_TOL = Tolerance(max_abs=0.05, rms=0.025)
_PDF_TOL = Tolerance(max_abs=0.01, rms=0.01)
_LCR_SELF_TOL = Tolerance(max_abs=4.0, rms=2.0)
CORRELATION_STATS = ("rxx", "rxy", "rzz_re", "rzz_im", "rsq")
_CORR_N_SAMPLES = 6001
_PDF_N_SAMPLES = 40000
_LCR_N_SAMPLES = 10000


def correlation_scenario(name: str, scenario: ScenarioConfig) -> ValidationScenario:
    """The correlation check of ``scenario``: every one of CORRELATION_STATS
    against the finite-N formulas, at CORRELATION_TOL."""
    tolerances = dict.fromkeys(CORRELATION_STATS, CORRELATION_TOL)
    return ValidationScenario(
        name, scenario, CORRELATION_STATS, tolerances, "simulator_formula"
    )


def builtin_scenarios() -> list[ValidationScenario]:
    """The standard desk-scale suite.

    Correlation checks cover Rayleigh, Rician, and two TWDP severities at the
    (pi/4, 2*pi/3) arrival geometry against the finite-N formulas; the
    envelope density and the crossing-rate self-consistency checks use the
    TWDP figure geometries.  Everything runs at the common defaults (8
    sinusoids, 500 trials, f_D*T_s = 0.01, f_D = 1 kHz).
    """
    scenarios = []
    combos = [
        ("corr-rayleigh", 0.0, 0.0),
        # Also a cross-check against published Rician-simulator correlation
        # curves.
        ("corr-rician-k10", 10.0, 0.0),
        ("corr-twdp-k10-g05", 10.0, 0.5),
        ("corr-twdp-k10-g10", 10.0, 1.0),
    ]
    for name, k, gamma in combos:
        scenario = make_scenario(k=k, gamma=gamma, n_samples=_CORR_N_SAMPLES)
        scenarios.append(correlation_scenario(name, scenario))
    scenarios.append(
        ValidationScenario(
            name="pdf-twdp-k10-g10",
            scenario=make_scenario(k=10.0, gamma=1.0, n_samples=_PDF_N_SAMPLES),
            statistics=("pdf",),
            tolerances={"pdf": _PDF_TOL},
            oracle="reference_formula",
        )
    )
    lcr_checks = [
        ("lcr-twdp-k10-g10-perp", 1.0, math.pi / 2, -math.pi / 2),
        ("lcr-twdp-k10-g05", 0.5, DEFAULT_AOA1, DEFAULT_AOA2),
    ]
    for name, gamma, aoa1, aoa2 in lcr_checks:
        scenario = make_scenario(
            k=10.0, gamma=gamma, aoa1=aoa1, aoa2=aoa2, n_samples=_LCR_N_SAMPLES
        )
        scenarios.append(
            ValidationScenario(
                name, scenario, ("lcr",), {"lcr": _LCR_SELF_TOL}, "self_consistency"
            )
        )
    return scenarios


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-scenario seed from the master seed and the scenario name."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def resolve_scenario(vs: ValidationScenario, seed: int) -> ValidatedScenario:
    """The validated scenario ``vs`` runs at under the master seed ``seed``:
    its own configuration at the seed derived from ``seed`` and its name."""
    return validate_scenario(replace(vs.scenario, seed=derive_seed(seed, vs.name)))


def default_correlation_grid(scenario, cap_to_trace: bool = True) -> LagGrid:
    """Sample-spaced lags over f_D*tau in [0, 10], kept inside the trace
    unless ``cap_to_trace`` is false (closed forms need no trace).

    A grid of more than ``MAX_GRID_LAGS`` lags is a ValueError.
    """
    # Past the budget 10/fd_ts is left uncomputed: it can overflow.
    n_lags = MAX_GRID_LAGS + 1
    if scenario.fd_ts * MAX_GRID_LAGS > CORRELATION_FD_TAU_MAX:
        n_lags = int(round(CORRELATION_FD_TAU_MAX / scenario.fd_ts)) + 1
    if cap_to_trace:
        n_lags = min(n_lags, scenario.n_samples - 1)
    if n_lags > MAX_GRID_LAGS:
        raise ValueError(
            f"f_D*T_s = {scenario.fd_ts:g} needs more than {MAX_GRID_LAGS} lags "
            f"to span f_D*tau = {CORRELATION_FD_TAU_MAX:g}"
        )
    return LagGrid.from_sample_lags(
        n_lags, scenario.sample_period_s, scenario.doppler_hz
    )


def oracle_series(kind: str, scenario, grid: LagGrid, oracle: str) -> CorrelationSeries:
    """Closed-form series of one correlation statistic: the signed sum of its
    families' closed forms by ``theory.KIND_FAMILIES``, the sum the
    estimators take of their spectra.  Only the families ``kind`` reads are
    evaluated, and only ss, the squared envelope, differs between the
    reference and the simulator formula: it is the oracle's law in the law
    table."""
    if kind not in theory.KIND_FAMILIES:
        raise ValueError(f"no oracle series for kind {kind!r}")
    p, rates, fd = scenario.params, scenario.rates, scenario.doppler_hz
    # Each returns a new array, which the sum may write into.
    closed_forms = {
        "xx": lambda: theory.ref_acf_quadrature(p, rates, fd, grid).values,
        "yy": lambda: theory.ref_acf_quadrature(p, rates, fd, grid).values,
        "xy": lambda: theory.ref_ccf_quadrature(p, rates, grid).values,
        # Ryx = -Rxy, taken from 0 so that a zero is +0, as in ref_acf_complex.
        "yx": lambda: 0.0 - theory.ref_ccf_quadrature(p, rates, grid).values,
        "ss": lambda: _LAWS["rsq", oracle].law(scenario, grid).values,
    }
    values = theory._signed_sum(kind, lambda ab: closed_forms[ab]())
    return CorrelationSeries(kind, grid, values)


def pdf_range(scenario) -> tuple[float, float]:
    """PDF_RANGE with its upper edge raised to the envelope bound: long or
    many-sinusoid ensembles can pass 3, never the bound."""
    return PDF_RANGE[0], max(PDF_RANGE[1], scenario.params.envelope_bound(scenario.n_sinusoids))


def _correlation_deviation(kind: str, oracle: str, ensemble, grid, means, *_) -> Deviation:
    return _deviation(means[kind] - oracle_series(kind, ensemble.scenario, grid, oracle).values)


def _pdf_deviation(oracle: str, ensemble, *_) -> Deviation:
    """Sup-CDF distance of the ensemble's envelope from the oracle's CDF."""
    scn = ensemble.scenario
    hist = estimators.envelope_pdf(ensemble, bins=PDF_BINS, value_range=pdf_range(scn))
    edges = hist.bin_edges[1:]
    return _deviation(hist.cdf_at_edges()[1:] - _LAWS["pdf", oracle].law(scn, edges))


def _lcr_oracle_deviation(ensemble, *_) -> Deviation:
    curve = estimators.level_crossing_rate(ensemble, LCR_ORACLE_THRESHOLDS)
    oracle = theory.rayleigh_lcr_oracle(LCR_ORACLE_THRESHOLDS)
    return _deviation((curve.rates - oracle) / oracle)


def _crossing_zscores(rates_a, rates_b) -> np.ndarray:
    """Per-threshold distance between the trial means of two (n_trials,
    n_thresholds) crossing-rate arrays, in combined standard errors; unequal
    means without a standard error (one trial, or no spread) score inf."""
    a, b = (np.ascontiguousarray(rates.T) for rates in (rates_a, rates_b))
    diff = np.abs(a.mean(axis=1) - b.mean(axis=1))
    se = np.zeros_like(diff)
    if min(a.shape[1], b.shape[1]) > 1:
        var_a, var_b = (x.var(axis=1, ddof=1) / x.shape[1] for x in (a, b))
        se = np.sqrt(var_a + var_b)
    z = np.divide(diff, se, out=np.full_like(diff, math.inf), where=se > 0)
    z[diff == 0.0] = 0.0
    return z


def _lcr_consistency_deviation(ensemble, _grid, _means, seed_b: int) -> Deviation:
    """Score the ensemble's LCR curve against a second one at ``seed_b``, in
    combined standard-error units."""
    ensemble_b = sos.LazyEnsemble(replace(ensemble.scenario, seed=seed_b))
    rates = [
        estimators.per_trial_crossing_rates(ens, LCR_THRESHOLDS)
        for ens in (ensemble, ensemble_b)
    ]
    return _deviation(_crossing_zscores(*rates))


def _needs_rayleigh(scenario) -> str | None:
    """The Rayleigh crossing-rate law's refusal: a channel with a tone."""
    if scenario.params.v1 != 0:
        return "closed_form_oracle is the Rayleigh law: it needs v1 == 0"


def _needs_diffuse(scenario) -> str | None:
    """The envelope laws' refusal: a channel without diffuse power."""
    if scenario.params.diffuse_power <= 0:
        return theory._NO_DIFFUSE


def _needs_three_sinusoids(scenario) -> str | None:
    """Kluyver's envelope law's refusal: fewer than 3 sinusoids, then the
    refusal of every envelope law."""
    if scenario.n_sinusoids < 3:
        return "the finite-N envelope law needs n_sinusoids >= 3"
    return _needs_diffuse(scenario)


def _ref_squared(scn, grid):
    return theory.ref_acf_squared(scn.params, scn.rates, scn.doppler_hz, grid)


def _sim_squared(scn, grid):
    return theory.sim_acf_squared(scn.params, scn.rates, scn.doppler_hz, scn.n_sinusoids, grid)


def _ref_cdf(scn, edges):
    return theory.envelope_cdf_reference(scn.params, edges)


def _sim_cdf(scn, edges):
    return theory.envelope_cdf_simulator(scn.params, scn.n_sinusoids, edges)


# One (statistic, oracle) pair's law.  ``score(ensemble, grid, means,
# seed_b)`` is the Deviation of a scenario's ensemble, given its correlation
# grid and trial means (None and {} for a scenario without correlations) and
# the seed of its second ensemble.  ``refuse(scenario)`` is why the pair
# cannot score a scenario, or None.  ``law`` is the oracle's own closed form
# that the score reads: the squared-envelope ACF for a correlation (ss, the
# one family in which the formula oracles differ), the envelope CDF for the
# density.
_Law = namedtuple("_Law", "score refuse law", defaults=(lambda scenario: None, None))


def _formula_laws(oracle: str, squared_acf, envelope_cdf, pdf_refusal) -> dict:
    """A formula oracle's laws: every correlation kind, and the envelope
    density, scored by sup-CDF distance and refused by ``pdf_refusal``."""
    laws = {
        (kind, oracle): _Law(partial(_correlation_deviation, kind, oracle), law=squared_acf)
        for kind in theory.CORRELATION_KINDS
    }
    laws["pdf", oracle] = _Law(partial(_pdf_deviation, oracle), pdf_refusal, envelope_cdf)
    return laws


# The law table.  Correlations and the envelope density have closed forms for
# both channels; the only crossing-rate law is the Rayleigh one, so TWDP
# crossing rates are checked seed against seed.  Each law reads theory's
# closed forms when it is called, never before.
_LAWS = {
    **_formula_laws("reference_formula", _ref_squared, _ref_cdf, _needs_diffuse),
    **_formula_laws("simulator_formula", _sim_squared, _sim_cdf, _needs_three_sinusoids),
    ("lcr", "closed_form_oracle"): _Law(_lcr_oracle_deviation, _needs_rayleigh),
    ("lcr", "self_consistency"): _Law(_lcr_consistency_deviation),
}
# The oracles that can score each statistic, and every oracle, in table order.
STATISTIC_ORACLES = {s: tuple(o for t, o in _LAWS if t == s) for s, _ in _LAWS}
ORACLES = tuple(dict.fromkeys(o for _, o in _LAWS))


def run_validation(
    scenarios: list[ValidationScenario], seed: int
) -> ValidationReport:
    """Run every scenario and collect the deviation records.

    Deterministic given (scenarios, seed): each scenario draws its own seed
    from the master seed and its name, so reordering scenarios cannot change
    any individual result.
    """
    records = []
    for vs in scenarios:
        scn = resolve_scenario(vs, seed)
        corr_stats = [s for s in vs.statistics if s in theory.CORRELATION_KINDS]
        ensemble = sos.LazyEnsemble(scn)
        grid = default_correlation_grid(scn) if corr_stats else None
        means = estimators.correlation_means(ensemble, corr_stats, grid) if corr_stats else {}
        seed_b = derive_seed(seed, vs.name + "/b")
        for stat in vs.statistics:
            dev = _LAWS[stat, vs.oracle].score(ensemble, grid, means, seed_b)
            tol = vs.tolerances[stat]
            records.append(
                ValidationRecord(
                    scenario=vs.name,
                    statistic=stat,
                    oracle=vs.oracle,
                    max_abs_dev=dev.max_abs,
                    rms_dev=dev.rms,
                    tol_max_abs=tol.max_abs,
                    tol_rms=tol.rms,
                    passed=dev.max_abs <= tol.max_abs and dev.rms <= tol.rms,
                    n_trials=scn.n_trials,
                    seed=scn.seed,
                )
            )
    return ValidationReport(
        master_seed=seed, anchor_policy=ANCHOR_POLICY, records=tuple(records)
    )
